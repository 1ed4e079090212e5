type category =
  | Query_unstructured
  | Query_index
  | Replica_flood
  | Index_insert
  | Maintenance
  | Update_gossip
  | Other

let category_index = function
  | Query_unstructured -> 0
  | Query_index -> 1
  | Replica_flood -> 2
  | Index_insert -> 3
  | Maintenance -> 4
  | Update_gossip -> 5
  | Other -> 6

let all_categories =
  [ Query_unstructured; Query_index; Replica_flood; Index_insert; Maintenance;
    Update_gossip; Other ]

let category_label = function
  | Query_unstructured -> "query-unstructured"
  | Query_index -> "query-index"
  | Replica_flood -> "replica-flood"
  | Index_insert -> "index-insert"
  | Maintenance -> "maintenance"
  | Update_gossip -> "update-gossip"
  | Other -> "other"

type t = {
  counts : int array;
  (* Optional tee into an observability registry: one named counter per
     category, kept in [category_index] order so [charge] stays O(1). *)
  mutable tee : Pdht_obs.Registry.counter array option;
}

let create () = { counts = Array.make (List.length all_categories) 0; tee = None }

let counter_name cat = "messages." ^ category_label cat

let attach_registry t registry =
  let counters =
    Array.of_list
      (List.map (fun cat -> Pdht_obs.Registry.counter registry (counter_name cat))
         all_categories)
  in
  (* Carry anything already charged over, so the registry totals agree
     with [total] no matter when the registry was attached. *)
  Array.iteri (fun i c -> Pdht_obs.Registry.incr counters.(i) c) t.counts;
  t.tee <- Some counters

let charge t cat n =
  if n < 0 then invalid_arg "Metrics.charge: negative count";
  let i = category_index cat in
  t.counts.(i) <- t.counts.(i) + n;
  match t.tee with
  | Some counters -> Pdht_obs.Registry.incr counters.(i) n
  | None -> ()

let count t cat = t.counts.(category_index cat)
let total t = Array.fold_left ( + ) 0 t.counts
let snapshot t = List.map (fun c -> (c, count t c)) all_categories

let diff ~before ~after =
  List.map (fun c -> (c, count after c - count before c)) all_categories

let copy t = { counts = Array.copy t.counts; tee = None }
let reset t = Array.fill t.counts 0 (Array.length t.counts) 0
