type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_to buf f =
  if Float.is_finite f then begin
    (* %.17g round-trips doubles; trim the common integral case to keep
       lines readable. *)
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else Buffer.add_string buf (Printf.sprintf "%.17g" f)
  end
  else Buffer.add_string buf "null"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> float_to buf f
  | String s -> escape_to buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (name, value) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf name;
          Buffer.add_char buf ':';
          to_buffer buf value)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: recursive descent over a string with a mutable cursor. *)

exception Parse_error of string

type cursor = { input : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let peek c = if c.pos < String.length c.input then Some c.input.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.input
    && match c.input.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.input && String.sub c.input c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if c.pos + 4 > String.length c.input then fail c "truncated \\u escape";
                let hex = String.sub c.input c.pos 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with _ -> fail c "bad \\u escape"
                in
                c.pos <- c.pos + 4;
                (* The exporters only escape control characters, so a
                   plain byte is a faithful decode for our round trip. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf (Printf.sprintf "\\u%04x" code)
            | _ -> fail c "unknown escape");
            go ())
    | Some ch ->
        c.pos <- c.pos + 1;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < String.length c.input && is_num_char c.input.[c.pos] do
    c.pos <- c.pos + 1
  done;
  let text = String.sub c.input start (c.pos - start) in
  if text = "" then fail c "expected a number";
  let is_float = String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') text in
  if is_float then
    match float_of_string_opt text with
    | Some f -> Float f
    | None -> fail c "malformed number"
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail c "malformed number")

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws c;
          let name = parse_string_body c in
          skip_ws c;
          expect c ':';
          let value = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((name, value) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              List.rev ((name, value) :: acc)
          | _ -> fail c "expected ',' or '}'"
        in
        Obj (fields [])
      end
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else begin
        let rec items acc =
          let value = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              items (value :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List.rev (value :: acc)
          | _ -> fail c "expected ',' or ']'"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string_body c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let of_string input =
  let c = { input; pos = 0 } in
  match parse_value c with
  | value ->
      skip_ws c;
      if c.pos <> String.length input then Error "trailing input after JSON value"
      else Ok value
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors *)

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let set_member name value = function
  | Obj fields when List.mem_assoc name fields ->
      Obj (List.map (fun (k, v) -> (k, if k = name then value else v)) fields)
  | Obj fields -> Obj (fields @ [ (name, value) ])
  | _ -> Obj [ (name, value) ]

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None
let to_string_opt = function String s -> Some s | _ -> None
