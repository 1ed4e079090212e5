(** Pure RPC-lifecycle state machine: timeout, retry, exponential
    backoff, settle-once delivery.

    This is the protocol core behind the process driver's timer wheel
    (where the "clock" is [Unix.gettimeofday]); the simulator's
    [Pdht_net.Hook] and the Kademlia dead-probe ladder charge the same
    schedule.  The machine owns no clock and
    sends nothing: the driver feeds it events and interprets the
    returned action.  Attempt [k] (0-based) waits
    [timeout *. backoff ^ k] before expiring; after [retries]
    re-attempts the call fails.  Once settled — either way — every
    further event is [Ignore]. *)

type config = { timeout : float; retries : int; backoff : float }

type t
(** Immutable machine state; drivers thread it through {!step}. *)

type event =
  | Reply_received   (** a response for this call arrived *)
  | Attempt_timeout  (** the current attempt's deadline passed *)

type action =
  | Deliver_reply  (** settle successfully; invoke the caller's
                       continuation with [ok = true] *)
  | Retry of { attempt : int; timeout : float }
      (** launch attempt [attempt] (1-based retries) and arm its
          deadline [timeout] seconds out *)
  | Give_up        (** retry budget exhausted: settle failed *)
  | Ignore         (** already settled; a stale event — drop it *)

val create : timeout:float -> retries:int -> backoff:float -> t
val timeout_for : config -> attempt:int -> float
(** [timeout *. backoff ^ attempt]. *)

val current_timeout : t -> float
(** Deadline delay of the attempt in flight. *)

val attempt : t -> int
(** 0-based attempt currently in flight. *)

val settled : t -> bool
val step : t -> event -> t * action
