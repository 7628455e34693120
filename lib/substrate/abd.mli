(** Multi-writer multi-reader atomic register from Σ (ABD).

    The construction behind the claim of §4 that [Σ_g] "permits to
    build shared atomic registers in g" [15]: both read and write run a
    query phase then an update phase, each completing once the set of
    responders covers a quorum currently output by Σ. Register values
    are integers; tags are (timestamp, writer) pairs. *)

type t

val create :
  ?faults:Channel_fault.spec ->
  ?seed:int ->
  scope:Pset.t ->
  sigma:(int -> int -> Pset.t option) ->
  t
(** [sigma p t] is the Σ (restricted to [scope]) oracle. [faults]
    (default {!Channel_fault.none}) parameterises the protocol's
    message buffer; quorum emulation tolerates loss only under a
    stubborn spec. *)

type opid

val read : t -> pid:int -> opid
(** Start a read at a scope member (raises otherwise). *)

val write : t -> pid:int -> value:int -> opid

val poll : t -> pid:int -> opid -> int option
(** [Some v] once the operation completed ([v] is meaningful for
    reads; writes return the written value). *)

val step : t -> pid:int -> time:int -> bool
(** Process one pending protocol message at [pid]. *)
