(** The leader failure detector Ω (and its set-restriction Ω_P).

    Eventually all correct processes are returned the same correct
    leader (§3). Before its stabilisation time the detector outputs
    adversarial (seeded, deterministic) junk, which exercises the
    indulgence of the algorithms built on top of it. *)

type t

val make :
  ?restrict:Pset.t ->
  ?stabilization:Failure_pattern.time ->
  seed:int ->
  Failure_pattern.t ->
  t
(** [make ?restrict ?stabilization ~seed fp] builds a valid history of
    Ω (of [Ω_restrict]). Until [stabilization] (default [0]) the output
    at each process is an arbitrary member of the scope; afterwards it
    is the smallest correct member (the smallest member if none is
    correct, in which case leadership is vacuous). *)

val query : t -> int -> Failure_pattern.time -> int option
(** The elected process at [p] and [t]; [None] outside the scope. *)
