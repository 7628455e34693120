(** The perfect failure detector P.

    Outputs a set of suspected processes with {e strong accuracy} (no
    process is suspected before it crashes) and {e strong completeness}
    (every crashed process is eventually suspected forever by every
    correct process). Used by the Schiper–Pedone baseline regime
    (Table 1, row "≤ P"). *)

type t

val make : ?max_delay:int -> seed:int -> Failure_pattern.t -> t

val query : t -> int -> Failure_pattern.time -> Pset.t
(** Suspected processes at [p] and [t]. *)

val settle : t -> Failure_pattern.time
(** From this tick on no output changes: 0 without crashes, else the
    last crash plus [max_delay]. *)
