(** The quorum failure detector Σ (and its set-restriction Σ_P).

    Σ returns at each query a non-empty set of processes such that any
    two returned quorums — across all processes and times — intersect,
    and eventually only correct processes are returned (§3). The
    restricted detector [Σ_P] behaves like Σ over the sub-pattern
    [F ∩ P] at members of [P] and returns [⊥] elsewhere. *)

type t

val make : ?restrict:Pset.t -> Failure_pattern.t -> t
(** [make ?restrict fp] builds a valid history of Σ (of [Σ_restrict])
    for the failure pattern [fp]. *)

val query : t -> int -> Failure_pattern.time -> Pset.t option
(** [query d p t] is the quorum output at process [p] and time [t], or
    [None] for [⊥] (process outside the restriction). *)
