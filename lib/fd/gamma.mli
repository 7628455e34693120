(** The cyclicity failure detector γ (§3, new in the paper).

    At each process [p], γ outputs a subset of [F(p)] — the cyclic
    families [p] is involved with — such that:

    - {e accuracy}: a family of [F(p)] absent from the output is faulty
      at that time;
    - {e completeness}: a faulty family is eventually excluded forever
      at every correct process of [F(p)].

    The implementation excludes each family for good at its fault time
    plus a seeded per-(process, family) delay. That is one valid shape:
    the axioms also let a faulty family flicker in and out before
    completeness drops it for good. *)

type t

val make :
  ?max_delay:int ->
  seed:int ->
  Topology.t ->
  families:Topology.family list ->
  Failure_pattern.t ->
  t
(** [families] must be the cyclic families [F] of the topology (or the
    subset of interest). [max_delay] (default [5]) bounds the detection
    delay of each (process, family) pair. *)

val query : t -> int -> Failure_pattern.time -> Topology.family list
(** Families of [F(p)] currently output at [p]. *)

val groups : t -> int -> Failure_pattern.time -> Topology.gid -> Topology.gid list
(** [groups d p t g] is the paper's [γ(g)] as evaluated at process [p]
    and time [t]: the groups [h] intersecting [g] such that [g] and [h]
    belong to a common family currently output. *)

val families_of : t -> int -> Topology.family list
(** The static [F(p)]. *)
