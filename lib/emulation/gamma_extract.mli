(** Algorithm 3 of the paper: emulating the cyclicity detector γ from
    any solution to genuine atomic multicast (§5.2).

    For every cyclic family [f] and every oriented, rooted closed path
    [π ∈ cpaths(f)] (any intersection may fail, so every first edge
    [π[0] ∩ π[1]] is failure-prone), the construction runs a probe
    instance [A_π] in which the members of [f]'s groups participate —
    {e except} [π[0] ∩ π[K-1]], the last edge. Probes chase the cycle:
    delivery of the level-[i] probe at a member of [π[i+1]] triggers
    the level-[i+1] probe. A probe chain can only advance past an edge
    when the genuine algorithm can deliver without the excluded edge,
    so a completed (or two-direction meeting) chain witnesses that the
    family is faulty; the [failed] flags then silence the family in the
    emulated output. *)

type t

val create : ?seed:int -> topo:Topology.t -> fp:Failure_pattern.t -> unit -> t

val step : t -> pid:int -> time:int -> bool
(** Heartbeat + advance one probe instance; always true when alive. *)

val query : t -> int -> Topology.family list
(** Emulated γ output at a process: the families of [F(p)] with a
    fully-clean equivalence class of closed paths. *)

val failed_paths : t -> Topology.cpath list
(** Oriented rooted paths currently flagged (diagnostics). *)

val run :
  t -> horizon:int -> (int -> int -> Topology.family list) * int
(** {!Recorder.record}: the history [query p t], suitable for
    {!Axioms.gamma}, and its settle tick, for {!Mu.with_gamma}. *)
