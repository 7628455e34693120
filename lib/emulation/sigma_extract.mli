(** Algorithm 2 of the paper: emulating [Σ_{∩_{g∈G} g}] from any
    solution to genuine atomic multicast (necessity of the quorum
    components of μ, §5.1).

    For every group [g ∈ G] and subset [x ⊆ g], the construction runs
    an instance [A_{g,x}] of the multicast algorithm in which only the
    processes of [x] participate, each multicasting its identity to
    [g]. The subsets whose instance delivers are {e responsive}; the
    emulated quorum is the most responsive subset per group under the
    Bonnet–Raynal ranking function (heartbeat counts), intersected with
    [∩ G].

    The underlying [A] is our Algorithm 1 driven by valid μ histories;
    the instances share one simulation engine. *)

type t

val create :
  ?seed:int ->
  topo:Topology.t ->
  fp:Failure_pattern.t ->
  groups:Topology.gid list ->
  unit ->
  t
(** [groups] is the set [G] of at most two intersecting destination
    groups. Raises [Invalid_argument] if their intersection is empty. *)

val scope : t -> Pset.t
(** [∩_{g∈G} g]. *)

val step : t -> pid:int -> time:int -> bool
(** One emulation step of a process: heartbeat, then advance one of its
    instances. Always returns true for an alive process (heartbeats
    never stop), so drive it with a fixed horizon. *)

val query : t -> int -> Pset.t option
(** Current output of the emulated [Σ_{∩G}] at a process ([None] = ⊥
    outside the intersection). *)

val responsive : t -> int -> Topology.gid -> Pset.t list
(** The sets in [Q_g] at process [p] (diagnostics). *)

val run :
  t -> horizon:int -> (int -> int -> Pset.t option) * int
(** {!Recorder.record}: the history [query p t], suitable for
    {!Axioms.sigma}, and its settle tick. *)
