(** First-class simulation scenarios.

    A scenario bundles everything a run of Algorithm 1 depends on —
    topology, failure pattern, workload, protocol variant, detector
    ablation, schedule restriction, detector latency and engine seed —
    into one replayable, diffable value with a deterministic textual
    codec. The fuzzer generates scenarios, the shrinker minimizes them,
    and the corpus stores them; a failing property report is always a
    scenario a human can read and re-run. *)

type ablation =
  | Full  (** the candidate detector μ, every component valid *)
  | Lying_gamma
      (** γ outputs no family at all (complete, wildly inaccurate):
          ordering may break on cyclic topologies. *)
  | Always_gamma
      (** γ never excludes a family (accurate, incomplete): termination
          may break once a cyclic family is faulty. *)

type schedule =
  | Free  (** every alive process is scheduled at every tick *)
  | Starve of { p : int; from_ : int; len : int }
      (** process [p] is not scheduled during [[from_, from_ + len)] *)
  | Pinned of int option list
      (** witness prefix from the systematic explorer: tick [t] schedules
          exactly the pinned process ([None] = idle tick, rendered "-" by
          the codec); after the prefix, scheduling is free *)

type t = {
  n : int;  (** size of the process universe *)
  groups : Pset.t list;  (** destination groups, in gid order *)
  crashes : (int * int) list;  (** (process, crash time), sorted by pid *)
  msgs : (int * int * int) list;
      (** (src, dst gid, invocation tick); ids are list order *)
  variant : Algorithm1.variant;
  ablation : ablation;
  schedule : schedule;
  max_delay : int;  (** detection-latency bound fed to [Mu.make] *)
  seed : int;  (** engine-schedule, detector and channel-fault seed *)
  faults : Channel_fault.spec;
      (** channel faults applied to the multicast announcements
          ({!Channel_fault.none} by default; drawn from a stream keyed
          by [seed], so the codec line pins the whole fault behaviour) *)
}

val make :
  ?crashes:(int * int) list ->
  ?msgs:(int * int * int) list ->
  ?variant:Algorithm1.variant ->
  ?ablation:ablation ->
  ?schedule:schedule ->
  ?max_delay:int ->
  ?seed:int ->
  ?faults:Channel_fault.spec ->
  n:int ->
  Pset.t list ->
  t
(** Normalising constructor: crashes are sorted by pid, one per pid
    (earliest time wins). *)

val validate : t -> (unit, string) result
(** Structural well-formedness: non-empty distinct groups inside the
    universe, message sources inside their destination group, crash
    times and pids in range, schedule window sane, fault spec within
    {!Channel_fault.validate} bounds. Everything {!run} would
    otherwise raise on. *)

val topology : t -> Topology.t
val failure_pattern : t -> Failure_pattern.t
val workload : t -> Workload.t

val equal : t -> t -> bool

(** {1 Codec} *)

val to_string : t -> string
(** Deterministic, line-based, human-readable rendering. Canonical:
    [of_string (to_string s)] succeeds and returns a scenario equal to
    [make]-normalised [s]. The [faults] line is only emitted for
    non-trivial specs, so pre-fault scenario files parse unchanged. *)

val of_string : string -> (t, string) result
(** Parses the {!to_string} format. Blank lines and [#] comments are
    skipped. *)

(** {1 Execution} *)

val mu : t -> Mu.t
(** [Mu.make] with the scenario's [max_delay] and [seed], then its
    ablation: the one bundle every run and exploration reads. *)

val run : ?record_snapshots:bool -> t -> Runner.outcome
(** Build the (possibly ablated) detector bundle and drive Algorithm 1
    to quiescence. Raises [Invalid_argument] on scenarios that fail
    {!validate}. *)

val liveness_gap : t -> bool
(** Whether the scenario's crashes open the documented Lemma 25
    multi-Hamiltonian-cycle γ-liveness gap (see DESIGN.md), on which
    the paper-exact Algorithm 1 may legitimately block. *)

val check : t -> (unit, string) result
(** Run the scenario and evaluate the specification checks relevant to
    its variant ({!Checker.Properties.all}). Termination is exempted on
    {!liveness_gap} scenarios, and for the γ-free [Pairwise] variant on
    topologies with cyclic families (the §7 variant only targets the
    [F = ∅] regime; on cycles its stable-waits can deadlock — a corner
    this fuzzer surfaced, see corpus/pairwise-cyclic-liveness.scenario),
    and for {!Channel_fault.lossy} scenarios (fair loss without the
    stubborn layer loses announcements for good — termination is the
    claim such links forfeit; safety is still asserted).
    [Error] carries every failed check. *)
