(** Bounded systematic schedule exploration for Algorithm 1 — a
    DPOR-lite model checker beside the random fuzzer.

    The explorer enumerates schedules of the deterministic simulation:
    a schedule is a sequence of moves, one per engine tick, each either
    [Step p] (tick [t] schedules exactly process [p]) or [Idle] (nobody
    runs, the clock advances). The root is the initial state; every
    other node is derived from a copy of its parent's state plus one
    pinned tick ({!derive}), which equals replaying the node's move
    prefix from the initial state through {!Engine.run_pinned}. The
    prefix rides along, so every reported witness is a
    {!Scenario.Pinned} schedule that replays from scratch.

    Time handling: [Idle] moves are offered only while [t < t_steady]
    ({!steady_time}: release times, crashes and the detector bundle's
    own settle tick are past). Past [t_steady], letting the clock tick
    changes nothing, so idling is pruned and states are fingerprinted
    with the canonical time [min t t_steady].

    Reductions:
    - {e persistent sets} (on by default, [~por:false] ablates them):
      in the steady regime the enabled processes are restricted to one
      of {!Topology.process_components} (the one with the fewest
      enabled processes) — steps of processes in other components
      commute with everything the component will ever do;
    - {e visited-state caching} ([~cache:false] ablates it): each
      fingerprint keeps the largest remaining depth explored from it,
      and a revisit with no more remaining depth is pruned (a cached
      visit with a shallower budget explored fewer behaviours).

    Checking: the safety properties of {!Properties.all} (everything
    but termination) hold at {e every} node — safety violations are
    monotone (delivery edges only accumulate), so checking
    representatives of each commutation class preserves detection. A
    node runs the check unless its parent passed and the child changed
    nothing the properties read ({!safety_unchanged}); the verdicts of
    such a node are its parent's. Termination is evaluated at terminal nodes (no process
    can act and [t >= t_steady] — a genuine deadlock or a completed
    run); [~claims:true] additionally re-replays each terminal with
    per-tick snapshots and checks Table 2 ({!Claims.all}).

    Determinism: reports are bit-identical across [~jobs] values — the
    root branches fan out over {!Domain_pool} with per-branch caches
    and counters, merged in branch order. *)

type move =
  | Step of int  (** schedule exactly this process for one tick *)
  | Idle  (** schedule nobody; only offered while [t < t_steady] *)

val pp_move : Format.formatter -> move -> unit

val moves_to_string : move list -> string
(** Space-separated, [Idle] rendered ["-"] — the same token syntax as
    the [schedule pinned] scenario line. *)

val moves_to_schedule : move list -> Scenario.schedule
(** The {!Scenario.Pinned} schedule replaying this move prefix. *)

type violation = {
  property : string;  (** property or claim name, e.g. ["termination"] *)
  detail : string;  (** the checker's error message *)
  witness : move list;  (** shortest violating move prefix found *)
}

type counters = {
  nodes : int;  (** search-tree nodes visited (states explored) *)
  terminals : int;  (** quiescent leaves (deadlocked or completed runs) *)
  truncated : int;  (** leaves cut by the depth bound *)
  cache_hits : int;  (** revisits pruned by the visited-state cache *)
  sleep_skips : int;
      (** always [0]: the explorer has no sleep sets. The field and its
          {!report_to_json} key stay while the end-to-end benchmark
          ([bench/e2e]) reads them. *)
  por_skips : int;  (** enabled moves outside the persistent set *)
  replayed_steps : int;
      (** protocol actions executed by child derivations (at most one
          per derived child) and by the [~claims] re-replays of
          terminals *)
  distinct_states : int;
      (** fingerprints cached, summed per root branch; [0] with the
          cache ablated *)
  max_depth : int;  (** deepest node visited *)
}

type report = {
  scenario : Scenario.t;  (** the explored configuration ([Free] schedule) *)
  depth : int;  (** move-sequence bound used *)
  t_steady : int;  (** {!steady_time} of the configuration *)
  por : bool;
  cache : bool;
  claims : bool;
  jobs : int;
  counters : counters;
  violations : violation list;
      (** one per failing property, shortest witness first found at
          that length, sorted by property name *)
}

val derive :
  fp:Failure_pattern.t ->
  Algorithm1.t ->
  Engine.stats ->
  move ->
  Algorithm1.t * Engine.stats * bool
(** [derive ~fp st stats mv]: the child of the node reached by a pinned
    prefix whose run left state [st] and stats [stats]. It runs the
    tick at time [stats.ticks_used] on a copy of [st]: for [Step p]
    with [p] alive then (under [fp]), one {!Algorithm1.step}; nobody
    for [Idle]. Returns the child state, the stats and whether the move
    fired — what {!Engine.run_pinned} of the prefix plus [mv] returns.
    [st] is left unchanged. *)

val safety_unchanged :
  parent:Algorithm1.t * Engine.stats -> Algorithm1.t * Engine.stats -> bool
(** [safety_unchanged ~parent:(st, stats) (st', stats')]: the child
    [st'] added no event but [Phase_change] since [st] (or none), and
    no process went from 0 steps in [stats] to at least 1 in [stats'].
    The safety properties read nothing else that a step changes (see
    {!Properties}), so such a child of a parent that passed them passes
    them too, and the explorer skips its check. [false] when [st]'s
    events are not a tail of [st']'s. *)

val steady_time : Scenario.t -> int
(** The later of the last workload release time and [settle] of
    {!Scenario.mu}, which covers the crashes: from then on every guard
    of the configuration is time-invariant. *)

val default_depth : Scenario.t -> int
(** A quiescence-covering bound: {!steady_time} plus a per-message
    activity budget (list, send, and per destination member the
    pending/commit/stabilize/stable/deliver actions across intersecting
    logs). Runs of the configuration quiesce within it; deeper bounds
    only add [truncated] leaves. *)

val run :
  ?por:bool ->
  ?cache:bool ->
  ?claims:bool ->
  ?stop_on_first:bool ->
  ?jobs:int ->
  ?depth:int ->
  Scenario.t ->
  report
(** Explore every schedule of the scenario's configuration up to
    [depth] (default {!default_depth}) moves, modulo the reductions.
    The scenario's own [schedule] field is ignored (exploration decides
    the schedule); the rest — topology, workload, crashes, variant,
    ablation, detector latency, seed — defines the configuration.
    [~stop_on_first:true] makes each root branch stop expanding at its
    own first recorded violation — counters then undercount, but the
    report stays deterministic across [jobs] (the cutoff is per branch,
    not global). Raises [Invalid_argument] on scenarios failing
    {!Scenario.validate}. *)

val min_witness :
  ?por:bool ->
  ?cache:bool ->
  ?jobs:int ->
  ?max_depth:int ->
  Scenario.t ->
  report option
(** Iterative deepening [depth = 1, 2, ...] up to [max_depth] (default
    {!default_depth}): the report of the first depth at which any
    violation exists, i.e. minimal-length witnesses. Runs each sweep
    with [~stop_on_first:true] — sound for minimality because at the
    first violating depth [d] every witness has length exactly [d]
    (shorter ones would have surfaced at an earlier sweep). [None] when
    the configuration is clean up to the bound. *)

val witness_scenario : Scenario.t -> move list -> Scenario.t
(** The scenario re-running a witness: same configuration, schedule
    pinned to the moves (free afterwards) — suitable for the corpus. *)

val failing_properties : report -> string list
(** Distinct failing property names, sorted — the POR-invariant verdict
    (identical with reduction on and off). *)

val pp_report : Format.formatter -> report -> unit

val report_to_json : report -> string
(** Self-contained JSON rendering of the report (configuration summary,
    counters, violations with witnesses). *)
