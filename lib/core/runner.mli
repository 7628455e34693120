(** One-call execution of Algorithm 1 over the simulation engine.

    This is the top of the stack: build the detector histories for a
    failure pattern, instantiate the protocol, drive it to quiescence,
    and return everything the property checkers need. *)

type snapshot =
  ((Topology.gid * Topology.gid) * (Algorithm1.datum * int * bool) list) list
(** State of every log: entries with (position, locked). *)

type outcome = {
  topo : Topology.t;
  workload : Workload.t;
  fp : Failure_pattern.t;
  variant : Algorithm1.variant;
  trace : Trace.t;
  stats : Engine.stats;
  snapshots : (int * snapshot) list;  (** per tick, oldest first (if requested) *)
  final_logs : snapshot;
  consensus_instances : int;
  consensus_rounds : int;
      (** commit rounds run — networked consensus invocations, one per
          proposal (see {!Algorithm1.consensus_rounds}) *)
  links : Channel_fault.stats;
      (** fate of every announcement copy under the run's channel-fault
          spec ({!Channel_fault.stats_zero} for fault-free runs) *)
}

val snapshot_of : Algorithm1.t -> snapshot
(** Every log of the state ({!Algorithm1.log_keys}) with its
    {!Algorithm1.log_snapshot}. *)

val outcome_of :
  topo:Topology.t ->
  workload:Workload.t ->
  fp:Failure_pattern.t ->
  variant:Algorithm1.variant ->
  Algorithm1.t ->
  Engine.stats ->
  snapshots:(int * snapshot) list ->
  outcome
(** [outcome_of ~topo ~workload ~fp ~variant st stats ~snapshots]: the
    outcome of a run of the configuration that left state [st] with
    engine stats [stats] and recorded [snapshots] (oldest first): its
    trace, {!snapshot_of} as [final_logs], its consensus counts and
    link stats. {!run} returns it; the explorer builds one per checked
    node. *)

val default_horizon : Workload.t -> Failure_pattern.t -> int
(** A horizon comfortably past every invocation and crash for the
    workload size ({!run} extends it for slow detectors). *)

val run :
  ?variant:Algorithm1.variant ->
  ?seed:int ->
  ?horizon:int ->
  ?mu:Mu.t ->
  ?scheduled:(int -> Pset.t) ->
  ?batching:bool ->
  ?faults:Channel_fault.spec ->
  ?record_snapshots:bool ->
  topo:Topology.t ->
  fp:Failure_pattern.t ->
  workload:Workload.t ->
  unit ->
  outcome
(** [mu] defaults to [Mu.make ~seed topo fp] (valid histories of every
    component); pass an ablated bundle to run the weakened-detector
    experiments. [scheduled] restricts which processes may take steps
    at each tick (P-fair runs of §6.2).

    Under the free schedule the engine may stop at the first silent
    tick from [max (max_at + last crash + 30) mu.settle] on ({!Mu.t}),
    and the default horizon grows by however far [mu.settle] exceeds
    the first term. With [scheduled] the run goes to the horizon.

    [batching] (default [false]) is the heavy-traffic mode of DESIGN.md
    "Batching & group sharding": the engine calls {!Algorithm1.step}
    again and again within a process's slot until it executes nothing
    ([Engine.run ~steps_per_tick:max_int]), so every process drains its
    enabled actions to a fixpoint each tick. The stepper and its
    actions are the same in both modes; only the scheduling differs.

    [faults] (default {!Channel_fault.none}) is forwarded to
    {!Algorithm1.create} with the run's [seed] as fault seed; the
    default horizon is stretched by the spec's latency bound and the
    engine is kept live while announcement copies are in flight. *)

val deliveries_complete : outcome -> bool
(** Every message invoked by a correct source is delivered at every
    correct member of its destination group (the termination check most
    experiments want). *)
