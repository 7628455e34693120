(** Group-family sharding across [Domain_pool] workers.

    Processes in different components of
    {!Topology.process_components} can never influence each other —
    genuineness makes independent groups parallelizable — so a scenario
    splits into one fully independent sub-scenario per component. Each
    shard is renumbered to a dense process/group/message universe and
    run by the ordinary {!Runner}; per-shard traces are bit-identical
    whether the shards run sequentially ([jobs = 1]) or in parallel,
    the contract pinned by the throughput identity suite. *)

type shard = {
  label : int;  (** component label: its smallest global process id *)
  topo : Topology.t;  (** the component, densely renumbered *)
  fp : Failure_pattern.t;  (** crashes restricted to the component *)
  workload : Workload.t;  (** requests to the component's groups *)
  procs : int array;  (** shard pid → global pid *)
  gids : Topology.gid array;  (** shard gid → global gid *)
  msg_ids : int array;  (** shard message id → global message id *)
}

val plan :
  topo:Topology.t -> fp:Failure_pattern.t -> Workload.t -> shard list
(** Split a scenario along {!Topology.process_components}, in
    increasing component-label order. Requests keep their relative
    order and invocation times; components without a group are
    dropped (their processes can never act). *)

val run :
  ?jobs:int ->
  ?seed:int ->
  ?batching:bool ->
  shard list ->
  Runner.outcome array
(** Run every shard with the same seed and options, one {!Runner.run}
    per shard on {!Domain_pool.map} with [jobs] workers (default [1]:
    an in-process loop, no domain spawned); result [i] belongs to shard
    [i] of the list. [jobs = 1] is the sequential reference the
    parallel runs are bit-identical to. *)
