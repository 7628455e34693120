type snapshot =
  ((Topology.gid * Topology.gid) * (Algorithm1.datum * int * bool) list) list

type outcome = {
  topo : Topology.t;
  workload : Workload.t;
  fp : Failure_pattern.t;
  variant : Algorithm1.variant;
  trace : Trace.t;
  stats : Engine.stats;
  snapshots : (int * snapshot) list;
  final_logs : snapshot;
  consensus_instances : int;
  consensus_rounds : int;
  links : Channel_fault.stats;
}

let default_horizon workload fp =
  let k = List.length workload in
  let max_at = List.fold_left (fun acc r -> max acc r.Workload.at) 0 workload in
  100 + (25 * k) + max_at + Failure_pattern.max_crash_time fp

let snapshot_of st =
  List.map (fun key -> (key, Algorithm1.log_snapshot st key)) (Algorithm1.log_keys st)

let outcome_of ~topo ~workload ~fp ~variant st stats ~snapshots =
  {
    topo;
    workload;
    fp;
    variant;
    trace = Algorithm1.trace st;
    stats;
    snapshots;
    final_logs = snapshot_of st;
    consensus_instances = Algorithm1.consensus_instances st;
    consensus_rounds = Algorithm1.consensus_rounds st;
    links = Algorithm1.link_stats st;
  }

let run ?(variant = Algorithm1.Vanilla) ?(seed = 1) ?horizon ?mu ?scheduled
    ?(batching = false) ?(faults = Channel_fault.none)
    ?(record_snapshots = false) ~topo ~fp ~workload () =
  let mu = match mu with Some m -> m | None -> Mu.make ~seed topo fp in
  let max_at = List.fold_left (fun acc r -> max acc r.Workload.at) 0 workload in
  (* Time alone can enable a guard until the last invocation, crash
     and detector change; the slack covers every canonical μ. *)
  let slack = max_at + Failure_pattern.max_crash_time fp + 30 in
  let quiet_from = max slack mu.Mu.settle in
  let horizon =
    match horizon with
    | Some h -> h
    | None ->
        (* Delayed/retransmitted announcement copies stretch the run by
           at most the per-hop latency bound per workload message;
           [latency_bound none = 0] keeps fault-free horizons (and so
           fault-free runs) untouched. *)
        default_horizon workload fp
        + ((List.length workload + 1) * Channel_fault.latency_bound faults)
        + (quiet_from - slack)
  in
  let st =
    Algorithm1.create ~variant ~faults ~fault_seed:seed ~topo ~mu ~workload ()
  in
  let snapshots = ref [] in
  let on_tick t =
    if record_snapshots then snapshots := (t, snapshot_of st) :: !snapshots
  in
  (* With a custom schedule the engine cannot distinguish "nothing
     enabled" from "the enabled process is not being scheduled right
     now", so early quiescence is only safe under the default
     all-alive schedule. *)
  let quiesce_after =
    match scheduled with None -> quiet_from | Some _ -> horizon
  in
  (* Batching is scheduling: the engine repeats the one stepper until
     it finds nothing to do, draining each process to a fixpoint at its
     slot. *)
  let steps_per_tick = if batching then max_int else 1 in
  let stats =
    Engine.run ~fp ~horizon ~quiesce_after
      ~live_until:(fun () -> Algorithm1.visibility_horizon st)
      ~seed ?scheduled ~steps_per_tick ~on_tick
      ~enabled:(fun ~pid ~time -> Algorithm1.enabled st ~pid ~time)
      ~step:(Algorithm1.step st) ()
  in
  outcome_of ~topo ~workload ~fp ~variant st stats
    ~snapshots:(List.rev !snapshots)

let deliveries_complete outcome =
  let correct = Failure_pattern.correct outcome.fp in
  List.for_all
    (fun { Workload.msg; _ } ->
      let m = msg.Amsg.id in
      let invoked = Trace.invoke_seq outcome.trace ~m <> None in
      let src_correct = Pset.mem msg.Amsg.src correct in
      if not (invoked && src_correct) then true
      else
        Pset.for_all
          (fun p -> Trace.delivered_at outcome.trace ~p ~m)
          (Pset.inter correct (Topology.group outcome.topo msg.Amsg.dst)))
    outcome.workload
