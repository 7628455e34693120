(* The two ways a benchmark run goes from scenario to verdict.

   [plain] and [plain_sharded] call only the library's own entry points
   (Runner.run, Shard.plan/Shard.run, Properties, Claims); they give the
   end-to-end numbers. [traced] and [traced_sharded] rebuild Runner.run
   from its public parts and time every call from outside; they give
   the per-layer numbers. [digest] covers everything a run produces, so
   the benchmark can assert that the rebuilt runner behaves exactly like
   the library's. *)

type scenario = {
  seed : int;
  topo : Topology.t;
  fp : Failure_pattern.t;
  workload : Workload.t;
}

type sim = {
  faults : Channel_fault.spec;
  claims : bool;  (** record per-tick snapshots and check Table 2 too *)
}

type result = {
  outcomes : Runner.outcome list;  (** one per shard; one when unsharded *)
  verdicts : (string * Properties.verdict) list;
}

let failures r =
  List.filter_map
    (fun (name, v) ->
      match v with Ok () -> None | Error e -> Some (name ^ ": " ^ e))
    r.verdicts

let digest r =
  let view (o : Runner.outcome) =
    ( o.trace.Trace.events,
      o.stats,
      o.snapshots,
      o.final_logs,
      o.consensus_instances,
      o.consensus_rounds,
      o.links )
  in
  Digest.string
    (Marshal.to_string (List.map view r.outcomes, r.verdicts) [ Marshal.No_sharing ])

let check cfg o =
  Properties.all o @ if cfg.claims then Claims.all o else []

let plain cfg sc =
  let o =
    Runner.run ~seed:sc.seed ~faults:cfg.faults ~record_snapshots:cfg.claims
      ~topo:sc.topo ~fp:sc.fp ~workload:sc.workload ()
  in
  { outcomes = [ o ]; verdicts = check cfg o }

let label_shards verdicts =
  List.concat
    (List.mapi
       (fun i vs -> List.map (fun (name, v) -> (Printf.sprintf "shard %d %s" i name, v)) vs)
       verdicts)

let plain_sharded sc =
  let shards = Shard.plan ~topo:sc.topo ~fp:sc.fp sc.workload in
  let outcomes = Array.to_list (Shard.run ~seed:sc.seed shards) in
  { outcomes; verdicts = label_shards (List.map Properties.all outcomes) }

(* Per-call totals for the calls Engine.run makes thousands of times. *)
type calls = {
  mutable step_calls : int;
  mutable step_useful : int;
  mutable step_ns : int;
  mutable enabled_calls : int;
  mutable enabled_false : int;
  mutable enabled_ns : int;
  mutable snapshot_calls : int;
  mutable snapshot_ns : int;
}

let snapshot_of st =
  List.map (fun key -> (key, Algorithm1.log_snapshot st key)) (Algorithm1.log_keys st)

(* Runner.run with every optional argument at its default, rebuilt so
   each layer can be timed. Returns the outcome and the spans of
   mu.make, algorithm1.create, engine.run (with step, enabled and the
   per-tick snapshots folded into its args) and the final snapshot. *)
let runner ~faults ~record_snapshots { seed; topo; fp; workload } =
  let mu, s_mu = Span.timed "mu.make" (fun () -> Mu.make ~seed topo fp) in
  let horizon =
    Runner.default_horizon workload fp
    + ((List.length workload + 1) * Channel_fault.latency_bound faults)
  in
  let st, s_create =
    Span.timed "algorithm1.create" (fun () ->
        Algorithm1.create ~variant:Algorithm1.Vanilla ~faults ~fault_seed:seed ~topo
          ~mu ~workload ())
  in
  let c =
    {
      step_calls = 0;
      step_useful = 0;
      step_ns = 0;
      enabled_calls = 0;
      enabled_false = 0;
      enabled_ns = 0;
      snapshot_calls = 0;
      snapshot_ns = 0;
    }
  in
  let snapshots = ref [] in
  let on_tick t =
    if record_snapshots then begin
      let t0 = Span.now () in
      snapshots := (t, snapshot_of st) :: !snapshots;
      c.snapshot_ns <- c.snapshot_ns + (Span.now () - t0);
      c.snapshot_calls <- c.snapshot_calls + 1
    end
  in
  let enabled ~pid ~time =
    let t0 = Span.now () in
    let r = Algorithm1.enabled st ~pid ~time in
    c.enabled_ns <- c.enabled_ns + (Span.now () - t0);
    c.enabled_calls <- c.enabled_calls + 1;
    if not r then c.enabled_false <- c.enabled_false + 1;
    r
  in
  let step ~pid ~time =
    let t0 = Span.now () in
    let r = Algorithm1.step st ~pid ~time in
    c.step_ns <- c.step_ns + (Span.now () - t0);
    c.step_calls <- c.step_calls + 1;
    if r then c.step_useful <- c.step_useful + 1;
    r
  in
  let max_at = List.fold_left (fun acc r -> max acc r.Workload.at) 0 workload in
  let quiesce_after = max_at + Failure_pattern.max_crash_time fp + 30 in
  let start = Span.now () in
  let stats =
    Engine.run ~fp ~horizon ~quiesce_after
      ~live_until:(fun () -> Algorithm1.visibility_horizon st)
      ~seed ~on_tick ~enabled ~step ()
  in
  let s_engine =
    Span.make "engine.run" ~start ~stop:(Span.now ())
      ~args:
        [
          ("ticks", stats.Engine.ticks_used);
          ("step_calls", c.step_calls);
          ("step_useful", c.step_useful);
          ("step_ns", c.step_ns);
          ("enabled_calls", c.enabled_calls);
          ("enabled_false", c.enabled_false);
          ("enabled_ns", c.enabled_ns);
          ("snapshot_calls", c.snapshot_calls);
          ("snapshot_ns", c.snapshot_ns);
        ]
  in
  let final_logs, s_final =
    Span.timed "algorithm1.snapshot" (fun () -> snapshot_of st)
  in
  let outcome =
    {
      Runner.topo;
      workload;
      fp;
      variant = Algorithm1.Vanilla;
      trace = Algorithm1.trace st;
      stats;
      snapshots = List.rev !snapshots;
      final_logs;
      consensus_instances = Algorithm1.consensus_instances st;
      consensus_rounds = Algorithm1.consensus_rounds st;
      links = Algorithm1.link_stats st;
    }
  in
  (outcome, [ s_mu; s_create; s_engine; s_final ])

(* The first indexed query builds the trace index. *)
let index_traces outcomes =
  List.iter (fun (o : Runner.outcome) -> ignore (Trace.invoked o.trace)) outcomes

let traced cfg sc =
  let start = Span.now () in
  let o, runner_spans =
    runner ~faults:cfg.faults ~record_snapshots:cfg.claims sc
  in
  let (), s_index = Span.timed "trace.index" (fun () -> index_traces [ o ]) in
  let props, s_props =
    Span.timed "checker.properties" (fun () -> Properties.all o)
  in
  let claims, s_claims =
    if cfg.claims then
      let v, s = Span.timed "checker.claims" (fun () -> Claims.all o) in
      (v, [ s ])
    else ([], [])
  in
  let r = { outcomes = [ o ]; verdicts = props @ claims } in
  let children = runner_spans @ (s_index :: s_props :: s_claims) in
  (r, Span.make "run" ~start ~stop:(Span.now ()) ~children)

(* One shard, run as Shard.run runs it: one Runner.run with the
   scenario's seed. *)
let cell seed (s : Shard.shard) =
  let start = Span.now () in
  let o, children =
    runner ~faults:Channel_fault.none ~record_snapshots:false
      { seed; topo = s.topo; fp = s.fp; workload = s.workload }
  in
  (o, Span.make "shard.cell" ~start ~stop:(Span.now ()) ~children ~args:[ ("label", s.label) ])

let traced_sharded sc =
  let start = Span.now () in
  let shards, s_plan =
    Span.timed "shard.plan" (fun () -> Shard.plan ~topo:sc.topo ~fp:sc.fp sc.workload)
  in
  let run_start = Span.now () in
  let cells = List.map (cell sc.seed) shards in
  let s_run =
    Span.make "shard.run" ~start:run_start ~stop:(Span.now ())
      ~children:(List.map snd cells)
  in
  let outcomes = List.map fst cells in
  let (), s_index = Span.timed "trace.index" (fun () -> index_traces outcomes) in
  let verdicts, s_props =
    Span.timed "checker.properties" (fun () -> List.map Properties.all outcomes)
  in
  let r = { outcomes; verdicts = label_shards verdicts } in
  (r, Span.make "run" ~start ~stop:(Span.now ()) ~children:[ s_plan; s_run; s_index; s_props ])
