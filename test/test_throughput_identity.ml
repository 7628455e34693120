(* Trace/verdict-identity contract of the heavy-traffic engine
   (DESIGN.md "Batching & group sharding"):

   - Sharded runs are deterministic and pool-independent: running the
     shard plan at jobs=1 and jobs=4 yields bit-identical per-shard
     traces, identical engine statistics and byte-identical checker
     verdicts, and each shard's trace equals the plain sequential
     [Runner.run] of that shard's scenario.
   - Batched runs — the one stepper drained to a fixpoint at every
     process's slot by [Engine.run ~steps_per_tick:max_int] — satisfy
     the full specification ([Properties.all]) on every scenario of the
     sweep, crashes included, with the same (all-Ok) verdict vector as
     the default one action per process per tick.

   Scenarios come from the committed corpus (topology / crashes /
   workload; ablations and custom schedules are out of scope for the
   sharded runner, which runs the full detector) plus a generated
   sweep over loadgen traffic. *)

let t = Alcotest.test_case

let event_to_string e = Format.asprintf "%a" Trace.pp_event e

let verdict_string checks =
  String.concat ";"
    (List.map
       (function
         | name, Ok () -> name ^ "=ok"
         | name, Error e -> name ^ "=VIOLATED(" ^ e ^ ")")
       checks)

(* None = identical outcomes; Some msg = first divergence. *)
let outcome_divergence (a : Runner.outcome) (b : Runner.outcome) =
  let rec first_diff i = function
    | [], [] -> None
    | e :: _, [] | [], e :: _ ->
        Some
          (Printf.sprintf "event %d: one trace ends, other has %s" i
             (event_to_string e))
    | e :: es, e' :: es' ->
        if e = e' then first_diff (i + 1) (es, es')
        else
          Some
            (Printf.sprintf "event %d: %s vs %s" i (event_to_string e)
               (event_to_string e'))
  in
  match first_diff 0 (a.Runner.trace.Trace.events, b.Runner.trace.Trace.events) with
  | Some _ as d -> d
  | None ->
      if a.Runner.stats.Engine.steps <> b.Runner.stats.Engine.steps then
        Some "per-process step counts differ"
      else if a.Runner.stats.Engine.executed <> b.Runner.stats.Engine.executed
      then Some "executed counts differ"
      else if a.Runner.consensus_instances <> b.Runner.consensus_instances then
        Some "consensus instance counts differ"
      else if a.Runner.consensus_rounds <> b.Runner.consensus_rounds then
        Some "consensus round counts differ"
      else if
        verdict_string (Properties.all a) <> verdict_string (Properties.all b)
      then Some "checker verdicts differ"
      else None

(* One scenario of the sweep: (name, topo, fp, workload, seed). *)
let shard_identity (name, topo, fp, workload, seed) =
  let shards = Shard.plan ~topo ~fp workload in
  if shards = [] then Alcotest.failf "%s: empty shard plan" name;
  let run jobs = Shard.run ~jobs ~seed ~batching:true shards in
  let seq = run 1 and par = run 4 in
  List.iteri
    (fun i shard ->
      (match outcome_divergence seq.(i) par.(i) with
      | None -> ()
      | Some d -> Alcotest.failf "%s shard %d: jobs=1 vs jobs=4: %s" name i d);
      (* the shard's pooled run is the plain sequential run of its
         renumbered scenario *)
      let direct =
        Runner.run ~seed ~batching:true ~topo:shard.Shard.topo
          ~fp:shard.Shard.fp ~workload:shard.Shard.workload ()
      in
      match outcome_divergence seq.(i) direct with
      | None -> ()
      | Some d -> Alcotest.failf "%s shard %d: pooled vs direct: %s" name i d)
    shards

(* Mode safety: scalar and batched runs both satisfy the full spec,
   so the cross-mode verdict vectors are byte-identical (all Ok). *)
let mode_verdicts (name, topo, fp, workload, seed) =
  let outcomes =
    List.map
      (fun batching -> Runner.run ~seed ~batching ~topo ~fp ~workload ())
      [ false; true ]
  in
  let verdicts = List.map (fun o -> verdict_string (Properties.all o)) outcomes in
  List.iteri
    (fun i o ->
      match Properties.check_all o with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s mode %d violates the spec: %s" name i e)
    outcomes;
  match verdicts with
  | v :: rest ->
      List.iter
        (fun v' ->
          if v <> v' then
            Alcotest.failf "%s: mode verdicts differ: %s vs %s" name v v')
        rest
  | [] -> assert false

let corpus_scenarios () =
  let entries = Corpus.load ~dir:"../corpus" in
  List.filter_map
    (fun (name, decoded) ->
      match decoded with
      | Error e -> Alcotest.failf "%s does not decode: %s" name e
      | Ok s ->
          Some
            ( name,
              Scenario.topology s,
              Scenario.failure_pattern s,
              Scenario.workload s,
              s.Scenario.seed ))
    entries

let generated_scenarios () =
  let mk name topo ~crashes ~rate ~skew ~duration seed =
    let rng = Rng.make (100 + seed) in
    let workload =
      Loadgen.open_loop ~rng ~rate_pct:rate ~skew_pct:skew ~duration topo
    in
    let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) crashes in
    (name, topo, fp, workload, seed)
  in
  [
    mk "disjoint-4x3" (Topology.disjoint ~groups:4 ~size:3) ~crashes:[]
      ~rate:150 ~skew:0 ~duration:20 1;
    mk "disjoint-6x2-skewed"
      (Topology.disjoint ~groups:6 ~size:2)
      ~crashes:[] ~rate:300 ~skew:150 ~duration:15 2;
    mk "ring-4" (Topology.ring ~groups:4) ~crashes:[] ~rate:120 ~skew:100
      ~duration:15 3;
    mk "ring-5-crash" (Topology.ring ~groups:5)
      ~crashes:[ (1, 8) ] ~rate:100 ~skew:0 ~duration:12 4;
    mk "chain-4" (Topology.chain ~groups:4) ~crashes:[] ~rate:200 ~skew:50
      ~duration:15 5;
    mk "star-3" (Topology.star ~satellites:3 ~hub_size:3) ~crashes:[]
      ~rate:150 ~skew:100 ~duration:15 6;
  ]

let corpus_shard_identity () = List.iter shard_identity (corpus_scenarios ())

let generated_shard_identity () =
  List.iter shard_identity (generated_scenarios ())

let generated_mode_verdicts () = List.iter mode_verdicts (generated_scenarios ())

let batching_amortizes () =
  (* On a contended ring burst the batched engine must decide the same
     instances in no more consensus rounds and a strictly smaller
     simulated makespan (invoke-to-last-delivery ticks).

     The round count itself does not shrink: a round is one proposal.
     The amortization the heavy-traffic engine buys is in ticks-to-drain
     — draining enabled actions to fixpoint within a tick collapses the
     per-tick round-trip, which is exactly what the simulated-time
     throughput metric measures. *)
  let topo = Topology.ring ~groups:3 in
  let rng = Rng.make 42 in
  let workload =
    Loadgen.open_loop ~rng ~rate_pct:400 ~skew_pct:0 ~duration:8 topo
  in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let plain = Runner.run ~topo ~fp ~workload () in
  let batched = Runner.run ~batching:true ~topo ~fp ~workload () in
  Alcotest.(check int)
    "same instances decided" plain.Runner.consensus_instances
    batched.Runner.consensus_instances;
  if batched.Runner.consensus_rounds > plain.Runner.consensus_rounds then
    Alcotest.failf "batching increased rounds: %d vs %d"
      batched.Runner.consensus_rounds plain.Runner.consensus_rounds;
  let plain_span = Latency.span [ plain ]
  and batched_span = Latency.span [ batched ] in
  if batched_span >= plain_span then
    Alcotest.failf "batching did not shrink the makespan: %d vs %d ticks"
      batched_span plain_span

let suite =
  [
    t "corpus: sharded jobs=1 = jobs=4 = direct" `Slow corpus_shard_identity;
    t "generated sweep: sharded jobs=1 = jobs=4 = direct" `Quick
      generated_shard_identity;
    t "generated sweep: mode verdicts identical & Ok" `Quick
      generated_mode_verdicts;
    t "batching amortizes ticks-to-drain" `Quick batching_amortizes;
  ]
