(* The enablement cache and the ~enabled engine hint are pure pruning:
   they may only skip step calls that would have returned false. These
   tests pin that claim end to end — the optimized stepper must produce
   an event-for-event identical trace AND identical engine statistics
   (per-process step counts, total executed, ticks, quiescence) as the
   reference stepper (enablement_cache:false), for every committed
   corpus scenario and for a fresh generated sweep, both sequentially
   and under the domain pool, and for batched runs (the engine draining
   each process to a fixpoint) on loadgen traffic. *)

let t = Alcotest.test_case

let event_to_string e = Format.asprintf "%a" Trace.pp_event e

(* None = identical; Some msg = first divergence, described. *)
let outcome_divergence reference optimized =
  let rt = reference.Runner.trace and ot = optimized.Runner.trace in
  let rs = reference.Runner.stats and os = optimized.Runner.stats in
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
            (Printf.sprintf "event %d: reference %s vs optimized %s" i
               (event_to_string e) (event_to_string e'))
  in
  match first_diff 0 (rt.Trace.events, ot.Trace.events) with
  | Some _ as d -> d
  | None ->
      if rs.Engine.steps <> os.Engine.steps then
        Some "per-process step counts differ"
      else if rs.Engine.executed <> os.Engine.executed then
        Some
          (Printf.sprintf "executed: %d vs %d" rs.Engine.executed
             os.Engine.executed)
      else if rs.Engine.ticks_used <> os.Engine.ticks_used then
        Some
          (Printf.sprintf "ticks: %d vs %d" rs.Engine.ticks_used
             os.Engine.ticks_used)
      else if rs.Engine.quiescent <> os.Engine.quiescent then
        Some "quiescence flags differ"
      else if
        reference.Runner.consensus_instances
        <> optimized.Runner.consensus_instances
      then Some "consensus instance counts differ"
      else None

let divergence s =
  outcome_divergence (Scenario.run ~enablement_cache:false s) (Scenario.run s)

let corpus_identity () =
  let entries = Corpus.load ~dir:"../corpus" in
  if List.length entries < 4 then
    Alcotest.failf "corpus too small (%d scenarios)" (List.length entries);
  List.iter
    (fun (name, decoded) ->
      match decoded with
      | Error e -> Alcotest.failf "%s does not decode: %s" name e
      | Ok s -> (
          match divergence s with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" name d))
    entries

(* 200 fresh generated scenarios, checked through the domain pool at
   jobs=1 and jobs=4 — the same indices the fuzz driver would farm
   out, so cache state is also exercised from worker domains. *)
let fuzz_identity jobs () =
  let trials = 200 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:7 Scenario_gen.default i in
        match divergence s with
        | None -> None
        | Some d -> Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent events" [] divergent

(* Batched runs under the same contract, over a contended ring-6 with a
   crash (eight seeds) and the loadgen sweep of the throughput identity
   suite. The engine calls [enabled] once per slot and then repeats
   [step] until it returns false, so a cache that skipped a candidate
   some earlier action of the same slot had enabled would reorder the
   tick. *)
let batched_identity () =
  let ring6 =
    List.init 8 (fun i ->
        let seed = i + 1 in
        let topo = Topology.ring ~groups:6 in
        let workload =
          Loadgen.open_loop ~rng:(Rng.make (100 + seed)) ~rate_pct:300
            ~skew_pct:0 ~duration:16 topo
        in
        let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (2, 5) ] in
        (Printf.sprintf "ring-6-crash-s%d" seed, topo, fp, workload, seed))
  in
  let divergent =
    List.filter_map
      (fun (name, topo, fp, workload, seed) ->
        let run enablement_cache =
          Runner.run ~seed ~batching:true ~enablement_cache ~topo ~fp
            ~workload ()
        in
        Option.map
          (fun d -> name ^ ": " ^ d)
          (outcome_divergence (run false) (run true)))
      (ring6 @ Test_throughput_identity.generated_scenarios ())
  in
  Alcotest.(check (list string)) "divergent runs" [] divergent

let suite =
  [
    t "corpus: optimized trace = reference trace" `Quick corpus_identity;
    t "fuzz sweep identical (jobs=1)" `Slow (fuzz_identity 1);
    t "fuzz sweep identical (jobs=4)" `Slow (fuzz_identity 4);
    t "batched: cache on = cache off" `Quick batched_identity;
  ]
