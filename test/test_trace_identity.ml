(* [Algorithm1.enabled] is a pure hint: when it says [false], [step]
   must return [false], so the engine may skip the call. These tests pin
   that claim end to end. Each run is rebuilt from public parts, as
   bench/e2e/pipeline.ml does: no [~enabled] filter, and a [step]
   wrapper that asks the hint before every call. A case fails if a step
   fires where the hint said [false], or if the rebuilt trace or
   [Engine.stats] differ from [Runner.run]'s on the same inputs (which
   does pass the hint to the engine). Every input runs scalar and
   batched: the committed corpus, a generated sweep at jobs=1 and
   jobs=4, ring-6 crash seeds with the loadgen sweep, and a
   fault-injected sweep over all three variants — announcement
   visibility is the only state the hint reads besides the stage lists.

   The last case pins the stepper itself: one MD5 over the events and
   engine stats of a fixed sweep, which must equal the digest the
   stepper produced before its stage lists (commit 20b6b01). *)

let t = Alcotest.test_case

let event_to_string e = Format.asprintf "%a" Trace.pp_event e

type input = {
  name : string;
  topo : Topology.t;
  fp : Failure_pattern.t;
  workload : Workload.t;
  variant : Algorithm1.variant;
  faults : Channel_fault.spec;
  seed : int;
}

let input ?(variant = Algorithm1.Vanilla) ?(faults = Channel_fault.none) name
    topo fp workload seed =
  { name; topo; fp; workload; variant; faults; seed }

let of_scenario name s =
  input ~variant:s.Scenario.variant ~faults:s.Scenario.faults name
    (Scenario.topology s) (Scenario.failure_pattern s) (Scenario.workload s)
    s.Scenario.seed

(* Runner.run at its defaults, rebuilt without [~enabled]. Returns the
   trace, the engine stats and every (pid, tick) at which a step fired
   although the hint had just said [false]. *)
let hinted_run ~batching i =
  let mu = Mu.make ~seed:i.seed i.topo i.fp in
  let st =
    Algorithm1.create ~variant:i.variant ~faults:i.faults ~fault_seed:i.seed
      ~topo:i.topo ~mu ~workload:i.workload ()
  in
  let horizon =
    Runner.default_horizon i.workload i.fp
    + ((List.length i.workload + 1) * Channel_fault.latency_bound i.faults)
  in
  let max_at =
    List.fold_left (fun acc r -> max acc r.Workload.at) 0 i.workload
  in
  let quiesce_after = max_at + Failure_pattern.max_crash_time i.fp + 30 in
  let unsound = ref [] in
  let step ~pid ~time =
    let hint = Algorithm1.enabled st ~pid ~time in
    let fired = Algorithm1.step st ~pid ~time in
    if fired && not hint then unsound := (pid, time) :: !unsound;
    fired
  in
  let stats =
    Engine.run ~fp:i.fp ~horizon ~quiesce_after
      ~live_until:(fun () -> Algorithm1.visibility_horizon st)
      ~seed:i.seed
      ~steps_per_tick:(if batching then max_int else 1)
      ~step ()
  in
  (Algorithm1.trace st, stats, List.rev !unsound)

(* None = sound and identical; Some msg = the first problem, described. *)
let check_mode ~batching i =
  let trace, stats, unsound = hinted_run ~batching i in
  let reference =
    Runner.run ~variant:i.variant ~seed:i.seed ~batching ~faults:i.faults
      ~topo:i.topo ~fp:i.fp ~workload:i.workload ()
  in
  let rt = reference.Runner.trace and rs = reference.Runner.stats in
  let rec first_diff k = function
    | [], [] -> None
    | e :: _, [] | [], e :: _ ->
        Some
          (Printf.sprintf "event %d: one trace ends, other has %s" k
             (event_to_string e))
    | e :: es, e' :: es' ->
        if e = e' then first_diff (k + 1) (es, es')
        else
          Some
            (Printf.sprintf "event %d: Runner.run %s vs rebuilt %s" k
               (event_to_string e) (event_to_string e'))
  in
  match unsound with
  | (p, tick) :: _ ->
      Some
        (Printf.sprintf "p%d fired at tick %d where the hint said false (%d such steps)"
           p tick (List.length unsound))
  | [] -> (
      match first_diff 0 (rt.Trace.events, trace.Trace.events) with
      | Some _ as d -> d
      | None ->
          if rs.Engine.steps <> stats.Engine.steps then
            Some "per-process step counts differ"
          else if rs.Engine.executed <> stats.Engine.executed then
            Some
              (Printf.sprintf "executed: %d vs %d" rs.Engine.executed
                 stats.Engine.executed)
          else if rs.Engine.ticks_used <> stats.Engine.ticks_used then
            Some
              (Printf.sprintf "ticks: %d vs %d" rs.Engine.ticks_used
                 stats.Engine.ticks_used)
          else if rs.Engine.quiescent <> stats.Engine.quiescent then
            Some "quiescence flags differ"
          else None)

(* Every problem of one input, scalar then batched. *)
let problems i =
  List.filter_map
    (fun batching ->
      Option.map
        (fun d ->
          Printf.sprintf "%s (%s): %s" i.name
            (if batching then "batched" else "scalar")
            d)
        (check_mode ~batching i))
    [ false; true ]

let corpus_inputs () =
  let entries = Corpus.load ~dir:"../corpus" in
  if List.length entries < 4 then
    Alcotest.failf "corpus too small (%d scenarios)" (List.length entries);
  List.map
    (fun (name, decoded) ->
      match decoded with
      | Error e -> Alcotest.failf "%s does not decode: %s" name e
      | Ok s -> of_scenario name s)
    entries

let corpus_hint () =
  Alcotest.(check (list string))
    "unsound or divergent runs" []
    (List.concat_map problems (corpus_inputs ()))

(* 200 generated scenarios per sweep, checked through the domain pool —
   the same indices the fuzz driver would farm out, so the hint is also
   exercised from worker domains. *)
let sweep_trials = 200

let sweep_input ~seed cfg k =
  of_scenario (Printf.sprintf "trial %d" k)
    (Fuzz_driver.scenario_of_trial ~seed cfg k)

let sweep_hint ~seed cfg jobs () =
  let results =
    Domain_pool.map ~jobs sweep_trials (fun k ->
        problems (sweep_input ~seed cfg k))
  in
  Alcotest.(check (list string))
    "unsound or divergent runs" []
    (List.concat (Array.to_list results))

(* A contended ring-6 with a crash (eight seeds) and the loadgen sweep
   of the throughput identity suite. Batched, the engine repeats [step]
   within a slot, so a hint that missed a candidate some earlier action
   of the same slot had enabled shows up here. *)
let loadgen_inputs () =
  let ring6 =
    List.init 8 (fun k ->
        let seed = k + 1 in
        let topo = Topology.ring ~groups:6 in
        let workload =
          Loadgen.open_loop ~rng:(Rng.make (100 + seed)) ~rate_pct:300
            ~skew_pct:0 ~duration:16 topo
        in
        let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (2, 5) ] in
        (Printf.sprintf "ring-6-crash-s%d" seed, topo, fp, workload, seed))
  in
  List.map
    (fun (name, topo, fp, workload, seed) -> input name topo fp workload seed)
    (ring6 @ Test_throughput_identity.generated_scenarios ())

let loadgen_hint () =
  Alcotest.(check (list string))
    "unsound or divergent runs" []
    (List.concat_map problems (loadgen_inputs ()))

let faulty_cfg =
  {
    Scenario_gen.default with
    Scenario_gen.faults_gen = `Random;
    variants = [ Algorithm1.Vanilla; Algorithm1.Strict; Algorithm1.Pairwise ];
  }

(* The ring-contended shape of the end-to-end benchmark: a ring of 24
   groups at rate 1600 for 24 ticks, about 384 messages a run. *)
let ring24_inputs () =
  List.init 20 (fun k ->
      let seed = k + 1 in
      let topo = Topology.ring ~groups:24 in
      let workload =
        Loadgen.open_loop ~rng:(Rng.make (100 + seed)) ~rate_pct:1600
          ~skew_pct:0 ~duration:24 topo
      in
      input
        (Printf.sprintf "ring-24-s%d" seed)
        topo
        (Failure_pattern.never ~n:(Topology.n topo))
        workload seed)

(* What [Runner.run] produced, scalar then batched, as one digest per
   input: every event as [Trace.pp_event] renders it, the engine stats,
   the consensus counts and the link stats. *)
let run_digest i =
  let b = Buffer.create 4096 in
  List.iter
    (fun batching ->
      let o =
        Runner.run ~variant:i.variant ~seed:i.seed ~batching ~faults:i.faults
          ~topo:i.topo ~fp:i.fp ~workload:i.workload ()
      in
      Printf.bprintf b "%s %b\n" i.name batching;
      List.iter
        (fun e -> Printf.bprintf b "%s\n" (event_to_string e))
        o.Runner.trace.Trace.events;
      let s = o.Runner.stats and l = o.Runner.links in
      Array.iter (Printf.bprintf b "%d ") s.Engine.steps;
      Printf.bprintf b "\n%d %d %b %d %d %d %d %d %d %d\n" s.Engine.executed
        s.Engine.ticks_used s.Engine.quiescent o.Runner.consensus_instances
        o.Runner.consensus_rounds l.Channel_fault.sent l.Channel_fault.dropped
        l.Channel_fault.duplicated l.Channel_fault.retransmissions
        l.Channel_fault.lost)
    [ false; true ];
  Digest.string (Buffer.contents b)

(* The digest of the sweep at commit 20b6b01, before the stage lists. A
   change to what [step] fires, in what order, or to the engine's
   schedule moves it. *)
let parent_digest = "17fdd3ddebc9a9c5a1bb126d1c3412e8"

let stepper_digest () =
  let inputs =
    corpus_inputs ()
    @ List.init sweep_trials (sweep_input ~seed:11 faulty_cfg)
    @ loadgen_inputs () @ ring24_inputs ()
  in
  let digests = String.concat "" (List.map run_digest inputs) in
  Alcotest.(check string)
    "digest of events and stats" parent_digest
    (Digest.to_hex (Digest.string digests))

let suite =
  [
    t "corpus: hint sound, same runs" `Quick corpus_hint;
    t "fuzz hint sound (jobs=1)" `Slow
      (sweep_hint ~seed:7 Scenario_gen.default 1);
    t "fuzz hint sound (jobs=4)" `Slow
      (sweep_hint ~seed:7 Scenario_gen.default 4);
    t "ring-6 + loadgen: hint sound" `Quick loadgen_hint;
    t "fault sweep: hint sound" `Slow
      (sweep_hint ~seed:11 faulty_cfg 1);
    t "stepper digest = parent's" `Slow stepper_digest;
  ]
