let t = Alcotest.test_case

let check_all o =
  match Properties.check_all o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let run ?variant ?scheduled ?seed ?mu topo fp workload =
  Runner.run ?variant ?scheduled ?seed ?mu ~topo ~fp ~workload ()

(* ---------------- canonical scenarios ------------------------------ *)

let figure1_no_crash () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let o = run topo fp (Workload.one_per_group topo) in
  check_all o;
  Alcotest.(check int) "every member delivers" 10
    (List.length (Trace.deliveries o.Runner.trace));
  Alcotest.(check bool) "engine quiesces" true o.Runner.stats.Engine.quiescent

let figure1_crash_intersection () =
  (* p1 = the paper's p2, the whole g0∩g1: f and f'' become faulty. *)
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 4) ] in
  let o = run topo fp (Workload.random (Rng.make 2) ~msgs:8 ~max_at:15 topo) in
  check_all o

let crash_before_invoke () =
  (* A faulty source that never invokes: nothing to deliver, nothing
     violated. *)
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (2, 0) ] in
  let workload = Workload.make [ (2, 1, 5) ] topo in
  let o = run topo fp workload in
  check_all o;
  Alcotest.(check int) "no deliveries" 0 (List.length (Trace.deliveries o.Runner.trace))

let crash_after_invoke_helping () =
  (* The source lists its message and crashes before A.multicast: the
     other members help (Prop. 1 reduction) and still deliver. *)
  let topo = Topology.chain ~groups:1 in
  (* g0 = {0,1,2} *)
  let fp = Failure_pattern.of_crashes ~n:3 [ (0, 1) ] in
  let workload = Workload.make [ (0, 0, 0) ] topo in
  let o = run ~seed:4 topo fp workload in
  check_all o;
  let delivered_somewhere =
    List.exists (fun (_, m, _, _) -> m = 0) (Trace.deliveries o.Runner.trace)
  in
  (* Either the message entered the system (then all correct deliver,
     enforced by check_all), or it was lost with the source — both are
     legal; what matters is no violation and quiescence. *)
  Alcotest.(check bool) "run quiesces" true
    (o.Runner.stats.Engine.quiescent || delivered_somewhere)

let single_process_group () =
  (* A message addressed to a singleton group: trivially solvable. *)
  let topo = Topology.create ~n:3 [ Pset.singleton 1; Pset.of_list [ 0; 1; 2 ] ] in
  let fp = Failure_pattern.never ~n:3 in
  let workload = Workload.make [ (1, 0, 0); (0, 1, 0) ] topo in
  let o = run topo fp workload in
  check_all o

let broadcast_regime () =
  (* One group = all processes: atomic multicast degenerates to atomic
     broadcast; everything is delivered in the same total order. *)
  let topo = Topology.create ~n:4 [ Pset.range 4 ] in
  let fp = Failure_pattern.of_crashes ~n:4 [ (3, 8) ] in
  let workload = Workload.random (Rng.make 9) ~msgs:6 ~max_at:6 topo in
  let o = run topo fp workload in
  check_all o;
  (* identical delivery order at every correct process *)
  let orders =
    List.filter_map
      (fun p ->
        match Trace.delivery_order o.Runner.trace p with [] -> None | l -> Some l)
      [ 0; 1; 2 ]
  in
  match orders with
  | [] -> Alcotest.fail "nothing delivered"
  | first :: rest ->
      List.iter
        (fun l -> Alcotest.(check (list int)) "same total order" first l)
        rest

let genuineness_steps () =
  (* Processes with no message addressed to them take no step at all. *)
  let topo = Topology.disjoint ~groups:3 ~size:2 in
  let fp = Failure_pattern.never ~n:6 in
  let workload = Workload.make [ (0, 0, 0) ] topo in
  let o = run topo fp workload in
  check_all o;
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "p%d took no steps" p)
        0
        o.Runner.stats.Engine.steps.(p))
    [ 2; 3; 4; 5 ]

let hint_waits_for_listing () =
  (* [enabled] holds a message at p only once p has a stage for it: a
     member other than the source has nothing to do before the source
     lists the message. *)
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let st =
    Algorithm1.create ~topo ~mu:(Mu.make ~seed:1 topo fp)
      ~workload:(Workload.make [ (0, 0, 3) ] topo)
      ()
  in
  for time = 0 to 2 do
    Alcotest.(check bool)
      (Printf.sprintf "p1 not enabled at tick %d" time)
      false
      (Algorithm1.enabled st ~pid:1 ~time)
  done;
  Alcotest.(check bool) "p0 lists m0 at tick 3" true
    (Algorithm1.step st ~pid:0 ~time:3);
  Alcotest.(check bool) "p1 enabled once m0 is listed" true
    (Algorithm1.enabled st ~pid:1 ~time:3)

let group_sequential_serialization () =
  (* Many messages from different sources to one group: the Prop. 1
     wrapper serialises them; all get delivered. *)
  let topo = Topology.create ~n:3 [ Pset.range 3 ] in
  let fp = Failure_pattern.never ~n:3 in
  let workload =
    Workload.make [ (0, 0, 0); (1, 0, 0); (2, 0, 0); (0, 0, 1); (1, 0, 2) ] topo
  in
  let o = run topo fp workload in
  check_all o;
  Alcotest.(check int) "15 deliveries" 15 (List.length (Trace.deliveries o.Runner.trace))

let phase_machine () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let o = run topo fp (Workload.one_per_group topo) in
  (* Claim 14: every delivery passed through pending, commit, stable. *)
  List.iter
    (fun (p, m, _, _) ->
      Alcotest.(check (list string))
        (Printf.sprintf "phases of m%d at p%d" m p)
        [ "pending"; "commit"; "stable"; "deliver" ]
        (List.map
           (Format.asprintf "%a" Trace.pp_phase)
           (Trace.phase_history o.Runner.trace ~p ~m)))
    (Trace.deliveries o.Runner.trace)

let consensus_keys () =
  (* On an acyclic topology H(p,g) = ∅, so all of g shares one consensus
     instance per message; instances stay bounded by the message count. *)
  let topo = Topology.chain ~groups:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.one_per_group topo in
  let o = run topo fp workload in
  check_all o;
  Alcotest.(check bool) "≤ one instance per message" true
    (o.Runner.consensus_instances <= List.length workload)

(* ---------------- variants ---------------------------------------- *)

let strict_holds_under_crashes =
  QCheck.Test.make ~name:"strict variant: strict ordering on random runs" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.figure1 in
      let fp =
        Failure_pattern.random (Rng.make (seed * 3 + 1)) ~n:5 ~max_faulty:1
          ~horizon:20
      in
      let workload = Workload.random (Rng.make seed) ~msgs:5 ~max_at:20 topo in
      let o = run ~variant:Algorithm1.Strict ~seed topo fp workload in
      Properties.strict_ordering o = Ok ()
      && Properties.integrity o = Ok ()
      && Properties.termination o = Ok ())

let pairwise_holds =
  QCheck.Test.make ~name:"pairwise variant: pairwise ordering + termination" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.ring ~groups:3 in
      let fp = Failure_pattern.never ~n:(Topology.n topo) in
      let workload = Workload.random (Rng.make seed) ~msgs:5 ~max_at:5 topo in
      let o = run ~variant:Algorithm1.Pairwise ~seed topo fp workload in
      Properties.pairwise_ordering o = Ok ()
      && Properties.integrity o = Ok ()
      && Properties.termination o = Ok ())

let vanilla_strict_violation_witness () =
  (* The deterministic §6.1 counterexample (see EXPERIMENTS.md). *)
  let topo = Topology.chain ~groups:2 in
  let n = Topology.n topo in
  let fp = Failure_pattern.never ~n in
  let workload = Workload.make [ (3, 1, 30); (0, 0, 0) ] topo in
  let scheduled t = if t < 32 then Pset.remove 2 (Pset.range n) else Pset.range n in
  let vanilla = run ~scheduled topo fp workload in
  Alcotest.(check bool) "vanilla breaks ↝" true
    (Properties.strict_ordering vanilla <> Ok ());
  Alcotest.(check bool) "but keeps ↦ acyclic" true (Properties.ordering vanilla = Ok ());
  let strict = run ~variant:Algorithm1.Strict ~scheduled topo fp workload in
  Alcotest.(check bool) "strict variant repairs it" true
    (Properties.strict_ordering strict = Ok ());
  Alcotest.(check bool) "and still terminates" true
    (Properties.termination strict = Ok ())


let strict_indicator_escape () =
  (* §6.1 sufficiency, failure side: once g∩h has crashed, the strict
     stable-wait falls back to 1^{g∩h} and deliveries resume. *)
  let topo = Topology.chain ~groups:2 in
  (* g0 = {0,1,2}, g1 = {2,3,4}; the whole intersection p2 dies early *)
  let fp = Failure_pattern.of_crashes ~n:5 [ (2, 1) ] in
  let workload = Workload.make [ (0, 0, 10); (3, 1, 12) ] topo in
  let o = run ~variant:Algorithm1.Strict topo fp workload in
  check_all o;
  Alcotest.(check bool) "post-crash delivery at g0" true
    (Trace.delivered_at o.Runner.trace ~p:0 ~m:0);
  Alcotest.(check bool) "post-crash delivery at g1" true
    (Trace.delivered_at o.Runner.trace ~p:3 ~m:1)

(* ---------------- detector ablations ------------------------------ *)

let lying_gamma_breaks_ordering () =
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let rec search seed =
    if seed > 600 then false
    else
      let fp = Failure_pattern.never ~n in
      (* 6 messages: under the unbiased Rng.int streams the 4-message
         witnesses thin out (first hit past seed 600); 6 keeps them
         dense (~1%, first hit near seed 100). *)
      let workload = Workload.random (Rng.make seed) ~msgs:6 ~max_at:3 topo in
      let mu = Mu.gamma_lying (Mu.make ~seed topo fp) in
      let o = run ~seed ~mu topo fp workload in
      Properties.ordering o <> Ok () || search (seed + 1)
  in
  Alcotest.(check bool) "γ accuracy is load-bearing" true (search 1)

let incomplete_gamma_blocks () =
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let fp = Failure_pattern.of_crashes ~n [ (4, 2) ] in
  let workload = Workload.random (Rng.make 5) ~msgs:4 ~max_at:3 topo in
  let mu = Mu.gamma_always (Mu.make ~seed:5 topo fp) in
  let o = run ~seed:5 ~mu topo fp workload in
  Alcotest.(check bool) "γ completeness is load-bearing" true
    (Properties.termination o <> Ok ());
  (* Safety is never lost, only progress. *)
  Alcotest.(check bool) "safety intact" true
    (Properties.ordering o = Ok () && Properties.integrity o = Ok ())

let perfect_detector_suffices () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 6) ] in
  let workload = Workload.random (Rng.make 7) ~msgs:6 ~max_at:8 topo in
  let mu = Derive.mu_of_perfect topo (Perfect.make ~seed:9 fp) in
  check_all (run ~seed:7 ~mu topo fp workload)

(* ---------------- group parallelism (§6.2) ------------------------- *)

let group_parallelism_acyclic () =
  let topo = Topology.chain ~groups:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.make [ (2, 1, 0) ] topo in
  let dst = Topology.group topo 1 in
  let o = run ~scheduled:(fun _ -> dst) topo fp workload in
  Alcotest.(check bool) "delivered in a dst-fair run" true
    (Pset.for_all (fun p -> Trace.delivered_at o.Runner.trace ~p ~m:0) dst)

let group_parallelism_fails_on_cycle () =
  let topo = Topology.ring ~groups:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.make [ (2, 1, 0); (0, 0, 10) ] topo in
  let dst = Topology.group topo 0 in
  let o = Runner.run ~seed:3 ~horizon:300 ~topo ~fp ~workload ~scheduled:(fun _ -> dst) () in
  Alcotest.(check bool) "blocked behind the neighbour group" false
    (Pset.for_all (fun p -> Trace.delivered_at o.Runner.trace ~p ~m:1) dst)

(* ---------------- the end-to-end random property ------------------ *)

(* Scenarios are generated structurally (lib/fuzz) rather than from an
   opaque integer seed: a failing run prints the whole scenario — its
   topology, crashes, workload and schedule — and QCheck shrinking uses
   the semantic moves of [Shrinker], not seed perturbation. *)

let scenario_arb cfg =
  QCheck.make ~print:Scenario.to_string
    ~shrink:(fun s yield -> List.iter yield (Shrinker.candidates s))
    (QCheck.Gen.map
       (fun seed -> Scenario_gen.scenario (Choice.of_rng (Rng.make seed)) cfg)
       (QCheck.Gen.int_bound 1_000_000))

let e2e_random =
  QCheck.Test.make ~name:"e2e: random topology × workload × crashes × schedule"
    ~count:120
    (scenario_arb Scenario_gen.default)
    (fun s ->
      (* Safety always; liveness except on the documented Lemma 25
         multi-cycle corner (see DESIGN.md), where the paper-exact γ(g)
         closure may block — [Scenario.check] exempts exactly that. *)
      Scenario.check s = Ok ())

let e2e_claims =
  QCheck.Test.make ~name:"e2e: Table 2 claims on instrumented random runs" ~count:25
    (scenario_arb
       {
         Scenario_gen.default with
         max_n = 6;
         max_groups = 3;
         max_msgs = 4;
         max_crashes = 1;
         max_at = 10;
         max_crash_time = 15;
         starvation = false;
       })
    (fun s ->
      let o = Scenario.run ~record_snapshots:true s in
      List.for_all (fun (_, v) -> v = Ok ()) (Claims.all o))

(* ---------------- trace well-formedness ---------------------------- *)

(* The [Trace] invariants every recorded run must satisfy, whatever
   the scenario: dense sequence numbers equal to the event index, pids
   in range, per-(p, m) phase ranks that never decrease, invocation
   before the first delivery, and deliveries only at destination
   members. Also: [Engine.stats] counts actions. Every action but
   stabilize emits one event, and each stabilize appends one [Stab]
   tuple, so the executed count is the events plus the final logs'
   [Stab] entries. *)
let event_fields = function
  | Trace.Invoke { m; p; seq; _ } -> (m, p, seq)
  | Trace.Send { m; p; seq; _ } -> (m, p, seq)
  | Trace.Phase_change { m; p; seq; _ } -> (m, p, seq)
  | Trace.Deliver { m; p; seq; _ } -> (m, p, seq)

let well_formed name (o : Runner.outcome) =
  let trace = o.Runner.trace in
  let topo = o.Runner.topo in
  let n = Topology.n topo in
  List.iteri
    (fun i e ->
      let m, p, seq = event_fields e in
      if seq <> i then
        Alcotest.failf "%s: event %d has seq %d (not dense)" name i seq;
      if p < 0 || p >= n then Alcotest.failf "%s: event %d pid %d" name i p;
      if m < 0 then Alcotest.failf "%s: event %d msg %d" name i m)
    trace.Trace.events;
  List.iter
    (fun { Workload.msg; _ } ->
      let m = msg.Amsg.id in
      for p = 0 to n - 1 do
        let rec mono = function
          | a :: (b :: _ as rest) ->
              if Trace.phase_rank a > Trace.phase_rank b then
                Alcotest.failf "%s: phase rank drops at p%d m%d" name p m
              else mono rest
          | _ -> ()
        in
        mono (Trace.phase_history trace ~p ~m)
      done;
      (match (Trace.invoke_seq trace ~m, Trace.first_delivery_seq trace ~m) with
      | Some i, Some d when i >= d ->
          Alcotest.failf "%s: m%d delivered (seq %d) before invoked (seq %d)"
            name m d i
      | None, Some _ -> Alcotest.failf "%s: m%d delivered, never invoked" name m
      | _ -> ());
      let members = Topology.group topo msg.Amsg.dst in
      List.iter
        (fun (p, m', _, _) ->
          if m' = m && not (Pset.mem p members) then
            Alcotest.failf "%s: m%d delivered at non-member p%d" name m p)
        (Trace.deliveries trace))
    o.Runner.workload;
  let stabs =
    List.fold_left
      (fun acc (_, entries) ->
        List.fold_left
          (fun acc (d, _, _) ->
            match d with Algorithm1.Stab _ -> acc + 1 | _ -> acc)
          acc entries)
      0 o.Runner.final_logs
  in
  let events = List.length trace.Trace.events in
  if o.Runner.stats.Engine.executed <> events + stabs then
    Alcotest.failf "%s: executed %d, but %d events + %d Stab entries" name
      o.Runner.stats.Engine.executed events stabs;
  (* Each datum at most once per log: the precondition under which the
     Table 2 checker skips a log that two snapshots list alike. *)
  List.iter
    (fun (at, snap) ->
      List.iter
        (fun ((g, h), entries) ->
          let data =
            List.sort Algorithm1.compare_datum
              (List.map (fun (d, _, _) -> d) entries)
          in
          let rec once = function
            | d :: (d' :: _ as rest) ->
                if Algorithm1.compare_datum d d' = 0 then
                  Alcotest.failf "%s: %s: LOG_{g%d∩g%d} lists %a twice" name
                    at g h Algorithm1.pp_datum d
                else once rest
            | _ -> ()
          in
          once data)
        snap)
    (List.map (fun (t, s) -> (Printf.sprintf "tick %d" t, s)) o.Runner.snapshots
    @ [ ("final state", o.Runner.final_logs) ])

(* Early quiescence is an optimisation: stopping at the first silent
   tick of the runner's window must give the verdicts of running to
   the horizon. A constant all-processes schedule counts as custom, so
   the runner never stops it early, and it makes the same draws as the
   free schedule. Detector delays of 60 put the settle tick of μ past
   the last crash plus 30; at 200 the default horizon must stretch
   too, so those runs are compared with runs 1,000 ticks longer.
   Corpus entries run with their schedule freed: a custom schedule
   never stops early anyway. *)
let early_quiescence_keeps_verdicts () =
  let verdicts_equal ?longer name s =
    let s = { s with Scenario.schedule = Scenario.Free } in
    let topo = Scenario.topology s and fp = Scenario.failure_pattern s in
    let workload = Scenario.workload s in
    let horizon =
      Option.map (fun d -> Runner.default_horizon workload fp + d) longer
    in
    let to_horizon =
      Runner.run ~variant:s.Scenario.variant ~seed:s.Scenario.seed
        ~faults:s.Scenario.faults ~mu:(Scenario.mu s) ?horizon
        ~scheduled:(fun _ -> Pset.range s.Scenario.n)
        ~topo ~fp ~workload ()
    in
    Alcotest.(check (list (pair string (result unit string))))
      (name ^ ": verdicts with and without early quiescence")
      (Properties.all to_horizon)
      (Properties.all (Scenario.run s))
  in
  List.iter
    (fun (name, decoded) ->
      match decoded with
      | Ok s -> verdicts_equal name s
      | Error e -> Alcotest.failf "%s does not decode: %s" name e)
    (Corpus.load ~dir:"../corpus");
  let cfg =
    {
      Scenario_gen.default with
      Scenario_gen.cyclic_only = true;
      min_crashes = 1;
      starvation = false;
    }
  in
  for i = 0 to 499 do
    let s = Fuzz_driver.scenario_of_trial ~seed:50000 cfg i in
    verdicts_equal
      (Printf.sprintf "trial %d" i)
      { s with Scenario.max_delay = 60 };
    verdicts_equal ~longer:1000
      (Printf.sprintf "trial %d, max_delay 200" i)
      { s with Scenario.max_delay = 200 }
  done

(* Over the whole corpus, and over loadgen traffic with the batching
   mode on (crashes and channel delay included). *)
let trace_well_formed () =
  let corpus =
    List.map
      (fun (name, decoded) ->
        match decoded with
        | Ok s -> (name, Scenario.run ~record_snapshots:true s)
        | Error e -> Alcotest.failf "%s does not decode: %s" name e)
      (Corpus.load ~dir:"../corpus")
  in
  if corpus = [] then Alcotest.fail "empty corpus";
  let delayed = { Channel_fault.none with Channel_fault.delay = 3 } in
  let loadgen =
    List.map
      (fun (name, topo, crashes, rate, skew, faults, seed) ->
        let workload =
          Loadgen.open_loop ~rng:(Rng.make seed) ~rate_pct:rate ~skew_pct:skew
            ~duration:12 topo
        in
        let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) crashes in
        ( name,
          Runner.run ~seed ~batching:true ~faults ~record_snapshots:true ~topo
            ~fp ~workload () ))
      [
        ("disjoint-6x2", Topology.disjoint ~groups:6 ~size:2, [], 250, 100,
         Channel_fault.none, 2);
        ("ring-4", Topology.ring ~groups:4, [], 120, 0, Channel_fault.none, 3);
        ("ring-5 crash", Topology.ring ~groups:5, [ (1, 8) ], 100, 0,
         Channel_fault.none, 4);
        ("chain-4 delayed", Topology.chain ~groups:4, [], 150, 50, delayed, 5);
      ]
  in
  List.iter (fun (name, o) -> well_formed name o) (corpus @ loadgen)

let suite =
  [
    t "figure1, no crash" `Quick figure1_no_crash;
    t "figure1, intersection crash" `Quick figure1_crash_intersection;
    t "source crashes before invoking" `Quick crash_before_invoke;
    t "helping after source crash" `Quick crash_after_invoke_helping;
    t "singleton group" `Quick single_process_group;
    t "broadcast regime (one big group)" `Quick broadcast_regime;
    t "genuineness: zero steps if not addressed" `Quick genuineness_steps;
    t "group-sequential serialization" `Quick group_sequential_serialization;
    t "phase machine (claim 14)" `Quick phase_machine;
    t "consensus instances bounded" `Quick consensus_keys;
    t "§6.1 strictness witness" `Quick vanilla_strict_violation_witness;
    t "§6.1 indicator escape after crash" `Quick strict_indicator_escape;
    t "ablation: lying γ breaks ordering" `Slow lying_gamma_breaks_ordering;
    t "ablation: incomplete γ blocks" `Quick incomplete_gamma_blocks;
    t "P-derived μ suffices" `Quick perfect_detector_suffices;
    t "group parallelism on F = ∅" `Quick group_parallelism_acyclic;
    t "group parallelism fails on cycles" `Quick group_parallelism_fails_on_cycle;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ strict_holds_under_crashes; pairwise_holds; e2e_random; e2e_claims ]
  @ [
      t "trace well-formed: corpus and batched loadgen" `Quick trace_well_formed;
      t "early quiescence never changes a verdict" `Quick
        early_quiescence_keeps_verdicts;
      t "hint: a member waits for the listing" `Quick hint_waits_for_listing;
    ]
