(* The property checkers themselves must detect violations: feed them
   hand-crafted traces. *)

let t = Alcotest.test_case

let topo = Topology.create ~n:4 [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 1; 2 ] ]

let workload = Workload.make [ (0, 0, 0); (2, 1, 0) ] topo

let outcome_of_events events =
  {
    Runner.topo;
    workload;
    fp = Failure_pattern.never ~n:4;
    variant = Algorithm1.Vanilla;
    trace = Trace.make ~n:4 events;
    stats = { Engine.steps = Array.make 4 0; executed = 0; ticks_used = 0; quiescent = true };
    snapshots = [];
    final_logs = [];
    consensus_instances = 0;
    consensus_rounds = 0;
    links = Channel_fault.stats_zero;
  }

let ev_invoke m p seq = Trace.Invoke { m; p; time = seq; seq }
let ev_deliver m p seq = Trace.Deliver { m; p; time = seq; seq }

let detects_double_delivery () =
  let o =
    outcome_of_events
      [ ev_invoke 0 0 0; ev_deliver 0 0 1; ev_deliver 0 0 2 ]
  in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_delivery_outside_dst () =
  let o = outcome_of_events [ ev_invoke 0 0 0; ev_deliver 0 3 1 ] in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_delivery_before_multicast () =
  let o = outcome_of_events [ ev_deliver 0 0 0; ev_invoke 0 0 1 ] in
  Alcotest.(check bool) "caught" true (Properties.integrity o <> Ok ())

let detects_missing_delivery () =
  (* invoked by a correct source, delivered nowhere *)
  let o = outcome_of_events [ ev_invoke 0 0 0 ] in
  Alcotest.(check bool) "caught" true (Properties.termination o <> Ok ());
  (* delivered at one member only: still a termination violation *)
  let o = outcome_of_events [ ev_invoke 0 0 0; ev_deliver 0 0 1 ] in
  Alcotest.(check bool) "partial delivery caught" true (Properties.termination o <> Ok ())

(* A failure names its witness: the exact message, which the frozen
   reference must produce too. *)
let check_failure what expected verdict reference =
  Alcotest.(check (result unit string)) what (Error expected) verdict;
  Alcotest.(check (result unit string)) (what ^ ", as the reference") reference
    verdict

let detects_delivery_cycle () =
  (* p1 ∈ g0∩g1 delivers m0 then m1... and m1 before m0 via a second
     shared process is impossible here, so build the 2-message cycle on
     one group: p0 orders m0,m1 while p1 orders m1,m0. *)
  let topo = Topology.create ~n:2 [ Pset.of_list [ 0; 1 ] ] in
  let workload = Workload.make [ (0, 0, 0); (1, 0, 0) ] topo in
  let o =
    {
      (outcome_of_events []) with
      Runner.topo;
      workload;
      fp = Failure_pattern.never ~n:2;
      trace =
        Trace.make ~n:2
          [
            ev_invoke 0 0 0;
            ev_invoke 1 1 1;
            ev_deliver 0 0 2;
            ev_deliver 1 1 3;
            ev_deliver 1 0 4;
            ev_deliver 0 1 5;
          ];
    }
  in
  check_failure "cycle caught" "ordering: ↦ has the cycle m0 ↦ m1"
    (Properties.ordering o) (Properties_ref.ordering o);
  check_failure "pairwise violation caught"
    "pairwise: p0 orders m0 before m1 but p1 does not"
    (Properties.pairwise_ordering o)
    (Properties_ref.pairwise_ordering o)

let detects_strict_violation () =
  (* m0 delivered everywhere before m1 is multicast, yet p1 delivers m1
     first. *)
  let o =
    outcome_of_events
      [
        ev_invoke 0 0 0;
        ev_deliver 0 0 1;
        ev_invoke 1 2 2;
        ev_deliver 1 1 3;
        ev_deliver 0 1 4;
        ev_deliver 1 2 5;
      ]
  in
  check_failure "↝ cycle caught" "strict ordering: ↦ ∪ ↝ has the cycle m0 → m1"
    (Properties.strict_ordering o)
    (Properties_ref.strict_ordering o);
  Alcotest.(check bool) "plain ordering fine" true (Properties.ordering o = Ok ())

let detects_non_minimality () =
  let o = outcome_of_events [] in
  o.Runner.stats.Engine.steps.(3) <- 5;
  Alcotest.(check bool) "caught" true (Properties.minimality o <> Ok ())

let find_cycle_works () =
  Alcotest.(check (option (list int))) "no cycle" None
    (Properties.find_cycle [ (1, 2); (2, 3) ]);
  (match Properties.find_cycle [ (1, 2); (2, 3); (3, 1) ] with
  | Some c -> Alcotest.(check int) "cycle length" 3 (List.length c)
  | None -> Alcotest.fail "missed the cycle");
  Alcotest.(check bool) "self loop" true
    (Properties.find_cycle [ (1, 1) ] <> None)

let accepts_good_run () =
  let fp = Failure_pattern.never ~n:4 in
  let o = Runner.run ~topo ~fp ~workload () in
  match Properties.check_all o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* Claims 2–8 on two-snapshot outcomes: one row per claim, each the
   smallest break of that law of LOG_{g0}, and the exact failures that
   Claims.all reports. Claims 6–8 cannot fail alone. An order below a
   locked datum flips only if a position falls (3) or the locked datum
   moves (5), and the other datum then becomes a new predecessor (8).
   A fresh datum below a locked one is a new predecessor too. Two rows
   pin corners of the rank rules: a flip that only the datum tie-break
   decides, at equal positions, and a fresh datum that fails claim 7
   because the locked datum left the log, although it sits above the
   locked datum's old position. The rows from "append below a locked
   datum" on sit at the edge of the walk's skip, a newer list that
   extends the older one in place: each failing row keeps every old
   entry's list place and breaks one condition of that rule, so it must
   reach the join, and the two clean rows meet the rule. *)
let detects_log_claims () =
  let m0 = Algorithm1.Msg 0 and p = Algorithm1.Pend (0, 0, 1) in
  let rows =
    [
      ( "claim 2",
        [ (m0, 1, false) ],
        [],
        [ ("claim 2", "m0 vanished from a log") ] );
      ( "claim 3",
        [ (m0, 2, false) ],
        [ (m0, 1, false) ],
        [ ("claim 3", "position of m0 decreased") ] );
      ( "claim 4",
        [ (m0, 1, true) ],
        [ (m0, 1, false) ],
        [ ("claim 4", "m0 was unlocked") ] );
      ( "claim 5",
        [ (m0, 1, true) ],
        [ (m0, 2, true) ],
        [ ("claim 5", "locked m0 moved") ] );
      ( "claim 6",
        [ (m0, 1, true); (p, 2, false) ],
        [ (p, 2, false); (m0, 3, true) ],
        [
          ("claim 5", "locked m0 moved");
          ("claim 6", "order m0 < (m0,g0,1) flipped");
          ("claim 8", "locked m0 gained a predecessor");
        ] );
      ( "claim 7",
        [ (m0, 2, true) ],
        [ (p, 1, false); (m0, 2, true) ],
        [
          ("claim 7", "fresh (m0,g0,1) below locked m0");
          ("claim 8", "locked m0 gained a predecessor");
        ] );
      ( "claim 8",
        [ (m0, 2, true); (p, 3, false) ],
        [ (p, 1, false); (m0, 2, true) ],
        [
          ("claim 3", "position of (m0,g0,1) decreased");
          ("claim 6", "order m0 < (m0,g0,1) flipped");
          ("claim 8", "locked m0 gained a predecessor");
        ] );
      ( "claim 6 by the tie-break",
        [ (p, 1, true); (m0, 2, false) ],
        [ (m0, 1, false); (p, 1, true) ],
        [
          ("claim 3", "position of m0 decreased");
          ("claim 6", "order (m0,g0,1) < m0 flipped");
          ("claim 8", "locked (m0,g0,1) gained a predecessor");
        ] );
      ( "claim 7, the locked datum gone",
        [ (m0, 1, true) ],
        [ (p, 2, false) ],
        [
          ("claim 2", "m0 vanished from a log");
          ("claim 4", "m0 was unlocked");
          ("claim 5", "locked m0 moved");
          ("claim 7", "fresh (m0,g0,1) below locked m0");
        ] );
      ( "append below a locked datum",
        [ (m0, 2, true) ],
        [ (m0, 2, true); (p, 1, false) ],
        [
          ("claim 7", "fresh (m0,g0,1) below locked m0");
          ("claim 8", "locked m0 gained a predecessor");
        ] );
      ( "append below a locked datum by the tie-break",
        [ (p, 1, true) ],
        [ (p, 1, true); (m0, 1, false) ],
        [
          ("claim 7", "fresh m0 below locked (m0,g0,1)");
          ("claim 8", "locked (m0,g0,1) gained a predecessor");
        ] );
      ( "unlock in place, then append",
        [ (m0, 1, true) ],
        [ (m0, 1, false); (p, 2, false) ],
        [ ("claim 4", "m0 was unlocked") ] );
      ( "locked datum moved in place, then append",
        [ (m0, 1, true) ],
        [ (m0, 2, true); (p, 3, false) ],
        [ ("claim 5", "locked m0 moved") ] );
      ( "position lowered in place, then append",
        [ (m0, 2, false) ],
        [ (m0, 1, false); (p, 3, false) ],
        [ ("claim 3", "position of m0 decreased") ] );
      ( "newer list shorter",
        [ (m0, 1, false); (p, 2, false) ],
        [ (m0, 1, false) ],
        [ ("claim 2", "(m0,g0,1) vanished from a log") ] );
      ( "lock in place, then append",
        [ (m0, 1, false) ],
        [ (m0, 1, true); (p, 2, false) ],
        [] );
      ( "append at a locked datum's position",
        [ (m0, 1, true) ],
        [ (m0, 1, true); (p, 1, false) ],
        [] );
    ]
  in
  List.iter
    (fun (row, a, b, expected) ->
      let o =
        {
          (outcome_of_events []) with
          Runner.snapshots = [ (0, [ ((0, 0), a) ]) ];
          final_logs = [ ((0, 0), b) ];
        }
      in
      let failures =
        List.filter_map
          (function name, Error e -> Some (name, e) | _, Ok () -> None)
          (Claims.all o)
      in
      Alcotest.(check (list (pair string string)))
        row
        (List.map (fun (c, msg) -> (c, c ^ ": " ^ msg)) expected)
        failures;
      Alcotest.(check (list (pair string string)))
        (row ^ ", as the reference")
        failures
        (List.filter_map
           (function name, Error e -> Some (name, e) | _, Ok () -> None)
           (Claims_ref.all o)))
    rows

(* Claim 15 names the smallest regressed (p, m), p first, whatever the
   event order: here (p0, m0), whose regression comes last. A repeated
   phase is a regression too. *)
let detects_phase_regression () =
  let phase m p phase seq =
    Trace.Phase_change { m; p; phase; time = seq; seq }
  in
  let o =
    outcome_of_events
      [
        phase 1 1 Trace.Commit 0;
        phase 1 1 Trace.Pending 1;
        phase 1 2 Trace.Pending 2;
        phase 1 2 Trace.Commit 3;
        phase 1 0 Trace.Stable 4;
        phase 1 0 Trace.Stable 5;
        phase 0 0 Trace.Pending 6;
        ev_deliver 0 0 7;
        phase 0 0 Trace.Stable 8;
      ]
  in
  check_failure "regression caught" "claim 15: phase of m0 regressed at p0"
    (Claims.claim15 o) (Claims_ref.claim15 o)

let suite =
  [
    t "detects double delivery" `Quick detects_double_delivery;
    t "detects delivery outside dst" `Quick detects_delivery_outside_dst;
    t "detects delivery before multicast" `Quick detects_delivery_before_multicast;
    t "detects missing delivery" `Quick detects_missing_delivery;
    t "detects ↦ cycles" `Quick detects_delivery_cycle;
    t "detects ↝ violations" `Quick detects_strict_violation;
    t "detects non-minimality" `Quick detects_non_minimality;
    t "cycle finder" `Quick find_cycle_works;
    t "accepts a correct run" `Quick accepts_good_run;
    t "detects breaks of log claims 2–8" `Quick detects_log_claims;
    t "detects phase regressions (claim 15)" `Quick detects_phase_regression;
  ]
