let t = Alcotest.test_case

let check = function Ok () -> () | Error e -> Alcotest.fail e

(* The axioms read "eventually" as "over the last [tail] ticks of the
   horizon", which is sound only if the recorded history has stopped
   changing before that tail begins. *)
let settled ~horizon ~tail settle =
  if settle > horizon - tail then
    Alcotest.failf "history settles at %d, after the tail starts at %d" settle
      (horizon - tail)

(* The recorder reads each output at the start of a tick, so a change
   made during the last tick shows only in the live query after the
   horizon, and the settle tick must count it. *)
let recorder_settle () =
  let flag = ref 0 in
  let step ~pid ~time = pid = 0 && (time = 3 || time = 10) && (flag := time; true) in
  let history, settle =
    Recorder.record ~equal:Int.equal ~fp:(Failure_pattern.never ~n:2)
      ~horizon:10 ~step ~query:(fun _ -> !flag)
  in
  Alcotest.(check (list int)) "outputs at ticks 3, 4, 10 and 11" [ 0; 3; 3; 10 ]
    (List.map (history 1) [ 3; 4; 10; 11 ]);
  Alcotest.(check int) "settles after the horizon" 11 settle

(* ---------------- Algorithm 2: Σ extraction ------------------------ *)

let sigma_single_group () =
  (* G = {g2}: emulate Σ_{g2} itself. *)
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (3, 12) ] in
  let se = Sigma_extract.create ~topo ~fp ~groups:[ 2 ] () in
  let history, settle = Sigma_extract.run se ~horizon:400 in
  check (Axioms.sigma ~scope:(Topology.group topo 2) ~horizon:400 fp history);
  settled ~horizon:400 ~tail:1 settle

let sigma_pair () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (2, 10) ] in
  let se = Sigma_extract.create ~topo ~fp ~groups:[ 2; 3 ] () in
  let history, settle = Sigma_extract.run se ~horizon:400 in
  check (Axioms.sigma ~scope:(Sigma_extract.scope se) ~horizon:400 fp history);
  settled ~horizon:400 ~tail:1 settle

let sigma_no_crash () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let se = Sigma_extract.create ~topo ~fp ~groups:[ 2; 3 ] () in
  let history, settle = Sigma_extract.run se ~horizon:300 in
  check (Axioms.sigma ~scope:(Sigma_extract.scope se) ~horizon:300 fp history);
  settled ~horizon:300 ~tail:1 settle

let sigma_rejects_disjoint () =
  Alcotest.check_raises "needs a common intersection"
    (Invalid_argument "Sigma_extract.create: groups do not intersect") (fun () ->
      ignore
        (Sigma_extract.create ~topo:Topology.figure1
           ~fp:(Failure_pattern.never ~n:5)
           ~groups:[ 1; 3 ] ()))

(* ---------------- Algorithm 3: γ extraction ------------------------ *)

let gamma_scenarios () =
  let topo = Topology.figure1 in
  let families = Topology.cyclic_families topo in
  let scenario fp expected_at_p0 =
    let ge = Gamma_extract.create ~topo ~fp () in
    let history, settle = Gamma_extract.run ge ~horizon:600 in
    check (Axioms.gamma topo ~families ~horizon:600 ~tail:20 fp history);
    settled ~horizon:600 ~tail:20 settle;
    Alcotest.(check (list (list int))) "stabilised output at p0" expected_at_p0
      (history 0 600)
  in
  (* no crash: all three families stay *)
  scenario (Failure_pattern.never ~n:5) [ [ 0; 1; 2 ]; [ 0; 1; 2; 3 ]; [ 0; 2; 3 ] ];
  (* p1 (paper's p2) crashes: f and f'' must be silenced, f' kept *)
  scenario (Failure_pattern.of_crashes ~n:5 [ (1, 5) ]) [ [ 0; 2; 3 ] ];
  (* p0 (paper's p1) crashes: every family loses an edge on every path *)
  scenario (Failure_pattern.of_crashes ~n:5 [ (0, 5) ]) []

let gamma_on_ring () =
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let families = Topology.cyclic_families topo in
  let fp = Failure_pattern.of_crashes ~n [ (2, 5) ] in
  let ge = Gamma_extract.create ~topo ~fp () in
  let history, settle = Gamma_extract.run ge ~horizon:600 in
  check (Axioms.gamma topo ~families ~horizon:600 ~tail:20 fp history);
  settled ~horizon:600 ~tail:20 settle

(* Algorithm 1 is correct for every history of μ, so the γ that
   Algorithm 3 emulates from it must drive it to termination too. The
   emulated history settles at tick 44, after the canonical one (the
   crash at 5 plus the default delay bound 5) and after the last crash
   plus 30: the run must stay live until the history's own settle
   tick. *)
let necessity_feeds_sufficiency () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
  let gamma, settle =
    Gamma_extract.run (Gamma_extract.create ~topo ~fp ()) ~horizon:600
  in
  let mu = Mu.with_gamma (Mu.make ~seed:1 topo fp) ~settle gamma in
  let o = Runner.run ~mu ~topo ~fp ~workload:(Workload.one_per_group topo) () in
  check (Properties.termination o);
  Alcotest.(check int) "every correct member delivers" 8
    (List.length
       (List.filter
          (fun (p, _, _, _) -> Failure_pattern.is_correct fp p)
          (Trace.deliveries o.Runner.trace)))

(* ---------------- Algorithm 4: indicator extraction ---------------- *)

let two_group_topo = lazy
  (Topology.create ~n:4 [ Pset.of_list [ 0; 1; 2 ]; Pset.of_list [ 1; 2; 3 ] ])

let indicator_accuracy () =
  let topo = Lazy.force two_group_topo in
  let fp = Failure_pattern.never ~n:4 in
  let ie = Indicator_extract.create ~topo ~fp ~g:0 ~h:1 () in
  let history, settle = Indicator_extract.run ie ~horizon:300 in
  check
    (Axioms.indicator ~scope:(Pset.range 4) ~target:(Pset.of_list [ 1; 2 ])
       ~horizon:300 ~tail:10 fp history);
  settled ~horizon:300 ~tail:10 settle;
  Alcotest.(check (option bool)) "stays false" (Some false) (history 0 300)

let indicator_completeness () =
  let topo = Lazy.force two_group_topo in
  let fp = Failure_pattern.of_crashes ~n:4 [ (1, 5); (2, 5) ] in
  let ie = Indicator_extract.create ~topo ~fp ~g:0 ~h:1 () in
  let history, settle = Indicator_extract.run ie ~horizon:300 in
  check
    (Axioms.indicator ~scope:(Pset.range 4) ~target:(Pset.of_list [ 1; 2 ])
       ~horizon:300 ~tail:10 fp history);
  settled ~horizon:300 ~tail:10 settle;
  Alcotest.(check (option bool)) "fires" (Some true) (history 0 300)

let indicator_partial_crash () =
  (* Only half of g∩h crashes: the flag must stay down. *)
  let topo = Lazy.force two_group_topo in
  let fp = Failure_pattern.of_crashes ~n:4 [ (1, 5) ] in
  let ie = Indicator_extract.create ~topo ~fp ~g:0 ~h:1 () in
  let history, settle = Indicator_extract.run ie ~horizon:300 in
  check
    (Axioms.indicator ~scope:(Pset.range 4) ~target:(Pset.of_list [ 1; 2 ])
       ~horizon:300 ~tail:10 fp history);
  settled ~horizon:300 ~tail:10 settle;
  Alcotest.(check (option bool)) "accurate under partial crash" (Some false)
    (history 0 300)

let suite =
  [
    t "recorder: settle counts the last tick" `Quick recorder_settle;
    t "Σ extraction, single group" `Quick sigma_single_group;
    t "Σ extraction, intersecting pair" `Quick sigma_pair;
    t "Σ extraction, no crash" `Quick sigma_no_crash;
    t "Σ extraction input validation" `Quick sigma_rejects_disjoint;
    t "γ extraction scenarios (figure 1)" `Quick gamma_scenarios;
    t "γ extraction on a ring" `Quick gamma_on_ring;
    t "necessity feeds sufficiency (figure 1, p1 crashes)" `Quick
      necessity_feeds_sufficiency;
    t "1^{g∩h}: accuracy" `Quick indicator_accuracy;
    t "1^{g∩h}: completeness" `Quick indicator_completeness;
    t "1^{g∩h}: partial crash" `Quick indicator_partial_crash;
  ]
