(* Unit tests for lib/loadgen: the nearest-rank percentile math on
   known distributions, latency summaries on real and degenerate runs,
   and determinism/shape of the workload generators. *)

let t = Alcotest.test_case

let check_pct samples q expect =
  Alcotest.(check (option int))
    (Printf.sprintf "p%d" q)
    expect
    (Latency.percentile samples q)

let percentile_known () =
  let hundred = List.init 100 (fun i -> i + 1) in
  check_pct hundred 50 (Some 50);
  check_pct hundred 99 (Some 99);
  check_pct hundred 100 (Some 100);
  check_pct hundred 0 (Some 1);
  check_pct hundred 1 (Some 1);
  (* unsorted input: percentile sorts internally *)
  check_pct (List.rev hundred) 50 (Some 50);
  let ten = List.init 10 (fun i -> (i + 1) * 10) in
  (* rank ⌈50·10/100⌉ = 5 → 50; ⌈99·10/100⌉ = 10 → 100 *)
  check_pct ten 50 (Some 50);
  check_pct ten 99 (Some 100)

let percentile_ties () =
  check_pct [ 5; 5; 5; 5 ] 50 (Some 5);
  check_pct [ 5; 5; 5; 5 ] 99 (Some 5);
  check_pct [ 1; 1; 1; 9 ] 50 (Some 1);
  check_pct [ 1; 1; 1; 9 ] 100 (Some 9)

let percentile_edges () =
  check_pct [ 42 ] 50 (Some 42);
  check_pct [ 42 ] 99 (Some 42);
  check_pct [ 42 ] 100 (Some 42);
  check_pct [] 50 None;
  check_pct [] 100 None

let summary_complete_run () =
  let topo = Topology.disjoint ~groups:2 ~size:3 in
  let workload = Workload.one_per_group topo in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let outcome = Runner.run ~topo ~fp ~workload () in
  let s = Latency.summarize outcome in
  Alcotest.(check int) "delivered" 2 s.Latency.delivered;
  Alcotest.(check int) "undelivered" 0 s.Latency.undelivered;
  (match (s.Latency.p50, s.Latency.p99, s.Latency.max) with
  | Some p50, Some p99, Some mx ->
      if not (p50 >= 0 && p50 <= p99 && p99 <= mx) then
        Alcotest.failf "percentiles not monotone: %d %d %d" p50 p99 mx
  | _ -> Alcotest.fail "percentiles missing on a complete run");
  Alcotest.(check int)
    "samples match summary" s.Latency.delivered
    (List.length (Latency.samples outcome))

let summary_all_undelivered () =
  (* horizon 1: the invocation fires at tick 0 but no message can
     reach delivery — the edge case of an all-undelivered summary. *)
  let topo = Topology.ring ~groups:3 in
  let workload = Workload.one_per_group topo in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let outcome = Runner.run ~horizon:1 ~topo ~fp ~workload () in
  let s = Latency.summarize outcome in
  Alcotest.(check int) "delivered" 0 s.Latency.delivered;
  if s.Latency.undelivered < 1 then
    Alcotest.fail "expected invoked-but-undelivered messages";
  Alcotest.(check (option int)) "p50 on empty" None s.Latency.p50;
  Alcotest.(check (option int)) "max on empty" None s.Latency.max

let open_loop_deterministic () =
  let topo = Topology.ring ~groups:4 in
  let gen seed =
    Loadgen.open_loop ~rng:(Rng.make seed) ~rate_pct:250 ~skew_pct:100
      ~duration:40 topo
  in
  let w1 = gen 11 and w2 = gen 11 and w3 = gen 12 in
  Alcotest.(check bool) "same seed, same workload" true (w1 = w2);
  Alcotest.(check bool) "different seed differs" false (w1 = w3);
  (* 2.5 msgs/tick over 40 ticks: 80 deterministic + Binomial(40, 1/2) *)
  let k = List.length w1 in
  if k < 80 || k > 120 then Alcotest.failf "arrival count %d out of range" k;
  List.iteri
    (fun i r ->
      Alcotest.(check int) "dense ids" i r.Workload.msg.Amsg.id;
      if r.Workload.at < 0 || r.Workload.at >= 40 then
        Alcotest.failf "arrival tick %d outside duration" r.Workload.at)
    w1

let open_loop_skew () =
  let topo = Topology.disjoint ~groups:6 ~size:2 in
  let counts = Array.make 6 0 in
  let w =
    Loadgen.open_loop ~rng:(Rng.make 5) ~rate_pct:400 ~skew_pct:200
      ~duration:100 topo
  in
  List.iter
    (fun r ->
      let d = r.Workload.msg.Amsg.dst in
      counts.(d) <- counts.(d) + 1)
    w;
  (* s = 2 Zipf over 6 groups: rank 0 carries ~66% of the mass, rank 5
     under 2% — with ~400 draws the ordering is overwhelmingly likely. *)
  if counts.(0) <= counts.(5) then
    Alcotest.failf "skew did not favour rank 0 (%d vs %d)" counts.(0)
      counts.(5);
  if 3 * counts.(0) < List.length w then
    Alcotest.failf "rank-0 share too small: %d of %d" counts.(0)
      (List.length w)

let open_loop_validation () =
  let topo = Topology.ring ~groups:3 in
  let raises f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "expected Invalid_argument"
  in
  raises (fun () ->
      Loadgen.open_loop ~rng:(Rng.make 1) ~rate_pct:0 ~skew_pct:0 ~duration:10
        topo);
  raises (fun () ->
      Loadgen.open_loop ~rng:(Rng.make 1) ~rate_pct:100 ~skew_pct:(-1)
        ~duration:10 topo);
  raises (fun () ->
      Loadgen.open_loop ~rng:(Rng.make 1) ~rate_pct:100 ~skew_pct:0 ~duration:0
        topo)

let closed_loop_shape () =
  let topo = Topology.ring ~groups:3 in
  let workload, _driver =
    Loadgen.closed_loop ~rng:(Rng.make 3) ~clients:3 ~msgs_per_client:4
      ~skew_pct:0 topo
  in
  Alcotest.(check int) "12 messages" 12 (List.length workload);
  List.iteri
    (fun i r ->
      Alcotest.(check int) "dense ids" i r.Workload.msg.Amsg.id;
      let expect = if i mod 4 = 0 then 0 else Workload.never in
      Alcotest.(check int) "chain heads at 0, links gated" expect r.Workload.at)
    workload

let closed_loop_drives_to_completion () =
  let topo = Topology.disjoint ~groups:2 ~size:3 in
  let workload, driver =
    Loadgen.closed_loop ~rng:(Rng.make 9) ~clients:2 ~msgs_per_client:3
      ~skew_pct:0 topo
  in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let outcome = Runner.run ~horizon:400 ~driver ~topo ~fp ~workload () in
  let s = Latency.summarize outcome in
  Alcotest.(check int) "all chain links delivered" 6 s.Latency.delivered;
  Alcotest.(check (result unit string))
    "spec holds" (Ok ()) (Properties.check_all outcome)

let suite =
  [
    t "percentiles: known distributions" `Quick percentile_known;
    t "percentiles: ties" `Quick percentile_ties;
    t "percentiles: single sample & empty" `Quick percentile_edges;
    t "summary: complete run" `Quick summary_complete_run;
    t "summary: all undelivered" `Quick summary_all_undelivered;
    t "open loop: deterministic & dense" `Quick open_loop_deterministic;
    t "open loop: Zipf skew" `Quick open_loop_skew;
    t "open loop: argument validation" `Quick open_loop_validation;
    t "closed loop: chain shape" `Quick closed_loop_shape;
    t "closed loop: driver completes chains" `Quick closed_loop_drives_to_completion;
  ]
