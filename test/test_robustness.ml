(* Wider-net coverage: more topologies, schedules, variants and
   failure shapes than the targeted suites. *)

let t = Alcotest.test_case

let check_all o =
  match Properties.check_all o with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

(* ---------------- topology sweep ----------------------------------- *)

let star_topology () =
  let topo = Topology.star ~satellites:4 ~hub_size:4 in
  let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (5, 6) ] in
  let workload = Workload.random (Rng.make 21) ~msgs:8 ~max_at:10 topo in
  check_all (Runner.run ~seed:21 ~topo ~fp ~workload ())

let large_ring () =
  let topo = Topology.ring ~groups:8 in
  let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (4, 12) ] in
  let workload = Workload.one_per_group topo in
  check_all (Runner.run ~seed:23 ~topo ~fp ~workload ())

let many_disjoint_groups () =
  let topo = Topology.disjoint ~groups:16 ~size:3 in
  let fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (7, 3); (20, 9) ] in
  let workload = Workload.one_per_group topo in
  let o = Runner.run ~seed:25 ~topo ~fp ~workload () in
  check_all o;
  (* each group runs independently: ≤ one consensus instance each *)
  Alcotest.(check bool) "independent groups" true (o.Runner.consensus_instances <= 16)

let figure1_every_single_crash () =
  (* Crash each process alone, at an early and a late time. *)
  let topo = Topology.figure1 in
  List.iter
    (fun p ->
      List.iter
        (fun ct ->
          let fp = Failure_pattern.of_crashes ~n:5 [ (p, ct) ] in
          let workload = Workload.random (Rng.make (p + ct)) ~msgs:5 ~max_at:12 topo in
          let o = Runner.run ~seed:(p * 31 + ct) ~topo ~fp ~workload () in
          match Properties.check_all o with
          | Ok () -> ()
          | Error e -> Alcotest.failf "crash p%d@%d: %s" p ct e)
        [ 0; 9 ])
    [ 0; 1; 2; 3; 4 ]

let figure1_double_crashes () =
  let topo = Topology.figure1 in
  List.iter
    (fun (a, b) ->
      let fp = Failure_pattern.of_crashes ~n:5 [ (a, 3); (b, 7) ] in
      let workload = Workload.random (Rng.make (a + (7 * b))) ~msgs:5 ~max_at:12 topo in
      let o = Runner.run ~seed:(a + (13 * b)) ~topo ~fp ~workload () in
      (* with two crashes some groups may have no correct member; safety
         always, termination whenever no γ-liveness gap *)
      (match Properties.integrity o with Ok () -> () | Error e -> Alcotest.fail e);
      (match Properties.ordering o with Ok () -> () | Error e -> Alcotest.fail e);
      let gap =
        Topology.blocking_edges topo
          (Topology.cyclic_families topo)
          ~crashed:(Failure_pattern.faulty fp)
        <> []
      in
      if not gap then
        match Properties.termination o with
        | Ok () -> ()
        | Error e -> Alcotest.failf "crash p%d,p%d: %s" a b e)
    [ (0, 1); (1, 2); (2, 3); (3, 4); (0, 4); (1, 3) ]

(* ---------------- schedules ---------------------------------------- *)

let adversarial_schedules =
  QCheck.Test.make ~name:"random process starvation windows" ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.figure1 in
      let rng = Rng.make seed in
      let fp = Failure_pattern.never ~n:5 in
      let workload = Workload.random (Rng.split rng) ~msgs:5 ~max_at:10 topo in
      (* one process sleeps through a window; runs must still satisfy
         everything once it wakes up *)
      let sleeper = Rng.int rng 5 in
      let from = Rng.int rng 30 and len = 5 + Rng.int rng 40 in
      let scheduled t =
        if t >= from && t < from + len then Pset.remove sleeper (Pset.range 5)
        else Pset.range 5
      in
      let o = Runner.run ~seed ~scheduled ~topo ~fp ~workload () in
      Properties.integrity o = Ok ()
      && Properties.ordering o = Ok ()
      && Properties.termination o = Ok ())

(* Figure 1 with several actions per process per tick. [max_int] is
   the engine drain, i.e. the batched mode: it must deliver everything
   in no more ticks than 4 steps per tick, and [Runner.run ~batching]
   must be exactly that engine run. *)
let multiple_steps_per_tick () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let workload = Workload.one_per_group topo in
  let run steps_per_tick =
    let mu = Mu.make ~seed:1 topo fp in
    let st = Algorithm1.create ~topo ~mu ~workload () in
    let stats =
      Engine.run ~fp ~horizon:300 ~quiesce_after:30 ~steps_per_tick
        ~step:(Algorithm1.step st) ()
    in
    Alcotest.(check int)
      (Printf.sprintf "all delivered (%d steps per tick)" steps_per_tick)
      10
      (List.length (Trace.deliveries (Algorithm1.trace st)));
    (stats, Algorithm1.trace st)
  in
  let four, _ = run 4 in
  Alcotest.(check bool) "faster with batched steps" true
    (four.Engine.ticks_used < 40);
  let drained, drained_trace = run max_int in
  if drained.Engine.ticks_used > four.Engine.ticks_used then
    Alcotest.failf "drain took %d ticks, 4 steps per tick %d"
      drained.Engine.ticks_used four.Engine.ticks_used;
  let batched = Runner.run ~batching:true ~topo ~fp ~workload () in
  Alcotest.(check bool) "Runner ~batching = engine drain: events" true
    (batched.Runner.trace.Trace.events = drained_trace.Trace.events);
  Alcotest.(check bool) "Runner ~batching = engine drain: stats" true
    (batched.Runner.stats = drained)

(* ---------------- variants, more topologies ------------------------ *)

let strict_on_rings =
  QCheck.Test.make ~name:"strict variant on rings with crashes" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.ring ~groups:3 in
      let n = Topology.n topo in
      let rng = Rng.make seed in
      let fp = Failure_pattern.random (Rng.split rng) ~n ~max_faulty:1 ~horizon:15 in
      let workload = Workload.random (Rng.split rng) ~msgs:5 ~max_at:10 topo in
      let o = Runner.run ~variant:Algorithm1.Strict ~seed ~topo ~fp ~workload () in
      Properties.strict_ordering o = Ok ()
      && Properties.termination o = Ok ()
      && Properties.minimality o = Ok ())

let pairwise_on_figure1 =
  (* Figure 1 has cyclic families, and the γ-free pairwise variant only
     targets the F = ∅ regime (§7): without γ its stable-waits can
     deadlock when concurrent messages race a cyclic family through a
     shared intersection process (seed 9090 was a witness — minimized in
     corpus/pairwise-cyclic-liveness.scenario). Assert safety here;
     termination is asserted on acyclic topologies below. *)
  QCheck.Test.make ~name:"pairwise variant on figure 1 (safety)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.figure1 in
      let fp = Failure_pattern.never ~n:5 in
      let workload = Workload.random (Rng.make seed) ~msgs:5 ~max_at:8 topo in
      let o = Runner.run ~variant:Algorithm1.Pairwise ~seed ~topo ~fp ~workload () in
      Properties.pairwise_ordering o = Ok () && Properties.integrity o = Ok ())

let pairwise_on_acyclic =
  (* The F = ∅ regime the §7 variant is meant for: full liveness. *)
  QCheck.Test.make ~name:"pairwise variant on a chain (liveness)" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.chain ~groups:3 in
      let fp = Failure_pattern.never ~n:(Topology.n topo) in
      let workload = Workload.random (Rng.make seed) ~msgs:5 ~max_at:8 topo in
      let o = Runner.run ~variant:Algorithm1.Pairwise ~seed ~topo ~fp ~workload () in
      Properties.pairwise_ordering o = Ok () && Properties.termination o = Ok ())

let group_parallelism_property () =
  let topo = Topology.chain ~groups:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.make [ (2, 1, 0) ] topo in
  let dst = Topology.group topo 1 in
  let o = Runner.run ~scheduled:(fun _ -> dst) ~topo ~fp ~workload () in
  (match Properties.group_parallelism o ~m:0 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* and the checker flags the ring blocking case *)
  let topo = Topology.ring ~groups:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.make [ (2, 1, 0); (0, 0, 10) ] topo in
  let dst = Topology.group topo 0 in
  let o =
    Runner.run ~seed:3 ~horizon:300 ~topo ~fp ~workload ~scheduled:(fun _ -> dst) ()
  in
  Alcotest.(check bool) "flags the blocked run" true
    (Properties.group_parallelism o ~m:1 <> Ok ())

(* ---------------- P-derived μ, randomised --------------------------- *)

let perfect_mu_random =
  QCheck.Test.make ~name:"P-derived μ across random crashes" ~count:25
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let topo = Topology.figure1 in
      let rng = Rng.make seed in
      let fp = Failure_pattern.random (Rng.split rng) ~n:5 ~max_faulty:2 ~horizon:15 in
      let workload = Workload.random (Rng.split rng) ~msgs:5 ~max_at:12 topo in
      let mu = Derive.mu_of_perfect topo (Perfect.make ~seed fp) in
      let o = Runner.run ~seed ~mu ~topo ~fp ~workload () in
      let gap =
        Topology.blocking_edges topo
          (Topology.cyclic_families topo)
          ~crashed:(Failure_pattern.faulty fp)
        <> []
      in
      Properties.integrity o = Ok ()
      && Properties.ordering o = Ok ()
      && (gap || Properties.termination o = Ok ()))

(* ---------------- claims under the variants ------------------------ *)

let claims_under_variants () =
  List.iter
    (fun variant ->
      let topo = Topology.figure1 in
      let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
      let workload = Workload.random (Rng.make 33) ~msgs:4 ~max_at:8 topo in
      let o = Runner.run ~variant ~seed:33 ~record_snapshots:true ~topo ~fp ~workload () in
      List.iter
        (fun (name, v) ->
          match v with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s under variant: %s" name e)
        (* claims 2-8 and 10-15 are variant-independent log/phase laws;
           claim 9 presumes global ordering, skip it for Pairwise *)
        (List.filter
           (fun (name, _) -> not (variant = Algorithm1.Pairwise && name = "claim 9"))
           (Claims.all o)))
    [ Algorithm1.Strict; Algorithm1.Pairwise ]

(* ---------------- blocking-edge analyzer --------------------------- *)

let blocking_edge_analyzer () =
  (* Construct the Lemma 25 corner: a 4-family with two Hamiltonian
     cycles plus the triangles, kill one edge, and check the analyzer
     sees the gap. Groups: g0..g3 over 6 processes with edges
     g0-g1 (p0), g1-g2 (p1), g2-g3 (p2), g3-g0 (p3), g0-g2 (p4), g1-g3 (p5). *)
  let topo =
    Topology.create ~n:6
      [
        Pset.of_list [ 0; 3; 4 ];
        Pset.of_list [ 0; 1; 5 ];
        Pset.of_list [ 1; 2; 4 ];
        Pset.of_list [ 2; 3; 5 ];
      ]
  in
  let families = Topology.cyclic_families topo in
  Alcotest.(check bool) "several families" true (List.length families >= 3);
  (* kill edge g0-g1 = {p0}: the 4-family keeps a Hamiltonian cycle
     avoiding it (g0-g2-g1-g3-g0 via p4, p1, p5, p3) *)
  let crashed = Pset.singleton 0 in
  let edges = Topology.blocking_edges topo families ~crashed in
  Alcotest.(check (list (pair int int))) "gap detected" [ (0, 1) ] edges;
  (* the paper's own topologies never have the gap *)
  List.iter
    (fun (name, topo) ->
      let families = Topology.cyclic_families topo in
      Pset.iter
        (fun p ->
          if Topology.blocking_edges topo families ~crashed:(Pset.singleton p) <> []
          then Alcotest.failf "%s has a gap when p%d dies" name p)
        (Topology.processes topo))
    [ ("figure1", Topology.figure1); ("ring", Topology.ring ~groups:4) ]

let suite =
  [
    t "star topology" `Quick star_topology;
    t "8-group ring with crash" `Quick large_ring;
    t "16 disjoint groups" `Quick many_disjoint_groups;
    t "figure1: every single crash" `Quick figure1_every_single_crash;
    t "figure1: double crashes" `Quick figure1_double_crashes;
    t "batched steps per tick" `Quick multiple_steps_per_tick;
    t "group parallelism property" `Quick group_parallelism_property;
    t "claims under the variants" `Quick claims_under_variants;
    t "Lemma 25 corner analyzer" `Quick blocking_edge_analyzer;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        adversarial_schedules;
        strict_on_rings;
        pairwise_on_figure1;
        pairwise_on_acyclic;
        perfect_mu_random;
      ]
