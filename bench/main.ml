(* The benchmark & experiment harness.

   Running this executable regenerates every table and figure of the
   paper (the experiment sections, shared with `amcast_cli experiment`),
   runs the five trajectory suites behind the committed BENCH_*.json
   files (see trajectory.ml), and then reports Bechamel
   micro-benchmarks — one per experiment family — for the cost of the
   underlying machinery. `--scaling-only` runs the suites alone.

   Benchmarks measure wall-clock by design (the exec scope already
   waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Fuzz-sweep wall clock: the domain-pool speedup                      *)
(* ------------------------------------------------------------------ *)

let fuzz_sweep_wallclock () =
  (* Bechamel measures per-run latency; the pool's payoff is sweep
     throughput, so time the whole sweep on a wall clock instead. The
     two reports must also be identical — that is the pool's whole
     contract. *)
  let trials = 300 and seed = 7 in
  let sweep jobs =
    let t0 = Unix.gettimeofday () in
    let r =
      Fuzz_driver.fuzz ~minimize:false ~stop_at_first:false ~jobs ~trials ~seed
        Scenario_gen.default
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let r1, t1 = sweep 1 in
  let r4, t4 = sweep 4 in
  print_endline "== Fuzz sweep wall clock (300 trials, seed 7) ==";
  Printf.printf "  jobs=1 %8.2f s   jobs=4 %8.2f s   speedup %.2fx (%d cores)\n"
    t1 t4 (t1 /. t4)
    (Domain.recommended_domain_count ());
  if r1 <> r4 then print_endline "  WARNING: reports differ across jobs!"
  else
    Printf.printf "  reports identical: %d trial(s), %d violation(s)\n"
      r1.Fuzz_driver.trials
      (List.length r1.Fuzz_driver.violations)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                    *)
(* ------------------------------------------------------------------ *)

let bench_log_ops =
  Test.make ~name:"objects/log append+bump x64 (T2 machinery)"
    (Staged.stage (fun () ->
         let log = Log.create ~compare:Int.compare in
         for i = 0 to 63 do
           ignore (Log.append log i)
         done;
         for i = 0 to 63 do
           Log.bump_and_lock log i (i + 8)
         done;
         Log.entries log))

let bench_topology =
  Test.make ~name:"topology/cyclic families, figure 1 (F1)"
    (Staged.stage (fun () -> Topology.cyclic_families Topology.figure1))

let bench_gamma =
  let topo = Topology.figure1 in
  let families = Topology.cyclic_families topo in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
  let gamma = Gamma.make ~seed:1 topo ~families fp in
  Test.make ~name:"fd/gamma query after crash (F1)"
    (Staged.stage (fun () -> Gamma.groups gamma 0 20 0))

let bench_algorithm1 =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.never ~n:5 in
  let workload = Workload.one_per_group topo in
  Test.make ~name:"core/Algorithm 1 full run, figure 1 (T1.4)"
    (Staged.stage (fun () -> Runner.run ~seed:1 ~topo ~fp ~workload ()))

let bench_genuine_disjoint =
  let topo = Topology.disjoint ~groups:8 ~size:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.one_per_group topo in
  Test.make ~name:"core/Algorithm 1 run, 8 disjoint groups (B1)"
    (Staged.stage (fun () -> Runner.run ~seed:1 ~topo ~fp ~workload ()))

let bench_broadcast =
  let topo = Topology.disjoint ~groups:8 ~size:3 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.one_per_group topo in
  Test.make ~name:"baselines/broadcast run, 8 disjoint groups (B1)"
    (Staged.stage (fun () -> Broadcast.run ~seed:1 ~topo ~fp ~workload ()))

let bench_convoy =
  let topo = Topology.ring ~groups:6 in
  let fp = Failure_pattern.never ~n:(Topology.n topo) in
  let workload = Workload.one_per_group topo in
  Test.make ~name:"core/Algorithm 1 run, 6-ring (B2)"
    (Staged.stage (fun () -> Runner.run ~seed:1 ~topo ~fp ~workload ()))

let bench_fastlog =
  let scope = Pset.of_list [ 1; 2 ] in
  let group = Pset.of_list [ 0; 1; 2; 3 ] in
  let fp = Failure_pattern.never ~n:5 in
  let sigma_i = Sigma.make ~restrict:scope fp in
  let sigma_g = Sigma.make ~restrict:group fp in
  let omega_g = Omega.make ~restrict:group ~seed:3 fp in
  Test.make ~name:"substrate/fast log, 4 uncontended appends (B3)"
    (Staged.stage (fun () ->
         let rl =
           Replog.create ?faults:None ?seed:None ~scope ~group
             ~sigma_inter:(Sigma.query sigma_i)
             ~sigma_group:(Sigma.query sigma_g)
             ~omega_group:(Omega.query omega_g)
         in
         Replog.append rl ~pid:1 ~op:0;
         Replog.append rl ~pid:1 ~op:1;
         Replog.append rl ~pid:2 ~op:0;
         Replog.append rl ~pid:2 ~op:1;
         Engine.run ~fp ~horizon:4000 ~quiesce_after:5
           ~step:(fun ~pid ~time -> Replog.step rl ~pid ~time)
           ()))

let bench_gamma_extract =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
  Test.make ~name:"emulation/Algorithm 3 run, figure 1 (F3)"
    (Staged.stage (fun () ->
         let ge = Gamma_extract.create ~topo ~fp () in
         fst (Gamma_extract.run ge ~horizon:300)))

let bench_cht =
  let topo =
    Topology.create ~n:4 [ Pset.of_list [ 0; 1; 2 ]; Pset.of_list [ 1; 2; 3 ] ]
  in
  let fp = Failure_pattern.of_crashes ~n:4 [ (2, 3) ] in
  Test.make ~name:"cht/Algorithm 5 extraction (F4-F5)"
    (Staged.stage (fun () -> Cht_extract.extract ~topo ~fp ~g:0 ~h:1 ()))

let tests =
  Test.make_grouped ~name:"amcast"
    [
      bench_log_ops;
      bench_topology;
      bench_gamma;
      bench_algorithm1;
      bench_genuine_disjoint;
      bench_broadcast;
      bench_convoy;
      bench_fastlog;
      bench_gamma_extract;
      bench_cht;
    ]

let run_benchmarks () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results = Analyze.all ols Instance.monotonic_clock raw_results in
  print_endline "== Micro-benchmarks (monotonic clock) ==";
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let estimate =
        match Analyze.OLS.estimates r with
        | Some (e :: _) ->
            if e > 1e6 then Printf.sprintf "%10.2f ms/run" (e /. 1e6)
            else Printf.sprintf "%10.0f ns/run" e
        | _ -> "     (no fit)"
      in
      Printf.printf "  %-52s %s\n" name estimate)
    (* sort by name only: Analyze.OLS.t is abstract, and polymorphic
       compare over it can raise or lie *)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) rows)

(* ------------------------------------------------------------------ *)
(* The command line                                                    *)
(* ------------------------------------------------------------------ *)

(* The trajectory suites, run through Trajectory.run (see trajectory.ml). *)
let suites =
  [
    Scaling.suite;
    Checker_scaling.suite;
    Explore_scaling.suite;
    Faults_scaling.suite;
    Throughput_scaling.suite;
  ]

(* Seven flags; [Arg.parse] exits 2 on anything else. *)
let () =
  let scaling_only = ref false and smoke = ref false in
  let quota_ms = ref 500 and jobs = ref (Domain_pool.default_jobs ()) in
  let label = ref "HEAD" and out_dir = ref None and no_bench = ref false in
  let at_least lo flag r v =
    if v >= lo then r := v
    else raise (Arg.Bad (Printf.sprintf "%s must be >= %d" flag lo))
  in
  let dir d =
    if Sys.file_exists d && Sys.is_directory d then out_dir := Some d
    else raise (Arg.Bad ("--out-dir: no directory " ^ d))
  in
  Arg.parse
    (Arg.align
       [
         ("--scaling-only", Arg.Set scaling_only, " run the suites only");
         ("--smoke", Arg.Set smoke, " run each suite's small case set");
         ( "--quota-ms",
           Arg.Int (at_least 0 "--quota-ms" quota_ms),
           "MS time each case until MS ms are spent (default 500)" );
         ( "--jobs",
           Arg.Int (at_least 1 "--jobs" jobs),
           "N domains for experiments, explorer, shards (default: cores)" );
         ("--label", Arg.Set_string label, "L entry label (default HEAD)");
         ( "--out-dir",
           Arg.String dir,
           "DIR write DIR/BENCH_<suite>.json for each suite" );
         ("--no-bench", Arg.Set no_bench, " skip fuzz sweep and Bechamel runs");
       ])
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [FLAG...]: the paper's tables, the trajectory suites and \
     micro-benchmarks";
  if not !scaling_only then begin
    print_string (Experiments.all ~jobs:!jobs ());
    print_newline ()
  end;
  let cfg =
    { Trajectory.quota_ms = !quota_ms; jobs = !jobs; smoke = !smoke }
  in
  List.iter (Trajectory.run cfg ~label:!label ~out_dir:!out_dir) suites;
  if not (!scaling_only || !no_bench) then begin
    fuzz_sweep_wallclock ();
    run_benchmarks ()
  end
