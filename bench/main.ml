(* The benchmark & experiment harness.

   Running this executable regenerates every table and figure of the
   paper (the experiment sections, shared with `amcast_cli experiment`)
   and then reports Bechamel micro-benchmarks — one per experiment
   family — for the cost of the underlying machinery.

   Benchmarks measure wall-clock by design (the exec scope already
   waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

open Bechamel
open Toolkit

let arg_string name =
  (* `--name V` anywhere on the command line *)
  let rec scan i =
    if i + 1 >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then Some Sys.argv.(i + 1)
    else scan (i + 1)
  in
  scan 1

let arg_value name = Option.bind (arg_string name) int_of_string_opt
let has_flag name = Array.exists (String.equal name) Sys.argv

let jobs =
  match arg_value "--jobs" with
  | Some j when j >= 1 -> j
  | _ -> Domain_pool.default_jobs ()

let experiment_sections () =
  print_string (Experiments.all ~jobs ());
  print_newline ()

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
(* The Algorithm 1 scaling suite (see scaling.ml)                      *)
(* ------------------------------------------------------------------ *)

let rec run_scaling () =
  let quota_ms =
    match arg_value "--quota-ms" with Some q when q >= 0 -> q | _ -> 500
  in
  let smoke = has_flag "--smoke" in
  let label =
    match arg_string "--label" with Some l -> l | None -> "HEAD"
  in
  let results = Scaling.run_all ~quota_ms ~smoke in
  (match arg_string "--format" with
  | Some "json" ->
      let json = Scaling.json_trajectory ~label ~quota_ms results in
      (match arg_string "--out" with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc json);
          Printf.printf "scaling suite written to %s (%d cases)\n" path
            (List.length results)
      | None -> print_string json)
  | _ ->
      Scaling.print_text results;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Scaling.json_trajectory ~label ~quota_ms results)))
        (arg_string "--out"));
  run_checker_scaling ~quota_ms ~smoke ~label ();
  run_explore_scaling ~quota_ms ~smoke ~label ();
  run_faults_scaling ~smoke ~label ();
  run_throughput_scaling ~quota_ms ~smoke ~label ()

(* The checker counterpart (see checker_scaling.ml): same flags, its
   own output file via --checker-out. In JSON mode nothing is printed
   unless --checker-out is absent, so `--format json` without --out
   still emits exactly one document per suite on stdout. *)
and run_checker_scaling ~quota_ms ~smoke ~label () =
  let results = Checker_scaling.run_all ~quota_ms ~smoke in
  match arg_string "--format" with
  | Some "json" -> (
      let json = Checker_scaling.json_trajectory ~label ~quota_ms results in
      match arg_string "--checker-out" with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc json);
          Printf.printf "checker suite written to %s (%d cases)\n" path
            (List.length results)
      | None -> print_string json)
  | _ ->
      Checker_scaling.print_text results;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Checker_scaling.json_trajectory ~label ~quota_ms results)))
        (arg_string "--checker-out")

(* The systematic-exploration counterpart (see explore_scaling.ml):
   each case's POR-on exploration repeats until the quota is spent,
   the POR-off one runs once. Its own output file via --explore-out. *)
and run_explore_scaling ~quota_ms ~smoke ~label () =
  let results = Explore_scaling.run_all ~quota_ms ~jobs ~smoke in
  match arg_string "--format" with
  | Some "json" -> (
      let json = Explore_scaling.json_trajectory ~label ~jobs results in
      match arg_string "--explore-out" with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc json);
          Printf.printf "explore suite written to %s (%d cases)\n" path
            (List.length results)
      | None -> print_string json)
  | _ ->
      Explore_scaling.print_text results;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Explore_scaling.json_trajectory ~label ~jobs results)))
        (arg_string "--explore-out")

(* The claims-under-loss counterpart (see faults_scaling.ml):
   wall-clock-free, so no quota. Its own output file via --faults-out. *)
and run_faults_scaling ~smoke ~label () =
  let results = Faults_scaling.run_all ~smoke in
  match arg_string "--format" with
  | Some "json" -> (
      let json = Faults_scaling.json_trajectory ~label results in
      match arg_string "--faults-out" with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc json);
          Printf.printf "faults suite written to %s (%d cases)\n" path
            (List.length results)
      | None -> print_string json)
  | _ ->
      Faults_scaling.print_text results;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Faults_scaling.json_trajectory ~label results)))
        (arg_string "--faults-out")

(* The heavy-traffic counterpart (see throughput_scaling.ml): msgs/sec
   with engine modes off vs batching+sharding, on the shared
   quota and --jobs pool. Its own output file via --throughput-out. *)
and run_throughput_scaling ~quota_ms ~smoke ~label () =
  let results = Throughput_scaling.run_all ~quota_ms ~jobs ~smoke in
  match arg_string "--format" with
  | Some "json" -> (
      let json =
        Throughput_scaling.json_trajectory ~label ~quota_ms ~jobs results
      in
      match arg_string "--throughput-out" with
      | Some path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc json);
          Printf.printf "throughput suite written to %s (%d cases)\n" path
            (List.length results)
      | None -> print_string json)
  | _ ->
      Throughput_scaling.print_text results;
      Option.iter
        (fun path ->
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_string oc
                (Throughput_scaling.json_trajectory ~label ~quota_ms ~jobs
                   results)))
        (arg_string "--throughput-out")

let () =
  let skip_bench = has_flag "--no-bench" in
  if has_flag "--scaling-only" then run_scaling ()
  else begin
    experiment_sections ();
    run_scaling ();
    if not skip_bench then begin
      fuzz_sweep_wallclock ();
      run_benchmarks ()
    end
  end
