(* Command-line front end: inspect topologies, simulate multicast runs,
   explore schedules systematically, and regenerate the paper's tables
   and figures.

     amcast_cli analyze --topology figure1 --crash 1@5
     amcast_cli run --topology ring:3 --msgs 5 --seed 7 --variant strict
     amcast_cli explore --topology chain:2 --msgs 2
     amcast_cli explore --replay corpus/pairwise-c4-deadlock.scenario
     amcast_cli experiment table1
     amcast_cli experiment all *)

open Cmdliner

(* Exit codes (also in each subcommand's --help): 0 success, 3 a
   specification violation was found, 123 other errors, 124 CLI usage
   errors. *)
let exit_violation = 3

let violation_exits =
  Cmd.Exit.info exit_violation
    ~doc:"a specification violation was found and reported."
  :: Cmd.Exit.defaults

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Shared argument parsing                                             *)
(* ------------------------------------------------------------------ *)

let topology_of_string s =
  (* Size arguments go through [int_of_string_opt] and each shape's
     floor ([Topology.ring] needs 3 groups), so a malformed "ring:x" or
     an undersized "ring:2" is a clean cmdliner usage error (exit 124),
     never an uncaught exception out of the topology constructor. *)
  let num ?(min = 1) what k cont =
    match int_of_string_opt k with
    | Some v when v >= min -> cont v
    | Some _ when min > 1 ->
        Error
          (`Msg
            (Printf.sprintf "topology %s: K must be at least %d, got %s" what
               min k))
    | _ ->
        Error
          (`Msg (Printf.sprintf "topology %s: %S is not a positive size" what k))
  in
  match String.split_on_char ':' s with
  | [ "figure1" ] -> Ok Topology.figure1
  | [ "ring"; k ] ->
      num ~min:3 "ring:K" k (fun k -> Ok (Topology.ring ~groups:k))
  | [ "chain"; k ] -> num "chain:K" k (fun k -> Ok (Topology.chain ~groups:k))
  | [ "disjoint"; k ] ->
      num "disjoint:K" k (fun k -> Ok (Topology.disjoint ~groups:k ~size:3))
  | [ "star"; k ] ->
      num "star:K" k (fun k -> Ok (Topology.star ~satellites:k ~hub_size:k))
  | [ "random"; seed ] ->
      num "random:SEED" seed (fun seed ->
          Ok (Topology.random (Rng.make seed) ~n:8 ~groups:4 ~max_group_size:4))
  | _ ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown topology %S (use figure1 | ring:K | chain:K | disjoint:K \
              | star:K | random:SEED)"
             s))

let topology_conv =
  Arg.conv
    ( topology_of_string,
      fun fmt _ -> Format.pp_print_string fmt "<topology>" )

let topology_arg =
  Arg.(
    value
    & opt topology_conv Topology.figure1
    & info [ "t"; "topology" ] ~docv:"TOPOLOGY"
        ~doc:
          "Topology: figure1, ring:K, chain:K, disjoint:K, star:K or \
           random:SEED.")

let crash_of_string s =
  match String.split_on_char '@' s with
  | [ p; t ] -> (
      match (int_of_string_opt p, int_of_string_opt t) with
      | Some p, Some t when p >= 0 && t >= 0 -> Ok (p, t)
      | Some _, Some _ ->
          Error (`Msg (Printf.sprintf "crash %s: P and T must be at least 0" s))
      | _ -> Error (`Msg "crash must be P@T"))
  | _ -> Error (`Msg "crash must be P@T")

let crash_conv =
  Arg.conv (crash_of_string, fun fmt (p, t) -> Format.fprintf fmt "%d@%d" p t)

let crashes_arg =
  Arg.(
    value & opt_all crash_conv []
    & info [ "c"; "crash" ] ~docv:"P@T" ~doc:"Crash process $(i,P) at tick $(i,T).")

(* Crash pids can only be range-checked once the topology is known: the
   commands that take both build their failure pattern here, so a pid
   outside the topology is a usage error (exit 124) rather than an
   [Invalid_argument] out of [Failure_pattern.of_crashes]. *)
let failure_pattern topo crashes =
  let n = Topology.n topo in
  match List.find_opt (fun (p, _) -> p >= n) crashes with
  | Some (p, t) ->
      Error
        (`Msg
          (Printf.sprintf "crash %d@%d: the topology's processes are 0..%d" p t
             (n - 1)))
  | None -> Ok (Failure_pattern.of_crashes ~n crashes)

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc:"Schedule seed.")

(* Numeric flags with a hard floor: [--jobs 0] would deadlock the
   domain pool and negative counts/depths silently explore nothing, so
   all of them fail at parse time with a usage error (exit 124). *)
let int_at_least floor what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= floor -> Ok v
    | Some v ->
        Error
          (`Msg (Printf.sprintf "%s must be at least %d (got %d)" what floor v))
    | None -> Error (`Msg (Printf.sprintf "%s expects an integer, got %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--jobs") (Domain_pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for trial/section evaluation (default: the \
           recommended domain count; at least 1). Output is identical for \
           every $(docv), including 1.")

let msgs_arg =
  Arg.(
    value
    & opt (int_at_least 0 "--msgs") 5
    & info [ "m"; "msgs" ] ~docv:"N" ~doc:"Number of random messages.")

let variant_arg =
  let variants =
    [
      ("vanilla", Algorithm1.Vanilla);
      ("strict", Algorithm1.Strict);
      ("pairwise", Algorithm1.Pairwise);
    ]
  in
  Arg.(
    value
    & opt (enum variants) Algorithm1.Vanilla
    & info [ "variant" ] ~docv:"VARIANT" ~doc:"vanilla, strict or pairwise.")

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_text topo fp =
  Format.printf "%a@." Topology.pp topo;
  let families = Topology.cyclic_families topo in
  Format.printf "intersecting pairs:";
  List.iter (fun (g, h) -> Format.printf " (g%d,g%d)" g h)
    (Topology.intersecting_pairs topo);
  Format.printf "@.cyclic families (%d):@." (List.length families);
  List.iter
    (fun fam ->
      Format.printf "  %a with %d closed path(s)@." Topology.pp_family fam
        (List.length (Topology.cpaths topo fam)))
    families;
  let crashed = Failure_pattern.faulty fp in
  if not (Pset.is_empty crashed) then begin
    Format.printf "@.with %a:@." Failure_pattern.pp fp;
    List.iter
      (fun fam ->
        Format.printf "  %a faulty = %b@." Topology.pp_family fam
          (Topology.family_faulty topo fam ~crashed))
      families;
    match Topology.blocking_edges topo families ~crashed with
    | [] -> Format.printf "  no γ-liveness gap (Algorithm 1 stays live)@."
    | edges ->
        Format.printf
          "  WARNING: γ-liveness gap on edges%s — see DESIGN.md (Lemma 25 corner)@."
          (String.concat ""
             (List.map (fun (g, h) -> Printf.sprintf " (g%d,g%d)" g h) edges))
  end;
  Ok 0

let analyze topo crashes dot =
  let* fp = failure_pattern topo crashes in
  if dot then begin
    print_string (Topology.to_dot topo ~crashed:(Failure_pattern.faulty fp) ());
    Ok 0
  end
  else analyze_text topo fp

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit the intersection graph as GraphViz DOT.")

let analyze_cmd =
  let doc = "Inspect a topology: intersections, cyclic families, faultiness." in
  Cmd.v
    (Cmd.info "analyze" ~doc ~exits:Cmd.Exit.defaults)
    Term.(term_result (const analyze $ topology_arg $ crashes_arg $ dot_arg))

(* ------------------------------------------------------------------ *)
(* run                                                                 *)
(* ------------------------------------------------------------------ *)

let run topo crashes seed msgs variant =
  let* fp = failure_pattern topo crashes in
  let workload = Workload.random (Rng.make seed) ~msgs ~max_at:10 topo in
  List.iter
    (fun { Workload.msg; at } ->
      Format.printf "multicast %a at t=%d@." Amsg.pp msg at)
    workload;
  let o = Runner.run ~variant ~seed ~topo ~fp ~workload () in
  Format.printf "@.";
  List.iter
    (fun (p, m, t, _) -> Format.printf "t=%-4d deliver m%d at p%d@." t m p)
    (Trace.deliveries o.Runner.trace);
  Format.printf "@.properties:@.";
  let checks = Properties.all o in
  List.iter
    (fun (name, v) ->
      Format.printf "  %-18s %s@." name
        (match v with Ok () -> "ok" | Error e -> "VIOLATED: " ^ e))
    checks;
  if List.exists (fun (_, v) -> Result.is_error v) checks then Ok exit_violation
  else Ok 0

let run_cmd =
  let doc = "Simulate an atomic multicast run and check the specification." in
  Cmd.v
    (Cmd.info "run" ~doc ~exits:violation_exits)
    Term.(
      term_result
        (const run $ topology_arg $ crashes_arg $ seed_arg $ msgs_arg
       $ variant_arg))

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let ablation_arg =
  let ablations =
    [
      ("none", Scenario.Full);
      ("gamma", Scenario.Lying_gamma);
      ("gamma-always", Scenario.Always_gamma);
    ]
  in
  Arg.(
    value
    & opt (enum ablations) Scenario.Full
    & info [ "ablate" ] ~docv:"COMPONENT"
        ~doc:
          "Weaken the detector: $(b,gamma) replaces γ with a lying \
           (complete, inaccurate) detector, $(b,gamma-always) with an \
           accurate but incomplete one. Violations are then the expected \
           outcome.")

let trials_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--trials") 200
    & info [ "trials" ] ~docv:"N" ~doc:"Number of scenarios to explore.")

let faults_arg =
  let parse s =
    match String.lowercase_ascii (String.trim s) with
    | "random" -> Ok `Random
    | _ -> (
        match Channel_fault.of_string s with
        | Ok spec when Channel_fault.is_none spec -> Ok `Off
        | Ok spec -> Ok (`Spec spec)
        | Error e -> Error (`Msg e))
  in
  let print fmt = function
    | `Off -> Format.pp_print_string fmt "none"
    | `Random -> Format.pp_print_string fmt "random"
    | `Spec spec -> Format.pp_print_string fmt (Channel_fault.to_string spec)
  in
  Arg.(
    value
    & opt (Arg.conv (parse, print)) `Off
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Channel faults for generated scenarios: $(b,none) (default), \
           $(b,random) (drawn per scenario), or a spec like \
           $(b,drop=3000,delay=2,stubborn) (basis points of loss / \
           duplication, max extra delay, stubborn retransmission). \
           Lossy specs without $(b,stubborn) waive the termination \
           check.")

let minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Shrink the first violation to a local minimum before reporting.")

let corpus_arg =
  Arg.(
    value & opt string "corpus"
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Corpus directory for --save/--replay.")

let save_arg =
  Arg.(
    value & flag
    & info [ "save" ]
        ~doc:
          "Write the (minimized) violation into the corpus as a replayable \
           $(b,.scenario) file.")

let replay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:"Replay one $(b,.scenario) file instead of fuzzing.")

let print_violation ~minimize v =
  Format.printf "trial %d VIOLATED: %s@.@.%s@." v.Fuzz_driver.trial
    v.Fuzz_driver.failure
    (Scenario.to_string v.Fuzz_driver.scenario);
  match v.Fuzz_driver.minimized with
  | Some (m, stats) when minimize ->
      Format.printf "minimized (%d shrink steps, %d re-runs):@.@.%s@."
        stats.Shrinker.steps stats.Shrinker.checks (Scenario.to_string m)
  | _ -> ()

(* Read and decode one scenario file, for both [--replay] commands: a
   missing or unreadable file is a clean error naming it (exit 124),
   like a file that does not decode. *)
let read_scenario path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e ->
      (* open errors already start with the path, read errors do not *)
      Error
        (`Msg
          (if String.starts_with ~prefix:path e then e
           else Printf.sprintf "%s: %s" path e))
  | text ->
      Result.map_error
        (fun e -> `Msg (Printf.sprintf "%s: %s" path e))
        (Scenario.of_string text)

let replay_file path =
  let* s = read_scenario path in
  Format.printf "%s" (Scenario.to_string s);
  match Scenario.check s with
  | Ok () ->
      Format.printf "@.check: ok@.";
      Ok 0
  | Error e ->
      Format.printf "@.check: VIOLATED: %s@." e;
      if Corpus.expected_failing (Filename.basename path) then Ok 0
      else Ok exit_violation

let fuzz trials seed variant ablation faults minimize corpus save replay jobs =
  match replay with
  | Some path -> replay_file path
  | None -> (
      let cfg =
        Scenario_gen.for_ablation ablation
          { Scenario_gen.default with variants = [ variant ] }
      in
      let cfg = { cfg with Scenario_gen.faults_gen = faults } in
      let report =
        Fuzz_driver.fuzz ~minimize ~stop_at_first:true ~jobs ~trials ~seed cfg
      in
      Format.printf "fuzz: %d trial(s), %d violation(s)@." report.trials
        (List.length report.Fuzz_driver.violations);
      List.iter (print_violation ~minimize) report.Fuzz_driver.violations;
      (match report.Fuzz_driver.violations with
      | { minimized; scenario; trial; _ } :: _ when save ->
          let min_s =
            match minimized with Some (m, _) -> m | None -> scenario
          in
          let name =
            Printf.sprintf "%s-seed%d-trial%d.fail"
              (match ablation with
              | Scenario.Full -> "full"
              | Scenario.Lying_gamma -> "lying-gamma"
              | Scenario.Always_gamma -> "always-gamma")
              seed trial
          in
          let path = Corpus.save ~dir:corpus ~name min_s in
          Format.printf "saved %s@." path
      | _ -> ());
      (* A fuzz run succeeds when its outcome matches the expectation:
         the full detector finds nothing, an ablated one witnesses a
         violation. *)
      let expect_violation = ablation <> Scenario.Full in
      let found = report.Fuzz_driver.violations <> [] in
      if found = expect_violation then Ok 0
      else if found then begin
        Format.printf "violation found with the full detector μ@.";
        Ok exit_violation
      end
      else Error (`Msg "ablated detector: no violation found; raise --trials"))

let fuzz_cmd =
  let doc =
    "Explore random scenarios, check the multicast specification, and \
     minimize counterexamples."
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~exits:violation_exits)
    Term.(
      term_result
        (const fuzz $ trials_arg $ seed_arg $ variant_arg $ ablation_arg
       $ faults_arg $ minimize_arg $ corpus_arg $ save_arg $ replay_arg
       $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* explore                                                             *)
(* ------------------------------------------------------------------ *)

let depth_arg =
  Arg.(
    value
    & opt (some (int_at_least 0 "--depth")) None
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Move-sequence bound (default: the quiescence-covering \
           depth of the configuration).")

let max_depth_arg =
  Arg.(
    value
    & opt (some (int_at_least 0 "--max-depth")) None
    & info [ "max-depth" ] ~docv:"N"
        ~doc:"Deepening bound for $(b,--min-witness) and $(b,--replay).")

let min_witness_arg =
  Arg.(
    value & flag
    & info [ "min-witness" ]
        ~doc:
          "Iterative deepening: report the first depth with a violation \
           (minimal-length witnesses) instead of one exhaustive sweep.")

let no_por_arg =
  Arg.(
    value & flag
    & info [ "no-por" ]
        ~doc:
          "Ablate partial-order reduction (persistent sets). Verdicts \
           are identical; the state count grows on configurations of \
           several independent components and stays the same on the \
           others.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Ablate the visited-state fingerprint cache.")

let claims_arg =
  Arg.(
    value & flag
    & info [ "claims" ]
        ~doc:
          "Also check the Table 2 claims at every terminal state, on \
           the per-tick log snapshots recorded along its path (slower).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let explore_msgs_arg =
  Arg.(
    value & opt int 2
    & info [ "m"; "msgs" ] ~docv:"K"
        ~doc:
          "Workload size: message $(i,i) is multicast to group $(i,i) mod \
           $(i,G) by its smallest member at t=0. Keep small (state spaces \
           are exponential in $(docv)).")

let max_delay_arg =
  Arg.(
    value & opt int 1
    & info [ "max-delay" ] ~docv:"D" ~doc:"Detection-latency bound for μ.")

let explore_scenario topo msgs variant ablation crashes max_delay seed =
  let gids = Topology.gids topo in
  let num_g = List.length gids in
  let msgs =
    List.init msgs (fun i ->
        let g = List.nth gids (i mod num_g) in
        match Pset.min_elt (Topology.group topo g) with
        | Some src -> (src, g, 0)
        | None -> assert false)
  in
  Scenario.make ~crashes ~msgs ~variant ~ablation ~max_delay ~seed
    ~n:(Topology.n topo)
    (List.map (Topology.group topo) gids)

let print_explore_report ~json r =
  if json then print_string (Explore.report_to_json r)
  else begin
    Format.printf "%a@." Explore.pp_report r;
    match r.Explore.violations with
    | v :: _ ->
        Format.printf "replayable witness scenario:@.@.%s@."
          (Scenario.to_string
             (Explore.witness_scenario r.Explore.scenario v.Explore.witness))
    | [] -> ()
  end

let explore replay topo msgs variant ablation crashes max_delay seed depth
    max_depth min_witness no_por no_cache claims json =
  let por = not no_por and cache = not no_cache in
  let scenario =
    match replay with
    | None -> Ok (explore_scenario topo msgs variant ablation crashes max_delay seed)
    | Some path -> read_scenario path
  in
  match scenario with
  | Error e -> Error e
  | Ok sc -> (
      match Scenario.validate sc with
      | Error e -> Error (`Msg e)
      | Ok () ->
          if min_witness || replay <> None then begin
            (* --replay: re-verify a corpus finding exhaustively at its
               minimal depth — deepening is bounded by the witness
               length, so a clean result really means "no violation as
               short as the recorded witness". A length-d termination
               witness is a terminal only confirmable with one move of
               lookahead, hence the +1. *)
            let max_depth =
              match (max_depth, sc.Scenario.schedule) with
              | Some d, _ -> Some d
              | None, Scenario.Pinned moves -> Some (List.length moves + 1)
              | None, _ -> None
            in
            match Explore.min_witness ~por ~cache ?max_depth sc with
            | Some r ->
                print_explore_report ~json r;
                Ok exit_violation
            | None ->
                let bound =
                  match max_depth with
                  | Some d -> d
                  | None -> Explore.default_depth sc
                in
                Format.printf "clean: no violation up to depth %d@." bound;
                if replay <> None then
                  Error (`Msg "replay: recorded violation not reproduced")
                else Ok 0
          end
          else begin
            let r = Explore.run ~por ~cache ~claims ?depth sc in
            print_explore_report ~json r;
            if r.Explore.violations <> [] then Ok exit_violation else Ok 0
          end)

let explore_cmd =
  let doc =
    "Systematically enumerate schedules of a small configuration and \
     check every interleaving against the specification."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Bounded stateful model checking beside the random fuzzer: every \
         schedule of the configuration is explored up to a depth bound, \
         modulo partial-order reduction (persistent sets from the group \
         intersection structure) and visited-state fingerprint \
         caching. The search is one depth-first sweep with one visited \
         cache, on one domain, so its report is the same on every run.";
      `P
        "The configuration comes from $(b,--topology) and friends, or \
         from a scenario file via $(b,--replay) (its schedule line is \
         ignored; a pinned witness schedule bounds the deepening).";
      `P
        "$(b,--min-witness) and $(b,--replay) deepen one move at a time, \
         each sweep from an empty visited cache. The counters they print \
         are those of the violating sweep alone: the earlier sweeps' \
         nodes are not counted.";
    ]
  in
  Cmd.v
    (Cmd.info "explore" ~doc ~man ~exits:violation_exits)
    Term.(
      term_result
        (const explore $ replay_arg $ topology_arg $ explore_msgs_arg
       $ variant_arg $ ablation_arg $ crashes_arg $ max_delay_arg $ seed_arg
       $ depth_arg $ max_depth_arg $ min_witness_arg $ no_por_arg
       $ no_cache_arg $ claims_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* bench-throughput                                                    *)
(* ------------------------------------------------------------------ *)

let rate_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--rate") 200
    & info [ "rate" ] ~docv:"PCT"
        ~doc:
          "Open-loop arrival rate: $(docv) / 100 multicasts per tick on \
           average (at least 1).")

let skew_arg =
  Arg.(
    value
    & opt (int_at_least 0 "--skew") 0
    & info [ "skew" ] ~docv:"PCT"
        ~doc:
          "Zipf destination skew: group of rank i has weight 1/(i+1)^s \
           with s = $(docv) / 100. 0 is uniform.")

let duration_arg =
  Arg.(
    value
    & opt (int_at_least 1 "--duration") 12
    & info [ "duration" ] ~docv:"TICKS"
        ~doc:"Arrival window in ticks (at least 1).")

let batch_arg =
  Arg.(
    value & flag
    & info [ "batch" ]
        ~doc:
          "Batched scheduling: at its slot in a tick, each process takes \
           actions until none is enabled, instead of one.")

let bench_throughput topo crashes seed rate skew duration batch jobs =
  let* fp = failure_pattern topo crashes in
  let rng = Rng.make seed in
  let workload =
    Loadgen.open_loop ~rng ~rate_pct:rate ~skew_pct:skew ~duration topo
  in
  let shards = Shard.plan ~topo ~fp workload in
  let outcomes = Array.to_list (Shard.run ~jobs ~seed ~batching:batch shards) in
  let samples = List.concat_map Latency.samples outcomes in
  let delivered = List.length samples in
  let span = Latency.span outcomes in
  let sum f = List.fold_left (fun acc o -> acc + f o) 0 outcomes in
  Format.printf "shards=%d invoked=%d delivered=%d instances=%d rounds=%d@."
    (List.length shards) (List.length workload) delivered
    (sum (fun o -> o.Runner.consensus_instances))
    (sum (fun o -> o.Runner.consensus_rounds));
  Format.printf "makespan: %d simulated ticks (1 tick = 1 ms)@." span;
  if span > 0 then
    Format.printf "throughput: %.1f msgs/sec (simulated)@."
      (1000. *. float_of_int delivered /. float_of_int span);
  let pct q =
    match Latency.percentile samples q with
    | Some v -> string_of_int v
    | None -> "-"
  in
  Format.printf "latency ticks: p50=%s p99=%s max=%s@." (pct 50) (pct 99)
    (pct 100);
  let violated =
    List.exists (fun o -> Result.is_error (Properties.check_all o)) outcomes
  in
  if violated then begin
    Format.printf "specification VIOLATED@.";
    Ok exit_violation
  end
  else Ok 0

let bench_throughput_cmd =
  let doc =
    "Measure simulated-time multicast throughput under generated traffic."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates open-loop traffic from the seed, shards the scenario \
         along independent group families, runs it on a domain pool, and \
         reports delivered messages per simulated second (one tick = one \
         simulated millisecond) with latency percentiles. All numbers \
         are deterministic in the seed and identical for every \
         $(b,--jobs) value. Every shard is checked against the full \
         specification. Compare $(b,--batch) against the default of one \
         action per process per tick to see what draining each process \
         to a fixpoint saves in makespan; \
         $(b,bench/throughput_scaling.ml) sweeps the committed grid.";
    ]
  in
  Cmd.v
    (Cmd.info "bench-throughput" ~doc ~man ~exits:violation_exits)
    Term.(
      term_result
        (const bench_throughput $ topology_arg $ crashes_arg $ seed_arg
       $ rate_arg $ skew_arg $ duration_arg $ batch_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)
(* ------------------------------------------------------------------ *)

let experiment name jobs =
  if name = "all" then begin
    print_string (Experiments.all ~jobs ());
    Ok 0
  end
  else
    match List.assoc_opt name Experiments.sections with
    | Some f ->
        print_string (f ());
        Ok 0
    | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown experiment %S (one of: %s)" name
               (String.concat ", "
                  (List.map fst Experiments.sections @ [ "all" ]))))

let experiment_cmd =
  let doc = "Regenerate a table or figure of the paper (or 'all')." in
  let exp_name =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc)
  in
  Cmd.v (Cmd.info "experiment" ~doc)
    (Term.term_result Term.(const experiment $ exp_name $ jobs_arg))

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "genuine atomic multicast and its weakest failure detector" in
  let info = Cmd.info "amcast_cli" ~version:"1.0.0" ~doc ~exits:violation_exits in
  Cmd.group info
    [
      analyze_cmd;
      run_cmd;
      fuzz_cmd;
      explore_cmd;
      bench_throughput_cmd;
      experiment_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
