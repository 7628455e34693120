(* End-to-end benchmark of the atomic-multicast stack: wall time per
   delivered message from scenario to checker verdict, on five
   workloads, with a per-layer breakdown taken from outside the library.

     amcast_bench.exe --workload W --seed S --seconds T --trace 0|1
                      [--trace-out FILE] [--smoke] [--commit C]

   --trace 0 measures untraced passes for T seconds and prints the
   end-to-end metrics; --trace 1 alternates untraced passes with traced
   ones (the rebuilt runner of Pipeline) and prints the per-layer
   metrics, after checking that every traced run is identical to the
   library's. Times are scaled to the host's usual speed (Host). The
   last stdout line is one JSON object
   {"correct", "attempted", "failed", "metrics"}. Exit status: 0 when
   every verdict is Ok, 3 when some run fails its verdict (the CLI's
   code for a reported violation), 4 when a traced run differs from the
   library's, 2 on a usage error. *)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type sim_spec = {
  topo : Topology.t;
  rate_pct : int;
  skew_pct : int;
  duration : int;
  crash : bool;  (** scenario [s] crashes process [1 + s mod 15] at tick [5 + s mod 10] *)
  cfg : Pipeline.sim;
  sharded : bool;
  runs : int;  (** scenarios per pass *)
}

type kind = Sim of sim_spec | Explore of (string * Scenario.t) list

type workload = { name : string; kind : kind }

(* Scenarios per pass under --smoke; explore workloads keep their first
   (smallest) config. *)
let smoke_runs = 2

let stubborn ~drop ~delay =
  { Channel_fault.drop; dup = 0; delay; stubborn = true }

(* Message i goes to group i mod G from its smallest member at t=0,
   the workload `amcast_cli explore` builds. *)
let config ?(crashes = []) ?(faults = Channel_fault.none) name topo ~msgs =
  let gids = Topology.gids topo in
  let groups = List.map (Topology.group topo) gids in
  let msgs =
    List.init msgs (fun i ->
        let g = i mod List.length gids in
        (Pset.choose (List.nth groups g), g, 0))
  in
  (name, Scenario.make ~crashes ~msgs ~faults ~max_delay:1 ~n:(Topology.n topo) groups)

let sim ?(crash = false) ?(claims = false) ?(faults = Channel_fault.none)
    ?(sharded = false) topo ~rate_pct ~skew_pct ~duration ~runs =
  Sim
    {
      topo;
      rate_pct;
      skew_pct;
      duration;
      crash;
      cfg = { Pipeline.faults; claims };
      sharded;
      runs;
    }

let workloads =
  [
    {
      name = "ring-contended";
      kind =
        sim (Topology.ring ~groups:24) ~rate_pct:1600 ~skew_pct:0 ~duration:24
          ~runs:60;
    };
    {
      name = "disjoint-sharded";
      kind =
        sim ~sharded:true
          (Topology.disjoint ~groups:16 ~size:3)
          ~rate_pct:800 ~skew_pct:100 ~duration:24 ~runs:240;
    };
    {
      name = "ring-faults-claims";
      kind =
        sim ~crash:true ~claims:true
          ~faults:{ Channel_fault.drop = 2000; dup = 500; delay = 3; stubborn = true }
          (Topology.ring ~groups:8) ~rate_pct:200 ~skew_pct:0 ~duration:12
          ~runs:75;
    };
    {
      name = "explore-faults";
      kind =
        Explore
          [
            config "chain-2-K1" (Topology.chain ~groups:2) ~msgs:1
              ~faults:(stubborn ~drop:3000 ~delay:1);
            config "ring-3-K1" (Topology.ring ~groups:3) ~msgs:1
              ~faults:(stubborn ~drop:3000 ~delay:2);
            config "disjoint-2x2-K2"
              (Topology.disjoint ~groups:2 ~size:2)
              ~msgs:2
              ~faults:(stubborn ~drop:1000 ~delay:1);
          ];
    };
    {
      name = "explore-clean";
      kind =
        Explore
          [
            config "chain-3-K1" (Topology.chain ~groups:3) ~msgs:1;
            config "ring-3-K1-crash-1@2" (Topology.ring ~groups:3) ~msgs:1
              ~crashes:[ (1, 2) ];
            config "disjoint-2x3-K2" (Topology.disjoint ~groups:2 ~size:3) ~msgs:2;
            config "star-3-K1" (Topology.star ~satellites:3 ~hub_size:3) ~msgs:1;
            config "figure1-K2" Topology.figure1 ~msgs:2;
          ];
    };
  ]

(* Every message is sourced by its group's smallest member. *)
let scenario s seed =
  let rng = Rng.make seed in
  let reqs =
    Loadgen.open_loop ~rng ~rate_pct:s.rate_pct ~skew_pct:s.skew_pct
      ~duration:s.duration s.topo
  in
  let workload =
    List.map
      (fun { Workload.msg; at } ->
        let src = Pset.choose (Topology.group s.topo msg.Amsg.dst) in
        { Workload.msg = Amsg.make ~id:msg.Amsg.id ~src ~dst:msg.Amsg.dst s.topo; at })
      reqs
  in
  let n = Topology.n s.topo in
  let fp =
    if s.crash then Failure_pattern.of_crashes ~n [ (1 + (seed mod 15), 5 + (seed mod 10)) ]
    else Failure_pattern.never ~n
  in
  { Pipeline.seed; topo = s.topo; fp; workload }

(* ------------------------------------------------------------------ *)
(* Jobs: one scenario or config, run either way                        *)
(* ------------------------------------------------------------------ *)

(* What the harness reads off a finished run, outside the timed region. *)
type facts = {
  items : int;  (** delivered messages, or explored nodes *)
  latencies : int list;  (** invoke-to-last-delivery, in ticks *)
  counts : (string * int) list;
}

type finished = {
  failures : string list Lazy.t;
  digest : Digest.t Lazy.t;
  facts : facts Lazy.t;
}

type job = {
  label : string;
  plain : unit -> finished;
  traced : unit -> finished * Span.t;
}

let sim_finished (r : Pipeline.result) =
  let facts =
    lazy
      (let latencies = List.concat_map Latency.samples r.outcomes in
       let sum f = List.fold_left (fun acc o -> acc + f o) 0 r.outcomes in
       let link f = sum (fun (o : Runner.outcome) -> f o.links) in
       {
         items = List.length latencies;
         latencies;
         counts =
           [
             ("consensus_instances", sum (fun o -> o.consensus_instances));
             ("consensus_rounds", sum (fun o -> o.consensus_rounds));
             ("sent", link (fun l -> l.Channel_fault.sent));
             ("retransmissions", link (fun l -> l.Channel_fault.retransmissions));
             ("dropped", link (fun l -> l.Channel_fault.dropped));
             ("lost", link (fun l -> l.Channel_fault.lost));
             ("events", sum (fun o -> List.length o.trace.Trace.events));
             ("snapshots", sum (fun o -> List.length o.snapshots));
           ];
       })
  in
  {
    failures = lazy (Pipeline.failures r);
    digest = lazy (Pipeline.digest r);
    facts;
  }

let explore_counters (r : Explore.report) =
  let c = r.counters in
  [
    ("nodes", c.Explore.nodes);
    ("replayed_steps", c.replayed_steps);
    ("cache_hits", c.cache_hits);
    ("por_skips", c.por_skips);
    ("sleep_skips", c.sleep_skips);
    ("distinct_states", c.distinct_states);
    ("truncated", c.truncated);
  ]

let explore_finished (r : Explore.report) =
  {
    failures =
      lazy
        (List.map
           (fun v -> v.Explore.property ^ ": " ^ v.Explore.detail)
           r.violations
        @
        if r.counters.truncated > 0 then
          [ Printf.sprintf "%d leaves truncated at depth %d" r.counters.truncated r.depth ]
        else []);
    digest =
      lazy
        (Digest.string
           (Marshal.to_string
              (explore_counters r, Explore.failing_properties r)
              [ Marshal.No_sharing ]));
    facts = lazy { items = r.counters.nodes; latencies = []; counts = [] };
  }

let explore_job (name, sc) =
  let explore () = Explore.run sc in
  {
    label = name;
    plain = (fun () -> explore_finished (explore ()));
    traced =
      (fun () ->
        let start = Span.now () in
        let r, s = Span.timed "explore.run" explore in
        let s = { s with Span.args = explore_counters r } in
        (explore_finished r, Span.make "run" ~start ~stop:(Span.now ()) ~children:[ s ]));
  }

(* Everything runs on one domain, the sharded workload's cells and the
   explorer's branches too: on a 2-core machine a second domain made
   disjoint-sharded's run-to-run spread three times wider (0.15 against
   0.05 over ten seeds) for a 1.17x speed-up, and single explorations
   varied by 15% against 4%. *)
let sim_job s sc =
  let plain, traced =
    if s.sharded then (Pipeline.plain_sharded, Pipeline.traced_sharded)
    else (Pipeline.plain s.cfg, Pipeline.traced s.cfg)
  in
  {
    label = Printf.sprintf "seed %d" sc.Pipeline.seed;
    plain = (fun () -> sim_finished (plain sc));
    traced =
      (fun () ->
        let r, span = traced sc in
        (sim_finished r, span));
  }

type env = { jobs : job array; warm : job }

(* Input generation and one warm-up run. Mu.make and
   Algorithm1.create are paid per scenario, so they stay in the runs.
   The warm-up input does not depend on [seed], so neither does the
   set-up's cost. *)
let setup w ~seed ~smoke =
  let env =
    match w.kind with
    | Sim s ->
        let runs = if smoke then smoke_runs else s.runs in
        let scenarios = List.init runs (fun i -> scenario s ((seed * 10_000) + i)) in
        {
          jobs = Array.of_list (List.map (sim_job s) scenarios);
          warm = sim_job s (scenario s 0);
        }
    | Explore configs ->
        (* Exhaustive exploration takes no random input: the seed only
           orders the configs within a pass. The first config is the
           smallest; it is the warm-up run and the smoke pass. *)
        let warm = explore_job (List.hd configs) in
        let jobs =
          if smoke then [| warm |]
          else Array.of_list (List.map explore_job (Rng.shuffle (Rng.make seed) configs))
        in
        { jobs; warm }
  in
  ignore (env.warm.plain ());
  env

(* ------------------------------------------------------------------ *)
(* Measurement                                                         *)
(* ------------------------------------------------------------------ *)

let fi = float_of_int

let median = function
  | [] -> 0.
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let k = Array.length a in
      if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb_now () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Times are in ns at the reference machine's usual speed (Host). *)
type measured = {
  setups : float list;  (** ns, one set-up per pass *)
  untraced : float array list;  (** per pass, per job: run wall ns *)
  traced : float array list;  (** per pass, per job: run-span wall ns *)
  slowdowns : float list;  (** every probe: its time over Host.reference_ns *)
  spans : (int * Span.t) list;  (** (run id, run span), every traced run *)
  facts : facts array;  (** per job, from the first untraced pass *)
  peak_rss_mb : float;  (** after set-up and the first untraced pass *)
  attempted : int;
  failed : int;
  mismatched : int;
}

let no_facts = { items = 0; latencies = []; counts = [] }
let max_reported = 20

(* The host is probed (Host) before a run or set-up when this much
   time has passed since the last probe, and once more at the end. Each
   run or set-up is then scaled by the mean of the probes just before
   and just after it. Against the probe before it alone, that took the
   largest spread over ten processes per workload from 0.083 to 0.068,
   and explore-clean's, whose longest config runs for a second, from
   0.069 to 0.025. Probes 25 ms apart take a tenth of the time. *)
let probe_every_ns = 25_000_000

(* A run's wall ns, and the index of the last probe before it. *)
type timing = { ns : int; probe : int }

let untimed = { ns = 0; probe = 0 }

(* Passes while the next one fits in [seconds] (at least one). Each
   pass is set up anew, so that setup_s comes from set-ups spread
   across the run: a single short set-up varied by 1.5x between
   processes on a 2-core machine. With [trace], each untraced pass is
   followed by a traced one whose runs must be identical to it. *)
let measure ~trace ~seconds setup =
  let start = Span.now () in
  let probes = ref [] and n_probes = ref 0 and last_probe = ref 0 in
  let probe () =
    probes := Host.probe () :: !probes;
    incr n_probes;
    last_probe := Span.now ()
  in
  let refresh () = if Span.now () - !last_probe >= probe_every_ns then probe () in
  let timed f =
    refresh ();
    let t0 = Span.now () in
    let v = f () in
    (v, { ns = Span.now () - t0; probe = !n_probes - 1 })
  in
  probe ();
  let first_env = timed setup in
  let n = Array.length (fst first_env).jobs in
  let facts = Array.make n no_facts in
  let digests = Array.make n "" in
  let attempted = ref 0 and failed = ref 0 and mismatched = ref 0 in
  let reported = ref 0 in
  let report label msg =
    incr reported;
    if !reported <= max_reported then Printf.eprintf "FAIL %s: %s\n%!" label msg
  in
  let finish (j : job) f =
    incr attempted;
    match Lazy.force f.failures with
    | [] -> true
    | msgs ->
        incr failed;
        List.iter (report j.label) msgs;
        false
  in
  let guard (j : job) run =
    try Some (run ()) with e ->
      incr attempted;
      incr failed;
      report j.label (Printexc.to_string e);
      None
  in
  let untraced = ref [] and traced = ref [] and spans = ref [] in
  let next_run = ref 0 in
  let peak_rss_mb = ref 0. in
  let untraced_pass env ~first =
    let ns = Array.make n untimed in
    Array.iteri
      (fun i j ->
        match timed (fun () -> guard j j.plain) with
        | None, _ -> ()
        | Some f, t ->
            ns.(i) <- t;
            if finish j f && first then begin
              facts.(i) <- Lazy.force f.facts;
              if trace then digests.(i) <- Lazy.force f.digest
            end)
      env.jobs;
    if first then peak_rss_mb := peak_rss_mb_now ();
    ns
  in
  let traced_pass env =
    let ns = Array.make n untimed in
    Array.iteri
      (fun i j ->
        refresh ();
        match guard j j.traced with
        | None -> ()
        | Some (f, span) ->
            ns.(i) <- { ns = Span.dur span; probe = !n_probes - 1 };
            spans := (!next_run, span) :: !spans;
            incr next_run;
            if finish j f && not (String.equal (Lazy.force f.digest) digests.(i))
            then begin
              incr mismatched;
              report j.label "traced run differs from the library's run"
            end)
      env.jobs;
    ns
  in
  let budget = seconds * 1_000_000_000 in
  let setups = ref [] and passes = ref 0 in
  let fits () =
    let elapsed = Span.now () - start in
    elapsed + (elapsed / max 1 !passes) <= budget
  in
  while !passes = 0 || fits () do
    let env, t = if !passes = 0 then first_env else timed setup in
    setups := t :: !setups;
    untraced := untraced_pass env ~first:(!passes = 0) :: !untraced;
    if trace then traced := traced_pass env :: !traced;
    incr passes
  done;
  probe ();
  let p = Array.of_list (List.rev !probes) in
  let scale t = fi t.ns /. ((p.(t.probe) +. p.(t.probe + 1)) /. 2.) *. Host.reference_ns in
  let scale_passes l = List.rev_map (Array.map scale) l in
  {
    setups = List.rev_map scale !setups;
    untraced = scale_passes !untraced;
    traced = scale_passes !traced;
    slowdowns = Array.to_list (Array.map (fun x -> x /. Host.reference_ns) p);
    spans = List.rev !spans;
    facts;
    peak_rss_mb = !peak_rss_mb;
    attempted = !attempted;
    failed = !failed;
    mismatched = !mismatched;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0. else fi a /. fi b

(* The nearest-rank rule of Latency.percentile, over floats. *)
let nearest_rank xs q =
  match List.sort Float.compare xs with
  | [] -> 0.
  | sorted ->
      let n = List.length sorted in
      List.nth sorted (min n (max 1 (((q * n) + 99) / 100)) - 1)

let items_per_pass m = Array.fold_left (fun acc f -> acc + f.items) 0 m.facts

(* Time metrics come from each run's median over the passes, in
   reference ns. Once scaled by the probes, the median spread less over
   ten processes of the explore workloads than the fastest pass or the
   lower quartile did. wall_s is the sum of those medians, run_ms_*
   their percentiles across the pass's runs: p80 leaves at least 12 runs
   above it on the simulation workloads, where a pass has 60 to 240
   runs. setup_s is the median set-up. *)
let end_to_end m =
  let items = items_per_pass m in
  let runs =
    List.init (Array.length m.facts) (fun i -> median (List.map (fun ns -> ns.(i)) m.untraced))
  in
  let wall = List.fold_left ( +. ) 0. runs in
  [
    ("setup_s", "s", median m.setups /. 1e9);
    ("wall_s", "s", wall /. 1e9);
    ("ns_per_item", "ns", wall /. fi (max 1 items));
    ("run_ms_p50", "ms", nearest_rank runs 50 /. 1e6);
    ("run_ms_p80", "ms", nearest_rank runs 80 /. 1e6);
    ("peak_rss_mb", "MB", m.peak_rss_mb);
  ]

(* Per-layer metrics from the traced passes. Layer times are shares of
   the traced runs' summed wall time; on disjoint-sharded the layers
   inside a cell are part of shard.run's share. Times per item or per
   second are scaled like the end-to-end ones. *)
let per_layer m =
  let roots = List.map snd m.spans in
  let wall = List.fold_left (fun acc s -> acc + Span.dur s) 0 roots in
  let scaled_wall =
    List.fold_left (fun acc ns -> Array.fold_left ( +. ) acc ns) 0. m.traced
  in
  let passes = List.length m.traced in
  let items = passes * items_per_pass m in
  let total name = Span.total name roots in
  let arg name key = Span.total_arg name key roots in
  let self name = Span.fold_named name (fun acc s -> acc + Span.self s) 0 roots in
  let pct ns = 100. *. ratio ns wall in
  let fact key =
    passes
    * Array.fold_left
        (fun acc f -> acc + Option.value (List.assoc_opt key f.counts) ~default:0)
        0 m.facts
  in
  let explore key = arg "explore.run" key in
  let per_pass x = ratio x (max 1 passes) in
  let per_s x = if scaled_wall > 0. then fi x /. (scaled_wall /. 1e9) else 0. in
  let cells = Span.count "shard.cell" roots in
  let slowest =
    Span.fold_named "shard.run"
      (fun acc s ->
        acc + List.fold_left (fun mx c -> max mx (Span.dur c)) 0 s.Span.children)
      0 roots
  in
  let latencies =
    List.concat_map (fun f -> List.map fi f.latencies) (Array.to_list m.facts)
  in
  (* Each traced run against the same scenario's untraced run of the
     same pass: pairing runs rather than passes keeps drift between
     passes out of the overhead. *)
  let overhead =
    let pairs =
      List.concat
        (List.map2
           (fun u t -> List.combine (Array.to_list u) (Array.to_list t))
           m.untraced m.traced)
    in
    median
      (List.filter_map
         (fun (u, t) -> if u > 0. then Some (100. *. ((t /. u) -. 1.)) else None)
         pairs)
  in
  [
    ("trace_overhead_pct", "%", overhead);
    ("host.slowdown", "ratio", median m.slowdowns);
    ("traced.ns_per_item", "ns", scaled_wall /. fi (max 1 items));
    ("mu.make.pct", "%", pct (total "mu.make"));
    ("algorithm1.create.pct", "%", pct (total "algorithm1.create"));
    ("engine.self.pct", "%", pct (self "engine.run"));
    ("algorithm1.step.pct", "%", pct (arg "engine.run" "step_ns"));
    ("algorithm1.enabled.pct", "%", pct (arg "engine.run" "enabled_ns"));
    ( "algorithm1.snapshot.pct",
      "%",
      pct (arg "engine.run" "snapshot_ns" + total "algorithm1.snapshot") );
    ("trace.index.pct", "%", pct (total "trace.index"));
    ("checker.properties.pct", "%", pct (total "checker.properties"));
    ("checker.claims.pct", "%", pct (total "checker.claims"));
    ("shard.plan.pct", "%", pct (total "shard.plan"));
    ("shard.run.pct", "%", pct (total "shard.run"));
    ("run.other.pct", "%", pct (self "run"));
    ("engine.ticks_per_run", "count", ratio (arg "engine.run" "ticks") (Span.count "engine.run" roots));
    ( "engine.skip_ratio",
      "ratio",
      ratio (arg "engine.run" "enabled_false") (arg "engine.run" "enabled_calls") );
    ("algorithm1.step.calls_per_msg", "count", ratio (arg "engine.run" "step_calls") items);
    ( "algorithm1.step.useful_ratio",
      "ratio",
      ratio (arg "engine.run" "step_useful") (arg "engine.run" "step_calls") );
    ("objects.consensus_instances_per_msg", "count", ratio (fact "consensus_instances") items);
    ("objects.consensus_rounds_per_msg", "count", ratio (fact "consensus_rounds") items);
    ("net.sends_per_msg", "count", ratio (fact "sent") items);
    ("net.retransmissions_per_send", "ratio", ratio (fact "retransmissions") (fact "sent"));
    ("net.dropped_per_send", "ratio", ratio (fact "dropped") (fact "sent"));
    ("net.lost", "count", fi (fact "lost"));
    ("trace.events_per_msg", "count", ratio (fact "events") items);
    ("checker.snapshots_per_run", "count", ratio (fact "snapshots") (List.length roots));
    ("shard.cells", "count", ratio cells (List.length roots));
    ("shard.slowest_cell_share", "ratio", ratio slowest (total "shard.run"));
    ("explore.nodes", "count", per_pass (explore "nodes"));
    ("explore.nodes_per_s", "1/s", per_s (explore "nodes"));
    ("explore.replayed_steps", "count", per_pass (explore "replayed_steps"));
    ("explore.replayed_steps_per_s", "1/s", per_s (explore "replayed_steps"));
    ("explore.cache_hit_ratio", "ratio", ratio (explore "cache_hits") (explore "nodes"));
    ("explore.por_skips", "count", per_pass (explore "por_skips"));
    ("explore.sleep_skips", "count", per_pass (explore "sleep_skips"));
    ("explore.distinct_states", "count", per_pass (explore "distinct_states"));
    ("protocol.sim_latency_p50_ticks", "ticks", nearest_rank latencies 50);
    ("protocol.sim_latency_p99_ticks", "ticks", nearest_rank latencies 99);
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* Cores as `nproc` counts them: the CPUs this process may run on. *)
let nproc () =
  let ic = open_in "/proc/self/status" in
  let count spec =
    List.fold_left
      (fun acc part ->
        match String.split_on_char '-' (String.trim part) with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ a ] when not (String.equal a "") -> acc + 1
        | _ -> acc)
      0
      (String.split_on_char ',' spec)
  in
  let rec scan () =
    match input_line ic with
    | line -> (
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; spec ] -> count spec
        | _ -> scan ())
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let machine ~commit =
  Json.Obj
    [
      ("nproc", Json.Num (fi (nproc ())));
      ("recommended_domain_count", Json.Num (fi (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("commit", Json.Str commit);
    ]

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, unit, value) ->
         (name, Json.Obj [ ("value", Json.Num value); ("unit", Json.Str unit) ]))
       metrics)

let print_table w ~seed m metrics =
  Printf.printf "# %s seed %d: %d untraced + %d traced passes of %d runs\n" w.name seed
    (List.length m.untraced) (List.length m.traced) (Array.length m.facts);
  List.iter
    (fun (name, unit, value) -> Printf.printf "#   %-38s %16.4f %s\n" name value unit)
    metrics

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_out = ref "" and smoke = ref false and commit = ref "unknown" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_int seconds, "T measure for T seconds (at least one pass)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or per-layer metrics (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE with --trace 1, write the spans as Chrome trace JSON");
      ("--smoke", Arg.Set smoke, " tiny fixed run count, for the test suite");
      ("--commit", Arg.Set_string commit, "C commit recorded in the machine record");
    ]
  in
  let usage = "amcast_bench.exe --workload W --seed S --seconds T --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail msg =
    prerr_endline msg;
    exit 2
  in
  let pid, w =
    match List.find_index (fun w -> String.equal w.name !workload) workloads with
    | Some i -> (i, List.nth workloads i)
    | None ->
        fail
          (Printf.sprintf "unknown workload %S (one of: %s)" !workload
             (String.concat ", " (List.map (fun w -> w.name) workloads)))
  in
  if !seed < 0 then fail "--seed must be >= 0";
  if !seconds < 0 then fail "--seconds must be >= 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let trace = !trace = 1 in
  let origin = Span.now () in
  let m =
    measure ~trace ~seconds:!seconds (fun () -> setup w ~seed:!seed ~smoke:!smoke)
  in
  let machine = machine ~commit:!commit in
  if trace && not (String.equal !trace_out "") then begin
    let oc = open_out !trace_out in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
        Span.write_chrome oc ~origin ~pid ~process_name:w.name
          ~other:(Json.Obj [ ("workload", Json.Str w.name); ("seed", Json.Num (fi !seed)); ("machine", machine) ])
          m.spans)
  end;
  let metrics = if trace then per_layer m else end_to_end m in
  print_table w ~seed:!seed m metrics;
  print_endline (Json.to_string (Json.Obj [ ("machine", machine) ]));
  let correct = m.failed = 0 && m.mismatched = 0 in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Num (fi m.attempted));
            ("failed", Json.Num (fi (m.failed + m.mismatched)));
            ("metrics", metrics_json metrics);
          ]));
  if m.failed > 0 then exit 3 else if m.mismatched > 0 then exit 4
