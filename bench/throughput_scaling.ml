(* The heavy-traffic throughput suite (DESIGN.md "Batching & group
   sharding").

   A grid of open-loop loadgen scenarios — disjoint topologies (many
   independent group-families, the sharding regime) and rings (one
   contended cyclic family, the batching regime) — crossed with arrival
   rates. Every case is executed twice: engine modes OFF (the seed
   stepper, one sequential run) and ON (batching + group-family
   sharding, [Shard.run ~jobs]).

   Throughput is measured in SIMULATED time: one tick is one simulated
   millisecond, and msgs/sec is completed deliveries over the makespan
   (first invoke to last delivery, [Latency.span]). The seed stepper
   executes one action per process per tick, so a deep dependency chain
   costs a tick per hop; the batched engine drains whole cascades
   within a tick, collapsing the chain — that tick-count contraction is
   the win batching buys, and measuring it in simulated time
   keeps every reported number bit-deterministic (machine-independent,
   so the committed JSON is CI-checkable: the validator pins
   `verdicts_equal` and the percentile orderings exactly). Wall-clock
   of the simulation itself is reported alongside as informational
   [sim_ns_per_run] — it tracks simulator cost, not algorithm
   throughput.

   Both executions are verified against the full specification
   ([Properties.all]); a case only counts as valid when the verdict
   vectors agree (all Ok on both sides) — the `verdicts_equal` flag
   the validator pins to true.

   Wall-clock by design for the informational fields (exec scope
   already waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

type case = {
  name : string;
  topo : Topology.t;
  rate_pct : int;  (** arrivals per tick, in hundredths *)
  skew_pct : int;  (** Zipf skew, in hundredths of the exponent *)
  duration : int;  (** arrival window, ticks *)
}

let mk_case shape ~rate ~skew ~duration =
  let topo, label =
    match shape with
    | `Disjoint groups ->
        ( Topology.disjoint ~groups ~size:3,
          Printf.sprintf "disjoint-%dx3" groups )
    | `Ring groups -> (Topology.ring ~groups, Printf.sprintf "ring-%d" groups)
  in
  {
    name = Printf.sprintf "%s-r%d-s%d" label rate skew;
    topo;
    rate_pct = rate;
    skew_pct = skew;
    duration;
  }

(* The full grid ends on ring-24 at 16 msgs/group on average — the
   contended ring-24-K16 class of BENCH_algorithm1.json, where the
   acceptance bar is a >= 5x delivered-msgs/sec speedup. *)
let cases ~smoke =
  if smoke then
    [
      mk_case (`Disjoint 8) ~rate:200 ~skew:0 ~duration:8;
      mk_case (`Ring 6) ~rate:100 ~skew:100 ~duration:8;
    ]
  else
    [
      mk_case (`Disjoint 16) ~rate:200 ~skew:0 ~duration:24;
      mk_case (`Disjoint 16) ~rate:800 ~skew:100 ~duration:24;
      mk_case (`Ring 6) ~rate:100 ~skew:0 ~duration:24;
      mk_case (`Ring 6) ~rate:400 ~skew:100 ~duration:24;
      mk_case (`Ring 24) ~rate:800 ~skew:0 ~duration:24;
      mk_case (`Ring 24) ~rate:1600 ~skew:0 ~duration:24;
    ]

type mode_result = {
  ns_per_run : float;  (** wall-clock simulator cost, informational *)
  runs : int;
  delivered : int;
  span_ticks : int;  (** simulated makespan, first invoke → last delivery *)
  p50 : int;
  p99 : int;
  lat_max : int;
  rounds : int;
  spec_ok : bool;
}

type result = {
  case : case;
  msgs : int;
  shards : int;
  off : mode_result;
  on_ : mode_result;
}

(* Time [go] like scaling.ml's measure: one run always, then repeat
   until the quota is spent, reporting the mean. *)
let timed ~quota_ms go =
  let t0 = Unix.gettimeofday () in
  let first = go () in
  let total = ref (Unix.gettimeofday () -. t0) in
  let runs = ref 1 in
  let quota = float_of_int quota_ms /. 1000. in
  while !total < quota && !runs < 10_000 do
    let t0 = Unix.gettimeofday () in
    ignore (go ());
    total := !total +. (Unix.gettimeofday () -. t0);
    incr runs
  done;
  (first, !total /. float_of_int !runs, !runs)

let mode_result ~ns_per_run ~runs outcomes =
  let samples = List.concat_map Latency.samples outcomes in
  let pct q = Option.value ~default:0 (Latency.percentile samples q) in
  {
    ns_per_run;
    runs;
    delivered = List.length samples;
    span_ticks = Latency.span outcomes;
    p50 = pct 50;
    p99 = pct 99;
    lat_max = pct 100;
    rounds =
      List.fold_left (fun acc o -> acc + o.Runner.consensus_rounds) 0 outcomes;
    spec_ok =
      List.for_all (fun o -> Result.is_ok (Properties.check_all o)) outcomes;
  }

let measure ~quota_ms ~jobs c =
  let workload =
    Loadgen.open_loop ~rng:(Rng.make 1) ~rate_pct:c.rate_pct
      ~skew_pct:c.skew_pct ~duration:c.duration c.topo
  in
  let fp = Failure_pattern.never ~n:(Topology.n c.topo) in
  let n_shards = List.length (Shard.plan ~topo:c.topo ~fp workload) in
  let off_run () = Runner.run ~seed:1 ~topo:c.topo ~fp ~workload () in
  let on_run () =
    (* planning is part of the pipeline, so it is timed too *)
    let shards = Shard.plan ~topo:c.topo ~fp workload in
    Shard.run ~jobs ~seed:1 ~batching:true shards
  in
  let off_o, off_s, off_runs = timed ~quota_ms off_run in
  let on_o, on_s, on_runs = timed ~quota_ms on_run in
  {
    case = c;
    msgs = List.length workload;
    shards = n_shards;
    off = mode_result ~ns_per_run:(off_s *. 1e9) ~runs:off_runs [ off_o ];
    on_ =
      mode_result ~ns_per_run:(on_s *. 1e9) ~runs:on_runs
        (Array.to_list on_o);
  }

let run_all ~quota_ms ~jobs ~smoke =
  List.map (measure ~quota_ms ~jobs) (cases ~smoke)

(* Simulated-time throughput: one tick is one simulated millisecond,
   so msgs/sec = delivered × 1000 / makespan-in-ticks. Deterministic —
   the same seed yields the same number on any machine. *)
let msgs_per_sec mr =
  if mr.span_ticks > 0 then
    1000. *. float_of_int mr.delivered /. float_of_int mr.span_ticks
  else 0.

let speedup r =
  let off = msgs_per_sec r.off in
  if off > 0. then msgs_per_sec r.on_ /. off else 0.

let verdicts_equal r = r.off.spec_ok && r.on_.spec_ok

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let print_text results =
  print_endline
    "== Throughput suite (engine modes off vs batching+sharding) ==";
  List.iter
    (fun r ->
      Printf.printf
        "  %-22s %4d msgs %2d shard%s  off %8.0f msg/s (%3d ticks, p50 %3d \
         p99 %3d)  on %8.0f msg/s (%3d ticks, p50 %3d p99 %3d)  %5.1fx%s\n"
        r.case.name r.msgs r.shards
        (if r.shards = 1 then " " else "s")
        (msgs_per_sec r.off) r.off.span_ticks r.off.p50 r.off.p99
        (msgs_per_sec r.on_) r.on_.span_ticks r.on_.p50 r.on_.p99 (speedup r)
        (if verdicts_equal r then "" else "  VERDICTS DIFFER"))
    results

let json_case b r =
  Printf.bprintf b
    "    { \"name\": \"%s\", \"n\": %d, \"groups\": %d, \"msgs\": %d,\n\
    \      \"rate_pct\": %d, \"skew_pct\": %d, \"shards\": %d,\n\
    \      \"off_msgs_per_sec\": %.1f, \"on_msgs_per_sec\": %.1f, \"speedup\": \
     %.2f,\n\
    \      \"off_span_ticks\": %d, \"on_span_ticks\": %d, \"delivered\": %d,\n\
    \      \"off_p50\": %d, \"off_p99\": %d, \"off_max\": %d,\n\
    \      \"on_p50\": %d, \"on_p99\": %d, \"on_max\": %d,\n\
    \      \"off_rounds\": %d, \"on_rounds\": %d,\n\
    \      \"off_sim_ns_per_run\": %.0f, \"on_sim_ns_per_run\": %.0f,\n\
    \      \"verdicts_equal\": %b }"
    r.case.name (Topology.n r.case.topo)
    (Topology.num_groups r.case.topo)
    r.msgs r.case.rate_pct r.case.skew_pct r.shards (msgs_per_sec r.off)
    (msgs_per_sec r.on_) (speedup r) r.off.span_ticks r.on_.span_ticks
    r.on_.delivered r.off.p50 r.off.p99 r.off.lat_max r.on_.p50 r.on_.p99
    r.on_.lat_max r.off.rounds r.on_.rounds r.off.ns_per_run r.on_.ns_per_run
    (verdicts_equal r)

let json_trajectory ~label ~quota_ms ~jobs results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"amcast-bench-trajectory/v1\",\n";
  Buffer.add_string b "  \"suite\": \"throughput-scaling\",\n";
  Buffer.add_string b "  \"entries\": [ {\n";
  Printf.bprintf b "    \"label\": \"%s\",\n" label;
  Printf.bprintf b "    \"quota_ms\": %d,\n" quota_ms;
  Printf.bprintf b "    \"jobs\": %d,\n" jobs;
  Buffer.add_string b "    \"cases\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      json_case b r)
    results;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b
