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

   The informational wall-clock fields come from [Trajectory.time]. *)

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

type mode = {
  sim_ns : float;  (** the median run's wall time, informational *)
  delivered : int;
  span : int;  (** simulated makespan, first invoke → last delivery *)
  msgs_per_sec : float;
  latency : int list;  (** p50, p99, max *)
  rounds : int;
  spec_ok : bool;
}

(* Throughput is simulated: one tick is one simulated millisecond, so
   msgs/sec = delivered × 1000 / makespan-in-ticks, the same on any
   machine. *)
let mode (t : Runner.outcome list Trajectory.timed) =
  let outcomes = t.result in
  let samples = List.concat_map Latency.samples outcomes in
  let delivered = List.length samples and span = Latency.span outcomes in
  {
    sim_ns = Trajectory.ns t;
    delivered;
    span;
    msgs_per_sec =
      (if span > 0 then 1000. *. float_of_int delivered /. float_of_int span
       else 0.);
    latency =
      List.map
        (fun q -> Option.value ~default:0 (Latency.percentile samples q))
        [ 50; 99; 100 ];
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
  let off =
    mode
      (Trajectory.time ~quota_ms (fun () ->
           [ Runner.run ~seed:1 ~topo:c.topo ~fp ~workload () ]))
  in
  let on_ =
    mode
      (Trajectory.time ~quota_ms (fun () ->
           (* planning is part of the pipeline, so it is timed too *)
           let shards = Shard.plan ~topo:c.topo ~fp workload in
           Array.to_list (Shard.run ~jobs ~seed:1 ~batching:true shards)))
  in
  let open Trajectory in
  let both k v = [ ("off_" ^ k, v off); ("on_" ^ k, v on_) ] in
  [
    ("name", Str c.name);
    ("n", Int (Topology.n c.topo));
    ("groups", Int (Topology.num_groups c.topo));
    ("msgs", Int (List.length workload));
    ("rate_pct", Int c.rate_pct);
    ("skew_pct", Int c.skew_pct);
    ("shards", Int (List.length (Shard.plan ~topo:c.topo ~fp workload)));
  ]
  @ both "msgs_per_sec" (fun m -> Float (1, m.msgs_per_sec))
  @ [
      ( "speedup",
        Float
          ( 2,
            if off.msgs_per_sec > 0. then on_.msgs_per_sec /. off.msgs_per_sec
            else 0. ) );
    ]
  @ both "span_ticks" (fun m -> Int m.span)
  @ [ ("delivered", Int on_.delivered) ]
  @ List.concat_map
      (fun (prefix, m) ->
        List.map2
          (fun k v -> (prefix ^ k, Int v))
          [ "p50"; "p99"; "max" ] m.latency)
      [ ("off_", off); ("on_", on_) ]
  @ both "rounds" (fun m -> Int m.rounds)
  @ both "sim_ns_per_run" (fun m -> Float (0, m.sim_ns))
  @ [ ("verdicts_equal", Bool (off.spec_ok && on_.spec_ok)) ]

let suite =
  {
    Trajectory.name = "throughput";
    header =
      (fun cfg ->
        [
          ("quota_ms", Trajectory.Int cfg.quota_ms);
          ("jobs", Trajectory.Int cfg.jobs);
        ]);
    cases =
      (fun cfg ->
        List.map
          (measure ~quota_ms:cfg.quota_ms ~jobs:cfg.jobs)
          (cases ~smoke:cfg.smoke));
  }
