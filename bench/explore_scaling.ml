(* The systematic-exploration scaling suite.

   Times lib/explore on small configurations: each case explores its
   configuration exhaustively with partial-order reduction and the
   visited-state cache, repeated until the quota is spent (at least
   once), then once with POR ablated. It records the throughput
   (states/second of the median run), the POR reduction factor (naive
   nodes / reduced nodes) and whether both sweeps reached the same
   verdict, the soundness claim the test suite pins and this trajectory
   tracks over time. Exploration is deterministic, so the node counts
   are exact and comparable across PRs; only the wall-clock columns are
   machine dependent.

   Wall-clock by design: this *is* the clock benchmark (exec scope
   already waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

type case = { name : string; sc : Scenario.t; bound : int option }

let g = Pset.of_list

(* One message per group i mod G, multicast by its smallest member at
   t=0 — the same deterministic workload `amcast_cli explore` builds. *)
let canned name topo ~msgs ~variant =
  let gids = Topology.gids topo in
  let num_g = List.length gids in
  let msgs =
    List.init msgs (fun i ->
        let gid = List.nth gids (i mod num_g) in
        match Pset.min_elt (Topology.group topo gid) with
        | Some src -> (src, gid, 0)
        | None -> assert false)
  in
  {
    name;
    sc =
      Scenario.make ~msgs ~variant ~n:(Topology.n topo)
        (List.map (Topology.group topo) gids);
    bound = None;
  }

(* The minimized always-γ corpus deadlock: every schedule blocks, so
   exploration hits a violation — the "time to rediscover" datapoint. *)
let always_gamma_case =
  {
    name = "always-gamma-deadlock";
    sc =
      Scenario.make ~seed:477670 ~ablation:Scenario.Always_gamma ~max_delay:1
        ~crashes:[ (4, 0) ]
        ~msgs:[ (5, 2, 0) ]
        ~n:6
        [ g [ 0; 2 ]; g [ 2; 4 ]; g [ 0; 4; 5 ] ];
    bound = Some 9;
  }

let cases ~smoke =
  let chain2_k1 =
    canned "chain-2-K1" (Topology.chain ~groups:2) ~msgs:1
      ~variant:Algorithm1.Vanilla
  in
  if smoke then [ chain2_k1 ]
  else
    [
      chain2_k1;
      canned "chain-3-K1" (Topology.chain ~groups:3) ~msgs:1
        ~variant:Algorithm1.Vanilla;
      canned "disjoint-2x3-K2" (Topology.disjoint ~groups:2 ~size:3) ~msgs:2
        ~variant:Algorithm1.Vanilla;
      always_gamma_case;
      canned "ring-3-K2" (Topology.ring ~groups:3) ~msgs:2
        ~variant:Algorithm1.Vanilla;
    ]

type result = {
  case : case;
  depth : int;
  nodes : int;
  nodes_naive : int;
  distinct_states : int;
  violations : int;
  verdicts_equal : bool;
  runs : int;
  states_per_sec : float;
  ns_total : float;  (* the median POR-on run *)
}

let reduction r =
  if r.nodes > 0 then float_of_int r.nodes_naive /. float_of_int r.nodes
  else 0.

let measure ~quota_ms ~jobs c =
  let timed () =
    let t0 = Unix.gettimeofday () in
    let r = Explore.run ~jobs ?depth:c.bound c.sc in
    (r, Unix.gettimeofday () -. t0)
  in
  let reduced, first = timed () in
  let times = ref [ first ] and total = ref first in
  let quota = float_of_int quota_ms /. 1000. in
  while !total < quota && List.length !times < 10_000 do
    let _, secs = timed () in
    times := secs :: !times;
    total := !total +. secs
  done;
  let runs = List.length !times in
  let secs = List.nth (List.sort Float.compare !times) (runs / 2) in
  let naive = Explore.run ~por:false ~jobs ?depth:c.bound c.sc in
  {
    case = c;
    depth = reduced.Explore.depth;
    nodes = reduced.Explore.counters.Explore.nodes;
    nodes_naive = naive.Explore.counters.Explore.nodes;
    distinct_states = reduced.Explore.counters.Explore.distinct_states;
    violations = List.length reduced.Explore.violations;
    verdicts_equal =
      Explore.failing_properties reduced = Explore.failing_properties naive;
    runs;
    states_per_sec =
      (if secs > 0. then float_of_int reduced.Explore.counters.Explore.nodes /. secs
       else 0.);
    ns_total = secs *. 1e9;
  }

let run_all ~quota_ms ~jobs ~smoke =
  List.map (measure ~quota_ms ~jobs) (cases ~smoke)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let print_text results =
  print_endline "== Exploration scaling suite (DPOR-lite vs naive) ==";
  List.iter
    (fun r ->
      Printf.printf
        "  %-22s depth %2d  %7d states (naive %8d, %5.1fx)  %8.0f st/s \
         (median of %d)  %d violation(s)%s\n"
        r.case.name r.depth r.nodes r.nodes_naive (reduction r)
        r.states_per_sec r.runs r.violations
        (if r.verdicts_equal then "" else "  VERDICTS DIFFER"))
    results

(* Same whole-file shape as scaling.ml's trajectory (schema marker +
   entries array) so validate.exe checks all three suites; the per-case
   fields are dispatched on the "suite" string. *)
let json_trajectory ~label ~jobs results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"amcast-bench-trajectory/v1\",\n";
  Buffer.add_string b "  \"suite\": \"explore-scaling\",\n";
  Buffer.add_string b "  \"entries\": [ {\n";
  Printf.bprintf b "    \"label\": \"%s\",\n" (Scaling.json_escape label);
  Printf.bprintf b "    \"jobs\": %d,\n" jobs;
  Buffer.add_string b "    \"cases\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    { \"name\": \"%s\", \"n\": %d, \"groups\": %d, \"msgs\": %d,\n\
        \      \"depth\": %d, \"nodes\": %d, \"nodes_naive\": %d,\n\
        \      \"reduction_factor\": %.2f, \"distinct_states\": %d,\n\
        \      \"states_per_sec\": %.0f, \"ns_total\": %.0f, \"runs\": %d,\n\
        \      \"violations\": %d, \"verdicts_equal\": %b }"
        (Scaling.json_escape r.case.name)
        r.case.sc.Scenario.n
        (List.length r.case.sc.Scenario.groups)
        (List.length r.case.sc.Scenario.msgs)
        r.depth r.nodes r.nodes_naive (reduction r) r.distinct_states
        r.states_per_sec r.ns_total r.runs r.violations r.verdicts_equal)
    results;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b
