(* The systematic-exploration scaling suite.

   Times lib/explore on small configurations: each case explores its
   configuration exhaustively with partial-order reduction and the
   visited-state cache, timed by [Trajectory.time] (the median of runs
   repeated until the quota is spent), then once with POR ablated. It
   records the throughput (states/second of the median run), the POR
   reduction factor (naive nodes / reduced nodes) and whether both
   sweeps reached the same verdict, the soundness claim the test suite
   pins and this trajectory tracks over time. Exploration is
   deterministic, so the node counts are exact and comparable across
   changes; only the wall-clock columns are machine dependent. *)

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

let measure ~quota_ms c =
  let t =
    Trajectory.time ~quota_ms (fun () -> Explore.run ?depth:c.bound c.sc)
  in
  let reduced = t.result in
  let naive = Explore.run ~por:false ?depth:c.bound c.sc in
  let nodes = reduced.Explore.counters.Explore.nodes
  and nodes_naive = naive.Explore.counters.Explore.nodes in
  Trajectory.
    [
      ("name", Str c.name);
      ("n", Int c.sc.Scenario.n);
      ("groups", Int (List.length c.sc.Scenario.groups));
      ("msgs", Int (List.length c.sc.Scenario.msgs));
      ("depth", Int reduced.Explore.depth);
      ("nodes", Int nodes);
      ("nodes_naive", Int nodes_naive);
      ( "reduction_factor",
        Float
          ( 2,
            if nodes > 0 then float_of_int nodes_naive /. float_of_int nodes
            else 0. ) );
      ( "distinct_states",
        Int reduced.Explore.counters.Explore.distinct_states );
      ("states_per_sec", Float (0, per_sec nodes t));
      ("ns_total", Float (0, ns t));
      ("runs", Int t.runs);
      ("violations", Int (List.length reduced.Explore.violations));
      ( "verdicts_equal",
        Bool
          (Explore.failing_properties reduced
          = Explore.failing_properties naive) );
    ]

let suite =
  {
    Trajectory.name = "explore";
    header = (fun _ -> []);
    cases =
      (fun cfg ->
        List.map (measure ~quota_ms:cfg.quota_ms) (cases ~smoke:cfg.smoke));
  }
