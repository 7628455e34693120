(* The Algorithm 1 scaling suite.

   A grid of full [Runner.run] executions — disjoint topologies (no
   cyclic family, pure group-local traffic), rings (one global cyclic
   family, the γ-heavy regime) — crossed with K messages per group.
   Each case is timed by [Trajectory.time] (the median of runs repeated
   until the quota is spent) and becomes one case of the
   `BENCH_algorithm1.json` trajectory, so every change can compare its
   numbers against the recorded history. *)

type case = { name : string; topo : Topology.t; workload : Workload.t }

(* K messages per group, sources round-robin over the group members,
   all invoked at tick 0. Ids are assigned in group-major order. *)
let workload_k ~per_group topo =
  Workload.make
    (List.concat_map
       (fun g ->
         let members = Pset.to_list (Topology.group topo g) in
         let arity = List.length members in
         List.init per_group (fun i ->
             (List.nth members (i mod arity), g, 0)))
       (Topology.gids topo))
    topo

let mk_case shape groups k =
  let topo, label =
    match shape with
    | `Disjoint ->
        ( Topology.disjoint ~groups ~size:3,
          Printf.sprintf "disjoint-%dx3" groups )
    | `Ring -> (Topology.ring ~groups, Printf.sprintf "ring-%d" groups)
  in
  {
    name = Printf.sprintf "%s-K%d" label k;
    topo;
    workload = workload_k ~per_group:k topo;
  }

(* B1 is disjoint-8x3-K1; B2 is ring-6-K1 (the EXPERIMENTS.md names). *)
let cases ~smoke =
  let disjoint = if smoke then [ 4; 8 ] else [ 4; 8; 16; 32 ] in
  let rings = if smoke then [ 6 ] else [ 6; 12; 24 ] in
  let ks = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  List.concat_map (fun g -> List.map (mk_case `Disjoint g) ks) disjoint
  @ List.concat_map (fun g -> List.map (mk_case `Ring g) ks) rings

let measure ~quota_ms c =
  let fp = Failure_pattern.never ~n:(Topology.n c.topo) in
  let t =
    Trajectory.time ~quota_ms (fun () ->
        Runner.run ~seed:1 ~topo:c.topo ~fp ~workload:c.workload ())
  in
  let o = t.result in
  let executed = o.Runner.stats.Engine.executed in
  Trajectory.
    [
      ("name", Str c.name);
      ("n", Int (Topology.n c.topo));
      ("groups", Int (Topology.num_groups c.topo));
      ("msgs", Int (List.length c.workload));
      ("ns_per_run", Float (1, ns t));
      ("steps_per_sec", Float (1, per_sec executed t));
      ("runs", Int t.runs);
      ("executed", Int executed);
      ("ticks", Int o.Runner.stats.Engine.ticks_used);
      ("consensus_instances", Int o.Runner.consensus_instances);
      ("complete", Bool (Runner.deliveries_complete o));
    ]

let suite =
  {
    Trajectory.name = "algorithm1";
    header = (fun cfg -> [ ("quota_ms", Trajectory.Int cfg.quota_ms) ]);
    cases =
      (fun cfg ->
        List.map (measure ~quota_ms:cfg.quota_ms) (cases ~smoke:cfg.smoke));
  }
