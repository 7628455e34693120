(* The claims-under-loss trajectory.

   Runs one fixed configuration (figure 1, four messages, no crash)
   across a drop-rate grid under stubborn links and records, per rate:
   announcement transmissions, deliveries, the retransmission count and
   the resulting overhead, plus whether the specification verdicts are
   identical to the fault-free baseline — the claim the stubborn layer
   makes, pinned as part of the schema (verdicts_equal must be true).

   Unlike the other suites this one is wall-clock-free: every figure is
   a deterministic function of the scenario, so trajectories are
   exactly comparable across PRs. *)

let topo = Topology.figure1

let workload () = Workload.random (Rng.make 11) ~msgs:4 ~max_at:6 topo

let outcome faults =
  let n = Topology.n topo in
  Runner.run ~seed:11 ~faults ~topo ~fp:(Failure_pattern.never ~n)
    ~workload:(workload ()) ()

let failing o =
  List.filter_map
    (fun (name, v) -> if Result.is_error v then Some name else None)
    (Properties.all o)

let drops ~smoke = if smoke then [ 0; 2_500 ] else [ 0; 500; 1_000; 2_500; 5_000 ]

let run_all ~smoke =
  let baseline = failing (outcome Channel_fault.none) in
  List.map
    (fun drop ->
      (* delay 2 even at drop 0, so every grid point exercises the
         drawn-visibility path and reports a non-zero [sent]. *)
      let spec = { Channel_fault.drop; dup = 0; delay = 2; stubborn = true } in
      let o = outcome spec in
      let ls = o.Runner.links in
      let sent = ls.Channel_fault.sent in
      Trajectory.
        [
          ("name", Str (Printf.sprintf "figure1-drop%d" drop));
          ("drop", Int drop);
          ("sent", Int sent);
          ("delivered", Int (List.length (Trace.deliveries o.Runner.trace)));
          ("retransmissions", Int ls.Channel_fault.retransmissions);
          ("lost", Int ls.Channel_fault.lost);
          (* retransmissions per transmission *)
          ( "overhead",
            Float
              ( 4,
                if sent > 0 then
                  float_of_int ls.Channel_fault.retransmissions
                  /. float_of_int sent
                else 0. ) );
          (* the same failing-property set as the fault-free run *)
          ("verdicts_equal", Bool (failing o = baseline));
        ])
    (drops ~smoke)

let suite =
  {
    Trajectory.name = "faults";
    header = (fun _ -> []);
    cases = (fun cfg -> run_all ~smoke:cfg.smoke);
  }
