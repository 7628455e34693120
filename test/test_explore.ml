(* Systematic exploration (lib/explore): POR soundness at the engine
   level, exhaustive verdicts on small configurations, ablation and
   jobs invariance, and exhaustive re-verification of corpus findings
   at minimal depth. *)

let g = Pset.of_list

(* Two disjoint triangles: p0..p2 and p3..p5 never interact. *)
let disjoint_sc =
  Scenario.make
    ~msgs:[ (0, 0, 0); (3, 1, 0) ]
    ~n:6
    [ g [ 0; 1; 2 ]; g [ 3; 4; 5 ] ]

(* Two chained groups sharing p1: everything interacts. *)
let chain_sc =
  Scenario.make ~msgs:[ (0, 0, 0) ] ~n:3 [ g [ 0; 1 ]; g [ 1; 2 ] ]

(* The minimized always-γ corpus counterexample's configuration
   (corpus/always-gamma-seed1-trial0.fail.scenario): crash p4 of the
   cyclic family {g0,g1,g2}, γ never excludes it, and the correct
   members of g2 wait forever — every schedule deadlocks. *)
let always_gamma_sc =
  Scenario.make ~seed:477670 ~ablation:Scenario.Always_gamma ~max_delay:1
    ~crashes:[ (4, 0) ]
    ~msgs:[ (5, 2, 0) ]
    ~n:6
    [ g [ 0; 2 ]; g [ 2; 4 ]; g [ 0; 4; 5 ] ]

(* Replay a pinned move prefix exactly as the explorer does, returning
   the canonical fingerprint rendering of the resulting state. *)
let render_after sc moves =
  let topo = Scenario.topology sc in
  let fp = Scenario.failure_pattern sc in
  let workload = Scenario.workload sc in
  let mu = Mu.make ~max_delay:sc.Scenario.max_delay ~seed:sc.Scenario.seed topo fp in
  let st =
    Algorithm1.create ~variant:sc.Scenario.variant ~topo ~mu ~workload ()
  in
  let _stats, fired =
    Engine.run_pinned ~fp ~seed:sc.Scenario.seed
      ~moves:(Array.map (fun p -> Some p) (Array.of_list moves))
      ~step:(Algorithm1.step st) ()
  in
  ( Fingerprint.render ~time:(Explore.steady_time sc) ~topo
      ~msgs:(List.length sc.Scenario.msgs) st,
    Array.for_all Fun.id fired )

(* POR soundness at the engine level: stepping two non-interacting
   processes in either order yields fingerprint-identical states, for
   every non-interacting pair of the topology. *)
let commutation () =
  let sc = disjoint_sc in
  let topo = Scenario.topology sc in
  let n = Topology.n topo in
  let checked = ref 0 in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if not (Topology.interacting topo p q) then begin
        let r_pq, _ = render_after sc [ p; q ] in
        let r_qp, _ = render_after sc [ q; p ] in
        Alcotest.(check string)
          (Printf.sprintf "p%d;p%d commutes with p%d;p%d" p q q p)
          r_pq r_qp;
        incr checked
      end
    done
  done;
  (* 3 × 3 cross-triangle pairs *)
  Alcotest.(check int) "all cross-component pairs checked" 9 !checked;
  (* the two workload sources really do act in both orders — the
     commutation above is not vacuous *)
  let _, fired_03 = render_after sc [ 0; 3 ] in
  let _, fired_30 = render_after sc [ 3; 0 ] in
  Alcotest.(check bool) "both sources act in either order" true
    (fired_03 && fired_30)

(* Exhaustive sweeps of small acyclic configurations are clean: no
   violation on any interleaving, and the default depth covers
   quiescence (no truncated leaves). *)
let exhaustive_clean sc name () =
  let r = Explore.run ~jobs:2 sc in
  Alcotest.(check (list string)) (name ^ " has no violation") []
    (Explore.failing_properties r);
  Alcotest.(check bool) (name ^ " reaches terminals") true
    (r.Explore.counters.Explore.terminals >= 1);
  Alcotest.(check int) (name ^ " quiesces within the default depth") 0
    r.Explore.counters.Explore.truncated

(* Blind rediscovery of a deadlock from exploration alone: iterative
   deepening on the always-γ configuration finds a minimal-length
   termination witness in milliseconds, and the witness replays into
   the same violation through the ordinary scenario runner. *)
let rediscover_deadlock () =
  match Explore.min_witness ~jobs:2 ~max_depth:12 always_gamma_sc with
  | None -> Alcotest.fail "deadlock not rediscovered"
  | Some r ->
      Alcotest.(check (list string))
        "termination is the failing property" [ "termination" ]
        (Explore.failing_properties r);
      let v = List.hd r.Explore.violations in
      Alcotest.(check bool) "witness is short" true
        (List.length v.Explore.witness <= r.Explore.depth);
      let w = Explore.witness_scenario always_gamma_sc v.Explore.witness in
      (match w.Scenario.schedule with
      | Scenario.Pinned _ -> ()
      | _ -> Alcotest.fail "witness scenario is not pinned");
      let o = Scenario.run w in
      (match Properties.termination o with
      | Error _ -> ()
      | Ok () -> Alcotest.fail "witness replay delivers everything");
      (* deepening is minimal: one depth shallower finds nothing *)
      (match
         Explore.run ~stop_on_first:true ~depth:(r.Explore.depth - 1)
           always_gamma_sc
       with
      | { Explore.violations = []; _ } -> ()
      | _ -> Alcotest.fail "a shallower witness exists")

(* The reductions are sound: verdicts are identical with POR and the
   fingerprint cache ablated, on a clean and on a violating config. *)
let ablation_identity () =
  List.iter
    (fun (name, sc, depth) ->
      let f ~por ~cache =
        Explore.failing_properties (Explore.run ~por ~cache ?depth ~jobs:2 sc)
      in
      let full = f ~por:true ~cache:true in
      Alcotest.(check (list string)) (name ^ ": -por") full (f ~por:false ~cache:true);
      Alcotest.(check (list string)) (name ^ ": -cache") full (f ~por:true ~cache:false))
    [
      ("chain", chain_sc, None);
      ("always-gamma", always_gamma_sc, Some 8);
    ]

(* POR actually reduces on multi-component topologies. *)
let por_reduces () =
  let nodes ~por =
    (Explore.run ~por ~jobs:2 disjoint_sc).Explore.counters.Explore.nodes
  in
  let with_por = nodes ~por:true and without = nodes ~por:false in
  Alcotest.(check bool)
    (Printf.sprintf "POR shrinks the tree (%d < %d)" with_por without)
    true
    (with_por * 10 < without)

(* Reports are bit-identical across the worker-domain count. *)
let jobs_identity () =
  List.iter
    (fun (name, sc, depth) ->
      let r1 = Explore.run ?depth ~jobs:1 sc in
      let r2 = Explore.run ?depth ~jobs:2 sc in
      (* everything but the echoed jobs field must be bit-identical *)
      Alcotest.(check bool) (name ^ ": identical reports") true
        ({ r1 with Explore.jobs = 0 } = { r2 with Explore.jobs = 0 }))
    [
      ("disjoint", disjoint_sc, None);
      ("always-gamma", always_gamma_sc, Some 9);
    ]

(* Pinned witness schedules round-trip through the scenario codec,
   idle ticks included. *)
let pinned_codec () =
  let sc =
    {
      always_gamma_sc with
      Scenario.schedule = Scenario.Pinned [ Some 5; None; Some 0; None; Some 5 ];
    }
  in
  let text = Scenario.to_string sc in
  Alcotest.(check bool) "renders idle as -" true
    (let found = ref false in
     String.split_on_char '\n' text
     |> List.iter (fun l -> if l = "schedule pinned 5 - 0 - 5" then found := true);
     !found);
  match Scenario.of_string text with
  | Error e -> Alcotest.failf "does not re-parse: %s" e
  | Ok sc' -> Alcotest.(check bool) "round-trips" true (Scenario.equal sc sc')

(* Every .fail. corpus finding is re-verified exhaustively: systematic
   exploration of its configuration (schedule ignored) rediscovers a
   violation, bounded by the recorded witness length when the corpus
   entry is a pinned explorer witness. *)
let corpus_reverify () =
  let entries = Corpus.load ~dir:"../corpus" in
  let decoded =
    List.filter_map
      (fun (name, d) ->
        match d with Ok s -> Some (name, s) | Error _ -> None)
      entries
  in
  (* Pinned schedules in the corpus are recorded explorer witnesses:
     each must still replay to a raw-specification violation through
     the ordinary runner. Note Properties.check_all, not
     Scenario.check — the latter exempts documented liveness
     exceptions (the pairwise/cyclic deadlock among them), which is
     exactly what a witness is a witness *of*. *)
  let pinned =
    List.filter
      (fun (_, s) ->
        match s.Scenario.schedule with
        | Scenario.Pinned _ -> true
        | _ -> false)
      decoded
  in
  if pinned = [] then Alcotest.fail "no pinned explorer witness in the corpus";
  List.iter
    (fun (name, s) ->
      if Properties.check_all (Scenario.run s) = Ok () then
        Alcotest.failf "%s: pinned witness no longer violates" name)
    pinned;
  (* Expected-failing entries are exhaustively re-verified: systematic
     exploration of the configuration (schedule ignored) must
     rediscover a violation. Reserved for shallow findings — deep
     pinned witnesses (the pairwise C4 deadlock, 31 moves) and the
     lying-γ config cost minutes, and `amcast_cli explore --replay`
     covers them out of band. *)
  let failing =
    List.filter (fun (name, _) -> Corpus.expected_failing name) decoded
  in
  if List.length failing < 2 then
    Alcotest.failf "too few failing corpus entries (%d)" (List.length failing);
  List.iter
    (fun (name, s) ->
      (* a length-d termination witness is only confirmable with one
         move of lookahead, hence the +1 on pinned bounds *)
      let bound =
        match s.Scenario.schedule with
        | Scenario.Pinned moves when List.length moves <= 12 ->
            Some (List.length moves + 1)
        | _ when s.Scenario.ablation = Scenario.Always_gamma -> Some 10
        | _ -> None
      in
      match bound with
      | None -> ()
      | Some max_depth -> (
          match Explore.min_witness ~jobs:2 ~max_depth s with
          | None -> Alcotest.failf "%s: violation not rediscovered" name
          | Some r ->
              Alcotest.(check bool)
                (name ^ ": rediscovered at or below the recorded depth")
                true
                (r.Explore.depth <= max_depth)))
    failing

(* Exhaustive search under channel faults, where POR is off and the
   enablement hint decides which probes are replayed: the three
   explore-faults configs of the end-to-end benchmark (message i to
   group i mod G from its smallest member at t=0) at default depth.
   The counts pin how much the search covers — a hint that wrongly
   rules a process out shrinks them without reporting anything. A
   change that alters the search on purpose updates them and says why. *)
let explore_under_faults () =
  let config name topo ~msgs ~drop ~delay ~expect:(nodes, terminals, distinct) =
    let groups = List.map (Topology.group topo) (Topology.gids topo) in
    let msgs =
      List.init msgs (fun i ->
          let g = i mod List.length groups in
          (Pset.choose (List.nth groups g), g, 0))
    in
    let faults = { Channel_fault.drop; dup = 0; delay; stubborn = true } in
    let sc =
      Scenario.make ~msgs ~faults ~max_delay:1 ~n:(Topology.n topo) groups
    in
    let r = Explore.run sc in
    let c = r.Explore.counters in
    Alcotest.(check (list string)) (name ^ ": no violation") []
      (Explore.failing_properties r);
    Alcotest.(check bool) (name ^ ": por off under faults") false r.Explore.por;
    Alcotest.(check (list int))
      (name ^ ": nodes, terminals, distinct states")
      [ nodes; terminals; distinct ]
      [ c.Explore.nodes; c.Explore.terminals; c.Explore.distinct_states ]
  in
  config "chain-2-K1" (Topology.chain ~groups:2) ~msgs:1 ~drop:3000 ~delay:1
    ~expect:(1170, 4, 488);
  config "ring-3-K1" (Topology.ring ~groups:3) ~msgs:1 ~drop:3000 ~delay:2
    ~expect:(3445, 24, 1584);
  config "disjoint-2x2-K2"
    (Topology.disjoint ~groups:2 ~size:2)
    ~msgs:2 ~drop:1000 ~delay:1 ~expect:(9033, 4, 2807)

let suite =
  let t = Alcotest.test_case in
  [
    t "engine-level commutation" `Quick commutation;
    t "exhaustive chain is clean" `Quick (exhaustive_clean chain_sc "chain");
    t "exhaustive disjoint is clean" `Quick (exhaustive_clean disjoint_sc "disjoint");
    t "deadlock rediscovered blind" `Quick rediscover_deadlock;
    t "por/cache ablation identity" `Quick ablation_identity;
    t "por reduces multi-component trees" `Quick por_reduces;
    t "jobs invariance" `Quick jobs_identity;
    t "pinned codec round-trip" `Quick pinned_codec;
    t "corpus findings re-verified exhaustively" `Quick corpus_reverify;
    t "fault configs: pinned counts" `Quick explore_under_faults;
  ]
