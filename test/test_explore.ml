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

(* Message i goes to group i mod G from its smallest member at t=0 —
   the workload `amcast_cli explore` builds, and the end-to-end
   benchmark's explore configs. *)
let config ?(crashes = []) ?(faults = Channel_fault.none)
    ?(variant = Algorithm1.Vanilla) topo ~msgs =
  let groups = List.map (Topology.group topo) (Topology.gids topo) in
  let msgs =
    List.init msgs (fun i ->
        let g = i mod List.length groups in
        (Pset.choose (List.nth groups g), g, 0))
  in
  Scenario.make ~crashes ~msgs ~faults ~variant ~max_delay:1
    ~n:(Topology.n topo) groups

let stubborn ~drop ~delay = { Channel_fault.drop; dup = 0; delay; stubborn = true }

(* State, stats and fired flags of [moves] pinned from the initial
   state, which is built the way the explorer builds its root. *)
let pinned sc moves =
  let topo = Scenario.topology sc in
  let fp = Scenario.failure_pattern sc in
  let st =
    Algorithm1.create ~variant:sc.Scenario.variant ~faults:sc.Scenario.faults
      ~fault_seed:sc.Scenario.seed ~topo ~mu:(Scenario.mu sc)
      ~workload:(Scenario.workload sc) ()
  in
  let stats, fired =
    Engine.run_pinned ~fp
      ~moves:
        (Array.of_list
           (List.map (function Explore.Step p -> Some p | Explore.Idle -> None) moves))
      ~step:(Algorithm1.step st) ()
  in
  (st, stats, fired)

(* Replay a pinned move prefix exactly as the explorer does, returning
   the canonical fingerprint rendering of the resulting state. *)
let render_after sc moves =
  let st, _, fired = pinned sc (List.map (fun p -> Explore.Step p) moves) in
  ( Fingerprint.render ~time:(Explore.steady_time sc)
      ~topo:(Scenario.topology sc) ~msgs:(List.length sc.Scenario.msgs) st,
    Array.for_all Fun.id fired )

(* POR soundness at the engine level: stepping two processes of
   different interaction components in either order yields
   fingerprint-identical states, for every such pair of the topology. *)
let commutation () =
  let sc = disjoint_sc in
  let topo = Scenario.topology sc in
  let n = Topology.n topo in
  let comp = Topology.process_components topo in
  let checked = ref 0 in
  for p = 0 to n - 1 do
    for q = p + 1 to n - 1 do
      if comp.(p) <> comp.(q) then begin
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

(* POR actually reduces on multi-component topologies, and never grows
   the tree on connected ones, where persistent sets prune nothing and
   the visited cache must hit as often as without POR. *)
let por_reduces () =
  let nodes ~por =
    (Explore.run ~por ~jobs:2 disjoint_sc).Explore.counters.Explore.nodes
  in
  let with_por = nodes ~por:true and without = nodes ~por:false in
  Alcotest.(check bool)
    (Printf.sprintf "POR shrinks the tree (%d < %d)" with_por without)
    true
    (with_por * 10 < without);
  List.iter
    (fun (name, sc) ->
      let on = Explore.run ~depth:8 sc
      and off = Explore.run ~por:false ~depth:8 sc in
      let nodes r = r.Explore.counters.Explore.nodes in
      Alcotest.(check bool)
        (Printf.sprintf "%s: POR never grows the tree (%d <= %d)" name
           (nodes on) (nodes off))
        true
        (nodes on <= nodes off);
      Alcotest.(check (list string)) (name ^ ": same verdicts")
        (Explore.failing_properties off) (Explore.failing_properties on))
    [
      ("chain-2-K2", config (Topology.chain ~groups:2) ~msgs:2);
      ("ring-3-K2 pairwise", config (Topology.ring ~groups:3) ~msgs:2
         ~variant:Algorithm1.Pairwise);
    ]

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

(* The eight end-to-end explore configs: explore-faults' three, then
   explore-clean's five. *)
let e2e_configs =
  [
    ("chain-2-K1 faults", config (Topology.chain ~groups:2) ~msgs:1
       ~faults:(stubborn ~drop:3000 ~delay:1));
    ("ring-3-K1 faults", config (Topology.ring ~groups:3) ~msgs:1
       ~faults:(stubborn ~drop:3000 ~delay:2));
    ("disjoint-2x2-K2 faults", config (Topology.disjoint ~groups:2 ~size:2)
       ~msgs:2 ~faults:(stubborn ~drop:1000 ~delay:1));
    ("chain-3-K1", config (Topology.chain ~groups:3) ~msgs:1);
    ("ring-3-K1-crash-1@2", config (Topology.ring ~groups:3) ~msgs:1
       ~crashes:[ (1, 2) ]);
    ("disjoint-2x3-K2", config (Topology.disjoint ~groups:2 ~size:3) ~msgs:2);
    ("star-3-K1", config (Topology.star ~satellites:3 ~hub_size:3) ~msgs:1);
    ("figure1-K2", config Topology.figure1 ~msgs:2);
  ]

(* Exhaustive search of the eight end-to-end explore configs at
   default depth: under channel faults POR is off and the enablement
   hint decides which children are derived; without faults POR is on.
   The counts pin how much the search covers — a hint that wrongly
   rules a process out shrinks them without reporting anything, and
   the fingerprint, copy-on-write and safety-by-delta shortcuts must
   leave every count as the full copy, full render and full check
   gave. Replayed steps pin that a child costs at most its one pinned
   action: replaying each fault config child's prefix from the initial
   state executed 9,960, 40,148 and 108,099. A change that alters the
   search on purpose updates them and says why. *)
let explore_under_faults () =
  List.iter2
    (fun (name, sc) (nodes, terminals, distinct, replayed) ->
      let r = Explore.run sc in
      let c = r.Explore.counters in
      Alcotest.(check (list string)) (name ^ ": no violation") []
        (Explore.failing_properties r);
      Alcotest.(check bool) (name ^ ": por on iff fault-free")
        (Channel_fault.is_none sc.Scenario.faults) r.Explore.por;
      Alcotest.(check (list int))
        (name ^ ": nodes, terminals, distinct states, replayed steps")
        [ nodes; terminals; distinct; replayed ]
        [
          c.Explore.nodes;
          c.Explore.terminals;
          c.Explore.distinct_states;
          c.Explore.replayed_steps;
        ])
    e2e_configs
    [
      (1170, 4, 488, 1162);
      (3445, 24, 1584, 3421);
      (9033, 4, 2807, 9005);
      (305, 1, 126, 304);
      (481, 24, 119, 473);
      (609, 1, 252, 987);
      (1145, 6, 494, 1144);
      (11494, 72, 5273, 11493);
    ]

(* The lying-γ triangle: the minimal cyclic topology, one message per
   group, and a γ that outputs no family although none is faulty. The
   explorer finds the delivery cycle at depth 18 and not before; the
   witness replays into the same cycle through the ordinary runner,
   and neither the reductions nor the job count change the report. *)
let lying_gamma_sc =
  Scenario.make ~ablation:Scenario.Lying_gamma ~max_delay:1
    ~msgs:[ (0, 0, 0); (1, 1, 0); (2, 2, 0) ]
    ~n:3
    [ g [ 0; 1 ]; g [ 1; 2 ]; g [ 2; 0 ] ]

let lying_gamma_witness = "0 2 2 0 0 0 0 0 1 1 1 1 1 1 2 2 2 2"

let lying_gamma_ordering () =
  let r = Explore.run ~depth:18 lying_gamma_sc in
  let found =
    List.map
      (fun v ->
        (v.Explore.property, v.Explore.detail,
         Explore.moves_to_string v.Explore.witness))
      r.Explore.violations
  in
  Alcotest.(check (list (triple string string string)))
    "depth 18: the ordering cycle"
    [
      ("ordering", "ordering: ↦ has the cycle m0 ↦ m1 ↦ m2", lying_gamma_witness);
    ]
    found;
  Alcotest.(check (list int)) "depth 18: nodes, distinct states" [ 27405; 12040 ]
    [ r.Explore.counters.Explore.nodes; r.Explore.counters.Explore.distinct_states ];
  let v = List.hd r.Explore.violations in
  (match
     Properties.ordering
       (Scenario.run (Explore.witness_scenario lying_gamma_sc v.Explore.witness))
   with
  | Error e -> Alcotest.(check string) "witness replays" v.Explore.detail e
  | Ok () -> Alcotest.fail "witness replay is ordered");
  let same label r' =
    Alcotest.(check bool) label true
      ({ r' with Explore.por = r.Explore.por; jobs = r.Explore.jobs } = r)
  in
  same "POR off: same report" (Explore.run ~por:false ~depth:18 lying_gamma_sc);
  same "jobs 2: same report" (Explore.run ~jobs:2 ~depth:18 lying_gamma_sc);
  let r17 = Explore.run ~depth:17 lying_gamma_sc in
  Alcotest.(check (list string)) "depth 17: no violation" []
    (Explore.failing_properties r17);
  Alcotest.(check int) "depth 17: nodes" 22109 r17.Explore.counters.Explore.nodes

(* [~claims:true] re-replays each terminal with per-tick snapshots and
   checks Table 2 on it: it finds nothing on a clean and on a
   fault-injected config, and its counters are the claims-free run's
   but for the re-replayed steps (one terminal of 14 moves, and four
   of 80 moves in all). *)
let claims_counters () =
  List.iter
    (fun (name, replayed) ->
      let sc = List.assoc name e2e_configs in
      let r = Explore.run sc and rc = Explore.run ~claims:true sc in
      Alcotest.(check (list string)) (name ^ ": no violation with claims") []
        (Explore.failing_properties rc);
      Alcotest.(check int) (name ^ ": replayed steps") replayed
        rc.Explore.counters.Explore.replayed_steps;
      Alcotest.(check bool) (name ^ ": other counters unchanged") true
        ({
           rc.Explore.counters with
           Explore.replayed_steps = r.Explore.counters.Explore.replayed_steps;
         }
        = r.Explore.counters))
    [ ("chain-3-K1", 304 + 14); ("disjoint-2x2-K2 faults", 9005 + 80) ]

(* ------------------------------------------------------------------ *)
(* Derived children                                                    *)
(* ------------------------------------------------------------------ *)

(* The walk inputs, each with the moves its walks start with: the
   eight end-to-end explore configs, ring-3 under the other two
   variants, a lossy non-stubborn spec (copies get lost for good), a
   six-message config whose logs pass position 9, and the lying-γ
   triangle, whose walks start with its ordering witness and so go on
   from parents that fail ordering. *)
let walk_configs =
  let witness =
    List.map
      (fun p -> Explore.Step (int_of_string p))
      (String.split_on_char ' ' lying_gamma_witness)
  in
  List.map (fun (name, sc) -> (name, sc, [])) e2e_configs
  @ [
      ("ring-3-K2 strict", config (Topology.ring ~groups:3) ~msgs:2
         ~variant:Algorithm1.Strict, []);
      ("ring-3-K2 pairwise", config (Topology.ring ~groups:3) ~msgs:2
         ~variant:Algorithm1.Pairwise, []);
      ("ring-3-K2 lossy", config (Topology.ring ~groups:3) ~msgs:2
         ~faults:{ Channel_fault.drop = 3000; dup = 1000; delay = 2; stubborn = false },
       []);
      ("ring-3-K6", config (Topology.ring ~groups:3) ~msgs:6, []);
      ("lying-γ triangle", lying_gamma_sc, witness);
    ]

(* One seeded random walk: [default_depth] moves, each drawn uniformly
   from [Idle] and [Step p] for every process — crashed and
   hint-disabled ones included, so non-firing moves are walked too. *)
let walk_moves sc ~seed =
  let rng = Rng.make seed in
  let n = sc.Scenario.n in
  List.init (Explore.default_depth sc) (fun _ ->
      let p = Rng.int rng (n + 1) in
      if p = n then Explore.Idle else Explore.Step p)

let walks = 4

(* Every move of every walk: [f] sees the parent's state and stats, the
   prefix ending in the move, and a thunk deriving the child, which it
   calls and returns. The walk goes on from that child. *)
let iter_walks f =
  List.iter
    (fun (name, sc, lead) ->
      let fp = Scenario.failure_pattern sc in
      for seed = 1 to walks do
        let st, stats, _ = pinned sc [] in
        ignore
          (List.fold_left
             (fun (st, stats, prefix) mv ->
               let prefix = prefix @ [ mv ] in
               let st', stats', _ =
                 f ~name ~sc ~prefix st stats (fun () ->
                     Explore.derive ~fp st stats mv)
               in
               (st', stats', prefix))
             (st, stats, []) (lead @ walk_moves sc ~seed))
      done)
    walk_configs

(* Alcotest.check, logged only on a failure: the walks make thousands
   of comparisons. *)
let expect testable label a b =
  if not (Alcotest.equal testable a b) then Alcotest.check testable label a b

let render_raw sc st (stats : Engine.stats) =
  Fingerprint.render ~time:stats.Engine.ticks_used
    ~topo:(Scenario.topology sc) ~msgs:(List.length sc.Scenario.msgs) st

let events st = (Algorithm1.trace st).Trace.events

(* The outcome the explorer checks at a node. *)
let outcome sc st stats =
  {
    Runner.topo = Scenario.topology sc;
    workload = Scenario.workload sc;
    fp = Scenario.failure_pattern sc;
    variant = sc.Scenario.variant;
    trace = Algorithm1.trace st;
    stats;
    snapshots = [];
    final_logs = [];
    consensus_instances = Algorithm1.consensus_instances st;
    consensus_rounds = Algorithm1.consensus_rounds st;
    links = Algorithm1.link_stats st;
  }

(* Each safety property with whether it holds. *)
let safety sc st stats =
  List.filter_map
    (fun (name, v) ->
      if String.equal name "termination" then None else Some (name, Result.is_ok v))
    (Properties.all (outcome sc st stats))

(* A derived child equals the state, stats and fired flag that
   Engine.run_pinned of the prefix plus the move returns; deriving
   leaves the parent as it was, and stepping the parent afterwards
   leaves the child as it was (copy-on-write in both directions).
   Algorithm1.events_since finds no lineage in an equal but separately
   built event list. Explore.safety_unchanged holds exactly when the
   child added only Phase_change events and gave no process its first
   step, and where it lets the explorer skip the child's safety check,
   the child's safety verdicts are its parent's: all Ok under a passing
   parent. *)
let derived_equals_replayed () =
  let checked = ref 0 and fired_moves = ref 0 in
  let skipped = ref 0 and failing_parents = ref 0 in
  iter_walks (fun ~name ~sc ~prefix st stats derive ->
      let parent_render = render_raw sc st stats and parent_events = events st in
      let ((st', stats', fired) as child) = derive () in
      let at what =
        Printf.sprintf "%s, prefix %s: %s" name (Explore.moves_to_string prefix)
          what
      in
      expect Alcotest.string (at "parent render unchanged") parent_render
        (render_raw sc st stats);
      expect Alcotest.bool (at "parent events unchanged") true
        (parent_events = events st);
      let st_r, stats_r, fired_r = pinned sc prefix in
      let child_render = render_raw sc st' stats' and child_events = events st' in
      expect Alcotest.string (at "render") (render_raw sc st_r stats_r)
        child_render;
      expect Alcotest.bool (at "events") true (events st_r = child_events);
      (* The replayed copy's events equal the child's but are no tail of
         them: no lineage, so events_since must not return them all. *)
      (match Algorithm1.events_newest_first st_r with
      | [] -> ()
      | tail ->
          expect Alcotest.bool (at "events_since a replayed copy's events")
            true
            (Option.is_none (Algorithm1.events_since st' ~tail)));
      expect Alcotest.bool (at "stats") true (stats_r = stats');
      expect Alcotest.bool (at "fired") fired_r.(List.length prefix - 1) fired;
      expect Alcotest.(list int) (at "instances, rounds")
        [ Algorithm1.consensus_instances st_r; Algorithm1.consensus_rounds st_r ]
        [ Algorithm1.consensus_instances st'; Algorithm1.consensus_rounds st' ];
      expect Alcotest.bool (at "link stats") true
        (Algorithm1.link_stats st_r = Algorithm1.link_stats st');
      let added =
        List.filteri (fun i _ -> i >= List.length parent_events) child_events
      in
      let unchanged = Explore.safety_unchanged ~parent:(st, stats) (st', stats') in
      expect Alcotest.bool (at "safety_unchanged = its definition")
        (List.for_all (function Trace.Phase_change _ -> true | _ -> false) added
        && not
             (Array.exists2
                (fun s s' -> s = 0 && s' > 0)
                stats.Engine.steps stats'.Engine.steps))
        unchanged;
      if unchanged then begin
        let verdicts = safety sc st stats in
        if not (List.for_all snd verdicts) then incr failing_parents;
        expect
          Alcotest.(list (pair string bool))
          (at "skipped child keeps its parent's safety verdicts") verdicts
          (safety sc st' stats');
        incr skipped
      end;
      (* Drain every process of the parent at the child's tick: each
         write must clone the object it would share with the child. *)
      for p = 0 to sc.Scenario.n - 1 do
        while Algorithm1.step st ~pid:p ~time:stats.Engine.ticks_used do
          ()
        done
      done;
      expect Alcotest.string (at "child render after stepping the parent")
        child_render (render_raw sc st' stats');
      expect Alcotest.bool (at "child events after stepping the parent") true
        (child_events = events st');
      incr checked;
      if fired then incr fired_moves;
      child);
  Alcotest.(check bool)
    (Printf.sprintf "walks fire and idle (%d of %d moves fired)" !fired_moves
       !checked)
    true
    (!fired_moves > 0 && !fired_moves < !checked);
  Alcotest.(check bool)
    (Printf.sprintf
       "the delta rule skips children, failing parents included (%d skipped, \
        %d under a failing parent)"
       !skipped !failing_parents)
    true
    (!skipped > 0 && !failing_parents > 0)

(* The Printf renderer the fingerprints were first defined by, kept as
   the reference: Fingerprint.render must produce the same bytes, so
   the visited cache sees the same keys. *)
let printf_render ~time ~topo ~msgs st =
  let datum_tag b d =
    match d with
    | Algorithm1.Msg m -> Printf.ksprintf (Buffer.add_string b) "m%d" m
    | Algorithm1.Pend (m, h, i) ->
        Printf.ksprintf (Buffer.add_string b) "p%d.%d.%d" m h i
    | Algorithm1.Stab (m, h) ->
        Printf.ksprintf (Buffer.add_string b) "s%d.%d" m h
  in
  let b = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "t%d" time;
  List.iter
    (fun ((g, h) as key) ->
      add "|L%d.%d:" g h;
      List.iter
        (fun (d, pos, locked) ->
          datum_tag b d;
          add "@%d%c;" pos (if locked then '!' else '.'))
        (Algorithm1.log_snapshot st key))
    (Algorithm1.log_keys st);
  List.iter
    (fun g ->
      add "|S%d:%s" g
        (String.concat ","
           (List.map string_of_int (Algorithm1.list_snapshot st g))))
    (Topology.gids topo);
  for m = 0 to msgs - 1 do
    add "|i%d%c" m (if Algorithm1.listed st ~m then 'y' else 'n')
  done;
  List.iter
    (fun ((m, fam), v) ->
      add "|C%d.%s=%d" m (String.concat "." (List.map string_of_int fam)) v)
    (Algorithm1.consensus_decisions st);
  (if not (Channel_fault.is_none (Algorithm1.channel_faults st)) then
     let n = Topology.n topo in
     for p = 0 to n - 1 do
       for m = 0 to msgs - 1 do
         match Algorithm1.visibility st ~pid:p ~m ~time with
         | `Visible -> ()
         | `Pending d -> add "|v%d.%d+%d" p m d
         | `Lost -> add "|v%d.%d x" p m
       done
     done);
  let tr = Algorithm1.trace st in
  for p = 0 to tr.Trace.n - 1 do
    add "|f%d:" p;
    for m = 0 to msgs - 1 do
      add "%d" (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
    done;
    add "|D%d:%s" p
      (String.concat "," (List.map string_of_int (Trace.delivery_order tr p)))
  done;
  Buffer.contents b

(* Fingerprint.render = the Printf reference on every walked state, at
   the raw and at the steady-time cut, and so is the rendering that
   reuses the segments carried down the walk from its parent. The
   walks must reach two-digit times and log positions, and pending and
   lost announcement copies, so every kind of field is rendered with
   more than one digit or marker. *)
let render_matches_printf () =
  let max_time = ref 0 and max_pos = ref 0 in
  let pending = ref 0 and lost = ref 0 in
  let carried = ref None in
  iter_walks (fun ~name ~sc ~prefix:_ parent parent_stats derive ->
      let ((st, stats, _) as child) = derive () in
      let topo = Scenario.topology sc and msgs = List.length sc.Scenario.msgs in
      let segments =
        match !carried with
        | Some (st0, segments) when st0 == parent -> segments
        | _ ->
            snd
              (Fingerprint.render_reusing Fingerprint.none
                 ~time:parent_stats.Engine.ticks_used ~topo ~msgs parent)
      in
      List.iter
        (fun time ->
          let reference = printf_render ~time ~topo ~msgs st in
          let at what = Printf.sprintf "%s at t%d: %s" name time what in
          expect Alcotest.string (at "render") reference
            (Fingerprint.render ~time ~topo ~msgs st);
          let text, segments =
            Fingerprint.render_reusing segments ~time ~topo ~msgs st
          in
          expect Alcotest.string (at "render from the parent's segments")
            reference text;
          carried := Some (st, segments))
        [ stats.Engine.ticks_used; min stats.Engine.ticks_used (Explore.steady_time sc) ];
      max_time := max !max_time stats.Engine.ticks_used;
      List.iter
        (fun key ->
          List.iter
            (fun (_, pos, _) -> max_pos := max !max_pos pos)
            (Algorithm1.log_snapshot st key))
        (Algorithm1.log_keys st);
      for p = 0 to Topology.n topo - 1 do
        for m = 0 to msgs - 1 do
          match Algorithm1.visibility st ~pid:p ~m ~time:stats.Engine.ticks_used with
          | `Visible -> ()
          | `Pending _ -> incr pending
          | `Lost -> incr lost
        done
      done;
      child);
  Alcotest.(check bool) (Printf.sprintf "two-digit times (max %d)" !max_time) true
    (!max_time >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "two-digit log positions (max %d)" !max_pos)
    true (!max_pos >= 10);
  Alcotest.(check bool)
    (Printf.sprintf "pending (%d) and lost (%d) copies rendered" !pending !lost)
    true
    (!pending > 0 && !lost > 0)

(* The steady-time cut is sound only if no detector output changes
   from t_steady on, so that idling past it changes nothing. Generated
   crash scenarios under every ablation, with the generator's delay
   bounds (1–8). *)
let steady_time_settles_mu () =
  let cfg =
    {
      Scenario_gen.default with
      Scenario_gen.min_crashes = 1;
      cyclic_only = true;
      starvation = false;
    }
  in
  for i = 0 to 59 do
    let s = Fuzz_driver.scenario_of_trial ~seed:7 cfg i in
    List.iter
      (fun ablation ->
        let s = { s with Scenario.ablation } in
        if
          not
            (Test_detectors.constant_from (Scenario.mu s)
               ~from:(Explore.steady_time s) ~span:40)
        then
          Alcotest.failf "trial %d: μ changes after t_steady = %d" i
            (Explore.steady_time s))
      [ Scenario.Full; Scenario.Lying_gamma; Scenario.Always_gamma ]
  done

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
    t "lying γ: ordering cycle at depth 18" `Quick lying_gamma_ordering;
    t "claims: clean, counters = claims-free" `Quick claims_counters;
    t "derived children = replayed prefixes" `Quick derived_equals_replayed;
    t "render = Printf reference" `Quick render_matches_printf;
    t "steady time: μ constant from t_steady on" `Quick steady_time_settles_mu;
  ]
