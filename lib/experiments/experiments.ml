let fpf = Format.fprintf

let with_buf f =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let verdict fmt = function
  | Ok () -> fpf fmt "ok"
  | Error e -> fpf fmt "VIOLATED — %s" e

let props fmt o =
  List.iter
    (fun (name, v) -> fpf fmt "    %-18s %a@," name verdict v)
    (Properties.all o)

(* ------------------------------------------------------------------ *)
(* Table 1 — the solvability matrix                                    *)
(* ------------------------------------------------------------------ *)

let row_nongenuine fmt =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 6) ] in
  let workload = Workload.random (Rng.make 3) ~msgs:6 ~max_at:8 topo in
  let o = Broadcast.run ~topo ~fp ~workload () in
  fpf fmt "@,[T1.1] non-genuine / global order / Ω ∧ Σ (broadcast-based):@,";
  fpf fmt "    %-18s %a@," "integrity" verdict (Properties.integrity o);
  fpf fmt "    %-18s %a@," "termination" verdict (Properties.termination o);
  fpf fmt "    %-18s %a@," "ordering" verdict (Properties.ordering o);
  fpf fmt "    %-18s %a@," "minimality" verdict (Properties.minimality o);
  fpf fmt "    (every process takes steps for every message: the scaling defect of B1)@,"

let row_u2 fmt =
  (* Weakening γ below accuracy is the computational content of the
     [26] impossibility: ordering breaks. *)
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let rec search seed =
    if seed > 600 then None
    else
      let rng = Rng.make seed in
      let fp = Failure_pattern.never ~n in
      (* 6 messages keep the witness population dense under the
         unbiased Rng.int streams (cf. test_algorithm1). *)
      let workload = Workload.random rng ~msgs:6 ~max_at:3 topo in
      let mu = Mu.gamma_lying (Mu.make ~seed topo fp) in
      let o = Runner.run ~seed ~mu ~topo ~fp ~workload () in
      match Properties.ordering o with
      | Error e -> Some (seed, e)
      | Ok () -> search (seed + 1)
  in
  fpf fmt "@,[T1.2] genuine with too-weak detection (∉ U₂ [26]): γ replaced by a lying detector@,";
  (match search 1 with
  | Some (seed, e) ->
      fpf fmt "    witness (3-group ring, schedule seed %d): %s@," seed e
  | None -> fpf fmt "    no witness found (unexpected)@,");
  (* And a γ without completeness starves progress when a family dies. *)
  let fp = Failure_pattern.of_crashes ~n [ (4, 2) ] in
  let workload = Workload.random (Rng.make 5) ~msgs:4 ~max_at:3 topo in
  let mu = Mu.gamma_always (Mu.make ~seed:5 topo fp) in
  let o = Runner.run ~seed:5 ~mu ~topo ~fp ~workload () in
  fpf fmt "    γ without completeness, faulty family: %-12s%a@," "termination "
    verdict (Properties.termination o)

let row_perfect fmt =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 6) ] in
  let workload = Workload.random (Rng.make 7) ~msgs:6 ~max_at:8 topo in
  let perfect = Perfect.make ~seed:9 fp in
  let mu = Derive.mu_of_perfect topo perfect in
  let o = Runner.run ~seed:7 ~mu ~topo ~fp ~workload () in
  fpf fmt "@,[T1.3] genuine / ≤ P (Schiper–Pedone regime [36]): every μ component derived from P@,";
  props fmt o

let row_mu fmt =
  fpf fmt "@,[T1.4] genuine / global order / μ (Algorithm 1, §4–§5):@,";
  let scenarios =
    [
      ("figure 1, no crash", Topology.figure1, Failure_pattern.never ~n:5);
      ( "figure 1, p2 crashes (families f, f'' faulty)",
        Topology.figure1,
        Failure_pattern.of_crashes ~n:5 [ (1, 5) ] );
      ( "3-group ring, one intersection crashes",
        Topology.ring ~groups:3,
        Failure_pattern.of_crashes ~n:6 [ (2, 8) ] );
      ( "4-group chain (F = ∅), two crashes",
        Topology.chain ~groups:4,
        Failure_pattern.of_crashes ~n:9 [ (2, 4); (5, 10) ] );
    ]
  in
  List.iter
    (fun (name, topo, fp) ->
      let workload =
        Workload.random (Rng.make 11) ~msgs:6 ~max_at:8 topo
      in
      let o = Runner.run ~seed:11 ~topo ~fp ~workload () in
      fpf fmt "  %s:@," name;
      props fmt o)
    scenarios

let strict_scenario variant =
  (* chain(2): g0 = {0,1,2}, g1 = {2,3,4}. The intersection process p2
     sleeps until t = 32; m1 → g0 is delivered meanwhile; m0 → g1 is
     invoked at t = 30, and p2 handles it first when it wakes up. *)
  let topo = Topology.chain ~groups:2 in
  let n = Topology.n topo in
  let fp = Failure_pattern.never ~n in
  let workload = Workload.make [ (3, 1, 30); (0, 0, 0) ] topo in
  let scheduled t = if t < 32 then Pset.remove 2 (Pset.range n) else Pset.range n in
  Runner.run ~variant ~seed:1 ~topo ~fp ~workload ~scheduled ()

let row_strict fmt =
  fpf fmt "@,[T1.5] strict (real-time) order / μ ∧ 1^{g∩h} (§6.1):@,";
  let o = strict_scenario Algorithm1.Vanilla in
  fpf fmt "    vanilla Algorithm 1 on the delayed-intersection schedule:@,";
  fpf fmt "      strict-ordering   %a@," verdict (Properties.strict_ordering o);
  let o = strict_scenario Algorithm1.Strict in
  fpf fmt "    strict variant on the same schedule:@,";
  fpf fmt "      strict-ordering   %a@," verdict (Properties.strict_ordering o);
  fpf fmt "      termination       %a@," verdict (Properties.termination o)

let row_pairwise fmt =
  fpf fmt "@,[T1.6] pairwise order / (∧ Σ_{g∩h}) ∧ (∧ Ω_g) — no γ (§7):@,";
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let rec search seed cycle =
    if seed > 600 || cycle <> None then cycle
    else
      let rng = Rng.make seed in
      let fp = Failure_pattern.never ~n in
      (* 6 messages, as in T1.2: keeps global-cycle witnesses inside
         the 600-schedule budget under the unbiased Rng.int streams. *)
      let workload = Workload.random rng ~msgs:6 ~max_at:3 topo in
      let o = Runner.run ~variant:Algorithm1.Pairwise ~seed ~topo ~fp ~workload () in
      (match Properties.pairwise_ordering o with
      | Error e -> fpf fmt "    UNEXPECTED pairwise violation: %s@," e
      | Ok () -> ());
      match Properties.ordering o with
      | Error e -> search (seed + 1) (Some (seed, e))
      | Ok () -> search (seed + 1) None
  in
  (match search 1 None with
  | Some (seed, e) ->
      fpf fmt
        "    pairwise ordering holds on every schedule; global order does not:@,";
      fpf fmt "    global-cycle witness (seed %d): %s@," seed e
  | None -> fpf fmt "    pairwise holds; no global cycle found in 600 schedules@,")

let row_strong fmt =
  fpf fmt "@,[T1.7] strongly genuine / μ ∧ (∧ Ω_{g∩h}) when F = ∅ (§6.2):@,";
  (* F = ∅: a message makes progress in a run fair only for its own
     destination group. *)
  let topo = Topology.chain ~groups:3 in
  let n = Topology.n topo in
  let fp = Failure_pattern.never ~n in
  let workload = Workload.make [ (2, 1, 0) ] topo in
  let dst = Topology.group topo 1 in
  let o =
    Runner.run ~seed:3 ~topo ~fp ~workload ~scheduled:(fun _ -> dst) ()
  in
  let delivered =
    Pset.for_all (fun p -> Trace.delivered_at o.Runner.trace ~p ~m:0) dst
  in
  fpf fmt "    chain (F = ∅), scheduler fair only for dst(m): delivered at all of dst = %b@,"
    delivered;
  (* With a cyclic family, isolating dst(m) blocks: a message to the
     neighbouring group entangles the shared log, and its stabilisation
     needs steps outside dst(m) — the waiting chain of §6.2. *)
  let topo = Topology.ring ~groups:3 in
  let n = Topology.n topo in
  let fp = Failure_pattern.never ~n in
  (* m0 → g1 from p2 (a member of g0∩g1, so it is scheduled), then
     m1 → g0; only g0 = {0,1,2} ever takes steps. *)
  let workload = Workload.make [ (2, 1, 0); (0, 0, 10) ] topo in
  let dst = Topology.group topo 0 in
  let o =
    Runner.run ~seed:3 ~horizon:400 ~topo ~fp ~workload
      ~scheduled:(fun _ -> dst) ()
  in
  let delivered =
    Pset.for_all (fun p -> Trace.delivered_at o.Runner.trace ~p ~m:1) dst
  in
  fpf fmt "    ring (F ≠ ∅), same isolation for dst(m): delivered at all of dst = %b@,      (the intersection members stay blocked behind the neighbour group's@,      undeliverable message — group parallelism fails on cyclic families)@,"
    delivered

let table1 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== Table 1: the weakest failure detector per variant ==@,";
      row_nongenuine fmt;
      row_u2 fmt;
      row_perfect fmt;
      row_mu fmt;
      row_strict fmt;
      row_pairwise fmt;
      row_strong fmt;
      fpf fmt "@]")

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  with_buf (fun fmt ->
      let topo = Topology.figure1 in
      fpf fmt "@[<v>== Figure 1: the running example ==@,";
      fpf fmt "%a@," Topology.pp topo;
      let families = Topology.cyclic_families topo in
      fpf fmt "cyclic families F:@,";
      List.iter
        (fun fam ->
          fpf fmt "  %a, cpaths:" Topology.pp_family fam;
          List.iter (fun pi -> fpf fmt " [%a]" Topology.pp_cpath pi)
            (Topology.cpaths topo fam);
          fpf fmt "@,")
        families;
      List.iter
        (fun p ->
          fpf fmt "  F(p%d) = {%d families}@," p
            (List.length (Topology.families_of_process topo families p)))
        [ 0; 4 ];
      let crashed = Pset.singleton 1 in
      fpf fmt "after p1 (paper's p2) crashes:@,";
      List.iter
        (fun fam ->
          fpf fmt "  %a faulty = %b@," Topology.pp_family fam
            (Topology.family_faulty topo fam ~crashed))
        families;
      let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
      let gamma = Gamma.make ~max_delay:3 ~seed:1 topo ~families fp in
      fpf fmt "γ output at p0 over time:@,";
      List.iter
        (fun t ->
          fpf fmt "  t=%-3d {" t;
          List.iter (fun f -> fpf fmt " %a" Topology.pp_family f) (Gamma.query gamma 0 t);
          fpf fmt " }  γ(g0) = {";
          List.iter (fun g -> fpf fmt " g%d" g) (Gamma.groups gamma 0 t 0);
          fpf fmt " }@,")
        [ 0; 4; 20 ];
      fpf fmt "@]")

let figure2 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== Figure 2 / Lemma 30: H(p,g) agreement within a family ==@,";
      let check topo name =
        let families = Topology.cyclic_families topo in
        let agree = ref 0 and total = ref 0 in
        List.iter
          (fun fam ->
            List.iter
              (fun g ->
                let sets =
                  Pset.fold
                    (fun p acc ->
                      if
                        List.exists
                          (fun g' ->
                            g' <> g
                            && List.mem g' fam
                            && Pset.mem p (Topology.inter topo g g'))
                          fam
                      then Topology.h_set topo families p g :: acc
                      else acc)
                    (Topology.group topo g) []
                in
                match sets with
                | [] | [ _ ] -> ()
                | first :: rest ->
                    incr total;
                    if List.for_all (( = ) first) rest then incr agree)
              fam)
          families;
        fpf fmt "  %-22s groups-in-family checked: %d, H(p,g) agreeing: %d@," name
          !total !agree
      in
      check Topology.figure1 "figure 1";
      check (Topology.ring ~groups:4) "4-group ring";
      check
        (Topology.random (Rng.make 23) ~n:8 ~groups:5 ~max_group_size:4)
        "random (n=8, 5 groups)";
      fpf fmt "@]")

let figure3 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== Figure 3 / Theorem 50: emulating γ from the algorithm ==@,";
      let topo = Topology.figure1 in
      let families = Topology.cyclic_families topo in
      let horizon = 600 in
      let scenario name fp =
        let ge = Gamma_extract.create ~topo ~fp () in
        let history, _ = Gamma_extract.run ge ~horizon in
        fpf fmt "  %s:@," name;
        fpf fmt "    output at p0, t=%d: {" horizon;
        List.iter (fun f -> fpf fmt " %a" Topology.pp_family f) (history 0 horizon);
        fpf fmt " }@,";
        fpf fmt "    axioms: %a@," verdict
          (Axioms.gamma topo ~families ~horizon ~tail:20 fp history)
      in
      scenario "no crash (accuracy: every family kept)" (Failure_pattern.never ~n:5);
      scenario "p1 crashes (completeness: f and f'' silenced, f' kept)"
        (Failure_pattern.of_crashes ~n:5 [ (1, 5) ]);
      fpf fmt "@]")

let figure45 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== Figures 4 & 5 / Appendix B: extracting Ω_{g∩h} ==@,";
      let topo =
        Topology.create ~n:4 [ Pset.of_list [ 0; 1; 2 ]; Pset.of_list [ 1; 2; 3 ] ]
      in
      let scenario name fp =
        let v = Cht_extract.extract ~topo ~fp ~g:0 ~h:1 () in
        let kind =
          match v with
          | Cht_extract.Univalent_critical { index; _ } ->
              Printf.sprintf "univalent-critical pair at I_%d/I_%d (Fig. 4)" index (index + 1)
          | Cht_extract.Fork _ -> "fork gadget (Fig. 5a)"
          | Cht_extract.Hook _ -> "hook gadget (Fig. 5b)"
          | Cht_extract.Decider _ -> "decision point (degenerate hook, Fig. 5b)"
          | Cht_extract.Fallback _ -> "fallback"
        in
        fpf fmt "  %-28s leader p%d via %s@," name (Cht_extract.leader_of v) kind
      in
      scenario "no crash:" (Failure_pattern.never ~n:4);
      scenario "p2 crashes:" (Failure_pattern.of_crashes ~n:4 [ (2, 3) ]);
      scenario "p1 crashes:" (Failure_pattern.of_crashes ~n:4 [ (1, 3) ]);
      fpf fmt "@]")

let table2 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== Table 2: base invariants of Algorithm 1 (claims 2–15) ==@,";
      let scenarios =
        [
          ("figure 1, no crash", Topology.figure1, Failure_pattern.never ~n:5, 13);
          ( "figure 1, p2 crashes",
            Topology.figure1,
            Failure_pattern.of_crashes ~n:5 [ (1, 5) ],
            17 );
          ( "ring, crash",
            Topology.ring ~groups:3,
            Failure_pattern.of_crashes ~n:6 [ (3, 6) ],
            19 );
        ]
      in
      List.iter
        (fun (name, topo, fp, seed) ->
          let workload = Workload.random (Rng.make seed) ~msgs:5 ~max_at:6 topo in
          let o =
            Runner.run ~seed ~record_snapshots:true ~topo ~fp ~workload ()
          in
          let results = Claims.all o in
          let failed = List.filter (fun (_, v) -> v <> Ok ()) results in
          fpf fmt "  %-24s %d/%d claims hold" name
            (List.length results - List.length failed)
            (List.length results);
          List.iter (fun (n, v) -> fpf fmt " [%s %a]" n verdict v) failed;
          fpf fmt "@,")
        scenarios;
      fpf fmt "@]")

(* ------------------------------------------------------------------ *)
(* Benchmark-shaped experiments                                        *)
(* ------------------------------------------------------------------ *)

let scaling () =
  with_buf (fun fmt ->
      fpf fmt
        "@[<v>== B1: genuine vs non-genuine scaling ([33,37]) ==@,\
         disjoint groups of 3, one message per group; steps per process@,\
         %8s %14s %14s %14s@," "groups" "genuine avg" "broadcast avg"
        "ratio";
      List.iter
        (fun k ->
          let topo = Topology.disjoint ~groups:k ~size:3 in
          let n = Topology.n topo in
          let fp = Failure_pattern.never ~n in
          let workload = Workload.one_per_group topo in
          let avg stats =
            float_of_int (Array.fold_left ( + ) 0 stats.Engine.steps)
            /. float_of_int n
          in
          let g = Runner.run ~seed:1 ~topo ~fp ~workload () in
          let b = Broadcast.run ~seed:1 ~topo ~fp ~workload () in
          let ga = avg g.Runner.stats and ba = avg b.Runner.stats in
          fpf fmt "%8d %14.1f %14.1f %14.2f@," k ga ba (ba /. ga))
        [ 1; 2; 4; 8; 16; 32 ];
      fpf fmt
        "(the genuine per-process cost is flat; the broadcast-based cost grows with the number of groups)@,@]")

let convoy () =
  with_buf (fun fmt ->
      fpf fmt
        "@[<v>== B2: the convoy effect ([1], §6.2) ==@,\
         one concurrent message per group; makespan = tick of the last delivery@,\
         %8s %10s %10s %10s@," "groups" "ring" "chain" "disjoint";
      let makespan topo =
        let fp = Failure_pattern.never ~n:(Topology.n topo) in
        let workload = Workload.one_per_group topo in
        let o = Runner.run ~seed:1 ~topo ~fp ~workload () in
        List.fold_left
          (fun acc (_, _, time, _) -> max acc time)
          0
          (Trace.deliveries o.Runner.trace)
      in
      List.iter
        (fun k ->
          let ring = makespan (Topology.ring ~groups:k) in
          let chain = makespan (Topology.chain ~groups:k) in
          let disjoint = makespan (Topology.disjoint ~groups:k ~size:3) in
          fpf fmt "%8d %10d %10d %10d@," k ring chain disjoint)
        [ 3; 4; 6; 8; 12; 16 ];
      fpf fmt
        "(coordination hierarchy: the ring is one big cyclic family and pays the@,\
        \ cycle-resolution + stabilisation cascade, the acyclic chain pays only@,\
        \ per-log coordination, and disjoint groups are embarrassingly parallel;@,\
        \ the blocking form of the convoy effect is exhibited in row T1.7)@,@]")

let prop47 () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== B3 / Prop 47: the contention-free fast log ==@,";
      let scope = Pset.of_list [ 1; 2 ] in
      let group = Pset.of_list [ 0; 1; 2; 3 ] in
      let n = 5 in
      let fp = Failure_pattern.never ~n in
      let sigma_i = Sigma.make ~restrict:scope fp in
      let sigma_g = Sigma.make ~restrict:group fp in
      let omega_g = Omega.make ~restrict:group ~stabilization:10 ~seed:3 fp in
      let run ops =
        let rl =
          Replog.create ?faults:None ?seed:None ~scope ~group
            ~sigma_inter:(Sigma.query sigma_i)
            ~sigma_group:(Sigma.query sigma_g)
            ~omega_group:(Omega.query omega_g)
        in
        List.iter (fun (p, op) -> Replog.append rl ~pid:p ~op) ops;
        let stats =
          Engine.run ~fp ~horizon:4000 ~quiesce_after:30
            ~step:(fun ~pid ~time -> Replog.step rl ~pid ~time)
            ()
        in
        (rl, stats)
      in
      let report name (rl, stats) =
        let outside =
          Pset.fold
            (fun p acc -> acc + stats.Engine.steps.(p))
            (Pset.diff group scope) 0
        in
        fpf fmt
          "  %-34s fast slots %d, slow slots %d, steps outside g∩h: %d, messages %d@,"
          name (Replog.fast_slots rl) (Replog.slow_slots rl) outside
          (Replog.messages_sent rl)
      in
      report "identical sequences (fast path):"
        (run [ (1, 10); (1, 11); (2, 10); (2, 11) ]);
      report "conflicting appends (slow path):" (run [ (1, 20); (2, 21) ]);
      fpf fmt "@]")

let faults () =
  with_buf (fun fmt ->
      fpf fmt
        "@[<v>== B4: claims under message loss (stubborn links restore them) ==@,\
         figure 1, 4 messages, no crash; drop rate in basis points of %d@,\
         %6s %9s %10s %6s %6s %10s  %-9s %s@," Channel_fault.den "drop"
        "link" "retrans" "lost" "deliv" "safety" "term." "";
      let topo = Topology.figure1 in
      let n = Topology.n topo in
      let fp = Failure_pattern.never ~n in
      let workload = Workload.random (Rng.make 11) ~msgs:4 ~max_at:6 topo in
      let row ~drop ~stubborn =
        let faults = { Channel_fault.drop; dup = 0; delay = 2; stubborn } in
        let faults = if drop = 0 then Channel_fault.none else faults in
        let o = Runner.run ~seed:11 ~faults ~topo ~fp ~workload () in
        let checks = Properties.all o in
        let safety_ok =
          List.for_all
            (fun (name, v) -> name = "termination" || Result.is_ok v)
            checks
        in
        let term =
          match List.assoc_opt "termination" checks with
          | Some (Ok ()) -> "ok"
          | Some (Error _) -> "starved"
          | None -> "-"
        in
        let ls = o.Runner.links in
        fpf fmt "%6d %9s %10d %6d %6d %10s  %-9s%s@," drop
          (if Channel_fault.is_none faults then "reliable"
           else if stubborn then "stubborn"
           else "fair-loss")
          ls.Channel_fault.retransmissions ls.Channel_fault.lost
          (List.length (Trace.deliveries o.Runner.trace))
          (if safety_ok then "ok" else "VIOLATED") term
          (if Channel_fault.lossy faults && term = "starved" then
             "  (expected: loss forfeits termination)"
           else "")
      in
      row ~drop:0 ~stubborn:false;
      List.iter
        (fun drop ->
          row ~drop ~stubborn:false;
          row ~drop ~stubborn:true)
        [ 1_000; 2_500; 5_000 ];
      fpf fmt
        "(safety — integrity, minimality, ordering, group-sequentiality — holds@,\
        \ at every drop rate; fair loss can only starve termination, and the@,\
        \ stubborn retransmission layer restores it at a bounded resend cost)@,@]")

let necessity () =
  with_buf (fun fmt ->
      fpf fmt "@[<v>== §5: the necessity constructions, against the axioms ==@,";
      let topo = Topology.figure1 in
      let families = Topology.cyclic_families topo in
      (* Algorithm 2 *)
      let fp = Failure_pattern.of_crashes ~n:5 [ (2, 10) ] in
      let se = Sigma_extract.create ~topo ~fp ~groups:[ 2; 3 ] () in
      let history, _ = Sigma_extract.run se ~horizon:400 in
      fpf fmt "  Algorithm 2 (Σ_{g3∩g4} from A, p3 crashes): %a@," verdict
        (Axioms.sigma ~scope:(Sigma_extract.scope se) ~horizon:400 fp history);
      (* Algorithm 3 *)
      let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
      let ge = Gamma_extract.create ~topo ~fp () in
      let history, _ = Gamma_extract.run ge ~horizon:600 in
      fpf fmt "  Algorithm 3 (γ from A, p2 crashes):         %a@," verdict
        (Axioms.gamma topo ~families ~horizon:600 ~tail:20 fp history);
      (* Algorithm 4 *)
      let topo2 =
        Topology.create ~n:4 [ Pset.of_list [ 0; 1; 2 ]; Pset.of_list [ 1; 2; 3 ] ]
      in
      let fp = Failure_pattern.of_crashes ~n:4 [ (1, 5); (2, 5) ] in
      let ie = Indicator_extract.create ~topo:topo2 ~fp ~g:0 ~h:1 () in
      let history, _ = Indicator_extract.run ie ~horizon:300 in
      fpf fmt "  Algorithm 4 (1^{g∩h} from strict A):        %a@," verdict
        (Axioms.indicator ~scope:(Pset.range 4) ~target:(Pset.of_list [ 1; 2 ])
           ~horizon:300 ~tail:10 fp history);
      fpf fmt "@]")

let sections =
  [
    ("table1", table1);
    ("figure1", figure1);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure45", figure45);
    ("table2", table2);
    ("scaling", scaling);
    ("convoy", convoy);
    ("prop47", prop47);
    ("faults", faults);
    ("necessity", necessity);
  ]

let all ?(jobs = 1) () =
  (* Each section is a pure closure rendering into its own buffer, so
     they can be evaluated concurrently; Domain_pool.map returns them
     in index order, which keeps the printed report canonical. *)
  let n = List.length sections in
  Domain_pool.map ~jobs n (fun i -> snd (List.nth sections i) ())
  |> Array.to_list |> String.concat "\n"
