let t = Alcotest.test_case

let horizon = 60
let tail = 10

let check = function Ok () -> () | Error e -> Alcotest.fail e

let gen_fp n =
  QCheck.map
    (fun seed -> (seed, Failure_pattern.random (Rng.make seed) ~n ~max_faulty:(n - 1) ~horizon:20))
    QCheck.(int_range 0 100_000)
  |> QCheck.set_print (fun (seed, fp) ->
         Format.asprintf "seed %d: %a" seed Failure_pattern.pp fp)

(* Whether every component of [mu], at every process and group pair,
   answers at each tick of [from .. from + span] what it answers at
   [from]: the claim a settle tick makes. *)
let constant_from (mu : Mu.t) ~from ~span =
  let gids = Topology.gids mu.Mu.topo in
  let same_at t p =
    mu.Mu.gamma p t = mu.Mu.gamma p from
    && List.for_all
         (fun g ->
           mu.Mu.omega g p t = mu.Mu.omega g p from
           && mu.Mu.gamma_groups p t g = mu.Mu.gamma_groups p from g
           && List.for_all
                (fun h ->
                  Option.equal Pset.equal (mu.Mu.sigma g h p t)
                    (mu.Mu.sigma g h p from)
                  && mu.Mu.omega_inter g h p t = mu.Mu.omega_inter g h p from
                  && mu.Mu.indicator g h p t = mu.Mu.indicator g h p from)
                gids)
         gids
  in
  List.for_all
    (fun t -> List.for_all (same_at t) (List.init (Topology.n mu.Mu.topo) Fun.id))
    (List.init span (fun d -> from + d + 1))

let failure_pattern_unit () =
  let fp = Failure_pattern.of_crashes ~n:4 [ (1, 5); (3, 2) ] in
  Alcotest.(check bool) "p1 alive at 4" false (Failure_pattern.is_crashed_at fp 1 4);
  Alcotest.(check bool) "p1 crashed at 5" true (Failure_pattern.is_crashed_at fp 1 5);
  Alcotest.(check bool) "faulty set" true
    (Pset.equal (Failure_pattern.faulty fp) (Pset.of_list [ 1; 3 ]));
  Alcotest.(check bool) "correct set" true
    (Pset.equal (Failure_pattern.correct fp) (Pset.of_list [ 0; 2 ]));
  Alcotest.(check (option int)) "set fault time"
    (Some 5)
    (Failure_pattern.set_faulty_at fp (Pset.of_list [ 1; 3 ]) 0);
  Alcotest.(check (option int)) "alive member blocks"
    None
    (Failure_pattern.set_faulty_at fp (Pset.of_list [ 0; 1 ]) 0);
  (* duplicate crash keeps the earliest *)
  let fp = Failure_pattern.of_crashes ~n:2 [ (0, 9); (0, 4) ] in
  Alcotest.(check (option int)) "earliest crash" (Some 4) (Failure_pattern.crash_time fp 0);
  (* crash extension is monotone *)
  let fp' = Failure_pattern.crash fp 1 7 in
  Alcotest.(check (option int)) "extended" (Some 7) (Failure_pattern.crash_time fp' 1)

let family_fault_time () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 12) ] in
  Alcotest.(check (option int)) "f faulty at p1's crash" (Some 12)
    (Failure_pattern.family_fault_time fp topo [ 0; 1; 2 ]);
  Alcotest.(check (option int)) "f' never faulty" None
    (Failure_pattern.family_fault_time fp topo [ 0; 2; 3 ])

let sigma_axioms =
  QCheck.Test.make ~name:"Σ axioms on random patterns" ~count:60 (gen_fp 5)
    (fun (seed, fp) ->
      let scope = Pset.of_list [ 0; 2; 3 ] in
      let d = Sigma.make ~restrict:scope fp in
      ignore seed;
      Axioms.sigma ~scope ~horizon fp (Sigma.query d) = Ok ())

let omega_axioms =
  QCheck.Test.make ~name:"Ω axioms on random patterns" ~count:60 (gen_fp 5)
    (fun (seed, fp) ->
      let scope = Pset.of_list [ 1; 2; 4 ] in
      let d = Omega.make ~restrict:scope ~stabilization:25 ~seed fp in
      Axioms.omega ~scope ~horizon ~tail fp (Omega.query d) = Ok ())

let gamma_axioms =
  QCheck.Test.make ~name:"γ axioms on random patterns" ~count:40 (gen_fp 5)
    (fun (seed, fp) ->
      let topo = Topology.figure1 in
      let families = Topology.cyclic_families topo in
      let d = Gamma.make ~seed topo ~families fp in
      Axioms.gamma topo ~families ~horizon ~tail fp (Gamma.query d) = Ok ())

let indicator_axioms =
  QCheck.Test.make ~name:"1^P axioms on random patterns" ~count:60 (gen_fp 5)
    (fun (seed, fp) ->
      let target = Pset.of_list [ 1; 2 ] in
      let scope = Pset.of_list [ 0; 1; 2; 3 ] in
      let d = Indicator.make ~seed ~scope ~target fp in
      Axioms.indicator ~scope ~target ~horizon ~tail fp (Indicator.query d) = Ok ())

let perfect_axioms =
  QCheck.Test.make ~name:"P axioms on random patterns" ~count:60 (gen_fp 5)
    (fun (seed, fp) ->
      let d = Perfect.make ~seed fp in
      Axioms.perfect ~horizon ~tail fp (Perfect.query d) = Ok ())

let restriction () =
  let fp = Failure_pattern.never ~n:5 in
  let d = Sigma.make ~restrict:(Pset.of_list [ 1; 2 ]) fp in
  Alcotest.(check bool) "⊥ outside" true (Sigma.query d 0 0 = None);
  Alcotest.(check bool) "value inside" true (Sigma.query d 1 0 <> None);
  let o = Omega.make ~restrict:(Pset.of_list [ 3 ]) ~seed:1 fp in
  Alcotest.(check (option int)) "Ω_{p3} trivial" (Some 3) (Omega.query o 3 0)

let mu_bundle () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 10) ] in
  let mu = Mu.make ~seed:3 topo fp in
  (* Σ_{g0∩g1} = Σ_{p1} — ⊥ outside, {p1} inside before the crash. *)
  Alcotest.(check bool) "sigma outside" true (mu.Mu.sigma 0 1 0 0 = None);
  Alcotest.(check bool) "sigma inside" true
    (mu.Mu.sigma 0 1 1 0 = Some (Pset.singleton 1));
  (* Ω_g0 stabilises on the correct member p0. *)
  Alcotest.(check (option int)) "omega g0" (Some 0) (mu.Mu.omega 0 0 50);
  (* γ eventually silences the faulty families. *)
  Alcotest.(check (list (list int))) "gamma tail" [ [ 0; 2; 3 ] ] (mu.Mu.gamma 0 50);
  Alcotest.(check (list int)) "gamma groups" [ 2; 3 ] (mu.Mu.gamma_groups 0 50 0);
  (* indicator for the dead intersection g0∩g1 = {p1} *)
  Alcotest.(check (option bool)) "indicator fires" (Some true) (mu.Mu.indicator 0 1 0 50);
  Alcotest.(check (option bool)) "indicator accurate" (Some false) (mu.Mu.indicator 0 2 0 50);
  (* non-intersecting pairs have no components *)
  Alcotest.(check bool) "no sigma for disjoint pair" true (mu.Mu.sigma 1 3 1 0 = None)

let ablations () =
  let topo = Topology.figure1 in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 10) ] in
  let mu = Mu.make ~seed:3 topo fp in
  let lying = Mu.gamma_lying mu in
  Alcotest.(check (list (list int))) "lying γ empty" [] (lying.Mu.gamma 0 0);
  Alcotest.(check (list int)) "lying γ(g)" [] (lying.Mu.gamma_groups 0 0 0);
  let always = Mu.gamma_always mu in
  Alcotest.(check int) "always γ keeps all" 3 (List.length (always.Mu.gamma 0 500))

let derive_from_perfect =
  QCheck.Test.make ~name:"μ from P satisfies the axioms" ~count:25 (gen_fp 5)
    (fun (seed, fp) ->
      let topo = Topology.figure1 in
      let families = Topology.cyclic_families topo in
      let perfect = Perfect.make ~seed fp in
      let mu = Derive.mu_of_perfect topo perfect in
      let sigma_ok =
        List.for_all
          (fun (g, h) ->
            Axioms.sigma ~scope:(Topology.inter topo g h) ~horizon fp
              (fun p t -> mu.Mu.sigma g h p t)
            = Ok ())
          (Topology.intersecting_pairs topo)
      in
      let omega_ok =
        List.for_all
          (fun g ->
            Axioms.omega ~scope:(Topology.group topo g) ~horizon ~tail fp
              (fun p t -> mu.Mu.omega g p t)
            = Ok ())
          (Topology.gids topo)
      in
      let gamma_ok =
        Axioms.gamma topo ~families ~horizon ~tail fp mu.Mu.gamma = Ok ()
      in
      sigma_ok && omega_ok && gamma_ok
      && constant_from mu ~from:mu.Mu.settle ~span:40)

let prop51_gamma_from_indicators () =
  (* Proposition 51: ∧ 1^{g∩h} is stronger than γ. *)
  let topo = Topology.figure1 in
  let families = Topology.cyclic_families topo in
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 10) ] in
  let mu = Mu.make ~max_delay:0 ~seed:5 topo fp in
  let gamma p t = Derive.gamma_of_indicators topo ~families mu.Mu.indicator p t in
  check (Axioms.gamma topo ~families ~horizon ~tail fp gamma)


let corollary52_indistinguishable () =
  (* Corollary 52: γ is too weak to emulate 1^{g∩h}. Computational
     form: on a 3-ring with h' = {p2, p0} initially faulty, the single
     cyclic family is faulty from the start, so γ's history is
     identical whether or not g∩h = {p1} also fails — while the
     indicator's is not. *)
  let topo =
    Topology.create ~n:3
      [ Pset.of_list [ 0; 1 ]; Pset.of_list [ 1; 2 ]; Pset.of_list [ 0; 2 ] ]
  in
  let families = Topology.cyclic_families topo in
  Alcotest.(check int) "one family" 1 (List.length families);
  let fp = Failure_pattern.of_crashes ~n:3 [ (0, 0); (2, 0) ] in
  let fp' = Failure_pattern.crash fp 1 0 in
  let g = Gamma.make ~max_delay:0 ~seed:1 topo ~families fp in
  let g' = Gamma.make ~max_delay:0 ~seed:1 topo ~families fp' in
  for p = 0 to 2 do
    for t = 0 to 50 do
      Alcotest.(check (list (list int)))
        (Printf.sprintf "γ agrees at p%d,t%d" p t)
        (Gamma.query g p t) (Gamma.query g' p t)
    done
  done;
  (* whereas the indicator histories differ *)
  let mk fp = Indicator.make ~max_delay:0 ~seed:1 ~scope:(Pset.range 3)
      ~target:(Pset.singleton 1) fp in
  Alcotest.(check bool) "indicator distinguishes" true
    (Indicator.query (mk fp) 0 10 <> Indicator.query (mk fp') 0 10)

let suite =
  [
    t "failure pattern" `Quick failure_pattern_unit;
    t "family fault time" `Quick family_fault_time;
    t "restriction ⊥" `Quick restriction;
    t "μ bundle (figure1)" `Quick mu_bundle;
    t "γ ablations" `Quick ablations;
    t "Prop 51: γ from indicators" `Quick prop51_gamma_from_indicators;
    t "Cor 52: γ cannot emulate 1^{g∩h}" `Quick corollary52_indistinguishable;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        sigma_axioms;
        omega_axioms;
        gamma_axioms;
        indicator_axioms;
        perfect_axioms;
        derive_from_perfect;
      ]
