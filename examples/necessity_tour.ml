(* A tour of the necessity side of the paper (§5, §6, Appendix B):
   starting from a *solution* to genuine atomic multicast, rebuild the
   failure detectors it must have been hiding inside.

   1. Algorithm 2 squeezes the quorum detector Σ_{g∩h} out of which
      subsets of a group can drive the algorithm alone;
   2. Algorithm 3 squeezes the cyclicity detector γ out of probe
      messages chased around each cyclic family;
   3. Algorithm 4 squeezes the indicator 1^{g∩h} out of a *strict*
      solution running without the intersection;
   4. Algorithm 5 (CHT-style) extracts an eventual leader Ω_{g∩h} from
      simulated runs, valency tags and decision gadgets.

   Run with: dune exec examples/necessity_tour.exe *)

let verdict = function Ok () -> "axioms hold" | Error e -> "AXIOM VIOLATION: " ^ e

let () =
  let topo = Topology.figure1 in
  let families = Topology.cyclic_families topo in

  Format.printf "=== 1. Σ_{g2∩g3} from the algorithm (Algorithm 2) ===@.";
  let fp = Failure_pattern.of_crashes ~n:5 [ (2, 10) ] in
  let se = Sigma_extract.create ~topo ~fp ~groups:[ 2; 3 ] () in
  let history, _ = Sigma_extract.run se ~horizon:400 in
  Format.printf "  scope %a, p2 crashes at t=10@." Pset.pp (Sigma_extract.scope se);
  List.iter
    (fun t ->
      match history 0 t with
      | Some q -> Format.printf "  Σ at p0, t=%-4d → %a@." t Pset.pp q
      | None -> ())
    [ 0; 399 ];
  Format.printf "  %s@.@."
    (verdict (Axioms.sigma ~scope:(Sigma_extract.scope se) ~horizon:400 fp history));

  Format.printf "=== 2. γ from probe chains (Algorithm 3) ===@.";
  let fp = Failure_pattern.of_crashes ~n:5 [ (1, 5) ] in
  let ge = Gamma_extract.create ~topo ~fp () in
  let history, _ = Gamma_extract.run ge ~horizon:600 in
  Format.printf "  p1 (the whole g0∩g1) crashes at t=5@.";
  Format.printf "  emulated γ at p0, end of run: {";
  List.iter (fun f -> Format.printf " %a" Topology.pp_family f) (history 0 600);
  Format.printf " }@.";
  Format.printf "  flagged probe paths: %d@." (List.length (Gamma_extract.failed_paths ge));
  Format.printf "  %s@.@."
    (verdict (Axioms.gamma topo ~families ~horizon:600 ~tail:20 fp history));

  Format.printf "=== 3. 1^{g∩h} from a strict solution (Algorithm 4) ===@.";
  let topo2 =
    Topology.create ~n:4 [ Pset.of_list [ 0; 1; 2 ]; Pset.of_list [ 1; 2; 3 ] ]
  in
  List.iter
    (fun (name, fp) ->
      let ie = Indicator_extract.create ~topo:topo2 ~fp ~g:0 ~h:1 () in
      let history, _ = Indicator_extract.run ie ~horizon:300 in
      Format.printf "  %-28s output at p0 = %s, %s@." name
        (match history 0 300 with
        | Some b -> string_of_bool b
        | None -> "⊥")
        (verdict
           (Axioms.indicator ~scope:(Pset.range 4)
              ~target:(Pset.of_list [ 1; 2 ])
              ~horizon:300 ~tail:10 fp history)))
    [
      ("g∩h = {1,2} correct:", Failure_pattern.never ~n:4);
      ("g∩h crashes:", Failure_pattern.of_crashes ~n:4 [ (1, 5); (2, 5) ]);
    ];
  Format.printf "@.";

  Format.printf "=== 4. Ω_{g∩h} from simulated runs (Algorithm 5) ===@.";
  List.iter
    (fun (name, fp) ->
      let v = Cht_extract.extract ~topo:topo2 ~fp ~g:0 ~h:1 () in
      let how =
        match v with
        | Cht_extract.Univalent_critical { index; _ } ->
            Printf.sprintf "adjacent univalent roots I_%d/I_%d" index (index + 1)
        | Cht_extract.Fork _ -> "a fork gadget"
        | Cht_extract.Hook _ -> "a hook gadget"
        | Cht_extract.Decider _ -> "a decision point (degenerate hook)"
        | Cht_extract.Fallback _ -> "fallback"
      in
      Format.printf "  %-28s leader p%d, found via %s@." name
        (Cht_extract.leader_of v) how)
    [
      ("no crash:", Failure_pattern.never ~n:4);
      ("p2 crashes:", Failure_pattern.of_crashes ~n:4 [ (2, 3) ]);
      ("p1 crashes:", Failure_pattern.of_crashes ~n:4 [ (1, 3) ]);
    ];
  Format.printf
    "@.Each extraction consumed only the multicast algorithm and its detector@.\
     history — the computational content of 'μ is necessary' (§5).@."
