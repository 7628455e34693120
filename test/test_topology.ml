let t = Alcotest.test_case

let figure1_structure () =
  let topo = Topology.figure1 in
  Alcotest.(check int) "n" 5 (Topology.n topo);
  Alcotest.(check int) "groups" 4 (Topology.num_groups topo);
  Alcotest.(check (list (pair int int)))
    "intersecting pairs"
    [ (0, 1); (0, 2); (0, 3); (1, 2); (2, 3) ]
    (Topology.intersecting_pairs topo);
  Alcotest.(check (list int)) "G(p0)" [ 0; 2; 3 ] (Topology.groups_of topo 0);
  Alcotest.(check (list int)) "G(p4)" [ 3 ] (Topology.groups_of topo 4);
  Alcotest.(check bool) "g0∩g1 = {p1}" true
    (Pset.equal (Topology.inter topo 0 1) (Pset.singleton 1))

let figure1_families () =
  let topo = Topology.figure1 in
  let families = Topology.cyclic_families topo in
  (* §3: f = {g1,g2,g3}, f' = {g1,g3,g4}, f'' = {g1,g2,g3,g4} —
     zero-indexed: {0,1,2}, {0,2,3}, {0,1,2,3}. *)
  Alcotest.(check (list (list int)))
    "F" [ [ 0; 1; 2 ]; [ 0; 1; 2; 3 ]; [ 0; 2; 3 ] ] families;
  (* F(g2) (paper) = {f, f''}: group index 1. *)
  Alcotest.(check (list (list int)))
    "F(g1)" [ [ 0; 1; 2 ]; [ 0; 1; 2; 3 ] ]
    (Topology.families_of_group topo families 1);
  (* p1 (paper's p1 is our p0) belongs to every family; p5 (our p4) to none. *)
  Alcotest.(check int) "F(p0)" 3
    (List.length (Topology.families_of_process topo families 0));
  Alcotest.(check int) "F(p4)" 0
    (List.length (Topology.families_of_process topo families 4))

let figure1_faultiness () =
  let topo = Topology.figure1 in
  (* §3: family f'' is faulty when g2∩g1 = {p2} fails — our p1. *)
  let crashed = Pset.singleton 1 in
  Alcotest.(check bool) "f faulty" true
    (Topology.family_faulty topo [ 0; 1; 2 ] ~crashed);
  Alcotest.(check bool) "f'' faulty" true
    (Topology.family_faulty topo [ 0; 1; 2; 3 ] ~crashed);
  Alcotest.(check bool) "f' correct" false
    (Topology.family_faulty topo [ 0; 2; 3 ] ~crashed);
  (* no family is faulty with no crash *)
  Alcotest.(check bool) "none faulty" false
    (Topology.family_faulty topo [ 0; 1; 2 ] ~crashed:Pset.empty)

let cpath_ops () =
  let topo = Topology.figure1 in
  let paths = Topology.cpaths topo [ 0; 1; 2 ] in
  Alcotest.(check int) "triangle has both orientations" 2 (List.length paths);
  let pi = List.hd paths in
  Alcotest.(check int) "length" 3 (Array.length pi);
  let rev = Topology.cpath_reverse_from pi pi.(0) in
  Alcotest.(check bool) "reverse equivalent" true (Topology.cpath_equiv pi rev);
  Alcotest.(check bool) "reverse differs" true (rev <> pi || Array.length pi <= 2);
  let rot = Topology.cpath_rotate_to pi pi.(1) in
  Alcotest.(check int) "rotation starts at target" pi.(1) rot.(0);
  Alcotest.(check bool) "rotation equivalent" true (Topology.cpath_equiv pi rot);
  Alcotest.(check int) "edges" 3 (List.length (Topology.cpath_edges pi));
  (* Every rotation and reversal of every closed path of these
     topologies has the path's edge set: each edge once, as (g, h) with
     g < h, in Topology.compare_edge order. cpath_equiv is edge-set
     equality over every pair of paths. *)
  let edges = Alcotest.(list (pair int int)) in
  List.iter
    (fun topo ->
      let paths =
        List.concat_map (Topology.cpaths topo) (Topology.cyclic_families topo)
      in
      List.iter
        (fun pi ->
          let set = Topology.cpath_edge_set pi in
          Alcotest.check edges "sorted, deduplicated, g < h"
            (List.sort_uniq Topology.compare_edge
               (List.filter (fun (g, h) -> g < h) set))
            set;
          Alcotest.(check int) "one edge per group" (Array.length pi)
            (List.length set);
          Array.iter
            (fun g ->
              Alcotest.check edges "rotation: same edge set" set
                (Topology.cpath_edge_set (Topology.cpath_rotate_to pi g));
              Alcotest.check edges "reversal: same edge set" set
                (Topology.cpath_edge_set (Topology.cpath_reverse_from pi g)))
            pi;
          List.iter
            (fun pi' ->
              Alcotest.(check bool) "cpath_equiv = equal edge sets"
                (set = Topology.cpath_edge_set pi')
                (Topology.cpath_equiv pi pi'))
            paths)
        paths)
    [
      Topology.figure1;
      Topology.ring ~groups:5;
      (* Four pairwise intersecting groups: three Hamiltonian cycles of
         the whole family, each in two orientations. *)
      Topology.create ~n:6
        (List.map Pset.of_list [ [ 0; 1; 2 ]; [ 0; 3; 4 ]; [ 1; 3; 5 ]; [ 2; 4; 5 ] ]);
    ]

let canned () =
  let ring = Topology.ring ~groups:4 in
  let ring_families = Topology.cyclic_families ring in
  Alcotest.(check (list (list int))) "ring: one family" [ [ 0; 1; 2; 3 ] ] ring_families;
  let chain = Topology.chain ~groups:5 in
  Alcotest.(check (list (list int))) "chain: F = ∅" [] (Topology.cyclic_families chain);
  let star = Topology.star ~satellites:4 ~hub_size:4 in
  Alcotest.(check (list (list int))) "star: F = ∅" [] (Topology.cyclic_families star);
  let disjoint = Topology.disjoint ~groups:6 ~size:2 in
  Alcotest.(check (list (pair int int))) "disjoint: no intersections" []
    (Topology.intersecting_pairs disjoint);
  (* a big disjoint topology must analyse instantly (cycle enumeration,
     not subset enumeration) *)
  let big = Topology.disjoint ~groups:64 ~size:3 in
  Alcotest.(check (list (list int))) "64 disjoint groups: F = ∅" []
    (Topology.cyclic_families big)

let validation () =
  Alcotest.check_raises "empty group" (Invalid_argument "Topology.create: group 0 is empty")
    (fun () -> ignore (Topology.create ~n:3 [ Pset.empty ]));
  Alcotest.check_raises "duplicate groups"
    (Invalid_argument "Topology.create: groups 0 and 1 are equal") (fun () ->
      ignore (Topology.create ~n:3 [ Pset.singleton 0; Pset.singleton 0 ]));
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Topology.create: group 0 outside universe") (fun () ->
      ignore (Topology.create ~n:3 [ Pset.singleton 7 ]))


let dot_export () =
  let dot = Topology.to_dot Topology.figure1 ~crashed:(Pset.singleton 1) () in
  Alcotest.(check bool) "has nodes" true
    (List.for_all (fun g ->
         let re = Str.regexp_string (Printf.sprintf "g%d [label" g) in
         (try ignore (Str.search_forward re dot 0); true with Not_found -> false))
       [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "dead edge marked" true
    (try ignore (Str.search_forward (Str.regexp_string "style=dashed") dot 0); true
     with Not_found -> false);
  Alcotest.(check bool) "well-formed" true
    (String.length dot > 0
    && String.sub dot 0 5 = "graph"
    && dot.[String.length dot - 2] = '}')

(* Reference implementation: subset enumeration + permutation check. *)
let brute_force_cyclic topo =
  let k = Topology.num_groups topo in
  let rec subsets acc chosen = function
    | [] -> if List.length chosen >= 3 then List.rev chosen :: acc else acc
    | g :: rest -> subsets (subsets acc (g :: chosen) rest) chosen rest
  in
  subsets [] [] (List.init k Fun.id)
  |> List.filter (fun fam -> Topology.cpaths topo fam <> [])
  |> List.sort compare

let qcheck_props =
  [
    QCheck.Test.make ~name:"cyclic_families = brute force" ~count:60
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.make seed in
        let topo = Topology.random rng ~n:7 ~groups:5 ~max_group_size:3 in
        Topology.cyclic_families topo = brute_force_cyclic topo);
    QCheck.Test.make ~name:"h_set agrees inside a family (Lemma 30)" ~count:60
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Rng.make seed in
        let topo = Topology.random rng ~n:8 ~groups:5 ~max_group_size:4 in
        let families = Topology.cyclic_families topo in
        List.for_all
          (fun fam ->
            List.for_all
              (fun g ->
                let witnesses =
                  Pset.fold
                    (fun p acc ->
                      if
                        List.exists
                          (fun g' ->
                            g' <> g && List.mem g' fam
                            && Pset.mem p (Topology.inter topo g g'))
                          fam
                      then Topology.h_set topo families p g :: acc
                      else acc)
                    (Topology.group topo g) []
                in
                match witnesses with
                | [] -> true
                | first :: rest -> List.for_all (( = ) first) rest)
              fam)
          families);
    QCheck.Test.make ~name:"family_faulty monotone in crashes" ~count:60
      QCheck.(pair (int_range 0 10_000) (int_range 0 10_000))
      (fun (seed, cseed) ->
        let rng = Rng.make seed in
        let topo = Topology.random rng ~n:7 ~groups:4 ~max_group_size:3 in
        let crng = Rng.make cseed in
        let crashed = Rng.subset crng (Topology.processes topo) in
        let more = Pset.add (Rng.int crng (Topology.n topo)) crashed in
        List.for_all
          (fun fam ->
            (not (Topology.family_faulty topo fam ~crashed))
            || Topology.family_faulty topo fam ~crashed:more)
          (Topology.cyclic_families topo));
  ]

let suite =
  [
    t "figure1 structure" `Quick figure1_structure;
    t "figure1 families" `Quick figure1_families;
    t "figure1 faultiness" `Quick figure1_faultiness;
    t "cpath operations" `Quick cpath_ops;
    t "canned topologies" `Quick canned;
    t "validation" `Quick validation;
    t "dot export" `Quick dot_export;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qcheck_props
