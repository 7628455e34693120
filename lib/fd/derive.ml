let edge_key (g, h) = if g <= h then (g, h) else (h, g)

let compare_edge (g, h) (g', h') =
  let c = Int.compare g g' in
  if c <> 0 then c else Int.compare h h'

let equivalence_classes paths =
  let key pi =
    List.sort_uniq compare_edge (List.map edge_key (Topology.cpath_edges pi))
  in
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun pi ->
      let k = key pi in
      Hashtbl.replace tbl k (pi :: (try Hashtbl.find tbl k with Not_found -> [])))
    paths;
  (* Emit classes in sorted key order, not Hashtbl order. *)
  Hashtbl.fold (fun k cls acc -> (k, cls) :: acc) tbl []
  |> List.sort (fun (k, _) (k', _) -> List.compare compare_edge k k')
  |> List.map snd

let gamma_of_indicators topo ~families indicator p t =
  let fp_families = Topology.families_of_process topo families p in
  let edge_dead (g, h) =
    (* Prop. 51 forwards the indication: when any process of [g ∪ h]
       reads [1^{g∩h}] = true it tells the rest of the family. At the
       oracle level this means an edge counts as indicated once {e any}
       scope member's indicator fires (accuracy is preserved: true ⇒
       g∩h crashed). Querying only the local process would starve
       family members outside [g ∪ h]. *)
    Pset.exists
      (fun q -> indicator g h q t = Some true)
      (Pset.union (Topology.group topo g) (Topology.group topo h))
  in
  let class_broken cls =
    match cls with
    | [] -> false
    | pi :: _ -> List.exists edge_dead (Topology.cpath_edges pi)
  in
  List.filter
    (fun fam ->
      not
        (let classes = equivalence_classes (Topology.cpaths topo fam) in
         classes <> [] && List.for_all class_broken classes))
    fp_families

let mu_of_perfect topo perfect =
  let families = Topology.cyclic_families topo in
  let unsuspected scope p t = Pset.diff scope (Perfect.query perfect p t) in
  (* Deterministic non-empty fallback once a whole scope is suspected:
     the member suspected last (suspicion order is the same at every
     observer, see {!Perfect}). *)
  let last_unsuspected scope p =
    let rec probe t best =
      if t > 1 lsl 14 then best
      else
        let u = unsuspected scope p t in
        if Pset.is_empty u then best else probe (2 * max t 1) u
    in
    probe 1 (unsuspected scope p 0)
  in
  let quorum scope p t =
    let u = unsuspected scope p t in
    if Pset.is_empty u then
      let fb = last_unsuspected scope p in
      if Pset.is_empty fb then scope else fb
    else u
  in
  let sigma g h p t =
    let scope = Topology.inter topo g h in
    if Pset.is_empty scope || not (Pset.mem p scope) then None
    else Some (quorum scope p t)
  in
  let omega_of scope p t =
    if not (Pset.mem p scope) then None
    else
      let u = unsuspected scope p t in
      Pset.min_elt (if Pset.is_empty u then scope else u)
  in
  let omega g p t = omega_of (Topology.group topo g) p t in
  let omega_inter g h p t =
    let scope = Topology.inter topo g h in
    if Pset.is_empty scope then None else omega_of scope p t
  in
  let indicator g h p t =
    let target = Topology.inter topo g h in
    let scope =
      Pset.union (Topology.group topo g) (Topology.group topo h)
    in
    if Pset.is_empty target || g = h || not (Pset.mem p scope) then None
    else Some (Pset.subset target (Perfect.query perfect p t))
  in
  let gamma p t = gamma_of_indicators topo ~families indicator p t in
  {
    Mu.topo;
    families;
    sigma;
    omega;
    omega_inter;
    gamma;
    gamma_groups = (fun p t g -> Topology.gamma_groups topo (gamma p t) g);
    indicator;
    settle = Perfect.settle perfect;
  }
