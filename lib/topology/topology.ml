type gid = int

type t = {
  n : int;
  groups : Pset.t array;
  (* [inters.(g).(h)] caches g ∩ h. *)
  inters : Pset.t array array;
  (* Memo for the (pure, deterministic) full-size cyclic-family
     enumeration: recomputed per detector construction otherwise,
     which dominates [Mu.make] on cyclic topologies. *)
  mutable cyc_memo : int list list option;
}

let create ~n groups_list =
  let groups = Array.of_list groups_list in
  let k = Array.length groups in
  if n <= 0 then invalid_arg "Topology.create: empty universe";
  Array.iteri
    (fun i g ->
      if Pset.is_empty g then
        invalid_arg (Printf.sprintf "Topology.create: group %d is empty" i);
      if not (Pset.subset g (Pset.range n)) then
        invalid_arg
          (Printf.sprintf "Topology.create: group %d outside universe" i))
    groups;
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      if Pset.equal groups.(i) groups.(j) then
        invalid_arg
          (Printf.sprintf "Topology.create: groups %d and %d are equal" i j)
    done
  done;
  let inters =
    Array.init k (fun i -> Array.init k (fun j -> Pset.inter groups.(i) groups.(j)))
  in
  { n; groups; inters; cyc_memo = None }

let n t = t.n
let processes t = Pset.range t.n
let num_groups t = Array.length t.groups
let group t g = t.groups.(g)
let gids t = List.init (num_groups t) Fun.id
let inter t g h = t.inters.(g).(h)
let intersecting t g h = not (Pset.is_empty t.inters.(g).(h))

let groups_of t p =
  List.filter (fun g -> Pset.mem p t.groups.(g)) (gids t)

(* Two processes interact when they share a destination group: every
   shared object of Algorithm 1 (a log LOG_{g∩h}, a list L_g, a
   consensus instance for a g-bound message) is keyed by groups of the
   process touching it, so processes in different components of that
   relation operate on disjoint objects and commute. The components are
   computed over the groups (all members of one group interact
   pairwise; intersecting groups share a member, so merging along group
   membership reaches the transitive closure). Canonical labelling: a
   component is named by its smallest process. *)
let process_components t =
  let parent = Array.init t.n Fun.id in
  let rec find i =
    if parent.(i) = i then i
    else begin
      let r = find parent.(i) in
      parent.(i) <- r;
      r
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
  in
  Array.iter
    (fun g ->
      match Pset.min_elt g with
      | None -> ()
      | Some m -> Pset.iter (fun p -> union m p) g)
    t.groups;
  Array.init t.n find

let intersecting_pairs t =
  let k = num_groups t in
  let acc = ref [] in
  for g = k - 1 downto 0 do
    for h = k - 1 downto g + 1 do
      if intersecting t g h then acc := (g, h) :: !acc
    done
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Families and Hamiltonian cycles                                     *)
(* ------------------------------------------------------------------ *)

type family = gid list
type cpath = gid array

let cpath_edges (pi : cpath) =
  let k = Array.length pi in
  List.init k (fun i -> (pi.(i), pi.((i + 1) mod k)))

let edge_key (g, h) = if g <= h then (g, h) else (h, g)

let compare_edge (g, h) (g', h') =
  let c = Int.compare g g' in
  if c <> 0 then c else Int.compare h h'

let cpath_equiv a b =
  let norm pi = List.sort_uniq compare_edge (List.map edge_key (cpath_edges pi)) in
  norm a = norm b

let index_of (pi : cpath) g =
  let rec loop i =
    if i >= Array.length pi then invalid_arg "cpath: group not on path"
    else if pi.(i) = g then i
    else loop (i + 1)
  in
  loop 0

let cpath_rotate_to pi g =
  let k = Array.length pi in
  let i = index_of pi g in
  Array.init k (fun j -> pi.((i + j) mod k))

let cpath_reverse_from pi g =
  let k = Array.length pi in
  let i = index_of pi g in
  Array.init k (fun j -> pi.(((i - j) mod k + k) mod k))

(* All oriented Hamiltonian cycles of the family's intersection graph,
   canonicalised to start at the smallest group. Families are tiny
   (≤ ~8 groups), so a permutation search is both simple and fast. *)
let cpaths t (fam : family) =
  match fam with
  | [] | [ _ ] | [ _; _ ] -> []
  | root :: rest ->
      let adjacent g h = g <> h && intersecting t g h in
      let results = ref [] in
      let rec extend prefix last remaining =
        match remaining with
        | [] ->
            if adjacent last root then
              results := Array.of_list (root :: List.rev prefix) :: !results
        | _ ->
            List.iter
              (fun g ->
                if adjacent last g then
                  extend (g :: prefix) g (List.filter (( <> ) g) remaining))
              remaining
      in
      extend [] root rest;
      List.rev !results

let is_cyclic t fam = cpaths t fam <> []

(* A family is cyclic iff its intersection graph has a Hamiltonian
   cycle, i.e. iff it is the vertex set of a simple cycle of the global
   intersection graph. Enumerating simple cycles (rooted at their
   smallest vertex) and collecting their vertex sets is therefore
   equivalent to — and exponentially cheaper than — testing every
   subset of groups: topologies with many disjoint or sparsely
   intersecting groups have few cycles. *)
let cyclic_families t =
  match t.cyc_memo with
  | Some fams -> fams
  | None ->
      let k = num_groups t in
      let adjacent g h = g <> h && intersecting t g h in
      let seen = Hashtbl.create 64 in
      (* Cycles rooted at their smallest vertex: extend simple paths
         with vertices larger than the root; close when adjacent to the
         root. *)
      let rec extend root path last len =
        if len >= 3 && adjacent last root then begin
          let fam = List.sort Int.compare path in
          if not (Hashtbl.mem seen fam) then Hashtbl.replace seen fam ()
        end;
        for g = root + 1 to k - 1 do
          if adjacent last g && not (List.mem g path) then
            extend root (g :: path) g (len + 1)
        done
      in
      for root = 0 to k - 1 do
        extend root [ root ] root 1
      done;
      let fams =
        List.sort (List.compare Int.compare)
          (Hashtbl.fold (fun fam () acc -> fam :: acc) seen [])
      in
      t.cyc_memo <- Some fams;
      fams

let families_of_group _t families g =
  List.filter (fun fam -> List.mem g fam) families

let families_of_process t families p =
  let in_some_intersection fam =
    List.exists
      (fun g ->
        List.exists
          (fun h -> g <> h && Pset.mem p (inter t g h))
          fam)
      fam
  in
  List.filter in_some_intersection families

let family_faulty t fam ~crashed =
  let dead (g, h) = Pset.subset (inter t g h) crashed in
  let paths = cpaths t fam in
  paths <> [] && List.for_all (fun pi -> List.exists dead (cpath_edges pi)) paths

let h_set t fam_all q g =
  let fp = families_of_process t fam_all q in
  let mem_h h =
    h <> g && intersecting t g h
    && List.exists (fun fam -> List.mem g fam && List.mem h fam) fp
  in
  List.filter mem_h (gids t)

let gamma_groups t output g =
  let mem_h h =
    h <> g && intersecting t g h
    && List.exists (fun fam -> List.mem g fam && List.mem h fam) output
  in
  List.filter mem_h (gids t)

(* ------------------------------------------------------------------ *)
(* Printers                                                            *)
(* ------------------------------------------------------------------ *)

let pp_family fmt fam =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt g -> Format.fprintf fmt "g%d" g))
    fam

let pp_cpath fmt pi =
  Array.iter (fun g -> Format.fprintf fmt "g%d→" g) pi;
  if Array.length pi > 0 then Format.fprintf fmt "g%d" pi.(0)

let pp fmt t =
  Format.fprintf fmt "@[<v>topology over %d processes:@," t.n;
  Array.iteri
    (fun i g -> Format.fprintf fmt "  g%d = %a@," i Pset.pp g)
    t.groups;
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* Canned topologies                                                   *)
(* ------------------------------------------------------------------ *)

let figure1 =
  (* Paper's p1..p5 are p0..p4 here; g1..g4 are groups 0..3. *)
  create ~n:5
    [
      Pset.of_list [ 0; 1 ];
      Pset.of_list [ 1; 2 ];
      Pset.of_list [ 0; 2; 3 ];
      Pset.of_list [ 0; 3; 4 ];
    ]

let disjoint ~groups ~size =
  if groups <= 0 || size <= 0 then invalid_arg "Topology.disjoint";
  let mk i = Pset.of_list (List.init size (fun j -> (i * size) + j)) in
  create ~n:(groups * size) (List.init groups mk)

let ring ~groups =
  if groups < 3 then invalid_arg "Topology.ring: needs at least 3 groups";
  let n = 2 * groups in
  let mk i = Pset.of_list [ 2 * i; (2 * i) + 1; (2 * i + 2) mod n ] in
  create ~n (List.init groups mk)

let chain ~groups =
  if groups <= 0 then invalid_arg "Topology.chain";
  let mk i = Pset.of_list [ 2 * i; (2 * i) + 1; (2 * i) + 2 ] in
  create ~n:((2 * groups) + 1) (List.init groups mk)

let star ~satellites ~hub_size =
  if satellites <= 0 || hub_size < satellites then
    invalid_arg "Topology.star: hub must reach every satellite";
  let hub = Pset.of_list (List.init hub_size Fun.id) in
  (* Satellite i = {i, hub_size + 2i, hub_size + 2i + 1}. *)
  let mk i = Pset.of_list [ i; hub_size + (2 * i); hub_size + (2 * i) + 1 ] in
  create ~n:(hub_size + (2 * satellites)) (hub :: List.init satellites mk)

let random rng ~n ~groups ~max_group_size =
  if max_group_size <= 0 || max_group_size > n then
    invalid_arg "Topology.random: bad max_group_size";
  let universe = Pset.range n in
  let rec mk_group () =
    let size = 1 + Rng.int rng max_group_size in
    let rec fill s =
      if Pset.cardinal s >= size then s
      else fill (Pset.add (Rng.pick_set rng universe) s)
    in
    let g = fill Pset.empty in
    if Pset.is_empty g then mk_group () else g
  in
  let rec distinct acc k =
    if k = 0 then List.rev acc
    else
      let g = mk_group () in
      if List.exists (Pset.equal g) acc then distinct acc k
      else distinct (g :: acc) (k - 1)
  in
  create ~n (distinct [] groups)

let blocking_edges t families ~crashed =
  let alive_family fam = not (family_faulty t fam ~crashed) in
  List.filter
    (fun (g, h) ->
      Pset.subset (inter t g h) crashed
      && (not (Pset.is_empty (inter t g h)))
      && List.exists
           (fun fam -> List.mem g fam && List.mem h fam && alive_family fam)
           families)
    (intersecting_pairs t)

let to_dot t ?(crashed = Pset.empty) () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "graph intersection {\n  node [shape=ellipse];\n";
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "  g%d [label=\"g%d\\n%s\"];\n" g g
           (Pset.to_string (group t g))))
    (gids t);
  List.iter
    (fun (g, h) ->
      let cap = inter t g h in
      let dead = Pset.subset cap crashed in
      Buffer.add_string buf
        (Printf.sprintf "  g%d -- g%d [label=\"%s\"%s];\n" g h
           (Pset.to_string cap)
           (if dead then ", style=dashed, color=red" else "")))
    (intersecting_pairs t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
