type probe = {
  fam : Topology.family;
  pi : Topology.cpath;
  dir : int;
  edges : (Topology.gid * Topology.gid) list; (* sorted: the equivalence class *)
  participants : Pset.t;
  algo : Algorithm1.t;
  levels : int list array; (* levels.(j) = message ids of level j *)
  level_of : int array; (* mid -> level *)
  src_of : int array; (* mid -> source *)
  signaled : (int * int, unit) Hashtbl.t; (* (p, i) *)
  sent : (int, unit) Hashtbl.t; (* levels i with (π, i) sent to the family *)
}

type t = {
  topo : Topology.t;
  fp : Failure_pattern.t;
  families : Topology.family list;
  probes : probe list;
  hb : int array;
}

(* Orientation sign: rotate to the smallest group and compare the two
   neighbours; reversing the path flips the sign. *)
let direction pi =
  let root = Array.fold_left min pi.(0) pi in
  let rot = Topology.cpath_rotate_to pi root in
  let k = Array.length rot in
  if rot.(1) < rot.(k - 1) then 1 else -1

let family_members topo fam =
  List.fold_left (fun acc g -> Pset.union acc (Topology.group topo g)) Pset.empty fam

let make_probe topo mu fam pi =
  let k = Array.length pi in
  let excluded = Topology.inter topo pi.(0) pi.(k - 1) in
  let participants = Pset.diff (family_members topo fam) excluded in
  (* Level-j probe messages: sources in π[j-1] ∩ π[j] (π[0] ∩ π[1] for
     level 0), destination π[j]; only level 0 is released initially. *)
  let specs = ref [] in
  for j = 0 to k - 1 do
    let srcs =
      if j = 0 then Topology.inter topo pi.(0) pi.(1)
      else Topology.inter topo pi.(j - 1) pi.(j)
    in
    Pset.iter
      (fun p -> specs := (j, p, pi.(j), if j = 0 then 0 else Workload.never) :: !specs)
      srcs
  done;
  let specs = List.rev !specs in
  let workload = Workload.make (List.map (fun (_, p, g, at) -> (p, g, at)) specs) topo in
  let count = List.length specs in
  let levels = Array.make k [] in
  let level_of = Array.make count 0 in
  let src_of = Array.make count 0 in
  List.iteri
    (fun m (j, p, _, _) ->
      levels.(j) <- m :: levels.(j);
      level_of.(m) <- j;
      src_of.(m) <- p)
    specs;
  {
    fam;
    pi;
    dir = direction pi;
    edges = Topology.cpath_edge_set pi;
    participants;
    algo = Algorithm1.create ~topo ~mu ~workload ();
    levels;
    level_of;
    src_of;
    signaled = Hashtbl.create 8;
    sent = Hashtbl.create 8;
  }

let create ?(seed = 11) ~topo ~fp () =
  let families = Topology.cyclic_families topo in
  let mu = Mu.make ~seed topo fp in
  let probes =
    List.concat_map
      (fun fam ->
        (* Every intersection may fail, so every rooted path of the
           family is probed. *)
        let rooted =
          List.concat_map
            (fun c -> List.map (fun g -> Topology.cpath_rotate_to c g) fam)
            (Topology.cpaths topo fam)
        in
        List.map (make_probe topo mu fam) rooted)
      families
  in
  { topo; fp; families; probes; hb = Array.make (Topology.n topo) 0 }

(* signal(π, i) at p (lines 6–10): p delivered a level-i probe, sits in
   π[i+1], and has not signalled this level yet. *)
let try_signal t probe p time =
  let k = Array.length probe.pi in
  let rec levels i =
    if i > k - 2 then false
    else if
      (not (Hashtbl.mem probe.signaled (p, i)))
      && Pset.mem p (Topology.group t.topo probe.pi.((i + 1) mod k))
      && List.exists
           (fun m -> Algorithm1.delivered probe.algo ~pid:p ~m)
           probe.levels.(i)
    then begin
      Hashtbl.replace probe.signaled (p, i) ();
      Hashtbl.replace probe.sent i ();
      if i + 1 <= k - 1 then
        List.iter
          (fun m ->
            if probe.src_of.(m) = p then
              Algorithm1.release probe.algo ~m ~time)
          probe.levels.(i + 1);
      true
    end
    else levels (i + 1)
  in
  levels 0

let step t ~pid:p ~time =
  t.hb.(p) <- t.hb.(p) + 1;
  let rec advance = function
    | [] -> ()
    | probe :: rest ->
        if
          Pset.mem p probe.participants
          && (try_signal t probe p time
             || Algorithm1.step probe.algo ~pid:p ~time)
        then ()
        else advance rest
  in
  advance t.probes;
  true

(* update(π) precondition, lines 11–13: either the probe chain crossed
   the whole path (level |π|-3 signalled), or two chains met — a signal
   (π, j) says the chain's head reached group π[j+1], and a level-0
   signal of the converse-direction probe rooted at that very group
   certifies the other side. The meeting rule is what detects a family
   whose dead edges are not adjacent to any single live chain (e.g. a
   triangle with two dead edges). *)
let failed t probe =
  let k = Array.length probe.pi in
  (* Pure disjunction over the signalled levels: the fold's result is
     independent of the Hashtbl iteration order. *)
  (Hashtbl.fold [@lint.allow "hashtbl-order"])
    (fun j () acc ->
      acc || j = k - 2
      || List.exists
           (fun probe' ->
             probe'.edges = probe.edges
             && probe'.dir = -probe.dir
             && probe'.pi.(0) = probe.pi.((j + 1) mod k)
             && Hashtbl.mem probe'.sent 0)
           t.probes)
    probe.sent false

let failed_paths t =
  List.filter_map (fun pr -> if failed t pr then Some pr.pi else None) t.probes

let query t p =
  let mine = Topology.families_of_process t.topo t.families p in
  List.filter
    (fun fam ->
      let classes =
        List.sort_uniq
          (List.compare Topology.compare_edge)
          (List.map Topology.cpath_edge_set (Topology.cpaths t.topo fam))
      in
      List.exists
        (fun cls ->
          not
            (List.exists
               (fun pr -> pr.fam = fam && pr.edges = cls && failed t pr)
               t.probes))
        classes)
    mine

let run t ~horizon =
  Recorder.record ~equal:(List.equal (List.equal Int.equal)) ~fp:t.fp ~horizon
    ~step:(step t) ~query:(query t)
