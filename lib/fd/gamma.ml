type t = {
  topo : Topology.t;
  seed : int;
  max_delay : int;
  (* For every family: its index, the family, and its fault time. *)
  entries : (int * Topology.family * Failure_pattern.time option) list;
  (* F(p), precomputed per process as entry indices. *)
  per_process : int list array;
  (* [groups] is piecewise-constant in t — an entry's output only flips
     at its fault time plus the per-(p, i) delay — and the hot path of
     the stepper queries it for the same few (p, g) pairs every tick.
     Memoize the last answer per (p, g) with its validity window
     [lo, hi), array-indexed because the probe sits in commit/stable
     guards. Purely an evaluation cache: answers are unchanged. *)
  memo_lo : int array array;
  memo_hi : int array array;
  memo_gs : Topology.gid list array array;
}

let make ?(max_delay = 5) ~seed topo ~families fp =
  let entries =
    List.mapi
      (fun i fam -> (i, fam, Failure_pattern.family_fault_time fp topo fam))
      families
  in
  let per_process =
    Array.init (Topology.n topo) (fun p ->
        let mine = Topology.families_of_process topo families p in
        List.filter_map
          (fun (i, fam, _) -> if List.mem fam mine then Some i else None)
          entries)
  in
  let n = Topology.n topo and ng = Topology.num_groups topo in
  {
    topo;
    seed;
    max_delay;
    entries;
    per_process;
    memo_lo = Array.make_matrix n ng 0;
    memo_hi = Array.make_matrix n ng (-1) (* empty window: always a miss *);
    memo_gs = Array.make_matrix n ng [];
  }

let delay d p i =
  (* Fixed seed-0 hash over an int tuple: deterministic across runs;
     derives the per-(process, family) indication delay only. *)
  if d.max_delay = 0 then 0
  else
    (Hashtbl.hash (d.seed, p, i) [@lint.allow "poly-compare"])
    mod (d.max_delay + 1)

let output_entry d p t (i, fam, fault_time) =
  match fault_time with
  | None -> Some fam
  | Some ft -> if t >= ft + delay d p i then None else Some fam

let query d p t =
  List.filter_map
    (fun i -> output_entry d p t (List.nth d.entries i))
    d.per_process.(p)

let groups d p t g =
  if d.memo_lo.(p).(g) <= t && t < d.memo_hi.(p).(g) then d.memo_gs.(p).(g)
  else begin
    (* The validity window around t: bounded by the nearest entry
       flips on either side (a crash-free entry never flips). *)
    let lo = ref 0 and hi = ref max_int in
    List.iter
      (fun i ->
        match List.nth d.entries i with
        | _, _, None -> ()
        | _, _, Some ft ->
            let flip = ft + delay d p i in
            if flip <= t then (if flip > !lo then lo := flip)
            else if flip < !hi then hi := flip)
      d.per_process.(p);
    let gs = Topology.gamma_groups d.topo (query d p t) g in
    d.memo_lo.(p).(g) <- !lo;
    d.memo_hi.(p).(g) <- !hi;
    d.memo_gs.(p).(g) <- gs;
    gs
  end
