(* μ composes one seeded detector per (kind, group) pair; the
   sub-seeds are derived with Hashtbl.hash over int/variant tuples — a
   fixed seed-0 hash, deterministic across runs. Replacing it would
   re-seed every detector and invalidate the seed-named corpus
   entries, so the poly-compare rule is waived for this file. *)
[@@@lint.allow "poly-compare"]

type t = {
  topo : Topology.t;
  families : Topology.family list;
  sigma : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> Pset.t option;
  omega : Topology.gid -> int -> Failure_pattern.time -> int option;
  omega_inter : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> int option;
  gamma : int -> Failure_pattern.time -> Topology.family list;
  gamma_groups : int -> Failure_pattern.time -> Topology.gid -> Topology.gid list;
  indicator : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> bool option;
  settle : Failure_pattern.time;
}

let pair_key g h = if g <= h then (g, h) else (h, g)

let make ?(max_delay = 5) ~seed topo fp =
  let families = Topology.cyclic_families topo in
  let k = Topology.num_groups topo in
  (* Σ_{g∩h} for every intersecting pair (including g = h, i.e. Σ_g). *)
  let sigmas = Hashtbl.create 16 in
  let omegas = Hashtbl.create 16 in
  let omegas_inter = Hashtbl.create 16 in
  let indicators = Hashtbl.create 16 in
  for g = 0 to k - 1 do
    Hashtbl.replace omegas g
      (Omega.make ~restrict:(Topology.group topo g)
         ~seed:(Hashtbl.hash (seed, `Omega, g))
         fp);
    for h = g to k - 1 do
      let cap = Topology.inter topo g h in
      if not (Pset.is_empty cap) then begin
        Hashtbl.replace sigmas (g, h)
          (Sigma.make ~restrict:cap fp);
        Hashtbl.replace omegas_inter (g, h)
          (Omega.make ~restrict:cap
             ~seed:(Hashtbl.hash (seed, `Omega_inter, g, h))
             fp);
        if g <> h then
          Hashtbl.replace indicators (g, h)
            (Indicator.make ~max_delay
               ~seed:(Hashtbl.hash (seed, `Indicator, g, h))
               ~scope:(Pset.union (Topology.group topo g) (Topology.group topo h))
               ~target:cap fp)
      end
    done
  done;
  let gamma_d = Gamma.make ~max_delay ~seed:(Hashtbl.hash (seed, `Gamma)) topo ~families fp in
  let sigma g h p t =
    match Hashtbl.find_opt sigmas (pair_key g h) with
    | None -> None
    | Some d -> Sigma.query d p t
  in
  let omega g p t =
    match Hashtbl.find_opt omegas g with
    | None -> None
    | Some d -> Omega.query d p t
  in
  let omega_inter g h p t =
    match Hashtbl.find_opt omegas_inter (pair_key g h) with
    | None -> None
    | Some d -> Omega.query d p t
  in
  let indicator g h p t =
    match Hashtbl.find_opt indicators (pair_key g h) with
    | None -> None
    | Some d -> Indicator.query d p t
  in
  {
    topo;
    families;
    sigma;
    omega;
    omega_inter;
    gamma = (fun p t -> Gamma.query gamma_d p t);
    gamma_groups = (fun p t g -> Gamma.groups gamma_d p t g);
    indicator;
    settle =
      (if Pset.is_empty (Failure_pattern.faulty fp) then 0
       else Failure_pattern.max_crash_time fp + max_delay);
  }

let with_gamma mu ~settle gamma =
  {
    mu with
    gamma;
    gamma_groups = (fun p t g -> Topology.gamma_groups mu.topo (gamma p t) g);
    settle = max mu.settle settle;
  }

let gamma_always mu =
  let families = mu.families in
  let topo = mu.topo in
  with_gamma mu ~settle:0 (fun p _t ->
      Topology.families_of_process topo families p)

let gamma_lying mu = with_gamma mu ~settle:0 (fun _p _t -> [])
