type t = {
  scope : Pset.t;
  stabilization : int;
  seed : int;
  leader : int;
  members : int array;
}

let make ?restrict ?(stabilization = 0) ~seed fp =
  let scope =
    match restrict with
    | Some s -> s
    | None -> Pset.range (Failure_pattern.n fp)
  in
  if Pset.is_empty scope then invalid_arg "Omega.make: empty scope";
  let correct_in_scope = Pset.inter scope (Failure_pattern.correct fp) in
  let leader =
    match Pset.min_elt correct_in_scope with
    | Some l -> l
    | None -> Pset.choose scope
  in
  { scope; stabilization; seed; leader; members = Array.of_list (Pset.to_list scope) }

let query d p t =
  if not (Pset.mem p d.scope) then None
  else if t >= d.stabilization then Some d.leader
  else
    (* Hashtbl.hash over an int/variant tuple is a fixed seed-0 hash:
       deterministic across runs, used only to derive a pseudo-random
       pre-stabilization leader; replacing it would invalidate every
       seed-named corpus entry. *)
    let i =
      (Hashtbl.hash (d.seed, p, t) [@lint.allow "poly-compare"])
      mod Array.length d.members
    in
    Some d.members.(i)
