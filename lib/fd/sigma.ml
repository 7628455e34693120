(* The emitted history is the canonical "alive set" history: the quorum
   at time t is the set of not-yet-crashed members of the scope. Any two
   such sets intersect because alive sets are decreasing under inclusion
   (their intersection is the later one), and once every stabilisation
   has passed the alive set equals the correct members. If the whole
   scope eventually crashes, the quorum sticks to the last member(s) to
   crash, which belong to every earlier alive set. *)

type t = {
  fp : Failure_pattern.t;
  scope : Pset.t;
  (* Non-empty fallback once the entire scope has crashed. *)
  last_survivors : Pset.t;
}

let make ?restrict fp =
  let scope =
    match restrict with
    | Some s -> s
    | None -> Pset.range (Failure_pattern.n fp)
  in
  if Pset.is_empty scope then invalid_arg "Sigma.make: empty scope";
  let last_survivors =
    let latest =
      Pset.fold
        (fun p acc ->
          match Failure_pattern.crash_time fp p with
          | None -> acc
          | Some t -> max acc t)
        scope (-1)
    in
    Pset.filter
      (fun p ->
        match Failure_pattern.crash_time fp p with
        | None -> true
        | Some t -> t >= latest)
      scope
  in
  { fp; scope; last_survivors }

let query d p t =
  if not (Pset.mem p d.scope) then None
  else
    let alive = Pset.inter d.scope (Failure_pattern.alive_at d.fp t) in
    if Pset.is_empty alive then Some d.last_survivors else Some alive
