type t = {
  scope : Pset.t;
  target : Pset.t;
  fault_time : Failure_pattern.time option;
  seed : int;
  max_delay : int;
}

let make ?(max_delay = 5) ~seed ~scope ~target fp =
  if Pset.is_empty target then invalid_arg "Indicator.make: empty target";
  let fault_time = Failure_pattern.set_faulty_at fp target 0 in
  { scope; target; fault_time; seed; max_delay }

let query d p t =
  if not (Pset.mem p d.scope) then None
  else
    match d.fault_time with
    | None -> Some false
    | Some ft ->
        let delay =
          (* Fixed seed-0 hash over an int pair: deterministic across
             runs; derives the per-process indication delay only. *)
          if d.max_delay = 0 then 0
          else
            (Hashtbl.hash (d.seed, p) [@lint.allow "poly-compare"])
            mod (d.max_delay + 1)
        in
        Some (t >= ft + delay)
