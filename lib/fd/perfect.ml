type t = { fp : Failure_pattern.t; seed : int; max_delay : int }

let make ?(max_delay = 5) ~seed fp = { fp; seed; max_delay }

(* Detection delays depend only on the crashed process, so suspicion
   order is identical at every observer — this keeps the quorums that
   [Derive.mu_of_perfect] extracts intersecting even when a whole scope
   crashes. *)
let query d _p t =
  let suspected q =
    match Failure_pattern.crash_time d.fp q with
    | None -> false
    | Some ct ->
        let delay =
          (* Fixed seed-0 hash over an int pair: deterministic across
             runs; derives the per-process detection delay only. *)
          if d.max_delay = 0 then 0
          else
            (Hashtbl.hash (d.seed, q) [@lint.allow "poly-compare"])
            mod (d.max_delay + 1)
        in
        t >= ct + delay
  in
  Pset.filter suspected (Pset.range (Failure_pattern.n d.fp))

let settle d =
  if Pset.is_empty (Failure_pattern.faulty d.fp) then 0
  else Failure_pattern.max_crash_time d.fp + d.max_delay
