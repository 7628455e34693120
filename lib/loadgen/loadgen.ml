(* Workload generators for the heavy-traffic engine (DESIGN.md
   "Batching & group sharding"). Every draw flows through
   the caller's seeded Rng, so a generated workload is a pure function
   of (topology, rate, skew, duration, seed): replay, shrinking and the
   trace-identity suites keep working on generated traffic exactly as
   on hand-written scenarios. *)

(* Zipf-ish destination choice: group of rank i (0-based) has weight
   1 / (i + 1)^s with s = skew_pct / 100. [skew_pct = 0] is uniform;
   100 is the classic s = 1 hot-group skew. Drawn by inverting the
   cumulative weight at a [Rng.float] point. *)
let pick_group rng ~skew_pct topo =
  let g = Topology.num_groups topo in
  if skew_pct = 0 then Rng.int rng g
  else begin
    let s = float_of_int skew_pct /. 100. in
    let w = Array.init g (fun i -> 1. /. (float_of_int (i + 1) ** s)) in
    let total = Array.fold_left ( +. ) 0. w in
    let x = Rng.float rng total in
    let acc = ref 0. and chosen = ref (g - 1) in
    (try
       Array.iteri
         (fun i wi ->
           acc := !acc +. wi;
           if x < !acc then begin
             chosen := i;
             raise Exit
           end)
         w
     with Exit -> ());
    !chosen
  end

let request topo rng ~skew_pct ~id ~at =
  let dst = pick_group rng ~skew_pct topo in
  let src = Rng.pick_set rng (Topology.group topo dst) in
  { Workload.msg = Amsg.make ~id ~src ~dst topo; at }

let open_loop ~rng ~rate_pct ~skew_pct ~duration topo =
  if rate_pct < 1 then invalid_arg "Loadgen.open_loop: rate_pct < 1";
  if skew_pct < 0 then invalid_arg "Loadgen.open_loop: skew_pct < 0";
  if duration < 1 then invalid_arg "Loadgen.open_loop: duration < 1";
  let reqs = ref [] in
  let id = ref 0 in
  let push at =
    reqs := request topo rng ~skew_pct ~id:!id ~at :: !reqs;
    incr id
  in
  for t = 0 to duration - 1 do
    (* rate_pct / 100 arrivals per tick: the whole part always, the
       remainder as a Bernoulli draw — expected arrivals per tick are
       exactly rate_pct / 100 and the draw count is schedule-free. *)
    for _ = 1 to rate_pct / 100 do
      push t
    done;
    if Rng.int rng 100 < rate_pct mod 100 then push t
  done;
  List.rev !reqs
