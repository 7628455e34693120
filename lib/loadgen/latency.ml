(* Deterministic latency accounting over a run's trace: a message's
   latency is the tick span from its [Invoke] to the last delivery at a
   correct member of its destination group, counted only when every
   correct member delivered (the completion criterion of atomic
   multicast termination). All in simulated ticks — wall-clock never
   enters, so the numbers are bit-reproducible from the seed. *)

(* Nearest-rank percentile over unsorted samples: the value at rank
   ⌈q·n/100⌉ (1-based, floored at 1) of the sorted list. Total on
   q ∈ [0, 100] and n ≥ 1; [None] only on the empty list. *)
let percentile samples q =
  match samples with
  | [] -> None
  | _ ->
      let sorted = List.sort Int.compare samples in
      let n = List.length sorted in
      let rank = max 1 (((q * n) + 99) / 100) in
      Some (List.nth sorted (min n rank - 1))

(* Latency sample of message m, if complete: deliveries at crashed
   processes don't count towards completion (a faulty member may stop
   anywhere), but every correct destination member must have
   delivered. *)
let sample_of outcome m =
  let { Runner.topo; fp; trace; _ } = outcome in
  match Trace.invoke_time trace ~m with
  | None -> None
  | Some t0 ->
      let dst = (Workload.message outcome.Runner.workload m).Amsg.dst in
      let members =
        Pset.inter (Failure_pattern.correct fp) (Topology.group topo dst)
      in
      let complete =
        Pset.for_all (fun p -> Trace.delivered_at trace ~p ~m) members
      in
      if not complete then None
      else
        let last =
          List.fold_left
            (fun acc (p, m', t, _) ->
              if m' = m && Pset.mem p members then max acc t else acc)
            t0
            (Trace.deliveries trace)
        in
        Some (last - t0)

let samples outcome =
  List.filter_map
    (fun m -> sample_of outcome m)
    (Trace.invoked outcome.Runner.trace)

(* Simulated makespan of a set of outcomes, in ticks: first invoke to
   last delivery, inclusive. Shards of one scenario share the global
   clock (every shard's engine starts at tick 0), so the makespan of a
   sharded run is the max over shards, not the sum — pass all outcomes
   together. 0 when nothing was both invoked and delivered. *)
let span outcomes =
  let lo, hi =
    List.fold_left
      (fun (lo, hi) o ->
        let trace = o.Runner.trace in
        let lo =
          List.fold_left
            (fun lo m ->
              match Trace.invoke_time trace ~m with
              | Some t -> min lo t
              | None -> lo)
            lo (Trace.invoked trace)
        in
        let hi =
          List.fold_left
            (fun hi (_, _, t, _) -> max hi t)
            hi (Trace.deliveries trace)
        in
        (lo, hi))
      (max_int, -1) outcomes
  in
  if hi < 0 || lo = max_int then 0 else hi - lo + 1
