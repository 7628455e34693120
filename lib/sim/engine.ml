type stats = {
  steps : int array;
  executed : int;
  ticks_used : int;
  quiescent : bool;
}

let run ~fp ~horizon ?(quiesce_after = 0) ?(live_until = fun () -> 0)
    ?(seed = 1) ?scheduled
    ?(enabled = fun ~pid:(_ : int) ~time:(_ : int) -> true)
    ?(steps_per_tick = 1) ?(on_tick = fun (_ : int) -> ()) ~step () =
  let n = Failure_pattern.n fp in
  let rng = Rng.make seed in
  let steps = Array.make n 0 in
  let executed = ref 0 in
  (* The alive set only changes at crash times, and the per-tick
     shuffle consumes one draw sequence per |sched| regardless of the
     elements — so the scheduled set and its element list can be
     reused across ticks whenever they are unchanged, without touching
     the RNG stream. *)
  let max_crash = Failure_pattern.max_crash_time fp in
  let alive_memo = ref None in
  let alive t =
    if t < max_crash then Failure_pattern.alive_at fp t
    else
      match !alive_memo with
      | Some a -> a
      | None ->
          let a = Failure_pattern.alive_at fp t in
          alive_memo := Some a;
          a
  in
  let order_memo = ref (Pset.empty, []) in
  (* Once every crash is in the past and no custom schedule narrows the
     set, [sched] is the constant memoized alive set — skip even the
     Pset.equal probe from then on (same trick as [alive_memo]). *)
  let no_custom = Option.is_none scheduled in
  let steady = ref false in
  let elements ~t sched =
    if !steady then snd !order_memo
    else begin
      let cached_set, cached_list = !order_memo in
      let l =
        if Pset.equal sched cached_set then cached_list
        else begin
          let l = Pset.to_list sched in
          order_memo := (sched, l);
          l
        end
      in
      if no_custom && t >= max_crash then steady := true;
      l
    end
  in
  let rec tick t =
    if t > horizon then
      { steps; executed = !executed; ticks_used = t; quiescent = false }
    else begin
      on_tick t;
      let sched =
        match scheduled with
        | None -> alive t
        | Some f -> Pset.inter (f t) (alive t)
      in
      let order = Rng.shuffle rng (elements ~t sched) in
      let any = ref false in
      List.iter
        (fun p ->
          (* The hint only short-circuits the step call: the shuffle
             above already consumed the tick's RNG draw over the full
             scheduled set, so runs with and without it are identical. *)
          if enabled ~pid:p ~time:t then
            let rec attempts k =
              if k > 0 && step ~pid:p ~time:t then begin
                steps.(p) <- steps.(p) + 1;
                incr executed;
                any := true;
                attempts (k - 1)
              end
            in
            attempts steps_per_tick)
        order;
      (* [live_until] is re-queried every tick: delayed channel copies
         (fault injection) can enable guards by time alone, so a silent
         tick is only quiescent once no arrival is still pending. *)
      if (not !any) && t >= quiesce_after && t >= live_until () then
        { steps; executed = !executed; ticks_used = t; quiescent = true }
      else tick (t + 1)
    end
  in
  tick 0

(* A pinned run executes one prescribed move per tick: tick [t] offers
   the step only to [moves.(t)] ([None] lets the tick pass with nobody
   scheduled). Built on [run]'s [~scheduled] hook, so crash filtering
   and the per-tick draw discipline are exactly those of a free run;
   the shuffle of a singleton (or empty) scheduled set is
   order-trivial, so the engine's default seed serves every run. The
   explorer (lib/explore) derives each child from a copy of its
   parent plus the one tick this function would run, and its tests
   take this function as the reference for derived children. *)
let run_pinned ~fp ~(moves : int option array) ~step () =
  let d = Array.length moves in
  let fired = Array.make (max d 1) false in
  let scheduled t =
    if t >= d then Pset.empty
    else match moves.(t) with Some p -> Pset.singleton p | None -> Pset.empty
  in
  let step ~pid ~time =
    let r = step ~pid ~time in
    if r && time < d then fired.(time) <- true;
    r
  in
  let stats =
    run ~fp ~horizon:(d - 1) ~quiesce_after:d ~scheduled ~step ()
  in
  (stats, Array.sub fired 0 d)
