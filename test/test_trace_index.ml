(* The Trace index is pure memoization: every indexed query must return
   exactly what the original cons-list scan returned, for well-formed
   traces (monotone seqs, as the engine emits) AND for adversarial ones
   (duplicate events, repeated seqs, arbitrary interleavings), probed
   both inside and outside the id ranges the trace mentions. *)

let t = Alcotest.test_case

(* The pre-index query bodies, verbatim. *)

let naive_deliveries events =
  List.filter_map
    (function
      | Trace.Deliver { m; p; time; seq } -> Some (p, m, time, seq) | _ -> None)
    events

let naive_delivery_order events p =
  List.filter_map
    (function Trace.Deliver d when d.p = p -> Some d.m | _ -> None)
    events

let naive_delivered_at events ~p ~m =
  List.exists
    (function Trace.Deliver d -> d.p = p && d.m = m | _ -> false)
    events

let naive_delivery_seq events ~p ~m =
  List.find_map
    (function
      | Trace.Deliver d when d.p = p && d.m = m -> Some d.seq | _ -> None)
    events

let naive_first_delivery_seq events ~m =
  List.find_map
    (function Trace.Deliver d when d.m = m -> Some d.seq | _ -> None)
    events

let naive_invoke_seq events ~m =
  List.find_map
    (function Trace.Invoke i when i.m = m -> Some i.seq | _ -> None)
    events

let naive_invoked events =
  List.filter_map (function Trace.Invoke i -> Some i.m | _ -> None) events

let naive_phase_history events ~p ~m =
  List.filter_map
    (function
      | Trace.Phase_change c when c.p = p && c.m = m -> Some c.phase
      | Trace.Deliver d when d.p = p && d.m = m -> Some Trace.Delivered
      | _ -> None)
    events

(* Probe every query over a grid that overshoots the mentioned ids on
   both sides (negative and past-the-end probes must agree too). The
   phase histories are built on the first [phase_history] query, so
   the grid runs on three fresh traces: with [phase_history] asked
   among the other queries, before them all, and after them all. *)
let agrees ~n events =
  let pmax = n + 2 and mmax = 8 in
  let ps = List.init (pmax + 2) (fun i -> i - 1)
  and ms = List.init (mmax + 2) (fun i -> i - 1) in
  let cells f = List.for_all (fun p -> List.for_all (fun m -> f ~p ~m) ms) ps in
  let history tr ~p ~m =
    Trace.phase_history tr ~p ~m = naive_phase_history events ~p ~m
  in
  let others tr ~also =
    Trace.deliveries tr = naive_deliveries events
    && Trace.invoked tr = naive_invoked events
    && List.for_all
         (fun p -> Trace.delivery_order tr p = naive_delivery_order events p)
         ps
    && List.for_all
         (fun m ->
           Trace.first_delivery_seq tr ~m = naive_first_delivery_seq events ~m
           && Trace.invoke_seq tr ~m = naive_invoke_seq events ~m)
         ms
    && cells (fun ~p ~m ->
           Trace.delivered_at tr ~p ~m = naive_delivered_at events ~p ~m
           && Trace.delivery_seq tr ~p ~m = naive_delivery_seq events ~p ~m
           && also tr ~p ~m)
  in
  let nothing _ ~p:_ ~m:_ = true in
  let among = Trace.make ~n events
  and first = Trace.make ~n events
  and last = Trace.make ~n events in
  others among ~also:history
  && cells (history first)
  && others first ~also:nothing
  && others last ~also:nothing
  && cells (history last)

let phases = [| Trace.Start; Pending; Commit; Stable; Delivered |]

let event_gen ~n ~mb ~seq =
  QCheck.Gen.(
    int_range 0 3 >>= fun kind ->
    int_range 0 (n - 1) >>= fun p ->
    int_range 0 (mb - 1) >>= fun m ->
    int_range 0 20 >>= fun time ->
    match kind with
    | 0 -> return (Trace.Invoke { m; p; time; seq })
    | 1 -> return (Trace.Send { m; p; time; seq })
    | 2 ->
        int_range 0 (Array.length phases - 1) >>= fun ph ->
        return (Trace.Phase_change { m; p; phase = phases.(ph); time; seq })
    | _ -> return (Trace.Deliver { m; p; time; seq }))

(* Well-formed: one event per seq, seqs 0, 1, 2, ... in list order —
   the shape the engine emits. *)
let well_formed_gen =
  QCheck.Gen.(
    int_range 1 5 >>= fun n ->
    int_range 1 6 >>= fun mb ->
    int_range 0 40 >>= fun len ->
    let rec build seq acc =
      if seq >= len then return (n, List.rev acc)
      else event_gen ~n ~mb ~seq >>= fun ev -> build (seq + 1) (ev :: acc)
    in
    build 0 [])

(* Adversarial: seqs drawn independently (duplicates, non-monotone),
   repeated events, and processes past the declared universe. *)
let adversarial_gen =
  QCheck.Gen.(
    int_range 1 4 >>= fun n ->
    int_range 1 6 >>= fun mb ->
    int_range 0 40 >>= fun len ->
    let rand_event _ =
      int_range 0 12 >>= fun seq -> event_gen ~n:(n + 2) ~mb ~seq
    in
    flatten_l (List.init len rand_event) >>= fun evs ->
    (* duplicate a prefix to force repeated (p, m) deliveries *)
    int_range 0 (List.length evs) >>= fun k ->
    return (n, List.filteri (fun i _ -> i < k) evs @ evs))

let arbitrary_of gen =
  QCheck.make
    ~print:(fun (n, evs) ->
      Format.asprintf "n=%d@ %a" n
        (Format.pp_print_list Trace.pp_event)
        evs)
    gen

let indexed_matches_naive name gen =
  QCheck.Test.make ~name ~count:300 (arbitrary_of gen) (fun (n, events) ->
      agrees ~n events)

let index_is_idempotent () =
  (* Querying twice (index built once, then reused) and rebuilding via
     a fresh trace give the same answers. *)
  let events =
    [
      Trace.Invoke { m = 0; p = 0; time = 0; seq = 0 };
      Trace.Deliver { m = 0; p = 0; time = 1; seq = 1 };
      Trace.Deliver { m = 0; p = 0; time = 2; seq = 2 };
    ]
  in
  let tr = Trace.make ~n:1 events in
  let first = Trace.delivery_seq tr ~p:0 ~m:0 in
  let second = Trace.delivery_seq tr ~p:0 ~m:0 in
  Alcotest.(check (option int)) "memoized query stable" first second;
  Alcotest.(check (option int)) "duplicate delivery keeps first seq" (Some 1) first;
  Alcotest.(check int) "deliveries keeps duplicates" 2
    (List.length (Trace.deliveries tr))

let suite =
  [ t "index memoization" `Quick index_is_idempotent ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        indexed_matches_naive "trace index: well-formed traces" well_formed_gen;
        indexed_matches_naive "trace index: adversarial traces" adversarial_gen;
      ]
