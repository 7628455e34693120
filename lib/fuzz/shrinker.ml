open Scenario

let drop_nth l i = List.filteri (fun j _ -> j <> i) l

let map_nth l i f = List.mapi (fun j x -> if j = i then f x else x) l

(* Re-normalise through [make] so candidates stay canonical. *)
let rebuild s ?(n = s.n) ?(groups = s.groups) ?(crashes = s.crashes)
    ?(msgs = s.msgs) ?(schedule = s.schedule) ?(max_delay = s.max_delay)
    ?(faults = s.faults) () =
  make ~crashes ~msgs ~variant:s.variant ~ablation:s.ablation ~schedule
    ~max_delay ~seed:s.seed ~faults ~n groups

let drop_messages s =
  List.mapi (fun i _ -> rebuild s ~msgs:(drop_nth s.msgs i) ()) s.msgs

let remove_groups s =
  if List.length s.groups < 2 then []
  else
    List.mapi
      (fun g _ ->
        let groups = drop_nth s.groups g in
        let msgs =
          List.filter_map
            (fun (src, dst, at) ->
              if dst = g then None
              else Some (src, (if dst > g then dst - 1 else dst), at))
            s.msgs
        in
        rebuild s ~groups ~msgs ())
      s.groups

let drop_crashes s =
  List.mapi (fun i _ -> rebuild s ~crashes:(drop_nth s.crashes i) ()) s.crashes

let trim_universe s =
  let used =
    List.fold_left Pset.union Pset.empty s.groups
  in
  let rec top n = if n > 0 && not (Pset.mem (n - 1) used) then top (n - 1) else n in
  let n' = top s.n in
  if n' = s.n then []
  else
    let crashes = List.filter (fun (p, _) -> p < n') s.crashes in
    let schedule =
      match s.schedule with
      | Starve { p; _ } when p >= n' -> Free
      | Pinned moves
        when List.exists (function Some p -> p >= n' | None -> false) moves ->
          Free
      | sch -> sch
    in
    [ rebuild s ~n:n' ~crashes ~schedule () ]

let relax_schedule s =
  match s.schedule with
  | Free -> []
  | Starve { p; from_; len } ->
      rebuild s ~schedule:Free ()
      :: (if len > 1 then
            [ rebuild s ~schedule:(Starve { p; from_; len = len / 2 }) () ]
          else [])
      @
      if from_ > 0 then
        [ rebuild s ~schedule:(Starve { p; from_ = from_ / 2; len }) () ]
      else []
  | Pinned moves ->
      let k = List.length moves in
      rebuild s ~schedule:Free ()
      :: (if k > 1 then
            [
              rebuild s
                ~schedule:(Pinned (List.filteri (fun i _ -> i < k / 2) moves))
                ();
            ]
          else [])

let shrink_memberships s =
  List.concat
    (List.mapi
       (fun g members ->
         if Pset.cardinal members < 2 then []
         else
           List.filter_map
             (fun p ->
               let g' = Pset.remove p members in
               let needed =
                 List.exists (fun (src, dst, _) -> dst = g && src = p) s.msgs
               in
               let duplicate =
                 List.exists (Pset.equal g') (drop_nth s.groups g)
               in
               if needed || duplicate then None
               else Some (rebuild s ~groups:(map_nth s.groups g (fun _ -> g')) ()))
             (Pset.to_list members))
       s.groups)

let lower_crash_times s =
  List.concat
    (List.mapi
       (fun i (_, t) ->
         if t = 0 then []
         else [ rebuild s ~crashes:(map_nth s.crashes i (fun (p, t) -> (p, t / 2))) () ])
       s.crashes)

let lower_invocation_times s =
  List.concat
    (List.mapi
       (fun i (_, _, at) ->
         if at = 0 then []
         else
           [ rebuild s ~msgs:(map_nth s.msgs i (fun (src, dst, at) -> (src, dst, at / 2))) () ])
       s.msgs)

let lower_detector_delay s =
  if s.max_delay > 1 then [ rebuild s ~max_delay:(max 1 (s.max_delay / 2)) () ]
  else []

(* Weaken the channel-fault spec towards [none]: a violation that
   survives without faults (or with milder ones) is the simpler
   witness. Each move stays within [Channel_fault.validate] because it
   only lowers fields. *)
let weaken_faults s =
  let f = s.faults in
  if Channel_fault.is_none f then []
  else
    rebuild s ~faults:Channel_fault.none ()
    :: List.filter_map
         (fun f' ->
           if Channel_fault.equal f' f then None else Some (rebuild s ~faults:f' ()))
         [
           { f with Channel_fault.drop = f.Channel_fault.drop / 2 };
           { f with Channel_fault.dup = 0 };
           { f with Channel_fault.delay = f.Channel_fault.delay / 2 };
         ]

let candidates s =
  List.concat
    [
      drop_messages s;
      remove_groups s;
      drop_crashes s;
      trim_universe s;
      relax_schedule s;
      shrink_memberships s;
      lower_crash_times s;
      lower_invocation_times s;
      lower_detector_delay s;
      weaken_faults s;
    ]
  |> List.filter (fun c -> Scenario.validate c = Ok ())

type stats = { steps : int; checks : int }

let minimize s =
  let checks = ref 0 and steps = ref 0 in
  let failing s =
    incr checks;
    Scenario.check s <> Ok ()
  in
  let rec descend s =
    let rec first = function
      | [] -> s
      | c :: rest ->
          if !checks >= 500 then s
          else if failing c then begin
            incr steps;
            descend c
          end
          else first rest
    in
    first (candidates s)
  in
  let final = if failing s then descend s else s in
  (final, { steps = !steps; checks = !checks })
