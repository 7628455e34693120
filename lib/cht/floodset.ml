type outcome = G | H

let pp_outcome fmt = function
  | G -> Format.pp_print_string fmt "g"
  | H -> Format.pp_print_string fmt "h"

let out_min a b = if a = G || b = G then G else H

type pstate = {
  round : int; (* 1 .. rounds; rounds+1 once decided *)
  seen : outcome list; (* sorted set of inputs seen *)
  received : (int * int) list; (* sorted (round, from) pairs *)
  decided : outcome option;
}

type message = { dst : int; src : int; mround : int; mseen : outcome list }

type config = { ps : pstate array; buffer : message list; level : int }

type step = { proc : int; msg : int option; sample : int }

type t = { k : int; rounds : int; samples : bool array array }

let create ~procs ~rounds ~samples =
  Array.iteri
    (fun lvl row ->
      if Array.length row <> procs then invalid_arg "Floodset.create: sample arity";
      if lvl > 0 then
        Array.iteri
          (fun q s ->
            if samples.(lvl - 1).(q) && not s then
              invalid_arg "Floodset.create: suspicions must be monotone")
          row)
    samples;
  { k = procs; rounds; samples }

let compare_outcome a b =
  match (a, b) with
  | G, G | H, H -> 0
  | G, H -> -1
  | H, G -> 1

let compare_received (r, s) (r', s') =
  let c = Int.compare r r' in
  if c <> 0 then c else Int.compare s s'

let union_seen a b = List.sort_uniq compare_outcome (a @ b)

let broadcast t p round seen =
  List.filter_map
    (fun q -> if q = p then None else Some { dst = q; src = p; mround = round; mseen = seen })
    (List.init t.k Fun.id)

let initial t ~inputs =
  if Array.length inputs <> t.k then invalid_arg "Floodset.initial: arity";
  let ps =
    Array.map
      (fun input -> { round = 1; seen = [ input ]; received = []; decided = None })
      inputs
  in
  let buffer =
    List.concat (List.init t.k (fun p -> broadcast t p 1 ps.(p).seen))
  in
  { ps; buffer; level = 0 }

let decide seen = List.fold_left out_min H seen

(* Advance p past its current round if every unsuspected peer's
   message for that round has been processed. Returns None if the
   precondition fails. *)
let try_advance t cfg p lvl =
  let st = cfg.ps.(p) in
  if st.decided <> None || st.round > t.rounds then None
  else
    let ready =
      List.for_all
        (fun q ->
          q = p || t.samples.(lvl).(q) || List.mem (st.round, q) st.received)
        (List.init t.k Fun.id)
    in
    if not ready then None
    else
      let round = st.round + 1 in
      if round > t.rounds then
        Some ({ st with round; decided = Some (decide st.seen) }, [])
      else Some ({ st with round }, broadcast t p round st.seen)

let nth_message cfg p i =
  let mine = List.filteri (fun _ m -> m.dst = p) cfg.buffer in
  List.nth_opt mine i

let remove_message cfg p i =
  let rec loop j acc = function
    | [] -> List.rev acc
    | m :: rest ->
        if m.dst = p then
          if j = i then List.rev_append acc rest
          else loop (j + 1) (m :: acc) rest
        else loop j (m :: acc) rest
  in
  loop 0 [] cfg.buffer

let apply t cfg step =
  let p = step.proc in
  let st = cfg.ps.(p) in
  let st, buffer =
    match step.msg with
    | None -> (st, cfg.buffer)
    | Some i -> (
        match nth_message cfg p i with
        | None -> invalid_arg "Floodset.apply: no such message"
        | Some m ->
            ( {
                st with
                seen = union_seen st.seen m.mseen;
                received =
                  List.sort_uniq compare_received
                    ((m.mround, m.src) :: st.received);
              },
              remove_message cfg p i ))
  in
  let ps = Array.copy cfg.ps in
  ps.(p) <- st;
  let cfg = { ps; buffer; level = max cfg.level step.sample } in
  match try_advance t cfg p step.sample with
  | None -> cfg
  | Some (st', sends) ->
      let ps = Array.copy cfg.ps in
      ps.(p) <- st';
      { cfg with ps; buffer = cfg.buffer @ sends }

let enabled t cfg =
  let levels = List.init (Array.length t.samples) Fun.id in
  let levels = List.filter (fun l -> l >= cfg.level) levels in
  List.concat_map
    (fun p ->
      if cfg.ps.(p).decided <> None then []
      else
        List.concat_map
          (fun lvl ->
            if t.samples.(lvl).(p) then [] (* p crashed by this sample's time *)
            else
              let pending =
                List.length (List.filter (fun m -> m.dst = p) cfg.buffer)
              in
              let receives =
                List.init pending (fun i -> { proc = p; msg = Some i; sample = lvl })
              in
              (* m_⊥ steps only when they change the state. *)
              let nulls =
                match try_advance t cfg p lvl with
                | Some _ -> [ { proc = p; msg = None; sample = lvl } ]
                | None -> []
              in
              receives @ nulls)
          levels)
    (List.init t.k Fun.id)

let decided t cfg =
  ignore t;
  Array.fold_left
    (fun acc st -> match acc with Some _ -> acc | None -> st.decided)
    None cfg.ps

let step_message t cfg (s : step) =
  ignore t;
  match s.msg with
  | None -> None
  | Some i -> (
      match nth_message cfg s.proc i with
      | None -> None
      | Some m -> Some (m.src, m.mround))
