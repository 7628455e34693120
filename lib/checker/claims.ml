type verdict = (unit, string) result

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let compare_key (g, h) (g', h') =
  let c = Int.compare g g' in
  if c <> 0 then c else Int.compare h h'

let pp_d = Algorithm1.pp_datum

(* d <_L d' over snapshot entries: by position, ties by the a-priori
   datum order (the implementation's Algorithm1.compare_datum). *)
let snap_lt (d, pos, _) (d', pos', _) =
  pos < pos' || (pos = pos' && Algorithm1.compare_datum d d' < 0)

type entry = Algorithm1.datum * int * bool

(* One snapshot of one log, as arrays. [rank.(i)] is entry [i]'s rank
   under <_L and [by_rank] its inverse; [other.(i)] is the index of the
   same datum in the other snapshot of the pair, or -1. *)
type side = {
  es : entry array;
  rank : int array;
  by_rank : int array;
  other : int array;
}

let datum ((d, _, _) : entry) = d
let pos ((_, p, _) : entry) = p
let locked ((_, _, l) : entry) = l

(* A list in log order, as every [Log] snapshot is, ranks by its
   indices; any other is sorted once. *)
let side_of l =
  let es = Array.of_list l in
  let n = Array.length es in
  let in_order = ref true in
  for i = 1 to n - 1 do
    if not (snap_lt es.(i - 1) es.(i)) then in_order := false
  done;
  let by_rank = Array.init n Fun.id in
  if not !in_order then
    Array.stable_sort
      (fun i j ->
        if snap_lt es.(i) es.(j) then -1
        else if snap_lt es.(j) es.(i) then 1
        else 0)
      by_rank;
  let rank = Array.make n 0 in
  Array.iteri (fun r i -> rank.(i) <- r) by_rank;
  { es; rank; by_rank; other = Array.make n (-1) }

(* Join the two snapshots by datum. A tick keeps every entry in order
   but the bumped ones, so each lookup scans forward from just after
   the previous match, wrapping round once. *)
let join la lb =
  let a = side_of la and b = side_of lb in
  let nb = Array.length b.es in
  let cursor = ref 0 in
  Array.iteri
    (fun i e ->
      let d = datum e in
      let rec find k =
        if k = nb then ()
        else
          let j = if !cursor + k < nb then !cursor + k else !cursor + k - nb in
          if Algorithm1.compare_datum (datum b.es.(j)) d = 0 then begin
            a.other.(i) <- j;
            b.other.(j) <- i;
            cursor := if j + 1 = nb then 0 else j + 1
          end
          else find (k + 1)
      in
      find 0)
    a.es;
  (a, b)

(* The first index of [es], in list order, satisfying [bad]. *)
let first_index es bad =
  let n = Array.length es in
  let rec go i = if i = n then None else if bad i then Some i else go (i + 1) in
  go 0

(* Claims 2–8 on one changed log. Each reports the first entry, in
   list order, that breaks its law. *)

let law2 (a, _) =
  match first_index a.es (fun i -> a.other.(i) < 0) with
  | Some i -> fail "claim 2: %a vanished from a log" pp_d (datum a.es.(i))
  | None -> Ok ()

let law3 (a, b) =
  let bad i = a.other.(i) >= 0 && pos b.es.(a.other.(i)) < pos a.es.(i) in
  match first_index a.es bad with
  | Some i -> fail "claim 3: position of %a decreased" pp_d (datum a.es.(i))
  | None -> Ok ()

let law4 (a, b) =
  let bad i =
    locked a.es.(i) && (a.other.(i) < 0 || not (locked b.es.(a.other.(i))))
  in
  match first_index a.es bad with
  | Some i -> fail "claim 4: %a was unlocked" pp_d (datum a.es.(i))
  | None -> Ok ()

let law5 (a, b) =
  let bad i =
    locked a.es.(i)
    && (a.other.(i) < 0 || pos b.es.(a.other.(i)) <> pos a.es.(i))
  in
  match first_index a.es bad with
  | Some i -> fail "claim 5: locked %a moved" pp_d (datum a.es.(i))
  | None -> Ok ()

(* A locked d keeps above it in b every d' above it in a iff the
   smallest b-rank among the entries of both snapshots above d in a is
   above d's: [above.(r)] is that minimum over a-ranks from r up. *)
let law6 (a, b) =
  let na = Array.length a.es and nb = Array.length b.es in
  let above = Array.make (na + 1) nb in
  for r = na - 1 downto 0 do
    above.(r) <- above.(r + 1);
    let j = a.other.(a.by_rank.(r)) in
    if j >= 0 then above.(r) <- min b.rank.(j) above.(r)
  done;
  let bad i =
    locked a.es.(i)
    && a.other.(i) >= 0
    && above.(a.rank.(i) + 1) < b.rank.(a.other.(i))
  in
  match first_index a.es bad with
  | None -> Ok ()
  | Some i ->
      let flipped i' =
        a.other.(i') >= 0
        && a.rank.(i') > a.rank.(i)
        && b.rank.(a.other.(i')) < b.rank.(a.other.(i))
      in
      let i' = Option.get (first_index a.es flipped) in
      fail "claim 6: order %a < %a flipped" pp_d (datum a.es.(i)) pp_d
        (datum a.es.(i'))

(* A fresh datum must sit above every datum locked in a, and above
   all of them iff above the highest: a locked datum gone from b
   counts as above everything. *)
let law7 (a, b) =
  let nb = Array.length b.es in
  let b_rank i = if a.other.(i) < 0 then nb else b.rank.(a.other.(i)) in
  let top = ref (-1) in
  Array.iteri (fun i e -> if locked e then top := max !top (b_rank i)) a.es;
  match first_index b.es (fun j -> b.other.(j) < 0 && b.rank.(j) < !top) with
  | None -> Ok ()
  | Some j ->
      let below i = locked a.es.(i) && b_rank i > b.rank.(j) in
      let i = Option.get (first_index a.es below) in
      fail "claim 7: fresh %a below locked %a" pp_d (datum b.es.(j)) pp_d
        (datum a.es.(i))

(* A locked d gains a predecessor iff some entry below it in b is
   fresh or was above it in a: [below.(r)] is the largest a-rank over
   b-ranks under r, a fresh entry counting as above everything. *)
let law8 (a, b) =
  let na = Array.length a.es and nb = Array.length b.es in
  let below = Array.make (nb + 1) (-1) in
  for r = 0 to nb - 1 do
    let i = b.other.(b.by_rank.(r)) in
    below.(r + 1) <- max below.(r) (if i >= 0 then a.rank.(i) else na)
  done;
  let bad i =
    locked a.es.(i)
    && a.other.(i) >= 0
    && below.(b.rank.(a.other.(i))) > a.rank.(i)
  in
  match first_index a.es bad with
  | Some i ->
      fail "claim 8: locked %a gained a predecessor" pp_d (datum a.es.(i))
  | None -> Ok ()

let log_laws = [ law2; law3; law4; law5; law6; law7; law8 ]

(* Keys sorted and each key's first binding kept, so a pair's keys and
   logs are those [sort_uniq] and [List.assoc_opt] give the reference.
   A snapshot whose keys already strictly ascend, as every recorded
   one's do, is returned as it is. *)
let normalise snap =
  let rec ascending = function
    | (k, _) :: ((k', _) :: _ as rest) ->
        compare_key k k' < 0 && ascending rest
    | _ -> true
  in
  let rec first_bindings = function
    | ((k, _) as kb) :: (k', _) :: rest when compare_key k k' = 0 ->
        first_bindings (kb :: rest)
    | kb :: rest -> kb :: first_bindings rest
    | [] -> []
  in
  if ascending snap then snap
  else
    first_bindings
      (List.stable_sort (fun (k, _) (k', _) -> compare_key k k') snap)

(* [lb] extends [la] in place: entry i of [la] is entry i of [lb] with
   its datum and position and no lock lost, any further entries follow,
   and [lb] is in strict <_L order. Then the join maps i to i, the old
   entries keep their ranks and every fresh one ranks above them all,
   so every law holds when each datum is in a log at most once. *)
let extends la lb =
  let rec kept la lb =
    match (la, lb) with
    | [], _ -> true
    | _ :: _, [] -> false
    | (d, p, l) :: la', (d', p', l') :: lb' ->
        p = p' && (l' || not l) && Algorithm1.compare_datum d d' = 0
        && kept la' lb'
  in
  let rec ordered = function
    | e :: (e' :: _ as rest) -> snap_lt e e' && ordered rest
    | _ -> true
  in
  la == lb || (kept la lb && ordered lb)

(* The one walk behind claims 2–8: consecutive snapshot pairs (final
   state included), and within a pair every log key in sorted order,
   merged in one pass. A claim that has failed keeps its first witness
   and is not run again. A log whose newer list extends the older one
   in place (the same list, for a log the tick left untouched) is
   skipped, since every law holds on it. *)
let log_claims outcome =
  let visit verdicts la lb =
    if extends la lb then verdicts
    else
      let p = join la lb in
      List.map2
        (fun law v -> if Result.is_ok v then law p else v)
        log_laws verdicts
  in
  let rec merge verdicts a b =
    match (a, b) with
    | (k, la) :: a', (k', lb) :: b' ->
        let c = compare_key k k' in
        if c = 0 then merge (visit verdicts la lb) a' b'
        else if c < 0 then merge (visit verdicts la []) a' b
        else merge (visit verdicts [] lb) a b'
    | (_, la) :: a', [] -> merge (visit verdicts la []) a' []
    | [], (_, lb) :: b' -> merge (visit verdicts [] lb) [] b'
    | [], [] -> verdicts
  in
  let rec walk verdicts = function
    | a :: (b :: _ as rest) when List.exists Result.is_ok verdicts ->
        walk (merge verdicts a b) rest
    | _ -> verdicts
  in
  walk
    (List.map (fun _ -> Ok ()) log_laws)
    (List.map (fun (_, s) -> normalise s) outcome.Runner.snapshots
    @ [ normalise outcome.Runner.final_logs ])

let claim9 outcome =
  let cx = Outcome_index.make outcome in
  let tr = outcome.Runner.trace in
  let ids = Outcome_index.ids cx in
  let bd = Outcome_index.bound cx in
  (* The old check recomputed the ↦ edge list inside the pair loop;
     compute it once and flatten it (symmetrically) into a matrix. *)
  let rel = Bytes.make (bd * bd) '\000' in
  List.iter
    (fun (a, b) ->
      Bytes.set rel ((a * bd) + b) '\001';
      Bytes.set rel ((b * bd) + a) '\001')
    (Properties.delivery_edges outcome);
  let related m m' = Bytes.get rel ((m * bd) + m') <> '\000' in
  (* Claim 9 as stated quantifies over del(m) anywhere, but the ↦ edges
     only arise from deliveries inside the common destination members;
     when every member of the intersection crashes before delivering
     either message, the pair is legitimately unrelated. We check the
     claim in the form its uses need: a delivery of either message at a
     common member relates the pair. *)
  let delivered_at_common common m =
    Pset.exists (fun p -> Trace.delivered_at tr ~p ~m) common
  in
  List.fold_left
    (fun acc m ->
      let* () = acc in
      List.fold_left
        (fun acc m' ->
          let* () = acc in
          if m >= m' then Ok ()
          else
            let common =
              Pset.inter (Outcome_index.dst cx m) (Outcome_index.dst cx m')
            in
            if
              (not (Pset.is_empty common))
              && (delivered_at_common common m
                 || delivered_at_common common m')
              && not (related m m')
            then fail "claim 9: delivered m%d and m%d are not ↦-related" m m'
            else Ok ())
        (Ok ()) ids)
    (Ok ()) ids

let claim10 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc ((g, h), entries) ->
      let* () = acc in
      List.fold_left
        (fun acc (d, _, _) ->
          let* () = acc in
          match d with
          | Algorithm1.Msg m ->
              let dm = Outcome_index.gid cx m in
              if dm = g || dm = h then Ok ()
              else fail "claim 10: m%d in LOG_{g%d∩g%d}" m g h
          | Algorithm1.Pend _ | Algorithm1.Stab _ -> Ok ())
        (Ok ()) entries)
    (Ok ()) outcome.Runner.final_logs

let claim11 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc ((g, h), entries) ->
      let* () = acc in
      let msgs =
        List.filter_map
          (function Algorithm1.Msg m, _, _ -> Some m | _ -> None)
          entries
      in
      List.fold_left
        (fun acc m ->
          let* () = acc in
          List.fold_left
            (fun acc m' ->
              let* () = acc in
              if m >= m' then Ok ()
              else
                let ok x = x = g || x = h in
                if ok (Outcome_index.gid cx m) && ok (Outcome_index.gid cx m')
                then Ok ()
                else fail "claim 11: m%d, m%d share LOG_{g%d∩g%d}" m m' g h)
            (Ok ()) msgs)
        (Ok ()) msgs)
    (Ok ()) outcome.Runner.final_logs

let claim12 outcome =
  let cx = Outcome_index.make outcome in
  List.fold_left
    (fun acc (p, m, _, _) ->
      let* () = acc in
      if Pset.mem p (Outcome_index.dst cx m) then Ok ()
      else fail "claim 12: p%d delivered m%d outside dst" p m)
    (Ok ())
    (Trace.deliveries outcome.Runner.trace)

let claim13 outcome =
  let cx = Outcome_index.make outcome in
  (* Per destination group, the set of message ids in LOG_g; built on
     first use so each log is scanned once instead of per delivery. *)
  let memo = Hashtbl.create 8 in
  let log_has g m =
    let tbl =
      match Hashtbl.find_opt memo g with
      | Some tbl -> tbl
      | None ->
          let tbl = Hashtbl.create 16 in
          (match List.assoc_opt (g, g) outcome.Runner.final_logs with
          | Some entries ->
              List.iter
                (fun (d, _, _) ->
                  match d with
                  | Algorithm1.Msg m' -> Hashtbl.replace tbl m' ()
                  | _ -> ())
                entries
          | None -> ());
          Hashtbl.replace memo g tbl;
          tbl
    in
    Hashtbl.mem tbl m
  in
  List.fold_left
    (fun acc (_, m, _, _) ->
      let* () = acc in
      let g = Outcome_index.gid cx m in
      if log_has g m then Ok ()
      else fail "claim 13: delivered m%d missing from LOG_g%d" m g)
    (Ok ())
    (Trace.deliveries outcome.Runner.trace)

let expected_progression =
  [ Trace.Pending; Trace.Commit; Trace.Stable; Trace.Delivered ]

let claim14 outcome =
  let tr = outcome.Runner.trace in
  List.fold_left
    (fun acc (p, m, _, _) ->
      let* () = acc in
      let hist = Trace.phase_history tr ~p ~m in
      if hist = expected_progression then Ok ()
      else fail "claim 14: m%d at p%d skipped a phase" m p)
    (Ok ()) (Trace.deliveries tr)

(* One pass over the events keeps, per (p, m), the last phase rank seen,
   or [regressed] from the first rank that fails to rise on (no rank
   rises above it); the first regressed (p, m) in p-then-m order is the
   witness. *)
let claim15 outcome =
  let events = outcome.Runner.trace.Trace.events in
  let np, nm =
    List.fold_left
      (fun (np, nm) -> function
        | Trace.Phase_change { m; p; _ } | Trace.Deliver { m; p; _ } ->
            (max np (p + 1), max nm (m + 1))
        | _ -> (np, nm))
      (0, 0) events
  in
  let regressed = max_int in
  let last = Array.make (np * nm) (-1) in
  let see p m ph =
    let k = (p * nm) + m and r = Trace.phase_rank ph in
    last.(k) <- (if r > last.(k) then r else regressed)
  in
  List.iter
    (function
      | Trace.Phase_change { m; p; phase; _ } -> see p m phase
      | Trace.Deliver { m; p; _ } -> see p m Trace.Delivered
      | _ -> ())
    events;
  let rec first k =
    if k = np * nm then Ok ()
    else if last.(k) = regressed then
      fail "claim 15: phase of m%d regressed at p%d" (k mod nm) (k / nm)
    else first (k + 1)
  in
  first 0

let all outcome =
  List.mapi
    (fun i v -> (Printf.sprintf "claim %d" (i + 2), v))
    (log_claims outcome)
  @ [
      ("claim 9", claim9 outcome);
      ("claim 10", claim10 outcome);
      ("claim 11", claim11 outcome);
      ("claim 12", claim12 outcome);
      ("claim 13", claim13 outcome);
      ("claim 14", claim14 outcome);
      ("claim 15", claim15 outcome);
    ]
