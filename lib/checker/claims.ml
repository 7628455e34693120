type verdict = (unit, string) result

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

let ( let* ) = Result.bind

let compare_key (g, h) (g', h') =
  let c = Int.compare g g' in
  if c <> 0 then c else Int.compare h h'

let pp_d = Algorithm1.pp_datum

let same d d' = Algorithm1.compare_datum d d' = 0

(* d <_L d' over snapshot entries: by position, ties by the a-priori
   datum order (the implementation's Algorithm1.compare_datum). *)
let snap_lt (d, pos, _) (d', pos', _) =
  pos < pos' || (pos = pos' && Algorithm1.compare_datum d d' < 0)

type entry = Algorithm1.datum * int * bool

let equal_log =
  List.equal (fun (d, pos, locked) (d', pos', locked') ->
      same d d' && pos = pos' && Bool.equal locked locked')

(* One log in two consecutive snapshots [a] and [b]. [in_a] and [in_b]
   look a datum up in either and return its first entry, as a scan of
   the list would. *)
type log_pair = {
  la : entry list;
  lb : entry list;
  in_a : Algorithm1.datum -> entry option;
  in_b : Algorithm1.datum -> entry option;
}

let index entries =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((d, _, _) as e) -> if not (Hashtbl.mem tbl d) then Hashtbl.add tbl d e)
    entries;
  Hashtbl.find_opt tbl

(* [check] on each element in order, stopping at the first failure. *)
let rec first l check =
  match l with
  | [] -> Ok ()
  | e :: rest ->
      let* () = check e in
      first rest check

(* Claims 2–8 on one log pair. Each scans the entries in list order
   and reports the first that breaks its law. *)

let law2 p =
  first p.la (fun (d, _, _) ->
      if Option.is_some (p.in_b d) then Ok ()
      else fail "claim 2: %a vanished from a log" pp_d d)

let law3 p =
  first p.la (fun (d, pos, _) ->
      match p.in_b d with
      | Some (_, pos', _) when pos' < pos ->
          fail "claim 3: position of %a decreased" pp_d d
      | _ -> Ok ())

let law4 p =
  first p.la (fun (d, _, locked) ->
      match p.in_b d with
      | (Some (_, _, false) | None) when locked ->
          fail "claim 4: %a was unlocked" pp_d d
      | _ -> Ok ())

let law5 p =
  first p.la (fun (d, pos, locked) ->
      match p.in_b d with
      | Some (_, pos', _) when pos' = pos -> Ok ()
      | _ when locked -> fail "claim 5: locked %a moved" pp_d d
      | _ -> Ok ())

let law6 p =
  first p.la (fun ((d, _, locked) as e) ->
      match p.in_b d with
      | Some eb when locked ->
          first p.la (fun ((d', _, _) as e') ->
              if same d d' || not (snap_lt e e') then Ok ()
              else
                match p.in_b d' with
                | Some eb' when not (snap_lt eb eb') ->
                    fail "claim 6: order %a < %a flipped" pp_d d pp_d d'
                | _ -> Ok ())
      | _ -> Ok ())

(* d fresh in b; every datum locked in a must be below it. *)
let law7 p =
  first p.lb (fun ((d, _, _) as eb) ->
      if Option.is_some (p.in_a d) then Ok ()
      else
        first p.la (fun (d', _, locked) ->
            match p.in_b d' with
            | Some eb' when snap_lt eb' eb -> Ok ()
            | _ when locked ->
                fail "claim 7: fresh %a below locked %a" pp_d d pp_d d'
            | _ -> Ok ()))

let law8 p =
  first p.la (fun ((d, _, locked) as ea) ->
      match p.in_b d with
      | Some eb when locked ->
          let was_below d' =
            match p.in_a d' with Some ea' -> snap_lt ea' ea | None -> false
          in
          let gained ((d', _, _) as e') =
            (not (same d d')) && snap_lt e' eb && not (was_below d')
          in
          if List.exists gained p.lb then
            fail "claim 8: locked %a gained a predecessor" pp_d d
          else Ok ()
      | _ -> Ok ())

let log_laws = [ law2; law3; law4; law5; law6; law7; law8 ]

let log_assoc snap key = match List.assoc_opt key snap with Some l -> l | None -> []

(* The one walk behind claims 2–8: consecutive snapshot pairs (final
   state included), and within a pair every log key in sorted order.
   A claim that has failed keeps its first witness and is not run
   again. An unchanged log is skipped, since every law holds on it when
   each datum appears once per log. *)
let log_claims outcome =
  let visit verdicts a b =
    List.fold_left
      (fun verdicts key ->
        let la = log_assoc a key and lb = log_assoc b key in
        if equal_log la lb then verdicts
        else
          let p = { la; lb; in_a = index la; in_b = index lb } in
          List.map2
            (fun law v -> if Result.is_ok v then law p else v)
            log_laws verdicts)
      verdicts
      (List.sort_uniq compare_key (List.map fst a @ List.map fst b))
  in
  let rec walk verdicts = function
    | a :: (b :: _ as rest) when List.exists Result.is_ok verdicts ->
        walk (visit verdicts a b) rest
    | _ -> verdicts
  in
  walk
    (List.map (fun _ -> Ok ()) log_laws)
    (List.map snd outcome.Runner.snapshots @ [ outcome.Runner.final_logs ])

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
          let common =
            Pset.inter (Outcome_index.dst cx m) (Outcome_index.dst cx m')
          in
          if m >= m' then Ok ()
          else if
            (not (Pset.is_empty common))
            && (delivered_at_common common m || delivered_at_common common m')
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

let claim15 outcome =
  let tr = outcome.Runner.trace in
  let by_pm = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.Phase_change { m; p; phase; _ } ->
          Hashtbl.replace by_pm (p, m)
            (phase :: (try Hashtbl.find by_pm (p, m) with Not_found -> []))
      | Trace.Deliver { m; p; _ } ->
          Hashtbl.replace by_pm (p, m)
            (Trace.Delivered :: (try Hashtbl.find by_pm (p, m) with Not_found -> []))
      | _ -> ())
    tr.Trace.events;
  (* Fold in sorted (p, m) order so the first failure reported does
     not depend on Hashtbl iteration order. *)
  Hashtbl.fold (fun k hist acc -> (k, hist) :: acc) by_pm []
  |> List.sort (fun (k, _) (k', _) -> compare_key k k')
  |> List.fold_left
       (fun acc ((p, m), hist) ->
         let* () = acc in
         let hist = List.rev hist in
         let rec monotone last = function
           | [] -> true
           | ph :: rest ->
               Trace.phase_rank ph > last && monotone (Trace.phase_rank ph) rest
         in
         if monotone (-1) hist then Ok ()
         else fail "claim 15: phase of m%d regressed at p%d" m p)
       (Ok ())

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
