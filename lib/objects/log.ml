type 'a entry = { mutable position : int; mutable is_locked : bool }

(* The log keeps, besides the position table, an incrementally
   maintained sorted index:

   - [rev_index] lists every datum with its entry record in DESCENDING
     log order [>_L]. An [append] conses in O(1) (the fresh datum sits
     at [max_pos + 1], strictly above everything else); a
     position-raising [bump_and_lock] removes the datum and reinserts
     it further up (O(|log|), and bumps are much rarer than reads).
     Carrying the entry record in the index is what keeps prefix walks
     allocation- and hash-lookup-free: guards compare [position] fields
     directly instead of re-resolving each datum through [table].
   - [sorted] caches the ascending view; it is rebuilt lazily — one
     [List.rev] of [rev_index] — after a mutation invalidated it, so
     between mutations the ascending walks are O(visited) and incur no
     allocation. The guard walk [forall_before] reads [rev_index]
     directly and never needs the rebuild.
   - [snap] caches [snapshot]'s list until the next mutation, a
     lock-only bump included, so a per-tick recording shares every
     untouched log with the previous tick. Its tuples are immutable,
     so [copy] keeps it.

   The index relies on [compare] being the a-priori *total* order of
   the specification: distinct data never compare equal (the tie-break
   of [<_L] must be able to order any two data sharing a slot). *)
type 'a t = {
  compare : 'a -> 'a -> int;
  table : ('a, 'a entry) Hashtbl.t;
  mutable max_pos : int;
  mutable rev_index : ('a * 'a entry) list;
  mutable sorted : ('a * 'a entry) list;
  mutable sorted_valid : bool;
  mutable snap : ('a * int * bool) list option;
}

let create ~compare:cmp =
  {
    compare = cmp;
    table = Hashtbl.create 16;
    max_pos = 0;
    rev_index = [];
    sorted = [];
    sorted_valid = true;
    snap = Some [];
  }

let head log = log.max_pos + 1

let mem log d = Hashtbl.mem log.table d

let pos log d =
  match Hashtbl.find_opt log.table d with None -> 0 | Some e -> e.position

let append log d =
  match Hashtbl.find_opt log.table d with
  | Some e -> e.position
  | None ->
      let p = head log in
      let e = { position = p; is_locked = false } in
      Hashtbl.replace log.table d e;
      log.max_pos <- p;
      log.rev_index <- (d, e) :: log.rev_index;
      log.sorted_valid <- false;
      log.snap <- None;
      p

let locked log d =
  match Hashtbl.find_opt log.table d with
  | None -> false
  | Some e -> e.is_locked

(* [d' >_L d] given [d']'s entry and [d]'s target slot — the order the
   descending index is kept in. *)
let above log e' d' ~position ~datum =
  e'.position > position || (e'.position = position && log.compare d' datum > 0)

let reposition log d e position =
  let without =
    List.filter (fun (d', _) -> log.compare d' d <> 0) log.rev_index
  in
  let rec insert = function
    | [] -> [ (d, e) ]
    | ((d', e') :: rest) as l ->
        if above log e' d' ~position ~datum:d then (d', e') :: insert rest
        else (d, e) :: l
  in
  log.rev_index <- insert without;
  log.sorted_valid <- false

let bump_and_lock log d k =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.bump_and_lock: datum not in the log"
  | Some e ->
      if not e.is_locked then begin
        if k > e.position then begin
          e.position <- k;
          log.max_pos <- max log.max_pos k;
          reposition log d e k
        end;
        e.is_locked <- true;
        log.snap <- None
      end

let lt log d d' =
  let e = Hashtbl.find log.table d and e' = Hashtbl.find log.table d' in
  e.position < e'.position
  || (e.position = e'.position && log.compare d d' < 0)

let sorted_index log =
  if not log.sorted_valid then begin
    log.sorted <- List.rev log.rev_index;
    log.sorted_valid <- true
  end;
  log.sorted

let entries log = List.map fst (sorted_index log)

let snapshot log =
  match log.snap with
  | Some s -> s
  | None ->
      let s =
        List.map (fun (d, e) -> (d, e.position, e.is_locked)) (sorted_index log)
      in
      log.snap <- Some s;
      s

(* Fresh entry records: [table] and [rev_index] share each record, and
   a reused one would let a bump in the copy move the original's datum
   too. *)
let copy log =
  let table = Hashtbl.create (Hashtbl.length log.table) in
  let rev_index =
    List.map
      (fun (d, e) ->
        let e = { position = e.position; is_locked = e.is_locked } in
        Hashtbl.replace table d e;
        (d, e))
      log.rev_index
  in
  { log with table; rev_index; sorted = []; sorted_valid = false }

(* Strict predecessors are a prefix of the ascending index: walk it and
   stop at the first datum not below [d] — O(predecessors), not
   O(|log| log |log|). *)
let fold_before_exn name log d f init =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg (name ^ ": datum not in the log")
  | Some e ->
      let position = e.position in
      let rec go acc = function
        | [] -> acc
        | (d', e') :: rest ->
            if
              e'.position < position
              || (e'.position = position && log.compare d' d < 0)
            then go (f acc d') rest
            else acc
      in
      go init (sorted_index log)

let fold_before log d f init = fold_before_exn "Log.fold_before" log d f init

let rec all_hold check = function
  | [] -> true
  | (d, _) :: rest -> check d && all_hold check rest

(* The descending index needs no ascending rebuild after an append or
   a bump, and a failing guard stops at the highest blocker below [d]
   rather than the lowest: the entries above [d] are skipped, then
   every remaining entry is a strict predecessor. *)
let forall_before log d check =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.forall_before: datum not in the log"
  | Some e ->
      let position = e.position in
      let rec above = function
        | [] -> true
        | ((d', e') :: rest) as l ->
            if
              e'.position < position
              || (e'.position = position && log.compare d' d < 0)
            then all_hold check l
            else above rest
      in
      above log.rev_index

let first_before log d pred =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.first_before: datum not in the log"
  | Some e ->
      let position = e.position in
      let rec go = function
        | [] -> None
        | (d', e') :: rest ->
            if
              e'.position < position
              || (e'.position = position && log.compare d' d < 0)
            then if pred d' then Some d' else go rest
            else None
      in
      go (sorted_index log)

let before log d =
  List.rev
    (fold_before_exn "Log.before" log d (fun acc d' -> d' :: acc) [])

let fold_entries log f init =
  List.fold_left (fun acc (d, _) -> f acc d) init (sorted_index log)

let length log = Hashtbl.length log.table
