type 'a entry = { mutable position : int; mutable is_locked : bool }

(* The log keeps, besides the position table, two ordered views:

   - [rev_index] lists every datum with its entry record in DESCENDING
     log order [>_L]. An [append] conses in O(1) (the fresh datum sits
     at [head], strictly above everything else); a position-raising
     [bump_and_lock] removes the datum and reinserts it further up
     (O(|log|), and bumps are much rarer than reads). Carrying the
     entry record in the index is what keeps prefix walks allocation-
     and hash-lookup-free: guards compare [position] fields directly
     instead of re-resolving each datum through [table].
   - [snap] caches [snapshot]'s list, the ascending view, until the
     next mutation, a lock-only bump included, so a per-tick recording
     shares every untouched log with the previous tick. Its tuples are
     immutable, so [copy] keeps it. Every ascending read goes through
     it.

   The index relies on [compare] being the a-priori *total* order of
   the specification: distinct data never compare equal (the tie-break
   of [<_L] must be able to order any two data sharing a slot). *)
type 'a t = {
  compare : 'a -> 'a -> int;
  table : ('a, 'a entry) Hashtbl.t;
  mutable rev_index : ('a * 'a entry) list;
  mutable snap : ('a * int * bool) list option;
}

let create ~compare:cmp =
  {
    compare = cmp;
    table = Hashtbl.create 16;
    rev_index = [];
    snap = Some [];
  }

let head log =
  match log.rev_index with [] -> 1 | (_, e) :: _ -> e.position + 1

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
      log.rev_index <- (d, e) :: log.rev_index;
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
  log.rev_index <- insert without

let bump_and_lock log d k =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.bump_and_lock: datum not in the log"
  | Some e ->
      if not e.is_locked then begin
        if k > e.position then begin
          e.position <- k;
          reposition log d e k
        end;
        e.is_locked <- true;
        log.snap <- None
      end

let lt log d d' =
  let e = Hashtbl.find log.table d and e' = Hashtbl.find log.table d' in
  e.position < e'.position
  || (e.position = e'.position && log.compare d d' < 0)

let snapshot log =
  match log.snap with
  | Some s -> s
  | None ->
      let s =
        List.rev_map (fun (d, e) -> (d, e.position, e.is_locked)) log.rev_index
      in
      log.snap <- Some s;
      s

let entries log = List.map (fun (d, _, _) -> d) (snapshot log)

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
  { log with table; rev_index }

let rec all_hold check = function
  | [] -> true
  | (d, _) :: rest -> check d && all_hold check rest

(* The descending index needs no ascending view after an append or a
   bump, and a failing guard stops at the highest blocker below [d]
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

(* Strict predecessors are a prefix of the ascending view: walk the
   snapshot and stop at the first datum not below [d]. *)
let first_before log d pred =
  match Hashtbl.find_opt log.table d with
  | None -> invalid_arg "Log.first_before: datum not in the log"
  | Some e ->
      let position = e.position in
      let rec go = function
        | [] -> None
        | (d', position', _) :: rest ->
            if
              position' < position
              || (position' = position && log.compare d' d < 0)
            then if pred d' then Some d' else go rest
            else None
      in
      go (snapshot log)
