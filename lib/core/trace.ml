type phase = Start | Pending | Commit | Stable | Delivered

let phase_rank = function
  | Start -> 0
  | Pending -> 1
  | Commit -> 2
  | Stable -> 3
  | Delivered -> 4

let pp_phase fmt ph =
  Format.pp_print_string fmt
    (match ph with
    | Start -> "start"
    | Pending -> "pending"
    | Commit -> "commit"
    | Stable -> "stable"
    | Delivered -> "deliver")

type event =
  | Invoke of { m : int; p : int; time : int; seq : int }
  | Send of { m : int; p : int; time : int; seq : int }
  | Phase_change of { m : int; p : int; phase : phase; time : int; seq : int }
  | Deliver of { m : int; p : int; time : int; seq : int }

(* The index: every query below used to be a full scan of the event
   cons-list; the checker probes them from inside O(M²·n) loops, so
   the scans dominated verification time. All tables are derived in
   one pass over [events] and keyed by flat [p * mb + m] ints. "First
   matching event" semantics (find_map over the list) is preserved by
   only recording the first occurrence; duplicate events (e.g. a
   double delivery that integrity must flag) still appear in the list
   tables ([deliveries], [delivery_order], [phases]). The phase
   histories, a list per (p, m) cell that only claim 14 reads, are
   built on the first [phase_history] query. *)
type index = {
  np : int;  (* exclusive process bound: max n, 1 + max p seen *)
  mb : int;  (* exclusive message bound: 1 + max m seen *)
  deliveries : (int * int * int * int) list;
  delivery_order : int list array;  (* per p, delivered m's in order *)
  del_seq : int array;  (* np*mb: seq of the first delivery *)
  del_present : Bytes.t;  (* np*mb: was (p, m) ever delivered *)
  first_del_seq : int array;  (* mb: seq of the earliest delivery *)
  first_del_present : Bytes.t;
  inv_seq : int array;  (* mb: seq of the first Invoke *)
  inv_time : int array;  (* mb: tick of the first Invoke *)
  inv_present : Bytes.t;
  snd_seq : int array;  (* mb: seq of the first Send *)
  snd_present : Bytes.t;
  invoked : int list;  (* invoked m's, in order *)
  mutable phases : phase list array option;
      (* np*mb: phase history, oldest first *)
}

type t = { events : event list; n : int; mutable index : index option }

let make ~n events = { events; n; index = None }

let pm = function
  | Invoke { m; p; _ } -> (p, m)
  | Send { m; p; _ } -> (p, m)
  | Phase_change { m; p; _ } -> (p, m)
  | Deliver { m; p; _ } -> (p, m)

let build t =
  let np, mb =
    List.fold_left
      (fun (np, mb) ev ->
        let p, m = pm ev in
        (max np (p + 1), max mb (m + 1)))
      (t.n, 0) t.events
  in
  let cells = np * mb in
  let del_seq = Array.make cells 0 in
  let del_present = Bytes.make cells '\000' in
  let first_del_seq = Array.make mb 0 in
  let first_del_present = Bytes.make mb '\000' in
  let inv_seq = Array.make mb 0 in
  let inv_time = Array.make mb 0 in
  let inv_present = Bytes.make mb '\000' in
  let snd_seq = Array.make mb 0 in
  let snd_present = Bytes.make mb '\000' in
  let delivery_order = Array.make np [] in
  let deliveries = ref [] in
  let invoked = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Invoke { m; time; seq; _ } ->
          if Bytes.get inv_present m = '\000' then begin
            inv_seq.(m) <- seq;
            inv_time.(m) <- time;
            Bytes.set inv_present m '\001'
          end;
          invoked := m :: !invoked
      | Send { m; seq; _ } ->
          if Bytes.get snd_present m = '\000' then begin
            snd_seq.(m) <- seq;
            Bytes.set snd_present m '\001'
          end
      | Phase_change _ -> ()
      | Deliver { m; p; time; seq } ->
          let k = (p * mb) + m in
          if Bytes.get del_present k = '\000' then begin
            del_seq.(k) <- seq;
            Bytes.set del_present k '\001'
          end;
          if Bytes.get first_del_present m = '\000' then begin
            first_del_seq.(m) <- seq;
            Bytes.set first_del_present m '\001'
          end;
          deliveries := (p, m, time, seq) :: !deliveries;
          delivery_order.(p) <- m :: delivery_order.(p))
    t.events;
  Array.iteri (fun i l -> delivery_order.(i) <- List.rev l) delivery_order;
  {
    np;
    mb;
    deliveries = List.rev !deliveries;
    delivery_order;
    del_seq;
    del_present;
    first_del_seq;
    first_del_present;
    inv_seq;
    inv_time;
    inv_present;
    snd_seq;
    snd_present;
    invoked = List.rev !invoked;
    phases = None;
  }

(* Most cells stay empty (a message has a phase only at its
   destination's members), so only lists of two or more are reversed. *)
let build_phases t ix =
  let phases = Array.make (ix.np * ix.mb) [] in
  List.iter
    (function
      | Phase_change { m; p; phase; _ } ->
          let k = (p * ix.mb) + m in
          phases.(k) <- phase :: phases.(k)
      | Deliver { m; p; _ } ->
          let k = (p * ix.mb) + m in
          phases.(k) <- Delivered :: phases.(k)
      | Invoke _ | Send _ -> ())
    t.events;
  for k = 0 to Array.length phases - 1 do
    match phases.(k) with [] | [ _ ] -> () | l -> phases.(k) <- List.rev l
  done;
  phases

(* Building the index is idempotent and derived purely from the
   immutable [events], so the memoizing write is benign: concurrent
   builders compute equal indexes and the queries below read whichever
   one is published. The phase table is memoized in the index the same
   way. *)
let index t =
  match t.index with
  | Some ix -> ix
  | None ->
      let ix = build t in
      t.index <- Some ix;
      ix

let pp_event fmt = function
  | Invoke { m; p; time; _ } -> Format.fprintf fmt "t%d invoke(m%d)@p%d" time m p
  | Send { m; p; time; _ } -> Format.fprintf fmt "t%d send(m%d)@p%d" time m p
  | Phase_change { m; p; phase; time; _ } ->
      Format.fprintf fmt "t%d m%d→%a@p%d" time m pp_phase phase p
  | Deliver { m; p; time; _ } -> Format.fprintf fmt "t%d deliver(m%d)@p%d" time m p

let deliveries t = (index t).deliveries

let delivery_order t p =
  let ix = index t in
  if p < 0 || p >= ix.np then [] else ix.delivery_order.(p)

let in_cell ix ~p ~m = p >= 0 && p < ix.np && m >= 0 && m < ix.mb

let delivered_at t ~p ~m =
  let ix = index t in
  in_cell ix ~p ~m && Bytes.get ix.del_present ((p * ix.mb) + m) <> '\000'

let delivery_seq t ~p ~m =
  let ix = index t in
  if not (in_cell ix ~p ~m) then None
  else
    let k = (p * ix.mb) + m in
    if Bytes.get ix.del_present k = '\000' then None else Some ix.del_seq.(k)

let first_delivery_seq t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb || Bytes.get ix.first_del_present m = '\000' then None
  else Some ix.first_del_seq.(m)

let invoke_seq t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb || Bytes.get ix.inv_present m = '\000' then None
  else Some ix.inv_seq.(m)

let invoke_time t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb || Bytes.get ix.inv_present m = '\000' then None
  else Some ix.inv_time.(m)

let send_seq t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb || Bytes.get ix.snd_present m = '\000' then None
  else Some ix.snd_seq.(m)

let invoked t = (index t).invoked

let phase_history t ~p ~m =
  let ix = index t in
  if not (in_cell ix ~p ~m) then []
  else
    let phases =
      match ix.phases with
      | Some phases -> phases
      | None ->
          let phases = build_phases t ix in
          ix.phases <- Some phases;
          phases
    in
    phases.((p * ix.mb) + m)
