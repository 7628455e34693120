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
   tables ([deliveries], [delivery_order], [phases]). A seq table
   holds [absent] where no event was recorded; [build] rejects a
   negative seq, so no recorded seq reads as [absent]. The phase
   histories, a list per (p, m) cell that only claim 14 reads, are
   built on the first [phase_history] query. *)
type index = {
  np : int;  (* exclusive process bound: max n, 1 + max p seen *)
  mb : int;  (* exclusive message bound: 1 + max m seen *)
  deliveries : (int * int * int * int) list;
  delivery_order : int list array;  (* per p, delivered m's in order *)
  del_seq : int array;  (* np*mb: seq of the first delivery *)
  first_del_seq : int array;  (* mb: seq of the earliest delivery *)
  inv_seq : int array;  (* mb: seq of the first Invoke *)
  inv_time : int array;  (* mb: tick of the first Invoke *)
  invoked : int list;  (* invoked m's, in order *)
  mutable phases : phase list array option;
      (* np*mb: phase history, oldest first *)
}

type t = { events : event list; n : int; mutable index : index option }

let make ~n events = { events; n; index = None }

let absent = -1

let ids = function
  | Invoke { m; p; seq; _ } -> (p, m, seq)
  | Send { m; p; seq; _ } -> (p, m, seq)
  | Phase_change { m; p; seq; _ } -> (p, m, seq)
  | Deliver { m; p; seq; _ } -> (p, m, seq)

let build t =
  let np, mb =
    List.fold_left
      (fun (np, mb) ev ->
        let p, m, seq = ids ev in
        if seq < 0 then invalid_arg "Trace: negative event seq";
        (max np (p + 1), max mb (m + 1)))
      (t.n, 0) t.events
  in
  let del_seq = Array.make (np * mb) absent in
  let first_del_seq = Array.make mb absent in
  let inv_seq = Array.make mb absent in
  let inv_time = Array.make mb 0 in
  let delivery_order = Array.make np [] in
  let deliveries = ref [] in
  let invoked = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Invoke { m; time; seq; _ } ->
          if inv_seq.(m) = absent then begin
            inv_seq.(m) <- seq;
            inv_time.(m) <- time
          end;
          invoked := m :: !invoked
      | Send _ | Phase_change _ -> ()
      | Deliver { m; p; time; seq } ->
          let k = (p * mb) + m in
          if del_seq.(k) = absent then del_seq.(k) <- seq;
          if first_del_seq.(m) = absent then first_del_seq.(m) <- seq;
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
    first_del_seq;
    inv_seq;
    inv_time;
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

(* Entry [i] of a seq table, [None] for [absent]. *)
let seq_at tbl i = if tbl.(i) = absent then None else Some tbl.(i)

let delivered_at t ~p ~m =
  let ix = index t in
  in_cell ix ~p ~m && ix.del_seq.((p * ix.mb) + m) <> absent

let delivery_seq t ~p ~m =
  let ix = index t in
  if not (in_cell ix ~p ~m) then None else seq_at ix.del_seq ((p * ix.mb) + m)

let first_delivery_seq t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb then None else seq_at ix.first_del_seq m

let invoke_seq t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb then None else seq_at ix.inv_seq m

let invoke_time t ~m =
  let ix = index t in
  if m < 0 || m >= ix.mb || ix.inv_seq.(m) = absent then None
  else Some ix.inv_time.(m)

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
