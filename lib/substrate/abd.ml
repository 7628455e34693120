type tag = { ts : int; w : int }

let tag_lt a b = a.ts < b.ts || (a.ts = b.ts && a.w < b.w)

type msg =
  | Get of int (* op *)
  | Get_ack of int * tag * int
  | Put of int * tag * int
  | Put_ack of int

type op_state = {
  kind : [ `Read | `Write of int ];
  mutable phase : [ `Query | `Update | `Done ];
  mutable acks : Pset.t;
  mutable best : tag * int;
  mutable result : int;
}

type t = {
  scope : Pset.t;
  sigma : int -> int -> Pset.t option;
  net : msg Net.t;
  (* replica state *)
  tags : tag array;
  values : int array;
  (* client operations, keyed by (pid, opid) *)
  ops : (int * int, op_state) Hashtbl.t;
  next_op : int array;
}

type opid = int

let[@warning "-16"] create ?(faults = Channel_fault.none) ?(seed = 1) ~scope
    ~sigma =
  let n = 1 + Pset.fold max scope 0 in
  {
    scope;
    sigma;
    net = Net.create ~faults ~seed ~n;
    tags = Array.make n { ts = 0; w = -1 };
    values = Array.make n 0;
    ops = Hashtbl.create 16;
    next_op = Array.make n 0;
  }

let start t ~pid kind =
  if not (Pset.mem pid t.scope) then invalid_arg "Abd: outside scope";
  let op = t.next_op.(pid) in
  t.next_op.(pid) <- op + 1;
  Hashtbl.replace t.ops (pid, op)
    {
      kind;
      phase = `Query;
      acks = Pset.empty;
      best = ({ ts = 0; w = -1 }, 0);
      result = 0;
    };
  Net.multicast t.net ~src:pid t.scope (Get op);
  op

let read t ~pid = start t ~pid `Read
let write t ~pid ~value = start t ~pid (`Write value)

let poll t ~pid op =
  match Hashtbl.find_opt t.ops (pid, op) with
  | Some st when st.phase = `Done -> Some st.result
  | _ -> None

let quorum_covered t p time acks =
  match t.sigma p time with
  | None -> false
  | Some q -> Pset.subset q acks

(* Phase completions are re-evaluated on every step (a quorum may
   shrink to the collected acks after a crash, with no further message
   to wake us up). *)
let transitions t p time =
  (* The scan short-circuits on the first op that advances, so walk
     operations in (pid, opid) order, never in Hashtbl order. *)
  Hashtbl.fold (fun k st acc -> (k, st) :: acc) t.ops []
  |> List.sort (fun ((p1, o1), _) ((p2, o2), _) ->
         let c = Int.compare p1 p2 in
         if c <> 0 then c else Int.compare o1 o2)
  |> List.fold_left
       (fun advanced ((owner, op), st) ->
      if advanced || owner <> p then advanced
      else
        match st.phase with
        | `Query when quorum_covered t p time st.acks ->
            let best_tag, best_v = st.best in
            let put_tag, put_v =
              match st.kind with
              | `Read -> (best_tag, best_v)
              | `Write v' -> ({ ts = best_tag.ts + 1; w = p }, v')
            in
            st.result <- put_v;
            st.phase <- `Update;
            st.acks <- Pset.empty;
            Net.multicast t.net ~src:p t.scope (Put (op, put_tag, put_v));
            true
        | `Update when quorum_covered t p time st.acks ->
            st.phase <- `Done;
            true
        | `Query | `Update | `Done -> advanced)
       false

let step t ~pid:p ~time =
  let received =
    match Net.receive t.net p with
    | None -> false
    | Some (src, m) ->
        (match m with
        | Get op ->
            Net.send t.net ~src:p ~dst:src (Get_ack (op, t.tags.(p), t.values.(p)))
        | Put (op, tag, v) ->
            if tag_lt t.tags.(p) tag then begin
              t.tags.(p) <- tag;
              t.values.(p) <- v
            end;
            Net.send t.net ~src:p ~dst:src (Put_ack op)
        | Get_ack (op, tag, v) -> (
            match Hashtbl.find_opt t.ops (p, op) with
            | Some st when st.phase = `Query ->
                st.acks <- Pset.add src st.acks;
                if tag_lt (fst st.best) tag then st.best <- (tag, v)
            | _ -> ())
        | Put_ack op -> (
            match Hashtbl.find_opt t.ops (p, op) with
            | Some st when st.phase = `Update -> st.acks <- Pset.add src st.acks
            | _ -> ()));
        true
  in
  let advanced = transitions t p time in
  received || advanced
