type msg =
  | Prepare of int (* ballot *)
  | Promise of int * (int * int) option (* ballot, accepted (ballot, value) *)
  | Nack of int
  | Propose of int * int (* ballot, value *)
  | Accepted of int
  | Decide of int
  | Forward of int (* input forwarding: Ω may elect a member without an input *)

type leader_state = {
  mutable ballot : int;
  mutable phase : [ `Idle | `Preparing | `Accepting ];
  mutable promises : (int * (int * int) option) list; (* sender, accepted *)
  mutable accepts : Pset.t;
  mutable chosen : int;
}

type node = {
  mutable input : int option;
  (* acceptor *)
  mutable promised : int;
  mutable accepted : (int * int) option;
  (* learner *)
  mutable decided : int option;
  leader : leader_state;
}

type t = {
  scope : Pset.t;
  size : int;
  sigma : int -> int -> Pset.t option;
  omega : int -> int -> int option;
  net : msg Net.t;
  nodes : node array;
}

(* Optionals before the labelled args keep existing call sites
   compiling unchanged (warning 16 is noise: the labelled application
   below is total). *)
let[@warning "-16"] create ?(faults = Channel_fault.none) ?(seed = 1) ~scope
    ~sigma ~omega =
  let n = 1 + Pset.fold max scope 0 in
  {
    scope;
    size = n;
    sigma;
    omega;
    net = Net.create ~faults ~seed ~n;
    nodes =
      Array.init n (fun _ ->
          {
            input = None;
            promised = -1;
            accepted = None;
            decided = None;
            leader =
              { ballot = -1; phase = `Idle; promises = []; accepts = Pset.empty; chosen = 0 };
          });
  }

let propose t ~pid ~value =
  if not (Pset.mem pid t.scope) then invalid_arg "Synod: outside scope";
  let nd = t.nodes.(pid) in
  if nd.input = None then begin
    nd.input <- Some value;
    (* Ω may elect a scope member that has no input of its own: forward
       ours so any elected leader can drive a ballot. *)
    Net.multicast t.net ~src:pid t.scope (Forward value)
  end

let decision t ~pid = t.nodes.(pid).decided

let quorum_covered t p time senders =
  match t.sigma p time with
  | None -> false
  | Some q -> Pset.subset q senders

let start_ballot t p =
  let nd = t.nodes.(p) in
  let ls = nd.leader in
  let round = (max ls.ballot nd.promised / t.size) + 1 in
  ls.ballot <- (round * t.size) + p;
  ls.phase <- `Preparing;
  ls.promises <- [];
  ls.accepts <- Pset.empty;
  Net.multicast t.net ~src:p t.scope (Prepare ls.ballot)

let transitions t p time =
  let nd = t.nodes.(p) in
  let ls = nd.leader in
  if nd.decided <> None || nd.input = None then false
  else if t.omega p time = Some p && ls.phase = `Idle then begin
    start_ballot t p;
    true
  end
  else
    match ls.phase with
    | `Preparing
      when quorum_covered t p time (Pset.of_list (List.map fst ls.promises)) ->
        let value =
          List.fold_left
            (fun acc (_, a) ->
              match (acc, a) with
              | None, Some (b, v) -> Some (b, v)
              | Some (b0, _), Some (b, v) when b > b0 -> Some (b, v)
              | acc, _ -> acc)
            None ls.promises
        in
        ls.chosen <-
          (match (value, nd.input) with
          | Some (_, v), _ -> v
          | None, Some v -> v
          | None, None -> assert false);
        ls.phase <- `Accepting;
        Net.multicast t.net ~src:p t.scope (Propose (ls.ballot, ls.chosen));
        true
    | `Accepting when quorum_covered t p time ls.accepts ->
        nd.decided <- Some ls.chosen;
        ls.phase <- `Idle;
        Net.multicast t.net ~src:p t.scope (Decide ls.chosen);
        true
    | `Idle | `Preparing | `Accepting -> false

let step t ~pid:p ~time =
  let nd = t.nodes.(p) in
  let ls = nd.leader in
  let received =
    match Net.receive t.net p with
    | None -> false
    | Some (src, m) ->
        (match m with
        | Prepare b ->
            if b > nd.promised then begin
              nd.promised <- b;
              Net.send t.net ~src:p ~dst:src (Promise (b, nd.accepted))
            end
            else Net.send t.net ~src:p ~dst:src (Nack b)
        | Propose (b, v) ->
            if b >= nd.promised then begin
              nd.promised <- b;
              nd.accepted <- Some (b, v);
              Net.send t.net ~src:p ~dst:src (Accepted b)
            end
            else Net.send t.net ~src:p ~dst:src (Nack b)
        | Promise (b, a) ->
            if ls.phase = `Preparing && b = ls.ballot
               && not (List.mem_assoc src ls.promises)
            then ls.promises <- (src, a) :: ls.promises
        | Accepted b ->
            if ls.phase = `Accepting && b = ls.ballot then
              ls.accepts <- Pset.add src ls.accepts
        | Nack b ->
            (* Our ballot was superseded: abandon; a later step restarts
               with a higher ballot if Ω still elects us. *)
            if b = ls.ballot && ls.phase <> `Idle then ls.phase <- `Idle
        | Decide v ->
            if nd.decided = None then begin
              nd.decided <- Some v;
              (* propagate so late joiners learn *)
              Net.multicast t.net ~src:p t.scope (Decide v)
            end
        | Forward v -> if nd.input = None then nd.input <- Some v);
        true
  in
  let advanced = transitions t p time in
  received || advanced

let messages_sent t = Net.total_sent t.net
