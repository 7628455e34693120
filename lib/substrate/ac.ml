type msg =
  | R1 of int (* proposal *)
  | R2 of int * bool (* carried value, commit intent *)

type node = {
  mutable proposal : int option;
  mutable r1_seen : (int * int) list; (* sender, value *)
  mutable r2_seen : (int * (int * bool)) list;
  mutable in_r2 : bool;
  mutable outcome : [ `Commit of int | `Adopt of int ] option;
}

type t = {
  scope : Pset.t;
  sigma : int -> int -> Pset.t option;
  net : msg Net.t;
  nodes : node array;
}

let[@warning "-16"] create ?(faults = Channel_fault.none) ?(seed = 1) ~scope
    ~sigma =
  let n = 1 + Pset.fold max scope 0 in
  {
    scope;
    sigma;
    net = Net.create ~faults ~seed ~n;
    nodes =
      Array.init n (fun _ ->
          { proposal = None; r1_seen = []; r2_seen = []; in_r2 = false; outcome = None });
  }

let propose t ~pid ~value =
  if not (Pset.mem pid t.scope) then invalid_arg "Ac: outside scope";
  let nd = t.nodes.(pid) in
  if nd.proposal = None then begin
    nd.proposal <- Some value;
    Net.multicast t.net ~src:pid t.scope (R1 value)
  end

let poll t ~pid = t.nodes.(pid).outcome

let quorum_covered t p time senders =
  match t.sigma p time with
  | None -> false
  | Some q -> Pset.subset q (Pset.of_list senders)

(* Round transitions are re-evaluated on every step, not only on
   receipt: a quorum can shrink to the responders after a crash, with
   no further message to wake us up. *)
let transitions t p time =
  let nd = t.nodes.(p) in
  match nd.proposal with
  | None -> false
  | Some mine ->
      if (not nd.in_r2) && quorum_covered t p time (List.map fst nd.r1_seen)
      then begin
        nd.in_r2 <- true;
        let vals = List.map snd nd.r1_seen in
        let unanimous = List.for_all (fun v -> v = mine) vals in
        let carried = if unanimous then mine else List.fold_left min mine vals in
        Net.multicast t.net ~src:p t.scope (R2 (carried, unanimous));
        true
      end
      else if
        nd.in_r2 && nd.outcome = None
        && quorum_covered t p time (List.map fst nd.r2_seen)
      then begin
        let vals = List.map snd nd.r2_seen in
        (match List.find_opt (fun (_, flag) -> flag) vals with
        | Some (v, _) ->
            if List.for_all (fun (_, flag) -> flag) vals then
              nd.outcome <- Some (`Commit v)
            else nd.outcome <- Some (`Adopt v)
        | None ->
            let v = List.fold_left (fun acc (v, _) -> min acc v) max_int vals in
            nd.outcome <- Some (`Adopt v));
        true
      end
      else false

let step t ~pid:p ~time =
  let nd = t.nodes.(p) in
  let received =
    match Net.receive t.net p with
    | None -> false
    | Some (src, m) ->
        (match m with
        | R1 v ->
            if not (List.mem_assoc src nd.r1_seen) then
              nd.r1_seen <- (src, v) :: nd.r1_seen;
            (* Join: an idle participant adopts the first proposal it
               sees, so proposers can gather quorums that include it.
               Validity is preserved (the value was proposed). *)
            if nd.proposal = None then begin
              nd.proposal <- Some v;
              Net.multicast t.net ~src:p t.scope (R1 v)
            end
        | R2 (v, flag) ->
            if not (List.mem_assoc src nd.r2_seen) then
              nd.r2_seen <- (src, (v, flag)) :: nd.r2_seen);
        true
  in
  let advanced = transitions t p time in
  received || advanced

let messages_sent t = Net.total_sent t.net
