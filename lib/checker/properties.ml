(* The checkers below are the performance-sensitive half of the
   harness: fuzzing runs them on every trial, so they are written
   against the O(1) Trace index and the Outcome_index message tables
   rather than the original per-probe list scans. They must stay
   verdict-identical to Properties_ref — same first witness, same
   failure strings — which pins the iteration orders (p ascending, ids
   in workload order, edge lists in m-outer/m'-inner emission order). *)

type verdict = (unit, string) result

let fail fmt = Format.kasprintf (fun s -> Error s) fmt

module Cx = Outcome_index

let integrity_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let dels = Trace.deliveries tr in
  (* At most once per (p, m): a flat-int table replaces the polymorphic
     (p, m) Hashtbl. Bounds come from the deliveries themselves so that
     duplicates of ids outside the workload are still caught here,
     before the workload lookup below can raise. *)
  let pb, mb =
    List.fold_left
      (fun (pb, mb) (p, m, _, _) -> (max pb (p + 1), max mb (m + 1)))
      (0, 0) dels
  in
  let seen = Bytes.make (pb * mb) '\000' in
  let rec once = function
    | [] -> Ok ()
    | (p, m, _, _) :: rest ->
        let k = (p * mb) + m in
        if Bytes.get seen k <> '\000' then
          fail "integrity: m%d delivered twice at p%d" m p
        else begin
          Bytes.set seen k '\001';
          once rest
        end
  in
  Result.bind (once dels) (fun () ->
      List.fold_left
        (fun acc (p, m, _, seq) ->
          Result.bind acc (fun () ->
              if not (Pset.mem p (Cx.dst cx m)) then
                fail "integrity: p%d delivered m%d outside its destination group" p m
              else
                match Trace.invoke_seq tr ~m with
                | Some s when s < seq -> Ok ()
                | _ -> fail "integrity: m%d delivered before being multicast" m))
        (Ok ()) dels)

let termination_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let correct = Failure_pattern.correct outcome.Runner.fp in
  let needs_delivery m =
    let msg = Cx.message cx m in
    let invoked = Trace.invoke_seq tr ~m <> None in
    let src_correct = Pset.mem msg.Amsg.src correct in
    let delivered_somewhere =
      Pset.exists (fun p -> Trace.delivered_at tr ~p ~m) (Cx.dst cx m)
    in
    (invoked && src_correct) || delivered_somewhere
  in
  List.fold_left
    (fun acc m ->
      Result.bind acc (fun () ->
          if not (needs_delivery m) then Ok ()
          else
            Pset.fold
              (fun p acc ->
                Result.bind acc (fun () ->
                    if Trace.delivered_at tr ~p ~m then Ok ()
                    else fail "termination: correct p%d never delivered m%d" p m))
              (Pset.inter correct (Cx.dst cx m))
              (Ok ())))
    (Ok ()) (Cx.ids cx)

(* Edges of ↦: m → m' when some p ∈ dst(m) ∩ dst(m') delivers m while
   not having delivered m'. Instead of probing every (m, m', p) triple,
   walk each process once: among the messages addressed to p, every
   delivered message points at every message p delivered later and at
   every addressed message p never delivered. *)
let delivery_edges_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let ids = Cx.ids cx in
  let b = Cx.bound cx in
  let n = Topology.n outcome.Runner.topo in
  let edge = Bytes.make (b * b) '\000' in
  for p = 0 to n - 1 do
    let delivered = ref [] and undelivered = ref [] in
    List.iter
      (fun m ->
        if Pset.mem p (Cx.dst cx m) then
          match Trace.delivery_seq tr ~p ~m with
          | Some s -> delivered := (s, m) :: !delivered
          | None -> undelivered := m :: !undelivered)
      ids;
    let delivered =
      List.sort (fun (s, _) (s', _) -> Int.compare s s') !delivered
    in
    let rec mark = function
      | [] -> ()
      | (s, m) :: rest ->
          List.iter
            (fun (s', m') -> if s < s' then Bytes.set edge ((m * b) + m') '\001')
            rest;
          List.iter
            (fun m' -> Bytes.set edge ((m * b) + m') '\001')
            !undelivered;
          mark rest
    in
    mark delivered
  done;
  (* Emit in the original m-outer/m'-inner workload order so the edge
     list is identical to the unindexed checker's. *)
  let edges = ref [] in
  List.iter
    (fun m ->
      List.iter
        (fun m' ->
          if m <> m' && Bytes.get edge ((m * b) + m') <> '\000' then
            edges := (m, m') :: !edges)
        ids)
    ids;
  !edges

let find_cycle edges =
  (* Adjacency is built once up front; reversing before the prepends
     keeps each successor list in edge-list order, which is the order
     the old per-visit filter scanned. *)
  let adj = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace adj a
        (b :: (try Hashtbl.find adj a with Not_found -> [])))
    (List.rev edges);
  let succs v = try Hashtbl.find adj v with Not_found -> [] in
  let vertices =
    List.sort_uniq Int.compare (List.concat_map (fun (a, b) -> [ a; b ]) edges)
  in
  let state = Hashtbl.create 16 in
  (* 0 = unvisited (absent), 1 = on stack, 2 = done *)
  let exception Found of int list in
  let rec dfs path v =
    match Hashtbl.find_opt state v with
    | Some 2 -> ()
    | Some 1 ->
        let rec cut acc = function
          | [] -> acc
          | x :: rest -> if x = v then x :: acc else cut (x :: acc) rest
        in
        raise (Found (cut [] path))
    | _ ->
        Hashtbl.replace state v 1;
        List.iter (dfs (v :: path)) (succs v);
        Hashtbl.replace state v 2
  in
  try
    List.iter (dfs []) vertices;
    None
  with Found c -> Some c

(* [(seq, m)] pairs gathered newest first from an event-list order,
   returned oldest first by seq. A recorded trace lists its events in
   seq order, so only a hand-built one pays the sort. *)
let by_seq rev_pairs =
  let rec descending = function
    | (s, _) :: ((s', _) :: _ as rest) -> s >= s' && descending rest
    | _ -> true
  in
  if descending rev_pairs then List.rev rev_pairs
  else List.stable_sort (fun (s, _) (s', _) -> Int.compare s s') rev_pairs

(* The first index of the seq-ascending [points] invoked after [d]. *)
let first_after points d =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if fst points.(mid) > d then go lo mid else go (mid + 1) hi
  in
  go 0 (Array.length points)

(* A graph with a path for every edge of ↦ (and of ↝ when [strict]),
   as successor lists: vertex m is message m, and vertex [bound + k] is
   the k-th invocation point in seq order. At each process, every
   delivery points at the next one, and the last at every addressed
   message never delivered there. Each point points at its message and
   at the next point, and each delivered message at the first point
   invoked after its first delivery. See DESIGN.md "Ordering by
   chains". *)
let chain_graph cx ~strict =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let b = Cx.bound cx in
  let n = Topology.n outcome.Runner.topo in
  let points =
    if not strict then [||]
    else
      List.fold_left
        (fun acc m ->
          match Trace.invoke_seq tr ~m with
          | Some i when Cx.known cx m -> (i, m) :: acc
          | _ -> acc)
        [] (Trace.invoked tr)
      |> by_seq |> Array.of_list
  in
  let np = Array.length points in
  let succ = Array.make (b + np) [] in
  let edge u v = succ.(u) <- v :: succ.(u) in
  let last = Array.make n (-1) and seen = Array.make b (-1) in
  for p = 0 to n - 1 do
    let dels =
      List.fold_left
        (fun acc m ->
          if Cx.known cx m && seen.(m) <> p && Pset.mem p (Cx.dst cx m) then begin
            seen.(m) <- p;
            match Trace.delivery_seq tr ~p ~m with
            | Some s -> (s, m) :: acc
            | None -> acc
          end
          else acc)
        [] (Trace.delivery_order tr p)
    in
    let rec link = function
      | (_, m) :: ((_, m') :: _ as rest) ->
          edge m m';
          link rest
      | [ (_, m) ] -> last.(p) <- m
      | [] -> ()
    in
    link (by_seq dels)
  done;
  List.iter
    (fun m ->
      Pset.iter
        (fun p ->
          if last.(p) >= 0 && not (Trace.delivered_at tr ~p ~m) then
            edge last.(p) m)
        (Cx.dst cx m);
      if strict then
        match Trace.first_delivery_seq tr ~m with
        | Some d ->
            let k = first_after points d in
            if k < np then edge m (b + k)
        | None -> ())
    (Cx.ids cx);
  Array.iteri
    (fun k (_, m) ->
      edge (b + k) m;
      if k + 1 < np then edge (b + k) (b + k + 1))
    points;
  succ

(* Kahn's algorithm: peel vertices left with no predecessor; exactly
   the vertices on or behind a cycle never peel. *)
let acyclic succ =
  let v = Array.length succ in
  let indeg = Array.make v 0 in
  Array.iter (List.iter (fun w -> indeg.(w) <- indeg.(w) + 1)) succ;
  let stack = Array.make v 0 and top = ref 0 and peeled = ref 0 in
  let push w =
    stack.(!top) <- w;
    incr top
  in
  Array.iteri (fun w d -> if d = 0 then push w) indeg;
  while !top > 0 do
    decr top;
    let u = stack.(!top) in
    incr peeled;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then push w)
      succ.(u)
  done;
  !peeled = v

(* An acyclic chain graph settles the verdict; on a cycle the full
   edge search decides it and names the witness Properties_ref names. *)
let ordering_cx cx =
  if acyclic (chain_graph cx ~strict:false) then Ok ()
  else
    match find_cycle (delivery_edges_cx cx) with
    | None -> Ok ()
    | Some c ->
        fail "ordering: ↦ has the cycle %s"
          (String.concat " ↦ " (List.map (Printf.sprintf "m%d") c))

let strict_edges_cx cx =
  let tr = (Cx.outcome cx).Runner.trace in
  let ids = Cx.ids cx in
  let rt = ref [] in
  List.iter
    (fun m ->
      match Trace.first_delivery_seq tr ~m with
      | None -> ()
      | Some d ->
          List.iter
            (fun m' ->
              if m <> m' then
                match Trace.invoke_seq tr ~m:m' with
                | Some i when d < i -> rt := (m, m') :: !rt
                | _ -> ())
            ids)
    ids;
  !rt

let strict_ordering_cx cx =
  if acyclic (chain_graph cx ~strict:true) then Ok ()
  else
    match find_cycle (delivery_edges_cx cx @ strict_edges_cx cx) with
    | None -> Ok ()
    | Some c ->
        fail "strict ordering: ↦ ∪ ↝ has the cycle %s"
          (String.concat " → " (List.map (Printf.sprintf "m%d") c))

let pairwise_ordering_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let n = outcome.Runner.trace.Trace.n in
  let ids = Cx.ids cx in
  let b = Cx.bound cx in
  (* The scan for a process contradicting "m before m'" depends only on
     the pair, not on the p that exposed it; memoize its first
     violator: -2 = not yet computed, -1 = none, else the q. *)
  let bad = Array.make (b * b) (-2) in
  let first_bad_q m m' =
    let k = (m * b) + m' in
    if bad.(k) <> -2 then bad.(k)
    else begin
      let rec check q =
        if q >= n then -1
        else if not (Pset.mem q (Cx.dst cx m)) then check (q + 1)
        else
          match Trace.delivery_seq tr ~p:q ~m:m' with
          | None -> check (q + 1)
          | Some sq' -> (
              match Trace.delivery_seq tr ~p:q ~m with
              | Some sq when sq < sq' -> check (q + 1)
              | _ -> q)
      in
      let r = check 0 in
      bad.(k) <- r;
      r
    end
  in
  let rec procs p acc =
    if p >= n then acc
    else
      procs (p + 1)
        (Result.bind acc (fun () ->
             List.fold_left
               (fun acc m ->
                 Result.bind acc (fun () ->
                     match Trace.delivery_seq tr ~p ~m with
                     | None -> Ok ()
                     | Some s ->
                         List.fold_left
                           (fun acc m' ->
                             Result.bind acc (fun () ->
                                 if m = m' then Ok ()
                                 else
                                   match Trace.delivery_seq tr ~p ~m:m' with
                                   | Some s' when s < s' ->
                                       (* every q ∈ dst(m) delivering m'
                                          must have delivered m first *)
                                       let q = first_bad_q m m' in
                                       if q < 0 then Ok ()
                                       else
                                         fail
                                           "pairwise: p%d orders m%d before m%d but p%d does not"
                                           p m m' q
                                   | _ -> Ok ()))
                           acc ids))
               acc ids))
  in
  procs 0 (Ok ())

let minimality_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let stats = outcome.Runner.stats in
  let invoked = Trace.invoked tr in
  let addressed p =
    List.exists (fun m -> Pset.mem p (Cx.dst cx m)) invoked
  in
  let n = Array.length stats.Engine.steps in
  let rec loop p =
    if p >= n then Ok ()
    else if stats.Engine.steps.(p) > 0 && not (addressed p) then
      fail "minimality: p%d took %d steps with no message addressed to it" p
        stats.Engine.steps.(p)
    else loop (p + 1)
  in
  loop 0

let group_sequential_cx cx =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let sends =
    List.filter_map
      (function Trace.Send { m; p; seq; _ } -> Some (m, p, seq) | _ -> None)
      tr.Trace.events
  in
  let precedes m (_m', p', seq') =
    (* m ≺ m': the process performing A.multicast(m') delivered m first. *)
    match Trace.delivery_seq tr ~p:p' ~m with
    | Some s -> s < seq'
    | None -> false
  in
  if List.for_all (fun (m, _, _) -> Cx.known cx m) sends then begin
    (* Bucket the sends by destination group: candidate pairs share a
       group, and each outer send index lives in exactly one bucket, so
       the first bad pair of the old quadratic scan over the whole send
       list is the bucket-local first bad pair with the smallest outer
       index. *)
    let ng = max 1 (Topology.num_groups outcome.Runner.topo) in
    let buckets = Array.make ng [] in
    List.iteri
      (fun i ((m, _, _) as sm) ->
        let g = Cx.gid cx m in
        buckets.(g) <- (i, sm) :: buckets.(g))
      sends;
    let best = ref None in
    Array.iteri
      (fun g bucket ->
        let rec pairs = function
          | [] -> ()
          | (i, ((m, _, _) as sm)) :: rest ->
              let rec scan = function
                | [] -> pairs rest
                | (_, ((m', _, _) as sm')) :: rest' ->
                    if (not (precedes m sm')) && not (precedes m' sm) then
                      match !best with
                      | Some (bi, _, _, _) when bi <= i -> ()
                      | _ -> best := Some (i, m, m', g)
                    else scan rest'
              in
              scan rest
        in
        pairs (List.rev bucket))
      buckets;
    match !best with
    | Some (_, m, m', g) ->
        fail "group-sequential: m%d and m%d to g%d are not ≺-related" m m' g
    | None -> Ok ()
  end
  else begin
    (* A send id outside the workload: keep the original lazy-lookup
       loop so Not_found propagates exactly as before. *)
    let rec pairs = function
      | [] -> Ok ()
      | ((m, _, _) as sm) :: rest ->
          let group_of x =
            (Workload.message outcome.Runner.workload x).Amsg.dst
          in
          let bad =
            List.find_opt
              (fun ((m', _, _) as sm') ->
                group_of m = group_of m'
                && (not (precedes m sm'))
                && not (precedes m' sm))
              rest
          in
          (match bad with
          | Some (m', _, _) ->
              fail "group-sequential: m%d and m%d to g%d are not ≺-related" m m'
                (group_of m)
          | None -> pairs rest)
    in
    pairs sends
  end

let group_parallelism_cx cx ~m =
  let outcome = Cx.outcome cx in
  let tr = outcome.Runner.trace in
  let correct = Failure_pattern.correct outcome.Runner.fp in
  let members = Pset.inter correct (Cx.dst cx m) in
  let relevant =
    Trace.invoke_seq tr ~m <> None
    || Pset.exists (fun p -> Trace.delivered_at tr ~p ~m) (Cx.dst cx m)
  in
  if not relevant then Ok ()
  else
    Pset.fold
      (fun p acc ->
        Result.bind acc (fun () ->
            if Trace.delivered_at tr ~p ~m then Ok ()
            else fail "group parallelism: p%d did not deliver m%d in a dst-fair run" p m))
      members (Ok ())

let integrity outcome = integrity_cx (Cx.make outcome)
let termination outcome = termination_cx (Cx.make outcome)
let delivery_edges outcome = delivery_edges_cx (Cx.make outcome)
let ordering outcome = ordering_cx (Cx.make outcome)
let strict_ordering outcome = strict_ordering_cx (Cx.make outcome)
let pairwise_ordering outcome = pairwise_ordering_cx (Cx.make outcome)
let minimality outcome = minimality_cx (Cx.make outcome)
let group_sequential outcome = group_sequential_cx (Cx.make outcome)
let group_parallelism outcome ~m = group_parallelism_cx (Cx.make outcome) ~m

let all outcome =
  let cx = Cx.make outcome in
  let base =
    [
      ("integrity", integrity_cx cx);
      ("termination", termination_cx cx);
      ("minimality", minimality_cx cx);
      ("group-sequential", group_sequential_cx cx);
    ]
  in
  match outcome.Runner.variant with
  | Algorithm1.Vanilla ->
      base @ [ ("ordering", ordering_cx cx) ]
  | Algorithm1.Strict ->
      base @ [ ("ordering", ordering_cx cx); ("strict-ordering", strict_ordering_cx cx) ]
  | Algorithm1.Pairwise ->
      base @ [ ("pairwise-ordering", pairwise_ordering_cx cx) ]

let check_all outcome =
  let failures =
    List.filter_map
      (function name, Error e -> Some (name ^ ": " ^ e) | _, Ok () -> None)
      (all outcome)
  in
  if failures = [] then Ok () else Error (String.concat "; " failures)
