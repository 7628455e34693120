(* Bounded DPOR-lite exploration of Algorithm 1 schedules. Every node
   is derived from a copy of its parent's state plus one pinned tick
   ([derive]); the path of moves rides along, so every witness is a
   pinned schedule that replays from the initial state. See
   explore.mli for the reduction and soundness story. *)

type move = Step of int | Idle

let pp_move fmt = function
  | Step p -> Format.pp_print_int fmt p
  | Idle -> Format.pp_print_string fmt "-"

let moves_to_string moves =
  String.concat " "
    (List.map (function Step p -> string_of_int p | Idle -> "-") moves)

let moves_to_schedule moves =
  Scenario.Pinned
    (List.map (function Step p -> Some p | Idle -> None) moves)

type violation = { property : string; detail : string; witness : move list }

type counters = {
  nodes : int;
  terminals : int;
  truncated : int;
  cache_hits : int;
  sleep_skips : int;
  por_skips : int;
  replayed_steps : int;
  distinct_states : int;
  max_depth : int;
}

type report = {
  scenario : Scenario.t;
  depth : int;
  t_steady : int;
  por : bool;
  cache : bool;
  claims : bool;
  counters : counters;
  violations : violation list;
}

(* ------------------------------------------------------------------ *)
(* Time bounds                                                         *)
(* ------------------------------------------------------------------ *)

let steady_time sc =
  let max_at =
    List.fold_left (fun acc (_, _, at) -> max acc at) 0 sc.Scenario.msgs
  in
  max max_at (Scenario.mu sc).Mu.settle

let default_depth sc =
  let topo = Scenario.topology sc in
  let gids = Topology.gids topo in
  let per_msg (_, dst, _) =
    let members = Pset.cardinal (Topology.group topo dst) in
    let inters =
      List.length (List.filter (Topology.intersecting topo dst) gids)
    in
    (* list + send, then per destination member one pending, commit,
       stable and deliver action plus one stabilize per intersecting
       log. *)
    2 + (members * (4 + inters))
  in
  steady_time sc + List.fold_left (fun acc m -> acc + per_msg m) 0 sc.Scenario.msgs

(* ------------------------------------------------------------------ *)
(* Exploration context and replay primitive                            *)
(* ------------------------------------------------------------------ *)

(* The search's mutable counters; [counters] above is their frozen copy. *)
type acc = {
  mutable c_nodes : int;
  mutable c_terminals : int;
  mutable c_truncated : int;
  mutable c_cache_hits : int;
  mutable c_por_skips : int;
  mutable c_replayed_steps : int;
  mutable c_max_depth : int;
}

type ctx = {
  sc : Scenario.t;
  topo : Topology.t;
  fp : Failure_pattern.t;
  workload : Workload.t;
  mu : Mu.t;
  k : int;  (* workload size: message ids are 0 .. k-1 *)
  n : int;
  t_steady : int;
  components : int array;  (* interaction components, canonical labels *)
  por : bool;
  cache : bool;
  claims : bool;
  stop_on_first : bool;
  c : acc;
  visited : (Fingerprint.t, int) Hashtbl.t;
      (* each fingerprint's largest remaining depth explored *)
  viols : (string, violation) Hashtbl.t;  (* one entry per property *)
}

let make_ctx ~por ~cache ~claims ~stop_on_first sc =
  let sc = { sc with Scenario.schedule = Scenario.Free } in
  (match Scenario.validate sc with
  | Ok () -> ()
  | Error e -> invalid_arg ("Explore.run: " ^ e));
  (* Under channel faults the persistent-set argument breaks:
     announcement arrival times are absolute ticks drawn at listing
     time, so two independent moves no longer commute across ticks
     (swapping them shifts a listing — and with it every member's
     arrival — by one tick). Exploration stays sound by falling back
     to the unreduced search whenever the spec is non-trivial. *)
  let por = por && Channel_fault.is_none sc.Scenario.faults in
  let topo = Scenario.topology sc in
  let fp = Scenario.failure_pattern sc in
  let workload = Scenario.workload sc in
  {
    sc;
    topo;
    fp;
    workload;
    mu = Scenario.mu sc;
    k = List.length sc.Scenario.msgs;
    n = sc.Scenario.n;
    t_steady = steady_time sc;
    components = Topology.process_components topo;
    por;
    cache;
    claims;
    stop_on_first;
    c =
      {
        c_nodes = 0;
        c_terminals = 0;
        c_truncated = 0;
        c_cache_hits = 0;
        c_por_skips = 0;
        c_replayed_steps = 0;
        c_max_depth = 0;
      };
    visited = Hashtbl.create 1024;
    viols = Hashtbl.create 16;
  }

let initial_state ctx =
  Algorithm1.create ~variant:ctx.sc.Scenario.variant
    ~faults:ctx.sc.Scenario.faults ~fault_seed:ctx.sc.Scenario.seed
    ~topo:ctx.topo ~mu:ctx.mu ~workload:ctx.workload ()

(* The one tick [Engine.run_pinned] would run at time [ticks_used]:
   the pinned process, if alive then, calls [step] once; nobody else
   runs. *)
let derive ~fp st (stats : Engine.stats) mv =
  let t = stats.Engine.ticks_used in
  let st = Algorithm1.copy st in
  let steps = Array.copy stats.Engine.steps in
  let fired =
    match mv with
    | Step p ->
        (not (Failure_pattern.is_crashed_at fp p t))
        && Algorithm1.step st ~pid:p ~time:t
        && begin
             steps.(p) <- steps.(p) + 1;
             true
           end
    | Idle -> false
  in
  let executed = stats.Engine.executed + Bool.to_int fired in
  (st, { stats with Engine.steps; executed; ticks_used = t + 1 }, fired)

(* ------------------------------------------------------------------ *)
(* Violation bookkeeping                                               *)
(* ------------------------------------------------------------------ *)

(* One entry per property; shorter witnesses replace longer ones, the
   first witness found wins among equals (DFS order). *)
let record ctx property detail witness =
  match Hashtbl.find_opt ctx.viols property with
  | Some prev when List.length prev.witness <= List.length witness -> ()
  | _ -> Hashtbl.replace ctx.viols property { property; detail; witness }

(* Safety = everything but termination. Returns whether the node
   violates (the subtree is then pruned: violations are monotone,
   deeper nodes only repeat them). [rpath] is the node's move prefix,
   newest first. *)
let check_safety ctx st stats rpath =
  let o =
    Runner.outcome_of ~topo:ctx.topo ~workload:ctx.workload ~fp:ctx.fp
      ~variant:ctx.sc.Scenario.variant st stats ~snapshots:[]
  in
  List.fold_left
    (fun bad (name, verdict) ->
      match verdict with
      | Ok () -> bad
      | Error _ when String.equal name "termination" -> bad
      | Error e ->
          record ctx name e (List.rev rpath);
          true)
    false (Properties.all o)

(* The safety properties read only the Invoke, Send and Deliver events
   and whether each process has taken a step (properties.mli), so a
   child that added no other event and gave no process its first step
   has its parent's safety verdicts. *)
let safety_unchanged ~parent:(st, (stats : Engine.stats))
    (st', (stats' : Engine.stats)) =
  (match
     Algorithm1.events_since st' ~tail:(Algorithm1.events_newest_first st)
   with
  | Some added ->
      List.for_all
        (function Trace.Phase_change _ -> true | _ -> false)
        added
  | None -> false)
  && Array.for_all2
       (fun s s' -> s > 0 || s' = 0)
       stats.Engine.steps stats'.Engine.steps

(* Terminal nodes: no process can act and the clock is steady — a
   completed run or a genuine deadlock. Termination becomes meaningful
   here; with [claims] the Table 2 invariants are checked on the
   per-tick snapshots carried down the path ([rsnaps], newest first:
   the snapshot at tick [t] is that of the state the move at [t]
   started from). *)
let check_terminal ctx st stats rpath ~rsnaps =
  let path = List.rev rpath in
  let o =
    Runner.outcome_of ~topo:ctx.topo ~workload:ctx.workload ~fp:ctx.fp
      ~variant:ctx.sc.Scenario.variant st stats ~snapshots:(List.rev rsnaps)
  in
  (match Properties.termination o with
  | Ok () -> ()
  | Error e -> record ctx "termination" e path);
  if ctx.claims then
    List.iter
      (fun (name, verdict) ->
        match verdict with
        | Ok () -> ()
        | Error e -> record ctx name e path)
      (Claims.all o)

(* ------------------------------------------------------------------ *)
(* Node expansion                                                      *)
(* ------------------------------------------------------------------ *)

(* Probe the children of a node: for every alive, hint-enabled process
   derive the child of [Step p] and keep the ones whose move actually
   fired (the child state rides along, so expansion and probing are
   one pass). POR then restricts the fired set to the interaction
   component with the fewest enabled processes (persistent set), and
   an [Idle] child is prepended while the clock is not steady. *)
let candidates ctx ~st ~stats ~t =
  let hinted =
    List.filter
      (fun p ->
        (not (Failure_pattern.is_crashed_at ctx.fp p t))
        && Algorithm1.enabled st ~pid:p ~time:t)
      (List.init ctx.n Fun.id)
  in
  let probes =
    List.filter_map
      (fun p ->
        let st', stats', fired = derive ~fp:ctx.fp st stats (Step p) in
        if fired then begin
          ctx.c.c_replayed_steps <- ctx.c.c_replayed_steps + 1;
          Some (p, st', stats')
        end
        else None)
      hinted
  in
  let selected =
    match probes with
    | [] -> []
    | _ :: _ when ctx.por && t >= ctx.t_steady ->
        let comp p = ctx.components.(p) in
        let es = List.map (fun (p, _, _) -> p) probes in
        let size cmp = List.length (List.filter (fun p -> comp p = cmp) es) in
        let best =
          List.fold_left
            (fun acc cmp ->
              match acc with
              | Some (bs, _) when bs <= size cmp -> acc
              | _ -> Some (size cmp, cmp))
            None
            (List.sort_uniq Int.compare (List.map comp es))
        in
        let keep =
          match best with
          | None -> probes
          | Some (_, bc) -> List.filter (fun (p, _, _) -> comp p = bc) probes
        in
        ctx.c.c_por_skips <-
          ctx.c.c_por_skips + (List.length probes - List.length keep);
        keep
    | _ -> probes
  in
  let idle =
    (* An idle tick is also a candidate while an announcement copy is
       still in flight: its arrival enables guards by time alone. *)
    if t < ctx.t_steady || t < Algorithm1.visibility_horizon st then begin
      let st', stats', _ = derive ~fp:ctx.fp st stats Idle in
      [ (Idle, st', stats') ]
    end
    else []
  in
  idle @ List.map (fun (p, st', stats') -> (Step p, st', stats')) selected

(* ------------------------------------------------------------------ *)
(* DFS                                                                 *)
(* ------------------------------------------------------------------ *)

(* A node: [rpath] is its move prefix, newest first; [rsnaps] the
   snapshots of the states along it, newest first, under [claims] only;
   [segs] are its parent's fingerprint segments; [recheck] is false
   when its parent passed the safety check and [safety_unchanged]
   holds. *)
let rec visit ctx ~rpath ~rsnaps ~st ~stats ~segs ~recheck ~remaining =
  let c = ctx.c and t = stats.Engine.ticks_used in
  if not (ctx.stop_on_first && Hashtbl.length ctx.viols > 0) then begin
    c.c_nodes <- c.c_nodes + 1;
    if t > c.c_max_depth then c.c_max_depth <- t;
    let covered, segs =
      if not ctx.cache then (false, Fingerprint.none)
      else
        let key, segs =
          (* The steady-time cut is only sound without faults: with
             copies in flight, states at the same cut differ by their
             pending arrivals, which the fingerprint encodes relative to
             the absolute clock — so the absolute clock keys the
             cache. *)
          let cut =
            if Channel_fault.is_none ctx.sc.Scenario.faults then
              min t ctx.t_steady
            else t
          in
          Fingerprint.of_state ~reuse:segs ~time:cut ~topo:ctx.topo
            ~msgs:ctx.k st
        in
        (* Each state keeps the largest remaining depth explored from
           it: a visit with no more budget than that explores nothing
           new. *)
        match Hashtbl.find_opt ctx.visited key with
        | Some r0 when r0 >= remaining ->
            c.c_cache_hits <- c.c_cache_hits + 1;
            (true, segs)
        | _ ->
            Hashtbl.replace ctx.visited key remaining;
            (false, segs)
    in
    if covered then ()
    else if
      recheck && check_safety ctx st stats rpath
    then () (* violating subtree pruned *)
    else if remaining = 0 then c.c_truncated <- c.c_truncated + 1
    else
      match candidates ctx ~st ~stats ~t with
      | [] ->
          c.c_terminals <- c.c_terminals + 1;
          check_terminal ctx st stats rpath ~rsnaps
      | children ->
          let rsnaps =
            if ctx.claims then (t, Runner.snapshot_of st) :: rsnaps else rsnaps
          in
          List.iter
            (fun (mv, st', stats') ->
              let recheck =
                not (safety_unchanged ~parent:(st, stats) (st', stats'))
              in
              visit ctx ~rpath:(mv :: rpath) ~rsnaps ~st:st' ~stats:stats'
                ~segs ~recheck ~remaining:(remaining - 1))
            children
  end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* One depth-first search from the root, which is fingerprinted, cached
   and checked like any other node. *)
let run ?(por = true) ?(cache = true) ?(claims = false) ?(stop_on_first = false)
    ?depth sc =
  let ctx = make_ctx ~por ~cache ~claims ~stop_on_first sc in
  let depth =
    match depth with Some d -> max d 0 | None -> default_depth ctx.sc
  in
  let stats =
    {
      Engine.steps = Array.make ctx.n 0;
      executed = 0;
      ticks_used = 0;
      quiescent = false;
    }
  in
  visit ctx ~rpath:[] ~rsnaps:[] ~st:(initial_state ctx) ~stats
    ~segs:Fingerprint.none ~recheck:true ~remaining:depth;
  let c = ctx.c in
  let counters =
    {
      nodes = c.c_nodes;
      terminals = c.c_terminals;
      truncated = c.c_truncated;
      cache_hits = c.c_cache_hits;
      sleep_skips = 0;
      por_skips = c.c_por_skips;
      replayed_steps = c.c_replayed_steps;
      distinct_states = Hashtbl.length ctx.visited;
      max_depth = c.c_max_depth;
    }
  in
  let violations =
    Hashtbl.fold (fun _ v acc -> v :: acc) ctx.viols []
    |> List.sort (fun a b -> String.compare a.property b.property)
  in
  {
    scenario = ctx.sc;
    depth;
    t_steady = ctx.t_steady;
    por = ctx.por;
    cache;
    claims;
    counters;
    violations;
  }

let min_witness ?(por = true) ?(cache = true) ?max_depth sc =
  let bound =
    match max_depth with Some d -> d | None -> default_depth sc
  in
  let rec go d =
    if d > bound then None
    else
      let r = run ~por ~cache ~claims:false ~stop_on_first:true ~depth:d sc in
      match r.violations with [] -> go (d + 1) | _ -> Some r
  in
  go 1

let witness_scenario sc moves =
  Scenario.make ~crashes:sc.Scenario.crashes ~msgs:sc.Scenario.msgs
    ~variant:sc.Scenario.variant ~ablation:sc.Scenario.ablation
    ~schedule:(moves_to_schedule moves) ~max_delay:sc.Scenario.max_delay
    ~seed:sc.Scenario.seed ~faults:sc.Scenario.faults ~n:sc.Scenario.n
    sc.Scenario.groups

let failing_properties r =
  List.sort_uniq String.compare (List.map (fun v -> v.property) r.violations)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_report fmt r =
  let c = r.counters in
  Format.fprintf fmt
    "@[<v>explored %d states (depth <= %d, t_steady = %d): %d terminal, %d \
     truncated@,\
     reductions: %d persistent-set skips, %d cache hits (%d distinct \
     states)@,\
     replayed %d protocol actions, max depth %d@]"
    c.nodes r.depth r.t_steady c.terminals c.truncated c.por_skips
    c.cache_hits c.distinct_states c.replayed_steps c.max_depth;
  match r.violations with
  | [] -> Format.fprintf fmt "@.no violations@."
  | vs ->
      Format.fprintf fmt "@.%d violated propert%s:@." (List.length vs)
        (if List.length vs = 1 then "y" else "ies");
      List.iter
        (fun v ->
          Format.fprintf fmt "  %s: %s@.    witness: %s@." v.property v.detail
            (moves_to_string v.witness))
        vs

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | ch when Char.code ch < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code ch))
      | ch -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let variant_name = function
  | Algorithm1.Vanilla -> "vanilla"
  | Algorithm1.Strict -> "strict"
  | Algorithm1.Pairwise -> "pairwise"

let report_to_json r =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let c = r.counters in
  add "{\"version\":1,\"tool\":\"explore\",\n";
  add "\"config\":{\"n\":%d,\"groups\":%d,\"msgs\":%d,\"variant\":\"%s\",\
       \"seed\":%d,\"max_delay\":%d},\n"
    r.scenario.Scenario.n
    (List.length r.scenario.Scenario.groups)
    (List.length r.scenario.Scenario.msgs)
    (variant_name r.scenario.Scenario.variant)
    r.scenario.Scenario.seed r.scenario.Scenario.max_delay;
  add "\"depth\":%d,\"t_steady\":%d,\"por\":%b,\"cache\":%b,\"claims\":%b,\n"
    r.depth r.t_steady r.por r.cache r.claims;
  add
    "\"counters\":{\"nodes\":%d,\"terminals\":%d,\"truncated\":%d,\
     \"cache_hits\":%d,\"sleep_skips\":%d,\"por_skips\":%d,\
     \"replayed_steps\":%d,\"distinct_states\":%d,\"max_depth\":%d},\n"
    c.nodes c.terminals c.truncated c.cache_hits c.sleep_skips c.por_skips
    c.replayed_steps c.distinct_states c.max_depth;
  add "\"violations\":[";
  List.iteri
    (fun i v ->
      if i > 0 then add ",";
      add "\n{\"property\":\"%s\",\"detail\":\"%s\",\"witness\":\"%s\"}"
        (json_escape v.property) (json_escape v.detail)
        (json_escape (moves_to_string v.witness)))
    r.violations;
  add "\n],\n\"scenario\":\"%s\"}\n"
    (json_escape (Scenario.to_string r.scenario));
  Buffer.contents b
