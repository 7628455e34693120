(* The checker scaling suite.

   Mirrors scaling.ml's grid (disjoint topologies and rings crossed
   with K messages per group) but times verification instead of
   execution: each case runs Algorithm 1 once, then repeatedly checks
   the outcome with the frozen pre-indexing reference
   (Properties_ref.all — per-probe list scans) and with the indexed
   checker (Properties.all). The [claims-] cases do the same for
   Table 2 (Claims_ref.all against Claims.all) on runs with per-tick
   snapshots recorded, and the [strict-] cases run the Strict variant,
   so that its [strict_ordering] is timed too; every other case runs
   Vanilla. [claims-ring-8-faults] is the e2e ring-faults-claims shape:
   a crash and lossy stubborn links; every other case is failure- and
   fault-free. The indexed side is timed on a fresh trace every
   run so the lazily-built Trace index is rebuilt inside the measured
   region — the speedup column is end-to-end, not amortized. Each side
   is timed by [Trajectory.time] (the median of runs repeated until the
   quota is spent). Each case also records whether the two checkers
   agreed verdict-for-verdict; the schema validator rejects the file if
   any case disagrees. *)

type case = {
  name : string;
  topo : Topology.t;
  workload : Workload.t;
  variant : Algorithm1.variant;
  claims : bool;  (** Table 2 instead of the multicast properties *)
  fp : Failure_pattern.t;
  faults : Channel_fault.spec;
}

let variant_name = function
  | Algorithm1.Vanilla -> "vanilla"
  | Algorithm1.Strict -> "strict"
  | Algorithm1.Pairwise -> "pairwise"

let mk_case ?(variant = Algorithm1.Vanilla) ~claims shape groups k =
  let topo, label =
    match shape with
    | `Disjoint ->
        ( Topology.disjoint ~groups ~size:3,
          Printf.sprintf "disjoint-%dx3" groups )
    | `Ring -> (Topology.ring ~groups, Printf.sprintf "ring-%d" groups)
  in
  let prefix =
    if claims then "claims-"
    else
      match variant with
      | Algorithm1.Vanilla -> ""
      | v -> variant_name v ^ "-"
  in
  {
    name = Printf.sprintf "%s%s-K%d" prefix label k;
    topo;
    workload = Scaling.workload_k ~per_group:k topo;
    variant;
    claims;
    fp = Failure_pattern.never ~n:(Topology.n topo);
    faults = Channel_fault.none;
  }

(* The first scenario of the e2e ring-faults-claims workload at seed 1
   (scenario seed 10,000): ring-8, open-loop load at 2 messages per
   tick for 12 ticks, each sourced by its group's smallest member, p11
   crashing at tick 5, and drop 20%, dup 5%, delay 3 on stubborn
   links. *)
let faults_case =
  let topo = Topology.ring ~groups:8 in
  let reqs =
    Loadgen.open_loop ~rng:(Rng.make 10_000) ~rate_pct:200 ~skew_pct:0
      ~duration:12 topo
  in
  let source { Workload.msg; at } =
    let src = Pset.choose (Topology.group topo msg.Amsg.dst) in
    { Workload.msg = Amsg.make ~id:msg.Amsg.id ~src ~dst:msg.Amsg.dst topo; at }
  in
  {
    name = "claims-ring-8-faults";
    topo;
    workload = List.map source reqs;
    variant = Algorithm1.Vanilla;
    claims = true;
    fp = Failure_pattern.of_crashes ~n:(Topology.n topo) [ (11, 5) ];
    faults =
      { Channel_fault.drop = 2000; dup = 500; delay = 3; stubborn = true };
  }

(* The reference checker is quadratic in messages with an O(|events|)
   scan per probe, so the full grid tops out lower than scaling.ml's:
   disjoint-16x3-K16 (256 messages) already takes seconds per
   reference check. The reference claims 2–8 rescan every log of every
   snapshot pair, so the Table 2 rows stay at K = 4. The reference
   strict ordering searches ↦ ∪ ↝, whose ↝ half relates almost every
   ordered pair of a failure-free run: strict-ring-12-K16 took 0.9 s
   per reference check, so the strict rows stop below it. *)
let cases ~smoke =
  let disjoint = if smoke then [ 4 ] else [ 4; 8; 16 ] in
  let rings = if smoke then [ 6 ] else [ 6; 12 ] in
  let ks = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let claims =
    if smoke then [ (`Ring, 6) ]
    else [ (`Disjoint, 4); (`Disjoint, 8); (`Ring, 6); (`Ring, 12) ]
  in
  let strict = if smoke then [ (6, 4) ] else [ (6, 16); (12, 4) ] in
  let grid shape g = List.map (mk_case ~claims:false shape g) ks in
  List.concat_map (grid `Disjoint) disjoint
  @ List.concat_map (grid `Ring) rings
  @ List.map
      (fun (g, k) ->
        mk_case ~variant:Algorithm1.Strict ~claims:false `Ring g k)
      strict
  @ List.map (fun (shape, g) -> mk_case ~claims:true shape g 4) claims
  @ [ faults_case ]

let render verdicts =
  String.concat "; "
    (List.map
       (function
         | name, Ok () -> name ^ "=ok" | name, Error e -> name ^ "=" ^ e)
       verdicts)

let measure ~quota_ms c =
  let o =
    Runner.run ~variant:c.variant ~seed:1 ~faults:c.faults
      ~record_snapshots:c.claims ~topo:c.topo ~fp:c.fp ~workload:c.workload ()
  in
  let reference, indexed =
    if c.claims then (Claims_ref.all, Claims.all)
    else (Properties_ref.all, Properties.all)
  in
  (* A fresh trace value per indexed check: same events, unbuilt index. *)
  let fresh () =
    {
      o with
      Runner.trace =
        Trace.make ~n:o.Runner.trace.Trace.n o.Runner.trace.Trace.events;
    }
  in
  let r = Trajectory.time ~quota_ms (fun () -> reference o) in
  let t = Trajectory.time ~quota_ms (fun () -> indexed (fresh ())) in
  let ref_ns = Trajectory.ns r and idx_ns = Trajectory.ns t in
  Trajectory.
    [
      ("name", Str c.name);
      ("variant", Str (variant_name c.variant));
      ("n", Int (Topology.n c.topo));
      ("groups", Int (Topology.num_groups c.topo));
      ("msgs", Int (List.length c.workload));
      ("events", Int (List.length o.Runner.trace.Trace.events));
      ("ref_ns_per_check", Float (1, ref_ns));
      ("ns_per_check", Float (1, idx_ns));
      ("speedup", Float (2, if idx_ns > 0. then ref_ns /. idx_ns else 0.));
      ("ref_runs", Int r.runs);
      ("runs", Int t.runs);
      ("verdicts_equal", Bool (render t.result = render r.result));
    ]

let suite =
  {
    Trajectory.name = "checker";
    header = (fun cfg -> [ ("quota_ms", Trajectory.Int cfg.quota_ms) ]);
    cases =
      (fun cfg ->
        List.map (measure ~quota_ms:cfg.quota_ms) (cases ~smoke:cfg.smoke));
  }
