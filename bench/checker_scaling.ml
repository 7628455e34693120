(* The checker scaling suite.

   Mirrors scaling.ml's grid (disjoint topologies and rings crossed
   with K messages per group) but times verification instead of
   execution: each case runs Algorithm 1 once, then repeatedly checks
   the outcome with the frozen pre-indexing reference
   (Properties_ref.all — per-probe list scans) and with the indexed
   checker (Properties.all). The [claims-] cases do the same for
   Table 2 (Claims_ref.all against Claims.all) on runs with per-tick
   snapshots recorded. The indexed side is timed on a fresh trace every
   run so the lazily-built Trace index is rebuilt inside the measured
   region — the speedup column is end-to-end, not amortized. Each case
   also records whether the two checkers agreed verdict-for-verdict;
   the schema validator rejects the file if any case disagrees.

   Wall-clock by design: this *is* the clock benchmark (exec scope
   already waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

type case = {
  name : string;
  topo : Topology.t;
  workload : Workload.t;
  claims : bool;  (** Table 2 instead of the multicast properties *)
}

let mk_case ~claims shape groups k =
  let topo, label =
    match shape with
    | `Disjoint ->
        ( Topology.disjoint ~groups ~size:3,
          Printf.sprintf "disjoint-%dx3" groups )
    | `Ring -> (Topology.ring ~groups, Printf.sprintf "ring-%d" groups)
  in
  {
    name = Printf.sprintf "%s%s-K%d" (if claims then "claims-" else "") label k;
    topo;
    workload = Scaling.workload_k ~per_group:k topo;
    claims;
  }

(* The reference checker is quadratic in messages with an O(|events|)
   scan per probe, so the full grid tops out lower than scaling.ml's:
   disjoint-16x3-K16 (256 messages) already takes seconds per
   reference check. The reference claims 2–8 rescan every log of every
   snapshot pair, so the Table 2 rows stay at K = 4. *)
let cases ~smoke =
  let disjoint = if smoke then [ 4 ] else [ 4; 8; 16 ] in
  let rings = if smoke then [ 6 ] else [ 6; 12 ] in
  let ks = if smoke then [ 1; 4 ] else [ 1; 4; 16 ] in
  let claims =
    if smoke then [ (`Ring, 6) ]
    else [ (`Disjoint, 4); (`Disjoint, 8); (`Ring, 6); (`Ring, 12) ]
  in
  let grid shape g = List.map (mk_case ~claims:false shape g) ks in
  List.concat_map (grid `Disjoint) disjoint
  @ List.concat_map (grid `Ring) rings
  @ List.map (fun (shape, g) -> mk_case ~claims:true shape g 4) claims

type result = {
  case : case;
  events : int;
  ref_runs : int;
  ref_ns_per_check : float;
  runs : int;
  ns_per_check : float;
  verdicts_equal : bool;
}

let speedup r =
  if r.ns_per_check > 0. then r.ref_ns_per_check /. r.ns_per_check else 0.

let render verdicts =
  String.concat "; "
    (List.map
       (function
         | name, Ok () -> name ^ "=ok" | name, Error e -> name ^ "=" ^ e)
       verdicts)

let measure ~quota_ms c =
  let fp = Failure_pattern.never ~n:(Topology.n c.topo) in
  let o =
    Runner.run ~seed:1 ~record_snapshots:c.claims ~topo:c.topo ~fp
      ~workload:c.workload ()
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
  let repeat f =
    let quota = float_of_int quota_ms /. 1000. in
    let time_one () =
      let t0 = Unix.gettimeofday () in
      ignore (f ());
      Unix.gettimeofday () -. t0
    in
    let total = ref (time_one ()) in
    let runs = ref 1 in
    while !total < quota && !runs < 10_000 do
      total := !total +. time_one ();
      incr runs
    done;
    (!runs, !total /. float_of_int !runs *. 1e9)
  in
  let ref_runs, ref_ns_per_check = repeat (fun () -> reference o) in
  let runs, ns_per_check = repeat (fun () -> indexed (fresh ())) in
  let verdicts_equal = render (indexed (fresh ())) = render (reference o) in
  {
    case = c;
    events = List.length o.Runner.trace.Trace.events;
    ref_runs;
    ref_ns_per_check;
    runs;
    ns_per_check;
    verdicts_equal;
  }

let run_all ~quota_ms ~smoke =
  List.map (measure ~quota_ms) (cases ~smoke)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let pp_ns ns =
  if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else Printf.sprintf "%8.2f us" (ns /. 1e3)

let print_text results =
  print_endline "== Checker scaling suite (reference vs indexed) ==";
  List.iter
    (fun r ->
      Printf.printf "  %-22s ref %s/check  indexed %s/check  %7.1fx  %s\n"
        r.case.name
        (pp_ns r.ref_ns_per_check)
        (pp_ns r.ns_per_check) (speedup r)
        (if r.verdicts_equal then "" else "VERDICTS DIFFER"))
    results

(* Same whole-file shape as scaling.ml's trajectory (schema marker +
   entries array) so validate.exe checks both; the per-case fields are
   dispatched on the "suite" string. *)
let json_trajectory ~label ~quota_ms results =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n  \"schema\": \"amcast-bench-trajectory/v1\",\n";
  Buffer.add_string b "  \"suite\": \"checker-scaling\",\n";
  Buffer.add_string b "  \"entries\": [ {\n";
  Printf.bprintf b "    \"label\": \"%s\",\n" (Scaling.json_escape label);
  Printf.bprintf b "    \"quota_ms\": %d,\n" quota_ms;
  Buffer.add_string b "    \"cases\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "    { \"name\": \"%s\", \"n\": %d, \"groups\": %d, \"msgs\": %d,\n\
        \      \"events\": %d, \"ref_ns_per_check\": %.1f, \"ns_per_check\": %.1f,\n\
        \      \"speedup\": %.2f, \"ref_runs\": %d, \"runs\": %d,\n\
        \      \"verdicts_equal\": %b }"
        (Scaling.json_escape r.case.name)
        (Topology.n r.case.topo)
        (Topology.num_groups r.case.topo)
        (List.length r.case.workload)
        r.events r.ref_ns_per_check r.ns_per_check (speedup r) r.ref_runs
        r.runs r.verdicts_equal)
    results;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b
