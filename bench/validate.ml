(* Schema check for the BENCH_*.json trajectories.

   Usage: validate.exe FILE...

   Each file must parse as JSON and match the amcast-bench-trajectory/v1
   shape: a top-level object with the schema marker, a known "suite"
   string and a non-empty "entries" array; every entry carries a
   "label" and a non-empty "cases" array. Per-case fields depend on the
   suite: "algorithm1-scaling" cases carry name/ns_per_run/
   steps_per_sec/consensus_instances/complete; "checker-scaling" cases
   carry name/ref_ns_per_check/ns_per_check/speedup/events and a
   verdicts_equal flag that must be true (a recorded disagreement
   between the indexed and reference checkers is a schema violation);
   "explore-scaling" cases carry name/depth/nodes/nodes_naive/
   reduction_factor/states_per_sec/violations and a verdicts_equal flag
   that must be true (the POR-ablated sweep must reach the same
   verdict); "faults-scaling" cases carry name/drop/sent/delivered/
   retransmissions/lost/overhead and a verdicts_equal flag that must be
   true (stubborn links must not change any specification verdict
   relative to the fault-free baseline); "throughput-scaling" cases
   carry name/msgs/shards/off_msgs_per_sec/on_msgs_per_sec/speedup,
   monotone p50/p99/max latency grids per engine mode, on_rounds <=
   off_rounds (the drain adds no proposals) and a verdicts_equal flag
   that must be true (the heavy-traffic engine modes must not change a
   specification verdict).
   Exits non-zero with a message naming the file and the offending path
   on any mismatch.

   The parser below is a deliberately tiny recursive-descent JSON
   reader — enough for the machine-generated files we emit; no external
   JSON dependency is baked into the image. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Parse of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/') ->
              Buffer.add_char b (Option.get (peek ()));
              advance ();
              go ()
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | _ -> fail "unsupported escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> num_char c | None -> false) do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected character"
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then begin
      advance ();
      Obj []
    end
    else
      let rec fields acc =
        skip_ws ();
        let k = string_lit () in
        skip_ws ();
        expect ':';
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            fields ((k, v) :: acc)
        | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
        | _ -> fail "expected , or } in object"
      in
      fields []
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then begin
      advance ();
      Arr []
    end
    else
      let rec elems acc =
        let v = value () in
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            elems (v :: acc)
        | Some ']' ->
            advance ();
            Arr (List.rev (v :: acc))
        | _ -> fail "expected , or ] in array"
      in
      elems []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Schema checks                                                       *)
(* ------------------------------------------------------------------ *)

exception Schema of string

let schema_fail path msg = raise (Schema (Printf.sprintf "%s: %s" path msg))

let field path obj k =
  match obj with
  | Obj fields -> (
      match List.assoc_opt k fields with
      | Some v -> v
      | None -> schema_fail path (Printf.sprintf "missing field %S" k))
  | _ -> schema_fail path "expected an object"

let as_string path = function
  | Str s -> s
  | _ -> schema_fail path "expected a string"

let as_num path = function
  | Num f -> f
  | _ -> schema_fail path "expected a number"

let as_bool path = function
  | Bool b -> b
  | _ -> schema_fail path "expected a boolean"

let as_arr path = function
  | Arr l -> l
  | _ -> schema_fail path "expected an array"

(* Per-case checks, dispatched on the top-level "suite" string. *)

let check_algorithm1_case path c =
  let name = as_string (path ^ ".name") (field path c "name") in
  let path = Printf.sprintf "%s(%s)" path name in
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  if num "ns_per_run" <= 0. then schema_fail path "ns_per_run must be > 0";
  if num "steps_per_sec" < 0. then schema_fail path "steps_per_sec must be >= 0";
  if num "consensus_instances" < 0. then
    schema_fail path "consensus_instances must be >= 0";
  ignore (as_bool (path ^ ".complete") (field path c "complete"))

let check_checker_case path c =
  let name = as_string (path ^ ".name") (field path c "name") in
  let path = Printf.sprintf "%s(%s)" path name in
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  if num "ref_ns_per_check" <= 0. then
    schema_fail path "ref_ns_per_check must be > 0";
  if num "ns_per_check" <= 0. then schema_fail path "ns_per_check must be > 0";
  if num "speedup" <= 0. then schema_fail path "speedup must be > 0";
  if num "events" < 0. then schema_fail path "events must be >= 0";
  (* Verdict identity is part of the schema: a trajectory recording a
     disagreement between the indexed and reference checkers is
     invalid, full stop. *)
  if not (as_bool (path ^ ".verdicts_equal") (field path c "verdicts_equal"))
  then schema_fail path "verdicts_equal must be true"

let check_explore_case path c =
  let name = as_string (path ^ ".name") (field path c "name") in
  let path = Printf.sprintf "%s(%s)" path name in
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  if num "depth" <= 0. then schema_fail path "depth must be > 0";
  if num "nodes" <= 0. then schema_fail path "nodes must be > 0";
  if num "nodes_naive" < num "nodes" then
    schema_fail path "nodes_naive must be >= nodes (POR only prunes)";
  if num "reduction_factor" < 1. then
    schema_fail path "reduction_factor must be >= 1";
  if num "states_per_sec" <= 0. then
    schema_fail path "states_per_sec must be > 0";
  if num "violations" < 0. then schema_fail path "violations must be >= 0";
  (* Verdict identity across the POR ablation is part of the schema: a
     trajectory recording different verdicts with and without reduction
     is invalid, full stop. *)
  if not (as_bool (path ^ ".verdicts_equal") (field path c "verdicts_equal"))
  then schema_fail path "verdicts_equal must be true"

let check_faults_case path c =
  let name = as_string (path ^ ".name") (field path c "name") in
  let path = Printf.sprintf "%s(%s)" path name in
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  if num "drop" < 0. then schema_fail path "drop must be >= 0";
  if num "sent" <= 0. then schema_fail path "sent must be > 0";
  if num "delivered" < 0. then schema_fail path "delivered must be >= 0";
  if num "retransmissions" < 0. then
    schema_fail path "retransmissions must be >= 0";
  if num "lost" < 0. then schema_fail path "lost must be >= 0";
  if num "overhead" < 0. then schema_fail path "overhead must be >= 0";
  (* Verdict identity with the fault-free baseline is part of the
     schema: a trajectory recording that stubborn links changed a
     specification verdict is invalid, full stop. *)
  if not (as_bool (path ^ ".verdicts_equal") (field path c "verdicts_equal"))
  then schema_fail path "verdicts_equal must be true"

let check_throughput_case path c =
  let name = as_string (path ^ ".name") (field path c "name") in
  let path = Printf.sprintf "%s(%s)" path name in
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  if num "msgs" <= 0. then schema_fail path "msgs must be > 0";
  if num "shards" < 1. then schema_fail path "shards must be >= 1";
  if num "off_msgs_per_sec" <= 0. then
    schema_fail path "off_msgs_per_sec must be > 0";
  if num "on_msgs_per_sec" <= 0. then
    schema_fail path "on_msgs_per_sec must be > 0";
  if num "speedup" <= 0. then schema_fail path "speedup must be > 0";
  if num "delivered" < 0. then schema_fail path "delivered must be >= 0";
  if num "delivered" > num "msgs" then
    schema_fail path "delivered must be <= msgs";
  (* Throughput is simulated-time (one tick = one simulated ms), so the
     makespans are exact: positive, and never longer batched — the
     batched engine drains a superset of the scalar engine's enabled
     actions each tick. *)
  if num "off_span_ticks" <= 0. then
    schema_fail path "off_span_ticks must be > 0";
  if num "on_span_ticks" <= 0. then
    schema_fail path "on_span_ticks must be > 0";
  if num "on_span_ticks" > num "off_span_ticks" then
    schema_fail path "on_span_ticks must be <= off_span_ticks";
  (* Latency grids are tick-deterministic, so monotonicity is exact:
     p50 <= p99 <= max in both engine modes. *)
  List.iter
    (fun mode ->
      let p50 = num (mode ^ "_p50")
      and p99 = num (mode ^ "_p99")
      and mx = num (mode ^ "_max") in
      if p50 < 0. then schema_fail path (mode ^ "_p50 must be >= 0");
      if p50 > p99 || p99 > mx then
        schema_fail path (mode ^ " percentiles must be monotone"))
    [ "off"; "on" ];
  (* A round is one proposal and the drain runs the paper's actions, so
     the batched run never takes more rounds than the scalar one. *)
  if num "on_rounds" > num "off_rounds" then
    schema_fail path "on_rounds must be <= off_rounds";
  (* Verdict identity across engine modes is part of the schema: a
     trajectory recording that batching/sharding changed a
     specification verdict is invalid, full stop. *)
  if not (as_bool (path ^ ".verdicts_equal") (field path c "verdicts_equal"))
  then schema_fail path "verdicts_equal must be true"

let check_entry check_case i e =
  let path = Printf.sprintf "entries[%d]" i in
  let label = as_string (path ^ ".label") (field path e "label") in
  let path = Printf.sprintf "%s(%s)" path label in
  let cases = as_arr (path ^ ".cases") (field path e "cases") in
  if cases = [] then schema_fail path "cases must be non-empty";
  List.iter (check_case (path ^ ".cases")) cases

let check_trajectory j =
  let schema = as_string "schema" (field "top" j "schema") in
  if schema <> "amcast-bench-trajectory/v1" then
    schema_fail "schema" ("unknown schema " ^ schema);
  let suite = as_string "suite" (field "top" j "suite") in
  let check_case =
    match suite with
    | "algorithm1-scaling" -> check_algorithm1_case
    | "checker-scaling" -> check_checker_case
    | "explore-scaling" -> check_explore_case
    | "faults-scaling" -> check_faults_case
    | "throughput-scaling" -> check_throughput_case
    | _ -> schema_fail "suite" ("unknown suite " ^ suite)
  in
  let entries = as_arr "entries" (field "top" j "entries") in
  if entries = [] then schema_fail "entries" "must be non-empty";
  List.iteri (check_entry check_case) entries

let check_file file =
  let text = In_channel.with_open_bin file In_channel.input_all in
  let j = parse text in
  check_trajectory j;
  let entries =
    match field "top" j "entries" with Arr l -> List.length l | _ -> 0
  in
  Printf.printf "%s: ok (%d entr%s)\n" file entries
    (if entries = 1 then "y" else "ies")

let () =
  let files =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as files) -> files
    | _ ->
        prerr_endline "usage: validate.exe FILE...";
        exit 2
  in
  List.iter
    (fun file ->
      try check_file file with
      | Parse msg ->
          Printf.eprintf "%s: JSON parse error: %s\n" file msg;
          exit 1
      | Schema msg ->
          Printf.eprintf "%s: schema violation: %s\n" file msg;
          exit 1
      | Sys_error msg ->
          Printf.eprintf "%s\n" msg;
          exit 1)
    files
