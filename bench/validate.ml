(* Schema check for the BENCH_*.json trajectories.

   Usage: validate.exe FILE...

   Each file must parse as JSON and match the amcast-bench-trajectory/v1
   shape: a top-level object with the schema marker, a known "suite"
   string and a non-empty "entries" array; every entry carries a
   "label", a "cores" count (an integer >= 1) if it has one, and a
   non-empty "cases" array whose cases each carry a "name". The fields
   of a case are checked against its suite's row of [rules]. Exits 1
   with a message naming the file and the offending path on any
   mismatch, 2 on a usage error.

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
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> Buffer.add_char b c
          | Some 'n' -> Buffer.add_char b '\n'
          | Some 't' -> Buffer.add_char b '\t'
          | Some 'u' when !pos + 4 < n -> (
              match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
              | Some u when Uchar.is_valid u ->
                  Buffer.add_utf_8_uchar b (Uchar.of_int u);
                  pos := !pos + 4
              | _ -> fail "bad \\u escape")
          | _ -> fail "unsupported escape");
          advance ();
          go ()
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

type rule =
  | Gt of string * float  (** field > c *)
  | Ge of string * float  (** field >= c *)
  | Le of string * string  (** field <= another field *)
  | Is_bool of string
  | True of string  (** a boolean that must be true *)

(* Per-suite case rules. Every [True "verdicts_equal"] makes verdict
   identity part of the schema: a trajectory recording that the indexed
   checker, POR, stubborn links or the heavy-traffic engine modes
   changed a specification verdict is invalid, full stop. The [Le] rows
   are exact because their fields are deterministic. *)
let rules =
  [
    ( "algorithm1-scaling",
      [
        Gt ("ns_per_run", 0.);
        Ge ("steps_per_sec", 0.);
        Ge ("consensus_instances", 0.);
        Is_bool "complete";
      ] );
    ( "checker-scaling",
      [
        Gt ("ref_ns_per_check", 0.);
        Gt ("ns_per_check", 0.);
        Gt ("speedup", 0.);
        Ge ("events", 0.);
        True "verdicts_equal";
      ] );
    ( "explore-scaling",
      [
        Gt ("depth", 0.);
        Gt ("nodes", 0.);
        (* POR only prunes *)
        Le ("nodes", "nodes_naive");
        Ge ("reduction_factor", 1.);
        Gt ("states_per_sec", 0.);
        Ge ("violations", 0.);
        True "verdicts_equal";
      ] );
    ( "faults-scaling",
      [
        Ge ("drop", 0.);
        Gt ("sent", 0.);
        Ge ("delivered", 0.);
        Ge ("retransmissions", 0.);
        Ge ("lost", 0.);
        Ge ("overhead", 0.);
        True "verdicts_equal";
      ] );
    ( "throughput-scaling",
      [
        Gt ("msgs", 0.);
        Ge ("shards", 1.);
        Gt ("off_msgs_per_sec", 0.);
        Gt ("on_msgs_per_sec", 0.);
        Gt ("speedup", 0.);
        Ge ("delivered", 0.);
        Le ("delivered", "msgs");
        (* Makespans are simulated ticks, never longer batched: the
           drain runs a superset of the scalar engine's enabled actions
           each tick. *)
        Gt ("off_span_ticks", 0.);
        Gt ("on_span_ticks", 0.);
        Le ("on_span_ticks", "off_span_ticks");
        Ge ("off_p50", 0.);
        Le ("off_p50", "off_p99");
        Le ("off_p99", "off_max");
        Ge ("on_p50", 0.);
        Le ("on_p50", "on_p99");
        Le ("on_p99", "on_max");
        (* a round is one proposal, and the drain adds none *)
        Le ("on_rounds", "off_rounds");
        True "verdicts_equal";
      ] );
  ]

let check_rule path c rule =
  let num k = as_num (path ^ "." ^ k) (field path c k) in
  let bool k = as_bool (path ^ "." ^ k) (field path c k) in
  let require ok msg = if not ok then schema_fail path msg in
  match rule with
  | Gt (k, v) -> require (num k > v) (Printf.sprintf "%s must be > %g" k v)
  | Ge (k, v) -> require (num k >= v) (Printf.sprintf "%s must be >= %g" k v)
  | Le (a, b) ->
      require (num a <= num b) (Printf.sprintf "%s must be <= %s" a b)
  | Is_bool k -> ignore (bool k)
  | True k -> require (bool k) (k ^ " must be true")

let check_entry rules i e =
  let path = Printf.sprintf "entries[%d]" i in
  let label = as_string (path ^ ".label") (field path e "label") in
  let path = Printf.sprintf "%s(%s)" path label in
  (match e with
  | Obj fields when List.mem_assoc "cores" fields ->
      let cores = as_num (path ^ ".cores") (field path e "cores") in
      if not (Float.is_integer cores && cores >= 1.) then
        schema_fail path "cores must be an integer >= 1"
  | _ -> ());
  let cases = as_arr (path ^ ".cases") (field path e "cases") in
  if cases = [] then schema_fail path "cases must be non-empty";
  List.iter
    (fun c ->
      let path = path ^ ".cases" in
      let name = as_string (path ^ ".name") (field path c "name") in
      List.iter (check_rule (Printf.sprintf "%s(%s)" path name) c) rules)
    cases

let check_trajectory j =
  let schema = as_string "schema" (field "top" j "schema") in
  if schema <> "amcast-bench-trajectory/v1" then
    schema_fail "schema" ("unknown schema " ^ schema);
  let suite = as_string "suite" (field "top" j "suite") in
  let rules =
    match List.assoc_opt suite rules with
    | Some r -> r
    | None -> schema_fail "suite" ("unknown suite " ^ suite)
  in
  let entries = as_arr "entries" (field "top" j "entries") in
  if entries = [] then schema_fail "entries" "must be non-empty";
  List.iteri (check_entry rules) entries;
  List.length entries

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
      try
        let entries =
          check_trajectory
            (parse (In_channel.with_open_bin file In_channel.input_all))
        in
        Printf.printf "%s: ok (%d entr%s)\n" file entries
          (if entries = 1 then "y" else "ies")
      with
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
