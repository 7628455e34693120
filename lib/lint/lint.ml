(* Static replayability linter: parse each .ml with compiler-libs and
   walk the Parsetree. Purely syntactic — every rule is a conservative
   approximation, with [@lint.allow "<rule>"] as the escape hatch. *)

open Parsetree

type scope = Auto | Strict | Relaxed | Exec
type severity = Warning | Error

type diagnostic = {
  rule : string;
  severity : severity;
  pass : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

let rules =
  [
    ( "poly-compare",
      "bare compare/Hashtbl.hash, or =/<>/min/max applied to a composite \
       literal: the polymorphic order inspects the runtime representation" );
    ( "wall-clock",
      "Sys.time/Unix.gettimeofday/Random.* outside lib/util/rng.ml: ambient \
       time and randomness break seeded replay" );
    ( "hashtbl-order",
      "Hashtbl.fold/iter/to_seq without a List.sort in the same top-level \
       binding: iteration order depends on insertion history and hashing" );
    ( "global-mutable",
      "top-level ref/Hashtbl/Queue/Buffer in library code: shared by \
       Domain_pool workers without Atomic/Mutex" );
    ( "io-in-lib",
      "print_*/Printf.printf/exit in library code: libraries return data or \
       use Fmt/Logs formatters" );
    ("mli-presence", "every lib/**/*.ml must have an interface file");
  ]

let rule_names = List.map fst rules

(* ------------------------------------------------------------------ *)
(* Scope map                                                           *)
(* ------------------------------------------------------------------ *)

(* Libraries where a replay divergence corrupts every downstream
   result: the seeded substrate itself plus everything a fuzz trial
   executes. The rest of lib/ gets warnings for the representation
   rules but stays error-strict on IO, clocks and interfaces.
   [experiments] is strict because `Experiments.all ?jobs` farms its
   sections across Domain_pool and promises a canonical report;
   [racecheck] because an analyzer that diverges across runs would make
   the @racecheck gate flaky; [loadgen] because generated workloads,
   shard plans and latency accounting feed the committed throughput
   benchmark and its jobs-identity contract; [checker] because the
   identity suites pin its verdict strings byte for byte, so no hash
   table a checker keeps (claim 13's per-group sets, the cycle search's
   adjacency) may leak iteration order into a witness. *)
let strict_libs =
  [
    "sim"; "core"; "fuzz"; "net"; "objects"; "substrate"; "util"; "lint";
    "explore"; "experiments"; "racecheck"; "loadgen"; "checker";
  ]

let segments file =
  String.split_on_char '/' file
  |> List.filter (fun s -> s <> "" && s <> "." && s <> "..")

let classify file =
  let rec go = function
    | "lib" :: sub :: _ :: _ ->
        if List.mem sub strict_libs then `Strict else `Relaxed
    | _ :: rest -> go rest
    | [] -> `Exec
  in
  go (segments file)

let in_lib file = List.mem "lib" (segments file)

let is_rng_file file =
  let rec last2 = function
    | [ a; b ] -> Some (a, b)
    | _ :: rest -> last2 rest
    | [] -> None
  in
  last2 (segments file) = Some ("util", "rng.ml")

(* None = the rule does not apply in this scope class. *)
let severity_of cls rule =
  match rule with
  | "parse-error" -> Some Error
  | "poly-compare" | "hashtbl-order" | "global-mutable" -> (
      match cls with `Strict -> Some Error | `Relaxed | `Exec -> Some Warning)
  | "wall-clock" | "io-in-lib" | "mli-presence" -> (
      match cls with `Strict | `Relaxed -> Some Error | `Exec -> None)
  | _ -> Some Warning

let resolve_class scope file =
  match scope with
  | Auto -> classify file
  | Strict -> `Strict
  | Relaxed -> `Relaxed
  | Exec -> `Exec

(* ------------------------------------------------------------------ *)
(* Name tables                                                         *)
(* ------------------------------------------------------------------ *)

let rec longident_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> longident_parts l @ [ s ]
  | Longident.Lapply _ -> []

let name_of lid = String.concat "." (longident_parts lid)

let unqualify n =
  let pre = "Stdlib." in
  let lp = String.length pre in
  if String.length n > lp && String.sub n 0 lp = pre then
    String.sub n lp (String.length n - lp)
  else n

let poly_fns = [ "compare"; "Hashtbl.hash"; "Hashtbl.seeded_hash" ]
let poly_ops = [ "="; "<>"; "min"; "max" ]

let wall_clock_fns =
  [
    "Sys.time";
    "Unix.gettimeofday";
    "Unix.time";
    "Unix.gmtime";
    "Unix.localtime";
    "Unix.mktime";
  ]

let is_wall_clock n =
  List.mem n wall_clock_fns
  || String.length n >= 7
     && String.sub n 0 7 = "Random."

let io_fns =
  [
    "print_string";
    "print_endline";
    "print_newline";
    "print_int";
    "print_char";
    "print_float";
    "print_bytes";
    "prerr_string";
    "prerr_endline";
    "prerr_newline";
    "prerr_int";
    "prerr_char";
    "prerr_float";
    "prerr_bytes";
    "exit";
    "Printf.printf";
    "Printf.eprintf";
    "Format.printf";
    "Format.eprintf";
  ]

let fold_fns =
  [
    "Hashtbl.fold";
    "Hashtbl.iter";
    "Hashtbl.to_seq";
    "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values";
  ]

let sort_fns =
  [
    "List.sort";
    "List.sort_uniq";
    "List.stable_sort";
    "List.fast_sort";
    "Array.sort";
    "Array.stable_sort";
    "Array.fast_sort";
  ]

let mutable_ctors =
  [
    "ref";
    "Hashtbl.create";
    "Queue.create";
    "Stack.create";
    "Buffer.create";
    "Bytes.create";
    "Bytes.make";
    "Array.make";
  ]

(* Synchronized shared state is the *blessed* form of a top-level
   mutable: the typed racecheck pass classifies Atomic.t/Mutex.t roots
   as safe, and the syntactic rule must agree so that a cleanup never
   trades one pass's diagnostic for the other's. *)
let safe_ctors =
  [
    "Atomic.make";
    "Mutex.create";
    "Condition.create";
    "Semaphore.Counting.make";
    "Semaphore.Binary.make";
  ]

(* A syntactically composite literal: comparing one with =/<>/min/max
   is certainly a structural comparison. Bare Some/Ok/Error and
   argument-less constructors stay silent — option/result scrutiny
   against a constant is idiomatic and type-directed enough. *)
let rec is_structural e =
  match e.pexp_desc with
  | Pexp_tuple _ | Pexp_record _ | Pexp_array _ -> true
  | Pexp_construct ({ txt; _ }, Some _) -> (
      match longident_parts txt with
      | [] -> false
      | parts -> (
          match List.nth parts (List.length parts - 1) with
          | "Some" | "Ok" | "Error" -> false
          | _ -> true))
  | Pexp_variant (_, Some _) -> true
  | Pexp_constraint (e, _) -> is_structural e
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

let rec strings_of_expr e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) ->
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ' ')
      |> List.map String.trim
      |> List.filter (fun s -> s <> "")
  | Pexp_tuple es -> List.concat_map strings_of_expr es
  | Pexp_apply (f, args) ->
      strings_of_expr f @ List.concat_map (fun (_, a) -> strings_of_expr a) args
  | _ -> []

let allows_of_attrs attrs =
  List.concat_map
    (fun (a : attribute) ->
      if a.attr_name.txt <> "lint.allow" then []
      else
        match a.attr_payload with
        | PStr items ->
            List.concat_map
              (fun it ->
                match it.pstr_desc with
                | Pstr_eval (e, _) -> strings_of_expr e
                | _ -> [])
              items
        | _ -> [])
    attrs

(* [@@@lint.allow "..."] anywhere at the top level of a file covers the
   whole file. *)
let file_allows str =
  List.concat_map
    (fun it ->
      match it.pstr_desc with
      | Pstr_attribute a -> allows_of_attrs [ a ]
      | _ -> [])
    str

(* ------------------------------------------------------------------ *)
(* The pass                                                            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  file : string;
  cls : [ `Strict | `Relaxed | `Exec ];
  enabled : string list;
  rng_exempt : bool;
  mutable allowed : string list;
  mutable binding_has_sort : bool;
  mutable diags : diagnostic list;
}

let report ctx rule (loc : Location.t) msg =
  if List.mem rule ctx.enabled && not (List.mem rule ctx.allowed) then
    match severity_of ctx.cls rule with
    | None -> ()
    | Some severity ->
        let p = loc.loc_start in
        ctx.diags <-
          {
            rule;
            severity;
            pass = "syntactic";
            file = ctx.file;
            line = p.pos_lnum;
            col = p.pos_cnum - p.pos_bol;
            msg;
          }
          :: ctx.diags

let check_expr ctx e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } ->
      let n = unqualify (name_of txt) in
      if List.mem n poly_fns then
        report ctx "poly-compare" e.pexp_loc
          (Printf.sprintf
             "polymorphic %s: use a typed comparator (Int.compare, \
              String.compare, a per-type compare) so the order cannot depend \
              on the runtime representation"
             n)
      else if is_wall_clock n && not ctx.rng_exempt then
        report ctx "wall-clock" e.pexp_loc
          (Printf.sprintf
             "%s is an ambient time/randomness source; thread a seeded Rng.t \
              instead (only lib/util/rng.ml may own randomness)"
             n)
      else if List.mem n io_fns then
        report ctx "io-in-lib" e.pexp_loc
          (Printf.sprintf
             "%s in library code: return data, or render through a \
              Format/Fmt formatter chosen by the caller"
             n)
      else if List.mem n fold_fns && not ctx.binding_has_sort then
        report ctx "hashtbl-order" e.pexp_loc
          (Printf.sprintf
             "%s escapes without a sort in the same top-level binding: \
              Hashtbl iteration order depends on insertion history; sort the \
              result or annotate with [@lint.allow \"hashtbl-order\"]"
             n)
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) ->
      let n = unqualify (name_of txt) in
      if List.mem n poly_ops && List.exists (fun (_, a) -> is_structural a) args
      then
        report ctx "poly-compare" pexp_loc
          (Printf.sprintf
             "structural (%s) on a composite literal: project a key and \
              compare it with a typed comparator"
             n)
  | _ -> ()

let item_has_sort si =
  let found = ref false in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ }
      when List.mem (unqualify (name_of txt)) sort_fns ->
        found := true
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure_item it si;
  !found

let rec mutable_head e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) -> mutable_head e
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) ->
      let n = unqualify (name_of txt) in
      if List.mem n safe_ctors then None
      else if List.mem n mutable_ctors then Some n
      else None
  | _ -> None

let check_global_mutable ctx (vb : value_binding) =
  match mutable_head vb.pvb_expr with
  | None -> ()
  | Some n ->
      report ctx "global-mutable" vb.pvb_loc
        (Printf.sprintf
           "top-level mutable state (%s) is shared across Domain_pool \
            workers; wrap it in Atomic/Mutex or allocate it per call"
           n)

let run_iterator ctx str =
  let super = Ast_iterator.default_iterator in
  let with_allows allows f =
    if allows = [] then f ()
    else begin
      let saved = ctx.allowed in
      ctx.allowed <- allows @ ctx.allowed;
      Fun.protect ~finally:(fun () -> ctx.allowed <- saved) f
    end
  in
  let expr it e =
    with_allows
      (allows_of_attrs e.pexp_attributes)
      (fun () ->
        check_expr ctx e;
        super.expr it e)
  in
  let value_binding it vb =
    with_allows
      (allows_of_attrs vb.pvb_attributes)
      (fun () -> super.value_binding it vb)
  in
  let structure_item it si =
    match si.pstr_desc with
    | Pstr_value (_, vbs) ->
        let saved = ctx.binding_has_sort in
        ctx.binding_has_sort <- item_has_sort si;
        List.iter
          (fun vb ->
            with_allows
              (allows_of_attrs vb.pvb_attributes)
              (fun () -> check_global_mutable ctx vb))
          vbs;
        super.structure_item it si;
        ctx.binding_has_sort <- saved
    | _ -> super.structure_item it si
  in
  let it = { super with expr; value_binding; structure_item } in
  it.structure it str

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let compare_diag (a : diagnostic) (b : diagnostic) =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule

let parse_string ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  Parse.implementation lexbuf

let lint_string ?(scope = Auto) ?(rules = rule_names) ~file source =
  let cls = resolve_class scope file in
  match parse_string ~file source with
  | exception exn ->
      [
        {
          rule = "parse-error";
          severity = Error;
          pass = "syntactic";
          file;
          line = 1;
          col = 0;
          msg = Printexc.to_string exn;
        };
      ]
  | str ->
      let ctx =
        {
          file;
          cls;
          enabled = rules;
          rng_exempt = is_rng_file file;
          allowed = file_allows str;
          binding_has_sort = false;
          diags = [];
        }
      in
      run_iterator ctx str;
      List.sort compare_diag ctx.diags

let read_file path =
  In_channel.with_open_bin path (fun ic -> In_channel.input_all ic)

let check_mli scope file =
  if in_lib file && not (Sys.file_exists (file ^ "i")) then
    let cls = resolve_class scope file in
    match severity_of cls "mli-presence" with
    | None -> []
    | Some severity ->
        [
          {
            rule = "mli-presence";
            severity;
            pass = "syntactic";
            file;
            line = 1;
            col = 0;
            msg =
              Printf.sprintf
                "missing interface file %si: library modules declare their \
                 surface"
                file;
          };
        ]
  else []

let lint_paths ?(scope = Auto) ?(rules = rule_names) paths =
  let files = Fswalk.files ~ext:".ml" paths in
  List.concat_map
    (fun f ->
      let mli =
        if List.mem "mli-presence" rules then check_mli scope f else []
      in
      mli @ lint_string ~scope ~rules ~file:f (read_file f))
    files
  |> List.sort compare_diag

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let severity_name = function Warning -> "warning" | Error -> "error"

let to_text (diags : diagnostic list) =
  let b = Buffer.create 256 in
  List.iter
    (fun (d : diagnostic) ->
      Buffer.add_string b
        (Printf.sprintf "%s:%d:%d: %s[%s] %s\n" d.file d.line d.col
           (severity_name d.severity) d.rule d.msg))
    diags;
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let count sev (diags : diagnostic list) =
  List.length (List.filter (fun d -> d.severity = sev) diags)

let to_json (diags : diagnostic list) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "{\"version\":1,\"errors\":%d,\"warnings\":%d,\n"
       (count Error diags) (count Warning diags));
  Buffer.add_string b "\"diagnostics\":[";
  List.iteri
    (fun i (d : diagnostic) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n\
            {\"rule\":\"%s\",\"severity\":\"%s\",\"pass\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"msg\":\"%s\"}"
           (json_escape d.rule)
           (severity_name d.severity)
           (json_escape d.pass) (json_escape d.file) d.line d.col
           (json_escape d.msg)))
    diags;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let has_errors (diags : diagnostic list) =
  List.exists (fun d -> d.severity = Error) diags
