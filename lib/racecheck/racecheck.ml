(* Typed domain-safety analysis over the .cmt files dune already
   produces (-bin-annot). Where the syntactic linter (lib/lint) can
   only pattern-match source shapes, this pass sees the Typedtree:
   mutable roots are identified by their *types* (ref, array, bytes,
   Buffer.t, Hashtbl.t, records with mutable fields declared anywhere
   in the scanned tree), capture is decided by a free-variable walk
   over the closures handed to the parallel entry points
   (Domain_pool.map / Domain_pool.find_first / Domain.spawn), and
   synchronization (Atomic.t, Mutex brackets) downgrades a root to
   safe. See racecheck.mli and DESIGN.md for rule semantics and the
   documented soundness caveats. *)

open Typedtree

module ISet = Set.Make (Ident)
module IMap = Map.Make (Ident)
module SSet = Set.Make (String)

let rules =
  [
    ( "shared-mutable-capture",
      "a closure passed to Domain_pool.map/find_first or Domain.spawn \
       captures a mutable value (ref, array, bytes, Buffer, Queue, Stack, or \
       a record with mutable fields) allocated outside the worker: every \
       domain shares the same cell" );
    ( "unsynchronized-hashtbl",
      "a worker closure captures a Hashtbl allocated outside it: concurrent \
       add/resize corrupts buckets; use a Mutex bracket or per-worker tables" );
    ( "mutable-global-reached",
      "a worker closure reaches module-level mutable state, directly or \
       through a helper called from the worker (one call level deep)" );
    ( "non-atomic-signal",
      "a worker closure assigns a captured int/bool/float ref — a \
       cross-domain signal flag or counter must be an Atomic.t" );
    ( "missing-cmt",
      "a source file under the requested roots has no .cmt in the build \
       directory, so the typed pass could not check it (build first, or \
       point --build-dir at the right context)" );
  ]

let rule_names = List.map fst rules

(* Unlike the syntactic pass, the four capture rules are errors in
   executables too: bench/ farms real work across Domain_pool and
   promises bit-identical reports, so a race there is as fatal as one
   in lib/. Only the relaxed libraries get warnings. *)
let severity_of cls rule =
  match rule with
  | "missing-cmt" -> Lint.Warning
  | _ -> ( match cls with `Strict | `Exec -> Lint.Error | `Relaxed -> Lint.Warning)

(* ------------------------------------------------------------------ *)
(* Type classification                                                 *)
(* ------------------------------------------------------------------ *)

(* The head constructor of a type, with Stdlib aliasing normalized so
   "Stdlib.Hashtbl.t", "Stdlib__Hashtbl.t" and "Hashtbl.t" coincide. *)
let normalize_head n =
  let strip pre n =
    if String.starts_with ~prefix:pre n then
      String.sub n (String.length pre) (String.length n - String.length pre)
    else n
  in
  strip "Stdlib__" (strip "Stdlib." n)

let rec head_constr ty =
  match Types.get_desc ty with
  | Tconstr (p, args, _) -> Some (normalize_head (Path.name p), args)
  | Tpoly (ty, _) -> head_constr ty
  | _ -> None

(* Mutable record types declared anywhere in the scanned tree, indexed
   by every dotted form of their path ("Trace.t", and "Sub.t" for
   types nested in submodules); within the declaring file itself the
   declaration Ident is matched by stamp instead. *)
type decls = { mutable_names : SSet.t; mutable_stamps : ISet.t }

let kind_mutable (kind : Types.type_decl_kind) =
  match kind with
  | Type_record (lbls, _) ->
      List.exists
        (fun (l : Types.label_declaration) -> l.ld_mutable = Asttypes.Mutable)
        lbls
  | _ -> false

(* Heads that make a value a mutable root no matter how it is used.
   Abstract types whose implementation happens to be an array (Pset.t
   is one) are deliberately *not* expanded: the analysis stops at
   abstraction boundaries and trusts the module's interface discipline
   — a documented caveat. *)
let builtin_mutable =
  [ "ref"; "array"; "bytes"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

let builtin_safe =
  [
    "Atomic.t";
    "Mutex.t";
    "Condition.t";
    "Semaphore.Counting.t";
    "Semaphore.Binary.t";
  ]

let scalar_heads = [ "int"; "bool"; "float"; "char"; "unit" ]

type root_kind = KHashtbl | KScalarRef | KMut of string

let kind_name = function
  | KHashtbl -> "Hashtbl.t"
  | KScalarRef -> "scalar ref"
  | KMut n -> n

let classify decls ty =
  match head_constr ty with
  | None -> `Other (* arrows, tuples, type variables: not roots themselves *)
  | Some (n, args) ->
      if List.mem n builtin_safe then `Safe
      else if n = "Hashtbl.t" then `Mutable KHashtbl
      else if n = "ref" then
        let scalar =
          match args with
          | [ a ] -> (
              match head_constr a with
              | Some (na, []) -> List.mem na scalar_heads
              | _ -> false)
          | _ -> false
        in
        `Mutable (if scalar then KScalarRef else KMut "ref")
      else if List.mem n builtin_mutable then `Mutable (KMut n)
      else if SSet.mem n decls.mutable_names then
        `Mutable (KMut (n ^ " (mutable record)"))
      else `Other

let classify_ident decls stamps id ty =
  if ISet.exists (Ident.same id) stamps then
    (* shadows nothing: only type declarations live in [stamps] *)
    `Other
  else classify decls ty

let _ = classify_ident (* silence unused if the stamp path is inlined *)

(* ------------------------------------------------------------------ *)
(* Free-variable collection                                            *)
(* ------------------------------------------------------------------ *)

let path_name p = normalize_head (Path.name p)

type use = {
  u_id : Ident.t;
  u_loc : Location.t;
  u_ty : Types.type_expr;
  u_guarded : bool;
}

type fv = {
  mutable uses : use list; (* reverse traversal order *)
  mutable bound : ISet.t;
  mutable written : ISet.t; (* hit by := / incr / decr *)
  mutable pdots : (string * Location.t * Types.type_expr * bool) list;
  mutable guard : int; (* > 0 inside a recognized Mutex bracket *)
}

let assign_ops = [ ":="; "incr"; "decr" ]

let is_apply_of name e =
  match e.exp_desc with
  | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, _) ->
      path_name p = name
  | _ -> false

(* Collect identifier uses, locally-bound idents, writes and guard
   status over one expression. [Mutex.protect m f] guards everything
   inside its arguments; [Mutex.lock m; rest] guards [rest] — the
   matching unlock is *not* checked, which is conservative in the
   wrong direction only for code that locks without unlocking (already
   a bug the brackets make obvious). *)
let collect_fv (root : expression) : fv =
  let st =
    { uses = []; bound = ISet.empty; written = ISet.empty; pdots = []; guard = 0 }
  in
  let super = Tast_iterator.default_iterator in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
    | Tpat_var (id, _) -> st.bound <- ISet.add id st.bound
    | Tpat_alias (_, id, _) -> st.bound <- ISet.add id st.bound
    | _ -> ());
    super.pat it p
  in
  let rec expr it e =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
        st.uses <-
          {
            u_id = id;
            u_loc = e.exp_loc;
            u_ty = e.exp_type;
            u_guarded = st.guard > 0;
          }
          :: st.uses
    | Texp_ident ((Path.Pdot _ as p), _, _) ->
        st.pdots <-
          (Path.name p, e.exp_loc, e.exp_type, st.guard > 0) :: st.pdots
    | Texp_function { param; _ } ->
        st.bound <- ISet.add param st.bound;
        super.expr it e
    | Texp_for (id, _, _, _, _, _) ->
        st.bound <- ISet.add id st.bound;
        super.expr it e
    | Texp_letop { param; _ } ->
        st.bound <- ISet.add param st.bound;
        super.expr it e
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when path_name p = "Mutex.protect" ->
        st.guard <- st.guard + 1;
        List.iter (fun (_, a) -> Option.iter (expr it) a) args;
        st.guard <- st.guard - 1
    | Texp_apply (({ exp_desc = Texp_ident (p, _, _); _ } as fn), args)
      when List.mem (path_name p) assign_ops ->
        (match args with
        | (_, Some { exp_desc = Texp_ident (Path.Pident id, _, _); _ }) :: _ ->
            st.written <- ISet.add id st.written
        | _ -> ());
        expr it fn;
        List.iter (fun (_, a) -> Option.iter (expr it) a) args
    | Texp_sequence (a, b) when is_apply_of "Mutex.lock" a ->
        expr it a;
        st.guard <- st.guard + 1;
        expr it b;
        st.guard <- st.guard - 1
    | _ -> super.expr it e
  in
  let it = { super with expr; pat } in
  it.expr it root;
  st

(* ------------------------------------------------------------------ *)
(* Per-module context: top-level bindings, local functions, summaries  *)
(* ------------------------------------------------------------------ *)

type summary_entry = { s_global : string; s_kind : root_kind }

type modctx = {
  decls : decls;
  toplevel : ISet.t; (* value idents bound by [Tstr_value] at any depth *)
  summaries : summary_entry list IMap.t; (* one-level helper summaries *)
  local_fns : expression IMap.t; (* let-bound idents whose rhs is a fn *)
}

(* The ident a value binding introduces. An annotated binding
   (`let x : t = e`) types as Tpat_alias (Tpat_any, x), not Tpat_var. *)
let vb_ident vb =
  match vb.vb_pat.pat_desc with
  | Tpat_var (id, _) -> Some id
  | Tpat_alias (_, id, _) -> Some id
  | _ -> None

(* Structure-level walk: collect top-level value idents and the type
   declarations of this compilation unit (both the cross-module dotted
   names and the local declaration stamps). *)
let rec structure_decls ~modpath (str : structure) acc =
  List.fold_left (item_decls ~modpath) acc str.str_items

and item_decls ~modpath (tl, names, stamps) item =
  match item.str_desc with
  | Tstr_value (_, vbs) ->
      let tl =
        List.fold_left
          (fun tl vb ->
            match vb_ident vb with Some id -> ISet.add id tl | None -> tl)
          tl vbs
      in
      (tl, names, stamps)
  | Tstr_type (_, tds) ->
      List.fold_left
        (fun (tl, names, stamps) (td : type_declaration) ->
          if kind_mutable td.typ_type.type_kind then
            let full = modpath @ [ Ident.name td.typ_id ] in
            (* register every dotted suffix: "Mod.Sub.t" and "Sub.t" *)
            let rec suffixes = function
              | [] | [ _ ] -> []
              | _ :: rest as l -> String.concat "." l :: suffixes rest
            in
            ( tl,
              List.fold_left (fun s n -> SSet.add n s) names (suffixes full),
              ISet.add td.typ_id stamps )
          else (tl, names, stamps))
        (tl, names, stamps) tds
  | Tstr_module mb -> module_decls ~modpath (tl, names, stamps) mb.mb_id mb.mb_expr
  | Tstr_recmodule mbs ->
      List.fold_left
        (fun acc mb -> module_decls ~modpath acc mb.mb_id mb.mb_expr)
        (tl, names, stamps) mbs
  | _ -> (tl, names, stamps)

and module_decls ~modpath acc id mexpr =
  (* mb_id is None for `module _ = ...`; its types are unreachable *)
  match id with
  | None -> acc
  | Some id -> (
      match mexpr.mod_desc with
      | Tmod_structure str ->
          structure_decls ~modpath:(modpath @ [ Ident.name id ]) str acc
      | Tmod_constraint (m, _, _, _) -> module_decls ~modpath acc (Some id) m
      | _ -> acc)

(* Let-bound functions anywhere in the unit, so a worker closure that
   is `let worker () = ...` (or calls such a sibling) can be resolved
   to its body and analyzed too. *)
let collect_local_fns str =
  let fns = ref IMap.empty in
  let super = Tast_iterator.default_iterator in
  let value_binding it vb =
    (match (vb_ident vb, vb.vb_expr.exp_desc) with
    | Some id, Texp_function _ -> fns := IMap.add id vb.vb_expr !fns
    | _ -> ());
    super.value_binding it vb
  in
  let it = { super with value_binding } in
  it.structure it str;
  !fns

(* One-level interprocedural summaries: for every top-level binding,
   the module-level mutable roots its body touches unguarded (same
   module via its Ident, other modules via a dotted path of mutable
   type). Helpers-of-helpers are not followed — one level, documented. *)
let compute_summaries decls toplevel (str : structure) =
  let summary_of vb self =
    let fv = collect_fv vb.vb_expr in
    let of_use acc (u : use) =
      if
        u.u_guarded
        || (not (ISet.mem u.u_id toplevel))
        || Ident.same u.u_id self
      then acc
      else
        match classify decls u.u_ty with
        | `Mutable k -> (Ident.name u.u_id, k) :: acc
        | _ -> acc
    in
    let of_pdot acc (name, _, ty, guarded) =
      if guarded then acc
      else
        match classify decls ty with
        | `Mutable k -> (normalize_head name, k) :: acc
        | _ -> acc
    in
    List.fold_left of_use [] fv.uses
    |> fun acc ->
    List.fold_left of_pdot acc fv.pdots
    |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (n, k) -> { s_global = n; s_kind = k })
  in
  let add acc item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        List.fold_left
          (fun acc vb ->
            match vb_ident vb with
            | Some id -> IMap.add id (summary_of vb id) acc
            | None -> acc)
          acc vbs
    | _ -> acc
  in
  List.fold_left add IMap.empty str.str_items

(* ------------------------------------------------------------------ *)
(* Suppressions                                                        *)
(* ------------------------------------------------------------------ *)

(* Same [@lint.allow "rule"] machinery as the syntactic pass, applied
   by source region: an attribute on an expression or value binding
   covers every finding located inside it; [@@@lint.allow] covers the
   file. *)
let collect_suppressions (str : structure) =
  let regions = ref [] in
  let add attrs (loc : Location.t) =
    match Lint.allows_of_attrs attrs with
    | [] -> ()
    | allows ->
        let s = loc.loc_start.pos_cnum and e = loc.loc_end.pos_cnum in
        List.iter (fun rule -> regions := (rule, s, e) :: !regions) allows
  in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    add e.exp_attributes e.exp_loc;
    super.expr it e
  in
  let value_binding it vb =
    add vb.vb_attributes vb.vb_loc;
    super.value_binding it vb
  in
  let structure_item it si =
    (match si.str_desc with
    | Tstr_attribute a ->
        List.iter
          (fun rule -> regions := (rule, -1, max_int) :: !regions)
          (Lint.allows_of_attrs [ a ])
    | _ -> ());
    super.structure_item it si
  in
  let it = { super with expr; value_binding; structure_item } in
  it.structure it str;
  !regions

let suppressed regions rule (loc : Location.t) =
  let c = loc.loc_start.pos_cnum in
  List.exists (fun (r, s, e) -> r = rule && s <= c && c <= e) regions

(* ------------------------------------------------------------------ *)
(* Call-site analysis                                                  *)
(* ------------------------------------------------------------------ *)

let entry_points =
  [ "Domain_pool.map"; "Domain_pool.find_first"; "Domain.spawn" ]

type raw = { r_rule : string; r_loc : Location.t; r_msg : string }

(* Analyze the function argument of one parallel entry point: its free
   variables, plus (one resolution level deep) the bodies of let-bound
   functions it references and the summaries of top-level helpers. *)
let check_site ctx ~entry ~(farg : expression) =
  let findings = ref [] in
  let report rule loc msg = findings := { r_rule = rule; r_loc = loc; r_msg = msg } :: !findings in
  let visited = ref ISet.empty in
  let queue = Queue.create () in
  Queue.add (farg, 0) queue;
  while not (Queue.is_empty queue) do
    let e, depth = Queue.pop queue in
    let fv = collect_fv e in
    (* group free uses per ident, in traversal order *)
    let free = List.rev fv.uses in
    let seen = ref ISet.empty in
    List.iter
      (fun (u : use) ->
        let id = u.u_id in
        if (not (ISet.mem id fv.bound)) && not (ISet.mem id !seen) then begin
          seen := ISet.add id !seen;
          let uses_of_id =
            List.filter (fun (v : use) -> Ident.same v.u_id id) free
          in
          let first_unguarded =
            List.find_opt (fun (v : use) -> not v.u_guarded) uses_of_id
          in
          match first_unguarded with
          | None -> () (* every use sits inside a Mutex bracket *)
          | Some u0 -> (
              if ISet.mem id ctx.toplevel then begin
                (* module-level binding reached from the worker *)
                match classify ctx.decls u0.u_ty with
                | `Mutable k ->
                    report "mutable-global-reached" u0.u_loc
                      (Printf.sprintf
                         "worker closure passed to %s reaches top-level \
                          mutable `%s` (%s); every domain shares it — make \
                          it Atomic.t, guard it with a Mutex bracket, or \
                          allocate it per call"
                         entry (Ident.name id) (kind_name k))
                | _ ->
                    List.iter
                      (fun s ->
                        report "mutable-global-reached" u0.u_loc
                          (Printf.sprintf
                             "worker closure passed to %s calls `%s`, which \
                              touches top-level mutable `%s` (%s) — \
                              synchronize the global or pass state \
                              explicitly (helpers are checked one call \
                              level deep)"
                             entry (Ident.name id) s.s_global
                             (kind_name s.s_kind)))
                      (match IMap.find_opt id ctx.summaries with
                      | Some l -> l
                      | None -> [])
              end
              else
                match IMap.find_opt id ctx.local_fns with
                | Some body when depth < 2 ->
                    if not (ISet.mem id !visited) then begin
                      visited := ISet.add id !visited;
                      Queue.add (body, depth + 1) queue
                    end
                | _ -> (
                    match
                      classify_ident ctx.decls ctx.decls.mutable_stamps id
                        u0.u_ty
                    with
                    | `Mutable KHashtbl ->
                        report "unsynchronized-hashtbl" u0.u_loc
                          (Printf.sprintf
                             "worker closure passed to %s captures Hashtbl \
                              `%s` allocated outside it: concurrent \
                              add/resize races on the buckets — wrap uses \
                              in a Mutex bracket or give each worker its \
                              own table"
                             entry (Ident.name id))
                    | `Mutable KScalarRef when ISet.mem id fv.written ->
                        report "non-atomic-signal" u0.u_loc
                          (Printf.sprintf
                             "worker closure passed to %s assigns captured \
                              ref `%s`: a cross-domain signal/counter needs \
                              Atomic.t (plain ref writes are not \
                              synchronized between domains)"
                             entry (Ident.name id))
                    | `Mutable k ->
                        report "shared-mutable-capture" u0.u_loc
                          (Printf.sprintf
                             "worker closure passed to %s captures mutable \
                              `%s` (%s) allocated outside it; every domain \
                              shares the same cell — use Atomic.t, a Mutex \
                              bracket, or allocate it inside the worker"
                             entry (Ident.name id) (kind_name k))
                    | `Safe | `Other -> ()))
        end)
      free;
    (* cross-module mutable values reached directly *)
    let seen_pdot = ref SSet.empty in
    List.iter
      (fun (name, loc, ty, guarded) ->
        let name = normalize_head name in
        if (not guarded) && not (SSet.mem name !seen_pdot) then begin
          seen_pdot := SSet.add name !seen_pdot;
          match classify ctx.decls ty with
          | `Mutable k ->
              report "mutable-global-reached" loc
                (Printf.sprintf
                   "worker closure passed to %s reaches module-level \
                    mutable `%s` (%s) in another compilation unit — \
                    synchronize it or pass a per-worker copy"
                   entry name (kind_name k))
          | _ -> ()
        end)
      (List.rev fv.pdots)
  done;
  !findings

(* Find every parallel entry point application and hand its function
   argument to [check_site]. The function argument is the last
   positional argument (partial applications without it are skipped —
   the eventual full application site is the one that matters). *)
let check_structure ctx (str : structure) =
  let findings = ref [] in
  let super = Tast_iterator.default_iterator in
  let expr it e =
    (match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args)
      when List.mem (path_name p) entry_points ->
        let entry = path_name p in
        let positional =
          List.filter_map
            (fun (lbl, a) ->
              match (lbl, a) with Asttypes.Nolabel, Some a -> Some a | _ -> None)
            args
        in
        let farg =
          match List.rev positional with f :: _ -> Some f | [] -> None
        in
        Option.iter
          (fun farg ->
            findings := check_site ctx ~entry ~farg @ !findings)
          farg
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.structure it str;
  !findings

(* ------------------------------------------------------------------ *)
(* Cmt discovery and the analysis driver                               *)
(* ------------------------------------------------------------------ *)

let default_build_dir () =
  if Sys.file_exists "_build/default" && Sys.is_directory "_build/default" then
    "_build/default"
  else "."

let read_cmt_opt path =
  (* Stale or foreign .cmt files (other compiler version, interrupted
     write) are skipped: the missing-cmt rule still fires if a source
     under the requested roots ends up uncovered. *)
  match Cmt_format.read_cmt path with
  | cmt -> Some cmt
  | exception _ -> None

let normalize_rel p =
  (* "./lib/x.ml" -> "lib/x.ml" ; backslashes never appear (linux) *)
  if String.starts_with ~prefix:"./" p then
    String.sub p 2 (String.length p - 2)
  else p

(* The id a cmt records for its source ("lib/util/rng.ml", relative to
   the build context root) vs. the roots the caller passed (filesystem
   paths, possibly reaching into the build dir like "../../lib"):
   roots are rebased onto the build dir when they point inside it. *)
let rel_root ~build_dir root =
  let bd =
    let b = normalize_rel build_dir in
    if b = "." || b = "" then "" else if String.ends_with ~suffix:"/" b then b
    else b ^ "/"
  in
  let root = normalize_rel root in
  if bd <> "" && String.starts_with ~prefix:bd root then
    String.sub root (String.length bd) (String.length root - String.length bd)
  else root

let under root file =
  root = "" || file = root || String.starts_with ~prefix:(root ^ "/") file

type loaded = { l_infos : Cmt_format.cmt_infos; l_source : string }

let load_cmts build_dir =
  Fswalk.files ~enter_hidden:true ~ext:".cmt" [ build_dir ]
  |> List.filter_map (fun path ->
         match read_cmt_opt path with
         | None -> None
         | Some infos -> (
             match infos.Cmt_format.cmt_sourcefile with
             | Some src when Filename.check_suffix src ".ml" ->
                 Some { l_infos = infos; l_source = normalize_rel src }
             | _ -> None))

let global_decls loaded =
  let names, stamps =
    List.fold_left
      (fun (names, stamps) l ->
        match l.l_infos.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str ->
            let _, names, stamps =
              structure_decls
                ~modpath:[ l.l_infos.Cmt_format.cmt_modname ]
                str (ISet.empty, names, stamps)
            in
            (names, stamps)
        | _ -> (names, stamps))
      (SSet.empty, ISet.empty) loaded
  in
  (names, stamps)

let to_diag cls (r : raw) =
  let p = r.r_loc.Location.loc_start in
  {
    Lint.rule = r.r_rule;
    severity =
      (match severity_of cls r.r_rule with s -> s);
    pass = "typed";
    file = p.Lexing.pos_fname;
    line = p.Lexing.pos_lnum;
    col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
    msg = r.r_msg;
  }

let check_cmt ~scope ~enabled ~names (l : loaded) =
  match l.l_infos.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str ->
      let cls = Lint.resolve_class scope l.l_source in
      (* this unit's own declaration stamps, for Pident-typed roots *)
      let _, _, stamps =
        structure_decls
          ~modpath:[ l.l_infos.Cmt_format.cmt_modname ]
          str
          (ISet.empty, SSet.empty, ISet.empty)
      in
      let decls = { mutable_names = names; mutable_stamps = stamps } in
      let toplevel, _, _ =
        structure_decls ~modpath:[] str (ISet.empty, SSet.empty, ISet.empty)
      in
      let ctx =
        {
          decls;
          toplevel;
          summaries = compute_summaries decls toplevel str;
          local_fns = collect_local_fns str;
        }
      in
      let regions = collect_suppressions str in
      check_structure ctx str
      |> List.filter (fun r ->
             List.mem r.r_rule enabled && not (suppressed regions r.r_rule r.r_loc))
      |> List.map (fun r ->
             (* locations inside the typedtree carry the compiler's
                source path; pin the report to the cmt's recorded
                source so every diagnostic names one canonical file *)
             let d = to_diag cls r in
             { d with Lint.file = l.l_source })
  | _ -> []

let missing_cmt_diag cls file =
  {
    Lint.rule = "missing-cmt";
    severity = severity_of cls "missing-cmt";
    pass = "typed";
    file;
    line = 1;
    col = 0;
    msg =
      Printf.sprintf
        "no .cmt found for %s under the build directory: the typed \
         domain-safety pass could not check this file (run `dune build \
         @check` first, or pass --build-dir)"
        file;
  }

let analyze ?(scope = Lint.Auto) ?(rules = rule_names) ?build_dir roots =
  let build_dir =
    match build_dir with Some b -> b | None -> default_build_dir ()
  in
  let loaded = load_cmts build_dir in
  let names, _ = global_decls loaded in
  (* index: context-relative source id -> cmt (first in path order) *)
  let index =
    List.fold_left
      (fun acc l ->
        if List.mem_assoc l.l_source acc then acc else (l.l_source, l) :: acc)
      [] loaded
  in
  let diags =
    List.concat_map
      (fun root ->
        let rel = normalize_rel (rel_root ~build_dir root) in
        Fswalk.files ~ext:".ml" [ root ]
        |> List.concat_map (fun file ->
               let file = normalize_rel file in
               let tail =
                 let root_n = normalize_rel root in
                 if file = root_n then Filename.basename file
                 else if String.starts_with ~prefix:(root_n ^ "/") file then
                   String.sub file
                     (String.length root_n + 1)
                     (String.length file - String.length root_n - 1)
                 else file
               in
               let id =
                 normalize_rel
                   (if rel = "" then tail else rel ^ "/" ^ tail)
               in
               match List.assoc_opt id index with
               | Some l when under rel l.l_source ->
                   check_cmt ~scope ~enabled:rules ~names l
               | _ ->
                   if List.mem "missing-cmt" rules then
                     [ missing_cmt_diag (Lint.resolve_class scope id) id ]
                   else []))
      roots
  in
  List.sort_uniq
    (fun a b ->
      let c = Lint.compare_diag a b in
      if c <> 0 then c else String.compare a.Lint.msg b.Lint.msg)
    diags
