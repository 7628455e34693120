type ablation = Full | Lying_gamma | Always_gamma

type schedule =
  | Free
  | Starve of { p : int; from_ : int; len : int }
  | Pinned of int option list

type t = {
  n : int;
  groups : Pset.t list;
  crashes : (int * int) list;
  msgs : (int * int * int) list;
  variant : Algorithm1.variant;
  ablation : ablation;
  schedule : schedule;
  max_delay : int;
  seed : int;
  faults : Channel_fault.spec;
}

let normalise_crashes crashes =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p, t) ->
      match Hashtbl.find_opt tbl p with
      | Some t' when t' <= t -> ()
      | _ -> Hashtbl.replace tbl p t)
    crashes;
  Hashtbl.fold (fun p t acc -> (p, t) :: acc) tbl []
  |> List.sort (fun (p, _) (q, _) -> Int.compare p q)

let make ?(crashes = []) ?(msgs = []) ?(variant = Algorithm1.Vanilla)
    ?(ablation = Full) ?(schedule = Free) ?(max_delay = 5) ?(seed = 1)
    ?(faults = Channel_fault.none) ~n groups =
  {
    n;
    groups;
    crashes = normalise_crashes crashes;
    msgs;
    variant;
    ablation;
    schedule;
    max_delay;
    seed;
    faults;
  }

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let rec distinct = function
    | [] -> true
    | g :: rest -> (not (List.exists (Pset.equal g) rest)) && distinct rest
  in
  if s.n <= 0 then err "empty universe"
  else if s.groups = [] then err "no destination group"
  else if List.exists Pset.is_empty s.groups then err "empty group"
  else if
    List.exists (fun g -> not (Pset.subset g (Pset.range s.n))) s.groups
  then err "group outside the universe"
  else if not (distinct s.groups) then err "duplicate groups"
  else if List.exists (fun (p, t) -> p < 0 || p >= s.n || t < 0) s.crashes then
    err "crash outside the universe or at negative time"
  else if
    List.exists
      (fun (src, dst, at) ->
        dst < 0 || dst >= List.length s.groups
        || (not (Pset.mem src (List.nth s.groups dst)))
        || at < 0)
      s.msgs
  then err "message source outside its destination group"
  else if s.max_delay < 1 then err "max-delay must be >= 1"
  else
    match Channel_fault.validate s.faults with
    | Error e -> err "%s" e
    | Ok () -> (
    match s.schedule with
    | Free -> Ok ()
    | Starve { p; from_; len } ->
        if p < 0 || p >= s.n then err "starved process outside the universe"
        else if from_ < 0 || len < 1 then err "bad starvation window"
        else Ok ()
    | Pinned moves ->
        if moves = [] then err "empty pinned schedule"
        else if
          List.exists
            (function Some p -> p < 0 || p >= s.n | None -> false)
            moves
        then err "pinned process outside the universe"
        else Ok ())

let topology s = Topology.create ~n:s.n s.groups
let failure_pattern s = Failure_pattern.of_crashes ~n:s.n s.crashes
let workload s = Workload.make s.msgs (topology s)

let equal a b =
  a.n = b.n
  && List.length a.groups = List.length b.groups
  && List.for_all2 Pset.equal a.groups b.groups
  && a.crashes = b.crashes && a.msgs = b.msgs && a.variant = b.variant
  && a.ablation = b.ablation && a.schedule = b.schedule
  && a.max_delay = b.max_delay && a.seed = b.seed
  && Channel_fault.equal a.faults b.faults

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let header = "amcast-scenario v1"

let variant_name = function
  | Algorithm1.Vanilla -> "vanilla"
  | Algorithm1.Strict -> "strict"
  | Algorithm1.Pairwise -> "pairwise"

let variant_of_name = function
  | "vanilla" -> Some Algorithm1.Vanilla
  | "strict" -> Some Algorithm1.Strict
  | "pairwise" -> Some Algorithm1.Pairwise
  | _ -> None

let ablation_name = function
  | Full -> "full"
  | Lying_gamma -> "lying-gamma"
  | Always_gamma -> "always-gamma"

let ablation_of_name = function
  | "full" -> Some Full
  | "lying-gamma" -> Some Lying_gamma
  | "always-gamma" -> Some Always_gamma
  | _ -> None

let to_string s =
  let b = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "%s" header;
  line "seed %d" s.seed;
  line "max-delay %d" s.max_delay;
  line "variant %s" (variant_name s.variant);
  line "ablation %s" (ablation_name s.ablation);
  (* Emitted only for non-trivial specs, so every pre-fault corpus file
     and its byte-identical re-encoding keep working unchanged. *)
  if not (Channel_fault.equal s.faults Channel_fault.none) then
    line "faults %s" (Channel_fault.to_string s.faults);
  (match s.schedule with
  | Free -> line "schedule free"
  | Starve { p; from_; len } -> line "schedule starve %d %d %d" p from_ len
  | Pinned moves ->
      line "schedule pinned %s"
        (String.concat " "
           (List.map
              (function Some p -> string_of_int p | None -> "-")
              moves)));
  line "n %d" s.n;
  List.iter
    (fun g ->
      line "group %s"
        (String.concat " " (List.map string_of_int (Pset.to_list g))))
    s.groups;
  List.iter (fun (p, t) -> line "crash %d %d" p t) s.crashes;
  List.iter (fun (src, dst, at) -> line "msg %d %d %d" src dst at) s.msgs;
  Buffer.contents b

let of_string text =
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  match lines with
  | [] -> err "empty scenario"
  | first :: rest when first = header -> (
      let n = ref None in
      let seed = ref 1 in
      let max_delay = ref 5 in
      let variant = ref Algorithm1.Vanilla in
      let ablation = ref Full in
      let faults = ref Channel_fault.none in
      let schedule = ref Free in
      let groups = ref [] in
      let crashes = ref [] in
      let msgs = ref [] in
      let ints ws = try Some (List.map int_of_string ws) with Failure _ -> None in
      let parse_line l =
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ "seed"; v ] -> (
            match int_of_string_opt v with
            | Some v -> Ok (seed := v)
            | None -> err "bad seed %S" v)
        | [ "max-delay"; v ] -> (
            match int_of_string_opt v with
            | Some v -> Ok (max_delay := v)
            | None -> err "bad max-delay %S" v)
        | [ "variant"; v ] -> (
            match variant_of_name v with
            | Some x -> Ok (variant := x)
            | None -> err "unknown variant %S" v)
        | [ "ablation"; v ] -> (
            match ablation_of_name v with
            | Some x -> Ok (ablation := x)
            | None -> err "unknown ablation %S" v)
        | "faults" :: ws -> (
            match Channel_fault.of_string (String.concat " " ws) with
            | Ok f -> Ok (faults := f)
            | Error e -> err "%s" e)
        | [ "schedule"; "free" ] -> Ok (schedule := Free)
        | [ "schedule"; "starve"; p; f; l ] -> (
            match ints [ p; f; l ] with
            | Some [ p; from_; len ] -> Ok (schedule := Starve { p; from_; len })
            | _ -> err "bad starvation window")
        | "schedule" :: "pinned" :: moves -> (
            let parse_move = function
              | "-" -> Some None
              | w -> Option.map Option.some (int_of_string_opt w)
            in
            match
              List.fold_left
                (fun acc w ->
                  match (acc, parse_move w) with
                  | Some acc, Some mv -> Some (mv :: acc)
                  | _ -> None)
                (Some []) moves
            with
            | Some ms when ms <> [] -> Ok (schedule := Pinned (List.rev ms))
            | _ -> err "bad pinned schedule %S" l)
        | [ "n"; v ] -> (
            match int_of_string_opt v with
            | Some v -> Ok (n := Some v)
            | None -> err "bad n %S" v)
        | "group" :: ws -> (
            match ints ws with
            | Some ps -> Ok (groups := Pset.of_list ps :: !groups)
            | None -> err "bad group %S" l)
        | [ "crash"; p; t ] -> (
            match ints [ p; t ] with
            | Some [ p; t ] -> Ok (crashes := (p, t) :: !crashes)
            | _ -> err "bad crash %S" l)
        | [ "msg"; src; dst; at ] -> (
            match ints [ src; dst; at ] with
            | Some [ src; dst; at ] -> Ok (msgs := (src, dst, at) :: !msgs)
            | _ -> err "bad msg %S" l)
        | _ -> err "unrecognized line %S" l
      in
      let rec parse = function
        | [] -> Ok ()
        | l :: rest -> ( match parse_line l with Ok () -> parse rest | e -> e)
      in
      match parse rest with
      | Error e -> Error e
      | Ok () -> (
          match !n with
          | None -> err "missing 'n' line"
          | Some n ->
              let s =
                make ~crashes:(List.rev !crashes) ~msgs:(List.rev !msgs)
                  ~variant:!variant ~ablation:!ablation ~schedule:!schedule
                  ~max_delay:!max_delay ~seed:!seed ~faults:!faults ~n
                  (List.rev !groups)
              in
              Result.map (fun () -> s) (validate s)))
  | first :: _ -> err "bad header %S (expected %S)" first header

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let mu s =
  let mu =
    Mu.make ~max_delay:s.max_delay ~seed:s.seed (topology s)
      (failure_pattern s)
  in
  match s.ablation with
  | Full -> mu
  | Lying_gamma -> Mu.gamma_lying mu
  | Always_gamma -> Mu.gamma_always mu

let run ?(record_snapshots = false) s =
  (match validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Scenario.run: " ^ e));
  let topo = topology s in
  let fp = failure_pattern s in
  let workload = Workload.make s.msgs topo in
  let mu = mu s in
  let scheduled =
    match s.schedule with
    | Free -> None
    | Starve { p; from_; len } ->
        Some
          (fun t ->
            if t >= from_ && t < from_ + len then
              Pset.remove p (Pset.range s.n)
            else Pset.range s.n)
    | Pinned moves ->
        (* Witness prefix from the systematic explorer: one pinned
           process (or nobody, "-") per tick, free scheduling after the
           prefix runs out so the run can still quiesce. *)
        let arr = Array.of_list moves in
        Some
          (fun t ->
            if t < Array.length arr then
              match arr.(t) with
              | Some p -> Pset.singleton p
              | None -> Pset.empty
            else Pset.range s.n)
  in
  Runner.run ~variant:s.variant ~seed:s.seed ?scheduled ~faults:s.faults
    ~record_snapshots ~mu ~topo ~fp ~workload ()

let liveness_gap s =
  let topo = topology s in
  Topology.blocking_edges topo
    (Topology.cyclic_families topo)
    ~crashed:(Failure_pattern.faulty (failure_pattern s))
  <> []

let check s =
  match validate s with
  | Error e -> Error ("invalid scenario: " ^ e)
  | Ok () ->
      let o = run s in
      let gap = lazy (liveness_gap s) in
      (* The γ-free pairwise variant is the F = ∅ regime of §7: on a
         topology with cyclic families its stable-waits can deadlock
         (e.g. corpus/pairwise-cyclic-liveness.scenario), so only the
         safety properties are asserted there. *)
      let pairwise_cyclic =
        lazy
          (s.variant = Algorithm1.Pairwise
          && Topology.cyclic_families (topology s) <> [])
      in
      let failures =
        List.filter_map
          (function
            (* property error strings already carry their own prefix *)
            | "termination", Error _
              when Lazy.force gap
                   || Lazy.force pairwise_cyclic
                   (* Fair-loss without the stubborn layer loses
                      announcements for good: termination is exactly
                      the claim such links forfeit (the claims-under-
                      loss ablation measures it), so only safety is
                      asserted for lossy scenarios. *)
                   || Channel_fault.lossy s.faults ->
                None
            | _, Error e -> Some e
            | _, Ok () -> None)
          (Properties.all o)
      in
      if failures = [] then Ok () else Error (String.concat "; " failures)
