(* The indexed checkers (Properties, Claims) must be verdict-identical
   to the frozen pre-indexing references (Properties_ref, Claims_ref):
   same Ok/Error per check, and byte-identical failure strings — the
   first witness a failure message names is pinned, not just the
   boolean. Checked over every committed corpus scenario and over a
   fresh generated sweep spanning all three protocol variants, both
   sequentially and through the domain pool. *)

let t = Alcotest.test_case

let render verdicts =
  String.concat "; "
    (List.map
       (function
         | name, Ok () -> name ^ "=ok" | name, Error e -> name ^ "=ERR[" ^ e ^ "]")
       verdicts)

(* None = identical; Some msg = the two checkers diverge. *)
let properties_divergence outcome =
  let indexed = render (Properties.all outcome) in
  let reference = render (Properties_ref.all outcome) in
  if indexed = reference then None
  else Some (Printf.sprintf "indexed {%s} vs reference {%s}" indexed reference)

let claims_divergence outcome =
  let indexed = render (Claims.all outcome) in
  let reference = render (Claims_ref.all outcome) in
  if indexed = reference then None
  else Some (Printf.sprintf "indexed {%s} vs reference {%s}" indexed reference)

let edges_divergence outcome =
  (* The exported edge lists feed find_cycle and claim 9: order included. *)
  if Properties.delivery_edges outcome = Properties_ref.delivery_edges outcome
  then None
  else Some "delivery_edges differ"

let corpus_identity () =
  let entries = Corpus.load ~dir:"../corpus" in
  if List.length entries < 4 then
    Alcotest.failf "corpus too small (%d scenarios)" (List.length entries);
  List.iter
    (fun (name, decoded) ->
      match decoded with
      | Error e -> Alcotest.failf "%s does not decode: %s" name e
      | Ok s ->
          let outcome = Scenario.run ~record_snapshots:true s in
          (match properties_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: properties: %s" name d);
          (match edges_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: %s" name d);
          match claims_divergence outcome with
          | None -> ()
          | Some d -> Alcotest.failf "%s: claims: %s" name d)
    entries

(* All three variants so ordering, strict-ordering and pairwise paths
   are all exercised; crashes and starvation windows in the default
   envelope produce genuine Error verdicts whose strings must match. *)
let sweep_cfg =
  {
    Scenario_gen.default with
    Scenario_gen.variants =
      [ Algorithm1.Vanilla; Algorithm1.Strict; Algorithm1.Pairwise ];
  }

let properties_sweep jobs () =
  let trials = 200 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:11 sweep_cfg i in
        let outcome = Scenario.run s in
        match
          (properties_divergence outcome, edges_divergence outcome)
        with
        | None, None -> None
        | Some d, _ | _, Some d -> Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent verdicts" [] divergent

(* Claims need snapshot recording, which multiplies run cost: a smaller
   sweep suffices to cover every claim against its reference. *)
let claims_sweep jobs () =
  let trials = 40 in
  let results =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:13 sweep_cfg i in
        let outcome = Scenario.run ~record_snapshots:true s in
        match claims_divergence outcome with
        | None -> None
        | Some d -> Some (Printf.sprintf "trial %d: %s" i d))
  in
  let divergent = Array.to_list results |> List.filter_map Fun.id in
  Alcotest.(check (list string)) "divergent claims" [] divergent

(* One seeded mutation of one log's entries; [data] are the candidates
   for an insertion. Every datum stays at most once in the log. Swapping
   two entries' list places leaves the list out of log order, and
   taking a neighbour's position leaves the datum tie-break to decide
   the order. *)
let mutate_log rng data entries =
  let n = List.length entries in
  let j = Rng.int rng n in
  let at_j f = List.mapi (fun k e -> if k = j then f e else e) entries in
  match Rng.int rng 6 with
  | 0 -> List.filteri (fun k _ -> k <> j) entries
  | 1 ->
      let delta = Rng.pick rng [ -2; -1; 1; 2 ] in
      at_j (fun (d, pos, locked) -> (d, max 1 (pos + delta), locked))
  | 2 -> at_j (fun (d, pos, locked) -> (d, pos, not locked))
  | 3 ->
      let k = Rng.int rng n in
      List.mapi
        (fun i e ->
          if i = j then List.nth entries k
          else if i = k then List.nth entries j
          else e)
        entries
  | 4 ->
      let neighbour = if j > 0 then j - 1 else min 1 (n - 1) in
      let _, pos, _ = List.nth entries neighbour in
      at_j (fun (d, _, locked) -> (d, pos, locked))
  | _ -> (
      let present d = List.exists (fun (d', _, _) -> d' = d) entries in
      match List.filter (fun d -> not (present d)) data with
      | [] -> entries
      | absent ->
          let top =
            List.fold_left (fun acc (_, pos, _) -> max acc pos) 1 entries
          in
          let fresh =
            (Rng.pick rng absent, 1 + Rng.int rng (top + 1), Rng.bool rng)
          in
          List.filteri (fun k _ -> k < j) entries
          @ (fresh :: List.filteri (fun k _ -> k >= j) entries))

(* Key-level edits of a snapshot: reverse its bindings, or add an empty
   binding for one of its keys at a random place, which shadows the
   key's log when it lands first. *)
let mutate_keys rng snap =
  match (Rng.int rng 4, snap) with
  | 0, _ -> List.rev snap
  | 1, _ :: _ ->
      let key, _ = Rng.pick rng snap in
      let at = Rng.int rng (List.length snap + 1) in
      List.filteri (fun k _ -> k < at) snap
      @ ((key, []) :: List.filteri (fun k _ -> k >= at) snap)
  | _ -> snap

(* Mutate one to three logs of one recorded snapshot (the final state
   included), so that a claim can fail in several logs of one pair, and
   then maybe its keys. Only workload messages are inserted: claims 10
   and 11 look up the group of every message in a final log. *)
let mutate rng (o : Runner.outcome) =
  let snaps = List.map snd o.Runner.snapshots @ [ o.Runner.final_logs ] in
  let i = Rng.int rng (List.length snaps) in
  let snap = List.nth snaps i in
  let data =
    List.map
      (fun m -> Algorithm1.Msg m.Amsg.id)
      (Workload.messages o.Runner.workload)
    @ List.concat_map (fun (_, es) -> List.map (fun (d, _, _) -> d) es) snap
  in
  let rec go snap = function
    | 0 -> snap
    | left -> (
        match List.filter (fun (_, entries) -> entries <> []) snap with
        | [] -> snap
        | logs ->
            let key, entries = Rng.pick rng logs in
            let entries = mutate_log rng data entries in
            let swap (k, es) = if k = key then (k, entries) else (k, es) in
            go (List.map swap snap) (left - 1))
  in
  let snap = mutate_keys rng (go snap (1 + Rng.int rng 3)) in
  if i = List.length o.Runner.snapshots then { o with Runner.final_logs = snap }
  else
    {
      o with
      Runner.snapshots =
        List.mapi
          (fun k (t, s) -> if k = i then (t, snap) else (t, s))
          o.Runner.snapshots;
    }

(* Algorithm 1 never breaks a law of the log object, so on recorded runs
   claims 2–8 always hold and their failure paths go unexercised. Break
   snapshots instead and require the two checkers to agree on every
   mutant, witnesses included; each of claims 2–8 must fail on some. *)
let claims_on_mutants () =
  let failed = Hashtbl.create 8 in
  for trial = 0 to 23 do
    let s = Fuzz_driver.scenario_of_trial ~seed:13 sweep_cfg trial in
    let outcome = Scenario.run ~record_snapshots:true s in
    let rng = Rng.make (1_000 + trial) in
    for k = 0 to 11 do
      let mutant = mutate rng outcome in
      List.iter
        (function
          | name, Error _ -> Hashtbl.replace failed name ()
          | _, Ok () -> ())
        (Claims_ref.all mutant);
      match claims_divergence mutant with
      | None -> ()
      | Some d -> Alcotest.failf "trial %d, mutant %d: %s" trial k d
    done
  done;
  List.iter
    (fun c ->
      let name = Printf.sprintf "claim %d" c in
      if not (Hashtbl.mem failed name) then
        Alcotest.failf "%s failed on no mutant" name)
    [ 2; 3; 4; 5; 6; 7; 8 ]

(* One seeded mutation of a trace, every event keeping its list
   position: swap the messages of two deliveries at one process, drop
   a delivery, or move an invocation's seq later (past events that
   follow it, possibly onto another event's seq). *)
let mutate_trace rng events =
  let evs = Array.of_list events in
  let where f =
    List.filter (fun i -> f evs.(i)) (List.init (Array.length evs) Fun.id)
  in
  let dels = where (function Trace.Deliver _ -> true | _ -> false) in
  let invokes = where (function Trace.Invoke _ -> true | _ -> false) in
  let proc i = match evs.(i) with Trace.Deliver { p; _ } -> p | _ -> -1 in
  let msg i = match evs.(i) with Trace.Deliver { m; _ } -> m | _ -> -1 in
  let seq = function
    | Trace.Invoke { seq; _ }
    | Trace.Send { seq; _ }
    | Trace.Phase_change { seq; _ }
    | Trace.Deliver { seq; _ } ->
        seq
  in
  let top = Array.fold_left (fun acc e -> max acc (seq e)) 0 evs in
  let dropped = ref (-1) in
  (match Rng.int rng 3 with
  | 0 when dels <> [] -> (
      let i = Rng.pick rng dels in
      match List.filter (fun j -> j <> i && proc j = proc i) dels with
      | [] -> ()
      | same -> (
          let j = Rng.pick rng same in
          let mi = msg i and mj = msg j in
          match (evs.(i), evs.(j)) with
          | Trace.Deliver d, Trace.Deliver d' ->
              evs.(i) <- Trace.Deliver { d with m = mj };
              evs.(j) <- Trace.Deliver { d' with m = mi }
          | _ -> ()))
  | 1 when dels <> [] -> dropped := Rng.pick rng dels
  | _ when invokes <> [] -> (
      let i = Rng.pick rng invokes in
      match evs.(i) with
      | Trace.Invoke iv ->
          let later = iv.seq + 1 + Rng.int rng (top - iv.seq + 1) in
          evs.(i) <- Trace.Invoke { iv with seq = later }
      | _ -> ())
  | _ -> ());
  List.filteri (fun k _ -> k <> !dropped) (Array.to_list evs)

(* Recorded runs fail ordering only through one corpus scenario and
   strict ordering never, so the path that names a cycle is exercised
   here: seeded trace mutations, two per mutant, checked against
   Properties_ref verdict for verdict, witnesses included; ordering and
   strict ordering must each fail on some mutant. *)
let properties_on_mutants () =
  let failed = Hashtbl.create 8 in
  for trial = 0 to 59 do
    let s = Fuzz_driver.scenario_of_trial ~seed:11 sweep_cfg trial in
    let outcome = Scenario.run s in
    let tr = outcome.Runner.trace in
    let rng = Rng.make (2_000 + trial) in
    for k = 0 to 19 do
      let events =
        mutate_trace rng (mutate_trace rng tr.Trace.events)
      in
      let mutant =
        { outcome with Runner.trace = Trace.make ~n:tr.Trace.n events }
      in
      List.iter
        (function
          | name, Error _ -> Hashtbl.replace failed name ()
          | _, Ok () -> ())
        (Properties_ref.all mutant);
      match properties_divergence mutant with
      | None -> ()
      | Some d -> Alcotest.failf "trial %d, mutant %d: %s" trial k d
    done
  done;
  List.iter
    (fun name ->
      if not (Hashtbl.mem failed name) then
        Alcotest.failf "%s failed on no mutant" name)
    [ "ordering"; "strict-ordering" ]

let suite =
  [
    t "corpus: indexed verdicts = reference verdicts" `Quick corpus_identity;
    t "properties sweep identical (jobs=1)" `Slow (properties_sweep 1);
    t "properties sweep identical (jobs=4)" `Slow (properties_sweep 4);
    t "claims sweep identical (jobs=1)" `Slow (claims_sweep 1);
    t "claims sweep identical (jobs=4)" `Slow (claims_sweep 4);
    t "claims on mutated snapshots = reference" `Slow claims_on_mutants;
    t "properties on mutated traces = reference" `Slow properties_on_mutants;
  ]
