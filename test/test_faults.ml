(* The channel-fault layer: the Net buffer, fault scenarios,
   replay determinism, the shrinker's fault moves, and the hardening
   fixes (atomic corpus saves, descriptive Net range errors). *)

let t = Alcotest.test_case

(* ---------------- Channel_fault codec ------------------------------ *)

let spec_codec_roundtrip () =
  List.iter
    (fun s ->
      match Channel_fault.of_string (Channel_fault.to_string s) with
      | Ok s' ->
          if not (Channel_fault.equal s s') then
            Alcotest.failf "roundtrip changed %s" (Channel_fault.to_string s)
      | Error e ->
          Alcotest.failf "roundtrip of %s: %s" (Channel_fault.to_string s) e)
    [
      Channel_fault.none;
      { Channel_fault.drop = 1; dup = 0; delay = 0; stubborn = false };
      { Channel_fault.drop = 3_000; dup = 500; delay = 4; stubborn = true };
      { Channel_fault.drop = 0; dup = 10_000; delay = 64; stubborn = false };
    ]

let spec_codec_compact_form () =
  match Channel_fault.of_string "drop=3000,delay=2,stubborn" with
  | Ok s ->
      Alcotest.(check bool)
        "compact form parses" true
        (Channel_fault.equal s
           { Channel_fault.drop = 3_000; dup = 0; delay = 2; stubborn = true })
  | Error e -> Alcotest.failf "compact form rejected: %s" e

let spec_codec_rejects () =
  List.iter
    (fun text ->
      match Channel_fault.of_string text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ "drop 10000"; "drop=-1"; "delay 100"; "dup 20000"; "drop=oops"; "bogus 3" ]

(* ---------------- Net ---------------------------------------------- *)

(* Applying every parameter at once erases the optionals, so test
   sites don't need ?faults:None noise. *)
let make_net ?faults ?seed n = Net.create ?faults ?seed ~n

let drain net pid =
  let rec go acc =
    match Net.receive net pid with
    | Some (src, payload) -> go ((src, payload) :: acc)
    | None -> List.rev acc
  in
  go []

let net_fifo_without_faults () =
  let net = make_net 3 in
  List.iter (fun i -> Net.send net ~src:(i mod 2) ~dst:2 i) (List.init 10 Fun.id);
  Alcotest.(check (list (pair int int)))
    "FIFO per destination, sends preserved"
    (List.init 10 (fun i -> (i mod 2, i)))
    (drain net 2)

let net_zero_spec_identical () =
  (* A spec that cannot affect any transmission (the stubborn flag
     alone is inert) behaves bit-identically to the default channel. *)
  let zero = { Channel_fault.drop = 0; dup = 0; delay = 0; stubborn = true } in
  let plain = make_net 4 in
  let faulty = make_net ~faults:zero ~seed:42 4 in
  let sends = List.init 30 (fun i -> (i mod 3, (i * 7) mod 4, i)) in
  List.iter
    (fun (src, dst, p) ->
      Net.send plain ~src ~dst p;
      Net.send faulty ~src ~dst p)
    sends;
  for pid = 0 to 3 do
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "pid %d drains identically" pid)
      (drain plain pid) (drain faulty pid)
  done

let net_delay_only_loses_nothing () =
  let spec = { Channel_fault.drop = 0; dup = 0; delay = 5; stubborn = false } in
  let net = make_net ~faults:spec ~seed:9 2 in
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 i
  done;
  let got = drain net 1 in
  Alcotest.(check int) "all payloads arrive" 50 (List.length got);
  Alcotest.(check (list int))
    "same payload multiset" (List.init 50 Fun.id)
    (List.sort Int.compare (List.map snd got));
  Alcotest.(check int) "nothing lost" 0 (Net.stats net).Channel_fault.lost

let net_fault_draws_deterministic () =
  let spec = { Channel_fault.drop = 4_000; dup = 2_000; delay = 3; stubborn = false } in
  let mk () =
    let net = make_net ~faults:spec ~seed:77 2 in
    for i = 0 to 99 do
      Net.send net ~src:0 ~dst:1 i
    done;
    (drain net 1, Net.stats net)
  in
  let got1, st1 = mk () and got2, st2 = mk () in
  Alcotest.(check (list (pair int int))) "identical receive sequence" got1 got2;
  Alcotest.(check bool)
    "identical link statistics" true
    (st1.Channel_fault.dropped = st2.Channel_fault.dropped
    && st1.Channel_fault.duplicated = st2.Channel_fault.duplicated
    && st1.Channel_fault.lost = st2.Channel_fault.lost);
  Alcotest.(check bool)
    "faults actually fired" true
    (st1.Channel_fault.dropped > 0 || st1.Channel_fault.duplicated > 0)

let net_fair_loss_loses () =
  let spec = { Channel_fault.drop = 9_000; dup = 0; delay = 0; stubborn = false } in
  let net = make_net ~faults:spec ~seed:3 2 in
  for i = 0 to 99 do
    Net.send net ~src:0 ~dst:1 i
  done;
  let st = Net.stats net in
  Alcotest.(check bool) "messages lost for good" true
    (st.Channel_fault.lost > 0);
  Alcotest.(check bool) "but not all (fair loss)" true
    (List.length (drain net 1) > 0)

let stubborn_delivers_everything () =
  let faults = { Channel_fault.drop = 8_000; dup = 0; delay = 2; stubborn = true } in
  let net = make_net ~faults ~seed:5 2 in
  for i = 0 to 49 do
    Net.send net ~src:0 ~dst:1 i
  done;
  let got = List.map snd (drain net 1) in
  Alcotest.(check (list int))
    "every transmission delivered exactly once" (List.init 50 Fun.id)
    (List.sort Int.compare got);
  Alcotest.(check bool) "retransmissions counted" true
    ((Net.stats net).Channel_fault.retransmissions > 0);
  Alcotest.(check int) "nothing lost under stubborn links" 0
    (Net.stats net).Channel_fault.lost

let contains_sub s sub =
  let re = Str.regexp_string sub in
  try
    ignore (Str.search_forward re s 0);
    true
  with Not_found -> false

let net_range_errors_descriptive () =
  let net = make_net 3 in
  let expect_invalid what f =
    match f () with
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s names the universe: %s" what m)
          true
          (contains_sub m "outside universe" && contains_sub m "0..2")
    | _ -> Alcotest.failf "%s did not raise" what
  in
  expect_invalid "send bad src" (fun () -> Net.send net ~src:7 ~dst:0 0);
  expect_invalid "send bad dst" (fun () -> Net.send net ~src:0 ~dst:(-1) 0);
  expect_invalid "receive bad pid" (fun () -> ignore (Net.receive net 3));
  expect_invalid "multicast bad member" (fun () ->
      Net.multicast net ~src:0 (Pset.of_list [ 1; 5 ]) 0)

(* ---------------- scenarios under faults --------------------------- *)

let stubborn_spec = { Channel_fault.drop = 2_500; dup = 0; delay = 2; stubborn = true }
let lossy_spec = { Channel_fault.drop = 8_000; dup = 0; delay = 0; stubborn = false }

let with_faults s faults =
  Scenario.make ~crashes:s.Scenario.crashes ~msgs:s.Scenario.msgs
    ~variant:s.Scenario.variant ~ablation:s.Scenario.ablation
    ~schedule:s.Scenario.schedule ~max_delay:s.Scenario.max_delay
    ~seed:s.Scenario.seed ~faults ~n:s.Scenario.n s.Scenario.groups

let gen_cfg faults_gen = { Scenario_gen.default with Scenario_gen.faults_gen }

let scenario_fault_codec () =
  let c = Choice.of_rng (Rng.make 11) in
  let s = Scenario_gen.scenario c (gen_cfg (`Spec stubborn_spec)) in
  let text = Scenario.to_string s in
  Alcotest.(check bool) "faults line emitted" true (contains_sub text "faults");
  (match Scenario.of_string text with
  | Ok s' -> Alcotest.(check bool) "roundtrips" true (Scenario.equal s s')
  | Error e -> Alcotest.failf "fault scenario does not re-parse: %s" e);
  let plain = with_faults s Channel_fault.none in
  Alcotest.(check bool) "no faults line for the reliable channel" false
    (contains_sub (Scenario.to_string plain) "faults")

let outcome_fingerprint o =
  let b = Buffer.create 256 in
  List.iter
    (fun e -> Buffer.add_string b (Format.asprintf "%a;" Trace.pp_event e))
    o.Runner.trace.Trace.events;
  let ls = o.Runner.links in
  Printf.bprintf b "|links %d %d %d %d %d" ls.Channel_fault.sent
    ls.Channel_fault.dropped ls.Channel_fault.duplicated
    ls.Channel_fault.retransmissions ls.Channel_fault.lost;
  Printf.bprintf b "|exec %d ticks %d" o.Runner.stats.Engine.executed
    o.Runner.stats.Engine.ticks_used;
  Buffer.contents b

let replay_twice_identical () =
  for i = 0 to 39 do
    let s = Fuzz_driver.scenario_of_trial ~seed:13 (gen_cfg `Random) i in
    let a = outcome_fingerprint (Scenario.run s) in
    let b = outcome_fingerprint (Scenario.run s) in
    if a <> b then
      Alcotest.failf "trial %d not replay-deterministic:\n%s" i
        (Scenario.to_string s)
  done

let jobs_parity jobs () =
  let trials = 60 in
  let sweep jobs =
    Domain_pool.map ~jobs trials (fun i ->
        let s = Fuzz_driver.scenario_of_trial ~seed:13 (gen_cfg `Random) i in
        ( outcome_fingerprint (Scenario.run s),
          Result.is_ok (Scenario.check s) ))
  in
  let seq = sweep 1 and par = sweep jobs in
  for i = 0 to trials - 1 do
    if seq.(i) <> par.(i) then
      Alcotest.failf "trial %d differs between jobs=1 and jobs=%d" i jobs
  done

let zero_drop_trace_identity () =
  (* The inert spec (zero rates, stubborn flag set) must be
     trace-identical to the default reliable channel — over the
     committed corpus and a generated sweep. *)
  let check_one name s =
    let a = outcome_fingerprint (Scenario.run s) in
    let b =
      outcome_fingerprint
        (Scenario.run
           (with_faults s
              { Channel_fault.drop = 0; dup = 0; delay = 0; stubborn = true }))
    in
    if a <> b then Alcotest.failf "%s: zero-fault spec changed the trace" name
  in
  List.iter
    (fun (name, decoded) ->
      match decoded with
      | Ok s when Result.is_ok (Scenario.validate s) -> check_one name s
      | _ -> ())
    (Corpus.load ~dir:"../corpus");
  for i = 0 to 59 do
    check_one
      (Printf.sprintf "generated %d" i)
      (Fuzz_driver.scenario_of_trial ~seed:21 Scenario_gen.default i)
  done

let claims_under_stubborn_loss () =
  for i = 0 to 29 do
    let s = Fuzz_driver.scenario_of_trial ~seed:5 (gen_cfg (`Spec stubborn_spec)) i in
    (match Scenario.check s with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "trial %d fails under stubborn loss: %s\n%s" i e
          (Scenario.to_string s));
    let o = Scenario.run s in
    Alcotest.(check int)
      (Printf.sprintf "trial %d: no announcement lost" i)
      0 o.Runner.links.Channel_fault.lost
  done

let safety_under_fair_loss () =
  (* Without the stubborn layer termination is forfeited (and waived by
     Scenario.check), but safety must still hold. *)
  for i = 0 to 19 do
    let s = Fuzz_driver.scenario_of_trial ~seed:6 (gen_cfg (`Spec lossy_spec)) i in
    match Scenario.check s with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "trial %d violates safety under fair loss: %s\n%s" i e
          (Scenario.to_string s)
  done

(* ---------------- shrinker ----------------------------------------- *)

let shrinker_weakens_faults () =
  let c = Choice.of_rng (Rng.make 4) in
  let s = Scenario_gen.scenario c (gen_cfg (`Spec stubborn_spec)) in
  let candidates = Shrinker.candidates s in
  Alcotest.(check bool) "all candidates stay well-formed" true
    (List.for_all (fun c -> Scenario.validate c = Ok ()) candidates);
  Alcotest.(check bool) "a fault-free candidate is offered" true
    (List.exists
       (fun c -> Channel_fault.is_none c.Scenario.faults)
       candidates);
  Alcotest.(check bool) "fault specs only get milder" true
    (List.for_all
       (fun c ->
         c.Scenario.faults.Channel_fault.drop
         <= s.Scenario.faults.Channel_fault.drop
         && c.Scenario.faults.Channel_fault.delay
            <= s.Scenario.faults.Channel_fault.delay)
       candidates)

(* ---------------- corpus hardening --------------------------------- *)

let sample_scenario () =
  Scenario_gen.scenario (Choice.of_rng (Rng.make 8)) Scenario_gen.default

let corpus_save_atomic () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "amcast-corpus-atomic"
  in
  let s = sample_scenario () in
  let path = Corpus.save ~dir ~name:"atomic" s in
  (* A simulated crash mid-save: the temp file of an interrupted writer
     is left in the directory with a partial payload. *)
  let partial = Filename.concat dir "save1234.tmp" in
  let oc = open_out_bin partial in
  output_string oc (String.sub (Scenario.to_string s) 0 10);
  close_out oc;
  let leftovers =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  Alcotest.(check (list string)) "save leaves no temp file behind"
    [ "save1234.tmp" ] leftovers;
  (match Corpus.load ~dir with
  | [ ("atomic.scenario", Ok s') ] ->
      Alcotest.(check bool) "the completed save round-trips" true
        (Scenario.equal s s')
  | entries ->
      Alcotest.failf
        "partial write leaked into the corpus (%d entries loaded)"
        (List.length entries));
  Sys.remove partial;
  Sys.remove path;
  Sys.rmdir dir

(* ---------------- exploration under faults ------------------------- *)

(* Under channel faults the explorer forces partial-order reduction
   off, so asking for it changes nothing: the report equals the one of
   [~por:false]. *)
let explore_faults_por_off () =
  let topo = Topology.chain ~groups:2 in
  let groups = List.map (Topology.group topo) (Topology.gids topo) in
  let src g = match Pset.min_elt (List.nth groups g) with
    | Some p -> p
    | None -> assert false
  in
  let sc =
    Scenario.make
      ~msgs:[ (src 0, 0, 0) ]
      ~faults:{ Channel_fault.drop = 2_000; dup = 0; delay = 1; stubborn = true }
      ~n:(Topology.n topo) groups
  in
  let a = Explore.run ~depth:10 sc and b = Explore.run ~por:false ~depth:10 sc in
  Alcotest.(check bool) "POR is forced off under faults" false a.Explore.por;
  Alcotest.(check bool) "same report as ~por:false" true (a = b)

let suite =
  [
    t "channel-fault codec roundtrips" `Quick spec_codec_roundtrip;
    t "channel-fault codec: compact CLI form" `Quick spec_codec_compact_form;
    t "channel-fault codec rejects garbage" `Quick spec_codec_rejects;
    t "net: FIFO without faults" `Quick net_fifo_without_faults;
    t "net: inert spec is bit-identical" `Quick net_zero_spec_identical;
    t "net: delay-only spec loses nothing" `Quick net_delay_only_loses_nothing;
    t "net: fault draws replay identically" `Quick net_fault_draws_deterministic;
    t "net: fair loss loses messages" `Quick net_fair_loss_loses;
    t "stubborn: eventual delivery with retransmission" `Quick
      stubborn_delivers_everything;
    t "net: descriptive range errors" `Quick net_range_errors_descriptive;
    t "scenario codec carries the fault spec" `Quick scenario_fault_codec;
    t "fault scenarios replay bit-identically" `Slow replay_twice_identical;
    t "fault sweep identical (jobs=4)" `Slow (jobs_parity 4);
    t "zero-fault spec is trace-identical to none" `Slow zero_drop_trace_identity;
    t "claims verify under stubborn loss" `Slow claims_under_stubborn_loss;
    t "safety holds under plain fair loss" `Slow safety_under_fair_loss;
    t "shrinker weakens fault specs" `Quick shrinker_weakens_faults;
    t "corpus: atomic save survives a simulated crash" `Quick corpus_save_atomic;
    t "explore: fault scenario, POR forced off" `Quick explore_faults_por_off;
  ]
