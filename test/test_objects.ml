let t = Alcotest.test_case

(* -------------------- the log object (§4.3) ----------------------- *)

let log_basics () =
  let l = Log.create ~compare:Int.compare in
  Alcotest.(check int) "initial head" 1 (Log.head l);
  Alcotest.(check int) "append at head" 1 (Log.append l 10);
  Alcotest.(check int) "second append" 2 (Log.append l 20);
  Alcotest.(check int) "idempotent append" 1 (Log.append l 10);
  Alcotest.(check int) "pos absent" 0 (Log.pos l 99);
  Alcotest.(check bool) "mem" true (Log.mem l 10);
  Alcotest.(check bool) "order" true (Log.lt l 10 20);
  Alcotest.(check (list int)) "entries" [ 10; 20 ] (Log.entries l)

let log_bump () =
  let l = Log.create ~compare:Int.compare in
  ignore (Log.append l 1);
  ignore (Log.append l 2);
  (* claim 3/5: bump only raises, lock freezes *)
  Log.bump_and_lock l 1 5;
  Alcotest.(check int) "bumped" 5 (Log.pos l 1);
  Alcotest.(check bool) "locked" true (Log.locked l 1);
  Log.bump_and_lock l 1 9;
  Alcotest.(check int) "frozen after lock" 5 (Log.pos l 1);
  (* bump below current keeps the max *)
  Log.bump_and_lock l 2 1;
  Alcotest.(check int) "max(k, current)" 2 (Log.pos l 2);
  (* claim 7: a fresh append lands above every locked datum *)
  Alcotest.(check int) "head past bump" 6 (Log.append l 3);
  Alcotest.(check bool) "locked below fresh" true (Log.lt l 1 3);
  Alcotest.check_raises "bump absent"
    (Invalid_argument "Log.bump_and_lock: datum not in the log") (fun () ->
      Log.bump_and_lock l 42 1)

let log_slot_sharing () =
  let l = Log.create ~compare:Int.compare in
  ignore (Log.append l 7);
  ignore (Log.append l 3);
  (* bump 3 into 7's slot: tie broken by the a-priori order *)
  Log.bump_and_lock l 7 2;
  Alcotest.(check int) "same slot" (Log.pos l 7) (Log.pos l 3);
  Alcotest.(check bool) "tie by datum order" true (Log.lt l 3 7);
  Alcotest.(check (list int)) "entries sorted" [ 3; 7 ] (Log.entries l)

(* Random op sequences preserve the Table 2 log laws. *)
let log_laws =
  QCheck.Test.make ~name:"log laws under random ops (claims 2-8)" ~count:100
    QCheck.(small_list (pair (int_range 0 8) (int_range 0 10)))
    (fun ops ->
      let l = Log.create ~compare:Int.compare in
      List.for_all
        (fun (d, k) ->
          let before_pos = Log.pos l d in
          let before_locked = Log.locked l d in
          let before_entries = Log.entries l in
          (if k = 0 || not (Log.mem l d) then ignore (Log.append l d)
           else Log.bump_and_lock l d k);
          let ok_monotone = Log.pos l d >= before_pos in
          let ok_lock = (not before_locked) || Log.pos l d = before_pos in
          let ok_presence = List.for_all (Log.mem l) before_entries in
          ok_monotone && ok_lock && ok_presence)
        ops)

(* The incremental index stays equal to a from-scratch re-sort after
   every operation: [entries] is the snapshot's data, [head] is one
   past the largest position (1 for an empty log), and the walks agree
   with the predecessor lists. *)
let log_index_matches_naive =
  QCheck.Test.make ~name:"log incremental index = naive re-sort" ~count:200
    QCheck.(small_list (pair (int_range 0 8) (int_range 0 10)))
    (fun ops ->
      let l = Log.create ~compare:Int.compare in
      let inserted = ref [] in
      List.for_all
        (fun (d, k) ->
          (if k = 0 || not (Log.mem l d) then begin
             if not (Log.mem l d) then inserted := d :: !inserted;
             ignore (Log.append l d)
           end
           else Log.bump_and_lock l d k);
          let naive =
            List.sort
              (fun a b ->
                let c = Int.compare (Log.pos l a) (Log.pos l b) in
                if c <> 0 then c else Int.compare a b)
              !inserted
          in
          Log.entries l = naive
          && Log.entries l = List.map (fun (d, _, _) -> d) (Log.snapshot l)
          && Log.head l
             = 1 + List.fold_left (fun acc d -> max acc (Log.pos l d)) 0 naive
          && List.for_all
               (fun d ->
                 let before = List.filter (fun d' -> Log.lt l d' d) naive in
                 let odd x = x mod 2 = 1 in
                 Log.forall_before l d odd = List.for_all odd before
                 && Log.first_before l d odd = List.find_opt odd before)
               naive)
        ops)

(* One operation as the laws above draw it: [k = 0] or an absent datum
   appends, anything else bumps to [k]. *)
let apply_op l (d, k) =
  if k = 0 || not (Log.mem l d) then ignore (Log.append l d)
  else Log.bump_and_lock l d k

(* Seeded random [apply_op] sequences over data 0..8. [after_op] sees
   the log after each operation. *)
let random_log ?(after_op = ignore) seed =
  let rng = Rng.make seed in
  let l = Log.create ~compare:Int.compare in
  for _ = 1 to Rng.int rng 24 do
    let d = Rng.int rng 9 and k = Rng.int rng 11 in
    apply_op l (d, k);
    after_op l
  done;
  l

(* The two shapes [Claims.all] skips without a join. Appending an
   absent datum leaves the old snapshot an entry-for-entry prefix of
   the new one; bumping an unlocked datum to [k <= pos] keeps every
   datum and position and locks exactly that entry. Every snapshot is
   in strict <_L order, positions first, then the datum order. *)
let log_in_place_ops =
  QCheck.Test.make ~name:"log appends and lock-only bumps extend in place"
    ~count:200
    QCheck.(small_list (pair (int_range 0 8) (int_range 0 10)))
    (fun ops ->
      let l = Log.create ~compare:Int.compare in
      let rec strict = function
        | (d, p, _) :: ((d', p', _) :: _ as rest) ->
            (p < p' || (p = p' && d < d')) && strict rest
        | _ -> true
      in
      List.for_all
        (fun (d, k) ->
          let old = Log.snapshot l in
          let absent = not (Log.mem l d) in
          let lock_only =
            k > 0 && k <= Log.pos l d && not (Log.locked l d)
          in
          apply_op l (d, k);
          let s = Log.snapshot l in
          strict s
          && ((not absent) || s = old @ [ (d, Log.pos l d, false) ])
          && ((not lock_only)
             || s = List.map (fun (d', p, lk) -> (d', p, lk || d' = d)) old))
        ops)

let log_snapshot () =
  for seed = 1 to 200 do
    ignore
      (random_log seed ~after_op:(fun l ->
           Alcotest.(check (list (triple int int bool)))
             (Printf.sprintf "seed %d" seed)
             (List.map (fun d -> (d, Log.pos l d, Log.locked l d)) (Log.entries l))
             (Log.snapshot l)))
  done

(* What a reader can observe of a log: its entries with positions and
   locks, its head, and for every datum whether all its predecessors
   are smaller data (a walk whose answer depends on the order). *)
let log_view l =
  ( Log.snapshot l,
    Log.head l,
    List.map
      (fun d -> Log.forall_before l d (fun d' -> d' < d))
      (Log.entries l) )

(* Mutating either side of a copy leaves the other side's view as it
   was, down to the very snapshot list the copy started sharing. The
   mutation appends and then raises a fresh, unlocked datum above the
   head, so the bump repositions it in the sorted index. *)
let log_copy_independent () =
  let check_view = Alcotest.(check (triple (list (triple int int bool)) int (list bool))) in
  for seed = 1 to 100 do
    List.iter
      (fun mutate_copy ->
        let l = random_log seed in
        ignore (Log.append l 50);
        let snap = Log.snapshot l in
        let c = Log.copy l in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: copy shares the snapshot list" seed)
          true
          (Log.snapshot c == snap);
        check_view (Printf.sprintf "seed %d: copy equals original" seed)
          (log_view l) (log_view c);
        let kept, mutated = if mutate_copy then (l, c) else (c, l) in
        let before = log_view kept in
        ignore (Log.append mutated 60);
        Log.bump_and_lock mutated 50 (Log.head mutated + 1);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: 50 repositioned above 60" seed)
          true (Log.lt mutated 60 50);
        let side = if mutate_copy then "original" else "copy" in
        check_view
          (Printf.sprintf "seed %d: %s unchanged" seed side)
          before (log_view kept);
        let snap, _, _ = before in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: %s keeps its snapshot list" seed side)
          true
          (Log.snapshot kept == snap))
      [ true; false ]
  done

(* [snapshot] returns one list until the log changes. A fresh append, a
   moving bump and a lock-only bump each give a fresh list; a repeated
   append and a bump of a locked datum change nothing and keep it. *)
let log_snapshot_sharing () =
  let l = Log.create ~compare:Int.compare in
  ignore (Log.append l 1);
  ignore (Log.append l 2);
  let view l =
    List.map (fun d -> (d, Log.pos l d, Log.locked l d)) (Log.entries l)
  in
  let last = ref (Log.snapshot l) in
  let step what op ~fresh =
    op ();
    let s = Log.snapshot l in
    Alcotest.(check bool) (what ^ ": fresh list") fresh (not (s == !last));
    Alcotest.(check (list (triple int int bool)))
      (what ^ ": entries") (view l) s;
    last := s
  in
  step "no mutation" ignore ~fresh:false;
  step "repeated append" (fun () -> ignore (Log.append l 1)) ~fresh:false;
  step "append" (fun () -> ignore (Log.append l 3)) ~fresh:true;
  step "moving bump" (fun () -> Log.bump_and_lock l 1 5) ~fresh:true;
  step "lock-only bump" (fun () -> Log.bump_and_lock l 2 1) ~fresh:true;
  step "bump of a locked datum"
    (fun () -> Log.bump_and_lock l 2 9)
    ~fresh:false

(* Per-tick recording shares every log a tick left untouched: consecutive
   snapshots whose entries for a key are equal hold one list. *)
let runner_shares_snapshots () =
  let topo = Topology.ring ~groups:4 in
  let workload =
    Workload.make
      [ (0, 0, 0); (2, 1, 4); (4, 2, 9); (6, 3, 14); (3, 1, 20) ]
      topo
  in
  let o =
    Runner.run ~record_snapshots:true ~topo
      ~fp:(Failure_pattern.never ~n:(Topology.n topo))
      ~workload ()
  in
  let shared = ref 0 in
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        List.iter
          (fun (key, la) ->
            match List.assoc_opt key b with
            | Some lb when la <> [] && la = lb ->
                if not (la == lb) then
                  Alcotest.failf "log (%d, %d): untouched but copied"
                    (fst key) (snd key);
                incr shared
            | _ -> ())
          a;
        pairs rest
    | _ -> ()
  in
  pairs (List.map snd o.Runner.snapshots @ [ o.Runner.final_logs ]);
  Alcotest.(check bool) "some log untouched in a tick" true (!shared > 0)

(* -------------------- consensus objects --------------------------- *)

let consensus_table () =
  let c = Consensus_table.create () in
  Alcotest.(check int) "first proposal decides" 5 (Consensus_table.propose c "k" 5);
  Alcotest.(check int) "later proposals adopt" 5 (Consensus_table.propose c "k" 9);
  Alcotest.(check (option int)) "decided" (Some 5) (Consensus_table.decided c "k");
  Alcotest.(check (option int)) "other instance" None (Consensus_table.decided c "k2");
  Alcotest.(check int) "instances" 1 (Consensus_table.instances c)

let consensus_copy_independent () =
  let view t =
    Consensus_table.decisions t ~cmp:(fun (k, _) (k', _) -> String.compare k k')
  in
  List.iter
    (fun mutate_copy ->
      let t = Consensus_table.create () in
      ignore (Consensus_table.propose t "a" 1);
      let c = Consensus_table.copy t in
      let kept, mutated = if mutate_copy then (t, c) else (c, t) in
      ignore (Consensus_table.propose mutated "b" 2);
      Alcotest.(check (list (pair string int))) "other side unchanged"
        [ ("a", 1) ] (view kept);
      Alcotest.(check int) "other side's instances" 1
        (Consensus_table.instances kept);
      Alcotest.(check (list (pair string int))) "mutated side decided"
        [ ("a", 1); ("b", 2) ] (view mutated);
      Alcotest.(check int) "decided value survives in both" 1
        (Consensus_table.propose kept "a" 9))
    [ true; false ]

let adopt_commit_spec () =
  let ac = Adopt_commit.create () in
  Alcotest.(check bool) "solo commit" true (Adopt_commit.propose ac 1 = `Commit 1);
  Alcotest.(check bool) "same value commits" true (Adopt_commit.propose ac 1 = `Commit 1);
  Alcotest.(check bool) "conflicting adopts first" true
    (Adopt_commit.propose ac 2 = `Adopt 1);
  Alcotest.(check bool) "conflict is sticky" true (Adopt_commit.propose ac 1 = `Adopt 1);
  Alcotest.(check int) "proposals counted" 4 (Adopt_commit.proposals ac)

let adopt_commit_laws =
  QCheck.Test.make ~name:"adopt-commit coherence and validity" ~count:200
    QCheck.(list_of_size Gen.(1 -- 6) (int_range 0 3))
    (fun proposals ->
      let ac = Adopt_commit.create () in
      let outs = List.map (fun v -> (v, Adopt_commit.propose ac v)) proposals in
      let value = function `Commit v | `Adopt v -> v in
      let committed =
        List.filter_map (function _, `Commit v -> Some v | _ -> None) outs
      in
      (* validity: every output value was proposed *)
      List.for_all (fun (_, o) -> List.mem (value o) proposals) outs
      (* coherence: all outputs carry the committed value, if any *)
      && (match committed with
         | [] -> true
         | v :: _ -> List.for_all (fun (_, o) -> value o = v) outs)
      (* convergence: unanimous proposals all commit *)
      && (match proposals with
         | v :: rest when List.for_all (( = ) v) rest ->
             List.for_all (fun (_, o) -> o = `Commit v) outs
         | _ -> true))

(* -------------------- simulation engine --------------------------- *)

let engine_determinism () =
  let run seed =
    let counter = ref [] in
    let fp = Failure_pattern.of_crashes ~n:3 [ (1, 4) ] in
    let step ~pid ~time =
      if List.length !counter < 12 && (pid + time) mod 3 <> 0 then begin
        counter := (pid, time) :: !counter;
        true
      end
      else false
    in
    let stats = Engine.run ~fp ~horizon:30 ~quiesce_after:6 ~seed ~step () in
    (!counter, stats.Engine.steps)
  in
  Alcotest.(check bool) "same seed, same run" true (run 5 = run 5);
  Alcotest.(check bool) "different seed, different interleaving" true
    (fst (run 5) <> fst (run 6) || fst (run 5) = [])

let engine_crash_and_schedule () =
  let fp = Failure_pattern.of_crashes ~n:3 [ (2, 5) ] in
  let stepped = Array.make 3 0 in
  let step ~pid ~time =
    ignore time;
    stepped.(pid) <- stepped.(pid) + 1;
    true
  in
  let stats =
    Engine.run ~fp ~horizon:20 ~quiesce_after:20
      ~scheduled:(fun _ -> Pset.of_list [ 0; 2 ])
      ~step ()
  in
  Alcotest.(check int) "p1 never scheduled" 0 stepped.(1);
  Alcotest.(check int) "p0 every tick" 21 stepped.(0);
  Alcotest.(check int) "p2 until its crash" 5 stepped.(2);
  Alcotest.(check bool) "no quiescence while stepping" false stats.Engine.quiescent

let engine_quiescence () =
  let fp = Failure_pattern.never ~n:2 in
  let stats =
    Engine.run ~fp ~horizon:1000 ~quiesce_after:7 ~step:(fun ~pid:_ ~time:_ -> false) ()
  in
  Alcotest.(check bool) "stops at quiesce_after" true (stats.Engine.ticks_used <= 8);
  Alcotest.(check bool) "reported quiescent" true stats.Engine.quiescent

let suite =
  [
    t "log basics" `Quick log_basics;
    t "log bump and lock" `Quick log_bump;
    t "log slot sharing" `Quick log_slot_sharing;
    t "log snapshot = entries with pos and lock" `Quick log_snapshot;
    t "log copy is independent" `Quick log_copy_independent;
    t "log snapshot shared until a mutation" `Quick log_snapshot_sharing;
    t "runner shares untouched log snapshots" `Quick runner_shares_snapshots;
    t "consensus table" `Quick consensus_table;
    t "consensus table copy is independent" `Quick consensus_copy_independent;
    t "adopt-commit spec" `Quick adopt_commit_spec;
    t "engine determinism" `Quick engine_determinism;
    t "engine crash & schedule" `Quick engine_crash_and_schedule;
    t "engine quiescence" `Quick engine_quiescence;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      [ log_laws; log_index_matches_naive; log_in_place_ops; adopt_commit_laws ]
