(* Unit coverage of the small core modules: messages, workloads,
   traces, RNG. *)

let t = Alcotest.test_case

let amsg_closed_model () =
  let topo = Topology.figure1 in
  let m = Amsg.make ~id:0 ~src:1 ~dst:0 topo in
  Alcotest.(check int) "id" 0 m.Amsg.id;
  Alcotest.(check string) "payload default" "" m.Amsg.payload;
  let m = Amsg.make ~id:1 ~src:0 ~dst:3 ~payload:"x" topo in
  Alcotest.(check string) "payload" "x" m.Amsg.payload;
  (* closed dissemination: src must belong to dst *)
  Alcotest.check_raises "src outside dst"
    (Invalid_argument "Amsg.make: closed dissemination requires src p4 in group g0")
    (fun () -> ignore (Amsg.make ~id:2 ~src:4 ~dst:0 topo))

let workload_generators () =
  let topo = Topology.figure1 in
  let w = Workload.one_per_group topo in
  Alcotest.(check int) "one per group" 4 (List.length w);
  List.iteri
    (fun i { Workload.msg; at } ->
      Alcotest.(check int) "ids in order" i msg.Amsg.id;
      Alcotest.(check int) "dst per group" i msg.Amsg.dst;
      Alcotest.(check int) "at 0" 0 at)
    w;
  let w = Workload.random (Rng.make 5) ~msgs:20 ~max_at:7 topo in
  Alcotest.(check int) "count" 20 (List.length w);
  List.iter
    (fun { Workload.msg; at } ->
      Alcotest.(check bool) "closed model" true
        (Pset.mem msg.Amsg.src (Topology.group topo msg.Amsg.dst));
      Alcotest.(check bool) "at in range" true (at >= 0 && at < 7))
    w;
  Alcotest.(check int) "message by id" 3 (Workload.message w 3).Amsg.id;
  Alcotest.(check bool) "never is huge" true (Workload.never > 1_000_000)

let trace_accessors () =
  let tr =
    Trace.make ~n:3
      [
        Trace.Invoke { m = 0; p = 1; time = 0; seq = 0 };
        Trace.Send { m = 0; p = 1; time = 1; seq = 1 };
        Trace.Phase_change { m = 0; p = 1; phase = Trace.Pending; time = 2; seq = 2 };
        Trace.Deliver { m = 0; p = 1; time = 3; seq = 3 };
        Trace.Deliver { m = 1; p = 1; time = 4; seq = 4 };
        Trace.Deliver { m = 0; p = 2; time = 4; seq = 5 };
      ]
  in
  Alcotest.(check (list int)) "delivery order at p1" [ 0; 1 ] (Trace.delivery_order tr 1);
  Alcotest.(check (list int)) "delivery order at p0" [] (Trace.delivery_order tr 0);
  Alcotest.(check bool) "delivered_at" true (Trace.delivered_at tr ~p:2 ~m:0);
  Alcotest.(check (option int)) "delivery seq" (Some 3) (Trace.delivery_seq tr ~p:1 ~m:0);
  Alcotest.(check (option int)) "first delivery" (Some 3) (Trace.first_delivery_seq tr ~m:0);
  Alcotest.(check (option int)) "invoke seq" (Some 0) (Trace.invoke_seq tr ~m:0);
  Alcotest.(check (list int)) "invoked" [ 0 ] (Trace.invoked tr);
  Alcotest.(check int) "phase history length" 2
    (List.length (Trace.phase_history tr ~p:1 ~m:0));
  Alcotest.(check int) "deliveries" 3 (List.length (Trace.deliveries tr))

(* Seqs are non-negative, so the index's -1 for "absent" never stands
   for a recorded event: a negative seq fails the first query, and an
   event at seq 0 is found by every table. *)
let trace_seq_contract () =
  let bad =
    Trace.make ~n:1
      [
        Trace.Invoke { m = 0; p = 0; time = 0; seq = 0 };
        Trace.Deliver { m = 0; p = 0; time = 1; seq = -1 };
      ]
  in
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Trace: negative event seq") (fun () ->
      ignore (Trace.delivered_at bad ~p:0 ~m:0));
  let tr =
    Trace.make ~n:1
      [
        Trace.Deliver { m = 0; p = 0; time = 0; seq = 0 };
        Trace.Invoke { m = 1; p = 0; time = 0; seq = 0 };
      ]
  in
  Alcotest.(check bool) "delivered at seq 0" true (Trace.delivered_at tr ~p:0 ~m:0);
  Alcotest.(check (option int)) "delivery seq 0" (Some 0) (Trace.delivery_seq tr ~p:0 ~m:0);
  Alcotest.(check (option int)) "first delivery seq 0" (Some 0)
    (Trace.first_delivery_seq tr ~m:0);
  Alcotest.(check (option int)) "invoke seq 0" (Some 0) (Trace.invoke_seq tr ~m:1);
  Alcotest.(check (option int)) "invoke time" (Some 0) (Trace.invoke_time tr ~m:1);
  Alcotest.(check (option int)) "no invoke of m0" None (Trace.invoke_seq tr ~m:0);
  Alcotest.(check (option int)) "no delivery of m1" None
    (Trace.delivery_seq tr ~p:0 ~m:1)

let phase_order () =
  let open Trace in
  let phases = [ Start; Pending; Commit; Stable; Delivered ] in
  let ranks = List.map phase_rank phases in
  Alcotest.(check (list int)) "strictly increasing" [ 0; 1; 2; 3; 4 ] ranks

let rng_determinism () =
  let a = Rng.make 42 and b = Rng.make 42 in
  let seq r = List.init 20 (fun _ -> Rng.int r 1000) in
  Alcotest.(check (list int)) "same seed same stream" (seq a) (seq b);
  let c = Rng.make 43 in
  Alcotest.(check bool) "different seed different stream" true
    (seq (Rng.make 42) <> seq c);
  (* a copy replays the same stream *)
  let r = Rng.make 7 in
  ignore (Rng.int r 10);
  let r' = Rng.copy r in
  Alcotest.(check (list int)) "copy replays" (seq r) (seq r');
  (* split yields a different stream than the parent *)
  let r = Rng.make 7 in
  let s = Rng.split r in
  Alcotest.(check bool) "split differs" true (seq s <> seq r)

let rng_bounds =
  QCheck.Test.make ~name:"rng: int within bounds" ~count:200
    QCheck.(pair (int_range 0 10_000) (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.make seed in
      List.for_all (fun _ -> let x = Rng.int r bound in x >= 0 && x < bound)
        (List.init 50 Fun.id))

let rng_shuffle_permutes =
  QCheck.Test.make ~name:"rng: shuffle is a permutation" ~count:100
    QCheck.(pair (int_range 0 10_000) (small_list small_nat))
    (fun (seed, l) ->
      let r = Rng.make seed in
      List.sort compare (Rng.shuffle r l) = List.sort compare l)

let suite =
  [
    t "amsg closed model" `Quick amsg_closed_model;
    t "workload generators" `Quick workload_generators;
    t "trace accessors" `Quick trace_accessors;
    t "trace seqs: negative rejected, 0 found" `Quick trace_seq_contract;
    t "phase order" `Quick phase_order;
    t "rng determinism" `Quick rng_determinism;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) [ rng_bounds; rng_shuffle_permutes ]
