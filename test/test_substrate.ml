let t = Alcotest.test_case

let drive ?(horizon = 4000) ?(quiesce_after = 40) fp step =
  Engine.run ~fp ~horizon ~quiesce_after ~step ()

(* ---------------- net ---------------------------------------------- *)

let net_fifo () =
  let net = Net.create ?faults:None ?seed:None ~n:2 in
  Net.send net ~src:0 ~dst:1 "a";
  Net.send net ~src:0 ~dst:1 "b";
  Alcotest.(check int) "pending" 2 (Net.pending net 1);
  Alcotest.(check (option (pair int string))) "fifo 1" (Some (0, "a")) (Net.receive net 1);
  Alcotest.(check (option (pair int string))) "fifo 2" (Some (0, "b")) (Net.receive net 1);
  Alcotest.(check (option (pair int string))) "empty" None (Net.receive net 1);
  Net.multicast net ~src:1 (Pset.of_list [ 0; 1 ]) "c";
  Alcotest.(check int) "multicast to both" 1 (Net.pending net 0);
  Alcotest.(check int) "including self" 1 (Net.pending net 1);
  Alcotest.(check int) "total" 4 (Net.total_sent net)

(* ---------------- ABD register ------------------------------------- *)

let abd_read_after_write () =
  let n = 3 in
  let scope = Pset.range n in
  let fp = Failure_pattern.never ~n in
  let sigma = Sigma.make ~restrict:scope fp in
  let reg = Abd.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) in
  let w = Abd.write reg ~pid:0 ~value:42 in
  ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
  Alcotest.(check (option int)) "write completes" (Some 42) (Abd.poll reg ~pid:0 w);
  let r = Abd.read reg ~pid:2 in
  ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
  Alcotest.(check (option int)) "read sees it" (Some 42) (Abd.poll reg ~pid:2 r)

let abd_under_crash () =
  (* Operations complete against the surviving quorum. *)
  let n = 3 in
  let scope = Pset.range n in
  let fp = Failure_pattern.of_crashes ~n [ (1, 2) ] in
  let sigma = Sigma.make ~restrict:scope fp in
  let reg = Abd.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) in
  let w = Abd.write reg ~pid:0 ~value:7 in
  ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
  Alcotest.(check (option int)) "write completes" (Some 7) (Abd.poll reg ~pid:0 w);
  let r = Abd.read reg ~pid:2 in
  ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
  Alcotest.(check (option int)) "read completes" (Some 7) (Abd.poll reg ~pid:2 r)

let abd_last_write_wins =
  QCheck.Test.make ~name:"ABD: sequential writes read back in order" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let n = 4 in
      let scope = Pset.range n in
      let fp = Failure_pattern.never ~n in
      let sigma = Sigma.make ~restrict:scope fp in
      let reg = Abd.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) in
      let rng = Rng.make seed in
      let writes = List.init 4 (fun i -> (Rng.int rng n, 100 + i)) in
      let ok = ref true in
      List.iter
        (fun (p, v) ->
          let w = Abd.write reg ~pid:p ~value:v in
          ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
          ok := !ok && Abd.poll reg ~pid:p w = Some v;
          let r = Abd.read reg ~pid:((p + 1) mod n) in
          ignore (drive fp (fun ~pid ~time -> Abd.step reg ~pid ~time));
          ok := !ok && Abd.poll reg ~pid:((p + 1) mod n) r = Some v)
        writes;
      !ok)

(* ---------------- adopt-commit ------------------------------------- *)

let ac_solo_commits () =
  let scope = Pset.of_list [ 0; 1; 2 ] in
  let fp = Failure_pattern.never ~n:3 in
  let sigma = Sigma.make ~restrict:scope fp in
  let ac = Ac.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) in
  Ac.propose ac ~pid:0 ~value:5;
  ignore (drive fp (fun ~pid ~time -> Ac.step ac ~pid ~time));
  (* all participants resolve (the join rule pulls in the idle ones) *)
  List.iter
    (fun p ->
      match Ac.poll ac ~pid:p with
      | Some (`Commit 5) -> ()
      | Some (`Adopt v) -> Alcotest.failf "p%d adopted %d" p v
      | Some (`Commit v) -> Alcotest.failf "p%d committed %d" p v
      | None -> Alcotest.failf "p%d unresolved" p)
    [ 0; 1; 2 ]

let ac_properties =
  QCheck.Test.make ~name:"AC: validity, coherence, convergence" ~count:50
    QCheck.(pair (int_range 0 10_000) (list_of_size Gen.(1 -- 3) (int_range 0 2)))
    (fun (seed, values) ->
      let n = 3 in
      let scope = Pset.range n in
      let fp = Failure_pattern.never ~n in
      let sigma = Sigma.make ~restrict:scope fp in
      let ac = Ac.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) in
      List.iteri (fun p v -> Ac.propose ac ~pid:p ~value:v) values;
      ignore
        (Engine.run ~fp ~horizon:2000 ~quiesce_after:20 ~seed
           ~step:(fun ~pid ~time -> Ac.step ac ~pid ~time)
           ());
      let outs = List.filter_map (fun p -> Ac.poll ac ~pid:p) [ 0; 1; 2 ] in
      let value = function `Commit v | `Adopt v -> v in
      let committed =
        List.filter_map (function `Commit v -> Some v | `Adopt _ -> None) outs
      in
      outs <> []
      && List.for_all (fun o -> List.mem (value o) values) outs
      && (match committed with
         | [] -> true
         | v :: _ -> List.for_all (fun o -> value o = v) outs)
      &&
      match values with
      | v :: rest when List.for_all (( = ) v) rest ->
          List.for_all (fun o -> o = `Commit v) outs
      | _ -> true)

(* ---------------- synod consensus ---------------------------------- *)

let synod_properties =
  QCheck.Test.make ~name:"synod: agreement + validity under crashes" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 0 3))
    (fun (seed, crash) ->
      let n = 4 in
      let scope = Pset.range n in
      (* crash one non-unanimous process mid-run; a majority survives *)
      let fp = Failure_pattern.of_crashes ~n [ (crash, 10 + (seed mod 7)) ] in
      let sigma = Sigma.make ~restrict:scope fp in
      let omega = Omega.make ~restrict:scope ~stabilization:25 ~seed fp in
      let sy =
        Synod.create ?faults:None ?seed:None ~scope ~sigma:(Sigma.query sigma) ~omega:(Omega.query omega)
      in
      let inputs = List.init n (fun p -> 100 + ((p + seed) mod 3)) in
      List.iteri (fun p v -> Synod.propose sy ~pid:p ~value:v) inputs;
      ignore
        (Engine.run ~fp ~horizon:6000 ~quiesce_after:60 ~seed
           ~step:(fun ~pid ~time -> Synod.step sy ~pid ~time)
           ());
      let correct = Pset.to_list (Failure_pattern.correct fp) in
      let decisions = List.filter_map (fun p -> Synod.decision sy ~pid:p) correct in
      List.length decisions = List.length correct
      && (match decisions with
         | [] -> false
         | d :: rest -> List.for_all (( = ) d) rest && List.mem d inputs))

(* ---------------- the fast log (Prop 47) --------------------------- *)

let mk_replog fp =
  let scope = Pset.of_list [ 1; 2 ] in
  let group = Pset.of_list [ 0; 1; 2; 3 ] in
  let sigma_i = Sigma.make ~restrict:scope fp in
  let sigma_g = Sigma.make ~restrict:group fp in
  let omega_g = Omega.make ~restrict:group ~stabilization:10 ~seed:3 fp in
  Replog.create ?faults:None ?seed:None ~scope ~group
    ~sigma_inter:(Sigma.query sigma_i)
    ~sigma_group:(Sigma.query sigma_g)
    ~omega_group:(Omega.query omega_g)

let replog_fast_path () =
  let fp = Failure_pattern.never ~n:5 in
  let rl = mk_replog fp in
  List.iter (fun (p, op) -> Replog.append rl ~pid:p ~op)
    [ (1, 10); (1, 11); (2, 10); (2, 11) ];
  let stats = drive fp (fun ~pid ~time -> Replog.step rl ~pid ~time) in
  Alcotest.(check (list int)) "p1 prefix" [ 10; 11 ] (Replog.decided rl ~pid:1);
  Alcotest.(check (list int)) "p2 prefix" [ 10; 11 ] (Replog.decided rl ~pid:2);
  Alcotest.(check int) "all fast" 2 (Replog.fast_slots rl);
  Alcotest.(check int) "no consensus" 0 (Replog.slow_slots rl);
  (* Prop 47: only g∩h took steps *)
  Alcotest.(check int) "p0 idle" 0 stats.Engine.steps.(0);
  Alcotest.(check int) "p3 idle" 0 stats.Engine.steps.(3)

let replog_slow_path () =
  let fp = Failure_pattern.never ~n:5 in
  let rl = mk_replog fp in
  Replog.append rl ~pid:1 ~op:20;
  Replog.append rl ~pid:2 ~op:21;
  let stats = drive fp (fun ~pid ~time -> Replog.step rl ~pid ~time) in
  Alcotest.(check bool) "consensus engaged" true (Replog.slow_slots rl >= 1);
  Alcotest.(check bool) "host group stepped" true
    (stats.Engine.steps.(0) + stats.Engine.steps.(3) > 0);
  Alcotest.(check (list int)) "prefixes agree" (Replog.decided rl ~pid:1)
    (Replog.decided rl ~pid:2);
  Alcotest.(check bool) "both ops land" true
    (Replog.appended rl ~pid:1 ~op:20 && Replog.appended rl ~pid:1 ~op:21)

let replog_prefix_agreement =
  QCheck.Test.make ~name:"replog: decided prefixes agree" ~count:30
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let fp = Failure_pattern.never ~n:5 in
      let rl = mk_replog fp in
      let rng = Rng.make seed in
      List.iter
        (fun op -> Replog.append rl ~pid:(1 + Rng.int rng 2) ~op)
        [ 1; 2; 3; 4 ];
      ignore
        (Engine.run ~fp ~horizon:8000 ~quiesce_after:60 ~seed
           ~step:(fun ~pid ~time -> Replog.step rl ~pid ~time)
           ());
      let p1 = Replog.decided rl ~pid:1 and p2 = Replog.decided rl ~pid:2 in
      let rec prefix a b =
        match (a, b) with
        | [], _ | _, [] -> true
        | x :: a, y :: b -> x = y && prefix a b
      in
      prefix p1 p2)


let replog_strongly_genuine () =
  (* §6.2 sufficiency when F = ∅: implement LOG_{g∩h} entirely from
     Σ_{g∩h} ∧ Ω_{g∩h} by hosting the slow-path consensus inside the
     intersection itself — then even contended appends never involve
     the rest of the group. *)
  let scope = Pset.of_list [ 1; 2 ] in
  let fp = Failure_pattern.never ~n:5 in
  let sigma_i = Sigma.make ~restrict:scope fp in
  let omega_i = Omega.make ~restrict:scope ~stabilization:10 ~seed:5 fp in
  let rl =
    Replog.create ?faults:None ?seed:None ~scope ~group:scope
      ~sigma_inter:(Sigma.query sigma_i)
      ~sigma_group:(Sigma.query sigma_i)
      ~omega_group:(Omega.query omega_i)
  in
  Replog.append rl ~pid:1 ~op:30;
  Replog.append rl ~pid:2 ~op:31;
  let stats = drive fp (fun ~pid ~time -> Replog.step rl ~pid ~time) in
  Alcotest.(check bool) "contention resolved" true (Replog.slow_slots rl >= 1);
  Alcotest.(check (list int)) "prefixes agree" (Replog.decided rl ~pid:1)
    (Replog.decided rl ~pid:2);
  Alcotest.(check bool) "both ops land" true
    (Replog.appended rl ~pid:1 ~op:30 && Replog.appended rl ~pid:1 ~op:31);
  (* nobody outside g∩h ever steps — group parallelism at object level *)
  List.iter
    (fun p -> Alcotest.(check int) (Printf.sprintf "p%d idle" p) 0 stats.Engine.steps.(p))
    [ 0; 3; 4 ]

let suite =
  [
    t "net fifo buffer" `Quick net_fifo;
    t "abd read-after-write" `Quick abd_read_after_write;
    t "abd under crash" `Quick abd_under_crash;
    t "adopt-commit solo commit" `Quick ac_solo_commits;
    t "fast log: Prop 47 fast path" `Quick replog_fast_path;
    t "fast log: contention slow path" `Quick replog_slow_path;
    t "fast log: §6.2 strongly genuine config" `Quick replog_strongly_genuine;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [ abd_last_write_wins; ac_properties; synod_properties; replog_prefix_agreement ]
