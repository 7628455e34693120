(* The work-distribution layer (lib/util/domain_pool.ml) and the Rng
   rejection-sampling fix it leans on: the pool's whole contract is
   sequential semantics at parallel throughput, so every test here
   checks a parallel run against its jobs=1 reference. *)

let t = Alcotest.test_case

(* ---------------- map --------------------------------------------- *)

let map_matches_sequential () =
  let f i = (i * i) + 7 in
  let seq = Domain_pool.map ~jobs:1 200 f in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d" jobs)
        seq
        (Domain_pool.map ~jobs 200 f))
    [ 2; 3; 8 ]

let map_degenerate_sizes () =
  Alcotest.(check (array int)) "empty" [||] (Domain_pool.map ~jobs:4 0 Fun.id);
  Alcotest.(check (array int)) "one" [| 0 |] (Domain_pool.map ~jobs:4 1 Fun.id)

let map_raises_earliest_index () =
  (* Indices 3, 53, 103, … raise; the earliest one must surface,
     whatever the interleaving. *)
  let f i = if i mod 50 = 3 then failwith (string_of_int i) else i in
  List.iter
    (fun jobs ->
      match Domain_pool.map ~jobs ~chunk:1 200 f with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure m ->
          Alcotest.(check string)
            (Printf.sprintf "earliest index, jobs=%d" jobs)
            "3" m)
    [ 1; 4 ]

(* ---------------- find_first -------------------------------------- *)

let find_first_earliest_match () =
  let f i = if i mod 17 = 13 then Some (i * 2) else None in
  List.iter
    (fun jobs ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d" jobs)
        (Some (13, 26))
        (Domain_pool.find_first ~jobs ~chunk:1 500 f))
    [ 1; 2; 7 ]

let find_first_no_match () =
  List.iter
    (fun jobs ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d" jobs)
        None
        (Domain_pool.find_first ~jobs 300 (fun _ -> None)))
    [ 1; 4 ]

let find_first_match_beats_later_exn () =
  (* A sequential scan stops at the match (13) and never reaches the
     raising index (40): so must the pool. *)
  let f i =
    if i = 40 then failwith "late" else if i = 13 then Some i else None
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "jobs=%d" jobs)
        (Some (13, 13))
        (Domain_pool.find_first ~jobs ~chunk:1 100 f))
    [ 1; 4 ]

let find_first_earlier_exn_wins () =
  (* …and an exception before the first match re-raises instead. *)
  let f i =
    if i = 5 then failwith "early" else if i = 13 then Some i else None
  in
  List.iter
    (fun jobs ->
      match Domain_pool.find_first ~jobs ~chunk:1 100 f with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure m ->
          Alcotest.(check string) (Printf.sprintf "jobs=%d" jobs) "early" m)
    [ 1; 4 ]

(* ---------------- rng: rejection sampling -------------------------- *)

let rng_int_deterministic_and_bounded () =
  let a = Rng.make 99 and b = Rng.make 99 in
  for _ = 1 to 2_000 do
    let va = Rng.int a 997 and vb = Rng.int b 997 in
    Alcotest.(check int) "same stream" va vb;
    Alcotest.(check bool) "in bounds" true (va >= 0 && va < 997)
  done

let rng_int_unbiased () =
  (* bound = 3·2^60 over a 62-bit word: plain [mod] would fold the top
     2^60 values back onto [0, 2^60), giving P(v < 2^60) = 1/2 instead
     of the uniform 1/3. 20k draws pin the fraction well away from
     either wrong value. *)
  let rng = Rng.make 5 in
  let bound = 3 * (1 lsl 60) in
  let cut = 1 lsl 60 in
  let draws = 20_000 in
  let below = ref 0 in
  for _ = 1 to draws do
    if Rng.int rng bound < cut then incr below
  done;
  let frac = float_of_int !below /. float_of_int draws in
  Alcotest.(check bool)
    (Printf.sprintf "P(v < 2^60) = %.3f, expected 1/3" frac)
    true
    (frac > 0.30 && frac < 0.37)

let suite =
  [
    t "map: ordered results match jobs=1" `Quick map_matches_sequential;
    t "map: empty and singleton inputs" `Quick map_degenerate_sizes;
    t "map: earliest-index exception re-raised" `Quick map_raises_earliest_index;
    t "find_first: earliest index wins under contention" `Quick
      find_first_earliest_match;
    t "find_first: no match" `Quick find_first_no_match;
    t "find_first: match cancels a later exception" `Quick
      find_first_match_beats_later_exn;
    t "find_first: earlier exception re-raised" `Quick
      find_first_earlier_exn_wins;
    t "rng: int is deterministic and bounded" `Quick
      rng_int_deterministic_and_bounded;
    t "rng: rejection sampling is unbiased" `Quick rng_int_unbiased;
  ]
