(* Smoke test of the benchmark:

     smoke_check.exe AMCAST_BENCH BENCHMARK.json

   runs every workload BENCHMARK.json names with --smoke, untraced and
   traced, and checks that each run succeeds, that its metric names
   and units are exactly the file's end_to_end (untraced) or per_layer
   (traced) list, and that the span file nests: every span lies inside
   its parent's interval, in the same run, and no self time is
   negative. Exits 1 on the first failed check. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("smoke: " ^ m); exit 1) fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let parse what s =
  try Json.parse s with Json.Parse_error e -> fail "%s: %s" what e

(* Runs the benchmark and returns its last stdout line. *)
let run bench args =
  let ic = Unix.open_process_args_in bench (Array.of_list (bench :: args)) in
  let lines = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match List.rev (String.split_on_char '\n' (String.trim lines)) with
      | last :: _ -> last
      | [] -> fail "%s printed nothing" (String.concat " " args))
  | _ -> fail "%s did not exit 0" (String.concat " " args)

let expected spec key =
  List.map
    (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
    (Json.to_list (Json.member key spec))

let check_result ~what ~expect line =
  let r = parse what line in
  let pairs = List.sort (fun (a, _) (b, _) -> String.compare a b) in
  let got =
    match r with
    | Json.Obj _ -> (
        match Json.member "metrics" r with
        | Json.Obj l -> List.map (fun (k, v) -> (k, Json.to_str (Json.member "unit" v))) l
        | _ -> fail "%s: no metrics object" what)
    | _ -> fail "%s: last line is not a JSON object" what
  in
  if
    not
      (List.equal
         (fun (a, u) (b, v) -> String.equal a b && String.equal u v)
         (pairs got) (pairs expect))
  then fail "%s: metric names or units differ from BENCHMARK.json" what;
  (match Json.member "correct" r with
  | Json.Bool true -> ()
  | _ -> fail "%s: not correct" what);
  if not (Float.equal (Json.to_num (Json.member "failed" r)) 0.) then fail "%s: failed runs" what;
  if not (Json.to_num (Json.member "attempted" r) >= 1.) then fail "%s: nothing attempted" what

(* Span times back in integer nanoseconds. *)
let ns v = Float.to_int (Float.round (Json.to_num v *. 1000.))

type event = { id : int; run : int; parent : int; span : Span.t }

let check_spans ~what path =
  let events = Json.to_list (Json.member "traceEvents" (parse what (read_file path))) in
  let events =
    List.filter_map
      (fun e ->
        if not (String.equal (Json.to_str (Json.member "ph" e)) "X") then None
        else
          let args = Json.member "args" e in
          let int k = Float.to_int (Json.to_num (Json.member k args)) in
          let start = ns (Json.member "ts" e) in
          let span =
            {
              Span.name = Json.to_str (Json.member "name" e);
              start;
              stop = start + ns (Json.member "dur" e);
              args =
                (match args with
                | Json.Obj l -> List.map (fun (k, v) -> (k, Float.to_int (Json.to_num v))) l
                | _ -> []);
              children = [];
            }
          in
          Some { id = int "id"; run = int "run"; parent = int "parent"; span })
      events
  in
  (match events with [] -> fail "%s: no spans" what | _ -> ());
  let by_id = Hashtbl.create 1024 and children = Hashtbl.create 1024 in
  List.iter (fun e -> Hashtbl.replace by_id e.id e) events;
  List.iter
    (fun e ->
      if e.parent >= 0 then begin
        match Hashtbl.find_opt by_id e.parent with
        | None -> fail "%s: span %d has no parent %d" what e.id e.parent
        | Some p ->
            if p.run <> e.run then fail "%s: span %d is in another run than its parent" what e.id;
            if e.span.start < p.span.start || e.span.stop > p.span.stop then
              fail "%s: span %d lies outside its parent %d" what e.id p.id;
            Hashtbl.replace children p.id
              (e.span :: Option.value (Hashtbl.find_opt children p.id) ~default:[])
      end)
    events;
  List.iter
    (fun e ->
      let kids = Option.value (Hashtbl.find_opt children e.id) ~default:[] in
      let self = Span.self { e.span with children = kids } in
      if self < 0 then fail "%s: span %d has negative self time %d ns" what e.id self)
    events

let () =
  match Sys.argv with
  | [| _; bench; spec_path |] ->
      let spec = parse spec_path (read_file spec_path) in
      let e2e = expected spec "end_to_end" and layers = expected spec "per_layer" in
      List.iter
        (fun w ->
          let name = Json.to_str (Json.member "name" w) in
          let args trace = [ "--workload"; name; "--seed"; "1"; "--seconds"; "0"; "--trace"; trace; "--smoke" ] in
          check_result ~what:(name ^ " untraced") ~expect:e2e (run bench (args "0"));
          let spans = "smoke-" ^ name ^ ".spans.json" in
          check_result ~what:(name ^ " traced") ~expect:layers
            (run bench (args "1" @ [ "--trace-out"; spans ]));
          check_spans ~what:spans spans)
        (Json.to_list (Json.member "workloads" spec))
  | _ -> fail "usage: smoke_check.exe AMCAST_BENCH BENCHMARK.json"
