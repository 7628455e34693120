(* Spans recorded by the benchmark around its calls into each layer.

   A span is an immutable tree node whose children finished before it,
   one after another: the benchmark runs on one domain. Calls made
   thousands of times per run (step, enabled, snapshots) are not spans:
   they are folded into their parent's [args] as a count plus a total
   in nanoseconds. *)

type t = {
  name : string;
  start : int;  (** monotonic clock, ns *)
  stop : int;
  args : (string * int) list;
  children : t list;
}

let now () = Int64.to_int (Monotonic_clock.now ())
let dur s = s.stop - s.start

let make ?(args = []) ?(children = []) name ~start ~stop =
  { name; start; stop; args; children }

let timed name f =
  let start = now () in
  let v = f () in
  let stop = now () in
  (v, make name ~start ~stop)

let arg s key = Option.value (List.assoc_opt key s.args) ~default:0

let rec fold f acc s = List.fold_left (fold f) (f acc s) s.children

let fold_named name f acc roots =
  List.fold_left
    (fold (fun acc s -> if String.equal s.name name then f acc s else acc))
    acc roots

let total name roots = fold_named name (fun acc s -> acc + dur s) 0 roots
let total_arg name key roots = fold_named name (fun acc s -> acc + arg s key) 0 roots
let count name roots = fold_named name (fun acc _ -> acc + 1) 0 roots

(* Time folded into [args] as "<call>_ns" totals. *)
let folded_ns s =
  List.fold_left
    (fun acc (k, v) ->
      if String.ends_with ~suffix:"_ns" k then acc + v else acc)
    0 s.args

(* Self time: duration minus its children's, which never overlap, and
   the time folded into its args. *)
let self s = List.fold_left (fun acc c -> acc - dur c) (dur s - folded_ns s) s.children

(* Chrome trace-event JSON ("X" complete events). Spans get ids in
   pre-order; [args.run] is the run the span belongs to and
   [args.parent] its parent's id (-1 for the run span itself). [tid]
   is 0, the one domain. Timestamps are microseconds since [origin]. *)
let write_chrome oc ~origin ~pid ~process_name ~other runs =
  let us ns = Json.Num (float_of_int (ns - origin) /. 1000.) in
  let first = ref true in
  let emit v =
    if not !first then output_string oc ",\n";
    first := false;
    output_string oc (Json.to_string v)
  in
  output_string oc "{\"traceEvents\": [\n";
  emit
    (Json.Obj
       [
         ("name", Json.Str "process_name");
         ("ph", Json.Str "M");
         ("pid", Json.Num (float_of_int pid));
         ("args", Json.Obj [ ("name", Json.Str process_name) ]);
       ]);
  let next_id = ref 0 in
  List.iter
    (fun (run, root) ->
      let rec go parent s =
        let id = !next_id in
        incr next_id;
        emit
          (Json.Obj
             [
               ("name", Json.Str s.name);
               ("ph", Json.Str "X");
               ("ts", us s.start);
               ("dur", Json.Num (float_of_int (dur s) /. 1000.));
               ("pid", Json.Num (float_of_int pid));
               ("tid", Json.Num 0.);
               ( "args",
                 Json.Obj
                   ([
                      ("run", Json.Num (float_of_int run));
                      ("id", Json.Num (float_of_int id));
                      ("parent", Json.Num (float_of_int parent));
                    ]
                   @ List.map
                       (fun (k, v) -> (k, Json.Num (float_of_int v)))
                       s.args) );
             ]);
        List.iter (go id) s.children
      in
      go (-1) root)
    runs;
  output_string oc "\n],\n\"displayTimeUnit\": \"ns\",\n\"otherData\": ";
  output_string oc (Json.to_string other);
  output_string oc "}\n"
