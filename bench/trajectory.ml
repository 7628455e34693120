(* The harness the five trajectory suites share.

   Each suite in bench/*_scaling.ml builds its cases and turns every
   measured case into one list of named fields. This module owns the
   rest: how a case is timed ([time]: one run, repeated until the quota
   is spent, reporting the median), how an entry is written (the
   amcast-bench-trajectory/v1 envelope that validate.exe checks, every
   string escaped, the machine's core count in the header) and how a
   case prints (one text line from the same fields). main.ml runs every
   suite through [run].

   Wall-clock by design: [time] is the suites' one clock (exec scope
   already waives the rule; the attribute documents the intent). *)
[@@@lint.allow "wall-clock"]

type value =
  | Int of int
  | Float of int * float  (** [Float (d, x)] prints [x] with [d] decimals *)
  | Bool of bool
  | Str of string

type field = string * value
type config = { quota_ms : int; jobs : int; smoke : bool }

type suite = {
  name : string;  (** writes BENCH_<name>.json, suite "<name>-scaling" *)
  header : config -> field list;  (** entry keys between label and cores *)
  cases : config -> field list list;  (** each case starts with its name *)
}

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

type 'a timed = {
  result : 'a;  (** the first run's *)
  runs : int;
  secs : float;  (** the median run's wall time *)
}

(* Run [f] once, then again until the runs add up to [quota_ms] (at
   most 10,000 runs). The median, unlike the mean, ignores a few slow
   runs inside the window; a slow phase of the whole host still moves
   it. The clock is monotonic with nanosecond resolution: a median
   does not average away the microsecond steps of [Unix.gettimeofday],
   which are a sixth of a 6 µs check. *)
let time ~quota_ms f =
  let once () =
    let t0 = Monotonic_clock.now () in
    let r = f () in
    (r, Int64.(to_float (sub (Monotonic_clock.now ()) t0)) /. 1e9)
  in
  let result, first = once () in
  let quota = float_of_int quota_ms /. 1000. in
  let rec more times total runs =
    if total >= quota || runs >= 10_000 then (times, runs)
    else
      let _, s = once () in
      more (s :: times) (total +. s) (runs + 1)
  in
  let times, runs = more [ first ] first 1 in
  { result; runs; secs = List.nth (List.sort Float.compare times) (runs / 2) }

let ns t = t.secs *. 1e9

(* [count] things per second of the median run. *)
let per_sec count t =
  if t.secs > 0. then float_of_int count /. t.secs else 0.

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let quote s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json = function
  | Int i -> string_of_int i
  | Float (d, x) -> Printf.sprintf "%.*f" d x
  | Bool b -> string_of_bool b
  | Str s -> quote s

(* One case as one object, wrapped at 78 columns like the committed
   entries. *)
let add_case b fields =
  let col = ref 5 in
  Buffer.add_string b "    {";
  List.iteri
    (fun i (k, v) ->
      let item = quote k ^ ": " ^ json v in
      if i > 0 then Buffer.add_char b ',';
      if i > 0 && !col + String.length item + 3 > 78 then begin
        Buffer.add_string b "\n     ";
        col := 5
      end;
      Buffer.add_char b ' ';
      Buffer.add_string b item;
      col := !col + String.length item + 2)
    fields;
  Buffer.add_string b " }"

(* A whole trajectory file holding one entry; appending the entry to a
   committed BENCH file keeps that file valid. *)
let entry_json s cfg ~label cases =
  let b = Buffer.create 4096 in
  Printf.bprintf b
    "{\n  \"schema\": \"amcast-bench-trajectory/v1\",\n  \"suite\": %s,\n\
    \  \"entries\": [ {\n"
    (quote (s.name ^ "-scaling"));
  List.iter
    (fun (k, v) -> Printf.bprintf b "    %s: %s,\n" (quote k) (json v))
    ((("label", Str label) :: s.header cfg)
    @ [ ("cores", Int (Domain.recommended_domain_count ())) ]);
  Buffer.add_string b "    \"cases\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then Buffer.add_string b ",\n";
      add_case b c)
    cases;
  Buffer.add_string b "\n    ]\n  } ]\n}\n";
  Buffer.contents b

let text = function Str s -> s | v -> json v

(* Run [s], print one line per case, and with [out_dir] write its
   entry to [out_dir]/BENCH_<name>.json. *)
let run cfg ~label ~out_dir s =
  let cases = s.cases cfg in
  Printf.printf "== %s-scaling ==\n" s.name;
  List.iter
    (fun c ->
      print_string " ";
      List.iter (fun (k, v) -> Printf.printf " %s=%s" k (text v)) c;
      print_newline ())
    cases;
  Option.iter
    (fun dir ->
      let path = Filename.concat dir ("BENCH_" ^ s.name ^ ".json") in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (entry_json s cfg ~label cases));
      Printf.printf "%s written (%d cases)\n" path (List.length cases))
    out_dir
