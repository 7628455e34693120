type t = string

let compare = String.compare
let equal = String.equal

let to_hex (d : t) = Digest.to_hex d

(* The decimal digits of [n <= 0], most significant first. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

(* [n] as [%d] prints it, straight into the buffer. Digits come from
   the non-positive side, so [min_int] needs no special case. *)
let add_int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

let add_ints b sep = function
  | [] -> ()
  | n :: ns ->
      add_int b n;
      List.iter
        (fun n ->
          Buffer.add_char b sep;
          add_int b n)
        ns

(* A newest-first list, written oldest first and comma-separated. *)
let rec add_oldest_first b = function
  | [] -> ()
  | [ m ] -> add_int b m
  | m :: older ->
      add_oldest_first b older;
      Buffer.add_char b ',';
      add_int b m

(* [tag], then [x.y]. *)
let add_pair b tag x y =
  Buffer.add_string b tag;
  add_int b x;
  Buffer.add_char b '.';
  add_int b y

let datum_tag b d =
  match d with
  | Algorithm1.Msg m ->
      Buffer.add_char b 'm';
      add_int b m
  | Algorithm1.Pend (m, h, i) ->
      add_pair b "p" m h;
      Buffer.add_char b '.';
      add_int b i
  | Algorithm1.Stab (m, h) -> add_pair b "s" m h

let render ~time ~topo ~msgs st =
  let b = Buffer.create 512 in
  Buffer.add_char b 't';
  add_int b time;
  (* Shared logs: (datum, position, locked) in log order. [log_keys]
     returns normalised (g, h) pairs in a fixed order. *)
  List.iter
    (fun ((g, h) as key) ->
      add_pair b "|L" g h;
      Buffer.add_char b ':';
      List.iter
        (fun (d, pos, locked) ->
          datum_tag b d;
          Buffer.add_char b '@';
          add_int b pos;
          Buffer.add_char b (if locked then '!' else '.');
          Buffer.add_char b ';')
        (Algorithm1.log_snapshot st key))
    (Algorithm1.log_keys st);
  (* Prop. 1 shared per-group lists and the listed (= invoked) flags. *)
  List.iter
    (fun g ->
      Buffer.add_string b "|S";
      add_int b g;
      Buffer.add_char b ':';
      add_ints b ',' (Algorithm1.list_snapshot st g))
    (Topology.gids topo);
  for m = 0 to msgs - 1 do
    Buffer.add_string b "|i";
    add_int b m;
    Buffer.add_char b (if Algorithm1.listed st ~m then 'y' else 'n')
  done;
  (* Consensus decisions, in the canonical (message, family-key) order. *)
  List.iter
    (fun ((m, fam), v) ->
      Buffer.add_string b "|C";
      add_int b m;
      Buffer.add_char b '.';
      add_ints b '.' fam;
      Buffer.add_char b '=';
      add_int b v)
    (Algorithm1.consensus_decisions st);
  (* Pending announcement visibility (only under an active fault spec,
     so fault-free fingerprints are byte-identical to the pre-fault
     ones): for every (process, message) still waiting on its copy,
     the remaining delay relative to [time] — or a lost marker. *)
  (if not (Channel_fault.is_none (Algorithm1.channel_faults st)) then
     for p = 0 to Topology.n topo - 1 do
       for m = 0 to msgs - 1 do
         match Algorithm1.visibility st ~pid:p ~m ~time with
         | `Visible -> ()
         | `Pending d ->
             add_pair b "|v" p m;
             Buffer.add_char b '+';
             add_int b d
         | `Lost ->
             add_pair b "|v" p m;
             Buffer.add_string b " x"
       done
     done);
  (* Per-process protocol phases and delivery orders, the latter from
     one walk over the events (no trace index). *)
  let tr = Algorithm1.trace st in
  let orders = Array.make tr.Trace.n [] in
  List.iter
    (function
      | Trace.Deliver { m; p; _ } -> orders.(p) <- m :: orders.(p)
      | Trace.Invoke _ | Trace.Send _ | Trace.Phase_change _ -> ())
    tr.Trace.events;
  for p = 0 to tr.Trace.n - 1 do
    Buffer.add_string b "|f";
    add_int b p;
    Buffer.add_char b ':';
    for m = 0 to msgs - 1 do
      add_int b (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
    done;
    Buffer.add_string b "|D";
    add_int b p;
    Buffer.add_char b ':';
    add_oldest_first b orders.(p)
  done;
  Buffer.contents b

let of_state ~time ~topo ~msgs st : t =
  Digest.string (render ~time ~topo ~msgs st)
