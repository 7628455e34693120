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

(* One rendered log, kept with the snapshot list it was rendered
   from. *)
type log_segment = {
  snap : (Algorithm1.datum * int * bool) list;
  text : string;
}

type segments = {
  events : Trace.event list;  (* the state's events, newest first *)
  logs : log_segment option array;  (* by [g * num_groups + h] *)
  listing : string;
  cons : int * string;  (* instances decided, rendered decisions *)
  orders : int list array;  (* delivery order per process, newest first *)
  procs : string array;  (* phases and delivery order per process *)
}

let none =
  {
    events = [];
    logs = [||];
    listing = "";
    cons = (-1, "");
    orders = [||];
    procs = [||];
  }

let segment f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

(* The events added since the state [prev] was rendered from, oldest
   first: [Some] when that state's event list is a tail of this one
   (it is then an ancestor, or shares one without a further event),
   [None] when the lineage is unknown and nothing but the logs can be
   reused. Every change to a phase, a delivery order, the lists or the
   consensus table emits an event, so the segments of processes no new
   event names, and the listing without a new [Invoke], are
   unchanged. *)
let events_since prev ~n st =
  if Array.length prev.procs <> n then None
  else Algorithm1.events_since st ~tail:prev.events

let render_log b key snap =
  let g, h = key in
  add_pair b "|L" g h;
  Buffer.add_char b ':';
  List.iter
    (fun (d, pos, locked) ->
      datum_tag b d;
      Buffer.add_char b '@';
      add_int b pos;
      Buffer.add_char b (if locked then '!' else '.');
      Buffer.add_char b ';')
    snap

let render_reusing prev ~time ~topo ~msgs st =
  let n = Topology.n topo and num_groups = Topology.num_groups topo in
  let events = Algorithm1.events_newest_first st in
  let fresh = events_since prev ~n st in
  let b = Buffer.create 512 in
  Buffer.add_char b 't';
  add_int b time;
  (* Shared logs: (datum, position, locked) in log order. [log_keys]
     returns normalised (g, h) pairs in a fixed order. A log's segment
     is reused while its snapshot is the physically equal list. *)
  let logs = Array.make (num_groups * num_groups) None in
  List.iter
    (fun ((g, h) as key) ->
      let i = (g * num_groups) + h in
      let snap = Algorithm1.log_snapshot st key in
      let seg =
        match if i < Array.length prev.logs then prev.logs.(i) else None with
        | Some seg when seg.snap == snap -> seg
        | _ -> { snap; text = segment (fun b -> render_log b key snap) }
      in
      logs.(i) <- Some seg;
      Buffer.add_string b seg.text)
    (Algorithm1.log_keys st);
  (* Prop. 1 shared per-group lists and the listed (= invoked) flags. *)
  let listing =
    match fresh with
    | Some evs
      when not (List.exists (function Trace.Invoke _ -> true | _ -> false) evs)
      ->
        prev.listing
    | _ ->
        segment (fun b ->
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
            done)
  in
  Buffer.add_string b listing;
  (* Consensus decisions, in the canonical (message, family-key) order.
     Decisions only grow, so an equal count means equal decisions. *)
  let instances = Algorithm1.consensus_instances st in
  let cons =
    if Option.is_some fresh && instances = fst prev.cons then prev.cons
    else
      ( instances,
        segment (fun b ->
            List.iter
              (fun ((m, fam), v) ->
                Buffer.add_string b "|C";
                add_int b m;
                Buffer.add_char b '.';
                add_ints b '.' fam;
                Buffer.add_char b '=';
                add_int b v)
              (Algorithm1.consensus_decisions st)) )
  in
  Buffer.add_string b (snd cons);
  (* Pending announcement visibility (only under an active fault spec,
     so fault-free fingerprints are byte-identical to the pre-fault
     ones): for every (process, message) still waiting on its copy,
     the remaining delay relative to [time] — or a lost marker. *)
  (if not (Channel_fault.is_none (Algorithm1.channel_faults st)) then
     for p = 0 to n - 1 do
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
  (* Per-process protocol phases and delivery orders. The orders grow
     by the new events' deliveries (all events when nothing is
     reused); a process no new event names keeps its segment. *)
  let orders, procs, added =
    match fresh with
    | Some evs -> (Array.copy prev.orders, Array.copy prev.procs, evs)
    | None -> (Array.make n [], Array.make n "", List.rev events)
  in
  let changed = Array.make n (Option.is_none fresh) in
  List.iter
    (function
      | Trace.Deliver { m; p; _ } ->
          orders.(p) <- m :: orders.(p);
          changed.(p) <- true
      | Trace.Phase_change { p; _ } -> changed.(p) <- true
      | Trace.Invoke _ | Trace.Send _ -> ())
    added;
  for p = 0 to n - 1 do
    if changed.(p) then
      procs.(p) <-
        segment (fun b ->
            Buffer.add_string b "|f";
            add_int b p;
            Buffer.add_char b ':';
            for m = 0 to msgs - 1 do
              add_int b (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
            done;
            Buffer.add_string b "|D";
            add_int b p;
            Buffer.add_char b ':';
            add_oldest_first b orders.(p));
    Buffer.add_string b procs.(p)
  done;
  (Buffer.contents b, { events; logs; listing; cons; orders; procs })

let render ~time ~topo ~msgs st = fst (render_reusing none ~time ~topo ~msgs st)

let of_state ~reuse ~time ~topo ~msgs st =
  let text, segments = render_reusing reuse ~time ~topo ~msgs st in
  (Digest.string text, segments)
