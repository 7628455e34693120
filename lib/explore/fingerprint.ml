type t = { h1 : int; h2 : int }

(* Each lane of a text's hash is seeded differently and steps every
   8-byte word with its own odd multiplier; the key chains the segment
   hashes through [finalize], a bijective multiply-xorshift in the
   style of splitmix64's, so each lane behaves as an independent 63-bit
   hash and the key depends on the order of the segments. *)
let seed1 = 0x16A09E667F3BCC90
let seed2 = 0x1BB67AE8584CAA73
let mul1 = 0x2545F4914F6CDD1D
let mul2 = 0x1C69B3F74AC4AE35

let finalize z =
  let z = (z lxor (z lsr 31)) * 0x3F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  z lxor (z lsr 31)

let step mul h w =
  let h = (h lxor w) * mul in
  h lxor (h lsr 29)

(* Both lanes in one pass over the text's little-endian 8-byte words,
   then its last partial word. The text is ASCII, so the top bit that
   [Int64.to_int] drops is always 0. *)
let hash_text s =
  let len = String.length s in
  let words = len land lnot 7 in
  let h1 = ref (seed1 lxor len) and h2 = ref (seed2 lxor len) in
  let i = ref 0 in
  while !i < words do
    let w = Int64.to_int (String.get_int64_le s !i) in
    h1 := step mul1 !h1 w;
    h2 := step mul2 !h2 w;
    i := !i + 8
  done;
  if words < len then begin
    let w = ref 0 in
    for j = len - 1 downto words do
      w := (!w lsl 8) lor Char.code s.[j]
    done;
    h1 := step mul1 !h1 !w;
    h2 := step mul2 !h2 !w
  end;
  { h1 = finalize !h1; h2 = finalize !h2 }

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

(* A rendered segment: its text and the text's hash, computed once
   when the segment is rendered and reused with it. *)
type seg = { text : string; hash : t }

let seg_of render =
  let b = Buffer.create 64 in
  render b;
  let text = Buffer.contents b in
  { text; hash = hash_text text }

let empty = { text = ""; hash = hash_text "" }

(* One rendered log, kept with the snapshot list it was rendered
   from. *)
type log_segment = { snap : (Algorithm1.datum * int * bool) list; seg : seg }

type segments = {
  events : Trace.event list;  (* the state's events, newest first *)
  logs : log_segment option array;  (* by [g * num_groups + h] *)
  listing : seg;
  cons : int * seg;  (* instances decided, rendered decisions *)
  orders : int list array;  (* delivery order per process, newest first *)
  procs : seg array;  (* phases and delivery order per process *)
}

let none =
  {
    events = [];
    logs = [||];
    listing = empty;
    cons = (-1, empty);
    orders = [||];
    procs = [||];
  }

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

(* The one producer of a state's segments, reusing those of [prev]
   that are unchanged, and the visibility part, which depends on the
   time and is rendered every time. *)
let make prev ~time ~topo ~msgs st =
  let n = Topology.n topo and num_groups = Topology.num_groups topo in
  let events = Algorithm1.events_newest_first st in
  let fresh = events_since prev ~n st in
  (* Shared logs: (datum, position, locked) in log order. [log_keys]
     returns normalised (g, h) pairs. A log's segment is reused while
     its snapshot is the physically equal list. *)
  let logs = Array.make (num_groups * num_groups) None in
  List.iter
    (fun ((g, h) as key) ->
      let i = (g * num_groups) + h in
      let snap = Algorithm1.log_snapshot st key in
      logs.(i) <-
        Some
          (match if i < Array.length prev.logs then prev.logs.(i) else None with
          | Some l when l.snap == snap -> l
          | _ -> { snap; seg = seg_of (fun b -> render_log b key snap) }))
    (Algorithm1.log_keys st);
  (* Prop. 1 shared per-group lists and the listed (= invoked) flags. *)
  let listing =
    match fresh with
    | Some evs
      when not (List.exists (function Trace.Invoke _ -> true | _ -> false) evs)
      ->
        prev.listing
    | _ ->
        seg_of (fun b ->
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
  (* Consensus decisions, in the canonical (message, family-key) order.
     Decisions only grow, so an equal count means equal decisions. *)
  let instances = Algorithm1.consensus_instances st in
  let cons =
    if Option.is_some fresh && instances = fst prev.cons then prev.cons
    else
      ( instances,
        seg_of (fun b ->
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
  (* Pending announcement visibility (only under an active fault spec,
     so fault-free renderings are byte-identical to the pre-fault
     ones): for every (process, message) still waiting on its copy,
     the remaining delay relative to [time] — or a lost marker. *)
  let vis =
    if Channel_fault.is_none (Algorithm1.channel_faults st) then empty
    else
      seg_of (fun b ->
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
          done)
  in
  (* Per-process protocol phases and delivery orders. The orders grow
     by the new events' deliveries (all events when nothing is
     reused); a process no new event names keeps its segment. *)
  let orders, procs, added =
    match fresh with
    | Some evs -> (Array.copy prev.orders, Array.copy prev.procs, evs)
    | None -> (Array.make n [], Array.make n empty, List.rev events)
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
        seg_of (fun b ->
            Buffer.add_string b "|f";
            add_int b p;
            Buffer.add_char b ':';
            for m = 0 to msgs - 1 do
              add_int b (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
            done;
            Buffer.add_string b "|D";
            add_int b p;
            Buffer.add_char b ':';
            add_oldest_first b orders.(p))
  done;
  ({ events; logs; listing; cons; orders; procs }, vis)

(* [f] on every segment, in the fixed order the rendering concatenates
   them: the logs by (g, h), the lists, the consensus decisions, the
   visibility part, then the processes by id. *)
let iter_segments f segs vis =
  Array.iter (function Some l -> f l.seg | None -> ()) segs.logs;
  f segs.listing;
  f (snd segs.cons);
  f vis;
  Array.iter f segs.procs

let render_reusing prev ~time ~topo ~msgs st =
  let segs, vis = make prev ~time ~topo ~msgs st in
  let b = Buffer.create 512 in
  Buffer.add_char b 't';
  add_int b time;
  iter_segments (fun s -> Buffer.add_string b s.text) segs vis;
  (Buffer.contents b, segs)

let render ~time ~topo ~msgs st = fst (render_reusing none ~time ~topo ~msgs st)

(* The time, then every non-empty segment's hash in order, each
   added to the running lane and finalized. An empty segment adds
   nothing to the text and nothing to the key, so the key is a function
   of the text alone. *)
let of_state ~reuse ~time ~topo ~msgs st =
  let segs, vis = make reuse ~time ~topo ~msgs st in
  let h1 = ref (finalize (seed1 + time))
  and h2 = ref (finalize (seed2 + time)) in
  iter_segments
    (fun s ->
      if String.length s.text > 0 then begin
        h1 := finalize (!h1 + s.hash.h1);
        h2 := finalize (!h2 + s.hash.h2)
      end)
    segs vis;
  ({ h1 = !h1; h2 = !h2 }, segs)
