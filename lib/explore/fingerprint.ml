type t = { h1 : int; h2 : int }

(* Each lane of a segment's hash is seeded differently and steps every
   int of the segment with its own odd multiplier; the key chains the
   segment hashes through [finalize], a bijective multiply-xorshift in
   the style of splitmix64's, so each lane behaves as an independent
   63-bit hash and the key depends on the order of the segments. *)
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

(* The two lanes of a segment being hashed. *)
type lanes = { mutable l1 : int; mutable l2 : int }

let add l w =
  l.l1 <- step mul1 l.l1 w;
  l.l2 <- step mul2 l.l2 w

(* A list: its length, then its elements in order. *)
let add_list l xs =
  add l (List.length xs);
  List.iter (add l) xs

(* The hash of a segment: its kind, then the ints [fill] adds. Each
   kind lays its ints out so that they can be read back: every list
   after its length, every datum's constructor before its fields. *)
let k_log = 0
let k_lists = 1
let k_cons = 2
let k_vis = 3
let k_proc = 4

let segment kind fill =
  let l = { l1 = seed1; l2 = seed2 } in
  add l kind;
  fill l;
  { h1 = finalize l.l1; h2 = finalize l.l2 }

(* A log: its pair, its length, then each entry's datum (constructor,
   fields), position and lock. *)
let hash_log (g, h) snap =
  segment k_log (fun l ->
      add l g;
      add l h;
      add l (List.length snap);
      List.iter
        (fun (d, pos, locked) ->
          (match d with
          | Algorithm1.Msg m ->
              add l 0;
              add l m
          | Algorithm1.Pend (m, h', i) ->
              add l 1;
              add l m;
              add l h';
              add l i
          | Algorithm1.Stab (m, h') ->
              add l 2;
              add l m;
              add l h');
          add l pos;
          add l (Bool.to_int locked))
        snap)

(* One hashed log, kept with the snapshot list it was hashed from. *)
type log_segment = { snap : (Algorithm1.datum * int * bool) list; hash : t }

type segments = {
  events : Trace.event list;  (* the state's events, newest first *)
  logs : log_segment option array;  (* by [g * num_groups + h] *)
  lists : t;
  cons : int * t option;  (* instances decided, their decisions' hash *)
  orders : int list array;  (* delivery order per process, newest first *)
  procs : t array;  (* phases and delivery order per process *)
}

let none =
  {
    events = [];
    logs = [||];
    lists = { h1 = 0; h2 = 0 };
    cons = (-1, None);
    orders = [||];
    procs = [||];
  }

(* The events added since the state [prev] was hashed from, oldest
   first: [Some] when that state's event list is a tail of this one
   (it is then an ancestor, or shares one without a further event),
   [None] when the lineage is unknown and nothing but the logs can be
   reused. Every change to a phase, a delivery order, the lists or the
   consensus table emits an event, so the segments of processes no new
   event names, and the lists without a new [Invoke], are
   unchanged. *)
let events_since prev ~n st =
  if Array.length prev.procs <> n then None
  else Algorithm1.events_since st ~tail:prev.events

(* The state's segments, reusing those of [prev] that are unchanged,
   and its key: the time, then every segment's hash in a fixed order
   (the logs by (g, h), the lists, the consensus decisions, the
   visibility part, which depends on the time and is hashed every
   time, then the processes by id), each added to the running lane and
   finalized. A part with nothing in it (no decision, no copy still
   waiting) is [None] and adds nothing. *)
let of_state ~reuse:prev ~time ~topo ~msgs st =
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
          | _ -> { snap; hash = hash_log key snap }))
    (Algorithm1.log_keys st);
  (* Prop. 1 shared per-group lists. *)
  let lists =
    match fresh with
    | Some evs
      when not (List.exists (function Trace.Invoke _ -> true | _ -> false) evs)
      ->
        prev.lists
    | _ ->
        segment k_lists (fun l ->
            add l num_groups;
            for g = 0 to num_groups - 1 do
              add_list l (Algorithm1.list_snapshot st g)
            done)
  in
  (* Consensus decisions, in the canonical (message, family-key) order.
     Decisions only grow, so an equal count means equal decisions. *)
  let instances = Algorithm1.consensus_instances st in
  let cons =
    if Option.is_some fresh && instances = fst prev.cons then prev.cons
    else
      match Algorithm1.consensus_decisions st with
      | [] -> (instances, None)
      | ds ->
          ( instances,
            Some
              (segment k_cons (fun l ->
                   add l (List.length ds);
                   List.iter
                     (fun ((m, fam), v) ->
                       add l m;
                       add_list l fam;
                       add l v)
                     ds)) )
  in
  (* Pending announcement visibility (only under an active fault spec):
     for every (process, message) still waiting on its copy, the
     remaining delay relative to [time], or lost. *)
  let vis =
    if Channel_fault.is_none (Algorithm1.channel_faults st) then None
    else
      let waiting = ref [] in
      for p = n - 1 downto 0 do
        for m = msgs - 1 downto 0 do
          match Algorithm1.visibility st ~pid:p ~m ~time with
          | `Visible -> ()
          | (`Pending _ | `Lost) as v -> waiting := (p, m, v) :: !waiting
        done
      done;
      match !waiting with
      | [] -> None
      | w ->
          Some
            (segment k_vis (fun l ->
                 add l (List.length w);
                 List.iter
                   (fun (p, m, v) ->
                     add l p;
                     add l m;
                     match v with
                     | `Pending d ->
                         add l 0;
                         add l d
                     | `Lost -> add l 1)
                   w))
  in
  (* Per-process protocol phases and delivery orders. The orders grow
     by the new events' deliveries (all events when nothing is
     reused); a process no new event names keeps its segment. *)
  let orders, procs, added =
    match fresh with
    | Some evs -> (Array.copy prev.orders, Array.copy prev.procs, evs)
    | None -> (Array.make n [], Array.make n none.lists, List.rev events)
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
        segment k_proc (fun l ->
            add l msgs;
            for m = 0 to msgs - 1 do
              add l (Trace.phase_rank (Algorithm1.phase st ~pid:p ~m))
            done;
            add_list l orders.(p))
  done;
  let h1 = ref (finalize (seed1 + time))
  and h2 = ref (finalize (seed2 + time)) in
  let chain s =
    h1 := finalize (!h1 + s.h1);
    h2 := finalize (!h2 + s.h2)
  in
  Array.iter (Option.iter (fun l -> chain l.hash)) logs;
  chain lists;
  Option.iter chain (snd cons);
  Option.iter chain vis;
  Array.iter chain procs;
  ({ h1 = !h1; h2 = !h2 }, { events; logs; lists; cons; orders; procs })
