(* The point-to-point buffer (BUFF of Appendix A), now parameterised by
   a channel-fault model. Each destination holds a binary min-heap of
   pending copies ordered by arrival key; with the [none] spec every
   copy's key is the link sequence number, so the heap degenerates to
   exactly the FIFO queue this module used to be. Fault draws come from
   a keyed stream that depends only on (seed, src, dst, link seq) —
   never on the receive schedule — so runs replay bit-identically. *)

type 'm cell = { key : int; tie : int; src : int; payload : 'm }

type 'm heap = { mutable cells : 'm cell array; mutable size : int }

let cell_lt a b = a.key < b.key || (a.key = b.key && a.tie < b.tie)

let heap_push h c =
  if h.size = Array.length h.cells then begin
    let cap = if h.size = 0 then 4 else 2 * h.size in
    let fresh = Array.make cap c in
    Array.blit h.cells 0 fresh 0 h.size;
    h.cells <- fresh
  end;
  h.cells.(h.size) <- c;
  h.size <- h.size + 1;
  let i = ref (h.size - 1) in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    cell_lt h.cells.(!i) h.cells.(parent)
  do
    let parent = (!i - 1) / 2 in
    let tmp = h.cells.(parent) in
    h.cells.(parent) <- h.cells.(!i);
    h.cells.(!i) <- tmp;
    i := parent
  done

let heap_pop h =
  if h.size = 0 then None
  else begin
    let top = h.cells.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.cells.(0) <- h.cells.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && cell_lt h.cells.(l) h.cells.(!smallest) then
          smallest := l;
        if r < h.size && cell_lt h.cells.(r) h.cells.(!smallest) then
          smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.cells.(!smallest) in
          h.cells.(!smallest) <- h.cells.(!i);
          h.cells.(!i) <- tmp;
          i := !smallest
        end
      done
    end;
    Some top
  end

type 'm t = {
  n : int;
  spec : Channel_fault.spec;
  seed : int;
  heaps : 'm heap array;
  link_seq : int array;  (* per-destination logical send counter *)
  tie : int array;  (* per-destination push counter (FIFO tiebreak) *)
  mutable sent : int;
  mutable stats : Channel_fault.stats;
}

(* Optionals before the labelled [~n] keep every existing
   [Net.create ~n] call site compiling unchanged; applying [~n] erases
   them, so warning 16 is noise here. *)
let[@warning "-16"] create ?(faults = Channel_fault.none) ?(seed = 1) ~n =
  {
    n;
    spec = faults;
    seed;
    heaps = Array.init n (fun _ -> { cells = [||]; size = 0 });
    link_seq = Array.make n 0;
    tie = Array.make n 0;
    sent = 0;
    stats = Channel_fault.stats_zero;
  }

let check t ~fn ~what pid =
  if pid < 0 || pid >= t.n then
    invalid_arg
      (Printf.sprintf "Net.%s: %s process %d outside universe 0..%d" fn what
         pid (t.n - 1))

let push t ~dst ~extra ~base ~src m =
  let c = { key = base + extra; tie = t.tie.(dst); src; payload = m } in
  t.tie.(dst) <- t.tie.(dst) + 1;
  heap_push t.heaps.(dst) c

let send t ~src ~dst m =
  check t ~fn:"send" ~what:"source" src;
  check t ~fn:"send" ~what:"destination" dst;
  t.sent <- t.sent + 1;
  let base = t.link_seq.(dst) in
  t.link_seq.(dst) <- base + 1;
  if Channel_fault.is_none t.spec then begin
    t.stats <-
      { t.stats with Channel_fault.sent = t.stats.Channel_fault.sent + 1 };
    push t ~dst ~extra:0 ~base ~src m
  end
  else begin
    let rng = Channel_fault.keyed ~seed:t.seed [ src; dst; base ] in
    let fate = Channel_fault.fate t.spec rng in
    t.stats <- Channel_fault.record t.stats fate;
    List.iter
      (fun extra -> push t ~dst ~extra ~base ~src m)
      fate.Channel_fault.arrivals
  end

let multicast t ~src dsts m = Pset.iter (fun q -> send t ~src ~dst:q m) dsts

let receive t p =
  check t ~fn:"receive" ~what:"receiving" p;
  match heap_pop t.heaps.(p) with
  | None -> None
  | Some c -> Some (c.src, c.payload)

let pending t p =
  check t ~fn:"pending" ~what:"queried" p;
  t.heaps.(p).size

let total_sent t = t.sent
let faults t = t.spec
let stats t = t.stats
