type variant = Vanilla | Strict | Pairwise

type datum =
  | Msg of int
  | Pend of int * Topology.gid * int
  | Stab of int * Topology.gid

let pp_datum fmt = function
  | Msg m -> Format.fprintf fmt "m%d" m
  | Pend (m, h, i) -> Format.fprintf fmt "(m%d,g%d,%d)" m h i
  | Stab (m, h) -> Format.fprintf fmt "(m%d,g%d)" m h

(* The a-priori total order over log entries (the paper's arbitrary
   but fixed tie-break). Constructor rank then lexicographic fields —
   the same order Stdlib.compare used to give, spelled out so it can
   never silently depend on the runtime representation. *)
let compare_datum a b =
  match (a, b) with
  | Msg m, Msg m' -> Int.compare m m'
  | Pend (m, h, i), Pend (m', h', i') ->
      let c = Int.compare m m' in
      if c <> 0 then c
      else
        let c = Int.compare h h' in
        if c <> 0 then c else Int.compare i i'
  | Stab (m, h), Stab (m', h') ->
      let c = Int.compare m m' in
      if c <> 0 then c else Int.compare h h'
  | a, b ->
      let rank = function Msg _ -> 0 | Pend _ -> 1 | Stab _ -> 2 in
      Int.compare (rank a) (rank b)

type t = {
  topo : Topology.t;
  mu : Mu.t;
  variant : variant;
  msgs : Amsg.t array;
  req_at : int array;
  ng : int;  (* the number of groups, the row length of [pair] *)
  (* LOG_{g∩h} at [pair st g h] of the normalised pair (g <= h; (g, g)
     is LOG_g); [None] until first touched. A flat array because the
     lookup sits in every guard of the stepper's hot path and [copy]
     copies it in one call. [owned.(pair st g h)]: this state alone
     holds the log, so a write may go to it in place. *)
  logs : datum Log.t option array;
  owned : bool array;
  (* The shared lists L_g of the Prop. 1 reduction (append order,
     newest first). *)
  lists : int list array;
  (* Incremental view of m's Pend tuples in LOG_g — the groups covered
     and the highest recorded position. Tuples are only ever written by
     [try_pending], which keeps this cache exact, so the commit guard
     is O(|γ|) membership tests instead of a full LOG_g scan. *)
  pend_hs : Topology.gid list array;
  pend_k : int array;
  mutable cons : (int * Topology.gid list, int) Consensus_table.t;
  mutable cons_owned : bool;
  phase : Trace.phase array; (* phase.(p * k + m) *)
  (* H(p, g) of line 20, cached: h_key.(p) maps g to the family key. *)
  h_key : (Topology.gid * Topology.gid list) list array;
  (* [stages.(stage_count * p + s)]: the messages at stage [s] of p (see
     [s_unlisted] .. [s_stable]), ascending. Each stage is the first
     conjunct of one cascade level of [step]: a level walks only the
     messages that pass it, and its action tests only the conjuncts
     after it. A message moves only where the stepper writes the state
     the stage stands for ([try_list], [try_send], [set_phase]); it is
     in no stage of p once delivered there, nor while unlisted at a
     member other than its source. *)
  stages : int list array;
  groups_of : Topology.gid list array;
  (* Channel faults (lib/net's Channel_fault) applied to the one piece
     of genuine inter-process communication the Prop. 1 reduction has:
     the multicast announcement published through L_g. [visible_at.(q).(m)]
     is the tick at which q's copy of the announcement arrives — drawn
     once, at listing time, from a stream keyed by (fault_seed, m, q),
     so it is a pure function of the scenario and independent of the
     schedule. [max_int] marks a copy lost for good (never under
     stubborn). [vis_horizon] is the largest finite arrival tick, the
     engine's [live_until] bound. Empty without faults. *)
  faults : Channel_fault.spec;
  fault_seed : int;
  visible_at : int array; (* visible_at.(p * k + m) *)
  mutable vis_horizon : int;
  mutable links : Channel_fault.stats;
  mutable events : Trace.event list; (* newest first *)
  mutable seq : int;
  (* Commit rounds — the consensus invocations a networked backend
     would make, one per proposal. *)
  mutable rounds : int;
  (* Membership cache for the hottest [Log.mem] probe — a datum key
     hashes a variant tuple, so the Hashtbl probe costs more than the
     guard around it. [stab_done.(pair st m h)]: Stab (m, h) is in
     LOG_g (written only by [try_stabilize]), one row of [num_groups]
     flags per message. Appends are irrevocable, so the cache is
     exact. *)
  stab_done : bool array;
}

(* The stages of a message at a process, in the order they are passed;
   each names the cascade level of [step] that reads it. *)
let s_unlisted = 0 (* p is m's source, m not yet in L_g: multicast *)
let s_listed = 1 (* in L_g, not yet in LOG_g: A.multicast, line 7 *)
let s_sent = 2 (* in LOG_g, Start at p: pending, lines 8–15 *)
let s_pending = 3 (* Pending at p: commit, lines 16–24 *)
let s_commit = 4 (* Commit at p: stabilize and stable, lines 25–33 *)
let s_stable = 5 (* Stable at p: deliver, lines 34–37 *)
let stage_count = 6

(* [phase] and [visible_at] cell of (p, m). *)
let cell st p m = (p * Array.length st.msgs) + m

(* Row [i], column [h] of a table with one column per group: the [logs]
   and [owned] cell of (i, h) = (g, h), the [stab_done] cell of
   (i, h) = (m, h). *)
let pair st i h = (i * st.ng) + h

let rec insert m = function
  | m' :: rest when m' < m -> m' :: insert m rest
  | l -> m :: l

let rec remove m = function
  | [] -> []
  | m' :: rest -> if m' = m then rest else m' :: remove m rest

let enter st p m s =
  let i = (stage_count * p) + s in
  st.stages.(i) <- insert m st.stages.(i)

let leave st p m s =
  let i = (stage_count * p) + s in
  st.stages.(i) <- remove m st.stages.(i)

let log st g h =
  let i = if g <= h then pair st g h else pair st h g in
  match st.logs.(i) with
  | Some l -> l
  | None ->
      let l = Log.create ~compare:compare_datum in
      st.logs.(i) <- Some l;
      st.owned.(i) <- true;
      l

(* Copy-on-write ([copy]): before a write to LOG_{g∩h}, a state that
   shares the log takes its own clone — unless [noop] says the write
   would change nothing, so a log stays shared for as long as neither
   side really writes it. *)
let own st g h ~noop d =
  let i = if g <= h then pair st g h else pair st h g in
  if not st.owned.(i) then begin
    let l = log st g h in
    if not (noop l d) then begin
      st.logs.(i) <- Some (Log.copy l);
      st.owned.(i) <- true
    end
  end

let append st g h d =
  own st g h ~noop:Log.mem d;
  Log.append (log st g h) d

let bump_and_lock st g h d k =
  own st g h ~noop:Log.locked d;
  Log.bump_and_lock (log st g h) d k

(* The consensus table under the same rule: a proposal to a decided
   instance writes nothing. *)
let propose st key v =
  if (not st.cons_owned) && Option.is_none (Consensus_table.decided st.cons key)
  then begin
    st.cons <- Consensus_table.copy st.cons;
    st.cons_owned <- true
  end;
  Consensus_table.propose st.cons key v

let create ?(variant = Vanilla) ?(faults = Channel_fault.none) ?(fault_seed = 1)
    ~topo ~mu ~workload () =
  let reqs = Array.of_list workload in
  let k = Array.length reqs in
  Array.iteri
    (fun i { Workload.msg; _ } ->
      if msg.Amsg.id <> i then
        invalid_arg "Algorithm1.create: message ids must be 0 .. K-1")
    reqs;
  let n = Topology.n topo and ng = Topology.num_groups topo in
  let msgs = Array.map (fun r -> r.Workload.msg) reqs in
  let families = mu.Mu.families in
  let h_key =
    Array.init n (fun p ->
        List.map
          (fun g ->
            let key =
              match variant with
              | Pairwise -> []
              | Vanilla | Strict -> Topology.h_set topo families p g
            in
            (g, key))
          (Topology.groups_of topo p))
  in
  (* Every message starts unlisted at its source (a source outside the
     destination group never lists it). *)
  let stages = Array.make (stage_count * n) [] in
  for m = k - 1 downto 0 do
    let { Amsg.src; dst; _ } = msgs.(m) in
    if Pset.mem src (Topology.group topo dst) then
      stages.(stage_count * src) <- m :: stages.(stage_count * src)
  done;
  {
    topo;
    mu;
    variant;
    msgs;
    req_at = Array.map (fun r -> r.Workload.at) reqs;
    ng;
    logs = Array.make (ng * ng) None;
    owned = Array.make (ng * ng) false;
    lists = Array.make ng [];
    pend_hs = Array.make k [];
    pend_k = Array.make k 0;
    cons = Consensus_table.create ();
    cons_owned = true;
    phase = Array.make (n * k) Trace.Start;
    h_key;
    stages;
    groups_of = Array.init n (Topology.groups_of topo);
    faults;
    fault_seed;
    visible_at =
      (if Channel_fault.is_none faults then [||] else Array.make (n * k) 0);
    vis_horizon = 0;
    links = Channel_fault.stats_zero;
    events = [];
    seq = 0;
    rounds = 0;
    stab_done = Array.make (k * ng) false;
  }

(* The shared objects are copied on write: the copy holds the same
   logs and consensus table, neither side owns them any more, and the
   first write on either side clones the object it writes ([own],
   [propose]). Reads stay on the shared object, whose read caches fill
   idempotently. Every other mutable field gets its own storage; the
   immutable data ([topo], [mu], [msgs], [h_key], [groups_of],
   [faults], the event list, the lists in [lists] and [stages]) is
   shared. Every mutable table is one flat array, so the copy is one
   [Array.copy] per table; a log first touched in the copy stays absent
   from the original. *)
let copy st =
  Array.fill st.owned 0 (Array.length st.owned) false;
  st.cons_owned <- false;
  {
    st with
    req_at = Array.copy st.req_at;
    logs = Array.copy st.logs;
    owned = Array.copy st.owned;
    lists = Array.copy st.lists;
    pend_hs = Array.copy st.pend_hs;
    pend_k = Array.copy st.pend_k;
    cons_owned = false;
    phase = Array.copy st.phase;
    stages = Array.copy st.stages;
    visible_at = Array.copy st.visible_at;
    stab_done = Array.copy st.stab_done;
  }

let emit st ev =
  st.events <- ev st.seq :: st.events;
  st.seq <- st.seq + 1

(* A phase advances m one stage at p ([s_sent] is Start); delivery
   takes it out of p's stages. *)
let set_phase st p m ph time =
  st.phase.(cell st p m) <- ph;
  let s = s_sent + Trace.phase_rank ph in
  leave st p m (s - 1);
  if s < stage_count then enter st p m s;
  match ph with
  | Trace.Delivered -> emit st (fun seq -> Trace.Deliver { m; p; time; seq })
  | ph -> emit st (fun seq -> Trace.Phase_change { m; p; phase = ph; time; seq })

(* Whether every Msg entry strictly before [m] in the (g, h) log has
   rank at least [r] at [p]. One walk of the predecessors,
   short-circuiting at an entry below [r]. Every caller has [Msg m] in
   the log — pending walks the stage of messages in LOG_g, and
   stabilize and deliver follow p's own pending, which appended m to
   each of p's pair logs — and [Log.forall_before] raises
   [Invalid_argument] if one ever has not. *)
let prefix_at_rank st p g h m r =
  let phase = st.phase and row = cell st p 0 in
  Log.forall_before (log st g h) (Msg m) (function
    | Msg m' -> Trace.phase_rank phase.(row + m') >= r
    | _ -> true)

(* γ(g) as seen at (p, t), per variant. *)
let gamma_groups st p t g =
  match st.variant with
  | Pairwise -> []
  | Vanilla | Strict -> st.mu.Mu.gamma_groups p t g

(* ------------------------------------------------------------------ *)
(* Actions. Each returns true iff it executed.                         *)
(* ------------------------------------------------------------------ *)

(* Fault injection: the fate of each member's copy of the multicast
   announcement, drawn at listing time from a keyed stream. In the
   shared-memory reduction the announcement is the only genuine
   inter-process communication about m (the objects are quorum-
   emulated), so per-(q, m) arrival times model link faults faithfully.
   Only the earliest surviving copy matters for visibility — a
   duplicate re-announces something idempotent — but every wire copy is
   counted in [links]. *)
let draw_visibility st p t m =
  if not (Channel_fault.is_none st.faults) then
    Pset.iter
      (fun q ->
        if q = p then st.visible_at.(cell st q m) <- t
        else begin
          let rng = Channel_fault.keyed ~seed:st.fault_seed [ m; q ] in
          let fate = Channel_fault.fate st.faults rng in
          st.links <- Channel_fault.record st.links fate;
          let v =
            match fate.Channel_fault.arrivals with
            | [] -> max_int
            | d :: ds -> t + List.fold_left min d ds
          in
          st.visible_at.(cell st q m) <- v;
          if v < max_int && v > st.vis_horizon then st.vis_horizon <- v
        end)
      (Topology.group st.topo st.msgs.(m).Amsg.dst)

(* p's offset into [visible_at], or -1 without faults, where every
   announcement arrives at once. *)
let arrival_row st p = if Channel_fault.is_none st.faults then -1 else cell st p 0

(* Whether the announcement of listed m has reached p at t, given p's
   [arrival_row]: for ever from the drawn arrival tick on. *)
let arrived st row t m = row < 0 || t >= st.visible_at.(row + m)

(* multicast(m), lines 5–7, sequenced through L_g (Prop. 1): the source
   first publishes m in the shared list. Stage [s_unlisted]: p is m's
   source and m is not in L_g. *)
let try_list st p t m =
  let msg = st.msgs.(m) in
  if t >= st.req_at.(m) then begin
    let g = msg.Amsg.dst in
    st.lists.(g) <- m :: st.lists.(g);
    leave st p m s_unlisted;
    Pset.iter
      (fun q -> enter st q m s_listed)
      (Topology.group st.topo msg.Amsg.dst);
    draw_visibility st p t m;
    emit st (fun seq -> Trace.Invoke { m; p; time = t; seq });
    true
  end
  else false

(* A.multicast(m): append m to LOG_g once every message listed before m
   in L_g has been delivered locally (helping included — any member of
   g may perform the append, preserving the ≺ invariant because the
   appender has delivered every predecessor). Stage [s_listed]: m is in
   L_g, not in LOG_g. *)
let try_send st p t m =
  let g = st.msgs.(m).Amsg.dst in
  let older =
    (* messages listed before m in L_g: the tail after m's occurrence
       in the newest-first shared list *)
    let rec after_m = function
      | [] -> []
      | x :: rest -> if x = m then rest else after_m rest
    in
    after_m st.lists.(g)
  in
  List.for_all (fun m' -> st.phase.(cell st p m') = Trace.Delivered) older
  && begin
       ignore (append st g g (Msg m));
       Pset.iter
         (fun q ->
           leave st q m s_listed;
           enter st q m s_sent)
         (Topology.group st.topo g);
       emit st (fun seq -> Trace.Send { m; p; time = t; seq });
       true
     end

(* pending(m), lines 8–15. Stage [s_sent]: m is in LOG_g, Start at p. *)
let try_pending st p t m =
  let g = st.msgs.(m).Amsg.dst in
  prefix_at_rank st p g g m (Trace.phase_rank Trace.Commit)
  && begin
       List.iter
         (fun h ->
           let i = append st g h (Msg m) in
           ignore (append st g g (Pend (m, h, i)));
           if not (List.mem h st.pend_hs.(m)) then
             st.pend_hs.(m) <- h :: st.pend_hs.(m);
           if i > st.pend_k.(m) then st.pend_k.(m) <- i)
         st.groups_of.(p);
       set_phase st p m Trace.Pending t;
       true
     end

(* commit(m), lines 16–24. The guard waits for a recorded (m, h, i)
   tuple from every γ-group and proposes the highest such position —
   both read from the exact [pend_hs]/[pend_k] cache instead of
   scanning LOG_g. Stage [s_pending]: m is Pending at p. *)
let try_commit st p t m =
  let g = st.msgs.(m).Amsg.dst in
  List.for_all (fun h -> List.mem h st.pend_hs.(m)) (gamma_groups st p t g)
  && begin
       let fam_key = List.assoc g st.h_key.(p) in
       st.rounds <- st.rounds + 1;
       let k = propose st (m, fam_key) st.pend_k.(m) in
       List.iter (fun h -> bump_and_lock st g h (Msg m) k) st.groups_of.(p);
       set_phase st p m Trace.Commit t;
       true
     end

(* stabilize(m, h), lines 25–29. Stage [s_commit]: m is Commit at p.

   [step] skips [h = g]: a [Stab (m, g)] tuple has no reader in any
   variant — [try_stable]'s Vanilla arm ranges over the γ-groups (which
   exclude [g]), Strict short-circuits [h = g], Pairwise never reads
   [Stab] — so writing it only pollutes LOG_g and lengthens every later
   predecessor walk over it. *)
let try_stabilize st p t m h =
  let g = st.msgs.(m).Amsg.dst in
  ignore t;
  (not st.stab_done.(pair st m h))
  && prefix_at_rank st p g h m (Trace.phase_rank Trace.Stable)
  && begin
       ignore (append st g g (Stab (m, h)));
       st.stab_done.(pair st m h) <- true;
       true
     end

(* stable(m), lines 30–33 (variant-dependent precondition, §6.1).
   Stage [s_commit]: m is Commit at p. *)
let try_stable st p t m =
  let g = st.msgs.(m).Amsg.dst in
  let has_stab h = st.stab_done.(pair st m h) in
  (match st.variant with
  | Vanilla -> List.for_all has_stab (gamma_groups st p t g)
  | Pairwise -> true
  | Strict ->
      List.for_all
        (fun h ->
          h = g || not (Topology.intersecting st.topo g h)
          || has_stab h
          || st.mu.Mu.indicator g h p t = Some true)
        (Topology.gids st.topo))
  && begin
       set_phase st p m Trace.Stable t;
       true
     end

(* deliver(m), lines 34–37: a conjunction of walks over p's pair
   logs. Stage [s_stable]: m is Stable at p. *)
let try_deliver st p t m =
  let g = st.msgs.(m).Amsg.dst in
  List.for_all
    (fun h -> prefix_at_rank st p g h m (Trace.phase_rank Trace.Delivered))
    st.groups_of.(p)
  && begin
       set_phase st p m Trace.Delivered t;
       true
     end

(* The stabilize level: some intersection group h <> g of p. *)
let try_stabilize_some st p t m =
  let g = st.msgs.(m).Amsg.dst in
  List.exists
    (fun h ->
      h <> g
      && Pset.mem p (Topology.inter st.topo g h)
      && try_stabilize st p t m h)
    st.groups_of.(p)

(* The first visible message of a stage on which [f] fires, in
   ascending order. *)
let rec fires st p t row f = function
  | [] -> false
  | m :: rest -> (arrived st row t m && f st p t m) || fires st p t row f rest

let rec any_arrived st row t = function
  | [] -> false
  | m :: rest -> arrived st row t m || any_arrived st row t rest

(* Whether a stage of p from [s] on holds a message p may act on:
   any unlisted one, or a listed one whose announcement has arrived. *)
let rec holds_visible st base row t s =
  s < stage_count
  && ((match st.stages.(base + s) with
      | [] -> false
      | l -> s = s_unlisted || any_arrived st row t l)
     || holds_visible st base row t (s + 1))

let enabled st ~pid:p ~time:t =
  holds_visible st (stage_count * p) (arrival_row st p) t s_unlisted

(* The cascade of Algorithm 1's actions, latest stage first. Each level
   walks the one stage that stands for its guard's first conjunct, so
   its action tests only the conjuncts after it. The visibility gate
   is part of the semantics: a member acts on m only once its copy of
   the announcement has arrived. Fault-free runs never test it
   ([arrival_row] is -1), keeping them bit-identical to the pre-fault
   stepper. An unlisted message has no announcement yet and is always
   visible (every guard sees it as absent anyway), so the list level
   passes -1 too. *)
let step st ~pid:p ~time:t =
  let base = stage_count * p and row = arrival_row st p in
  let stages = st.stages in
  fires st p t row try_deliver stages.(base + s_stable)
  || fires st p t row try_stable stages.(base + s_commit)
  || fires st p t row try_stabilize_some stages.(base + s_commit)
  || fires st p t row try_commit stages.(base + s_pending)
  || fires st p t row try_pending stages.(base + s_sent)
  || fires st p t row try_send stages.(base + s_listed)
  || fires st p t (-1) try_list stages.(base + s_unlisted)

let trace st = Trace.make ~n:(Topology.n st.topo) (List.rev st.events)
let events_newest_first st = st.events

let events_since st ~tail =
  let rec go acc l =
    if l == tail then Some acc
    else match l with [] -> None | ev :: rest -> go (ev :: acc) rest
  in
  go [] st.events
let phase st ~pid ~m = st.phase.(cell st pid m)

let log_keys st =
  let acc = ref [] in
  for g = st.ng - 1 downto 0 do
    for h = st.ng - 1 downto g do
      match st.logs.(pair st g h) with
      | Some _ -> acc := (g, h) :: !acc
      | None -> ()
    done
  done;
  !acc

let log_snapshot st (g, h) =
  if g < 0 || h < 0 || g >= st.ng || h >= st.ng then []
  else
    match st.logs.(pair st g h) with
    | None -> []
    | Some l -> Log.snapshot l

let consensus_instances st = Consensus_table.instances st.cons

let list_snapshot st g = st.lists.(g)

let consensus_decisions st =
  let cmp ((m, fam), v) ((m', fam'), v') =
    let c = Int.compare m m' in
    if c <> 0 then c
    else
      let c = List.compare Int.compare fam fam' in
      if c <> 0 then c else Int.compare v v'
  in
  Consensus_table.decisions st.cons ~cmp

let release st ~m ~time = if st.req_at.(m) > time then st.req_at.(m) <- time

let consensus_rounds st = st.rounds

let delivered st ~pid ~m = st.phase.(cell st pid m) = Trace.Delivered
let channel_faults st = st.faults
let link_stats st = st.links
let visibility_horizon st = st.vis_horizon

(* An unlisted message's arrival tick is still 0, so it reads
   [`Visible]. *)
let visibility st ~pid ~m ~time =
  if Channel_fault.is_none st.faults then `Visible
  else
    let v = st.visible_at.(cell st pid m) in
    if v = max_int then `Lost
    else if time >= v then `Visible
    else `Pending (v - time)
