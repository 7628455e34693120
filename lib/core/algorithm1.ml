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
  (* LOG_{g∩h}, indexed by the normalised pair ((g, g) is LOG_g);
     [None] until first touched. An array because the lookup sits in
     every guard of the stepper's hot path. [owned.(g).(h)]: this state
     alone holds the log, so a write may go to it in place. *)
  logs : datum Log.t option array array;
  owned : bool array array;
  (* The shared lists L_g of the Prop. 1 reduction (append order,
     newest first) and whether a message has been listed. *)
  lists : int list ref array;
  listed : bool array;
  (* Incremental view of m's Pend tuples in LOG_g — the groups covered
     and the highest recorded position. Tuples are only ever written by
     [try_pending], which keeps this cache exact, so the commit guard
     is O(|γ|) membership tests instead of a full LOG_g scan. *)
  pend_hs : Topology.gid list array;
  pend_k : int array;
  mutable cons : (int * Topology.gid list, int) Consensus_table.t;
  mutable cons_owned : bool;
  phase : Trace.phase array array; (* phase.(p).(m) *)
  (* H(p, g) of line 20, cached: h_key.(p) maps g to the family key. *)
  h_key : (Topology.gid * Topology.gid list) list array;
  (* Messages addressed to a group the process belongs to. *)
  relevant : int list array;
  groups_of : Topology.gid list array;
  (* Channel faults (lib/net's Channel_fault) applied to the one piece
     of genuine inter-process communication the Prop. 1 reduction has:
     the multicast announcement published through L_g. [visible_at.(q).(m)]
     is the tick at which q's copy of the announcement arrives — drawn
     once, at listing time, from a stream keyed by (fault_seed, m, q),
     so it is a pure function of the scenario and independent of the
     schedule. [max_int] marks a copy lost for good (never under
     stubborn). [vis_horizon] is the largest finite arrival tick, the
     engine's [live_until] bound. *)
  faults : Channel_fault.spec;
  fault_seed : int;
  visible_at : int array array; (* visible_at.(p).(m) *)
  mutable vis_horizon : int;
  mutable links : Channel_fault.stats;
  mutable events : Trace.event list; (* newest first *)
  mutable seq : int;
  (* Commit rounds — the consensus invocations a networked backend
     would make, one per proposal. *)
  mutable rounds : int;
  (* Delivered is absorbing at p: no guard of (p, m) can fire again, so
     [step] and [enabled] drop finished messages from [relevant.(p)] —
     the candidate set both iterate. [del_seen] counts local
     deliveries, [del_pruned] the count at the last prune; comparing
     the two makes the prune O(1) when nothing changed. Purely an
     iteration-space reduction: a pruned message fails every guard. *)
  del_seen : int array;
  del_pruned : int array;
  (* Membership caches for the two hottest [Log.mem] probes — a datum
     key hashes a variant tuple, so the Hashtbl probe costs more than
     the guard around it. [sent.(m)]: Msg m is in LOG_g (written only
     by [try_send]); [stab_done.(m).(h)]: Stab (m, h) is in LOG_g
     (written only by [try_stabilize]). Appends are irrevocable, so the
     caches are exact. *)
  sent : bool array;
  stab_done : bool array array;
}

let log st g h =
  let g, h = if g <= h then (g, h) else (h, g) in
  match st.logs.(g).(h) with
  | Some l -> l
  | None ->
      let l = Log.create ~compare:compare_datum in
      st.logs.(g).(h) <- Some l;
      st.owned.(g).(h) <- true;
      l

(* Copy-on-write ([copy]): before a write to LOG_{g∩h}, a state that
   shares the log takes its own clone — unless [noop] says the write
   would change nothing, so a log stays shared for as long as neither
   side really writes it. *)
let own st g h ~noop d =
  let g, h = if g <= h then (g, h) else (h, g) in
  if not st.owned.(g).(h) then begin
    let l = log st g h in
    if not (noop l d) then begin
      st.logs.(g).(h) <- Some (Log.copy l);
      st.owned.(g).(h) <- true
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
  let n = Topology.n topo in
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
  let relevant =
    Array.init n (fun p ->
        List.filter
          (fun m -> Pset.mem p (Topology.group topo msgs.(m).Amsg.dst))
          (List.init k Fun.id))
  in
  {
    topo;
    mu;
    variant;
    msgs;
    req_at = Array.map (fun r -> r.Workload.at) reqs;
    logs =
      Array.make_matrix (Topology.num_groups topo) (Topology.num_groups topo)
        None;
    owned =
      Array.make_matrix (Topology.num_groups topo) (Topology.num_groups topo)
        false;
    lists = Array.init (Topology.num_groups topo) (fun _ -> ref []);
    listed = Array.make k false;
    pend_hs = Array.make k [];
    pend_k = Array.make k 0;
    cons = Consensus_table.create ();
    cons_owned = true;
    phase = Array.make_matrix n k Trace.Start;
    h_key;
    relevant;
    groups_of = Array.init n (Topology.groups_of topo);
    faults;
    fault_seed;
    visible_at = Array.make_matrix n k 0;
    vis_horizon = 0;
    links = Channel_fault.stats_zero;
    events = [];
    seq = 0;
    rounds = 0;
    del_seen = Array.make n 0;
    del_pruned = Array.make n 0;
    sent = Array.make k false;
    stab_done = Array.make_matrix k (Topology.num_groups topo) false;
  }

(* The shared objects are copied on write: the copy holds the same
   logs and consensus table, neither side owns them any more, and the
   first write on either side clones the object it writes ([own],
   [propose]). Reads stay on the shared object, whose read caches fill
   idempotently. Every other mutable field gets its own storage; the
   immutable data ([topo], [mu], [msgs], [h_key], [groups_of],
   [faults], the event list) is shared. [logs] is copied one level
   deep, so a log first touched in the copy stays absent from the
   original. *)
let copy st =
  Array.iter (fun row -> Array.fill row 0 (Array.length row) false) st.owned;
  st.cons_owned <- false;
  {
    st with
    req_at = Array.copy st.req_at;
    logs = Array.map Array.copy st.logs;
    owned = Array.map Array.copy st.owned;
    lists = Array.map (fun l -> ref !l) st.lists;
    listed = Array.copy st.listed;
    pend_hs = Array.copy st.pend_hs;
    pend_k = Array.copy st.pend_k;
    cons_owned = false;
    phase = Array.map Array.copy st.phase;
    relevant = Array.copy st.relevant;
    visible_at = Array.map Array.copy st.visible_at;
    del_seen = Array.copy st.del_seen;
    del_pruned = Array.copy st.del_pruned;
    sent = Array.copy st.sent;
    stab_done = Array.map Array.copy st.stab_done;
  }

let emit st ev =
  st.events <- ev st.seq :: st.events;
  st.seq <- st.seq + 1

let set_phase st p m ph time =
  st.phase.(p).(m) <- ph;
  match ph with
  | Trace.Delivered ->
      st.del_seen.(p) <- st.del_seen.(p) + 1;
      emit st (fun seq -> Trace.Deliver { m; p; time; seq })
  | ph -> emit st (fun seq -> Trace.Phase_change { m; p; phase = ph; time; seq })

let rank st p m = Trace.phase_rank st.phase.(p).(m)

(* Whether every Msg entry strictly before [m] in the (g, h) log has
   rank at least [r] at [p] (trivially so when [m] is not in the log).
   One walk of the predecessors, short-circuiting at an entry below
   [r]. *)
let prefix_at_rank st p g h m r =
  let l = log st g h in
  (not (Log.mem l (Msg m)))
  || Log.forall_before l (Msg m) (function
       | Msg m' -> rank st p m' >= r
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
        if q = p then st.visible_at.(q).(m) <- t
        else begin
          let rng = Channel_fault.keyed ~seed:st.fault_seed [ m; q ] in
          let fate = Channel_fault.fate st.faults rng in
          st.links <- Channel_fault.record st.links fate;
          let v =
            match fate.Channel_fault.arrivals with
            | [] -> max_int
            | d :: ds -> t + List.fold_left min d ds
          in
          st.visible_at.(q).(m) <- v;
          if v < max_int && v > st.vis_horizon then st.vis_horizon <- v
        end)
      (Topology.group st.topo st.msgs.(m).Amsg.dst)

(* Whether p has received the announcement of m: trivially true before
   m is listed (every guard then sees m as absent anyway) and for ever
   after the drawn arrival tick. *)
let visible st p t m =
  Channel_fault.is_none st.faults
  || (not st.listed.(m))
  || t >= st.visible_at.(p).(m)

(* multicast(m), lines 5–7, sequenced through L_g (Prop. 1): the source
   first publishes m in the shared list. *)
let try_list st p t m =
  let msg = st.msgs.(m) in
  if msg.Amsg.src = p && t >= st.req_at.(m) && not st.listed.(m) then begin
    let l = st.lists.(msg.Amsg.dst) in
    l := m :: !l;
    st.listed.(m) <- true;
    draw_visibility st p t m;
    emit st (fun seq -> Trace.Invoke { m; p; time = t; seq });
    true
  end
  else false

(* A.multicast(m): append m to LOG_g once every message listed before m
   in L_g has been delivered locally (helping included — any member of
   g may perform the append, preserving the ≺ invariant because the
   appender has delivered every predecessor). *)
let try_send st p t m =
  let msg = st.msgs.(m) in
  let g = msg.Amsg.dst in
  st.listed.(m)
  && (not st.sent.(m))
  && begin
       let older =
         (* messages listed before m in L_g: the tail after m's
            occurrence in the newest-first shared list *)
         let rec after_m = function
           | [] -> []
           | x :: rest -> if x = m then rest else after_m rest
         in
         after_m !(st.lists.(g))
       in
       List.for_all (fun m' -> st.phase.(p).(m') = Trace.Delivered) older
     end
  && begin
       ignore (append st g g (Msg m));
       st.sent.(m) <- true;
       emit st (fun seq -> Trace.Send { m; p; time = t; seq });
       true
     end

(* pending(m), lines 8–15. *)
let try_pending st p t m =
  let g = st.msgs.(m).Amsg.dst in
  st.phase.(p).(m) = Trace.Start
  && st.sent.(m)
  && prefix_at_rank st p g g m (Trace.phase_rank Trace.Commit)
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
   scanning LOG_g. *)
let try_commit st p t m =
  let g = st.msgs.(m).Amsg.dst in
  st.phase.(p).(m) = Trace.Pending
  && List.for_all (fun h -> List.mem h st.pend_hs.(m)) (gamma_groups st p t g)
  && begin
       let fam_key = List.assoc g st.h_key.(p) in
       st.rounds <- st.rounds + 1;
       let k = propose st (m, fam_key) st.pend_k.(m) in
       List.iter (fun h -> bump_and_lock st g h (Msg m) k) st.groups_of.(p);
       set_phase st p m Trace.Commit t;
       true
     end

(* stabilize(m, h), lines 25–29.

   [step] skips [h = g]: a [Stab (m, g)] tuple has no reader in any
   variant — [try_stable]'s Vanilla arm ranges over the γ-groups (which
   exclude [g]), Strict short-circuits [h = g], Pairwise never reads
   [Stab] — so writing it only pollutes LOG_g and lengthens every later
   predecessor walk over it. *)
let try_stabilize st p t m h =
  let g = st.msgs.(m).Amsg.dst in
  ignore t;
  st.phase.(p).(m) = Trace.Commit
  && (not st.stab_done.(m).(h))
  && prefix_at_rank st p g h m (Trace.phase_rank Trace.Stable)
  && begin
       ignore (append st g g (Stab (m, h)));
       st.stab_done.(m).(h) <- true;
       true
     end

(* stable(m), lines 30–33 (variant-dependent precondition, §6.1). *)
let try_stable st p t m =
  let g = st.msgs.(m).Amsg.dst in
  let has_stab h = st.stab_done.(m).(h) in
  st.phase.(p).(m) = Trace.Commit
  && (match st.variant with
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
   logs. *)
let try_deliver st p t m =
  let g = st.msgs.(m).Amsg.dst in
  st.phase.(p).(m) = Trace.Stable
  && List.for_all
       (fun h -> prefix_at_rank st p g h m (Trace.phase_rank Trace.Delivered))
       st.groups_of.(p)
  && begin
       set_phase st p m Trace.Delivered t;
       true
     end

let prune_delivered st p =
  if st.del_seen.(p) <> st.del_pruned.(p) then begin
    st.relevant.(p) <-
      List.filter
        (fun m -> st.phase.(p).(m) <> Trace.Delivered)
        st.relevant.(p);
    st.del_pruned.(p) <- st.del_seen.(p)
  end

(* Exactly the candidates [step] scans: a [false] hint means no cascade
   level of [step] has a message to try. *)
let enabled st ~pid:p ~time:t =
  prune_delivered st p;
  List.exists (visible st p t) st.relevant.(p)

let step st ~pid:p ~time:t =
  prune_delivered st p;
  (* The visibility gate is part of the semantics: a member acts on m
     only once its copy of the announcement has arrived. Fault-free
     runs never test it, keeping them bit-identical to the pre-fault
     stepper. Under faults each cascade level tests the body of
     [visible] inline, with the fault check and row lookup hoisted out
     of the walk; it must agree with [visible], which [enabled] reads. *)
  let candidates = st.relevant.(p) in
  let try_each =
    if Channel_fault.is_none st.faults then fun f -> List.exists f candidates
    else
      let listed = st.listed and arrival = st.visible_at.(p) in
      fun f ->
        List.exists
          (fun m -> ((not listed.(m)) || t >= arrival.(m)) && f m)
          candidates
  in
  try_each (try_deliver st p t)
  || try_each (try_stable st p t)
  || try_each (fun m ->
         let g = st.msgs.(m).Amsg.dst in
         st.phase.(p).(m) = Trace.Commit
         && List.exists
              (fun h ->
                h <> g
                && Pset.mem p (Topology.inter st.topo g h)
                && try_stabilize st p t m h)
              st.groups_of.(p))
  || try_each (try_commit st p t)
  || try_each (try_pending st p t)
  || try_each (try_send st p t)
  || try_each (try_list st p t)

let trace st = Trace.make ~n:(Topology.n st.topo) (List.rev st.events)
let events_newest_first st = st.events

let events_since st ~tail =
  let rec go acc l =
    if l == tail then Some acc
    else match l with [] -> None | ev :: rest -> go (ev :: acc) rest
  in
  go [] st.events
let phase st ~pid ~m = st.phase.(pid).(m)

let log_keys st =
  let k = Topology.num_groups st.topo in
  let acc = ref [] in
  for g = k - 1 downto 0 do
    for h = k - 1 downto g do
      match st.logs.(g).(h) with
      | Some _ -> acc := (g, h) :: !acc
      | None -> ()
    done
  done;
  !acc

let log_snapshot st (g, h) =
  let k = Topology.num_groups st.topo in
  if g < 0 || h < 0 || g >= k || h >= k then []
  else
    match st.logs.(g).(h) with
    | None -> []
    | Some l -> Log.snapshot l

let consensus_instances st = Consensus_table.instances st.cons

let listed st ~m = st.listed.(m)
let list_snapshot st g = !(st.lists.(g))

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

let delivered st ~pid ~m = st.phase.(pid).(m) = Trace.Delivered
let channel_faults st = st.faults
let link_stats st = st.links
let visibility_horizon st = st.vis_horizon

let visibility st ~pid ~m ~time =
  if Channel_fault.is_none st.faults || not st.listed.(m) then `Visible
  else
    let v = st.visible_at.(pid).(m) in
    if v = max_int then `Lost
    else if time >= v then `Visible
    else `Pending (v - time)
