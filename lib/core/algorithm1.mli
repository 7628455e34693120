(** Algorithm 1 of the paper: genuine (group-sequential) atomic
    multicast from the candidate failure detector μ, together with the
    reduction of Proposition 1 that turns it into vanilla atomic
    multicast, and the variations of §6 and §7.

    The protocol is the paper's pseudo-code, action for action:
    - [multicast]: the source appends the message to [LOG_g] (line 7),
      sequenced through the shared per-group list of the Prop. 1
      reduction (with helping);
    - [pending] (lines 8–15): record the message's position in every
      intersection log;
    - [commit] (lines 16–24): agree through [CONS_{m,f}] on the highest
      position and bump-and-lock the message there;
    - [stabilize] (lines 25–29) and [stable] (lines 30–33): wait until
      the message's predecessors cannot change;
    - [deliver] (lines 34–37): deliver in log order.

    Shared objects are the linearizable specification objects of
    [Amcast_objects]; every effect runs atomically under the engine. *)

type variant =
  | Vanilla  (** Algorithm 1 as published (global total order). *)
  | Strict
      (** §6.1: the [stable] precondition waits, for every intersecting
          group [h], for the tuple [(m, h)] or for [1^{g∩h}] = true. *)
  | Pairwise
      (** §7: the γ component is ignored ([γ(g) = ∅], consensus keyed
          per message only) — computably the [F = ∅] regime; only
          pairwise ordering is guaranteed. *)

type datum =
  | Msg of int  (** a message, by id *)
  | Pend of int * Topology.gid * int  (** the tuple [(m, h, i)] of line 14 *)
  | Stab of int * Topology.gid  (** the tuple [(m, h)] of line 29 *)

type t

val create :
  ?variant:variant ->
  ?faults:Channel_fault.spec ->
  ?fault_seed:int ->
  topo:Topology.t ->
  mu:Mu.t ->
  workload:Workload.t ->
  unit ->
  t
(** Workload message ids must be [0 .. K-1].

    [faults] (default {!Channel_fault.none}) injects channel faults
    into the one genuine inter-process communication of the Prop. 1
    reduction: the multicast announcement. At listing time each group
    member [q] draws the fate of its copy from a stream keyed by
    [(fault_seed, m, q)] — a pure function of the scenario, never of
    the schedule — and may only act on [m] once its copy has arrived;
    a copy lost for good (impossible with [stubborn]) hides [m] from
    [q] forever. With [Channel_fault.none] no draw is made and the
    stepper is bit-identical to the fault-free one. *)

val copy : t -> t
(** An independent state equal to the given one: stepping, releasing
    or touching a new log in either leaves the other unchanged, and
    [step] on the copy does what it would on the original. The
    explorer derives each child node from a copy of its parent.

    The shared objects are copied on write. The copy holds the same
    {!Log.t} values and consensus table as the original, and neither
    side owns them any more, so the first write on either side clones
    the object it writes; an operation that would change nothing (an
    [append] of a present datum, a [bump_and_lock] of a locked one, a
    proposal to a decided instance) writes nothing. A log untouched
    since the copy is therefore the same value on both sides, and its
    {!log_snapshot} the physically equal list. [copy] writes to its
    argument (it gives up ownership there too), and reads fill a
    shared log's read caches, so two domains must not use states that
    share a log: a state whose logs are all untouched ({!log_keys}
    empty) shares none with its copies.

    The rest of the state is copied as flat arrays: one of [6·n]
    per-process stage lists (the lists themselves are immutable and
    shared), the [n·k] phase table, the [n·k] announcement arrival
    table (only under channel faults; it is empty otherwise) and a few
    per-message arrays. *)

val step : t -> pid:int -> time:int -> bool
(** Execute at most one enabled action of process [pid]; returns
    whether one was executed: the first whose guard holds, trying
    deliver, stable, stabilize, commit, pending, send and list in that
    order, each on [pid]'s messages at that stage in ascending id
    order. Feed this to [Engine.run]: how many
    actions a process takes per tick is the engine's choice
    ([~steps_per_tick]), and [Engine.run ~steps_per_tick:max_int]
    drains the process to a fixpoint at its slot — the batched mode of
    {!Runner.run}. *)

val enabled : t -> pid:int -> time:int -> bool
(** Conservative enablement hint for [Engine.run] and the explorer:
    whether some stage of [pid] holds a message whose announcement has
    reached it at [time]. A message enters [pid]'s stages when [pid]
    could first act on it — at creation if [pid] is its source, else
    when it is listed — and leaves them when [pid] delivers it; an
    unlisted message counts as reached. Those are exactly the messages
    {!step} tries, so [false] implies that [step] returns [false]:
    sound to use as the engine's [?enabled] filter, since skipping
    such a process cannot change the run. [true] may still be followed
    by a [step] that finds every guard false (a source before the
    invocation tick, a guard waiting on a log entry or on γ). It
    allocates nothing. *)

val trace : t -> Trace.t
(** Events recorded so far, in execution order. *)

val events_newest_first : t -> Trace.event list
(** The events of {!trace}, newest first, in O(1). *)

val events_since : t -> tail:Trace.event list -> Trace.event list option
(** [events_since st ~tail]: the events [st] recorded after [tail],
    oldest first, when [tail] is physically a tail of
    {!events_newest_first}[ st]; [None] otherwise. A {!copy} starts
    from the physically equal list and each event is consed onto it,
    so for a state derived from [st0] by copies and steps,
    [events_since st ~tail:(events_newest_first st0)] is what it added.
    It walks the added events only, or every event when [tail] is not a
    tail. *)

val phase : t -> pid:int -> m:int -> Trace.phase

val log_keys : t -> (Topology.gid * Topology.gid) list
(** The logs of the run: normalised pairs [(g, h)], [g ≤ h] (with
    [(g, g)] standing for [LOG_g]). *)

val log_snapshot : t -> (Topology.gid * Topology.gid) -> (datum * int * bool) list
(** Entries of a log with position and lock status, in log order
    ({!Log.snapshot}: no table lookup per entry). *)

val consensus_instances : t -> int
(** Number of [CONS_{m,f}] instances actually decided. *)

val consensus_rounds : t -> int
(** Number of commit rounds run so far — the consensus invocations a
    networked backend would make, one per proposal in every mode. *)

val listed : t -> m:int -> bool
(** Whether the Prop. 1 [multicast] of message [m] has been invoked:
    whether [m] is in the shared list [L_g] of its destination. *)

val list_snapshot : t -> Topology.gid -> int list
(** Contents of the shared list [L_g], newest first. *)

val consensus_decisions : t -> ((int * Topology.gid list) * int) list
(** Every decided [CONS_{m,f}] instance with its decided position, in a
    canonical (message, family-key) order — part of the protocol state
    the systematic explorer fingerprints. *)

val pp_datum : Format.formatter -> datum -> unit

val compare_datum : datum -> datum -> int
(** The a-priori total order used to tie-break equal log positions
    (constructor rank, then fields lexicographically). *)

val release : t -> m:int -> time:int -> unit
(** Allow the source of message [m] to invoke [multicast m] from [time]
    on. Used by the necessity constructions (Algorithms 2–4), whose
    probe messages are multicast in reaction to deliveries; such
    messages are created with invocation time {!Workload.never} and
    released here. No effect if the message was already released. *)

val delivered : t -> pid:int -> m:int -> bool

val channel_faults : t -> Channel_fault.spec
(** The fault spec the run was created with. *)

val link_stats : t -> Channel_fault.stats
(** Cumulative fate of every announcement copy drawn so far. *)

val visibility_horizon : t -> int
(** Largest finite announcement-arrival tick drawn so far ([0] with no
    faults): pass as the engine's [live_until] so a silent tick with a
    copy still in flight does not quiesce the run. *)

val visibility : t -> pid:int -> m:int -> time:int -> [ `Visible | `Pending of int | `Lost ]
(** Whether [pid] has received the announcement of [m] at [time]:
    [`Pending d] means the copy arrives in [d] more ticks, [`Lost]
    that it never will. Part of the state the explorer fingerprints
    when faults are active. *)

