(** Canonical state fingerprints for the systematic explorer.

    A fingerprint renders everything that determines the future of a
    run of Algorithm 1 and the verdicts of the checkers: the shared
    objects (logs with positions and locks, the Prop. 1 per-group
    lists, the consensus decisions), the per-process phase matrix, the
    listed/invoked flags, the per-process delivery orders, and the
    canonical time.

    Two states with equal renderings have the same enabled actions
    and produce the same behaviours under the same move sequences, so
    the explorer may prune one of them (visited-state caching). The
    rendering deliberately excludes execution bookkeeping that cannot
    influence the future — event sequence numbers and engine tick
    counts.

    Canonical time: the caller passes [min t t_steady], where
    [t_steady] is the first tick after which every time-dependent guard
    (workload release times, crash processing, detector histories) is
    constant. Beyond [t_steady] two states differing only in the clock
    are behaviourally identical and hash alike. *)

type t = private { h1 : int; h2 : int }
(** A state's key: a 126-bit hash in two 63-bit lanes. {!of_state}
    hashes each segment of the rendering once, when the segment is
    rendered (each lane seeded differently and stepping the text's
    8-byte words with its own multiplier), and chains the time and the
    hashes of the non-empty segments, in their fixed order, through a
    bijective non-linear mix, so the key depends on that order. Equal
    renderings give equal keys. Distinct renderings collide only by
    accident: no adversary chooses the states, so with lanes that
    behave as independent random 63-bit hashes, N distinct states of
    one exploration share a key with probability about N²/2^127
    (roughly 10^-27 for the 483,717 distinct states of the longest
    corpus re-verification). The visited cache keys states by [t]. *)

type segments
(** The rendering of a state cut into segments: one per log, one for
    the Prop. 1 lists and listed flags, one for the consensus
    decisions, one per process (phases and delivery order), each kept
    with its hash and with what it was rendered from. A state derived
    from the rendered one re-renders and re-hashes only the segments
    that changed. *)

val none : segments
(** Nothing to reuse: every segment is rendered. *)

val render_reusing :
  segments ->
  time:int ->
  topo:Topology.t ->
  msgs:int ->
  Algorithm1.t ->
  string * segments
(** The rendering of the state and its segments, reusing those of
    [segments] that are unchanged. A log's segment is reused while
    {!Algorithm1.log_snapshot} returns the physically equal list. The
    other segments are reused only when the state [segments] was
    rendered from is an ancestor of this one (its
    {!Algorithm1.events_newest_first} list is a tail of this one's):
    the consensus segment while the number of decided instances is
    unchanged (decisions only grow), the lists while no new event is
    an [Invoke], and a process's segment while no new event names the
    process. The time and the announcement visibility are rendered
    every time. [segments] must be {!none} or come from a state of the
    same configuration (topology and workload). The string does not
    depend on [segments]: it is the segments concatenated in a fixed
    order. *)

val render : time:int -> topo:Topology.t -> msgs:int -> Algorithm1.t -> string
(** {!render_reusing} with {!none}: the canonical textual rendering
    that {!t} keys, exposed so the commutation tests can diff two
    states field by field. [msgs] is the workload size [K] (message ids
    are [0 .. K-1]). *)

val of_state :
  reuse:segments ->
  time:int ->
  topo:Topology.t ->
  msgs:int ->
  Algorithm1.t ->
  t * segments
(** The key of {!render_reusing}'s string, with the segments to pass to
    the children. It never builds that string: it chains the hashes the
    segments carry (those of reused segments were computed when their
    parent rendered them), with only the visibility part, under channel
    faults, hashed at every call. Does not mutate the state. The
    rendering writes digits straight into buffers and keeps delivery
    orders in the segments, with no trace index; the explorer computes
    it at every node it visits, from its parent's segments. *)
