(** Canonical state fingerprints for the systematic explorer.

    A fingerprint hashes everything that determines the future of a run
    of Algorithm 1 and the verdicts of the checkers: the shared objects
    (logs with positions and locks, the Prop. 1 per-group lists, the
    consensus decisions), the per-process phase matrix and delivery
    orders, and the canonical time. Whether a message was multicast is
    whether it is in its destination's list, so it is not hashed again.
    Execution bookkeeping that cannot influence the future (event
    sequence numbers, engine tick counts) is left out, so the explorer
    may prune a state whose fingerprint it has seen (visited-state
    caching).

    Canonical time: the caller passes [min t t_steady], where
    [t_steady] is the first tick after which every time-dependent guard
    (workload release times, crash processing, detector histories) is
    constant. Beyond [t_steady] two states differing only in the clock
    are behaviourally identical and hash alike. *)

type t = private { h1 : int; h2 : int }
(** A state's key: a 126-bit hash in two 63-bit lanes. The state is cut
    into segments, each hashed once, when it is built: each lane is
    seeded differently and steps the segment's ints with its own
    multiplier. The ints follow a fixed layout that can be read back: a
    kind tag, every list's length before the list, every log datum's
    constructor before its fields. The key chains the time and the
    segment hashes, in a fixed order, through a bijective non-linear
    mix, so it depends on that order. A part with nothing in it (no
    consensus decision, no announcement copy still waiting under
    faults) chains nothing. Distinct states collide only by accident:
    no adversary chooses the states, so with lanes that behave as
    independent random 63-bit hashes, N distinct states of one
    exploration share a key with probability about N²/2^127 (roughly
    10^-27 for the 483,717 distinct states of the longest corpus
    re-verification). The visited cache keys states by [t]. *)

type segments
(** A state's segments: one per log, one for the Prop. 1 lists, one for
    the consensus decisions, one per process (phases and delivery
    order), each kept with its hash and with what it was hashed from. *)

val none : segments
(** Nothing to reuse: every segment is hashed. *)

val of_state :
  reuse:segments ->
  time:int ->
  topo:Topology.t ->
  msgs:int ->
  Algorithm1.t ->
  t * segments
(** The state's key and segments, for its children to reuse. [msgs] is
    the workload size [K] (message ids are [0 .. K-1]). A log's segment
    in [reuse] is reused while {!Algorithm1.log_snapshot} returns the
    physically equal list. The others are reused only when the state
    [reuse] was built from is an ancestor of this one (its
    {!Algorithm1.events_newest_first} list is a tail of this one's):
    the consensus segment while the number of decided instances is
    unchanged (decisions only grow), the lists while no new event is an
    [Invoke], and a process's segment while no new event names the
    process. The time and, under channel faults, the announcement
    visibility are hashed at every call. [reuse] must be {!none} or
    come from a state of the same configuration (topology and
    workload); the key does not depend on it. Does not mutate the
    state. *)
