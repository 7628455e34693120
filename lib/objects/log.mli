(** The paper's log object (§4.3).

    A log is an infinite array of slots numbered from 1; a slot may hold
    several data items. [append] inserts at the head (the first free
    slot after which only free slots remain); [bump_and_lock d k] moves
    [d] from its slot [l] to slot [max k l] and locks it there — a
    locked datum can never move again. The induced order [d <_L d']
    compares positions, breaking ties with an a-priori total order on
    data.

    This is the linearizable, wait-free specification object; the
    simulator executes each operation atomically, which realises
    linearizability by construction. A message-passing implementation
    from the claimed failure detectors lives in [Amcast_substrate]. *)

type 'a t

val create : compare:('a -> 'a -> int) -> 'a t
(** [compare] is the a-priori total order used for slot-sharing ties.
    It must be a {e total} order: distinct data never compare equal
    (the incremental descending index identifies data through it). *)

val append : 'a t -> 'a -> int
(** Insert at the head slot and return the datum's position. Does
    nothing (returns the current position) if already present. *)

val mem : 'a t -> 'a -> bool

val pos : 'a t -> 'a -> int
(** Current slot of the datum; [0] if absent. *)

val bump_and_lock : 'a t -> 'a -> int -> unit
(** Move the datum to [max k current] and lock it. No effect on an
    already-locked datum. Raises [Invalid_argument] if absent. *)

val locked : 'a t -> 'a -> bool

val head : 'a t -> int
(** The first free slot after which only free slots remain: the
    highest entry's position plus one, [1] for an empty log. *)

val lt : 'a t -> 'a -> 'a -> bool
(** [lt log d d']: the order [d <_L d'] (both data must be present). *)

val entries : 'a t -> 'a list
(** All data in log order (increasing [<_L]): the data of
    {!snapshot}. *)

val snapshot : 'a t -> ('a * int * bool) list
(** Every datum with its position and lock, in log order: [entries]
    paired with [pos] and [locked], built in one reversal of the
    descending index without a table lookup per datum. The list is
    built once and returned again, physically equal, until the next
    [append] of an absent datum or [bump_and_lock] of an unlocked one
    (a lock-only bump counts), so successive snapshots of an untouched
    log share one list. *)

val copy : 'a t -> 'a t
(** An independent log with the same entries, positions and locks:
    later operations on either leave the other unchanged. The copy
    starts from the original's snapshot list; a mutation of either
    gives that one a fresh list. *)

val forall_before : 'a t -> 'a -> ('a -> bool) -> bool
(** [forall_before log d check]: does [check] hold on every strict
    predecessor of [d]? The guard walk: it visits the predecessors in
    descending log order, so it never builds the ascending view, and
    short-circuits at the first failure. [check] must be pure. Raises
    [Invalid_argument] if [d] is absent. *)

val first_before : 'a t -> 'a -> ('a -> bool) -> 'a option
(** [first_before log d pred]: the first (smallest in log order) strict
    predecessor of [d] satisfying [pred], if any. It walks
    {!snapshot} and stops at that entry: the witness-returning
    counterpart of {!forall_before}, naming the lowest entry that keeps
    a guard walk false. Raises [Invalid_argument] if [d] is absent. *)
