(** Point-to-point message buffer (the [BUFF] of Appendix A), composed
    with a {!Channel_fault.spec}.

    With the default {!Channel_fault.none} spec the buffer is the
    paper's reliable asynchronous link: a send enqueues into the
    destination's buffer; the destination dequeues at its own pace
    (one message per step, FIFO per destination, which realises the
    fairness condition that every message addressed to a process that
    steps infinitely often is eventually received). The behaviour is
    bit-identical to the pre-fault implementation.

    With a non-trivial spec, each logical transmission draws its fate
    (loss, duplication, extra delay and hence reordering) from a keyed
    stream that is a pure function of [(seed, src, dst, link-sequence
    number)] — independent of the receive schedule — so replayed runs
    observe identical fault events. A spec with [stubborn] set
    retransmits every lost copy until one gets through, which restores
    reliable links on top of fair loss. *)

type 'm t

val create : ?faults:Channel_fault.spec -> ?seed:int -> n:int -> 'm t
(** [faults] defaults to {!Channel_fault.none}; [seed] (default [1])
    keys all fault draws. *)

val send : 'm t -> src:int -> dst:int -> 'm -> unit
(** Raises [Invalid_argument] with a descriptive message (naming the
    offending pid and the universe bounds) if [src] or [dst] is
    outside [0..n-1]. *)

val multicast : 'm t -> src:int -> Pset.t -> 'm -> unit
(** Send to every member of the set (including the sender if member).
    Each member is range-checked by {!send}, so a [Pset] containing a
    pid outside the universe raises the same descriptive
    [Invalid_argument]. *)

val receive : 'm t -> int -> (int * 'm) option
(** Dequeue the pending message of a process with the smallest arrival
    key: [(src, payload)]. FIFO per destination under
    {!Channel_fault.none}. Raises the descriptive [Invalid_argument]
    on an out-of-range pid. *)

val pending : 'm t -> int -> int
val total_sent : 'm t -> int
(** Number of [send] calls (logical transmissions), independent of how
    many wire copies were dropped or duplicated. *)

val stats : 'm t -> Channel_fault.stats
(** Cumulative link statistics (copies dropped, duplicated, stubborn
    retransmissions, transmissions lost for good). *)
