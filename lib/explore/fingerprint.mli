(** Canonical state fingerprints for the systematic explorer.

    A fingerprint digests everything that determines the future of a
    run of Algorithm 1 and the verdicts of the checkers: the shared
    objects (logs with positions and locks, the Prop. 1 per-group
    lists, the consensus decisions), the per-process phase matrix, the
    listed/invoked flags, the per-process delivery orders, and the
    canonical time.

    Two states with equal fingerprints have the same enabled actions
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

type t

val compare : t -> t -> int
val equal : t -> t -> bool

val to_hex : t -> string
(** Stable hexadecimal rendering (for reports and witnesses). *)

val render : time:int -> topo:Topology.t -> msgs:int -> Algorithm1.t -> string
(** The canonical textual rendering that is digested — exposed so the
    commutation tests can diff two states field by field. [msgs] is the
    workload size [K] (message ids are [0 .. K-1]). *)

val of_state : time:int -> topo:Topology.t -> msgs:int -> Algorithm1.t -> t
(** [Digest] of {!render}. Does not mutate the state. The rendering
    writes digits straight into one buffer and reads delivery orders
    from one walk over the events, with no trace index — the explorer
    computes it at every node it visits. *)
