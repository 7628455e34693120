(** Deterministic latency accounting: invocation tick → delivery tick,
    entirely in simulated time, so every number is bit-reproducible
    from the scenario seed.

    A message's latency sample is the span from its [Invoke] to its
    {e last} delivery at a correct member of the destination group, and
    exists only when every correct member delivered (the completion
    criterion of termination). *)

val percentile : int list -> int -> int option
(** [percentile samples q] is the nearest-rank [q]-th percentile: the
    value at 1-based rank [⌈q·n/100⌉] (floored at 1) of the sorted
    samples. [None] only on the empty list; [q = 100] is the maximum,
    [q = 0] the minimum. *)

val sample_of : Runner.outcome -> int -> int option
(** Latency of message [m], if its delivery completed. *)

val samples : Runner.outcome -> int list
(** Samples of every completed message, in invocation order. *)

val span : Runner.outcome list -> int
(** Simulated makespan in ticks: first invoke to last delivery over the
    given outcomes, inclusive. Shards of one scenario share the global
    clock, so pass a sharded run's outcomes together (the makespan is
    their max, not their sum). [0] when nothing completed. *)
