(** The specification of atomic multicast (§2.2) and its variations
    (§6, §7) as executable checks over run outcomes.

    The delivery relation [m ↦ m'] holds when some process in
    [dst(m) ∩ dst(m')] delivers [m] while not having delivered [m']
    (§2.2); [m ↝ m'] holds when [m] is delivered in real time before
    [m'] is multicast (§6.1). Real time is the global sequence order of
    effects in the trace.

    What each property reads. Besides the workload and the topology,
    the safety properties (all but {!termination}) read only the
    trace's [Invoke], [Send] and [Deliver] events, with their sequence
    numbers, and whether each process took a step
    ([stats.steps.(p) > 0]). No safety property reads the time, a
    [Phase_change] event, the failure pattern or the logs:
    - {!integrity}: deliveries and invocations;
    - {!ordering} and {!pairwise_ordering}: deliveries;
    - {!strict_ordering}: deliveries and invocations;
    - {!group_sequential}: sends and deliveries;
    - {!minimality}: invocations and which processes stepped (its
      failure message also names the step count).

    {!termination} reads deliveries, invocations and the failure
    pattern. The explorer skips the safety check of a node that changed
    nothing on this list ({!Explore.safety_unchanged}), so a property
    that reads more must extend it. *)

type verdict = (unit, string) result

val integrity : Runner.outcome -> verdict
(** Each process delivers a message at most once, only if it is a
    member of the destination group, and only after the message was
    multicast. *)

val termination : Runner.outcome -> verdict
(** If a correct process multicasts [m], or any process delivers [m],
    every correct member of [dst m] delivers [m] by the end of the
    run. *)

val ordering : Runner.outcome -> verdict
(** The delivery relation [↦] is acyclic over the run's messages.
    Decided in time linear in the messages and their destination
    memberships, on per-process delivery chains (a graph with the same
    cycles); a failure names the cycle that {!find_cycle} finds in the
    full {!delivery_edges}. *)

val strict_ordering : Runner.outcome -> verdict
(** [↦ ∪ ↝] is acyclic (§6.1). Decided like {!ordering}, with [↝]
    reduced to a chain of invocation points (plus a binary search per
    message); a failure names the cycle that {!find_cycle} finds in the
    full edge lists of both relations. *)

val pairwise_ordering : Runner.outcome -> verdict
(** If a process delivers [m] then [m'], no process delivers [m']
    without having delivered [m] first (§7). *)

val minimality : Runner.outcome -> verdict
(** Genuineness: a process takes steps only if some multicast message
    is addressed to it (§2.3). *)

val group_sequential : Runner.outcome -> verdict
(** Any two messages sent to the same group are [≺]-related: the
    process performing the later [A.multicast] had delivered the
    earlier message (§4.1). *)

val delivery_edges : Runner.outcome -> (int * int) list
(** All the edges of [↦]: O(Σ_p d_p²) of them, where d_p is the number
    of messages process p delivers. Only claim 9 and the naming of an
    ordering cycle build it. *)

val find_cycle : (int * int) list -> int list option
(** A cycle in a relation given by edges, if any (vertices in cycle
    order). *)

val all : Runner.outcome -> (string * verdict) list
(** The checks relevant to the outcome's variant: integrity,
    termination, minimality, group-sequentiality, plus ordering
    (vanilla), strict ordering (strict) or pairwise ordering
    (pairwise). *)

val check_all : Runner.outcome -> verdict
(** [Error] carrying every failed check of {!all}, if any. *)

val group_parallelism : Runner.outcome -> m:int -> verdict
(** The §6.2 property for one message: [m] (invoked, or delivered
    somewhere) is delivered at every correct member of [dst m]. Use on
    an outcome produced with a scheduler restricted to
    [Correct ∩ dst m] — a P-fair run — to check strong genuineness. *)
