(** Counterexample minimization by semantic moves.

    Unlike seed-level shrinking (which explores unrelated scenarios),
    every move here makes the scenario strictly simpler while keeping it
    well-formed: drop a message, un-crash a process, lower a crash time
    or invocation tick, remove a destination group (remapping the
    workload), shrink group membership, trim unused processes, relax the
    schedule, lower the detector latency, weaken the channel-fault
    spec towards {!Channel_fault.none}. {!minimize} greedily applies
    moves while the scenario keeps failing {!Scenario.check}, down to a
    local minimum. *)

val candidates : Scenario.t -> Scenario.t list
(** All single-move simplifications of the scenario, most aggressive
    first. Every candidate satisfies [Scenario.validate]. *)

type stats = { steps : int;  (** accepted moves *) checks : int }

val minimize : Scenario.t -> Scenario.t * stats
(** Greedy descent: repeatedly adopt the first candidate on which
    [Scenario.check] returns [Error], until none does or 500 re-runs
    were spent. If the input scenario itself is not failing it is
    returned unchanged. *)
