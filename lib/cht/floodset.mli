(** The deterministic algorithm simulated by the CHT-style extraction
    (Algorithm 5, Appendix B).

    Algorithm 5 works for {e any} strongly genuine solution [A]; what
    it needs from [A] is a deterministic automaton whose steps are
    [(process, message, detector sample)] and whose runs, from the
    initial configurations [I] of Appendix B, end up delivering first a
    message addressed to [g] or to [h]. We instantiate [A] with the
    classical FloodSet agreement over a perfect-detector sample —
    processes of [g ∩ h] flood their "which group goes first" inputs
    for [f+1] rounds and deliver the smallest surviving input first.
    This gives finite simulation trees (every run decides within a
    bounded number of steps) while exhibiting the full valency
    structure: bivalent roots, forks and hooks (Figures 4–5).

    Configurations are immutable and comparable, so the simulation
    "forest" is explored as a memoised graph. *)

type outcome = G | H
(** Which group's message is delivered first. *)

type config
(** Global configuration: local states plus the message buffer. *)

type step = {
  proc : int;  (** index into the simulated process list *)
  msg : int option;  (** position of the received message, [None] = m_⊥ *)
  sample : int;  (** index into the sample sequence (time level) *)
}

type t
(** The simulated system: processes, rounds, and the detector sample
    sequence (a monotone sequence of suspected-sets drawn from a real
    perfect-detector history). *)

val create : procs:int -> rounds:int -> samples:bool array array -> t
(** [samples.(lvl).(q)] = is process [q] suspected by the level-[lvl]
    sample. Levels must be monotone (suspicions only grow) and accurate
    for the failure pattern of interest. *)

val initial : t -> inputs:outcome array -> config
(** The configuration [I_i] where process [q] will multicast first to
    [inputs.(q)]; every round-1 flood message is in transit. *)

val enabled : t -> config -> step list
(** The steps applicable to a configuration: any process not suspected
    by its sample, receiving one of its pending messages or m_⊥ (kept
    only when it changes the state), at any sample level ≥ the
    configuration's. *)

val apply : t -> config -> step -> config

val decided : t -> config -> outcome option
(** The delivery outcome, once some process decided. *)

val compare_outcome : outcome -> outcome -> int
(** Structural order over outcomes: [G < H]. *)

val pp_outcome : Format.formatter -> outcome -> unit

val step_message : t -> config -> step -> (int * int) option
(** [(src, round)] of the message a step receives ([None] for m_⊥) —
    the message identity used to match "the same step" across
    configurations when hunting decision gadgets (buffer positions
    shift, message contents do not). *)
