(** Channel-fault specification for the message buffer and the
    scenario axis built on top of it.

    A [spec] describes one link fault model: each wire copy of a
    transmission is lost with probability [drop]/{!den}, a surviving
    transmission is duplicated with probability [dup]/{!den}, and every
    delivered copy picks up an extra delay uniform in [0, delay]
    (which also induces reordering). With [stubborn] set, a lost copy
    is retransmitted once per tick until one gets through — the
    standard stubborn-link construction that restores the paper's
    reliable-link assumption on top of fair-loss.

    Determinism contract: all draws come from {!keyed} streams that
    are pure functions of the scenario's fault seed and the logical
    transmission's identity (never of the schedule), so the fate of a
    transmission is fixed once the scenario is fixed. Replay,
    shrinking, [--jobs] parallelism and pinned-schedule exploration
    therefore see bit-identical fault events. *)

type spec = {
  drop : int;  (** per-copy loss probability, in {!den}-ths *)
  dup : int;  (** duplication probability, in {!den}-ths *)
  delay : int;  (** max extra delivery delay in ticks (reorder window) *)
  stubborn : bool;  (** retransmit lost copies until one gets through *)
}

val den : int
(** Probability denominator (10_000: specs are in basis points). *)

val retrans_cap : int
(** Retransmission bound after which fair loss forces a copy through. *)

val max_delay : int
(** Upper bound accepted for [delay] by {!validate}. *)

val none : spec
(** The reliable channel: no loss, no duplication, no extra delay. *)

val is_none : spec -> bool
(** [true] iff the spec cannot affect any transmission (all three
    probabilities/bounds zero; the [stubborn] flag alone is inert). *)

val lossy : spec -> bool
(** [true] iff messages can be lost for good: [drop > 0] without the
    stubborn layer. Liveness claims are only meaningful when [false]. *)

val equal : spec -> spec -> bool

val validate : spec -> (unit, string) result
(** [drop] must stay below {!den} (fair loss — a link that loses
    everything is not a fair-loss link), [dup] within [0, den], and
    [delay] within [0, max_delay]. *)

val latency_bound : spec -> int
(** Worst-case extra ticks between a transmission and its last
    arrival; [0] for {!none}. Used to extend run horizons. *)

val to_string : spec -> string
(** ["none"], or ["drop D dup U delay L plain|stubborn"]. *)

val of_string : string -> (spec, string) result
(** Parses {!to_string} output as well as the compact CLI form
    ["drop=3000,delay=2,stubborn"] (tokens split on spaces, commas and
    ['=']; omitted fields default to their {!none} value). Validates. *)

(** {1 Link statistics} *)

type stats = {
  sent : int;  (** logical transmissions *)
  dropped : int;  (** wire copies lost *)
  duplicated : int;  (** extra copies delivered *)
  retransmissions : int;  (** stubborn resends *)
  lost : int;  (** logical transmissions that never arrived *)
}

val stats_zero : stats

(** {1 Deterministic draws} *)

val keyed : seed:int -> int list -> Rng.t
(** A splitmix stream keyed by the fault seed and a list of integers
    identifying the logical transmission (message id, destination,
    link sequence number, ...). Pure: same key, same stream. *)

type fate = {
  arrivals : int list;  (** extra delay of each delivered copy *)
  retransmissions : int;
  wire_dropped : int;
  wire_duplicated : int;
}

val fate : spec -> Rng.t -> fate
(** Draws the complete fate of one logical transmission. [arrivals] is
    empty iff the transmission is lost for good (never under
    [stubborn]). The draw order is fixed and documented in the
    implementation — it is part of the replay contract. *)

val record : stats -> fate -> stats
(** Fold one transmission's fate into running statistics. *)
