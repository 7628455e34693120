(** Replayable choice streams for structured generation.

    A [Choice.t] is the zlowcheck-style finite-PRNG idea over {!Rng}:
    every decision a generator makes is drawn through the stream, and
    the stream records the drawn values. Replaying the recorded values
    through {!of_list} reproduces the exact same structure, and a
    *mutated* or *truncated* recording still yields a well-formed value
    (out-of-range entries are clamped with [mod], an exhausted stream
    keeps answering [0]). This makes generated scenarios replayable and
    diffable at the level of decisions, not opaque seeds. *)

type t

val of_rng : Rng.t -> t
(** Fresh stream: choices are drawn from the generator and recorded. *)

val of_list : int list -> t
(** Replay stream: choices are taken from the list in order. Entries
    are clamped into the requested range; once the list is exhausted
    every further choice is the least value of its range. *)

val int : t -> int -> int
(** [int c bound] is a choice in [0, bound). Requires [bound > 0]. *)

val range : t -> int -> int -> int
(** [range c lo hi] is a choice in [lo, hi] (inclusive). Requires
    [lo <= hi]. *)

val pick : t -> 'a list -> 'a
(** Choice among the elements of a non-empty list. *)

val recorded : t -> int list
(** Every value drawn so far, oldest first. Feeding it back through
    {!of_list} replays the same run of choices. *)
