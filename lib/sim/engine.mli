(** Discrete-event execution of guarded-action algorithms.

    Time advances in ticks. At every tick the engine visits the
    scheduled, not-yet-crashed processes in a seeded random order. At
    its slot a process calls [step], which executes at most one action
    and returns whether it did, until [step] returns [false] or the
    process has taken [steps_per_tick] actions. Crashes follow the
    failure pattern; a crashed process is never scheduled again. Runs
    are deterministic functions of the seed.

    Fairness: with the default schedule every alive process is visited
    at every tick, which realises the fair runs of the paper's model.
    The [scheduled] hook restricts visits to a subset per tick and is
    used for the P-fair runs of §6.2 (group parallelism). *)

type stats = {
  steps : int array;  (** actions executed per process *)
  executed : int;  (** total actions executed *)
  ticks_used : int;  (** ticks elapsed before quiescence/horizon *)
  quiescent : bool;  (** stopped because no action was enabled *)
}

val run :
  fp:Failure_pattern.t ->
  horizon:int ->
  ?quiesce_after:int ->
  ?live_until:(unit -> int) ->
  ?seed:int ->
  ?scheduled:(int -> Pset.t) ->
  ?enabled:(pid:int -> time:int -> bool) ->
  ?steps_per_tick:int ->
  ?on_tick:(int -> unit) ->
  step:(pid:int -> time:int -> bool) ->
  unit ->
  stats
(** [quiesce_after] (default [0]): earliest tick at which the engine
    may stop because a full tick passed with no action executed. Set it
    at or beyond every crash time and the detector histories' settle
    tick ({!Mu.t}'s [settle]), since guards can become enabled by time
    alone.

    [live_until] (default [fun () -> 0]): a dynamic lower bound on
    quiescence, re-queried at every silent tick. Fault-injecting
    channels use it to keep the engine running while a delayed or
    retransmitted copy is still in flight — such arrivals enable
    guards by time alone, invisibly to [step]'s return values.

    [enabled] (default: always [true]) is a sound-to-skip hint: when it
    returns [false] the engine does not call [step] for that process at
    that tick. It must return [false] only when no action of [pid] can
    execute, so a skipped call would have returned [false] anyway. The
    per-tick RNG shuffle still covers the full scheduled set, so the
    draw sequence — and hence the run — is unchanged by the hint.

    [steps_per_tick] (default [1]): the most actions a process takes at
    its slot. [max_int] drains the process to a fixpoint, calling
    [step] until it returns [false]; that is the batched mode of
    [Runner.run ~batching:true]. Either way every [step] that returns
    [true] counts as one action in {!stats}. *)

val run_pinned :
  fp:Failure_pattern.t ->
  moves:int option array ->
  step:(pid:int -> time:int -> bool) ->
  unit ->
  stats * bool array
(** One prescribed move per tick: tick [t] schedules exactly
    [moves.(t)] (or nobody, for [None]), and the run stops after the
    last move — quiescence detection is disabled, so a pinned prefix
    always executes in full. Returns the engine stats together with a
    per-move flag telling whether that tick's process actually executed
    an action (crashed or disabled processes let the tick pass). There
    is no [enabled] hint: the pinned process's [step] is always called,
    and its result alone decides the flag. Pinned runs take no seed: a
    scheduled set of at most one element leaves nothing for the
    per-tick shuffle to permute. This is the reference replay of the
    systematic explorer (lib/explore): a derived child must equal the
    pinned run of its prefix. *)
