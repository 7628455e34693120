(** Bounded-trial fuzzing loop.

    Deterministic: trial [i] of a run with seed [s] always explores the
    same scenario, independent of every other trial. *)

type violation = {
  trial : int;
  scenario : Scenario.t;  (** as generated *)
  failure : string;  (** the failed checks of the generated scenario *)
  minimized : (Scenario.t * Shrinker.stats) option;
}

type report = {
  trials : int;  (** trials actually executed *)
  violations : violation list;  (** oldest first *)
}

val scenario_of_trial : seed:int -> Scenario_gen.config -> int -> Scenario.t
(** The scenario explored by trial [i]. *)

val fuzz :
  ?minimize:bool ->
  ?stop_at_first:bool ->
  ?on_trial:(int -> Scenario.t -> unit) ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  Scenario_gen.config ->
  report
(** Generate and {!Scenario.check} [trials] scenarios. With
    [stop_at_first] (default [true]) the loop ends at the first
    violation; with [minimize] (default [true]) each collected
    violation is run through {!Shrinker.minimize}.

    [jobs] (default [1]) farms the trials over a {!Domain_pool}; at
    [jobs <= 1] the pool runs them in trial order on the calling
    domain. The report is bit-identical for every [jobs]: violations
    are listed in trial order, [stop_at_first] selects the
    earliest-index violation (later in-flight trials are discarded and
    pending ones cancelled), and minimization runs in the calling
    domain on the selected violations only. The only observable
    differences are wall-clock time and [on_trial], which under
    [jobs > 1] is invoked from worker domains in an arbitrary order
    (and may fire for trials past the first violation). *)
