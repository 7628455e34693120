(** The one recorder behind Algorithms 2–4's [run]: drive an emulation
    on the engine and record its output at every tick. *)

val record :
  equal:('a -> 'a -> bool) ->
  fp:Failure_pattern.t ->
  horizon:int ->
  step:(pid:int -> time:int -> bool) ->
  query:(int -> 'a) ->
  (int -> int -> 'a) * Failure_pattern.time
(** Runs [step] for ticks [0..horizon] without early quiescence and
    records [query p] at the start of each. Returns the history [h p t]
    (the live [query p] outside [[0, horizon]]) and its settle tick:
    the last [t] whose outputs differ by [equal] from those at [t - 1],
    the live outputs counting as tick [horizon + 1]; 0 if none does. *)
