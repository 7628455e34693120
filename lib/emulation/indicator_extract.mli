(** Algorithm 4 of the paper: emulating the indicator [1^{g∩h}] from
    any solution to {e strict} atomic multicast (§6.1, necessity).

    Processes of [g \ h] run an instance [A_g] of the strict algorithm
    in which each multicasts its identity to [g]; symmetrically for
    [h \ g] and [A_h]; the processes of [g ∩ h] run neither. A strict
    algorithm cannot deliver in [A_g] while [g ∩ h] is correct (the
    delivery could be glued before a later multicast to [h], breaking
    real-time order), so a delivery in either instance is a sound
    witness that [g ∩ h] has crashed and raises the emulated flag. *)

type t

val create :
  ?seed:int ->
  topo:Topology.t ->
  fp:Failure_pattern.t ->
  g:Topology.gid ->
  h:Topology.gid ->
  unit ->
  t
(** Raises [Invalid_argument] unless [g] and [h] are distinct
    intersecting groups. *)

val step : t -> pid:int -> time:int -> bool
val query : t -> int -> bool option
(** Emulated [1^{g∩h}] at a process; ⊥ outside [g ∪ h]. *)

val run :
  t -> horizon:int -> (int -> int -> bool option) * int
(** {!Recorder.record}: the history, suitable for {!Axioms.indicator},
    and its settle tick. *)
