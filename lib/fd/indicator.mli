(** The indicator failure detector 1^P (§6.1, new in the paper).

    [1^P] returns a boolean with {e accuracy} (it returns [true] only
    once every member of [P] has crashed) and {e completeness} (once
    [P] is entirely crashed, every correct process eventually reads
    [true] forever). Following the paper's notation [1^{g∩h}], the
    detector is restricted to a scope (there, [g ∪ h]) and returns [⊥]
    elsewhere. *)

type t

val make :
  ?max_delay:int ->
  seed:int ->
  scope:Pset.t ->
  target:Pset.t ->
  Failure_pattern.t ->
  t
(** [make ~scope ~target fp] indicates, within [scope], the failure of
    the whole [target] set. *)

val query : t -> int -> Failure_pattern.time -> bool option
