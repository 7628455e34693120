(** Families of single-shot consensus objects, indexed by a key (the
    paper indexes [CONS_{m,f}] by message and group family).

    Specification object: the first proposal for a key decides; later
    proposals return the decided value. Linearizable because the
    simulator runs each operation atomically. Agreement, validity and
    (wait-free) termination hold trivially. *)

type ('k, 'v) t

val create : unit -> ('k, 'v) t

val copy : ('k, 'v) t -> ('k, 'v) t
(** An independent table with the same decisions: later proposals to
    either leave the other unchanged. *)

val propose : ('k, 'v) t -> 'k -> 'v -> 'v
(** [propose t key v] decides [v] if the instance [key] is undecided,
    and returns the decided value of the instance. *)

val decided : ('k, 'v) t -> 'k -> 'v option
val instances : ('k, 'v) t -> int

val decisions :
  ('k, 'v) t -> cmp:('k * 'v -> 'k * 'v -> int) -> ('k * 'v) list
(** Every decided instance with its value, sorted by [cmp] — the
    caller supplies a typed total order so the result is independent of
    hash-table iteration order (state fingerprinting needs a canonical
    rendering). *)
