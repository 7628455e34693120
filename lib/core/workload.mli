(** Multicast workloads: who multicasts what, where, and when. *)

type request = { msg : Amsg.t; at : int }
(** The source tries to invoke [multicast msg] from tick [at] on. *)

type t = request list

val make : (int * Topology.gid * int) list -> Topology.t -> t
(** [make [(src, dst, at); ...] topo] builds a workload with message
    ids [0, 1, ...] in list order. *)

val one_per_group : Topology.t -> t
(** One message per destination group, multicast by the group's
    smallest member at tick 0. *)

val random :
  Rng.t ->
  msgs:int ->
  max_at:int ->
  Topology.t ->
  t
(** [msgs] messages with uniform destination group, uniform source
    within the group (closed model), invocation times in [0, max_at). *)

val messages : t -> Amsg.t list
val message : t -> int -> Amsg.t
(** Message by id. *)

val never : int
(** An invocation time that never arrives; use with {!Algorithm1.release}
    for messages multicast dynamically during a run (the probe chains of
    the necessity constructions). *)
