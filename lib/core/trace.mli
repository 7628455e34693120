(** Run traces: the observable events of a multicast execution.

    Events carry both the tick at which they occurred and a global
    sequence number: effects of Algorithm 1 are applied atomically one
    after the other, so the sequence numbers give the real-time order
    used by the strict-ordering relation [↝] (§6.1). *)

type phase = Start | Pending | Commit | Stable | Delivered

val phase_rank : phase -> int
(** [Start] < [Pending] < [Commit] < [Stable] < [Delivered]. *)

val pp_phase : Format.formatter -> phase -> unit

type event =
  | Invoke of { m : int; p : int; time : int; seq : int }
      (** the vanilla [multicast(m)] invocation at the source *)
  | Send of { m : int; p : int; time : int; seq : int }
      (** the group-sequential [A.multicast(m)]: [m] enters [LOG_g] *)
  | Phase_change of { m : int; p : int; phase : phase; time : int; seq : int }
  | Deliver of { m : int; p : int; time : int; seq : int }

type index
(** Lazily-built lookup tables over the event list: per-[(p, m)]
    delivery seqs keyed by flat [p*M + m] ints, per-process delivery
    orders, per-message invoke/first-delivery seqs, the invoked-message
    list and, from the first {!phase_history} query on, phase
    histories. Derived purely from [events], so it never changes an
    answer — it only replaces the per-query O(|events|) scans with O(1)
    lookups. *)

type t = {
  events : event list;  (** in execution (sequence) order *)
  n : int;  (** number of processes *)
  mutable index : index option;
      (** memoized by the accessors; always [None] in a fresh trace *)
}

val make : n:int -> event list -> t
(** A trace over [events] (execution order) with an unbuilt index.
    Event process/message ids must be non-negative (they are array
    indices in the lookup tables), and so must sequence numbers: the
    first query that builds the index raises [Invalid_argument] on a
    negative seq. *)

val pp_event : Format.formatter -> event -> unit

val deliveries : t -> (int * int * int * int) list
(** [(p, m, time, seq)] for every delivery, in execution order. *)

val delivery_order : t -> int -> int list
(** Messages delivered at a process, oldest first. *)

val delivered_at : t -> p:int -> m:int -> bool

val delivery_seq : t -> p:int -> m:int -> int option
(** Sequence number of the delivery of [m] at [p], if any. *)

val first_delivery_seq : t -> m:int -> int option
(** Sequence number of the earliest delivery of [m] system-wide. *)

val invoke_seq : t -> m:int -> int option

val invoke_time : t -> m:int -> int option
(** Tick of the first [Invoke] of [m], if any — the start of the
    message's latency interval (see [Amcast_loadgen.Latency]). *)

val invoked : t -> int list
(** Ids of messages whose [multicast] was invoked, in order. *)

val phase_history : t -> p:int -> m:int -> phase list
(** Successive phases recorded at [p] for [m], oldest first (excluding
    the implicit initial [Start]). *)
