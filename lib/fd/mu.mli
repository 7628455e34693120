(** The candidate failure detector
    [μ = (∧_{g,h∈G} Σ_{g∩h}) ∧ (∧_{g∈G} Ω_g) ∧ γ] (§3), bundled with the
    strengthenings used by the paper's variations:
    [∧_{g,h} 1^{g∩h}] for strict multicast (§6.1) and
    [∧_{g,h} Ω_{g∩h}] for strongly genuine multicast (§6.2).

    Components are exposed as closures so that experiments can ablate a
    single component (e.g. replace γ with a lying detector) while
    keeping the rest intact. *)

type t = {
  topo : Topology.t;
  families : Topology.family list;  (** the cyclic families [F] *)
  sigma : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> Pset.t option;
      (** [sigma g h p t]: output of [Σ_{g∩h}] (with [sigma g g] = [Σ_g]). *)
  omega : Topology.gid -> int -> Failure_pattern.time -> int option;
      (** [omega g p t]: output of [Ω_g]. *)
  omega_inter : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> int option;
      (** [omega_inter g h p t]: output of [Ω_{g∩h}] (§6.2 strengthening). *)
  gamma : int -> Failure_pattern.time -> Topology.family list;
      (** [gamma p t]: families output by γ at [p]. *)
  gamma_groups : int -> Failure_pattern.time -> Topology.gid -> Topology.gid list;
      (** The derived [γ(g)] notation of §3. *)
  indicator : Topology.gid -> Topology.gid -> int -> Failure_pattern.time -> bool option;
      (** [indicator g h p t]: output of [1^{g∩h}] (§6.1 strengthening). *)
  settle : Failure_pattern.time;
      (** A tick from which no component's output changes. The bundle's
          builder sets it; runners and the explorer read it instead of
          bounding detector delays themselves. *)
}

val make :
  ?max_delay:int ->
  seed:int ->
  Topology.t ->
  Failure_pattern.t ->
  t
(** Build valid histories of every component for the given topology and
    failure pattern. [max_delay] (default [5]) bounds the detection
    latency of γ and [1^{g∩h}]; Ω is stable from tick 0. [settle] is 0
    without crashes, else the last crash plus [max_delay]. *)

val with_gamma :
  t ->
  settle:Failure_pattern.time ->
  (int -> Failure_pattern.time -> Topology.family list) ->
  t
(** Replace γ (and the derived [gamma_groups]) by a history constant
    from [settle] on; the bundle's [settle] becomes the later tick. *)

val gamma_always : t -> t
(** A γ that never excludes any family: accurate but not complete.
    Starves progress when a cyclic family is faulty. *)

val gamma_lying : t -> t
(** A γ that outputs no family at all: complete but wildly inaccurate
    (it declares correct families faulty). Used to witness that
    accuracy of γ is load-bearing for the ordering property. *)
