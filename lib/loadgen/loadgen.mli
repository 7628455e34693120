(** Deterministic workload generators for the heavy-traffic engine.

    Every random draw flows through the caller's seeded {!Rng.t}, so a
    generated workload is a pure function of its parameters and the
    seed — replay, shrinking and the trace-identity suites work on
    generated traffic exactly as on hand-written scenarios. See
    DESIGN.md "Batching & group sharding". *)

val pick_group : Rng.t -> skew_pct:int -> Topology.t -> Topology.gid
(** Key-skewed destination choice: group of rank [i] (0-based) has
    Zipf weight [1 / (i + 1)^s] with [s = skew_pct / 100]. [0] is
    uniform; [100] the classic [s = 1] hot-group skew. *)

val open_loop :
  rng:Rng.t ->
  rate_pct:int ->
  skew_pct:int ->
  duration:int ->
  Topology.t ->
  Workload.t
(** Open-loop (arrival-rate) traffic: [rate_pct / 100] multicasts per
    tick on average for [duration] ticks — the whole part arrives every
    tick, the fractional remainder as a Bernoulli draw — destination
    groups skewed by [skew_pct], source uniform in the destination
    group (closed dissemination model). Message ids are [0 ..] in
    arrival order. Raises [Invalid_argument] if [rate_pct < 1],
    [skew_pct < 0] or [duration < 1]. *)
