(** Table 2 of the paper: the base invariants of Algorithm 1, checked
    over the per-tick log snapshots and the event trace of a run.

    Claims 2–8 are laws of the log object. They are inductive, so one
    walk over consecutive snapshot pairs checks them all (see {!all}).
    Claims 9–15 are verified on the trace and the final state. Run the
    outcome with [~record_snapshots:true]. *)

type verdict = (unit, string) result

val claim9 : Runner.outcome -> verdict
(** Messages with intersecting destinations that are both delivered
    are [↦]-related. *)

val claim10 : Runner.outcome -> verdict
(** A message in [LOG_{g∩h}] is addressed to [g] or to [h]. *)

val claim11 : Runner.outcome -> verdict
(** Two messages ordered by a log both address the log's groups. *)

val claim12 : Runner.outcome -> verdict
(** Deliveries only happen at destination members. *)

val claim13 : Runner.outcome -> verdict
(** A delivered message is in the log of its destination group. *)

val claim14 : Runner.outcome -> verdict
(** A delivered message went through pending, commit and stable. *)

val claim15 : Runner.outcome -> verdict
(** Phases only increase. *)

val all : Runner.outcome -> (string * verdict) list
(** Every claim, ["claim 2"] to ["claim 15"], in order. Claims 2–8 are
    checked in one walk over consecutive snapshot pairs, the final state
    included:

    - claim 2: data never leave a log;
    - claim 3: positions never decrease;
    - claim 4: locks are permanent;
    - claim 5: a locked datum's position is frozen;
    - claim 6: order below a locked datum is stable: if [d] is locked
      and [d <_L d'], this persists;
    - claim 7: a datum appended after [d'] was locked sits above [d'];
    - claim 8: a locked datum acquires no new predecessors.

    Each of them reports the first failure met in pair order, then log
    key order, then its own entry order. Entries are looked up by datum,
    and a log whose entries are equal in both snapshots is skipped. Both
    are exact when each datum appears at most once per log, which is the
    only shape [Log] produces. *)
