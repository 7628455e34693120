(** Table 2 of the paper: the base invariants of Algorithm 1, checked
    over the per-tick log snapshots and the event trace of a run.

    Claims 2–8 are laws of the log object. They are inductive, so one
    walk over consecutive snapshot pairs checks them all (see {!all}).
    A log a tick left untouched costs one pointer comparison, and a log
    the tick only appended to or locked in place costs two passes over
    its lists. Any other changed log costs one pass per law plus a join
    by datum, which takes about one extra pass per entry the tick
    bumped, and a sort if the list is out of log order. Claims 9–15 are
    verified on the trace and the final state. Run the outcome with
    [~record_snapshots:true]. *)

type verdict = (unit, string) result

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
    key order, then its own entry order. A snapshot's keys are sorted
    and only the first binding of a key counts. A log whose newer list
    extends the older one in place is skipped: the lists are physically
    equal, as {!Log.snapshot} returns for a log a tick left untouched,
    or entry [i] of the older list is entry [i] of the newer one with
    the same datum and position, no entry locked in the older list is
    unlocked in the newer one, any further entries follow, and the
    newer list is in strict [<_L] order. An append of an absent datum
    and a bump that only locks give that shape. Any other changed log's
    entries are joined by datum, and claims 6–8 compare ranks under
    [<_L] instead of scanning entry pairs. The skip, the join and the
    ranks are exact when each datum appears at most once per log, which
    is the only shape [Log] produces; the lists need not be in log
    order.

    Claims 9–15 read the trace and the final state, and claims 9–13
    share one message index ({!Outcome_index}):

    - claim 9: messages with intersecting destinations that are both
      delivered are [↦]-related;
    - claim 10: a message in [LOG_{g∩h}] is addressed to [g] or to [h];
    - claim 11: two messages ordered by a log both address the log's
      groups;
    - claim 12: deliveries only happen at destination members;
    - claim 13: a delivered message is in the log of its destination
      group;
    - claim 14: a delivered message went through pending, commit and
      stable;
    - claim 15: phases only increase ({!claim15}). *)
