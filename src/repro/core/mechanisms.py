"""The scheduler's extension mechanisms (configurations F–J).

:class:`~repro.core.scheduler.WindowScheduler` runs the paper's machine
(configurations A–E) in a base engine and binds each of these
mechanisms only when the configuration enables it.  A mechanism attaches through
the *seams* named in :data:`SEAMS` — hooks the engine calls at the
points the sanitizer's ``on_*`` hooks already name — and recovers from
misspeculation through the engine's one squash/replay primitive and
event heap.  docs/MODEL.md ("Scheduler structure") describes each seam.
"""

from collections import deque
from heapq import heappush

from ..memdep import FLUSH_PENALTY, MDPT, MemDepStats
from ..memdep.mdpt import DEFAULT_ENTRIES, DEFAULT_STORE_SET
from ..trace.records import BRC, LD, ST
from .arcs import KIND_ADDR, KIND_OTHER
from .branchspecstats import BranchSpecStats
from .config import VALUE_SPEC_REPLAY
from .daestats import DAEStats
from .vspecstats import ValueSpecStats


#: Seam names, in the order :func:`bind_seams` returns their hooks.  The
#: last two are containers, not hooks: ``unverified`` holds positions
#: whose completion is withheld, ``outstanding`` keeps the run going
#: while it is non-empty.
SEAMS = ("route", "memory_arc", "gathered", "arc", "merge",
         "entered", "order", "waive", "issued", "release", "reclaim",
         "notified", "fire", "unverified", "outstanding")


def _chain(hooks):
    def chained(*args):
        for hook in hooks:
            result = hook(*args)
            if result:
                return result
        return None
    return chained


def bind_seams(mechanisms):
    """The hook bound at each of :data:`SEAMS` (``None`` where no
    mechanism binds one).  A seam several mechanisms bind calls them in
    order and returns the first truthy result."""
    found = {}
    for mechanism in mechanisms:
        for name, hook in mechanism.seams().items():
            found.setdefault(name, []).append(hook)
    hooks = []
    for name in SEAMS:
        bound = found.get(name)
        if bound is not None and len(bound) > 1:
            bound = [_chain(bound)]
        hooks.append(bound[0] if bound is not None else None)
    return hooks


class Mechanism:
    """One extension mechanism for one scheduler run.  It receives the
    engine's per-run state — static columns, per-position schedule,
    dependence bookkeeping, event heap and the squash/replay primitive —
    as attributes, and ``seams()`` maps each seam it binds to its hook;
    ``stats`` lands on the ``SimResult`` field ``field``."""

    field = None
    stats = None

    def __init__(self, engine):
        vars(self).update(vars(engine))


class MemoryOrder(Mechanism):
    """Realistic disambiguation (``mem_spec == "mdpt"``, configurations
    F/G).

    The load/store memory arc is dropped — loads issue speculatively
    past unresolved stores.  A load that issues before its producing
    store completes is a *certain* violation once the store executes:
    the load and its issued forward slice are squashed and replayed
    after a flush penalty, the MDPT (``repro.memdep``) learns the (load
    PC, store PC) pair, and promoted load PCs synchronize with the
    youngest matching in-flight store (MDST) at window entry instead of
    speculating.

    The forward slice is tracked by *taint*: every position carries the
    set of pending-violation loads upstream of it, so a violation
    squashes exactly the issued positions that consumed a value derived
    from the violating load.
    """

    field = "memdep"

    def __init__(self, engine):
        super().__init__(engine)
        config = self.scheduler.config
        self.mdpt = MDPT(entries=config.mdpt_entries or DEFAULT_ENTRIES,
                         store_set_size=config.mdpt_store_set
                         or DEFAULT_STORE_SET)
        self.stats = MemDepStats()
        self.true_store = {}        # load pos -> producing store pos (or -1)
        self.store_watch = {}       # store pos -> load positions to verify
        self.inflight_stores = {}   # store pc -> entered, uncompleted stores
        self.dep_record = {}        # pos -> timing-producer positions
        self.taint = {}             # pos -> pending-violation loads upstream
        self.slice_of = {}          # violating load -> issued tainted posns
        self.pending_violation = set()
        self.resolved = []          # (producer, kind) of the entering pos

    def seams(self):
        return {"memory_arc": self.memory_arc, "arc": self.arc,
                "merge": self.merge, "entered": self.entered,
                "order": self.order, "issued": self.verify,
                "notified": self.notified, "fire": self.fire,
                "outstanding": self.pending_violation}

    def _taint_from(self, dst, src):
        taint = self.taint
        t = taint.get(src)
        if t:
            cur = taint.get(dst)
            if cur is None:
                taint[dst] = set(t)
            else:
                cur |= t

    def _inflight(self, stores, now):
        """The entered, not-yet-completed positions among ``stores``."""
        issue_cycle = self.issue_cycle
        completion = self.completion
        return [sp for sp in stores
                if issue_cycle[sp] < 0 or completion[sp] > now]

    def _youngest_inflight(self, store_pcs, now):
        """Youngest entered, not-yet-completed store among the given
        store PCs (MDST synchronization target), or -1."""
        inflight_stores = self.inflight_stores
        best = -1
        for spc in store_pcs:
            plist = inflight_stores.get(spc)
            if not plist:
                continue
            keep = self._inflight(plist, now)
            if keep:
                inflight_stores[spc] = keep
                if keep[-1] > best:
                    best = keep[-1]
            else:
                del inflight_stores[spc]
        return best

    def memory_arc(self, i, s, store, arcs, now):
        """The perfect memory arc is dropped: the load issues
        speculatively.  A promoted MDPT entry instead synchronizes it
        with the youngest in-flight store of its predicted set, appended
        to ``arcs`` (a fresh list of the load's other arcs) in
        ``repro.core.arcs`` form."""
        stats = self.stats
        stats.loads += 1
        self.true_store[i] = store
        if store >= 0:
            stats.dependent += 1
            self.store_watch.setdefault(store, []).append(i)
        predicted = self.mdpt.store_set(self.pc_col[s])
        if predicted:
            sync = self._youngest_inflight(predicted, now)
            if sync >= 0:
                arcs.append((i - sync, KIND_OTHER, False, 1, False))
                stats.synchronized += 1
                if sync != store:
                    stats.false_syncs += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_mem_sync(i, sync)

    def arc(self, i, p, kind, now):
        # Every kept arc passes its producer's taint on; resolved arcs
        # are recorded for a replay.
        self._taint_from(i, p)
        if self.issue_cycle[p] >= 0:
            self.resolved.append((p, kind))

    def merge(self, i, p, kind):
        resolved = self.resolved
        for q in self.dep_record.get(p, ()):
            resolved.append((q, kind))

    def entered(self, i, pending, addr_dropped):
        """Record ``i``'s full timing-producer set: a squash replays the
        instruction against these positions."""
        taint = self.taint
        pending_violation = self.pending_violation
        consumers = self.consumers
        rec = {p for p, _ in pending}
        for p, kind in self.resolved:
            if addr_dropped and kind == KIND_ADDR:
                continue
            rec.add(p)
            # An issued producer can still be squashed while it is
            # tainted or awaiting a violation; keep a consumer edge so
            # this instruction re-blocks if that happens.
            if taint.get(p) or p in pending_violation:
                consumers.setdefault(p, []).append((i, kind))
        self.dep_record[i] = tuple(rec)
        self.resolved = []

    def order(self, i, s, cls, now):
        if cls == ST:
            pc = self.pc_col[s]
            inflight_stores = self.inflight_stores
            plist = inflight_stores.setdefault(pc, [])
            plist.append(i)
            if len(plist) > 32:
                inflight_stores[pc] = self._inflight(plist, now)

    def notified(self, p, plist):
        """``p``'s consumers inherit its taint as they wake."""
        t = self.taint.get(p)
        if t or p in self.pending_violation:
            # p may yet be squashed: keep its consumer list so the
            # squash can re-block unissued consumers.
            self.consumers[p] = plist
        if t:
            pend_addr = self.pend_addr
            pend_other = self.pend_other
            for c, kind in plist:
                wait = (pend_addr if kind == KIND_ADDR
                        else pend_other).get(c)
                if wait is not None and p in wait:
                    self._taint_from(c, p)

    def verify(self, pos, now):
        """At issue: prune/propagate taint, verify loads against their
        producing store, and re-verify watched loads when a store
        (re-)issues."""
        pending_violation = self.pending_violation
        issue_cycle = self.issue_cycle
        completion = self.completion
        t = self.taint.get(pos)
        if t:
            t &= pending_violation
            if t:
                for lv in t:
                    self.slice_of[lv].add(pos)
            else:
                del self.taint[pos]
        cls = self.cls_col[self.sidx[pos]]
        if cls == LD:
            ts = self.true_store.get(pos, -1)
            if ts >= 0 and (issue_cycle[ts] < 0 or completion[ts] > now):
                # Issued past the producing store: a certain violation
                # once the store executes.
                self._mark_violation(pos, ts, now)
                if issue_cycle[ts] >= 0:
                    heappush(self.events, (completion[ts], pos))
        elif cls == ST:
            watchers = self.store_watch.get(pos)
            if watchers:
                comp = completion[pos]
                for lw in watchers:
                    lc = issue_cycle[lw]
                    if lc < 0 or lc >= comp:
                        continue
                    if lw not in pending_violation:
                        self._mark_violation(lw, pos, now)
                    heappush(self.events, (comp, lw))

    def _mark_violation(self, load, store, now):
        self.pending_violation.add(load)
        self.slice_of.setdefault(load, set()).add(load)
        t = self.taint.get(load)
        if t is None:
            self.taint[load] = {load}
        else:
            t.add(load)
        if self.sanitizer is not None:
            self.sanitizer.on_mem_speculate(load, store, now)

    def fire(self, when, load, now):
        """A memory-order violation event of ``load`` matured."""
        if load not in self.pending_violation:
            return
        store = self.true_store[load]
        if self.issue_cycle[store] < 0:
            # The store itself was squashed; its re-issue re-arms the
            # event via the store watch list.
            return
        comp = self.completion[store]
        if comp > now:
            heappush(self.events, (comp, load))
            return
        self._violation(load, store, comp)

    def _violation(self, load, store, when):
        """Squash the violating load and its issued forward slice;
        replay everything after the flush penalty, resynchronized with
        the store that was violated."""
        issue_cycle = self.issue_cycle
        eliminated = self.eliminated
        pending_violation = self.pending_violation
        taint = self.taint
        san = self.sanitizer
        load_pc = self.pc_col[self.sidx[load]]
        store_pc = self.pc_col[self.sidx[store]]
        self.mdpt.train(load_pc, store_pc)
        members = sorted(
            p for p in self.slice_of.get(load, ())
            if issue_cycle[p] >= 0 and p not in eliminated)
        self.stats.record_violation(load_pc, store_pc, len(members),
                                    FLUSH_PENALTY)
        if san is not None:
            san.on_violation(load, store, when)
        member_set = set(members)
        for p in members:
            pending_violation.discard(p)
        for p in members:
            self.squash(p)
            if san is not None:
                san.on_squash(p, when)
            self.slice_of.pop(p, None)
            t = taint.get(p)
            if t:
                t &= pending_violation
                if not t:
                    del taint[p]
        for p in members:
            deps = list(self.dep_record.get(p, ()))
            if self.cls_col[self.sidx[p]] == LD:
                ts = self.true_store.get(p, -1)
                if ts >= 0:
                    # Resynchronize the replayed load with its true
                    # store so it cannot re-violate the same arc.
                    deps.append(ts)
            self.replay(p, when, deps)
            # Unissued consumers that folded p's old completion into
            # their bound must re-block on the replay.
            for c, kind in self.consumers.get(p, ()):
                if c in member_set or c in eliminated \
                        or issue_cycle[c] >= 0:
                    continue
                target = self.pend_addr if kind == KIND_ADDR \
                    else self.pend_other
                wait = target.get(c)
                if wait is None:
                    target[c] = {p}
                else:
                    wait.add(p)


class ValueSpeculation(Mechanism):
    """Result-value speculation (``config.value_spec``).

    A consumer of a load whose value prediction is *confident* drops the
    dependence arc — for free when the prediction is correct.  The mode
    decides what a wrong confident prediction does:

    - oracle (``value_spec=True``, the Figure 1.d extension exhibit):
      the machine magically knows, so the consumer keeps its arc and
      waits — no misprediction cost, no statistics;
    - replay (``value_spec == "replay"``, configurations I/J): the
      consumer drops the arc anyway and may issue on the bad value.
      When the load completes (verification) every such consumer is
      squashed and replayed with the architectural value after the
      flush penalty.  A speculatively-issued consumer withholds its
      completion from its own consumers until the replay, so bad values
      never propagate un-squashably; a wrong-predicted load that already
      completed merely re-imposes the arc (the consumer waits — no
      squash).
    """

    field = "value_spec"

    def __init__(self, engine):
        super().__init__(engine)
        prediction = self.scheduler.value_prediction
        self.vp_attempted = prediction.attempted
        self.vp_correct = prediction.correct
        if self.scheduler.config.value_spec == VALUE_SPEC_REPLAY:
            self.stats = ValueSpecStats()
        self.wrong = {}     # consumer -> wrong-predicted load producers
        self.watch = {}     # load -> [(consumer, kind)] riding on it

    def seams(self):
        if self.stats is None:
            return {"arc": self.arc}
        return {"arc": self.arc, "issued": self.issued,
                "fire": self.verify, "unverified": self.wrong,
                "outstanding": self.wrong}

    def arc(self, i, p, kind, now):
        if not self.vp_attempted.get(p, False) \
                or self.cls_col[self.sidx[p]] != LD:
            return False
        stats = self.stats
        san = self.sanitizer
        if self.vp_correct.get(p, False):
            # The consumer uses the predicted load value and does not
            # wait for the load at all; the load itself still executes
            # to verify the prediction.
            if stats is not None:
                stats.bypassed += 1
            if san is not None:
                san.on_value_bypass(i, p, kind)
            return True
        if stats is None:
            return False
        wrong = self.wrong
        issue_cycle = self.issue_cycle
        if issue_cycle[p] >= 0 and self.completion[p] <= now \
                and not wrong.get(p):
            # The load already completed and verified: the misprediction
            # was caught before this consumer existed, so it reads the
            # architectural value like any resolved arc.
            stats.late += 1
            return False
        # Ride the bad value; the load's verification squashes and
        # replays every consumer registered on the watch list.
        stats.speculated += 1
        wrong.setdefault(i, set()).add(p)
        self.watch.setdefault(p, []).append((i, kind))
        if issue_cycle[p] >= 0 and not wrong.get(p):
            heappush(self.events, (self.completion[p], p))
        if san is not None:
            san.on_value_speculate(i, p, kind)
        return True

    def issued(self, pos, cycle):
        if pos in self.replaying:
            self.stats.replays += 1
        wrong = self.wrong.get(pos)
        if not wrong and self.watch.get(pos) \
                and self.cls_col[self.sidx[pos]] == LD:
            # Architectural completion scheduled: arm the verification
            # event for the riders.
            heappush(self.events, (self.completion[pos], pos))
        return bool(wrong)

    def verify(self, when, p, now):
        """Load ``p``'s verification matured at ``when``: squash issued
        consumers that rode the wrong prediction and schedule their
        replay; release unissued ones to wait for the architectural
        value (no penalty: nothing was undone)."""
        issue_cycle = self.issue_cycle
        eliminated = self.eliminated
        replaying = self.replaying
        bound_addr = self.bound_addr
        bound_other = self.bound_other
        vspec_wrong = self.wrong
        if p in eliminated or issue_cycle[p] < 0 \
                or self.completion[p] != when or vspec_wrong.get(p):
            return      # stale: squashed, re-timed, or the load itself
                        # is still speculative
        for w, kind in self.watch.pop(p, ()):
            if w in eliminated:
                continue
            wrong = vspec_wrong.get(w)
            if wrong is None or p not in wrong:
                continue
            wrong.discard(p)
            if issue_cycle[w] >= 0 and w not in replaying:
                # Issued on the bad value: squash exactly once.
                self.squash(w)
                self.stats.squashes += 1
                if self.sanitizer is not None:
                    self.sanitizer.on_value_squash(w, p, now)
            if w in replaying:
                if not wrong:
                    del vspec_wrong[w]
                    self.replay(w, when)
            else:
                # Never issued: the dropped arc re-materializes — fold
                # the load's completion into the bound and let the
                # consumer wait like any resolved arc.
                if kind == KIND_ADDR:
                    if when > bound_addr[w]:
                        bound_addr[w] = when
                elif when > bound_other[w]:
                    bound_other[w] = when
                if not wrong:
                    del vspec_wrong[w]
                    if w not in self.pend_addr \
                            and w not in self.pend_other:
                        ba = bound_addr[w]
                        bo = bound_other[w]
                        heappush(self.future_heap,
                                 (ba if ba > bo else bo, w))


class DecoupledStreams(Mechanism):
    """Decoupled access/execute (``config.dae``, configuration H).

    Given a static :class:`~repro.lint.dae.DAEPlan`, members of a clean
    loop's access slice may enter a second *access window* (same
    capacity) when the main window is full, letting address computation
    and loads run ahead; each boundary load pushes its value into a
    per-loop bounded FIFO queue, popped when its first execute-side
    consumer issues (or reclaimed when the value is architecturally
    dead).  A boundary load that finds its queue full stays coupled
    (enters the main window, counted as a ``full_stall``).  Dependence
    timing is unchanged — the queues and the access window only relax
    *window occupancy*, which is what decoupling buys: the paper's limit
    machine never starves loads behind a full window, a DAE machine need
    not either.
    """

    field = "dae"

    def __init__(self, engine):
        super().__init__(engine)
        plan = self.scheduler.dae_plan
        self.stats = DAEStats()
        self.access_of = plan.access_of
        self.boundary_of = plan.boundary_of
        self.body_of = plan.body_of
        self.chase_of = plan.chase_of
        self.body_loads = plan.body_loads
        self.capacity = plan.capacity
        self.queues = {h: deque() for h in plan.clean}
        self.queue_of = {}      # live queue entry (load pos) -> header
        self.delivered = set()  # entries consumed, awaiting FIFO drain
        self.popper = {}        # entry pos -> execute consumer that pops
        self.pop_on_issue = {}  # consumer pos -> [entry positions]
        self.bypassed = set()   # positions occupying the access window
        self.last_writer = [-1] * 32    # register -> last entered writer
        self.access_count = 0
        self.run_loop = -1      # header of the current dynamic loop run
        self.run_start = -1     # first position of the current run
        self.bypass = False     # routing of the entering position
        self.stall = -1         # >= 0: queue full, -2: access window full

    def seams(self):
        return {"route": self.route, "gathered": self.gathered,
                "order": self.order, "issued": self.issued,
                "release": self.release, "reclaim": self.reclaim}

    def route(self, i):
        """Access-slice members of clean loops bypass into the access
        window, boundary loads permitting queue headroom."""
        self.bypass = False
        self.stall = -1
        s = self.sidx[i]
        if self.access_of.get(s, -1) >= 0:
            header = self.boundary_of.get(s, -1)
            if header >= 0 \
                    and len(self.queues[header]) >= self.capacity[header]:
                self.stall = header     # stays coupled
            elif self.access_count < self.window_limit:
                if self.sanitizer is not None:
                    self.sanitizer.on_dae_bypass(i)
                self.bypass = True
            else:
                self.stall = -2         # degrades to the window
        return self.bypass

    def gathered(self, i, s, arcs, now):
        """Run tracking and chase accounting: a dynamic *run* is a
        maximal stretch of one loop's body members; an arc from a load
        of the same loop, produced within the run, into an access-slice
        member is a chase dependence — statically-clean loops must never
        record one."""
        header = self.body_of.get(s, -1)
        if header != self.run_loop:
            self.run_loop = header
            self.run_start = i
            if header >= 0:
                self.stats.loop(header).runs += 1
        run_loop = self.run_loop
        if run_loop >= 0 and self.chase_of.get(s, -1) == run_loop:
            watched = self.body_loads[run_loop]
            stats = self.stats.loop(run_loop)
            for distance, _kind, _coll, _uses, _same in arcs:
                p = i - distance
                if p >= self.run_start and self.sidx[p] in watched:
                    stats.chase_deps += 1
                    if self.issue_cycle[p] < 0 or self.completion[p] > now:
                        stats.chase_stalls += 1
        queue_of = self.queue_of
        for distance, _kind, _coll, _uses, _same in arcs:
            p = i - distance
            if p in queue_of and p not in self.delivered \
                    and p not in self.popper:
                self.popper[p] = i
                self.pop_on_issue.setdefault(i, []).append(p)

    def order(self, i, s, cls, now):
        """Account the routing of entered position ``i``, reclaim the
        queued value it overwrites and enqueue it if it is a boundary
        load with queue headroom."""
        stats = self.stats
        if self.bypass:
            self.bypassed.add(i)
            self.access_count += 1
            stats.bypassed += 1
        elif self.stall >= 0:
            stats.loop(self.stall).full_stalls += 1
        elif self.stall == -2:
            stats.degraded += 1
        # Overwritten before any execute-side consumer read it: the
        # queued value is dead — reclaim its slot.
        dest = self.dest_col[s]
        if dest >= 0:
            old = self.last_writer[dest]
            self.last_writer[dest] = i
            if old >= 0:
                self.reclaim(old, now)
        header = self.boundary_of.get(s, -1)
        if header >= 0 \
                and len(self.queues[header]) < self.capacity[header]:
            self._enqueue(header, i, now)

    def issued(self, pos, cycle):
        for p in self.pop_on_issue.pop(pos, ()):
            self._deliver(p, pos, cycle)

    def release(self, pos):
        if pos in self.bypassed:
            self.bypassed.discard(pos)
            self.access_count -= 1
            return True
        return False

    def reclaim(self, p, now):
        if p in self.queue_of and p not in self.delivered \
                and p not in self.popper:
            self._deliver(p, -1, now)

    def _enqueue(self, header, i, now):
        queue = self.queues[header]
        queue.append(i)
        self.queue_of[i] = header
        stats = self.stats.loop(header)
        stats.enqueued += 1
        if len(queue) > stats.peak:
            stats.peak = len(queue)
        if self.sanitizer is not None:
            self.sanitizer.on_dae_enqueue(header, i, now)

    def _deliver(self, p, consumer, now):
        """Mark queue entry ``p`` consumed (``consumer`` issued) or dead
        (``consumer == -1``) and drain delivered entries from the queue
        head, preserving FIFO order."""
        header = self.queue_of.get(p)
        delivered = self.delivered
        if header is None or p in delivered:
            return
        delivered.add(p)
        san = self.sanitizer
        if san is not None:
            san.on_dae_deliver(p, consumer, now)
        queue = self.queues[header]
        stats = self.stats.loop(header)
        while queue and queue[0] in delivered:
            head = queue.popleft()
            delivered.discard(head)
            del self.queue_of[head]
            stats.popped += 1
            if san is not None:
                san.on_dae_pop(header, head, now)


class BranchPlanResolution(Mechanism):
    """Load-driven exit-branch prediction (``config.branch_spec``,
    configuration J).

    Given a static :class:`~repro.lint.branchflow.BranchPlan`, a
    *mispredicted* plan exit branch whose governing load's most recent
    dynamic instance was confidently and correctly value-predicted
    resolves at the load's address-generation time — the predicted
    value determines the branch direction before fetch reaches the
    branch, so the fetch fence is waived (Sridhar et al.'s LDBP,
    PAPERS.md).  An unpredicted or wrongly-predicted governing load
    leaves the fence in place.
    """

    field = "branch_spec"

    def __init__(self, engine):
        super().__init__(engine)
        prediction = self.scheduler.value_prediction
        self.vp_attempted = prediction.attempted
        self.vp_correct = prediction.correct
        self.stats = BranchSpecStats()
        self.resolves = self.scheduler.branch_plan.resolves
        self.governing = set(self.resolves.values())
        self.last_load_pos = {}     # governing-load sidx -> latest position

    def seams(self):
        return {"order": self.order, "waive": self.waive}

    def order(self, i, s, cls, now):
        if cls == LD:
            if s in self.governing:
                self.last_load_pos[s] = i
        elif cls == BRC and s in self.resolves:
            self.stats.exit_branches += 1

    def waive(self, i, s, now):
        if s not in self.resolves:
            return False
        p = self.last_load_pos.get(self.resolves[s], -1)
        if p >= 0 and self.vp_attempted.get(p, False) \
                and self.vp_correct.get(p, False):
            self.stats.early_resolved += 1
            if self.sanitizer is not None:
                self.sanitizer.on_branch_resolve(i, p, now)
            return True
        self.stats.missed += 1
        return False
