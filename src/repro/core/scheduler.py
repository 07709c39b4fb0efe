"""Windowed out-of-order issue scheduler (Wall-style limit model).

Semantics (paper Section 4):

- Instructions are fetched in program order into a window of fixed size;
  the window is kept full — an instruction enters as soon as a slot frees.
- Each cycle, up to ``issue_width`` ready instructions issue, oldest
  first.  An instruction is ready when every true dependence (register,
  condition-code, memory through same-address stores) has its value
  available: producers complete ``latency`` cycles after issue.
- Renaming is ideal (no false dependences) and memory disambiguation
  perfect (a load depends only on the most recent prior store to the same
  word).
- Conditional branches use precomputed prediction outcomes; after a
  *mispredicted* branch enters the window, fetch stalls until the branch
  issues, which enforces "instructions following a branch can not issue
  before or during the cycle the branch instruction issues".
- Load-speculation: a load whose address dependences are all resolved by
  the time it enters the window is *ready*.  A not-ready load may use a
  predicted address (per the precomputed two-delta outcomes): a correct
  prediction removes its address-generation dependences; a wrong or
  unavailable prediction leaves timing unchanged but is tallied.
- Collapsing: when an instruction enters the window, each still-unissued
  producer of a collapsible expression operand may be merged into the
  consumer's dependence expression (subject to
  :class:`~repro.collapse.rules.CollapseRules`); the consumer then inherits
  the producer's own unresolved sources instead of waiting for the
  producer.

The extension machines (configurations F–J) add mechanisms from
:mod:`repro.core.mechanisms` — MDPT memory order, value speculation,
decoupled access/execute queues and load-driven branch plans — which
attach at named seams of the engine (docs/MODEL.md, "Scheduler
structure").  A configuration that enables none of them binds none, and
every seam stays ``None``.

The engine is event-driven: idle stretches are skipped by jumping to the
next dependence-resolution event, which keeps the 2048-wide/4096-window
configuration tractable in pure Python.
"""

import heapq
from types import SimpleNamespace

from ..collapse.classify import merge_verdict
from ..collapse.stats import CollapseStats
from ..memdep import FLUSH_PENALTY
from ..trace.records import BRC, CTI, LD
from .arcs import KIND_ADDR, KIND_OTHER, arc_table
from .config import LOAD_SPEC_IDEAL, LOAD_SPEC_REAL, MEM_SPEC_MDPT
from .elimination import compute_sole_readers
from .mechanisms import (
    BranchPlanResolution,
    DecoupledStreams,
    MemoryOrder,
    ValueSpeculation,
    bind_seams,
)
from .results import (
    LOAD_NOT_PREDICTED,
    LOAD_PRED_CORRECT,
    LOAD_PRED_INCORRECT,
    LOAD_READY,
    LoadStats,
    SimResult,
)


class WindowScheduler:
    """Schedules one trace on one machine configuration.

    Parameters
    ----------
    trace: DynTrace
    config: MachineConfig
    branch_result: BranchRunResult
        Precomputed conditional-branch outcomes (program order).
    load_prediction: LoadPredictionResult or None
        Precomputed two-delta outcomes; required when
        ``config.load_spec == "real"``.
    value_prediction: ValuePredictionResult or None
        Precomputed value-predictor outcomes; required when
        ``config.value_spec`` is set.
    sanitizer: SchedulerSanitizer or None
        Optional invariant checker (see ``repro.lint.sanitize``); it is
        notified of window entry, every dependence relaxation, and every
        issue, and re-checks the schedule from independent bookkeeping.
    dae_plan: DAEPlan or None
        Static access/execute slices (``repro.lint.dae``) for a
        ``config.dae`` machine; without a plan a DAE configuration
        degenerates to its base machine (nothing decouples) and the
        result carries no DAE statistics.
    branch_plan: BranchPlan or None
        Static load-driven exit-branch contract
        (``repro.lint.branchflow``) for a ``config.branch_spec``
        machine; without a plan a configuration-J machine degenerates
        to config I (no fences are waived) and the result carries no
        branch-speculation statistics.
    """

    def __init__(self, trace, config, branch_result, load_prediction=None,
                 value_prediction=None, sanitizer=None, dae_plan=None,
                 branch_plan=None):
        if config.load_spec == LOAD_SPEC_REAL and load_prediction is None:
            raise ValueError("real load-speculation needs predictor output")
        if config.value_spec and value_prediction is None:
            raise ValueError("value speculation needs a value-prediction "
                             "pass (repro.vpred)")
        if dae_plan is not None and config.dae:
            dae_plan.validate(trace.static)
        if branch_plan is not None and config.branch_spec:
            branch_plan.validate(trace.static)
        self.trace = trace
        self.config = config
        self.branch_result = branch_result
        self.load_prediction = load_prediction
        self.value_prediction = value_prediction
        self.sanitizer = sanitizer
        self.dae_plan = dae_plan if config.dae else None
        self.branch_plan = branch_plan if config.branch_spec else None
        # Only the mechanisms this machine enables are bound; the value
        # mechanism comes first so an oracle-dropped arc never reaches
        # the memory-order bookkeeping.
        self.mechanisms = tuple(mechanism for mechanism, enabled in (
            (ValueSpeculation, config.value_spec),
            (MemoryOrder, config.mem_spec == MEM_SPEC_MDPT),
            (DecoupledStreams, self.dae_plan is not None),
            (BranchPlanResolution, self.branch_plan is not None))
            if enabled)

    # ------------------------------------------------------------------

    def run(self):
        trace = self.trace
        config = self.config
        static = trace.static
        n = len(trace)
        # Every position's producer arcs, shared by all runs of the
        # trace (repro.core.arcs).
        arc_rows = arc_table(trace)

        # Static columns (localised for speed).
        sidx = trace.sidx
        cls_col = static.cls
        lat_col = static.lat
        sig_col = static.sig
        leaves_col = static.leaves
        zeros_col = static.zeros

        mispredicted = self.branch_result.mispredicted if self.branch_result \
            else {}
        load_spec = config.load_spec
        if load_spec == LOAD_SPEC_REAL:
            lp_attempted = self.load_prediction.attempted
            lp_correct = self.load_prediction.correct
        else:
            lp_attempted = lp_correct = None

        rules = config.collapse_rules
        collapsing = rules is not None
        collapse_stats = CollapseStats()
        load_stats = LoadStats()
        load_counts = load_stats.counts
        if collapsing:
            # Consecutive-only is a reach of one; the merge verdict of a
            # (size, leaves, raw) triple is memoised for the run.
            reach = 1 if not rules.allow_nonconsecutive \
                else rules.max_distance or n
            cross_block = rules.allow_cross_block
            verdicts = {}
            category_counts = collapse_stats.category_counts
            distance_counts = collapse_stats.distance_counts
            pair_signatures = collapse_stats.pair_signatures
            triple_signatures = collapse_stats.triple_signatures
            collapsed_add = collapse_stats.collapsed_positions.update

        node_elim = collapsing and config.node_elimination
        sole_reader = compute_sole_readers(trace) if node_elim else None
        eliminated = set()

        width = config.issue_width
        window_limit = config.window_size
        fetch_break = config.fetch_taken_break
        taken_col = trace.taken
        san = self.sanitizer

        # Per-position simulation state.
        issue_cycle = [-1] * n
        completion = [0] * n
        pend_addr = {}          # pos -> set of unissued producer positions
        pend_other = {}
        bound_addr = [0] * n    # max completion over resolved deps; 0
        bound_other = [0] * n   # outside the window
        consumers = {}          # producer pos -> list of (consumer, kind)
        groups = {}             # pos -> (members, leaves, raw_leaves)

        ready_heap = []         # positions ready to issue now
        future_heap = []        # (cycle value becomes available, position)
        events = []             # (cycle, position) mechanism events
        replaying = set()       # squashed, awaiting re-issue

        fetched = 0
        window_count = 0
        issued = 0
        block_fetch = False
        fence_pos = -1          # the mispredicted branch blocking fetch
        cycle = 0
        last_issue = 0

        heappush = heapq.heappush
        heappop = heapq.heappop

        # --------------------------------------------------------------
        # The squash/replay primitive every recovering mechanism uses.

        def squash(p):
            """Undo ``p``'s issue; its window slot stays held for the
            replay."""
            nonlocal issued
            issue_cycle[p] = -1
            completion[p] = 0
            replaying.add(p)
            issued -= 1

        def replay(p, when, deps=()):
            """Re-issue squashed ``p`` no earlier than ``FLUSH_PENALTY``
            cycles after ``when`` and the completion of every issued
            position in ``deps``; unissued ones become its waits and
            eliminated ones are ignored."""
            waits = set()
            base = when + FLUSH_PENALTY
            for q in deps:
                if q in eliminated:
                    continue
                if issue_cycle[q] < 0:
                    waits.add(q)
                elif completion[q] > base:
                    base = completion[q]
            pend_addr.pop(p, None)
            bound_addr[p] = 0
            bound_other[p] = base
            if waits:
                pend_other[p] = waits
                for q in waits:
                    consumers.setdefault(q, []).append((p, KIND_OTHER))
            else:
                pend_other.pop(p, None)
                heappush(future_heap, (base, p))

        engine = SimpleNamespace(
            scheduler=self, sanitizer=san, sidx=sidx, cls_col=cls_col,
            pc_col=static.pc, dest_col=static.dest,
            window_limit=window_limit,
            issue_cycle=issue_cycle, completion=completion,
            pend_addr=pend_addr, pend_other=pend_other,
            bound_addr=bound_addr, bound_other=bound_other,
            consumers=consumers, future_heap=future_heap, events=events,
            eliminated=eliminated, replaying=replaying, squash=squash,
            replay=replay)
        mechanisms = [mechanism(engine) for mechanism in self.mechanisms]
        # ``unverified``: positions issued on an unverified value, whose
        # completion is withheld from consumers (they count as pending)
        (route, memory_arc, gathered, arc_hook, merge_hook,
         entered, on_order, waive, issued_hook, release, reclaim, notified,
         fire, unverified, outstanding) = bind_seams(mechanisms)
        if outstanding is None:
            outstanding = ()
        revalidate = fire is not None
        edit_arcs = memory_arc is not None or gathered is not None

        # --------------------------------------------------------------
        def enter(i, now):
            nonlocal block_fetch, fence_pos, issued, window_count
            if san is not None:
                san.on_enter(i, now)
            s = sidx[i]
            cls = cls_col[s]
            arcs = arc_rows[i]
            if edit_arcs:
                # A seam edits a fresh list, never the shared row.
                arcs = list(arcs)
                if memory_arc is not None and cls == LD:
                    store = -1
                    if arcs and arcs[-1][1] == KIND_OTHER:
                        store = i - arcs.pop()[0]
                    memory_arc(i, s, store, arcs, now)
                if gathered is not None:
                    gathered(i, s, arcs, now)

            b_addr = 0
            b_other = 0
            pending = []        # (producer, kind) arcs kept as dependences
            elim_candidates = []
            if collapsing:
                # This instruction's collapse group: its members' trace
                # positions in program order and the expression's
                # zero-free and raw operand counts.
                members = (i,)
                leaves = leaves_col[s]
                raw = leaves + zeros_col[s]

            for distance, kind, arc_collapsible, uses, same_block in arcs:
                p = i - distance
                if arc_hook is not None and arc_hook(i, p, kind, now):
                    continue
                if issue_cycle[p] >= 0 \
                        and (unverified is None or p not in unverified):
                    comp = completion[p]
                    if kind == KIND_ADDR:
                        if comp > b_addr:
                            b_addr = comp
                    elif comp > b_other:
                        b_other = comp
                    continue
                # Producer still pending in the window.
                merged = False
                if collapsing and arc_collapsible:
                    # (a squashed producer left the group table at its
                    # first issue and can no longer merge; one riding an
                    # unverified value must not either: the merged group
                    # would inherit its optimistic bounds without
                    # inheriting its squash obligation)
                    pgroup = groups.get(p)
                    if pgroup is not None and distance <= reach and (
                            cross_block or same_block) \
                            and (unverified is None or p not in unverified):
                        p_members, p_leaves, p_raw = pgroup
                        key = (len(members) + len(p_members),
                               leaves - uses + uses * p_leaves,
                               raw - uses + uses * p_raw)
                        try:
                            category = verdicts[key]
                        except KeyError:
                            category = verdicts[key] = merge_verdict(
                                rules, *key)
                        if category is not None:
                            _, leaves, raw = key
                            if len(members) == 1:
                                # p's members all precede i
                                members = p_members + members
                            else:
                                members = tuple(sorted(
                                    set(members).union(p_members)))
                            if san is not None:
                                san.on_collapse(i, p, kind, *key)
                            collapse_stats.events += 1
                            category_counts[category] += 1
                            distance_counts[distance] += 1
                            collapsed_add(members)
                            if len(members) == 2:
                                pair_signatures[(sig_col[sidx[p]],
                                                 sig_col[s])] += 1
                            else:
                                triple_signatures[tuple(
                                    sig_col[sidx[m]] for m in members)] += 1
                            # Inherit the producer's unresolved state.
                            pb = bound_other[p]
                            if kind == KIND_ADDR:
                                if pb > b_addr:
                                    b_addr = pb
                            elif pb > b_other:
                                b_other = pb
                            for q in pend_other.get(p, ()):
                                pending.append((q, kind))
                            merged = True
                            if merge_hook is not None:
                                merge_hook(i, p, kind)
                            if node_elim and sole_reader[p] == i:
                                elim_candidates.append(p)
                if not merged:
                    pending.append((p, kind))

            # ---- load classification / speculation
            addr_dropped = False
            if cls == LD:
                addr_waits = b_addr > now
                if not addr_waits:
                    for _, kind in pending:
                        if kind == KIND_ADDR:
                            addr_waits = True
                            break
                if not addr_waits:
                    load_counts[LOAD_READY] += 1
                elif load_spec == LOAD_SPEC_IDEAL or (
                        load_spec == LOAD_SPEC_REAL
                        and lp_attempted.get(i, False)
                        and lp_correct.get(i, False)):
                    load_counts[LOAD_PRED_CORRECT] += 1
                    pending = [arc for arc in pending
                               if arc[1] != KIND_ADDR]
                    b_addr = 0
                    addr_dropped = True
                    if san is not None:
                        san.on_load_spec(i)
                elif load_spec == LOAD_SPEC_REAL \
                        and lp_attempted.get(i, False):
                    load_counts[LOAD_PRED_INCORRECT] += 1
                else:
                    load_counts[LOAD_NOT_PREDICTED] += 1

            # ---- node elimination (Figure 1.f extension): a collapsed
            # producer whose sole reader is this consumer never executes.
            # It must have no remaining arc to this consumer (e.g. a
            # store that collapsed the address register but still needs
            # the same register as data) and no registered consumers.
            if elim_candidates:
                still_needed = {p for p, _ in pending}
                for p in elim_candidates:
                    if p in eliminated or p in still_needed \
                            or consumers.get(p):
                        continue
                    eliminated.add(p)
                    if san is not None:
                        san.on_eliminate(p, now)
                    collapse_stats.eliminated += 1
                    issue_cycle[p] = now
                    completion[p] = now
                    pend_addr.pop(p, None)
                    pend_other.pop(p, None)
                    bound_addr[p] = 0
                    bound_other[p] = 0
                    groups.pop(p, None)
                    issued += 1
                    if release is None or not release(p):
                        window_count -= 1
                    if reclaim is not None:
                        reclaim(p, now)

            if entered is not None:
                entered(i, pending, addr_dropped)

            # ---- register remaining arcs; bounds are kept for every
            # unissued instruction because a later consumer may collapse
            # this one and must inherit its value-availability bound.
            bound_addr[i] = b_addr
            bound_other[i] = b_other
            if pending:
                p_addr = set()
                p_other = set()
                for p, kind in pending:
                    target = p_addr if kind == KIND_ADDR else p_other
                    if p in target:
                        continue
                    target.add(p)
                    consumers.setdefault(p, []).append((i, kind))
                if p_addr:
                    pend_addr[i] = p_addr
                if p_other:
                    pend_other[i] = p_other
            else:
                ready_at = b_addr if b_addr > b_other else b_other
                if ready_at <= now:
                    heappush(ready_heap, i)
                else:
                    heappush(future_heap, (ready_at, i))

            if collapsing:
                groups[i] = (members, leaves, raw)

            # ---- program-order update
            if on_order is not None:
                on_order(i, s, cls, now)
            if (cls == BRC or cls == CTI) and i in mispredicted \
                    and (waive is None or not waive(i, s, now)):
                block_fetch = True
                fence_pos = i

        # --------------------------------------------------------------
        while issued < n or outstanding:
            # Fill the window (kept full except behind a mispredicted,
            # still-unissued conditional branch; with fetch_taken_break,
            # at most one taken control transfer enters per cycle).  A
            # routing mechanism may place an instruction outside the
            # main window.
            while fetched < n and not block_fetch:
                position = fetched
                bypass = route is not None and route(position)
                if not bypass and window_count >= window_limit:
                    break
                enter(position, cycle)
                fetched += 1
                if not bypass:
                    window_count += 1
                if fetch_break and taken_col[position]:
                    cls = cls_col[sidx[position]]
                    if cls == BRC or cls == CTI:
                        break

            # Fire matured mechanism events (violations, verifications).
            if fire is not None:
                while events and events[0][0] <= cycle:
                    when, pos = heappop(events)
                    fire(when, pos, cycle)

            # Mature future events.
            while future_heap and future_heap[0][0] <= cycle:
                heappush(ready_heap, heappop(future_heap)[1])

            # Issue up to ``width`` oldest-ready instructions.
            issued_now = 0
            while issued_now < width and ready_heap:
                pos = heappop(ready_heap)
                if pos in eliminated:
                    # Eliminated after being scheduled: consumes nothing.
                    continue
                if revalidate:
                    # Squash/replay leaves stale heap entries behind;
                    # re-validate before issuing.
                    if issue_cycle[pos] >= 0:
                        continue
                    if pos in pend_addr or pos in pend_other:
                        continue
                    ba = bound_addr[pos]
                    bo = bound_other[pos]
                    ready_at = ba if ba > bo else bo
                    if ready_at > cycle:
                        heappush(future_heap, (ready_at, pos))
                        continue
                issue_cycle[pos] = cycle
                completion[pos] = cycle + lat_col[sidx[pos]]
                if san is not None:
                    san.on_issue(pos, cycle)
                issued += 1
                issued_now += 1
                withheld = issued_hook is not None \
                    and issued_hook(pos, cycle)
                if pos in replaying:
                    # A replay re-uses the window slot freed at its first
                    # issue; it does not occupy the window again.
                    replaying.discard(pos)
                elif release is None or not release(pos):
                    window_count -= 1
                last_issue = cycle
                if block_fetch and pos == fence_pos and not withheld:
                    # The blocking branch issued (non-speculatively);
                    # resume fetch next cycle.
                    block_fetch = False
                bound_addr[pos] = 0
                bound_other[pos] = 0
                if collapsing:
                    groups.pop(pos, None)
                if withheld:
                    continue
                # Wake the consumers waiting on pos.
                plist = consumers.pop(pos, None)
                if not plist:
                    continue
                if notified is not None:
                    notified(pos, plist)
                comp = completion[pos]
                for c, kind in plist:
                    if kind == KIND_ADDR:
                        wait = pend_addr.get(c)
                        if wait is None or pos not in wait:
                            continue
                        wait.discard(pos)
                        if not wait:
                            del pend_addr[c]
                        if comp > bound_addr[c]:
                            bound_addr[c] = comp
                    else:
                        wait = pend_other.get(c)
                        if wait is None or pos not in wait:
                            continue
                        wait.discard(pos)
                        if not wait:
                            del pend_other[c]
                        if comp > bound_other[c]:
                            bound_other[c] = comp
                    if c not in pend_addr and c not in pend_other:
                        ba = bound_addr[c]
                        bo = bound_other[c]
                        heappush(future_heap, (ba if ba > bo else bo, c))

            if issued_now:
                cycle += 1
            else:
                next_cycle = future_heap[0][0] if future_heap else None
                if events and (next_cycle is None
                               or events[0][0] < next_cycle):
                    next_cycle = events[0][0]
                if next_cycle is None:
                    cycle += 1
                elif fetch_break and fetched < n and not block_fetch \
                        and window_count < window_limit:
                    # Fetch proceeds one taken-branch block per cycle, so
                    # idle stretches cannot be skipped wholesale.
                    cycle += 1
                else:
                    cycle = next_cycle if next_cycle > cycle \
                        else cycle + 1

        collapse_stats.trace_length = n
        if san is not None:
            san.finish()
        return SimResult(
            config=config,
            trace_name=trace.name,
            instructions=n,
            cycles=last_issue + 1 if n else 0,
            loads=load_stats,
            collapse=collapse_stats,
            branch=self.branch_result,
            issue_cycles=issue_cycle,
            eliminated_positions=eliminated,
            **{mechanism.field: mechanism.stats
               for mechanism in mechanisms})
