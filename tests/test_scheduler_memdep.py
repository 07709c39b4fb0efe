"""Realistic memory disambiguation in the timing model (configs F/G).

Each test drives the scheduler's ``mdpt`` memory mode with a handcrafted
trace so one mechanism is visible at a time: speculative load issue,
violation detection and forward-slice squash, the flush penalty,
promotion into the MDPT, and MDST-style synchronization once promoted.
"""

from helpers import make_branch_result

from repro.collapse import CollapseRules
from repro.core import MachineConfig, WindowScheduler
from repro.core.simulator import make_sanitizer
from repro.memdep import FLUSH_PENALTY, PROMOTE_THRESHOLD
from repro.trace.records import TraceBuilder

WORD = 0x100


def sim_mem(trace, width=4, window=None, mem_spec="mdpt", collapse=None,
            sanitize=False, **geometry):
    config = MachineConfig(width, window_size=window,
                           collapse_rules=collapse, mem_spec=mem_spec,
                           **geometry)
    branch_result = make_branch_result(trace)
    sanitizer = make_sanitizer(trace, config, branch_result) \
        if sanitize else None
    return WindowScheduler(trace, config, branch_result,
                           sanitizer=sanitizer).run()


def delayed_store_then_load(consumers=1):
    """A store whose data arrives via a 3-add chain, then a load of the
    same word whose address is ready at window entry, then consumers.

    Perfect memory orders the load behind the store; the MDPT mode
    issues it speculatively and must detect the violation.
    """
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)              # 0
    builder.add(dest=1, src1=1, imm=True)              # 1
    builder.add(dest=1, src1=1, imm=True)              # 2
    builder.store(datasrc=1, addr_reg=8, addr=WORD)    # 3
    builder.load(dest=2, addr_reg=9, addr=WORD)        # 4: ready at entry
    last = 2
    for _ in range(consumers):
        last += 1
        builder.add(dest=last, src1=last - 1, imm=True)
    return builder.build()


# ----------------------------------------------------------------------
# No conflicts: mdpt mode must be timing-identical to perfect memory.
# ----------------------------------------------------------------------

def test_no_stores_matches_perfect_memory():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.load(dest=2, addr_reg=1, addr=WORD)
    builder.add(dest=3, src1=2, imm=True)
    trace = builder.build()
    perfect = sim_mem(trace, mem_spec="perfect")
    realistic = sim_mem(trace, mem_spec="mdpt")
    assert realistic.cycles == perfect.cycles
    assert realistic.memdep.violations == 0
    assert realistic.memdep.loads == 1
    assert realistic.memdep.dependent == 0
    assert perfect.memdep is None


def test_disjoint_addresses_never_violate():
    builder = TraceBuilder()
    builder.add(dest=1, src1=9, imm=True)
    builder.add(dest=1, src1=1, imm=True)
    builder.store(datasrc=1, addr_reg=8, addr=WORD)
    builder.load(dest=2, addr_reg=9, addr=WORD + 4)    # other word
    builder.add(dest=3, src1=2, imm=True)
    trace = builder.build()
    perfect = sim_mem(trace, mem_spec="perfect")
    realistic = sim_mem(trace, mem_spec="mdpt")
    # The disjoint load is free to issue early in both models.
    assert realistic.cycles == perfect.cycles
    assert realistic.memdep.violations == 0
    assert realistic.memdep.dependent == 0


# ----------------------------------------------------------------------
# A certain violation: squash, flush penalty, slice replay.
# ----------------------------------------------------------------------

def test_speculative_load_violates_and_replays():
    trace = delayed_store_then_load(consumers=1)
    perfect = sim_mem(trace, mem_spec="perfect")
    realistic = sim_mem(trace, mem_spec="mdpt", sanitize=True)
    stats = realistic.memdep
    assert stats.violations == 1
    assert stats.dependent == 1
    # The consumer issued on the wrong value, so the squashed slice is
    # the load plus its consumer.
    assert stats.squashed == 2
    assert stats.flush_cycles == FLUSH_PENALTY
    # Misspeculation can only cost cycles versus perfect disambiguation.
    assert realistic.cycles >= perfect.cycles
    # The learned pair names the violating load and its producing store.
    (load_pc, store_pc), count = next(iter(stats.violation_pairs.items()))
    statics = trace.static
    assert load_pc == statics.pc[trace.sidx[4]]
    assert store_pc == statics.pc[trace.sidx[3]]
    assert count == 1


def test_unissued_consumer_waits_for_replay():
    """A consumer still pending when the slice squashes must re-block on
    the replayed load, not use its stale completion bound."""
    trace = delayed_store_then_load(consumers=3)
    # width 2 serializes the consumer chain: when the violation fires,
    # only the load and its first consumer have issued — the remaining
    # two consumers are still pending and must re-block on the replay.
    perfect = sim_mem(trace, width=2, mem_spec="perfect")
    realistic = sim_mem(trace, width=2, mem_spec="mdpt", sanitize=True)
    assert realistic.memdep.violations == 1
    assert realistic.memdep.squashed == 2
    assert realistic.cycles >= perfect.cycles


def test_store_and_dependent_load_issue_same_cycle():
    """Both ready at entry: the load issues the same cycle as the store
    and must still be caught once the store completes."""
    builder = TraceBuilder()
    builder.store(datasrc=9, addr_reg=8, addr=WORD)    # ready immediately
    builder.load(dest=2, addr_reg=7, addr=WORD)        # ready immediately
    builder.add(dest=3, src1=2, imm=True)
    trace = builder.build()
    perfect = sim_mem(trace, mem_spec="perfect")
    realistic = sim_mem(trace, mem_spec="mdpt", sanitize=True)
    assert realistic.memdep.violations == 1
    assert realistic.memdep.flush_cycles == FLUSH_PENALTY
    assert realistic.cycles >= perfect.cycles


def test_violation_with_tiny_window():
    """The squash/replay bookkeeping must hold when the window is at its
    boundary (replayed slots stay occupied until re-issue)."""
    trace = delayed_store_then_load(consumers=2)
    for window in (2, 3, 4):
        realistic = sim_mem(trace, width=2, window=window,
                            mem_spec="mdpt", sanitize=True)
        assert realistic.cycles > 0
        # A tiny window can serialize the load behind the store chain,
        # in which case there is nothing to violate.
        assert realistic.memdep.violations <= 1


# ----------------------------------------------------------------------
# Learning: repeated violations promote the load PC, later instances
# synchronize with the predicted store instead of violating.
# ----------------------------------------------------------------------

def looped_conflict(iterations):
    """`iterations` copies of (chain add -> store -> load -> consumer)
    sharing static entries, as loop iterations sharing PCs would."""
    builder = TraceBuilder()
    chain = builder.add(dest=1, src1=1, imm=True)
    store = builder.store(datasrc=1, addr_reg=8, addr=WORD)
    load = builder.load(dest=2, addr_reg=9, addr=WORD)
    use = builder.add(dest=3, src1=2, imm=True)
    for _ in range(iterations - 1):
        builder.repeat(chain)
        builder.repeat(store, eff_addr=WORD)
        builder.repeat(load, eff_addr=WORD)
        builder.repeat(use)
    return builder.build()


def test_repeated_violations_promote_into_mdpt():
    trace = looped_conflict(8)
    # window of one iteration: each load enters after the previous
    # iteration's violation has trained the table.
    result = sim_mem(trace, width=4, window=4, mem_spec="mdpt",
                     sanitize=True)
    stats = result.memdep
    # Exactly the pre-promotion instances violate; once the counter
    # reaches the threshold, later instances synchronize with the
    # in-flight store instead (training lags one iteration, so not every
    # post-threshold instance is guaranteed to sync).
    assert stats.violations == PROMOTE_THRESHOLD
    assert stats.synchronized >= 8 - PROMOTE_THRESHOLD - 1
    assert stats.violations + stats.synchronized <= 8
    assert stats.false_syncs == 0
    assert stats.distinct_pairs == 1
    # Synchronization removes later squashes entirely.
    assert stats.squashed >= stats.violations


def test_synchronized_load_matches_perfect_timing():
    """Once promoted, the MDST arc reproduces the perfect-memory arc for
    a true dependence, so steady-state timing converges."""
    trace = looped_conflict(12)
    perfect = sim_mem(trace, width=4, window=4, mem_spec="perfect")
    realistic = sim_mem(trace, width=4, window=4, mem_spec="mdpt")
    # Bounded gap: only the first PROMOTE_THRESHOLD iterations pay for
    # learning; each costs at most the flush penalty plus the replayed
    # load latency.
    assert realistic.cycles >= perfect.cycles
    assert realistic.cycles <= perfect.cycles \
        + PROMOTE_THRESHOLD * (FLUSH_PENALTY + 4)


# ----------------------------------------------------------------------
# Table geometry: ``mdpt_entries`` / ``mdpt_store_set`` size the table
# the scheduler trains and consults.
# ----------------------------------------------------------------------

def aliased_conflicts(iterations):
    """Two (store -> load) conflicts per iteration whose load PCs map to
    the same entry of a one-entry table."""
    builder = TraceBuilder()
    chain = builder.add(dest=1, src1=1, imm=True)
    first_store = builder.store(datasrc=1, addr_reg=8, addr=WORD)
    first_load = builder.load(dest=2, addr_reg=9, addr=WORD)
    second_store = builder.store(datasrc=1, addr_reg=8, addr=WORD + 4)
    second_load = builder.load(dest=3, addr_reg=9, addr=WORD + 4)
    for _ in range(iterations - 1):
        builder.repeat(chain)
        builder.repeat(first_store, eff_addr=WORD)
        builder.repeat(first_load, eff_addr=WORD)
        builder.repeat(second_store, eff_addr=WORD + 4)
        builder.repeat(second_load, eff_addr=WORD + 4)
    return builder.build()


def alternating_producers(iterations):
    """One load PC whose producer alternates between two store PCs, as
    the two arms of a branch would."""
    builder = TraceBuilder()
    chain = builder.add(dest=1, src1=1, imm=True)
    even_store = builder.store(datasrc=1, addr_reg=8, addr=WORD)
    load = builder.load(dest=2, addr_reg=9, addr=WORD)
    builder.repeat(chain)
    odd_store = builder.store(datasrc=1, addr_reg=7, addr=WORD)
    builder.repeat(load, eff_addr=WORD)
    for index in range(2, iterations):
        builder.repeat(chain)
        builder.repeat(odd_store if index % 2 else even_store,
                       eff_addr=WORD)
        builder.repeat(load, eff_addr=WORD)
    return builder.build()


def test_one_entry_table_aliases_load_pcs():
    """The two load PCs evict each other from a one-entry table, so
    neither stays promoted and violations keep recurring."""
    trace = aliased_conflicts(8)
    default = sim_mem(trace, width=4, window=5, sanitize=True)
    aliased = sim_mem(trace, width=4, window=5, sanitize=True,
                      mdpt_entries=1)
    assert default.memdep.loads == aliased.memdep.loads == 16
    assert aliased.memdep.violations > default.memdep.violations
    assert aliased.memdep.synchronized < default.memdep.synchronized
    assert aliased.cycles > default.cycles


def test_one_store_set_forgets_the_other_producer():
    """A one-store set holds only the latest offender, so the load
    violates again each time the other producer comes round."""
    trace = alternating_producers(16)
    default = sim_mem(trace, width=2, window=3, sanitize=True)
    pair = sim_mem(trace, width=2, window=3, sanitize=True,
                   mdpt_store_set=2)
    single = sim_mem(trace, width=2, window=3, sanitize=True,
                     mdpt_store_set=1)
    assert pair.memdep.to_payload() == default.memdep.to_payload()
    assert single.memdep.violations > default.memdep.violations
    assert single.memdep.synchronized < default.memdep.synchronized


# ----------------------------------------------------------------------
# Composition with collapsing (config G) under the sanitizer.
# ----------------------------------------------------------------------

def test_mdpt_with_collapsing_sanitized():
    trace = looped_conflict(6)
    result = sim_mem(trace, width=4, window=6, mem_spec="mdpt",
                     collapse=CollapseRules.paper(), sanitize=True)
    assert result.cycles > 0
    assert result.memdep.violations >= 1
    assert result.instructions == len(trace)


# ----------------------------------------------------------------------
# Composition with oracle value speculation: both mechanisms bind the
# per-arc seam, the value mechanism first.
# ----------------------------------------------------------------------

def test_mdpt_with_oracle_value_speculation_sanitized():
    from repro.core import CellInputs, paper_config
    from repro.workloads import cached_trace
    for name in ("compress", "ijpeg"):
        inputs = CellInputs(cached_trace(name, 0.02))
        plain = inputs.simulate(paper_config("F", 8))
        scheduler = inputs.scheduler(paper_config("F", 8, value_spec=True),
                                     sanitize=True)
        result = scheduler.run()
        # F has no collapsing or load speculation: every relaxed arc is
        # a value bypass, and every load still went through the MDPT.
        assert scheduler.sanitizer.relaxed_arcs > 0
        assert result.memdep.loads == plain.memdep.loads
        assert result.value_spec is None
