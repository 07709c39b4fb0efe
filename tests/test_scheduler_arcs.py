"""The scheduler's per-trace producer-arc table (repro.core.arcs).

Every row is decoded back to ``(producer, kind, collapsible, uses)`` and
checked against two independent walks of the same trace: the explicit
dependence graph of ``repro.analysis.depgraph`` and, when numpy is
present, the vectorized producer matrix of ``repro.analysis.nkernel``.
The remaining tests pin the table's contract with the scheduler: it is
built once per trace and shared by every cell, no scheduler seam may
mutate a shared row, and the sanitizer's replay never reads it.
"""

import hashlib
import json

import pytest

from repro.analysis.depgraph import DependenceGraph
from repro.core import arcs
from repro.core.arcs import KIND_ADDR, KIND_OTHER, arc_table
from repro.core.config import config_letters, paper_config
from repro.core.simulator import CellInputs, simulate_trace
from repro.lint import SanitizeError
from repro.trace import synth
from repro.trace.records import BRC, CTI, LD, ST, TraceBuilder
from repro.workloads import EXTRAS, SUITE, cached_trace, get_workload

SCALE = 0.02
NAMES = tuple(workload.name for workload in SUITE + EXTRAS)


def _synth_traces():
    return (synth.dependent_chain(40), synth.independent_stream(40),
            synth.strided_load_loop(30), synth.pointer_chase_loop(30),
            synth.collapsible_pairs(20),
            *(synth.random_trace(400, seed=seed, name="random%d" % seed)
              for seed in range(4)))


def _traces():
    return [cached_trace(name, SCALE) for name in NAMES] + \
        list(_synth_traces())


def _decoded(trace):
    """Per position, the table's arcs as (producer, kind, collapsible,
    uses), and the table's same_block flags."""
    rows = arc_table(trace)
    assert len(rows) == len(trace)
    arcs_of = []
    blocks_of = []
    for i, row in enumerate(rows):
        assert isinstance(row, tuple)
        arcs_of.append([(i - distance, kind, collapsible, uses)
                        for distance, kind, collapsible, uses, _ in row])
        blocks_of.append([same_block for *_, same_block in row])
    return arcs_of, blocks_of


def _expected_arcs(trace, i, producers):
    """The scheduler's arcs of position ``i`` from an oracle's
    ``(producer, origin)`` list in src1, src2, store-data, cc, memory
    order, where ``origin`` is one of ``"reg"``, ``"data"``, ``"cc"``,
    ``"mem"``."""
    static = trace.static
    s = trace.sidx[i]
    cls = static.cls[s]
    consumer_ok = static.consumer_ok[s]
    expr_kind = KIND_ADDR if cls in (LD, ST) else KIND_OTHER
    expected = []
    for p, origin in producers:
        collapsible = consumer_ok and static.producer_ok[trace.sidx[p]]
        if origin == "reg":
            if static.src1[s] == static.src2[s] and expected:
                # src1 == src2: one arc read by both operands
                assert expected[-1][0] == p
                expected[-1] = (p, expr_kind, expected[-1][2], 2)
                continue
            expected.append((p, expr_kind, collapsible, 1))
        elif origin == "cc":
            expected.append((p, KIND_OTHER, collapsible, 1))
        else:
            expected.append((p, KIND_OTHER, False, 1))
    return expected


@pytest.mark.parametrize("trace", _traces(),
                         ids=lambda trace: "%s-%d" % (trace.name,
                                                      len(trace)))
def test_rows_match_the_dependence_graph(trace):
    decoded, blocks_of = _decoded(trace)
    preds = DependenceGraph(trace).preds
    cls_col = trace.static.cls
    block = []
    branches = 0
    for i, s in enumerate(trace.sidx):
        block.append(branches)
        if cls_col[s] in (BRC, CTI):
            branches += 1
    for i in range(len(trace)):
        assert decoded[i] == _expected_arcs(trace, i, preds[i]), i
        assert blocks_of[i] == [block[p] == block[i]
                                for p, *_ in decoded[i]], i
        if cls_col[trace.sidx[i]] == LD:
            # a load's only KIND_OTHER arc is its memory arc, and last
            other = [n for n, arc in enumerate(decoded[i])
                     if arc[1] == KIND_OTHER]
            assert other == ([len(decoded[i]) - 1]
                             if preds[i] and preds[i][-1][1] == "mem"
                             else [])


@pytest.mark.parametrize("trace", _traces(),
                         ids=lambda trace: "%s-%d" % (trace.name,
                                                      len(trace)))
def test_rows_match_the_producer_matrix(trace):
    pytest.importorskip("numpy", reason="the producer matrix needs numpy",
                        exc_type=ImportError)
    from repro.analysis.nkernel import dep_columns
    decoded, _ = _decoded(trace)
    matrix = dep_columns(trace).P.tolist()
    n = len(trace)
    # matrix columns: src1, src2, cc, store data, memory
    for i, (src1, src2, cc, data, mem) in enumerate(matrix):
        producers = [(p, origin) for p, origin in (
            (src1, "reg"), (src2, "reg"), (data, "data"), (cc, "cc"),
            (mem, "mem")) if p != n]
        assert decoded[i] == _expected_arcs(trace, i, producers), i


def test_rows_and_arcs_are_interned():
    trace = cached_trace("go", SCALE)
    rows = arc_table(trace)
    distinct_rows = {id(row) for row in rows}
    assert len(distinct_rows) == len(set(rows)) < len(rows) // 2
    arc_ids = {}
    for row in rows:
        for arc in row:
            assert arc_ids.setdefault(arc, id(arc)) == id(arc)


def test_table_is_built_once_and_rebuilt_after_append(monkeypatch):
    builds = []
    real_build = arcs.build_arc_table

    def counting(trace):
        builds.append(len(trace))
        return real_build(trace)

    monkeypatch.setattr(arcs, "build_arc_table", counting)
    builder = TraceBuilder()
    base = builder.add(dest=1, src1=2, imm=True)
    builder.add(dest=3, src1=1, src2=1)
    trace = builder.build()
    first = simulate_trace(trace, paper_config("D", 4))
    table = arc_table(trace)
    second = simulate_trace(trace, paper_config("A", 4))
    assert arc_table(trace) is table
    assert builds == [2]
    assert first.instructions == second.instructions == 2

    builder.repeat(base)
    builder.add(dest=4, src1=1, src2=3)
    result = simulate_trace(trace, paper_config("D", 4))
    assert builds == [2, 4]
    assert result.instructions == 4
    assert arc_table(trace) == real_build(trace)
    assert arc_table(trace)[1] == ((1, KIND_OTHER, True, 2, True),)
    assert arc_table(trace)[3] == ((1, KIND_OTHER, True, 1, True),
                                   (2, KIND_OTHER, True, 1, True))


def _digest(result):
    blob = json.dumps(result.to_payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_shared_rows_stay_unmutated_across_cells():
    """Letters A-J on the same trace objects, in letter order and then
    in reverse: a hook that edited a shared row would change every
    later cell of its trace, so the two passes would disagree."""
    names = ("compress", "eqntott", "vortex")
    inputs = {name: CellInputs.workload(name, SCALE) for name in names}
    letters = config_letters()
    digests = {}
    counters = {"squashed": 0, "enqueued": 0, "early_resolved": 0}
    for order in (letters, letters[::-1]):
        for name in names:
            for letter in order:
                result = inputs[name].simulate(paper_config(letter, 8))
                digests.setdefault((name, letter), []).append(
                    _digest(result))
                if result.memdep is not None:
                    counters["squashed"] += result.memdep.squashed
                if result.dae is not None:
                    counters["enqueued"] += result.dae.enqueued
                if result.branch_spec is not None:
                    counters["early_resolved"] += \
                        result.branch_spec.early_resolved
    for cell, pair in digests.items():
        assert pair[0] == pair[1], cell
    # every hook path ran: MDPT squash/replay, DAE enqueue, branch waive
    assert all(counters.values()), counters


def test_sanitizer_does_not_read_the_table(monkeypatch):
    """With every arc stripped from the table the engine issues without
    waiting; the sanitizer's own replay must catch the violation."""
    monkeypatch.setattr(arcs, "build_arc_table",
                        lambda trace: [()] * len(trace))
    trace = get_workload("eqntott").trace(scale=SCALE)
    with pytest.raises(SanitizeError, match="before (its )?producer"):
        simulate_trace(trace, paper_config("C", 8), sanitize=True)
