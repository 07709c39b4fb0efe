"""Per-trace producer-arc table shared by every scheduler run.

A trace's true dependences — register, condition-code and store-data
arcs through the last writer, and a load's memory arc through the most
recent store to the same word — do not depend on the machine, so
:func:`arc_table` computes them once per trace and every
:class:`~repro.core.scheduler.WindowScheduler` run of that trace reads
the same table.

The table holds one entry per trace position: a row, the tuple of that
position's arcs in gathering order (src1, src2, store data, condition
codes, memory).  Each arc is a tuple ``(distance, kind, collapsible,
uses, same_block)``:

- ``distance``: consumer position minus producer position (>= 1);
- ``kind``: :data:`KIND_ADDR` for a load/store's address-expression
  operands, :data:`KIND_OTHER` otherwise;
- ``collapsible``: the arc joins two collapse-eligible expressions — a
  collapsible consumer's expression operand or condition code produced
  by a collapsible producer (store data and memory arcs never are);
- ``uses``: how many expression operands read the producer (2 when
  ``src1 == src2``);
- ``same_block``: no conditional branch or control transfer lies
  between producer and consumer (both in one dynamic basic block).

A load's memory arc, when it has one, is its row's last arc and its only
:data:`KIND_OTHER` arc (loads read no condition codes).  Rows and arcs
are interned, so a loop body's repeated dependence shapes share one row
object and most distances are small cached ints.  Rows are immutable
and shared by every cell of the trace: a scheduler seam that edits a
position's arcs works on a fresh list, never on the row.
"""

from ..trace.records import BRC, CTI, LD, ST

KIND_ADDR = 0
KIND_OTHER = 1


def arc_table(trace):
    """The memoised arc table of ``trace``: built on first use and
    rebuilt if the trace grew since (traces are append-only during
    construction and immutable afterwards)."""
    table = trace._arcs
    if table is None or len(table) != len(trace):
        table = trace._arcs = build_arc_table(trace)
    return table


def build_arc_table(trace):
    """One interned arc row per position of ``trace`` (see the module
    docstring for the encoding)."""
    static = trace.static
    cls_col = static.cls
    dest_col = static.dest
    src1_col = static.src1
    src2_col = static.src2
    datasrc_col = static.datasrc
    writes_cc_col = static.writes_cc
    reads_cc_col = static.reads_cc
    producer_ok_col = static.producer_ok
    consumer_ok_col = static.consumer_ok
    sidx = trace.sidx
    eff_addr = trace.eff_addr

    reg_writer = [-1] * 33  # 32 registers + condition codes (index 32)
    mem_writer = {}         # word address -> last store position
    block_start = 0         # first position of the current basic block
    arc_intern = {}
    row_intern = {}
    table = []
    append = table.append
    for i, s in enumerate(sidx):
        cls = cls_col[s]
        arcs = []
        src1 = src1_col[s]
        src2 = src2_col[s]
        consumer_ok = consumer_ok_col[s]
        expr_kind = KIND_ADDR if cls == LD or cls == ST else KIND_OTHER
        if src1 >= 0:
            p = reg_writer[src1]
            if p >= 0:
                arcs.append((i - p, expr_kind,
                             consumer_ok and producer_ok_col[sidx[p]],
                             2 if src2 == src1 else 1, p >= block_start))
        if src2 >= 0 and src2 != src1:
            p = reg_writer[src2]
            if p >= 0:
                arcs.append((i - p, expr_kind,
                             consumer_ok and producer_ok_col[sidx[p]],
                             1, p >= block_start))
        if cls == ST:
            data_reg = datasrc_col[s]
            if data_reg >= 0:
                p = reg_writer[data_reg]
                if p >= 0:
                    arcs.append((i - p, KIND_OTHER, False, 1,
                                 p >= block_start))
        if reads_cc_col[s]:
            p = reg_writer[32]
            if p >= 0:
                arcs.append((i - p, KIND_OTHER,
                             consumer_ok and producer_ok_col[sidx[p]],
                             1, p >= block_start))
        if cls == LD:
            p = mem_writer.get(eff_addr[i] >> 2, -1)
            if p >= 0:
                arcs.append((i - p, KIND_OTHER, False, 1, p >= block_start))
        if arcs:
            row = tuple([arc_intern.setdefault(arc, arc) for arc in arcs])
            append(row_intern.setdefault(row, row))
        else:
            append(())

        dest = dest_col[s]
        if dest >= 0:
            reg_writer[dest] = i
        if writes_cc_col[s]:
            reg_writer[32] = i
        if cls == ST:
            mem_writer[eff_addr[i] >> 2] = i
        elif cls == BRC or cls == CTI:
            block_start = i + 1
    return table
