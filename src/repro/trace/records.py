"""Dynamic-trace representation.

A dynamic trace is stored *columnar*: per-executed-instruction columns hold
only what varies dynamically (static instruction index, effective address,
branch direction), while everything derivable from the static instruction
(operation class, register sources, collapse signature, ...) lives in a
:class:`StaticTable` indexed by static instruction number.  This keeps a
multi-hundred-thousand-entry trace small and makes the timing simulator's
inner loop a series of list lookups.

For tests and synthetic workloads, :class:`TraceBuilder` constructs traces
directly without going through the assembler/emulator.
"""

from ..isa.opcodes import (
    CLASS_CODE,
    CLASS_LATENCY,
    COLLAPSIBLE_CONSUMERS,
    COLLAPSIBLE_PRODUCERS,
    OpClass,
)
from ..isa.registers import G0

#: Operation classes, re-exported for convenience.
AR = int(OpClass.AR)
LG = int(OpClass.LG)
SH = int(OpClass.SH)
MV = int(OpClass.MV)
LD = int(OpClass.LD)
ST = int(OpClass.ST)
BRC = int(OpClass.BRC)
CTI = int(OpClass.CTI)
MUL = int(OpClass.MUL)
DIV = int(OpClass.DIV)

_LATENCY = [0] * (max(int(c) for c in OpClass) + 1)
for _cls in OpClass:
    _LATENCY[int(_cls)] = CLASS_LATENCY[_cls]

_PRODUCER = [False] * len(_LATENCY)
for _cls in COLLAPSIBLE_PRODUCERS:
    _PRODUCER[int(_cls)] = True

_CONSUMER = [False] * len(_LATENCY)
for _cls in COLLAPSIBLE_CONSUMERS:
    _CONSUMER[int(_cls)] = True


class StaticTable:
    """Per-static-instruction metadata, stored as parallel lists.

    Columns
    -------
    cls:        operation class (int of :class:`OpClass`)
    lat:        execution latency in cycles
    dest:       destination register or -1
    writes_cc / reads_cc: condition-code production/consumption
    src1/src2:  register sources of the value/address expression (-1 absent;
                ``%g0`` is filtered out since it carries no dependence)
    datasrc:    store data register (-1 otherwise)
    sig:        paper-style collapse signature string (``arri``, ``ldrr``...)
    leaves:     non-zero expression operand count
    zeros:      count of zero operands detected (``%g0`` or immediate 0)
    pc:         byte address of the instruction
    """

    __slots__ = ("cls", "lat", "dest", "writes_cc", "reads_cc", "src1",
                 "src2", "datasrc", "sig", "leaves", "zeros", "pc",
                 "producer_ok", "consumer_ok")

    def __init__(self):
        self.cls = []
        self.lat = []
        self.dest = []
        self.writes_cc = []
        self.reads_cc = []
        self.src1 = []
        self.src2 = []
        self.datasrc = []
        self.sig = []
        self.leaves = []
        self.zeros = []
        self.pc = []
        self.producer_ok = []
        self.consumer_ok = []

    def __len__(self):
        return len(self.cls)

    def add(self, cls, dest=-1, writes_cc=False, reads_cc=False, src1=-1,
            src2=-1, datasrc=-1, sig="", leaves=0, zeros=0, pc=0):
        """Append one static entry; returns its index."""
        self.cls.append(cls)
        self.lat.append(_LATENCY[cls])
        self.dest.append(dest)
        self.writes_cc.append(writes_cc)
        self.reads_cc.append(reads_cc)
        self.src1.append(src1)
        self.src2.append(src2)
        self.datasrc.append(datasrc)
        self.sig.append(sig)
        self.leaves.append(leaves)
        self.zeros.append(zeros)
        self.pc.append(pc)
        self.producer_ok.append(_PRODUCER[cls])
        self.consumer_ok.append(_CONSUMER[cls])
        return len(self.cls) - 1

    @classmethod
    def from_program(cls_, program):
        """Build the static table for an assembled program."""
        table = cls_()
        for index, instr in enumerate(program.instructions):
            opclass = int(instr.opclass)
            # Register sources of the value/address expression.
            regs = [value for kind, value in instr.expression_operands()
                    if kind == "r" and value != G0]
            src1 = regs[0] if len(regs) >= 1 else -1
            src2 = regs[1] if len(regs) >= 2 else -1
            dest = instr.rd
            datasrc = -1
            if instr.is_store:
                # For stores Instruction.rd is the data source register.
                datasrc = instr.rd
                dest = -1
            if instr.opclass is OpClass.CTI and instr.rs1 >= 0:
                # jmpl reads its base register (a real dependence, though
                # not a collapsible expression operand).
                src1 = instr.rs1 if instr.rs1 != G0 else -1
            table.add(
                cls=opclass,
                dest=dest,
                writes_cc=instr.writes_cc,
                reads_cc=instr.reads_cc,
                src1=src1,
                src2=src2,
                datasrc=datasrc,
                sig=instr.signature(),
                leaves=instr.leaf_count(),
                zeros=instr.operand_type_string().count("0"),
                pc=program.address_of_index(index),
            )
        return table


class DynTrace:
    """One dynamic trace: columnar per-instruction data + static table.

    ``mem_value`` holds the loaded value for loads (0 elsewhere); it
    exists for the value-speculation extension and is not used by the
    paper's own configurations.

    ``_soa`` and ``_arcs`` are lazily built memos: the SoA snapshot
    (:meth:`soa`) and the scheduler's producer-arc table
    (``repro.core.arcs.arc_table``).
    """

    __slots__ = ("static", "sidx", "eff_addr", "taken", "mem_value",
                 "name", "_soa", "_arcs")

    def __init__(self, static, name=""):
        self.static = static
        self.sidx = []
        self.eff_addr = []
        self.taken = []
        self.mem_value = []
        self.name = name
        self._soa = None
        self._arcs = None

    def __len__(self):
        return len(self.sidx)

    def soa(self):
        """Memoised structure-of-arrays snapshot (``repro.trace.soa``).

        The snapshot is rebuilt automatically if the trace grew since it
        was taken; the numpy kernels and format v2 consume it.
        """
        from .soa import trace_arrays
        return trace_arrays(self)

    # Convenience views used by tests and reporting -----------------------

    def classes(self):
        """Per-dynamic-instruction operation class list."""
        cls = self.static.cls
        return [cls[s] for s in self.sidx]

    def count_class(self, opclass):
        """Number of dynamic instructions of the given class."""
        target = int(opclass)
        cls = self.static.cls
        return sum(1 for s in self.sidx if cls[s] == target)

    def cond_branches(self):
        """Iterate ``(position, taken)`` over conditional branches."""
        cls = self.static.cls
        brc = BRC
        for position, s in enumerate(self.sidx):
            if cls[s] == brc:
                yield position, self.taken[position]


class TraceBuilder:
    """Construct synthetic traces directly (each dynamic instruction gets
    its own static entry, so ``sidx`` is simply 0..N-1 unless ``repeat`` is
    used).

    This is the workhorse of the unit tests: it lets a test express "a load
    depending on an add" in two lines without touching the assembler.
    """

    def __init__(self, name="synthetic"):
        self.static = StaticTable()
        self.trace = DynTrace(self.static, name=name)

    # -- helpers -----------------------------------------------------------

    def _sig(self, cls, srcs, imm, imm_zero):
        if cls == BRC:
            return "brc"
        chars = []
        for reg in srcs:
            if reg is None:
                continue
            chars.append("0" if reg == G0 else "r")
        if imm:
            chars.append("0" if imm_zero else "i")
        return CLASS_CODE[OpClass(cls)] + "".join(chars)

    def _emit(self, cls, dest=-1, src1=-1, src2=-1, datasrc=-1,
              writes_cc=False, reads_cc=False, imm=False, imm_zero=False,
              eff_addr=0, taken=False, value=0, pc=None):
        srcs = [s for s in (src1, src2) if s >= 0]
        sig = self._sig(cls, srcs, imm, imm_zero)
        body = sig[len(CLASS_CODE[OpClass(cls)]):]
        leaves = sum(1 for ch in body if ch != "0")
        zeros = sum(1 for ch in body if ch == "0")
        if cls == BRC:
            leaves = 1
            zeros = 0
        index = self.static.add(
            cls=cls, dest=dest, writes_cc=writes_cc, reads_cc=reads_cc,
            src1=src1 if src1 != G0 else -1,
            src2=src2 if src2 != G0 else -1,
            datasrc=datasrc if datasrc != G0 else -1,
            sig=sig, leaves=leaves, zeros=zeros,
            pc=0x1000 + 4 * len(self.static) if pc is None else pc)
        self.trace.sidx.append(index)
        self.trace.eff_addr.append(eff_addr)
        self.trace.taken.append(taken)
        self.trace.mem_value.append(value)
        return len(self.trace) - 1

    # -- public emitters -----------------------------------------------

    def alu(self, cls, dest, src1=-1, src2=-1, imm=False, imm_zero=False,
            writes_cc=False):
        """Append a computational instruction; returns its trace position."""
        return self._emit(cls, dest=dest, src1=src1, src2=src2, imm=imm,
                          imm_zero=imm_zero, writes_cc=writes_cc)

    def add(self, dest, src1=-1, src2=-1, imm=False, writes_cc=False):
        return self.alu(AR, dest, src1, src2, imm=imm, writes_cc=writes_cc)

    def logic(self, dest, src1=-1, src2=-1, imm=False):
        return self.alu(LG, dest, src1, src2, imm=imm)

    def shift(self, dest, src1=-1, src2=-1, imm=True):
        return self.alu(SH, dest, src1, src2, imm=imm)

    def move(self, dest, src=-1, imm=False):
        if imm:
            return self._emit(MV, dest=dest, imm=True)
        return self._emit(MV, dest=dest, src1=src)

    def mul(self, dest, src1, src2=-1, imm=False):
        return self._emit(MUL, dest=dest, src1=src1, src2=src2, imm=imm)

    def div(self, dest, src1, src2=-1, imm=False):
        return self._emit(DIV, dest=dest, src1=src1, src2=src2, imm=imm)

    def load(self, dest, addr_reg=-1, addr_reg2=-1, addr=0, imm=False,
             value=0):
        return self._emit(LD, dest=dest, src1=addr_reg, src2=addr_reg2,
                          imm=imm, eff_addr=addr, value=value)

    def store(self, datasrc, addr_reg=-1, addr_reg2=-1, addr=0, imm=False):
        return self._emit(ST, datasrc=datasrc, src1=addr_reg,
                          src2=addr_reg2, imm=imm, eff_addr=addr)

    def cmp(self, src1, src2=-1, imm=False):
        """A compare: arithmetic op writing only the condition codes."""
        return self._emit(AR, src1=src1, src2=src2, imm=imm, writes_cc=True)

    def branch(self, taken=True):
        return self._emit(BRC, reads_cc=True, taken=taken)

    def jump(self, src=-1):
        return self._emit(CTI, src1=src, taken=True)

    def repeat(self, template_position, eff_addr=0, taken=False, value=0):
        """Re-emit the static instruction behind an earlier trace position
        (same PC — this is how loop iterations share predictor state)."""
        sidx = self.trace.sidx[template_position]
        self.trace.sidx.append(sidx)
        self.trace.eff_addr.append(eff_addr)
        self.trace.taken.append(taken)
        self.trace.mem_value.append(value)
        return len(self.trace) - 1

    def build(self):
        return self.trace
