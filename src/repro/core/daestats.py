"""Queue and stream accounting for decoupled access/execute runs.

Configuration H (``MachineConfig.dae``) splits each statically-clean
innermost loop into an access stream (address computation + loads) that
may run ahead of the main window, and an execute stream that consumes
load values through bounded FIFO queues.  :class:`DAEStats` records, per
decoupled loop, how far that decoupling actually got: queue traffic,
peak occupancy, queue-full fallbacks, and the dynamic chase dependences
(load-derived values feeding an access-slice consumer in the same loop
run) that the static slicer promises are impossible for clean loops.

The numbers here are the dynamic half of the ``dae_cross_check`` proof
in :mod:`repro.lint.dae`; keeping the container in ``core`` (it has no
lint dependencies) lets the scheduler and result codec import it
directly.
"""


from .counters import Counters


class DAELoopStats(Counters):
    """Per-loop (keyed by header instruction index) DAE counters.

    - ``runs``: dynamic runs (maximal body-instruction stretches) observed;
    - ``enqueued``: boundary-load values pushed into the loop's FIFO queue;
    - ``popped``: queue entries retired (consumed by the execute slice or
      reclaimed at architectural overwrite);
    - ``peak``: peak queue occupancy over the run (merges by maximum);
    - ``full_stalls``: bypass attempts denied because the queue was at
      capacity;
    - ``chase_deps``: dependence arcs from an in-run body load into an
      access-slice consumer (zero for statically-clean loops — the
      cross-check);
    - ``chase_stalls``: chase arcs whose producer had not completed at
      consumer entry.
    """

    __slots__ = counters = ("runs", "enqueued", "popped", "peak",
                            "full_stalls", "chase_deps", "chase_stalls")

    def merge(self, other):
        peak = max(self.peak, other.peak)
        super().merge(other)
        self.peak = peak
        return self

    def __repr__(self):
        return ("<DAELoopStats enq=%d pop=%d peak=%d full=%d chase=%d>"
                % (self.enqueued, self.popped, self.peak,
                   self.full_stalls, self.chase_deps))


class DAEStats(Counters):
    """All DAE accounting of one simulation (``SimResult.dae``):
    ``bypassed`` counts instructions admitted through the access window
    (bypassing a full main window), ``degraded`` bypass-eligible
    instructions that fell back to the main window because the access
    window itself was full, and ``loops`` maps each loop header
    instruction index to its :class:`DAELoopStats`."""

    counters = ("bypassed", "degraded")
    __slots__ = counters + ("loops",)

    def __init__(self):
        super().__init__()
        self.loops = {}

    def loop(self, header):
        stats = self.loops.get(header)
        if stats is None:
            stats = self.loops[header] = DAELoopStats()
        return stats

    # -- suite-level aggregates (exhibit columns) ----------------------

    @property
    def enqueued(self):
        return sum(s.enqueued for s in self.loops.values())

    @property
    def popped(self):
        return sum(s.popped for s in self.loops.values())

    @property
    def peak(self):
        return max((s.peak for s in self.loops.values()), default=0)

    @property
    def full_stalls(self):
        return sum(s.full_stalls for s in self.loops.values())

    @property
    def chase_deps(self):
        return sum(s.chase_deps for s in self.loops.values())

    def merge(self, other):
        super().merge(other)
        for header, stats in other.loops.items():
            self.loop(header).merge(stats)
        return self

    def to_payload(self):
        payload = super().to_payload()
        payload["loops"] = {str(header): stats.to_payload()
                            for header, stats in sorted(self.loops.items())}
        return payload

    @classmethod
    def from_payload(cls, payload):
        stats = super().from_payload(payload)
        for header, loop_payload in (payload.get("loops") or {}).items():
            stats.loops[int(header)] = \
                DAELoopStats.from_payload(loop_payload)
        return stats

    def __repr__(self):
        return ("<DAEStats %d loops, %d bypassed, %d enqueued>"
                % (len(self.loops), self.bypassed, self.enqueued))


__all__ = ["DAELoopStats", "DAEStats"]
