"""In-memory span recorder and the runtime wrappers of the traced run.

A span is one timed call at a layer boundary: an id, the id of the span
that was open when it started (its parent), a layer name, a label, start
and end ``time.perf_counter`` stamps and a dict of counts recorded at the
same boundary.  Spans stay in memory; :meth:`SpanRecorder.dump` writes
them out when the benchmark ends.

:func:`install` wraps the program's public entry points named in
``README.md`` for the length of one traced pass and :meth:`Patches.restore`
puts the originals back.  The program itself is never edited; untraced
runs never install anything.
"""

import functools
import hashlib
import json
import pickle
import sys
import time
from contextlib import contextmanager, nullcontext


class Span:
    __slots__ = ("id", "parent", "layer", "name", "start", "end", "attrs")

    def __init__(self, span_id, parent, layer, name, start):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.start = start
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self):
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "name": self.name, "start": self.start, "end": self.end,
                "attrs": self.attrs}


class SpanRecorder:
    """Collects nested spans; the innermost open span is the parent of
    the next one opened."""

    def __init__(self):
        self.spans = []
        self._stack = []
        #: wrappers call straight through while this is False
        self.active = True

    def open(self, layer, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError("span %s/%s closed out of order"
                               % (span.layer, span.name))

    @contextmanager
    def span(self, layer, name=""):
        span = self.open(layer, name)
        try:
            yield span
        finally:
            self.close(span)

    @contextmanager
    def paused(self):
        """Calls the benchmark makes to check outputs stay unrecorded."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, layer, fn, name_of=None, before=None, after=None):
        """``fn`` timed as a ``layer`` span.  ``before(args)`` returns
        attributes computed ahead of the span (so its cost stays out of
        it); ``after(span, args, result)`` records counts from the
        result."""
        default_name = getattr(fn, "__qualname__", layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            attrs = before(args) if before is not None else None
            span = self.open(layer, name_of(args) if name_of is not None
                             else default_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs:
                span.attrs.update(attrs)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # ------------------------------------------------------------------

    def children(self):
        """Mapping span id -> list of direct child spans."""
        kids = {}
        for span in self.spans:
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(span)
        return kids

    def self_time(self, span, kids=None):
        """Duration minus the part covered by direct child spans."""
        kids = self.children() if kids is None else kids
        return span.duration - sum(child.duration
                                   for child in kids.get(span.id, ()))

    def outermost(self, layer):
        """Spans of ``layer`` with no enclosing span of the same layer,
        so a layer that calls itself is counted once."""
        out = []
        for span in self.spans:
            if span.layer != layer:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].layer != layer:
                parent = self.spans[parent].parent
            if parent is None:
                out.append(span)
        return out

    def layer_seconds(self, layer):
        return sum(span.duration for span in self.outermost(layer))

    def dump(self, path):
        kids = self.children()
        rows = []
        for span in self.spans:
            row = span.to_json()
            row["self"] = self.self_time(span, kids)
            rows.append(row)
        with open(path, "w") as handle:
            json.dump({"spans": rows}, handle, separators=(",", ":"))


class NullRecorder:
    """Stands in for :class:`SpanRecorder` in untraced runs."""

    def span(self, layer, name=""):
        return nullcontext()

    def paused(self):
        return nullcontext()


# ----------------------------------------------------------------------
# Wrapping the program's entry points.
# ----------------------------------------------------------------------


class Patches:
    """Attribute replacements made by :func:`install`, undone by
    :meth:`restore`."""

    def __init__(self):
        self._undo = []

    def method(self, owner, attr, make):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, raw))

    def function(self, module, attr, make):
        """Replace a module-level function everywhere the program holds
        it: modules that imported it by name keep their own reference."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            namespace = vars(mod)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapped
                    self._undo.append((mod, key, original))

    def restore(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


class SchedulerRuns:
    """Per-run records of ``WindowScheduler.run``: the config letter, the
    trace length, the simulated work counts, and whether an earlier run
    had the same trace, ``MachineConfig.fingerprint()`` and prediction
    inputs (a duplicate a memo could have served)."""

    def __init__(self):
        self._seen = set()
        self._digests = {}
        self._keep = []     # keeps digested inputs alive so ids stay unique

    def _content(self, obj):
        if obj is None:
            return None
        digest = self._digests.get(id(obj))
        if digest is None:
            digest = hashlib.sha256(pickle.dumps(obj, protocol=4)) \
                .hexdigest()
            self._digests[id(obj)] = digest
            self._keep.append(obj)
        return digest

    def before(self, args):
        scheduler = args[0]
        trace = scheduler.trace
        config = scheduler.config
        key = (trace.name, len(trace),
               json.dumps(config.fingerprint(), sort_keys=True),
               tuple(self._content(obj) for obj in (
                   scheduler.branch_result, scheduler.load_prediction,
                   scheduler.value_prediction, scheduler.dae_plan,
                   scheduler.branch_plan)),
               scheduler.sanitizer is not None)
        duplicate = key in self._seen
        self._seen.add(key)
        return {"letter": config.name.split("/")[0],
                "instructions": len(trace),
                "collapsing": config.collapsing,
                "sanitized": scheduler.sanitizer is not None,
                "duplicate": duplicate}

    @staticmethod
    def after(span, args, result):
        counts = span.attrs
        if result.collapse is not None:
            counts["collapse_events"] = result.collapse.events
        if result.memdep is not None:
            counts["memdep_squashed"] = result.memdep.squashed
        if result.value_spec is not None:
            counts["vspec_replays"] = result.value_spec.replays
        if result.dae is not None:
            counts["dae_enqueued"] = result.dae.enqueued


def _cache_hit(span, args, result):
    span.attrs["hit"] = result is not None


def install(recorder):
    """Wrap every entry point the per-layer metrics read; returns the
    :class:`Patches` to restore afterwards.

    Every package the wrappers reach is imported first, so no module
    loaded later picks up a wrapper that would outlive the pass.
    """
    import pkgutil

    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            __import__(info.name)

    from repro import cache, lint
    from repro.addrpred import runner as addr_runner
    from repro.analysis import depgraph
    from repro.bpred import runner as branch_runner
    from repro.core import results, scheduler, simulator
    from repro.experiments import exhibit, report, runner
    from repro.lint import analyzer
    from repro.vpred import runner as value_runner
    from repro.workloads import base, registry

    patches = Patches()

    def timed(layer, **options):
        return lambda fn: recorder.wrap(layer, fn, **options)

    patches.method(base.Workload, "trace",
                   timed("workloads.trace", name_of=lambda a: a[0].name))
    for module, name, layer in (
            (branch_runner, "run_branch_predictor", "bpred.pass"),
            (simulator, "branch_outcomes", "bpred.pass"),
            (addr_runner, "run_address_predictor", "addrpred.pass"),
            (simulator, "load_outcomes", "addrpred.pass"),
            (value_runner, "run_value_predictor", "vpred.pass"),
            (simulator, "value_outcomes", "vpred.pass"),
            (analyzer, "lint_workload", "lint.passes"),
            (registry, "cached_dae_plan", "lint.plans"),
            (registry, "cached_branch_plan", "lint.plans"),
            (depgraph, "restructured_depths", "analysis.depgraph"),
            (depgraph, "collapsed_depths", "analysis.depgraph"),
            (depgraph, "collapsed_critical_path", "analysis.depgraph"),
            (report, "shape_checks", "experiments.shape_checks")):
        patches.function(module, name, timed(layer))
    for name in ("cross_check", "memdep_cross_check",
                 "recurrence_cross_check", "valueflow_cross_check",
                 "dae_cross_check", "branchflow_cross_check"):
        patches.function(lint, name, timed("lint.xcheck"))
    for attr in ("__init__", "depths"):
        patches.method(depgraph.DependenceGraph, attr,
                       timed("analysis.depgraph"))
    runs = SchedulerRuns()
    patches.method(scheduler.WindowScheduler, "run",
                   timed("core.run", before=runs.before, after=runs.after))
    patches.method(cache.DiskCache, "load_result",
                   timed("cache.load", after=_cache_hit))
    patches.method(cache.DiskCache, "store_result", timed("cache.store"))
    patches.method(results.SimResult, "to_payload",
                   timed("results.encode"))
    patches.method(results.SimResult, "from_payload",
                   timed("results.decode"))
    patches.method(runner.ExperimentRunner, "prefetch",
                   timed("experiments.prefetch"))
    patches.method(exhibit.ExhibitSpec, "build",
                   timed("experiments.exhibit",
                         name_of=lambda a: a[0].key))
    return patches
