"""The benchmark's workloads: what each pass runs, times and checks.

Every workload permutes its cells and workloads with the run's seed and
hands the program only the permuted list, so no change can tune itself
to one memo or cache order.  Each pass starts from what a new process
holds after set-up: freshly built traces, cleared plan memos, a new
``ExperimentRunner`` and an empty disk cache.
"""

import hashlib
import json
import os
import random
import re
import shutil
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext

from hostclock import HostClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: per-pass disk caches, span dumps.
SCRATCH = os.path.join(ROOT, ".perfbench")
REFERENCES = os.path.join(HERE, "references.json")

SUITE_NAMES = ("compress", "espresso", "eqntott", "li", "go", "ijpeg")
ALL_NAMES = SUITE_NAMES + ("vortex",)


def repro_available():
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def use_repro():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def payload_digest(result):
    """sha256 of ``SimResult.to_payload()`` without ``issue_cycles``
    (the runner drops schedules from the results it keeps)."""
    payload = result.to_payload()
    payload.pop("issue_cycles", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def cell_key(name, letter, width):
    return "%s/%s/%d" % (name, letter, width)


def load_references():
    with open(REFERENCES) as handle:
        return json.load(handle)


class Outcome:
    """Operations one pass attempted, which failed, and their verdicts
    (a digest or ``ok``/``not-ok``) for the seed self-test."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts = {}
        self.problems = []

    def record(self, key, ok, verdict=None, problem=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append("%s: %s" % (key, problem or "failed"))
        self.verdicts[key] = verdict if verdict is not None else ok


class Pass:
    """Timed result of one pass: ``clock`` timed its timed phase,
    ``phases`` holds the clocks of further timed phases (the warm
    report), ``instructions`` is the fixed trace-instruction count the
    pass requested."""

    def __init__(self, clock, outcome, instructions, phases=None):
        self.clock = clock
        self.outcome = outcome
        self.instructions = instructions
        self.phases = phases or {}

    @property
    def wall_s(self):
        """The timed phase in reference seconds (``hostclock``)."""
        return self.clock.seconds


def _failure(exc):
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)
    return "%s: %s" % (type(exc).__name__, exc)


class Workload:
    name = None
    scale = None
    trace_names = ()
    #: modules set-up imports: the program entry points the pass calls
    modules = ()

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def permuted(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def setup(self):
        """Imports and builds (and self-validates) every trace the pass
        uses: the work ``setup_s`` times.  Traces land in the program's
        per-process trace memo, which the passes then read."""
        use_repro()
        for module in self.modules:
            __import__(module)
        from repro.workloads import registry
        # the program's memos themselves, before a traced pass wraps any
        self._memos = (registry.cached_trace, registry.cached_dae_plan,
                       registry.cached_branch_plan)
        self._build_traces()

    def _build_traces(self):
        cached_trace = self._memos[0]
        for name in self.permuted(self.trace_names):
            cached_trace(name, self.scale)

    def trace_lengths(self):
        from repro.workloads import registry
        return {name: len(registry.cached_trace(name, self.scale))
                for name in self.trace_names}

    def fresh_state(self):
        """Before the timed phase, give the pass what a new process holds
        after set-up: freshly built traces, whose lazily derived arrays
        start empty, and no derived plans."""
        for memo in self._memos:
            memo.cache_clear()
        self._build_traces()

    def run_pass(self, recorder):
        raise NotImplementedError


class PaperSweep(Workload):
    name = "paper-sweep"
    scale = 0.02
    letters = tuple("ABCDE")
    widths = (4, 8, 16, 32, 2048)
    trace_names = SUITE_NAMES
    modules = ("repro.experiments.runner",)

    def __init__(self, seed):
        super().__init__(seed)
        self.names = self.permuted(SUITE_NAMES)
        self.cells = self.permuted(
            (name, letter, width) for name in SUITE_NAMES
            for letter in self.letters for width in self.widths)

    def run_pass(self, recorder):
        from repro.experiments.runner import ExperimentRunner
        references = load_references()[self.name]["cells"]
        lengths = self.trace_lengths()
        self.fresh_state()
        runner = ExperimentRunner(scale=self.scale, names=self.names)
        raised = {}
        with HostClock() as clock:
            for name, letter, width in self.cells:
                try:
                    runner.prefetch(letters=(letter,), names=(name,),
                                    widths=(width,))
                except Exception as exc:  # a failed cell is counted
                    raised[(name, letter, width)] = _failure(exc)
        outcome = Outcome()
        with recorder.paused():
            for cell in self.cells:
                key = cell_key(*cell)
                if cell in raised:
                    outcome.record(key, False, problem=raised[cell])
                    continue
                digest = payload_digest(runner.result(*cell))
                outcome.record(key, digest == references.get(key), digest,
                               "digest differs from the reference")
        instructions = sum(lengths[name] for name, _, _ in self.cells)
        return Pass(clock, outcome, instructions)


_GENERATED = re.compile(r"^_Generated in .* s\._$", re.M)


class Report(Workload):
    name = "report"
    scale = 0.01
    #: one finite window and the unbounded one; see README.md
    widths = (8, 2048)
    trace_names = SUITE_NAMES
    modules = ("repro.experiments.report",)

    def grid(self):
        """The requested cells: letters A-J (a letter registered later
        is not part of this workload) x suite x widths."""
        from layers import LETTERS
        return [(name, letter, width) for name in SUITE_NAMES
                for letter in LETTERS for width in self.widths]

    def run_pass(self, recorder):
        from repro.cache import DiskCache
        from repro.core.config import paper_config
        from repro.experiments import report
        references = load_references()[self.name]["cells"]
        lengths = self.trace_lengths()
        grid = self.grid()
        self.fresh_state()
        os.makedirs(SCRATCH, exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="report-cache-", dir=SCRATCH)
        outcome = Outcome()
        texts = {}
        clocks = {}
        try:
            for phase in ("cold", "warm"):
                problem = None
                with HostClock() as clocks[phase], \
                        recorder.span("report.generate", phase):
                    try:
                        texts[phase] = report.generate(
                            scale=self.scale, widths=self.widths,
                            cache_dir=cache_dir)
                    except Exception as exc:  # a failed operation
                        problem = _failure(exc)
                outcome.record("generate/" + phase, problem is None,
                               problem=problem)
                if problem is not None:
                    break
            cold = texts.get("cold", "")
            for line in cold.splitlines():
                if line.startswith("- ["):
                    outcome.record("shape/" + line[6:60],
                                   line.startswith("- [x]"),
                                   problem="shape check fails")
            if "warm" in texts:
                same = (_GENERATED.sub("", cold)
                        == _GENERATED.sub("", texts["warm"]))
                outcome.record("round-trip", same,
                               problem="warm report differs from cold")
            cache = DiskCache(cache_dir)
            with recorder.paused():
                for name, letter, width in self.permuted(grid):
                    key = cell_key(name, letter, width)
                    result = cache.load_result(name, self.scale,
                                               paper_config(letter, width))
                    digest = (payload_digest(result)
                              if result is not None else None)
                    outcome.record(key, digest is not None
                                   and digest == references.get(key),
                                   digest, "cached result missing or differs")
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        instructions = sum(lengths[name] for name, _, _ in grid)
        return Pass(clocks["cold"], outcome, instructions,
                    {"warm": clocks["warm"]} if "warm" in clocks else None)


class LintCheck(Workload):
    name = "lint-check"
    scale = 0.02
    trace_names = ALL_NAMES
    modules = ("repro.lint", "repro.core.simulator",
               "repro.addrpred.runner")

    def __init__(self, seed):
        super().__init__(seed)
        from layers import CHECKS
        # Checks stay grouped by workload, as ``repro lint`` runs them
        # per target, so each workload's lint report is dropped once its
        # checks are done. The lint passes run first, outside every
        # per-check span, so each ``lint.check_s.<x>`` covers only its
        # own cross-check; the seed permutes the cross-checks.
        self.order = [(name, self.permuted(CHECKS))
                      for name in self.permuted(ALL_NAMES)]

    def run_pass(self, recorder):
        lengths = self.trace_lengths()
        self.fresh_state()
        outcome = Outcome()
        verdicts = []
        with HostClock() as clock:
            for name, checks in self.order:
                reports = {}
                for check in ["lint"] + checks:
                    span = (nullcontext() if check == "lint"
                            else recorder.span("lint.check", check))
                    try:
                        with span:
                            ok = self._check(reports, name, check)
                        verdicts.append((name, check, ok, None))
                    except Exception as exc:  # a failed check is counted
                        verdicts.append((name, check, False,
                                         _failure(exc)))
        for name, check, ok, problem in verdicts:
            outcome.record("%s/%s" % (name, check), ok,
                           problem=problem or "not ok")
        instructions = sum(lengths[name] * len(checks)
                           for name, checks in self.order)
        return Pass(clock, outcome, instructions)

    def _check(self, reports, name, check):
        """One CI cross-check, wired as ``repro lint --all --*-check``
        wires it, through the program's public functions."""
        from repro import lint
        from repro.addrpred import runner as addr_runner
        from repro.core import simulator
        from repro.core.config import paper_config
        from repro.workloads import registry
        if name not in reports:
            reports[name] = lint.lint_workload(name, scale=self.scale)
        report = reports[name]
        if check == "lint":
            return report.ok
        trace = registry.cached_trace(name, self.scale)
        if check == "collapse":
            result = simulator.simulate_trace(
                trace, paper_config("C", 8), sanitize=True)
            return (report.collapse_bound.bound_for_trace(trace)
                    >= result.collapse.events)
        if check == "addr":
            result = addr_runner.run_address_predictor(trace, per_pc=True)
            return lint.cross_check(report.addr_classes, trace, result).ok
        if check == "memdep":
            result = simulator.simulate_trace(
                trace, paper_config("F", 8), sanitize=True)
            return lint.memdep_cross_check(report.memdep_bound, trace,
                                           result).ok
        if check == "recur":
            return lint.recurrence_cross_check(report.recurrence, trace,
                                               widest=2048).ok
        if check == "value":
            return lint.valueflow_cross_check(
                report.valueflow, trace, recurrence=report.recurrence,
                widest=2048).ok
        if check == "dae":
            plan = registry.cached_dae_plan(name, self.scale)
            result = simulator.simulate_trace(
                trace, paper_config("H", 8), sanitize=True, dae_plan=plan)
            return lint.dae_cross_check(report.dae, trace, result).ok
        if check == "branch":
            return lint.branchflow_cross_check(report.branchflow, trace,
                                               widest=2048).ok
        raise ValueError("unknown check %r" % (check,))

    #: cells of the sanitizer-cost comparison (``lint.sanitize_ratio``)
    sanitize_letters = ("C", "F", "H")

    def sanitize_ratio(self):
        """Sanitized / unsanitized ``simulate_trace`` time on the C/8,
        F/8 and H/8 cells the checks simulate, over every workload."""
        from repro.core import simulator
        from repro.core.config import paper_config
        from repro.workloads import registry
        totals = {False: 0.0, True: 0.0}
        for name in ALL_NAMES:
            trace = registry.cached_trace(name, self.scale)
            branch = simulator.branch_outcomes(trace)
            plan = registry.cached_dae_plan(name, self.scale)
            for letter in self.sanitize_letters:
                config = paper_config(letter, 8)
                for sanitize in (False, True):
                    started = time.perf_counter()
                    simulator.simulate_trace(
                        trace, config, branch_result=branch,
                        sanitize=sanitize,
                        dae_plan=plan if config.dae else None)
                    totals[sanitize] += time.perf_counter() - started
        return totals[True] / totals[False]


WORKLOADS = {cls.name: cls for cls in (PaperSweep, Report, LintCheck)}
