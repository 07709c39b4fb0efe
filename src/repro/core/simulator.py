"""High-level simulation entry points.

:class:`CellInputs` resolves everything a simulation needs besides the
trace and the machine configuration: the program-order predictor
passes, the static DAE and branch plans and the sanitizer.  It is the
one place that decides which of them a configuration uses, and the only
constructor of :class:`~repro.core.scheduler.WindowScheduler` in the
program.  Branch prediction and address prediction are
configuration-independent (they run in program order), so one
:class:`CellInputs` computes each pass once and feeds every machine;
:func:`simulate_trace` and :func:`simulate_many` are thin wrappers.
"""

from ..addrpred.runner import run_address_predictor
from ..bpred.combining import CombiningPredictor, PerfectPredictor
from ..bpred.runner import run_branch_predictor
from ..vpred.runner import run_value_predictor
from .config import LOAD_SPEC_REAL, VALUE_SPEC_REPLAY
from .scheduler import WindowScheduler


def branch_outcomes(trace, perfect=False):
    """Program-order branch-prediction pass for ``trace``."""
    predictor = PerfectPredictor() if perfect else CombiningPredictor()
    return run_branch_predictor(trace, predictor)


def load_outcomes(trace, table=None):
    """Program-order address-prediction pass for ``trace``."""
    return run_address_predictor(trace, table)


def value_outcomes(trace, table=None, predictor="last"):
    """Program-order value-prediction pass (extension).  ``predictor``
    selects the :mod:`repro.vpred` family member ("last", "stride",
    "fcm", "hybrid")."""
    return run_value_predictor(trace, table, predictor=predictor)


def _value_predictor_kind(config):
    """Config I speculates on the confident *stride* predictor — the
    mechanism the valueflow lint statically bounds; the legacy oracle
    mode (``value_spec=True``) keeps the original last-value pass."""
    return "stride" if config.value_spec == VALUE_SPEC_REPLAY else "last"


def make_sanitizer(trace, config, branch_result=None, dae_plan=None,
                   branch_plan=None):
    """Build a :class:`~repro.lint.sanitize.SchedulerSanitizer` for one
    (trace, config, branch outcome) triple."""
    from ..lint.sanitize import SchedulerSanitizer
    mispredicted = branch_result.mispredicted if branch_result is not None \
        else {}
    return SchedulerSanitizer(trace, config, mispredicted,
                              dae_plan=dae_plan, branch_plan=branch_plan)


def _resolve(value):
    return value() if callable(value) else value


class CellInputs:
    """The simulation inputs of one trace, each resolved at most once.

    ``trace``, ``dae_plan``, ``branch_plan`` and ``branch_pass`` may be
    values or zero-argument callables that run on first use, so inputs a
    configuration never needs are never computed.  ``branch_pass``
    supplies the combining-predictor pass (e.g. from a disk cache);
    without it the pass runs on the trace.  Without a plan, a DAE or
    configuration-J machine degenerates to its base machine.
    """

    def __init__(self, trace, dae_plan=None, branch_plan=None,
                 branch_pass=None):
        self._sources = {"trace": trace, "dae": dae_plan,
                         "branch plan": branch_plan, "branch": branch_pass}
        self._memo = {}

    @classmethod
    def workload(cls, name, scale, trace=None, branch_pass=None):
        """Inputs of registered workload ``name`` at ``scale``: the
        static plans derive from its kernel (``repro.workloads``)."""
        from ..workloads import registry
        return cls(trace if trace is not None
                   else lambda: registry.cached_trace(name, scale),
                   dae_plan=lambda: registry.cached_dae_plan(name, scale),
                   branch_plan=lambda: registry.cached_branch_plan(name,
                                                                   scale),
                   branch_pass=branch_pass)

    def _input(self, key, compute=None):
        """Input ``key``: its given source, else ``compute``, once."""
        if key not in self._memo:
            source = self._sources.get(key)
            self._memo[key] = _resolve(source if source is not None
                                       else compute)
        return self._memo[key]

    @property
    def trace(self):
        return self._input("trace")

    def branch(self, perfect=False):
        """The branch pass: perfect prediction, or the combining
        predictor."""
        if perfect:
            return self._input("perfect branch",
                               lambda: branch_outcomes(self.trace,
                                                       perfect=True))
        return self._input("branch", lambda: branch_outcomes(self.trace))

    def loads(self):
        """The two-delta address-prediction pass."""
        return self._input("loads", lambda: load_outcomes(self.trace))

    def values(self, config):
        """The value-prediction pass ``config`` speculates on."""
        kind = _value_predictor_kind(config)
        return self._input(("values", kind),
                           lambda: value_outcomes(self.trace,
                                                  predictor=kind))

    def scheduler(self, config, branch_result=None, load_prediction=None,
                  value_prediction=None, sanitize=False):
        """The :class:`WindowScheduler` for ``config``.  Explicit passes
        override the resolved ones (``load_prediction`` may be a
        zero-argument callable, which runs only here); ``sanitize``
        attaches a :class:`~repro.lint.sanitize.SchedulerSanitizer`."""
        trace = self.trace
        if branch_result is None:
            branch_result = self.branch(config.perfect_branches)
        load_prediction = _resolve(load_prediction)
        if load_prediction is None and config.load_spec == LOAD_SPEC_REAL:
            load_prediction = self.loads()
        if value_prediction is None and config.value_spec:
            value_prediction = self.values(config)
        dae_plan = self._input("dae") if config.dae else None
        branch_plan = self._input("branch plan") if config.branch_spec \
            else None
        sanitizer = make_sanitizer(trace, config, branch_result,
                                   dae_plan=dae_plan,
                                   branch_plan=branch_plan) if sanitize \
            else None
        return WindowScheduler(trace, config, branch_result,
                               load_prediction, value_prediction,
                               sanitizer=sanitizer, dae_plan=dae_plan,
                               branch_plan=branch_plan)

    def simulate(self, config, **overrides):
        """Run :meth:`scheduler` and return its ``SimResult``."""
        return self.scheduler(config, **overrides).run()


def simulate_trace(trace, config, branch_result=None, load_prediction=None,
                   value_prediction=None, sanitize=False, dae_plan=None,
                   branch_plan=None):
    """Simulate ``trace`` on ``config`` and return a ``SimResult``.

    With ``sanitize=True`` the run carries a scheduler sanitizer that
    re-checks the model invariants and raises
    :class:`~repro.lint.sanitize.SanitizeError` on any violation.
    ``dae_plan`` supplies the static access/execute slices a
    ``config.dae`` machine decouples with (``repro.lint.dae``);
    ``branch_plan`` the load-driven exit-branch contract a
    ``config.branch_spec`` machine resolves with
    (``repro.lint.branchflow``).
    """
    inputs = CellInputs(trace, dae_plan=dae_plan, branch_plan=branch_plan)
    return inputs.simulate(config, branch_result=branch_result,
                           load_prediction=load_prediction,
                           value_prediction=value_prediction,
                           sanitize=sanitize)


def simulate_many(trace, configs, sanitize=False, dae_plan=None,
                  branch_plan=None):
    """Simulate ``trace`` on several configurations, sharing predictor
    passes.  Returns a list of ``SimResult`` in the order of ``configs``.
    """
    inputs = CellInputs(trace, dae_plan=dae_plan, branch_plan=branch_plan)
    return [inputs.simulate(config, sanitize=sanitize)
            for config in configs]
