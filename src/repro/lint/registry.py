"""Declarative lint-pass registry.

Mirrors :func:`repro.core.config.register_config`: a pass registers
itself once with :func:`register_lint_pass` and the driver
(:func:`repro.lint.analyzer.lint_program`) iterates
:func:`lint_passes`, so a new pass reaches ``repro lint`` (and
``--all``) structurally — there is no hand-maintained call list to
forget to extend.

A pass is a callable ``fn(ctx)`` receiving a :class:`LintContext`; it
returns an iterable of :class:`~repro.lint.findings.Finding` (or
``None``) and may attach analysis objects to ``ctx.report`` and share
intermediates with later passes through ``ctx.shared`` (e.g. the
address-classification pass publishes ``ctx.shared["addr_classes"]``
for the recurrence pass, which in turn publishes
``ctx.shared["recurrence"]`` for the DAE slicer).

The registration also declares the pass's whole ``repro lint`` surface:
an optional :class:`LintTable` (the flag printing its per-site table)
and an optional :class:`LintCheck` (the flag proving it against a
registered workload).  The CLI builds its flags, ``--list`` and its
output loops from these declarations alone.
"""

from ..metrics import render_table


class LintContext:
    """Everything one lint run hands to its passes."""

    __slots__ = ("program", "cfg", "file", "rules", "report", "shared")

    def __init__(self, program, cfg, file, rules, report):
        self.program = program
        self.cfg = cfg
        self.file = file
        #: CollapseRules override (None = paper rules)
        self.rules = rules
        self.report = report
        #: pass-to-pass scratch space, keyed by convention on pass name
        self.shared = {}


class _Flag:
    """A ``repro lint`` switch: ``--flag`` stores True in ``dest``."""

    __slots__ = ("flag", "help")

    def __init__(self, flag, help):
        self.flag = flag
        self.help = help

    @property
    def dest(self):
        return self.flag.lstrip("-").replace("-", "_")


class LintTable(_Flag):
    """The flag printing a pass's table from ``report.<attr>``.

    The analysis object's ``summary_rows()`` fill a table under
    ``headers`` titled ``"<title>: <target>"``; ``empty`` is printed
    instead when there are no rows, and ``footer(analysis)`` (if given)
    returns a line printed after either.
    """

    __slots__ = ("attr", "title", "headers", "footer", "empty")

    def __init__(self, flag, help, attr, title, headers, footer=None,
                 empty=None):
        super().__init__(flag, help)
        self.attr = attr
        self.title = title
        self.headers = headers
        self.footer = footer
        self.empty = empty

    def render(self, report):
        """The output lines for one lint report (none when the pass did
        not run, e.g. on a file that failed to assemble)."""
        analysis = getattr(report, self.attr, None)
        if analysis is None:
            return []
        rows = analysis.summary_rows()
        lines = []
        if rows:
            lines.append(render_table(
                self.headers, rows,
                title="%s: %s" % (self.title, report.target)))
        elif self.empty:
            lines.append(self.empty)
        if self.footer is not None:
            lines.append(self.footer(analysis))
        return lines


class LintCheck(_Flag):
    """The flag proving a pass against a registered workload.

    ``run(report, name, scale)`` checks the lint ``report`` of workload
    ``name`` at ``scale`` and returns a :class:`CheckResult`.
    """

    __slots__ = ("run",)

    def __init__(self, flag, help, run):
        super().__init__(flag, help)
        self.run = run


class CheckResult:
    """One check's verdict: the summary ``lines`` ``repro lint`` prints,
    then each of ``violations``; ``ok`` when there are none."""

    __slots__ = ("lines", "violations")

    def __init__(self, lines, violations=()):
        self.lines = list(lines)
        self.violations = list(violations)

    @property
    def ok(self):
        return not self.violations


class LintPass:
    """One registered pass: metadata, the callable and its CLI surface
    (``table`` / ``check`` declarations, either may be None)."""

    __slots__ = ("name", "title", "order", "fn", "table", "check")

    def __init__(self, name, title, order, fn, table=None, check=None):
        self.name = name
        self.title = title
        self.order = order
        self.fn = fn
        self.table = table
        self.check = check

    @property
    def options(self):
        """The declared ``repro lint`` flags: table, then check."""
        return tuple(o for o in (self.table, self.check) if o is not None)

    def run(self, ctx):
        return self.fn(ctx)

    def __repr__(self):
        return "<LintPass %s (order %d)>" % (self.name, self.order)


#: name -> LintPass; mutated only through (un)register_lint_pass
LINT_PASSES = {}


def register_lint_pass(name, title, order=100, table=None, check=None):
    """Decorator registering ``fn(ctx)`` as lint pass ``name``.

    ``order`` fixes the execution sequence (ties break on name), which
    matters for passes consuming ``ctx.shared`` products of earlier
    ones.  ``table`` (:class:`LintTable`) and ``check``
    (:class:`LintCheck`) declare the pass's ``repro lint`` flags.
    Registering a taken name or flag raises ``ValueError`` — redefine a
    pass by unregistering it first.
    """
    def decorate(fn):
        if name in LINT_PASSES:
            raise ValueError("lint pass %r is already registered" % (name,))
        lint_pass = LintPass(name, title, order, fn, table=table,
                             check=check)
        taken = {option.flag for other in LINT_PASSES.values()
                 for option in other.options}
        for option in lint_pass.options:
            if option.flag in taken:
                raise ValueError("lint flag %s is already registered"
                                 % (option.flag,))
        LINT_PASSES[name] = lint_pass
        return fn
    return decorate


def unregister_lint_pass(name):
    """Remove a registered pass (primarily for tests)."""
    del LINT_PASSES[name]


def lint_passes():
    """All registered passes in execution order."""
    return sorted(LINT_PASSES.values(),
                  key=lambda p: (p.order, p.name))


__all__ = ["CheckResult", "LintCheck", "LintContext", "LintPass",
           "LintTable", "LINT_PASSES", "register_lint_pass",
           "unregister_lint_pass", "lint_passes"]
