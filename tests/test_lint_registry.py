"""The declarative lint-pass registry (repro.lint.registry): built-in
pass roster, ordering, duplicate rejection, and structural pickup of
new passes, their table and their check by the driver and the CLI."""

import pytest

from repro.asm import assemble
from repro.cli import main
from repro.lint import (
    lint_passes,
    lint_program,
    register_lint_pass,
    unregister_lint_pass,
)
from repro.lint.findings import Finding, SEV_WARNING
from repro.lint.registry import CheckResult, LintCheck, LintTable

from .test_lint_recurrence import ACCUMULATOR

_BUILTINS = ("dataflow", "collapse-bound", "addr-class", "recurrence",
             "memdep", "dae")


def test_builtin_passes_registered_in_order():
    names = [p.name for p in lint_passes()]
    assert list(_BUILTINS) == [n for n in names if n in _BUILTINS]
    orders = [p.order for p in lint_passes()]
    assert orders == sorted(orders)


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        @register_lint_pass("dae", "impostor", order=99)
        def _impostor(ctx):
            return ()


def test_duplicate_flag_rejected():
    with pytest.raises(ValueError, match="--dae-check"):
        @register_lint_pass("impostor", "steals a flag", order=99,
                            check=LintCheck("--dae-check", "impostor",
                                            None))
        def _impostor(ctx):
            return ()
    assert all(p.name != "impostor" for p in lint_passes())


def test_unknown_unregister_rejected():
    with pytest.raises(KeyError):
        unregister_lint_pass("no-such-pass")


def test_throwaway_pass_reaches_driver_and_cli(capsys):
    @register_lint_pass("throwaway", "test-only pass", order=95)
    def _throwaway(ctx):
        return [Finding("throwaway-check",
                        "planted by test_lint_registry",
                        file=ctx.file, line=1, severity=SEV_WARNING)]

    try:
        # Driver pickup: no analyzer edit, the pass just runs.
        report = lint_program(assemble(ACCUMULATOR), target="<t>")
        assert any(f.check == "throwaway-check" for f in report.findings)
        assert report.ok     # a warning does not spoil "clean"

        # CLI pickup: the finding shows up in `repro lint --all`.
        code = main(["lint", "--all", "--scale", "0.03"])
        out = capsys.readouterr().out
        assert code == 0
        assert "throwaway-check" in out
        assert "planted by test_lint_registry" in out
    finally:
        unregister_lint_pass("throwaway")
    assert all(p.name != "throwaway" for p in lint_passes())


def test_pass_ordering_controls_execution_order():
    seen = []

    @register_lint_pass("zz-first", "runs before dataflow", order=1)
    def _first(ctx):
        seen.append("first")
        return ()

    @register_lint_pass("aa-last", "runs after dae", order=999)
    def _last(ctx):
        seen.append("last")
        return ()

    try:
        lint_program(assemble(ACCUMULATOR))
        assert seen == ["first", "last"]
    finally:
        unregister_lint_pass("zz-first")
        unregister_lint_pass("aa-last")


class _ProbeSites:
    def summary_rows(self):
        return [(0, 2)]


def _register_probe(ok):
    """A pass with a table and a check that passes or fails on demand."""
    def run(report, name, scale):
        return CheckResult(
            ["  probe-check %s: %s" % (name, "ok" if ok else "FAILED")],
            [] if ok else ["planted violation on %s" % (name,)])

    @register_lint_pass(
        "probe", "test-only checked pass", order=96,
        table=LintTable("--probe", "print the probe table (test only)",
                        "probe", "probe sites", ("index", "line"),
                        footer=lambda sites: "  probe footer"),
        check=LintCheck("--probe-check", "prove the probe (test only)",
                        run))
    def _probe(ctx):
        ctx.report.probe = _ProbeSites()
        return ()


def test_registered_table_and_check_reach_cli(capsys):
    _register_probe(ok=False)
    try:
        assert main(["lint", "--list"]) == 0
        assert "--probe --probe-check" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["lint", "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--probe-check" in help_text
        assert "prove the probe (test only)" in help_text

        code = main(["lint", "li", "--scale", "0.02", "--probe",
                     "--probe-check"])
        out = capsys.readouterr().out
        assert code == 2
        assert "probe sites: <workload:li>" in out
        assert "  probe footer" in out
        assert "  probe-check li: FAILED" in out
        assert "    planted violation on li" in out
    finally:
        unregister_lint_pass("probe")

    _register_probe(ok=True)
    try:
        code = main(["lint", "li", "--scale", "0.02", "--probe-check"])
        out = capsys.readouterr().out
        assert code == 0
        assert "  probe-check li: ok" in out
        assert "planted violation" not in out
    finally:
        unregister_lint_pass("probe")

    assert main(["lint", "--list"]) == 0
    assert "--probe" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["lint", "li", "--probe-check"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --probe-check" in \
        capsys.readouterr().err
