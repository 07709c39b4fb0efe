"""Lint driver: run every registered pass over a program, source text,
file or registered workload and collect a :class:`LintReport`.

Passes live on the declarative registry (:mod:`repro.lint.registry`):
the driver builds the CFG once, wraps it in a
:class:`~repro.lint.registry.LintContext` and iterates
:func:`~repro.lint.registry.lint_passes` in order, so a new analysis
only has to call :func:`~repro.lint.registry.register_lint_pass` to
appear in ``repro lint`` / ``--all`` output.  Each registration below
also declares the pass's table and check flags; a check hook proves the
pass against the workload's trace, predictors and simulations, which it
imports only when it runs.

An assembly failure is itself a located finding (check ``assemble``)
rather than an exception, so ``repro lint`` reports broken files in the
same ``file:line`` format as semantic findings.
"""

from ..asm.assembler import assemble
from ..errors import AssemblyError
from .addrclass import (
    AddressClassification,
    check_addr_untracked,
    cross_check,
)
from .cfg import ControlFlowGraph
from .collapse_bound import StaticCollapseBound
from .dae import DAEAnalysis, dae_cross_check
from .dataflow import (
    check_assignment,
    check_dead_results,
    check_off_end,
    check_unreachable,
)
from .branchflow import BranchFlowAnalysis, branchflow_cross_check
from .findings import Finding, LintReport
from .ipcbound import SIM_GRAPHS, SIM_LETTERS, recurrence_cross_check
from .memdep import MemDepBound, memdep_cross_check
from .recurrence import VARIANTS, RecurrenceAnalysis
from .registry import (
    CheckResult,
    LintCheck,
    LintContext,
    LintTable,
    lint_passes,
    register_lint_pass,
)
from .valueflow import ValueFlowAnalysis, valueflow_cross_check

#: check name -> callable(program, cfg, file) for the dataflow passes
LINT_CHECKS = {
    "uninit-read": check_assignment,       # also emits cc-missing
    "dead-store": check_dead_results,
    "unreachable": check_unreachable,
    "fallthrough-end": check_off_end,
    "addr-untracked": check_addr_untracked,
}


#: issue width of the widest machine the checks simulate
CHECK_WIDEST = 2048


def _workload(name, scale):
    """The workload's cached trace and plans, each resolved on use."""
    from ..core.simulator import CellInputs
    return CellInputs.workload(name, scale)


def _simulate_sanitized(inputs, letter):
    """A sanitized ``letter``/8 run of the workload behind ``inputs``."""
    from ..core.config import paper_config
    return inputs.simulate(paper_config(letter, 8), sanitize=True)


def _class_counts(label):
    """Table footer: the nonzero per-class site counts."""
    def footer(analysis):
        return "  %s classes: " % (label,) + "  ".join(
            "%s %d" % (cls, n)
            for cls, n in analysis.class_counts().items() if n)
    return footer


@register_lint_pass("dataflow", "register/cc dataflow checks", order=10)
def _pass_dataflow(ctx):
    findings = []
    for check in (check_unreachable, check_off_end, check_assignment,
                  check_dead_results, check_addr_untracked):
        findings.extend(check(ctx.program, ctx.cfg, file=ctx.file))
    return findings


def _collapse_check(report, name, scale):
    """Simulate the workload and verify the static collapse bound."""
    inputs = _workload(name, scale)
    events = _simulate_sanitized(inputs, "C").collapse.events
    bound = report.collapse_bound.bound_for_trace(inputs.trace)
    ok = bound >= events
    return CheckResult(
        ["  cross-check %s: static bound %d %s dynamic events %d "
         "(C/8, sanitized)" % (name, bound, ">=" if ok else "<", events)],
        [] if ok else ["static collapse bound %d < dynamic events %d"
                       % (bound, events)])


@register_lint_pass(
    "collapse-bound", "static collapse opportunities", order=20,
    table=LintTable(
        "--bounds", "print the static collapse-opportunity table",
        "collapse_bound", "static collapse opportunities",
        ("index", "line", "signature", "arcs", "bound"),
        footer=lambda bound: "  static per-execution bound: %d collapse "
                             "events" % (bound.static_bound,)),
    check=LintCheck(
        "--cross-check", "simulate workload targets and verify the "
                         "static collapse bound >= dynamic events",
        _collapse_check))
def _pass_collapse_bound(ctx):
    ctx.report.collapse_bound = StaticCollapseBound(
        ctx.program, rules=ctx.rules, cfg=ctx.cfg)
    return ()


def _addr_check(report, name, scale):
    """Run the per-PC predictor and verify the address classification."""
    from ..addrpred import run_address_predictor
    trace = _workload(name, scale).trace
    check = cross_check(report.addr_classes, trace,
                        run_address_predictor(trace, per_pc=True))
    return CheckResult(
        ["  addr-check %s: %s — %d sites checked (%d aliased, %d "
         "short), coverage bound %.3f %s dynamic %.3f, steady "
         "accuracy %.3f"
         % (name, "ok" if check.ok else "FAILED", check.checked_sites,
            check.skipped_aliased, check.skipped_short,
            check.coverage_bound,
            ">=" if check.coverage_bound >= check.dynamic_coverage
            else "<", check.dynamic_coverage, check.steady_accuracy)],
        check.violations)


@register_lint_pass(
    "addr-class", "load address classification", order=30,
    table=LintTable(
        "--addr", "print the per-load address-class table "
                  "(loop/induction-variable pass)",
        "addr_classes", "load address classes",
        ("index", "line", "class", "stride", "loop line", "depth"),
        footer=_class_counts("address")),
    check=LintCheck(
        "--addr-check", "run the two-delta predictor per PC on workload "
                        "targets and verify the static address "
                        "classification",
        _addr_check))
def _pass_addr_class(ctx):
    classes = AddressClassification(ctx.program, ctx.cfg)
    ctx.shared["addr_classes"] = classes
    ctx.report.addr_classes = classes
    return ()


def _value_check(report, name, scale):
    """Verify the static value classification against the per-PC
    stride-predictor histograms and the variant-V soundness chain
    (static ceiling >= graph-V dataflow IPC >= simulated config I)."""
    check = valueflow_cross_check(
        report.valueflow, _workload(name, scale).trace,
        recurrence=report.recurrence, widest=CHECK_WIDEST)
    lines = ["  value-check %s: %s — %d predictable load sites checked "
             "(%d aliased, %d short skipped), coverage bound %.3f >= "
             "dynamic %.3f, steady accuracy %.3f"
             % (name, "ok" if check.ok else "FAILED",
                check.checked_sites, check.skipped_aliased,
                check.skipped_short, check.coverage_bound,
                check.dynamic_coverage, check.steady_accuracy)]
    if check.sim_ipc is not None:
        bound = ("%.2f" % check.static_bound
                 if check.static_bound is not None else "inf")
        lines.append("    V: static ceiling %s IPC >= graph-V %.2f IPC >= "
                     "simulated I %.2f IPC (width %d, %d runs)"
                     % (bound, check.graph_ipc, check.sim_ipc,
                        check.widest, check.runs_checked))
    return CheckResult(lines, check.violations)


@register_lint_pass(
    "valueflow", "result-value predictability", order=35,
    table=LintTable(
        "--value", "print the per-instruction result-value class table "
                   "(valueflow pass)",
        "valueflow", "result-value classes",
        ("index", "line", "class", "stride/k", "loop line", "depth"),
        footer=_class_counts("value")),
    check=LintCheck(
        "--value-check", "run the stride value predictor per PC on "
                         "workload targets and verify the static "
                         "classification plus the variant-V chain "
                         "static ceiling >= graph V >= simulated "
                         "config I (exit 2 on violation)",
        _value_check))
def _pass_valueflow(ctx):
    classes = ctx.shared["addr_classes"]
    valueflow = ValueFlowAnalysis(ctx.program, cfg=ctx.cfg,
                                  forest=classes.forest,
                                  values=classes.values)
    ctx.shared["valueflow"] = valueflow
    ctx.report.valueflow = valueflow
    return ()


def _recur_check(report, name, scale):
    """Verify the static recurrence bounds against the dynamic
    dependence graphs and the simulated machines (soundness chain:
    static <= dynamic growth, static IPC bound >= dataflow IPC >=
    simulated IPC at the widest machine)."""
    check = recurrence_cross_check(report.recurrence,
                                   _workload(name, scale).trace,
                                   widest=CHECK_WIDEST)
    lines = ["  recur-check %s: %s — %d loops, %d runs checked "
             "(width %d)"
             % (name, "ok" if check.ok else "FAILED",
                check.loops_checked, check.runs_checked, check.widest)]
    for variant in VARIANTS:
        bound = check.static_bound[variant]
        line = ("    %s: static floor %d cycles, bound %s IPC >= "
                "dataflow %.2f IPC"
                % (variant, check.static_floor[variant],
                   "%.2f" % bound if bound is not None else "inf",
                   check.ipc[variant]))
        sim = check.sim.get(variant)
        if sim is not None:
            key = SIM_GRAPHS[variant]
            if key != variant:
                line += "; ideal-cut %.2f IPC" % (check.ipc[key],)
            line += (" >= simulated %s %.2f IPC"
                     % (SIM_LETTERS[variant], sim))
        lines.append(line)
    return CheckResult(lines, check.violations)


@register_lint_pass(
    "recurrence", "loop recurrence (recMII) bounds", order=40,
    table=LintTable(
        "--recur", "print the per-loop recurrence (recMII) table for "
                   "the base / collapsed / d-speculated graph variants",
        "recurrence", "loop recurrence bounds",
        ("line", "body", "nodes", "cycles",
         "recMII A", "recMII C", "recMII E", "recMII V",
         "ceil A", "ceil C", "ceil E", "ceil V", "note"),
        empty="  no innermost reducible loops to bound"),
    check=LintCheck(
        "--recur-check", "verify the static recurrence bounds against "
                         "the trace dependence graphs and the simulated "
                         "machines (exit 2 on violation)",
        _recur_check))
def _pass_recurrence(ctx):
    classes = ctx.shared["addr_classes"]
    recurrence = RecurrenceAnalysis(ctx.program, cfg=ctx.cfg,
                                    forest=classes.forest,
                                    classes=classes,
                                    valueflow=ctx.shared["valueflow"])
    ctx.shared["recurrence"] = recurrence
    ctx.report.recurrence = recurrence
    return recurrence.findings(file=ctx.file)


def _branch_check(report, name, scale):
    """Verify the static branch classification against per-PC combining
    histograms and the config-J soundness chain (static ceiling >=
    measured accuracy >= early-resolution coverage)."""
    check = branchflow_cross_check(report.branchflow,
                                   _workload(name, scale).trace,
                                   widest=CHECK_WIDEST)
    lines = ["  branch-check %s: %s — %d sites, %d trip floors checked, "
             "coverage bound %.3f %s confident %.3f, ceiling %.4f %s "
             "accuracy %.4f"
             % (name, "ok" if check.ok else "FAILED", check.sites,
                check.floors_checked, check.coverage_bound,
                ">=" if check.coverage_bound >= check.confident_coverage
                else "<", check.confident_coverage, check.ceiling,
                ">=" if check.ceiling >= check.accuracy else "<",
                check.accuracy)]
    if check.early_coverage is not None:
        sim_i = check.sim.get("I")
        sim_j = check.sim.get("J")
        lines.append("    J: %d plan branches, early coverage %.4f <= "
                     "accuracy; cycles J %d <= I %d (width %d, fetch "
                     "floor %d)"
                     % (check.plan_branches, check.early_coverage,
                        sim_j.cycles if sim_j is not None else -1,
                        sim_i.cycles if sim_i is not None else -1,
                        CHECK_WIDEST, check.floor))
    return CheckResult(lines, check.violations)


@register_lint_pass(
    "branchflow", "branch predictability", order=45,
    table=LintTable(
        "--branch", "print the per-branch predictability table (trip / "
                    "exit / invariant / periodic / history / load / "
                    "straight / unknown)",
        "branchflow", "branch predictability classes",
        ("index", "line", "class", "trip", "period", "exit", "load",
         "note"),
        footer=_class_counts("branch")),
    check=LintCheck(
        "--branch-check", "verify trip floors, class-capped coverage and "
                          "the accuracy ceiling against per-PC combining "
                          "histograms plus a config-J (load-driven exit-"
                          "branch) simulation (exit 2 on violation)",
        _branch_check))
def _pass_branchflow(ctx):
    classes = ctx.shared["addr_classes"]
    branchflow = BranchFlowAnalysis(ctx.program, cfg=ctx.cfg,
                                    forest=classes.forest,
                                    values=classes.values,
                                    addr_classes=classes)
    ctx.shared["branchflow"] = branchflow
    ctx.report.branchflow = branchflow
    return ()


def _memdep_check(report, name, scale):
    """Replay the trace's store->load dependences and an MDPT (config
    F) simulation against the static may-alias conflict set."""
    inputs = _workload(name, scale)
    result = _simulate_sanitized(inputs, "F")
    check = memdep_cross_check(report.memdep_bound, inputs.trace, result)
    memdep = result.memdep
    return CheckResult(
        ["  memdep-check %s: %s — static conflict pairs %d %s "
         "distinct dynamic pairs %d (%d MDPT-learned, %d violations, "
         "F/8, sanitized)"
         % (name, "ok" if check.ok else "FAILED", check.static_pairs,
            ">=" if check.static_pairs >= check.dynamic_pairs else "<",
            check.dynamic_pairs, check.mdpt_pairs,
            memdep.violations if memdep is not None else 0)],
        check.violations)


@register_lint_pass(
    "memdep", "may-alias conflict pairs", order=50,
    table=LintTable(
        "--memdep", "print the per-reference may-alias table (bounded "
                    "congruence address forms)",
        "memdep_bound", "memory references and may-alias conflicts",
        ("index", "line", "kind", "anchor", "mod", "lo", "hi",
         "conflicts"),
        footer=lambda bound: "  conflict pairs: %d of %d load x store"
                             % (bound.conflict_count, bound.pair_count)),
    check=LintCheck(
        "--memdep-check", "verify the static may-alias conflict set "
                          "against trace store->load dependences and an "
                          "MDPT (config F) simulation (exit 2 on "
                          "violation)",
        _memdep_check))
def _pass_memdep(ctx):
    classes = ctx.shared["addr_classes"]
    ctx.report.memdep_bound = MemDepBound(ctx.program, cfg=ctx.cfg,
                                          forest=classes.forest,
                                          values=classes.values)
    return ()


def _dae_check(report, name, scale):
    """Simulate configuration H with the static decoupling plan and
    verify the slice <-> occupancy invariants."""
    inputs = _workload(name, scale)
    check = dae_cross_check(report.dae, inputs.trace,
                            _simulate_sanitized(inputs, "H"))
    return CheckResult(
        ["  dae-check %s: %s — %d loops (%d clean, %d queued, %d "
         "chase-poisoned, %d skipped), peak queue %d, %d enqueued / "
         "%d popped, %d chase deps on coupled loops (H/8, sanitized)"
         % (name, "ok" if check.ok else "FAILED", check.loops_checked,
            check.clean_loops, check.queued_loops,
            check.poisoned_loops, check.skipped_loops, check.peak,
            check.enqueued, check.popped, check.chase_deps)],
        check.violations)


@register_lint_pass(
    "dae", "access/execute loop slicing", order=60,
    table=LintTable(
        "--dae", "print the per-loop access/execute slice table (clean / "
                 "chase-poisoned / skipped)",
        "dae", "access/execute loop slices",
        ("line", "body", "loads", "verdict", "access", "frac",
         "boundary", "recMII acc", "recMII body", "depth", "note"),
        empty="  no innermost reducible loops to slice"),
    check=LintCheck(
        "--dae-check", "simulate configuration H with the static "
                       "decoupling plan and verify clean loops never "
                       "chase plus queue occupancy within the static "
                       "depth bound (exit 2 on violation)",
        _dae_check))
def _pass_dae(ctx):
    dae = DAEAnalysis(ctx.program, cfg=ctx.cfg,
                      recurrence=ctx.shared["recurrence"])
    ctx.report.dae = dae
    return dae.findings(file=ctx.file)


def lint_program(program, target="<program>", rules=None):
    """Run all registered passes over an assembled program."""
    cfg = ControlFlowGraph(program)
    report = LintReport(target, [])
    report.instructions = cfg.n
    report.blocks = len(cfg.leaders)
    ctx = LintContext(program, cfg, target, rules, report)
    for lint_pass in lint_passes():
        found = lint_pass.run(ctx)
        if found:
            report.extend(found)
    return report


def lint_source(text, target="<source>", rules=None):
    """Assemble source text and lint it; assembly errors become
    findings."""
    try:
        program = assemble(text)
    except AssemblyError as exc:
        report = LintReport(target, [Finding(
            "assemble", exc.bare_message, file=target, line=exc.line)])
        return report
    return lint_program(program, target=target, rules=rules)


def lint_path(path, rules=None):
    """Lint one ``.s`` file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return lint_source(text, target=str(path), rules=rules)


def lint_workload(name, scale=0.05, rules=None):
    """Lint the assembly a registered workload generates at ``scale``."""
    from ..workloads.registry import get_workload
    workload = get_workload(name)
    program = workload.build(scale=scale)
    return lint_program(program, target="<workload:%s>" % (name,),
                        rules=rules)


__all__ = ["lint_program", "lint_source", "lint_path", "lint_workload",
           "LINT_CHECKS"]
