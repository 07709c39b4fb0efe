"""Static analysis of assembly kernels and runtime invariant checking.

- The **static analyzer** (:func:`lint_program` and friends) runs the
  passes registered on :mod:`repro.lint.registry` — dataflow checks,
  collapse bound, address / value / branch classes, recurrence bounds,
  memory-dependence conflicts and DAE slicing.  Each registration also
  declares the pass's ``repro lint`` table and cross-check.
- The **runtime sanitizer** (:class:`SchedulerSanitizer`) asserts the
  scheduler's model invariants every cycle.

See ``docs/LINT.md`` for the check catalogue and how to add a pass.
"""

from .addrclass import (
    AddressCheck,
    AddressClassification,
    PREDICTABLE_CLASSES,
    check_addr_untracked,
    cross_check,
)
from .analyzer import (
    LINT_CHECKS,
    lint_path,
    lint_program,
    lint_source,
    lint_workload,
)
from .branchflow import (
    ALL_BRANCH_CLASSES,
    BRANCH_COVERAGE_CAP,
    BRANCH_PREDICTABLE_CLASSES,
    BranchflowCheck,
    BranchFlowAnalysis,
    BranchPlan,
    BranchSite,
    branch_class_join,
    branch_class_leq,
    branchflow_cross_check,
)
from .cfg import ControlFlowGraph
from .collapse_bound import StaticCollapseBound
from .cycles import elementary_cycles
from .dae import (
    DAEAnalysis,
    DAECheck,
    DAEPlan,
    dae_cross_check,
    static_signature,
)
from .findings import SEV_ERROR, SEV_WARNING, Finding, LintReport
from .ipcbound import (
    RecurrenceCheck,
    fetch_refined_ipc,
    recurrence_cross_check,
)
from .loops import DominatorTree, Loop, LoopForest
from .memdep import MemDepBound, MemDepCheck, memdep_cross_check
from .recurrence import LoopRecurrence, RecurrenceAnalysis
from .registry import (
    CheckResult,
    LintCheck,
    LintContext,
    LintPass,
    LintTable,
    lint_passes,
    register_lint_pass,
    unregister_lint_pass,
)
from .sanitize import SanitizeError, SchedulerSanitizer
from .valueflow import (
    VALUE_PREDICTABLE_CLASSES,
    ValueflowCheck,
    ValueFlowAnalysis,
    ValueSite,
    class_join,
    class_leq,
    valueflow_cross_check,
)

__all__ = [
    "AddressCheck",
    "AddressClassification",
    "ALL_BRANCH_CLASSES",
    "BRANCH_COVERAGE_CAP",
    "BRANCH_PREDICTABLE_CLASSES",
    "BranchFlowAnalysis",
    "BranchPlan",
    "BranchSite",
    "BranchflowCheck",
    "CheckResult",
    "ControlFlowGraph",
    "DAEAnalysis",
    "DAECheck",
    "DAEPlan",
    "DominatorTree",
    "Finding",
    "LintCheck",
    "LintContext",
    "LintPass",
    "LintReport",
    "LintTable",
    "LINT_CHECKS",
    "Loop",
    "LoopForest",
    "LoopRecurrence",
    "MemDepBound",
    "MemDepCheck",
    "PREDICTABLE_CLASSES",
    "RecurrenceAnalysis",
    "RecurrenceCheck",
    "SanitizeError",
    "SchedulerSanitizer",
    "SEV_ERROR",
    "SEV_WARNING",
    "StaticCollapseBound",
    "VALUE_PREDICTABLE_CLASSES",
    "ValueFlowAnalysis",
    "ValueSite",
    "ValueflowCheck",
    "branch_class_join",
    "branch_class_leq",
    "branchflow_cross_check",
    "check_addr_untracked",
    "class_join",
    "class_leq",
    "cross_check",
    "dae_cross_check",
    "elementary_cycles",
    "fetch_refined_ipc",
    "lint_passes",
    "lint_path",
    "lint_program",
    "lint_source",
    "lint_workload",
    "memdep_cross_check",
    "recurrence_cross_check",
    "register_lint_pass",
    "static_signature",
    "unregister_lint_pass",
    "valueflow_cross_check",
]
