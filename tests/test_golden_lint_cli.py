"""Golden lint CLI: ``repro lint`` output is pinned by digest.

Every table and check flag of ``repro lint`` is run once in this
process, and the sha256 of its stdout plus its exit code are compared
against ``golden_lint_cli.json`` next to this file:

- ``lint --all --scale 0.02 FLAG`` for each of the 14 pass flags (the
  check flags simulate every registered workload);
- ``lint examples/*.s FLAG`` for each of the 7 table flags.

One flag per run, so the pins leave the order of sections free only in
runs that combine flags.  The output does not depend on the compute
kernel or on numpy being importable.

Regenerate the digests (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden_lint_cli.py
"""

import contextlib
import glob
import hashlib
import io
import json
import os

import pytest

from repro.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_lint_cli.json")
SCALE = "0.02"
TABLE_FLAGS = ("--bounds", "--addr", "--value", "--recur", "--branch",
               "--memdep", "--dae")
CHECK_FLAGS = ("--cross-check", "--addr-check", "--value-check",
               "--recur-check", "--branch-check", "--memdep-check",
               "--dae-check")


def _cases():
    """Case key -> argv; example paths are relative to the repo root."""
    examples = sorted(os.path.relpath(path, ROOT) for path in
                      glob.glob(os.path.join(ROOT, "examples", "*.s")))
    cases = {}
    for flag in TABLE_FLAGS + CHECK_FLAGS:
        cases["all " + flag] = ["lint", "--all", "--scale", SCALE, flag]
    for flag in TABLE_FLAGS:
        cases["examples " + flag] = ["lint"] + examples + [flag]
    return cases


def _run(argv):
    """Exit code and stdout digest of one in-process CLI run."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return {"exit": code, "sha256": digest}


CASES = _cases()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("key", sorted(CASES))
def test_lint_cli_output_matches_golden(key, golden):
    assert _run(CASES[key]) == golden[key]


if __name__ == "__main__":
    digests = {key: _run(argv) for key, argv in sorted(CASES.items())}
    with open(GOLDEN, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(digests), GOLDEN))
