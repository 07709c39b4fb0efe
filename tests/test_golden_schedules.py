"""Golden schedules: every ``SimResult`` payload is pinned by digest.

The scheduler must stay byte-identical across refactors: this module
hashes the full :meth:`SimResult.to_payload` (per-instruction
``issue_cycles`` included) of

- every registered configuration letter x widths 4/8/2048 x all 7
  registered workloads (the Table 1 suite plus the extras; ``vortex`` is
  the one workload with a non-empty configuration-J branch plan), run
  through :class:`ExperimentRunner`;
- the extension configurations the exhibits build: D+elim, D+vspec (the
  oracle value mode), D+both, a non-default ``mdpt_sensitivity`` MDPT
  geometry and the single-fetch-block front end (``fetch_taken_break``);
- a one-entry, one-store MDPT: the exhibit geometries schedule exactly
  like the default table at this scale, while this one aliases enough to
  change ``go`` at width 2048, so it pins that the geometry reaches the
  table;
- configuration D under each collapse ablation rule set (pairs only,
  consecutive only, within block only, no zero detection, distance <= 2):
  these reach the legality branches the paper's own rules never take;
- a sanitized D/F/G/H/I/J run at width 8

at scale 0.01, and compares the digests against ``golden_schedules.json``
next to this file.  Payloads do not depend on the compute kernel, so the
test passes under ``REPRO_KERNEL=python`` and ``numpy`` alike.

Regenerate the digests (only when a schedule change is intended) with::

    PYTHONPATH=src python tests/test_golden_schedules.py
"""

import hashlib
import json
import os

import pytest

from repro.collapse.rules import CollapseRules
from repro.core.config import (
    LOAD_SPEC_REAL,
    MachineConfig,
    config_letters,
    paper_config,
)
from repro.experiments import ExperimentRunner
from repro.workloads import EXTRAS, SUITE

SCALE = 0.01
WIDTHS = (4, 8, 2048)
NAMES = tuple(workload.name for workload in SUITE + EXTRAS)
SANITIZED_LETTERS = ("D", "F", "G", "H", "I", "J")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_schedules.json")


def _digest(result):
    blob = json.dumps(result.to_payload(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _extension_configs(width):
    """The non-letter configurations the extension exhibits simulate."""
    def variant(elim, vspec):
        return MachineConfig(width, collapse_rules=CollapseRules.paper(),
                             load_spec=LOAD_SPEC_REAL,
                             node_elimination=elim, value_spec=vspec)
    return (("D+elim", variant(True, False)),
            ("D+vspec", variant(False, True)),
            ("D+both", variant(True, True)),
            ("F+mdpt64x2", paper_config("F", width, mdpt_entries=64,
                                        mdpt_store_set=2)),
            ("F+mdpt1x1", paper_config("F", width, mdpt_entries=1,
                                       mdpt_store_set=1)),
            ("A+fetchbreak", paper_config("A", width,
                                          fetch_taken_break=True)),
            ("D+fetchbreak", paper_config("D", width,
                                          fetch_taken_break=True)),
            ("D+pairs", paper_config("D", width,
                                     rules=CollapseRules.pairs_only())),
            ("D+consecutive", paper_config(
                "D", width, rules=CollapseRules.consecutive_only())),
            ("D+withinblock", paper_config(
                "D", width, rules=CollapseRules.within_block_only())),
            ("D+no0op", paper_config(
                "D", width, rules=CollapseRules.no_zero_detection())),
            ("D+dist2", paper_config(
                "D", width, rules=CollapseRules(max_distance=2))))


def workload_digests(name):
    """Digest of every golden cell of one workload, keyed by cell."""
    digests = {}
    runner = ExperimentRunner(scale=SCALE, widths=WIDTHS, names=(name,),
                              keep_schedules=True)
    for letter in config_letters():
        for width in WIDTHS:
            digests["%s/%s/%d" % (name, letter, width)] = _digest(
                runner.result(name, letter, width))
    for width in (8, 2048):
        for label, config in _extension_configs(width):
            digests["%s/%s/%d" % (name, label, width)] = _digest(
                runner.simulate(name, config))
    sanitized = ExperimentRunner(scale=SCALE, widths=(8,), names=(name,),
                                 keep_schedules=True, sanitize=True)
    for letter in SANITIZED_LETTERS:
        digests["%s/%s/8/sanitized" % (name, letter)] = _digest(
            sanitized.result(name, letter, 8))
    return digests


def write_golden(path=GOLDEN):
    """Recompute every digest and write them to ``path``."""
    digests = {}
    for name in NAMES:
        digests.update(workload_digests(name))
    with open(path, "w") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return digests


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", NAMES)
def test_schedules_match_golden(name, golden):
    expected = {key: value for key, value in golden.items()
                if key.split("/", 1)[0] == name}
    actual = workload_digests(name)
    assert sorted(actual) == sorted(expected)
    changed = sorted(key for key in actual if actual[key] != expected[key])
    assert not changed, "schedules differ from the golden digests: %s" \
        % (", ".join(changed),)


if __name__ == "__main__":
    print("wrote %d digests to %s" % (len(write_golden()), GOLDEN))
