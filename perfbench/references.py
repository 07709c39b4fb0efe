"""Writes ``references.json``: the sha256 digest of every requested
cell's ``SimResult.to_payload()`` (``issue_cycles`` dropped), computed in
the program's own natural order with no seed involved.

    python3 perfbench/references.py

Rerun it only when a change is meant to alter simulated results; the
benchmark counts every cell whose digest differs as a failed operation.
"""

import json
import os
import shutil
import sys
import tempfile

import suite


def paper_sweep_cells():
    from repro.experiments.runner import ExperimentRunner
    workload = suite.PaperSweep
    runner = ExperimentRunner(scale=workload.scale, widths=workload.widths)
    runner.prefetch(letters=workload.letters)
    return {suite.cell_key(name, letter, width):
            suite.payload_digest(runner.result(name, letter, width))
            for name in suite.SUITE_NAMES for letter in workload.letters
            for width in workload.widths}


def report_cells():
    from repro.cache import DiskCache
    from repro.core.config import paper_config
    from repro.experiments import report
    workload = suite.Report(0)
    os.makedirs(suite.SCRATCH, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="references-", dir=suite.SCRATCH)
    try:
        report.generate(scale=workload.scale, widths=workload.widths,
                        cache_dir=cache_dir)
        cache = DiskCache(cache_dir)
        return {suite.cell_key(name, letter, width): suite.payload_digest(
                    cache.load_result(name, workload.scale,
                                      paper_config(letter, width)))
                for name, letter, width in workload.grid()}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def main():
    suite.use_repro()
    references = {
        suite.PaperSweep.name: {"scale": suite.PaperSweep.scale,
                                "cells": paper_sweep_cells()},
        suite.Report.name: {"scale": suite.Report.scale,
                            "widths": list(suite.Report.widths),
                            "cells": report_cells()},
    }
    with open(suite.REFERENCES, "w") as handle:
        json.dump(references, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote %s" % (suite.REFERENCES,))
    return 0


if __name__ == "__main__":
    sys.exit(main())
