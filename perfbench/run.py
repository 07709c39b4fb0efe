"""The repository benchmark.

    python3 perfbench/run.py --workload <paper-sweep|report|lint-check> \
        --seed N --seconds S --trace 0|1

Runs one workload serially in this process and prints, as the last line
of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` measures the end-to-end
metrics over as many passes as fit in ``--seconds`` (at least one) and
reports their medians; ``--trace 1`` runs a traced pass between two
untraced ones and reports the per-layer metrics.  See README.md in this
directory for the workloads, the metrics and what each one moves.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import hostclock
import layers
import spans
import suite

END_TO_END = (("wall_s", "s"), ("sim_kips", "kinstr/s"),
              ("setup_s", "s"), ("rss_mb", "MB"))

#: set-up is repeated this many times in fresh processes per run
SETUP_SAMPLES = 7
PROBE = os.path.join(suite.HERE, "probe.py")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(suite.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _until_ready(args):
    """Host seconds from spawning ``probe.py args`` to its ``ready``."""
    started = time.perf_counter()
    child = subprocess.Popen([sys.executable, PROBE] + args,
                             stdout=subprocess.PIPE, cwd=suite.ROOT,
                             text=True)
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - started
        child.stdout.read()
        child.wait(timeout=120)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        child.stdout.close()
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError("set-up probe %s exited %s"
                           % (" ".join(args), child.returncode))
    return elapsed


def setup_seconds(workload_name, seed):
    """Process start -> set-up done, in reference seconds: the median
    over fresh processes of its ratio to a null probe run right after
    it, times ``NULL_PROBE_REFERENCE_S``."""
    ratios = []
    for _ in range(SETUP_SAMPLES):
        probe = _until_ready([workload_name, str(seed)])
        ratios.append(probe / _until_ready(["null"]))
    return statistics.median(ratios) * hostclock.NULL_PROBE_REFERENCE_S


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds):
    """Passes until the next one would overrun ``seconds``, and the peak
    RSS through the first pass (later passes add fragmentation, and how
    many fit depends on the host's speed)."""
    passes = []
    totals = []
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        passes.append(workload.run_pass(spans.NullRecorder()))
        totals.append(time.perf_counter() - pass_started)
        if len(passes) == 1:
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(totals) > seconds:
            return passes, rss_mb


def traced(workload):
    """The pass with every layer wrapped, between two untraced passes.
    The first pass also pays the process's lazy imports, so the base of
    ``trace.overhead`` is the second."""
    workload.setup()
    first = workload.run_pass(spans.NullRecorder())
    recorder = spans.SpanRecorder()
    patches = spans.install(recorder)
    try:
        run = workload.run_pass(recorder)
    finally:
        patches.restore()
    last = workload.run_pass(spans.NullRecorder())
    extra = {"trace.overhead": run.wall_s / last.wall_s - 1.0}
    if "warm" in first.phases and "warm" in last.phases:
        extra["report.warm_s"] = statistics.fmean(
            p.phases["warm"].seconds for p in (first, last))
    if isinstance(workload, suite.LintCheck):
        extra["lint.sanitize_ratio"] = workload.sanitize_ratio()
    values = layers.derive(recorder, run.clock.elapsed_s, extra)
    os.makedirs(suite.SCRATCH, exist_ok=True)
    recorder.dump(os.path.join(suite.SCRATCH, "spans-%s-%d.json"
                               % (workload.name, workload.seed)))
    return [first, run, last], {name: (values[name], unit)
                                for name, unit in layers.PER_LAYER}


def untraced(workload, seconds):
    setup_s = setup_seconds(workload.name, workload.seed)
    workload.setup()
    passes, rss_mb = measure(workload, seconds)
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "sim_kips": statistics.median(p.instructions / p.wall_s / 1e3
                                      for p in passes),
        "setup_s": setup_s,
        "rss_mb": rss_mb,
    }
    return passes, {name: (values[name], unit) for name, unit in END_TO_END}


def main(argv=None):
    args = parse_args(argv)
    if not suite.repro_available():
        print("perfbench: no program under %s (expected src/repro)"
              % (suite.SRC,), file=sys.stderr)
        return 2
    suite.use_repro()
    workload = suite.WORKLOADS[args.workload](args.seed)
    if args.trace:
        passes, metrics = traced(workload)
    else:
        passes, metrics = untraced(workload, args.seconds)
    attempted = sum(p.outcome.attempted for p in passes)
    failed = sum(p.outcome.failed for p in passes)
    for p in passes:
        for problem in p.outcome.problems:
            print("FAILED " + problem, file=sys.stderr)
    from repro.kernel import active_kernel
    print("%s: %d pass(es), %d operations, %d failed, kernel %s"
          % (workload.name, len(passes), attempted, failed,
             active_kernel()))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
