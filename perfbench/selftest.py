"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` declares exactly the workloads this directory
   runs and the metrics ``run.py`` emits, with their units.
2. One pass of every workload under each of ``SEEDS`` gives identical
   payload digests and check verdicts, all matching the references, so
   neither the workload order nor the cell order changes any result.

Exits 0 when both hold; otherwise prints what differs and exits 1.
"""

import json
import os
import sys

import layers
import run
import spans
import suite

#: the seeds whose digests and verdicts must agree
SEEDS = (1, 2)


def declared_metrics_match():
    with open(os.path.join(suite.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(suite.WORKLOADS):
        problems.append("workloads differ from suite.WORKLOADS")
    for key, emitted in (("end_to_end", run.END_TO_END),
                         ("per_layer", layers.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(emitted):
            problems.append("%s metrics differ from what run.py emits"
                            % (key,))
    return problems


def seed_invariance(seeds):
    problems = []
    for name, cls in suite.WORKLOADS.items():
        verdicts = []
        for seed in seeds:
            workload = cls(seed)
            workload.setup()
            outcome = workload.run_pass(spans.NullRecorder()).outcome
            problems.extend("%s seed %d: %s" % (name, seed, problem)
                            for problem in outcome.problems)
            verdicts.append(outcome.verdicts)
        for seed, other in zip(seeds[1:], verdicts[1:]):
            differing = sorted(key for key in set(verdicts[0]) | set(other)
                               if verdicts[0].get(key) != other.get(key))
            if differing:
                problems.append("%s: seeds %d and %d differ on %s"
                                % (name, seeds[0], seed,
                                   ", ".join(differing[:5])))
        print("%s: %d verdicts compared across seeds %s"
              % (name, len(verdicts[0]), seeds), flush=True)
    return problems


def main():
    if not suite.repro_available():
        print("selftest: no program under %s" % (suite.SRC,),
              file=sys.stderr)
        return 2
    suite.use_repro()
    problems = declared_metrics_match() + seed_invariance(SEEDS)
    for problem in problems:
        print("FAIL " + problem)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
