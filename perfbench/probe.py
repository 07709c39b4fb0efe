"""Set-up probe: a fresh process does one workload's set-up (imports,
trace builds and self-checks), prints ``ready`` and exits.  ``run.py``
times process start to ``ready`` as one ``setup_s`` sample.

    python3 perfbench/probe.py <workload> <seed>
    python3 perfbench/probe.py null

``null`` is the stand-in set-up that calibrates those samples: the same
kinds of work (interpreter start, imports, interpreted loops) with no
program code, so no change to the program moves it.
"""

import sys

import hostclock
import suite


def null_setup():
    import argparse, decimal, email.parser, fractions, http.client  # noqa: E401,F401
    for _ in range(10):
        hostclock.calibration_kernel()


def main(argv):
    if argv[0] == "null":
        null_setup()
    else:
        suite.WORKLOADS[argv[0]](int(argv[1])).setup()
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
