"""Run one grouptest benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep_bernoulli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run stamp. ``--workload all`` runs every workload, each in
its own process, one after another.
"""

import time

_STARTED = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import json
import os
import subprocess
import sys

# One thread everywhere: this must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sweep_bernoulli", "sweep_column", "decode_large", "theory_verify")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "grouptest", "__init__.py")):
        print(f"run.py: no grouptest package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, SRC)
    import grouptest

    if os.path.dirname(os.path.abspath(grouptest.__file__)) != os.path.join(SRC, "grouptest"):
        print(f"run.py: grouptest imported from {grouptest.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    out = harness.run(args, ROOT, time.perf_counter() - _STARTED)
    harness.print_result(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
