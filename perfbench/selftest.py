"""Self-test of the benchmark harness at tiny sizes (about 15 s in all).

    python3 perfbench/selftest.py

Checks that every workload runs clean in both modes and prints exactly the
metrics ``BENCHMARK.json`` names, each with its unit; that a corrupted
decoder output and a corrupted sweep row are counted as failed ops; and that
the benchmark refuses to run in a directory without the package. Exits 0 when
every check passes.
"""

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import time

import run  # pins BLAS threads and locates the checkout before numpy is imported

sys.path.insert(0, run.SRC)

import harness  # noqa: E402
import workloads  # noqa: E402
from grouptest.decoders import DECODERS  # noqa: E402
from grouptest.model import ItemSet  # noqa: E402

SECONDS = 0.3


def tiny_workloads(workdir):
    return {
        "sweep_bernoulli": workloads.SweepWorkload(
            "sweep_bernoulli", ("bernoulli",), (20, 30), trials_per_t=2, n_groups=2, seed=1,
            n_items=40, n_defectives=2),
        "sweep_column": workloads.SweepWorkload(
            "sweep_column", ("constant_column", "near_constant_column"), (20, 30),
            trials_per_t=2, n_groups=2, seed=1, n_items=40, n_defectives=2),
        "decode_large": workloads.DecodeWorkload(
            1, workdir, n_items=200, n_defectives=5, n_tests=30, n_instances=2),
        "theory_verify": workloads.TheoryWorkload(
            1, grid=workloads.criterion_03_grid()[::60], moment_sizes=(6, 9),
            moments_per_size=1, n_instances=3),
    }


def run_tiny(name, trace, workdir):
    args = argparse.Namespace(workload=name, seed=1, seconds=SECONDS, trace=trace)
    return harness.run_workload(tiny_workloads(workdir)[name], args, run.ROOT, 0.0)["result"]


def check_metrics(result, spec, where):
    expected = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, f"{where}: metrics {got} differ from BENCHMARK.json {expected}"
    for k, v in result["metrics"].items():
        assert isinstance(v["value"], float) and math.isfinite(v["value"]), f"{where}: {k}={v}"


def drop_last_pick(decoder):
    """A decoder whose estimate loses the item it picked last.

    The tests that item explained have no other member in the estimate, so
    at least one positive test is left unexplained.
    """
    def corrupted(matrix, outcomes, *args):
        result = decoder(matrix, outcomes, *args)
        victim = result.trace[-1].item if result.trace else result.estimate.members[0]
        kept = tuple(i for i in result.estimate.members if i != victim)
        return dataclasses.replace(result, estimate=ItemSet(kept, result.estimate.universe_size))
    return corrupted


def empty_estimate(decoder):
    """A decoder that returns no items: a COMP row then shows false negatives."""
    def corrupted(matrix, outcomes, *args):
        result = decoder(matrix, outcomes, *args)
        return dataclasses.replace(result, estimate=ItemSet((), result.estimate.universe_size))
    return corrupted


def run_corrupted(name, algorithm, corrupt, workdir):
    original = DECODERS[algorithm]
    DECODERS[algorithm] = corrupt(original)
    try:
        return run_tiny(name, 0, workdir)
    finally:
        DECODERS[algorithm] = original


def check_bare_directory(scratch):
    """In a directory with only BENCHMARK.json and perfbench/, the benchmark must fail."""
    bare = os.path.join(scratch, "bare")
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "theory_verify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0, "benchmark ran without the package"
    assert '"metrics"' not in out.stdout, "benchmark printed a result without the package"


def main() -> int:
    start = time.perf_counter()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES

    scratch = os.path.join(run.ROOT, ".bench_work", f"selftest_{os.getpid()}")
    os.makedirs(scratch)
    workdir = os.path.join(scratch, "decode")
    try:
        for name in run.WORKLOAD_NAMES:
            for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                result = run_tiny(name, trace, workdir)
                where = f"{name} --trace {trace}"
                assert result["correct"] and result["failed"] == 0, f"{where}: {result}"
                check_metrics(result, metrics, where)
                print(f"ok  {where}: {result['attempted']} ops, metrics and units match")

        result = run_corrupted("decode_large", "wscomp", drop_last_pick, workdir)
        assert not result["correct"] and result["failed"] == result["attempted"], result
        print(f"ok  corrupted decode output: failed_frac = {result['failed'] / result['attempted']}")

        result = run_corrupted("sweep_bernoulli", "comp", empty_estimate, workdir)
        assert not result["correct"] and result["failed"] == result["attempted"], result
        print(f"ok  corrupted COMP rows: failed_frac = {result['failed'] / result['attempted']}")

        check_bare_directory(scratch)
        print("ok  refuses to run without the package")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        work_root = os.path.dirname(scratch)
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)
    print(f"selftest passed in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
