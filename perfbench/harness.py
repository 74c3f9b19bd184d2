"""Measurement loop, metric assembly and run stamp for one workload.

End-to-end metrics come from rounds run with tracing off. A traced run
alternates untraced and traced rounds, reports the per-layer metrics from the
traced ones and the slowdown between the two as ``tracing_overhead``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import grouptest
import workloads
from tracer import Tracer

SETUP_REPS = 3
LAYERS = ("design", "model", "decoders", "metrics", "sim", "cli", "theory", "oracle")


def make_workload(name: str, seed: int, workdir: str):
    """The full-size workload. A round takes 0.4-0.9 s on a 2.1 GHz Xeon, so a
    28-second run repeats it 30-70 times."""
    if name == "sweep_bernoulli":
        return workloads.SweepWorkload(name, ("bernoulli",), (75, 100, 125, 150, 175, 200, 250),
                                       trials_per_t=5, n_groups=8, seed=seed)
    if name == "sweep_column":
        return workloads.SweepWorkload(name, ("constant_column", "near_constant_column"),
                                       (80, 100), trials_per_t=3, n_groups=8, seed=seed)
    if name == "decode_large":
        return workloads.DecodeWorkload(seed, workdir)
    if name == "theory_verify":
        return workloads.TheoryWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")


def _ms_percentile(rounds, q: float) -> float:
    return float(np.percentile([1000.0 * s.seconds / s.ops for r in rounds for s in r], q))


def _ms_median(values) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def measure(workload, seconds: float, tracer: Tracer | None):
    """Run whole rounds until ``seconds`` have passed.

    Returns the rounds' samples per mode (untraced, traced) and the round count.
    """
    samples = {False: [], True: []}
    modes = (False,) if tracer is None else (False, True)
    rounds = 0
    start = time.perf_counter()
    while True:
        # Alternate which mode goes first so drift during the run hits both alike.
        for traced in modes if rounds % 2 == 0 else modes[::-1]:
            if traced:
                tracer.install()
            try:
                samples[traced].append(workload.round())
            finally:
                if traced:
                    tracer.uninstall()
        rounds += 1
        if time.perf_counter() - start >= seconds:
            return samples, rounds


def _throughput(round_samples) -> float:
    return sum(s.ops for s in round_samples) / sum(s.seconds for s in round_samples)


def ops_per_second(rounds) -> float:
    # All ops over all op time, not a median over rounds: the host's CPU speed
    # switches between a slow and a fast state for seconds at a time, and a
    # median jumps between the two where a total moves in proportion.
    return _throughput([s for r in rounds for s in r])


def end_to_end_metrics(rounds, setup_s: float) -> dict:
    return {
        "ops_per_s": (ops_per_second(rounds), "1/s"),
        "decode_ms_p50": (_ms_percentile(rounds, 50), "ms"),
        "decode_ms_p90": (_ms_percentile(rounds, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    op_seconds = sum(s.seconds for r in traced for s in r)
    traced_ops = sum(s.ops for r in traced for s in r)
    d = tracer.durations
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.share"] = (tracer.layer_self_seconds(layer) / op_seconds, "fraction")
    for name, span in (
        ("design.generate_ms_p50", "design.generate"),
        ("model.sample_defective_set_ms_p50", "model.sample_defective_set"),
        ("model.run_tests_ms_p50", "model.run_tests"),
        ("decoders.comp_ms_p50", "decoders.comp"),
        ("decoders.dd_ms_p50", "decoders.dd"),
        ("decoders.scomp_ms_p50", "decoders.scomp"),
        ("decoders.wscomp_ms_p50", "decoders.wscomp"),
        ("metrics.confusion_ms_p50", "metrics.confusion"),
        ("sim.to_csv_ms", "sim.to_csv"),
        ("cli.load_ms_p50", "cli.load"),
        ("cli.dump_ms_p50", "cli.dump"),
        ("theory.f_value_ms_p50", "theory.f_value"),
        ("theory.snr_dominance_ms_p50", "theory.snr_dominance"),
        ("oracle.brute_force_weighted_moments_ms_p50", "oracle.brute_force_weighted_moments"),
        ("oracle.consistent_sets_ms_p50", "oracle.consistent_sets"),
    ):
        metrics[name] = (_ms_median(d.get(span, [])), "ms")
    metrics["cli.self_ms_p50"] = (_ms_median(tracer.self_times.get("cli.main", [])), "ms")
    sim_self = sum(tracer.self_times.get("sim.run_sweep", []))
    metrics["sim.self_ms_per_trial"] = (1000.0 * sim_self / traced_ops, "ms")
    steps = tracer.greedy_steps
    metrics["decoders.greedy_steps_mean"] = (sum(steps) / len(steps) if steps else 0.0, "count")
    # Untraced and traced rounds run in adjacent pairs; comparing within a pair
    # keeps drift in the machine's speed out of the overhead.
    ratios = [_throughput(t) / _throughput(u) for u, t in zip(untraced, traced)]
    metrics["tracing_overhead"] = (1.0 - statistics.median(ratios), "fraction")
    return metrics


def _git_commit(root: str) -> str:
    # Read the ref files directly: the benchmark may run in a checkout with no git.
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_stamp(root: str, args, workload, rounds: int) -> dict:
    return {
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "grouptest": grouptest.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_reps": SETUP_REPS,
        "rounds": rounds,
        "op_unit": workload.op_unit,
        "inputs": workload.stamp(),
    }


_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import harness
print(time.perf_counter() - start)
"""


def fresh_import_seconds(root: str) -> float:
    """Import time of the benchmark and the package in a new interpreter."""
    code = _IMPORT_PROBE.format(bench=os.path.dirname(os.path.abspath(__file__)),
                                src=os.path.join(root, "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    return float(out.stdout)


def run(args, root: str, import_s: float) -> dict:
    """Set up, measure and check the workload ``args.workload``; return the result object."""
    work_root = os.path.join(root, ".bench_work")
    workload = make_workload(args.workload, args.seed, os.path.join(work_root, str(os.getpid())))
    try:
        return run_workload(workload, args, root, import_s)
    finally:
        if os.path.isdir(work_root) and not os.listdir(work_root):
            os.rmdir(work_root)


def run_workload(workload, args, root: str, import_s: float) -> dict:
    """Set up, measure and check ``workload`` with the seed, seconds and trace of ``args``.

    ``import_s`` is this process's own import time. Set-up is repeated
    ``SETUP_REPS`` times, the imports in fresh interpreters, and
    ``setup_s`` is the median import time plus the median set-up time.
    """
    import_times = [import_s] + [fresh_import_seconds(root) for _ in range(SETUP_REPS - 1)]
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)
        tracer = Tracer(workloads.trace_targets()) if args.trace else None
        samples, rounds = measure(workload, args.seconds, tracer)
    finally:
        workload.close()

    every = [s for r in samples[False] + samples[True] for s in r]
    attempted = sum(s.ops for s in every)
    failed = sum(s.failed for s in every)
    if args.trace:
        metrics = per_layer_metrics(tracer, samples[True], samples[False])
    else:
        metrics = end_to_end_metrics(samples[False], setup_s)
    report = {
        "stamp": run_stamp(root, args, workload, rounds),
        "failed_frac": failed / attempted,
        "errors": workload.errors[:20],
    }
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def print_result(out: dict) -> None:
    report, result = out["report"], out["result"]
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>14.6g} {m['unit']}")
    print(f"{'failed_frac':44s} {report['failed_frac']:>14.6g} "
          f"({result['failed']} of {result['attempted']} {report['stamp']['op_unit']}s)")
    for line in report["errors"]:
        print(f"error: {line}")
    print(json.dumps({"report": report}))
    print(json.dumps(result), flush=True)
