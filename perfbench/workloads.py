"""The four benchmark workloads and the checks that decide whether an op failed.

Every workload draws its inputs from the run's seed in ``setup`` and then runs
identical rounds of ops. A round is the unit the harness repeats until the run's
time is up, so every count taken over whole rounds (such as the greedy step
mean) repeats exactly for a given seed.

The module-level names imported from grouptest below are the benchmark's calls
into each layer; ``trace_targets`` patches them, together with the names through
which one grouptest layer calls another, when a round is traced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

import grouptest.design
import grouptest.sim
from grouptest import cli as gt_cli
from grouptest.cli import main as cli_main
from grouptest.decoders import DECODERS
from grouptest.design import DesignMatrix, DesignSpec, generate, optimal_bernoulli_p
from grouptest.model import OutcomeVector, run_tests, sample_defective_set
from grouptest.oracle import (
    brute_force_unweighted_moments,
    brute_force_weighted_moments,
    consistent_sets,
)
from grouptest.sim import SimConfig, SweepResult, run_sweep
from grouptest.theory import f_value, snr_dominance, unweighted_moments, weighted_moments

from tracer import record_greedy_steps

ALGORITHMS = ("comp", "dd", "scomp", "wscomp")
MOMENT_FIELDS = ("mu_d", "nu_d", "mu_nd", "nu_nd")
ORACLE_TOL = 1e-12
CROSS_PATH_RTOL = 1e-9


@dataclass
class Sample:
    """One timed unit of work: ``ops`` ops that took ``seconds``; ``failed`` of them failed."""

    ops: int
    seconds: float
    failed: int


def trace_targets():
    """(container, attribute, span name, result hook) for every traced call."""
    me = sys.modules[__name__]
    targets = [
        # Calls from the benchmark's own code into a layer.
        (me, "run_sweep", "sim.run_sweep", None),
        (SweepResult, "to_csv_text", "sim.to_csv", None),
        (me, "cli_main", "cli.main", None),
        (me, "f_value", "theory.f_value", None),
        (me, "snr_dominance", "theory.snr_dominance", None),
        (me, "weighted_moments", "theory.weighted_moments", None),
        (me, "unweighted_moments", "theory.unweighted_moments", None),
        (me, "brute_force_weighted_moments", "oracle.brute_force_weighted_moments", None),
        (me, "brute_force_unweighted_moments", "oracle.brute_force_unweighted_moments", None),
        (me, "consistent_sets", "oracle.consistent_sets", None),
        # Calls from one grouptest layer into another.
        (grouptest.design, "generate", "design.generate", None),
        (DesignMatrix, "from_json_dict", "design.from_json_dict", None),
        (grouptest.sim, "sample_defective_set", "model.sample_defective_set", None),
        (grouptest.sim, "run_tests", "model.run_tests", None),
        (OutcomeVector, "from_json_dict", "model.from_json_dict", None),
        (grouptest.sim, "confusion", "metrics.confusion", None),
        (grouptest.sim, "counting_bound", "metrics.counting_bound", None),
        (gt_cli, "_load_json", "cli.load", None),
        (gt_cli, "_dump_json", "cli.dump", None),
    ]
    for name in ALGORITHMS:
        hook = record_greedy_steps if name in ("scomp", "wscomp") else None
        targets.append((DECODERS, name, f"decoders.{name}", hook))
    return targets


def _seeds(seed: int, purpose: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, purpose])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------- sweeps ----


def check_sweep_csv(text: str, t_values) -> list[str]:
    """Checks on one design's sweep CSV: row count and the COMP / DD guarantees."""
    rows = list(csv.DictReader(io.StringIO(text)))
    problems = []
    expected = len(t_values) * len(ALGORITHMS)
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        if row["algorithm"] == "comp" and float(row["mean_fn"]) != 0.0:
            problems.append(f"COMP mean_fn {row['mean_fn']} at T={row['T']}")
        if row["algorithm"] == "dd" and float(row["mean_fp"]) != 0.0:
            problems.append(f"DD mean_fp {row['mean_fp']} at T={row['T']}")
    return problems


class SweepWorkload:
    """``run_sweep`` at N=500, k=10 over a fixed T list; one op is one trial.

    A round runs one repetition of each of ``n_groups`` sweep groups. A group
    is one ``run_sweep`` per design with its own master seed, so a run covers
    ``n_groups`` distinct sets of trials; every repetition of a group must
    write the same CSV bytes as its first.
    """

    op_unit = "trial"

    def __init__(self, name, designs, t_values, trials_per_t, n_groups, seed,
                 n_items=500, n_defectives=10):
        self.name = name
        self.designs = tuple(designs)
        self.t_values = tuple(t_values)
        self.trials_per_t = trials_per_t
        self.n_groups = n_groups
        self.seed = seed
        self.n_items = n_items
        self.n_defectives = n_defectives
        self.reference: list[list[str] | None] = []
        self.errors: list[str] = []

    def _config(self, design, n_trials, master_seed):
        return SimConfig(
            n_items=self.n_items,
            n_defectives=self.n_defectives,
            design_kind=design,
            t_values=self.t_values,
            n_trials=n_trials,
            algorithms=ALGORITHMS,
            alpha=1.0,
            master_seed=master_seed,
        )

    def setup(self):
        master_seeds = _seeds(self.seed, 1, self.n_groups)
        self.groups = [
            [self._config(d, self.trials_per_t, ms) for d in self.designs] for ms in master_seeds
        ]
        self.reference = [None] * self.n_groups
        for design in self.designs:  # warm-up: one trial per T
            run_sweep(self._config(design, 1, master_seeds[0])).to_csv_text()

    def round(self) -> list[Sample]:
        samples = []
        ops = len(self.designs) * len(self.t_values) * self.trials_per_t
        for index, group in enumerate(self.groups):
            start = time.perf_counter()
            try:
                texts = [run_sweep(cfg).to_csv_text() for cfg in group]
                elapsed = time.perf_counter() - start
                problems = self._check(index, texts)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                elapsed = time.perf_counter() - start
                problems = [repr(exc)]
            if problems:
                self.errors.append(f"group {index}: " + "; ".join(problems))
            samples.append(Sample(ops, elapsed, ops if problems else 0))
        return samples

    def _check(self, index: int, texts: list[str]) -> list[str]:
        problems = [p for text in texts for p in check_sweep_csv(text, self.t_values)]
        if self.reference[index] is None:
            self.reference[index] = texts
        elif texts != self.reference[index]:
            problems.append("CSV differs from the group's first repetition")
        return problems

    def stamp(self) -> dict:
        return {
            "designs": list(self.designs),
            "t_values": list(self.t_values),
            "trials_per_t": self.trials_per_t,
            "groups": self.n_groups,
            "csv_sha256": [
                [hashlib.sha256(t.encode()).hexdigest() for t in texts] if texts else None
                for texts in self.reference
            ],
        }

    def close(self):
        pass


# ---------------------------------------------------------------- decode ----


def check_decode(exit_code: int, payload: dict, dense: np.ndarray, positive: np.ndarray,
                 truth: np.ndarray) -> list[str]:
    """Checks on one ``gt decode`` output against its instance.

    The estimate must explain every positive test, contain the DD core and
    put no item in a negative test; the true set must not meet the definite
    non-defectives.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    n_items = dense.shape[1]
    estimate = np.zeros(n_items, dtype=bool)
    estimate[payload["estimate"]] = True
    problems = []
    covered = dense[:, estimate].any(axis=1)
    if not covered[positive].all():
        problems.append(f"{int((~covered[positive]).sum())} positive test(s) unexplained")
    if covered[~positive].any():
        problems.append("estimate holds an item of a negative test")
    if not estimate[payload["dd_core"]].all():
        problems.append("estimate misses part of dd_core")
    if truth[payload["definite_non_defectives"]].any():
        problems.append("a true defective is marked definite non-defective")
    if payload.get("trace") is None:
        problems.append("no greedy trace in the output")
    return problems


@dataclass
class DecodeInstance:
    matrix_path: str
    outcomes_path: str
    result_path: str
    dense: np.ndarray
    positive: np.ndarray
    truth: np.ndarray


class DecodeWorkload:
    """In-process ``gt decode --algo wscomp --trace`` on large Bernoulli instances.

    One op is one decode. The instances sit just below the counting bound
    (T = 400 < log2 C(5000, 50) ~ 405), so W-SCOMP runs tens of greedy steps
    on each.
    """

    op_unit = "decode"

    def __init__(self, seed, workdir, n_items=5000, n_defectives=50, n_tests=400, n_instances=6):
        self.name = "decode_large"
        self.seed = seed
        self.workdir = workdir
        self.n_items = n_items
        self.n_defectives = n_defectives
        self.n_tests = n_tests
        self.n_instances = n_instances
        self.instances: list[DecodeInstance] = []
        self.errors: list[str] = []

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        seeds = _seeds(self.seed, 2, 2 * self.n_instances)
        p = optimal_bernoulli_p(self.n_defectives)
        self.instances = []
        for i in range(self.n_instances):
            spec = DesignSpec("bernoulli", self.n_items, self.n_tests, inclusion_prob=p,
                              seed=seeds[2 * i])
            matrix = generate(spec)
            truth = sample_defective_set(self.n_items, self.n_defectives, seeds[2 * i + 1])
            outcomes = run_tests(matrix, truth)
            inst = DecodeInstance(
                matrix_path=os.path.join(self.workdir, f"matrix_{i}.json"),
                outcomes_path=os.path.join(self.workdir, f"outcomes_{i}.json"),
                result_path=os.path.join(self.workdir, f"result_{i}.json"),
                dense=matrix.dense,
                positive=outcomes.to_mask(),
                truth=truth.to_mask(),
            )
            with open(inst.matrix_path, "w") as fh:
                json.dump(matrix.to_json_dict(), fh)
            with open(inst.outcomes_path, "w") as fh:
                json.dump(outcomes.to_json_dict(), fh)
            self.instances.append(inst)
        self._decode(self.instances[0])  # warm-up

    def _decode(self, inst: DecodeInstance) -> int:
        return cli_main([
            "decode", "--matrix", inst.matrix_path, "--outcomes", inst.outcomes_path,
            "--algo", "wscomp", "--trace", "-o", inst.result_path,
        ])

    def round(self) -> list[Sample]:
        samples = []
        for index, inst in enumerate(self.instances):
            start = time.perf_counter()
            try:
                exit_code = self._decode(inst)
                elapsed = time.perf_counter() - start
                payload = {}
                if exit_code == 0:
                    with open(inst.result_path) as fh:
                        payload = json.load(fh)
                problems = check_decode(exit_code, payload, inst.dense, inst.positive, inst.truth)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                elapsed = time.perf_counter() - start
                problems = [repr(exc)]
            if problems:
                self.errors.append(f"instance {index}: " + "; ".join(problems))
            samples.append(Sample(1, elapsed, 1 if problems else 0))
        return samples

    def stamp(self) -> dict:
        return {
            "n_items": self.n_items,
            "n_defectives": self.n_defectives,
            "n_tests": self.n_tests,
            "instances": self.n_instances,
        }

    def close(self):
        for inst in self.instances:
            for path in (inst.matrix_path, inst.outcomes_path, inst.result_path):
                if os.path.exists(path):
                    os.remove(path)
        if os.path.isdir(self.workdir) and not os.listdir(self.workdir):
            os.rmdir(self.workdir)


# ---------------------------------------------------------------- theory ----


def criterion_03_grid() -> list[tuple[int, int]]:
    """The (N, k) grid of acceptance criterion 03."""
    points = [(n, k) for k in range(1, 11) for n in range(k + 1, k + 51)]
    points += [(n, k) for k in (20, 40) for n in range(k + 1, k + 201)]
    return points


def _grid_run(n, k):
    return snr_dominance(n, k), f_value(n, k), weighted_moments(n, k, 1.0 / (k + 1))


def _grid_check(args, value) -> list[str]:
    dominates, point, moments = value
    problems = []
    if not dominates:
        problems.append("SNR_W < SNR_U")
    if not point.f_value > 0:
        problems.append(f"f = {point.f_value}")
    if abs(point.f_value - point.residual_19) > CROSS_PATH_RTOL * max(1.0, abs(point.f_value)):
        problems.append("cross-path deviation above 1e-9")
    if not moments.snr_per > 0:
        problems.append("SNR_W not positive")
    return [f"grid N={args[0]} k={args[1]}: {p}" for p in problems]


def _moments_run(n, k, p):
    return (
        brute_force_weighted_moments(n, k, p),
        brute_force_unweighted_moments(k, p, n),
        weighted_moments(n, k, p),
        unweighted_moments(k, p),
    )


def _moments_check(args, value) -> list[str]:
    enum_w, enum_u, closed_w, closed_u = value
    worst = max(
        max(abs(getattr(closed_w, f) - getattr(enum_w, f)) for f in MOMENT_FIELDS),
        max(abs(getattr(closed_u, f) - getattr(enum_u, f)) for f in MOMENT_FIELDS),
    )
    if not worst <= ORACLE_TOL:
        return [f"moments N={args[0]} k={args[1]} p={args[2]}: oracle deviation {worst:.3e}"]
    return []


def _consistent_sets_run(matrix, outcomes, n_defectives, truth):
    return consistent_sets(matrix, outcomes, n_defectives)


def _consistent_sets_check(args, value) -> list[str]:
    matrix, outcomes, _, truth = args
    members = [s.members for s in value]
    problems = []
    if truth not in members:
        problems.append("true set not among the consistent sets")
    if members != sorted(set(members)):
        problems.append("consistent sets not unique and in lexicographic order")
    positive = outcomes.to_mask()
    for m in members:
        if not np.array_equal(matrix.dense[:, list(m)].any(axis=1), positive):
            problems.append(f"set {m} does not reproduce the outcomes")
            break
    return [f"consistent_sets: {p}" for p in problems]


GRID, MOMENTS, CONSISTENT_SETS = (
    (_grid_run, _grid_check),
    (_moments_run, _moments_check),
    (_consistent_sets_run, _consistent_sets_check),
)


class TheoryWorkload:
    """Closed-form theory over the criterion-03 grid plus brute-force oracle cases.

    One op is one grid point (``snr_dominance``, ``f_value``,
    ``weighted_moments``), one moment case (both enumeration oracles against
    both closed forms) or one ``consistent_sets`` instance. The seed orders
    the grid and draws the moment parameters and the small instances; the
    sizes are fixed so the work per round does not depend on the seed.
    """

    op_unit = "case"

    def __init__(self, seed, grid=None, moment_sizes=range(6, 15), moments_per_size=3,
                 n_instances=100):
        self.name = "theory_verify"
        self.seed = seed
        self.base_grid = criterion_03_grid() if grid is None else list(grid)
        self.moment_sizes = tuple(moment_sizes)
        self.moments_per_size = moments_per_size
        self.n_instances = n_instances
        self.errors: list[str] = []

    def setup(self):
        rng = np.random.default_rng([self.seed, 3])
        ops = [(GRID, (n, k)) for n, k in self.base_grid]
        order = rng.permutation(len(ops))
        ops = [ops[i] for i in order]
        for n in self.moment_sizes:
            for _ in range(self.moments_per_size):
                k = int(rng.integers(1, n))
                p = float(rng.uniform(0.05, 0.6))
                ops.append((MOMENTS, (n, k, p)))
        for _ in range(self.n_instances):
            n = int(rng.integers(8, 13))
            k = int(rng.integers(1, 4))
            t = int(rng.integers(4, 11))
            spec = DesignSpec("bernoulli", n, t, inclusion_prob=float(rng.uniform(0.15, 0.5)),
                              seed=int(rng.integers(0, 2**63)))
            matrix = generate(spec)
            truth = sample_defective_set(n, k, int(rng.integers(0, 2**63)))
            ops.append((CONSISTENT_SETS, (matrix, run_tests(matrix, truth), k, truth.members)))
        self.ops = ops
        for kind in (GRID, MOMENTS, CONSISTENT_SETS):  # warm-up: one op of each kind
            args = next(a for k, a in ops if k is kind)
            kind[0](*args)

    def round(self) -> list[Sample]:
        samples = []
        clock = time.perf_counter
        for (run, check), args in self.ops:
            start = clock()
            try:
                value = run(*args)
                elapsed = clock() - start
                problems = check(args, value)
            except Exception as exc:  # an op that raises is a failed op; keep measuring
                elapsed = clock() - start
                problems = [f"{run.__name__}{args[:3]}: {exc!r}"]
            if problems:
                self.errors.extend(problems)
            samples.append(Sample(1, elapsed, 1 if problems else 0))
        return samples

    def stamp(self) -> dict:
        return {
            "grid_points": len(self.base_grid),
            "moment_cases": len(self.moment_sizes) * self.moments_per_size,
            "moment_sizes": list(self.moment_sizes),
            "consistent_sets_instances": self.n_instances,
        }

    def close(self):
        pass
