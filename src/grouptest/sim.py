"""Monte Carlo benchmark harness for the decoder/design families.

A sweep runs ``n_trials`` independent trials at every requested number of
tests T. Each trial draws a fresh pooling matrix and a fresh defective set,
runs every requested decoder on the same instance, and records recovery
statistics. Per-trial seeds are derived from (master_seed, T, trial index)
by counter-mode mixing, so results do not depend on scheduling or execution
order and a sweep is a pure function of its config.

Design parameters follow the optimal choices: p = 1/(k+1) for Bernoulli
and L = floor((T/k) ln 2) for the column designs. The degenerate k = 0
prior is simulated with full participation (p = 1, L = T).
"""

from __future__ import annotations

import csv
import functools
import io
import operator
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import design as design_mod
from .checks import require_choice, require_defectives, require_int, require_keys, require_real, require_seed
from .decoders import DECODERS, check_names, decode_all
from .metrics import RecoveryStats, confusion, counting_bound
from .model import sample_defective_set, run_tests

ALGORITHMS = tuple(DECODERS)


def _sum(values):
    """Left-to-right sum. From Python 3.12 builtin ``sum`` compensates float rounding,
    which would change the last digit of some CSV means between interpreter versions."""
    return functools.reduce(operator.add, values, 0)


@dataclass(frozen=True)
class SimConfig:
    n_items: int
    n_defectives: int
    design_kind: str
    t_values: tuple[int, ...]
    n_trials: int = 1000
    algorithms: tuple[str, ...] = ALGORITHMS
    alpha: float = 1.0
    master_seed: int = 0

    def __post_init__(self):
        n_items, n_defectives = require_defectives(self.n_items, self.n_defectives)
        object.__setattr__(self, "n_items", n_items)
        object.__setattr__(self, "n_defectives", n_defectives)
        for name, minimum in (("n_trials", 1), ("master_seed", 0)):
            object.__setattr__(self, name, require_int(getattr(self, name), name, minimum))
        if not isinstance(self.t_values, (list, tuple)):
            raise ValueError(f"t_values must be a list, got {self.t_values!r}")
        t_values = tuple(require_int(t, "each t_values entry", 1) for t in self.t_values)
        if not t_values or len(set(t_values)) < len(t_values):
            raise ValueError(f"t_values must be a nonempty list of distinct T values, got {list(t_values)}")
        object.__setattr__(self, "t_values", t_values)
        object.__setattr__(self, "algorithms", check_names(self.algorithms, "algorithms"))
        # The float, so that equal configs write equal CSV bytes (1 and 1.0 alike).
        object.__setattr__(self, "alpha", require_real(self.alpha, "alpha"))
        # Every T's design, its kind too, is checked here, before any trial of an earlier T runs.
        for n_tests in self.t_values:
            design_spec_for(self.design_kind, self.n_items, self.n_defectives, n_tests)

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "t_values": list(self.t_values),
            "algorithms": list(self.algorithms),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SimConfig":
        """Optional fields absent from ``data`` take their defaults, but
        ``master_seed`` must be given so that every sweep names its seed.
        A key that is not a field, such as a misspelt one, is rejected."""
        require_keys(data, "simulation config JSON", "n_items", "n_defectives", "design_kind", "t_values", "master_seed")
        unknown = data.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"simulation config has unknown keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class SweepRow:
    design: str
    algorithm: str
    n_items: int
    n_defectives: int
    n_tests: int
    alpha: float
    n_trials: int
    master_seed: int
    success_prob: float
    mean_fn: float
    mean_fp: float
    mean_jaccard: float
    mean_f1: float
    mean_misclassified: float
    counting_bound: float


# The CSV header: the ``SweepRow`` field names in order, the sizes shortened.
_SHORT_NAMES = {"n_items": "N", "n_defectives": "k", "n_tests": "T"}
CSV_COLUMNS = [_SHORT_NAMES.get(f.name, f.name) for f in fields(SweepRow)]

# Each mean field of a ``SweepRow`` and the ``RecoveryStats`` field it averages.
_MEANS = {
    "success_prob": "exact",
    "mean_fn": "false_negatives",
    "mean_fp": "false_positives",
    "mean_jaccard": "jaccard",
    "mean_f1": "f1",
    "mean_misclassified": "misclassified",
}


@dataclass(frozen=True)
class SweepResult:
    config: SimConfig
    rows: tuple[SweepRow, ...] = field(default_factory=tuple)

    def row(self, n_tests: int, algorithm: str) -> SweepRow:
        for r in self.rows:
            if r.n_tests == n_tests and r.algorithm == algorithm:
                return r
        raise KeyError(f"no row for T={n_tests}, algorithm={algorithm!r}")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(self.to_csv_text())

    def to_csv_text(self) -> str:
        """The header, then each row's fields in order: ``vars`` of a frozen
        dataclass, which is ``astuple`` without its ~3x slower deep copy."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(vars(r).values() for r in self.rows)
        return buf.getvalue()


def design_spec_for(design_kind: str, n_items: int, n_defectives: int, n_tests: int, seed=0) -> design_mod.DesignSpec:
    """The per-T design spec with optimal parameters (degenerate at k = 0)."""
    require_choice(design_kind, "design_kind", design_mod.DESIGN_KINDS)
    if design_kind == "bernoulli":
        p = 1.0 if n_defectives == 0 else design_mod.optimal_bernoulli_p(n_defectives)
        return design_mod.DesignSpec(
            design_kind="bernoulli", n_items=n_items, n_tests=n_tests, inclusion_prob=p, seed=seed
        )
    weight = (
        n_tests
        if n_defectives == 0
        else design_mod.optimal_column_weight(n_tests, n_defectives)
    )
    return design_mod.DesignSpec(
        design_kind=design_kind, n_items=n_items, n_tests=n_tests, column_weight=weight, seed=seed
    )


def run_trial(
    design_spec: design_mod.DesignSpec,
    n_defectives: int,
    algorithms,
    alpha: float,
    trial_seed,
) -> dict[str, RecoveryStats]:
    """One independent trial on ``design_spec.n_items`` items: fresh matrix,
    fresh defective set, all decoders. ``trial_seed`` (``require_seed``) gives
    the matrix and the defective set independent sub-seeds.
    """
    seed = require_seed(trial_seed, "trial_seed")
    state = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    matrix = design_mod.generate(replace(design_spec, seed=int(state[0])))
    truth = sample_defective_set(design_spec.n_items, n_defectives, int(state[1]))
    results = decode_all(matrix, run_tests(matrix, truth), algorithms, alpha)
    return {name: confusion(truth, result.estimate) for name, result in results.items()}


def run_sweep(config: SimConfig) -> SweepResult:
    """Full benchmark sweep; a pure function of the config.

    Each T's trials are collected in trial order, then averaged in that order.
    """
    rows = []
    for n_tests in config.t_values:
        spec = design_spec_for(config.design_kind, config.n_items, config.n_defectives, n_tests)
        trials = [
            run_trial(
                spec, config.n_defectives, config.algorithms, config.alpha,
                trial_seed=(config.master_seed, n_tests, trial),
            )
            for trial in range(config.n_trials)
        ]
        n = len(trials)
        bound = counting_bound(config.n_items, config.n_defectives, n_tests)
        for a in config.algorithms:
            means = {mean: _sum(getattr(t[a], stat) for t in trials) / n for mean, stat in _MEANS.items()}
            rows.append(SweepRow(
                design=config.design_kind, algorithm=a, n_items=config.n_items,
                n_defectives=config.n_defectives, n_tests=n_tests, alpha=config.alpha,
                n_trials=n, master_seed=config.master_seed, counting_bound=bound, **means,
            ))
    return SweepResult(config=config, rows=tuple(rows))


def delta_points(triples, smooth_window: int | None = None) -> list[tuple]:
    """Per-T scomp minus wscomp of ``(T, algorithm, value)`` triples, sorted by T.

    ``smooth_window`` w applies a centered simple moving average over w // 2
    points before and (w - 1) // 2 after (edges use the available neighbours);
    a window that is not an integer of at least 1 is an error, as is a T that
    lacks either algorithm.
    """
    if smooth_window is not None:
        smooth_window = require_int(smooth_window, "smooth_window", 1)
    by_t: dict = {}
    for t, algorithm, value in triples:
        by_t.setdefault(t, {})[algorithm] = value
    t_values = sorted(by_t)
    for t in t_values:
        if "scomp" not in by_t[t] or "wscomp" not in by_t[t]:
            raise ValueError(f"delta needs both scomp and wscomp rows, T={t} lacks one")
    deltas = [by_t[t]["scomp"] - by_t[t]["wscomp"] for t in t_values]
    if smooth_window is not None and smooth_window > 1:
        before, after = smooth_window // 2, (smooth_window - 1) // 2
        smoothed = []
        for i in range(len(deltas)):
            lo = max(0, i - before)
            hi = min(len(deltas), i + after + 1)
            smoothed.append(_sum(deltas[lo:hi]) / (hi - lo))
        deltas = smoothed
    return list(zip(t_values, deltas))


def delta_series(sweep: SweepResult, smooth_window: int | None = None) -> list[tuple[int, float]]:
    """Per-T difference of mean misclassification: scomp minus wscomp."""
    return delta_points(
        ((r.n_tests, r.algorithm, r.mean_misclassified) for r in sweep.rows), smooth_window
    )
