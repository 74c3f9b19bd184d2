"""Every decoder reproduces the pinned outputs in ``data/greedy_traces.json``.

The file holds 300 small seeded instances (Bernoulli, constant-column and
near-constant column designs, N <= 60) with one alpha each from ALPHAS. Every
sixth instance has uniformly random outcomes instead of the OR of a defective
set, so positive tests that no potential defective can explain are covered
too. The matrix and the outcomes are stored themselves, not their seeds, so
the file stays valid when a generator's random stream changes. For each
decoder it records the estimate, the definite non-defectives, the DD core and
the greedy trace; floats are written by ``repr`` and compared with ``==``.

The results were written by the decoders before they were merged into one
staged pass. To decode the stored instances again with the current code and
write the results back:

    PYTHONPATH=src python tests/test_golden_traces.py

This leaves the file byte-identical while the decoders reproduce it. New
instances are drawn (from a fixed seed) only when the file is absent.
"""

import json
import os

import numpy as np

from grouptest.decoders import DECODERS, decode
from grouptest.design import DesignMatrix, DesignSpec, generate
from grouptest.model import OutcomeVector, run_tests, sample_defective_set

N_INSTANCES = 300
ALPHAS = (0.0, 0.5, 1.0, 2.0)
KINDS = ("bernoulli", "constant_column", "near_constant_column")
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "greedy_traces.json")


def make_instance(index: int, rng: np.random.Generator) -> dict:
    kind = KINDS[index % len(KINDS)]
    n = int(rng.integers(4, 61))
    t = int(rng.integers(2, 31))
    k = int(rng.integers(0, min(7, n) + 1))
    seed = int(rng.integers(0, 2**63))
    if kind == "bernoulli":
        spec = DesignSpec(kind, n, t, inclusion_prob=float(rng.uniform(0.05, 0.5)), seed=seed)
    else:
        spec = DesignSpec(kind, n, t, column_weight=int(rng.integers(1, min(t, 6) + 1)), seed=seed)
    matrix = generate(spec)
    if index % 6 == 5:
        outcomes = OutcomeVector(tuple(bool(b) for b in rng.random(t) < 0.5))
    else:
        outcomes = run_tests(matrix, sample_defective_set(n, k, int(rng.integers(0, 2**63))))
    return {
        "design_kind": kind,
        "n_items": n,
        # each test's pool as the hex digits of its item bitmask
        "rows": [format(sum(1 << i for i in row), "x") for row in matrix.rows],
        "bits": outcomes.to_json_dict()["bits"],
        "alpha": ALPHAS[(index // len(KINDS)) % len(ALPHAS)],
    }


def decode_instance(record: dict) -> dict:
    """Each decoder's output as ``[estimate, dnd, dd_core, trace or None]``."""
    rows = [[i for i in range(record["n_items"]) if int(h, 16) >> i & 1] for h in record["rows"]]
    matrix = DesignMatrix(rows, record["n_items"], design_kind=record["design_kind"])
    outcomes = OutcomeVector.from_json_dict({"bits": record["bits"]})
    results = {}
    for name in DECODERS:
        res = decode(name, matrix, outcomes, record["alpha"])
        results[name] = [
            list(res.estimate.members),
            list(res.definite_non_defectives.members),
            list(res.dd_core.members),
            None if res.trace is None else [list(step) for step in res.trace],
        ]
    return results


def test_decoders_reproduce_golden_traces():
    with open(PATH) as fh:
        golden = json.load(fh)
    assert len(golden) == N_INSTANCES
    for index, record in enumerate(golden):
        assert decode_instance(record) == record["results"], f"instance {index}"


def write_golden():
    if os.path.exists(PATH):
        with open(PATH) as fh:
            records = json.load(fh)
    else:
        rng = np.random.default_rng(20260117)
        records = [make_instance(index, rng) for index in range(N_INSTANCES)]
    lines = []
    for record in records:
        record["results"] = decode_instance(record)
        lines.append(json.dumps(record, separators=(",", ":")))
    with open(PATH, "w") as fh:
        fh.write("[\n" + ",\n".join(lines) + "\n]\n")


if __name__ == "__main__":
    write_golden()
