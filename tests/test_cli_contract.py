"""Property: every input document the CLI reads ends in a documented exit code.

Hypothesis writes the JSON documents of ``gt decode`` (matrix and outcomes)
and ``gt simulate``, and the option set of ``gt design``: valid ones, and ones
with one field missing, or replaced by a wrong type or an out-of-range value.
``cli.main`` runs in process and must return 0, 1 or 3 without raising. On
exit 0, a decode must also satisfy the decoder invariants: COMP ⊇ estimate ⊇
DD core, DND ∩ estimate = ∅, and an estimate other than DD's meets every
positive test that COMP can explain.

Sizes stay small (N, T <= 50, at most 3 trials) so that no example allocates
a large array.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from grouptest.cli import main
from grouptest.decoders import DECODERS
from grouptest.design import DESIGN_KINDS

_SETTINGS = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)

# Each way of spoiling one field: drop it, or replace it by one of these values
# or by the field's own out-of-range value.
_WRONG = {
    "bool": st.booleans(),
    "float": st.floats(),
    "string": st.text(max_size=3),
    "null": st.none(),
    "list": st.lists(st.integers(-3, 3), max_size=3),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=2),
}
_SPOILERS = ["missing", "out_of_range", *_WRONG]


def _spoil(data, doc: dict, field, out_of_range: dict) -> dict:
    """``doc`` with ``field`` dropped or replaced; ``doc`` itself if it has no ``field``."""
    if field not in doc:
        return doc
    doc = dict(doc)
    how = data.draw(st.sampled_from(_SPOILERS), label=f"{field} is")
    if how == "missing":
        del doc[field]
    else:
        doc[field] = out_of_range[field] if how == "out_of_range" else data.draw(_WRONG[how])
    return doc


def _decode_inputs(data, field):
    n = data.draw(st.integers(1, 50), label="N")
    rows = data.draw(
        st.lists(st.sets(st.integers(0, n - 1), max_size=6).map(sorted), min_size=1, max_size=50),
        label="rows",
    )
    if data.draw(st.booleans(), label="outcomes of a defective set"):
        truth = data.draw(st.sets(st.integers(0, n - 1), max_size=5), label="truth")
        bits = [int(bool(truth.intersection(row))) for row in rows]
    else:
        bits = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    matrix = {"n_tests": len(rows), "n_items": n, "rows": rows, "design_kind": "explicit", "params": {}}
    matrix = _spoil(data, matrix, field, {
        "n_tests": len(rows) + 1,
        "n_items": -1,
        "rows": [[n]] + rows[1:],
        "design_kind": "magic",
        "params": [["p", 0.5]],
    })
    outcomes = _spoil(data, {"bits": bits}, field, {"bits": [2] * len(rows)})
    return matrix, outcomes


def _simulate_config(data, field):
    n = data.draw(st.integers(1, 50), label="N")
    config = {
        "n_items": n,
        "n_defectives": data.draw(st.integers(0, min(n, 5)), label="k"),
        "design_kind": data.draw(st.sampled_from(DESIGN_KINDS)),
        "t_values": data.draw(st.lists(st.integers(1, 50), min_size=1, max_size=3)),
        "n_trials": data.draw(st.integers(1, 3)),
        "algorithms": data.draw(st.lists(st.sampled_from(sorted(DECODERS)), min_size=1, max_size=4)),
        "alpha": data.draw(st.floats(0.0, 2.0)),
        "master_seed": data.draw(st.integers(0, 100)),
    }
    return _spoil(data, config, field, {
        "n_items": -1,
        "n_defectives": n + 1,
        "design_kind": "magic",
        "t_values": [0],
        "n_trials": 0,
        "algorithms": ["magic"],
        "alpha": -1.0,
        "master_seed": -1,
    })


def _design_options(data, field):
    # --p applies to bernoulli designs only, --column-weight to the others.
    kinds = {
        "--p": ["bernoulli"],
        "--column-weight": [kind for kind in DESIGN_KINDS if kind != "bernoulli"],
    }.get(field, DESIGN_KINDS)
    kind = data.draw(st.sampled_from(kinds))
    n_tests = data.draw(st.integers(1, 50), label="T")
    options = {"--kind": kind, "--n-items": data.draw(st.integers(1, 50)), "--n-tests": n_tests}
    options["--seed"] = data.draw(st.integers(0, 100))
    if field == "--k" or (field is None and data.draw(st.booleans(), label="by k")):
        options["--k"] = data.draw(st.integers(1, 10))
    elif kind == "bernoulli":
        options["--p"] = data.draw(st.floats(0.0, 1.0))
    else:
        options["--column-weight"] = data.draw(st.integers(1, n_tests))
    return _spoil(data, options, field, {
        "--kind": "magic",
        "--n-items": 0,
        "--n-tests": -1,
        "--seed": -1,
        "--k": 0,
        "--p": 1.5,
        "--column-weight": n_tests + 1,
    })


def _run(argv) -> int:
    code = main(argv)
    assert code in (0, 1, 3), (code, argv)
    return code


def _write(directory: Path, name: str, doc: dict) -> str:
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


def _check_decode(matrix: dict, outcomes: dict, result: dict, algo: str):
    estimate, dnd = set(result["estimate"]), set(result["definite_non_defectives"])
    comp_set = set(range(matrix["n_items"])) - dnd
    assert set(result["dd_core"]) <= estimate <= comp_set
    assert not dnd & estimate
    if algo != "dd":
        for row, bit in zip(matrix["rows"], outcomes["bits"]):
            if bit and comp_set.intersection(row):
                assert estimate.intersection(row), row


@pytest.mark.parametrize(
    "field", [None, "n_tests", "n_items", "rows", "design_kind", "params", "bits"]
)
@_SETTINGS
@given(data=st.data())
def test_decode_exits_with_a_documented_code(field, data):
    matrix, outcomes = _decode_inputs(data, field)
    algo = data.draw(st.sampled_from(sorted(DECODERS)), label="algo")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        out = tmp / "result.json"
        code = _run([
            "decode", "--matrix", _write(tmp, "matrix.json", matrix),
            "--outcomes", _write(tmp, "outcomes.json", outcomes), "--algo", algo, "-o", str(out),
        ])
        if code == 0:
            _check_decode(matrix, outcomes, json.loads(out.read_text()), algo)


@pytest.mark.parametrize(
    "field",
    [None, "n_items", "n_defectives", "design_kind", "t_values", "n_trials", "algorithms", "alpha",
     "master_seed"],
)
@_SETTINGS
@given(data=st.data())
def test_simulate_exits_with_a_documented_code(field, data):
    config = _simulate_config(data, field)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        _run(["simulate", "--config", _write(tmp, "config.json", config), "-o", str(tmp / "s.csv")])


@pytest.mark.parametrize(
    "field", [None, "--kind", "--n-items", "--n-tests", "--seed", "--k", "--p", "--column-weight"]
)
@_SETTINGS
@given(data=st.data())
def test_design_exits_with_a_documented_code(field, data):
    options = _design_options(data, field)
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["design", "-o", str(Path(tmp) / "m.json")]
        for flag, value in options.items():
            argv += [flag, str(value)]
        _run(argv)
