"""Pooling-matrix designs: Bernoulli, constant and near-constant column weight.

A pooling matrix assigns items (columns) to tests (rows). Three random
families are provided, together with the parameter choices that are optimal
for each family given the number of defectives:

* ``bernoulli``: every entry is an independent Bernoulli(p) draw, with
  ``p = 1/(k+1)`` the optimal inclusion probability for k defectives.
* ``constant_column``: every item joins exactly L tests, an L-subset drawn
  uniformly without replacement, independently per item.
* ``near_constant_column``: every item draws L tests uniformly *with*
  replacement; duplicates collapse, so column weights range over [1, L].
  The optimal choice for both column families is ``L = floor((T/k) ln 2)``.

``DESIGN_KINDS`` names these three families; it is the one list of them that
specs, sweep configs and the ``gt design --kind`` choices check against.

Generation is deterministic given the spec (including its seed) and does not
depend on thread count or platform word order.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DesignSpec:
    """Parameters for generating one pooling matrix.

    Exactly the parameter relevant to ``design_kind`` must be set:
    ``inclusion_prob`` for bernoulli, ``column_weight`` for the column
    designs. ``seed`` is a SeedSequence entropy: an int >= 0 or a tuple of
    them (ValueError otherwise).
    """

    design_kind: str
    n_items: int
    n_tests: int
    inclusion_prob: float | None = None
    column_weight: int | None = None
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        if self.design_kind not in DESIGN_KINDS:
            raise ValueError(f"unknown design_kind {self.design_kind!r}")
        for name in ("n_items", "n_tests", "column_weight"):
            if name != "column_weight" or self.column_weight is not None:
                object.__setattr__(self, name, require_int(getattr(self, name), name))
        if self.n_items < 1 or self.n_tests < 1:
            raise ValueError("n_items and n_tests must be >= 1")
        if self.design_kind == "bernoulli":
            if self.inclusion_prob is None or self.column_weight is not None:
                raise ValueError("bernoulli design takes inclusion_prob only")
            p = self.inclusion_prob
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise ValueError(f"inclusion_prob must be a number in [0, 1], got {p!r}")
            if isinstance(p, np.generic):  # params["p"] must stay JSON-serialisable
                object.__setattr__(self, "inclusion_prob", p.item())
        else:
            if self.column_weight is None or self.inclusion_prob is not None:
                raise ValueError(f"{self.design_kind} design takes column_weight only")
            if self.column_weight < 1:
                raise ValueError(f"column_weight must be >= 1, got {self.column_weight}")
            if self.design_kind == "constant_column" and self.column_weight > self.n_tests:
                raise ValueError(
                    f"column_weight {self.column_weight} exceeds n_tests {self.n_tests}"
                )
        is_tuple = isinstance(self.seed, tuple)
        seeds = tuple(require_int(s, "seed") for s in (self.seed if is_tuple else (self.seed,)))
        if any(s < 0 for s in seeds):
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", seeds if is_tuple else seeds[0])


class DesignMatrix:
    """Immutable binary T x N pooling matrix with row and column index views.

    ``rows[t]`` lists the items pooled into test t; ``cols[i]`` lists the
    tests item i participates in. Both views describe the same matrix. A
    dense boolean array is kept alongside for the vectorized decoder
    kernels. Indices are 0-based everywhere.
    """

    __slots__ = ("n_tests", "n_items", "design_kind", "params", "_rows", "_cols", "_dense")

    def __init__(self, rows, n_items: int, design_kind: str = "explicit", params: dict | None = None):
        if design_kind not in DESIGN_KINDS + ("explicit",):
            raise ValueError(f"unknown design_kind {design_kind!r}")
        self.n_tests = len(rows)
        self.n_items = require_int(n_items, "n_items")
        self.design_kind = design_kind
        self.params = dict(params or {})
        dense = np.zeros((self.n_tests, self.n_items), dtype=bool)
        # All rows in one pass; test t's indices are flat[ends[t]:ends[t + 1]].
        # A bad row stops the pass, but an out-of-range index in an earlier
        # row is still reported first.
        flat, ends, bad_row = [], [0], None
        for t, row in enumerate(rows):
            try:
                flat.extend(map(operator.index, row))
            except TypeError:
                del flat[ends[-1]:]
                bad_row = (t, row)
                break
            ends.append(len(flat))
        try:
            idx = np.array(flat, dtype=np.int64)
            in_range = not flat or (idx.min() >= 0 and idx.max() < self.n_items)
        except OverflowError:
            in_range = False
        if not in_range:
            pos = next(p for p, i in enumerate(flat) if not 0 <= i < self.n_items)
            raise ValueError(
                f"test {np.searchsorted(ends, pos, side='right') - 1} contains an item index "
                f"outside [0, {self.n_items})"
            )
        if bad_row is not None:
            raise ValueError(f"test {bad_row[0]} is not a list of integer item indices: {bad_row[1]!r}")
        dense[np.repeat(np.arange(len(ends) - 1), np.diff(ends)), idx] = True
        dense.flags.writeable = False
        self._rows = None
        self._cols = None
        self._dense = dense

    @classmethod
    def _from_dense(cls, dense: np.ndarray, design_kind: str, params: dict) -> "DesignMatrix":
        # Fast path for the generators; row/column views are built on demand.
        self = cls.__new__(cls)
        self.n_tests, self.n_items = dense.shape
        self.design_kind = design_kind
        self.params = dict(params)
        dense = np.ascontiguousarray(dense, dtype=bool)
        dense.flags.writeable = False
        self._rows = None
        self._cols = None
        self._dense = dense
        return self

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        if self._rows is None:
            self._rows = tuple(
                tuple(np.flatnonzero(self._dense[t]).tolist()) for t in range(self.n_tests)
            )
        return self._rows

    @property
    def cols(self) -> tuple[tuple[int, ...], ...]:
        if self._cols is None:
            cols = [[] for _ in range(self.n_items)]
            for t, row in enumerate(self.rows):
                for i in row:
                    cols[i].append(t)
            self._cols = tuple(tuple(c) for c in cols)
        return self._cols

    @property
    def dense(self) -> np.ndarray:
        """Read-only boolean array of shape (n_tests, n_items)."""
        return self._dense

    def column_weights(self) -> np.ndarray:
        return self._dense.sum(axis=0)

    def __eq__(self, other):
        return (
            isinstance(other, DesignMatrix)
            and self.n_items == other.n_items
            and self.n_tests == other.n_tests
            and bool(np.array_equal(self._dense, other._dense))
        )

    def __repr__(self):
        return (
            f"DesignMatrix(n_tests={self.n_tests}, n_items={self.n_items}, "
            f"design_kind={self.design_kind!r})"
        )

    def to_json_dict(self) -> dict:
        return {
            "n_tests": self.n_tests,
            "n_items": self.n_items,
            "rows": [list(r) for r in self.rows],
            "design_kind": self.design_kind,
            "params": self.params,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DesignMatrix":
        require_keys(data, "matrix", "rows", "n_items", "n_tests")
        rows = data["rows"]
        if not isinstance(rows, list) or len(rows) != data["n_tests"]:
            raise ValueError("rows must be a list of n_tests pools")
        return cls(
            rows,
            n_items=data["n_items"],
            design_kind=data.get("design_kind", "explicit"),
            params=data.get("params", {}),
        )


def _rng(seed) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed))


def gen_bernoulli(spec: DesignSpec) -> DesignMatrix:
    """Matrix with independent Bernoulli(p) entries; deterministic per (spec, seed)."""
    if spec.design_kind != "bernoulli":
        raise ValueError(f"spec is for {spec.design_kind!r}, expected bernoulli")
    p = spec.inclusion_prob
    rng = _rng(spec.seed)
    dense = rng.random((spec.n_tests, spec.n_items)) < p
    return DesignMatrix._from_dense(
        dense, "bernoulli", {"p": p, "seed": _seed_for_params(spec.seed)}
    )


def gen_constant_column(spec: DesignSpec) -> DesignMatrix:
    """Each column is a uniform L-subset of tests, drawn without replacement.

    All columns are drawn together by Floyd's algorithm, L vectorised steps
    in total: at step j (j = T-L, ..., T-1) every item draws a test
    uniformly from [0, j] and takes test j instead if it already holds the
    draw. Each column is an exactly uniform L-subset, independent of the
    others.
    """
    if spec.design_kind != "constant_column":
        raise ValueError(f"spec is for {spec.design_kind!r}, expected constant_column")
    L, T = spec.column_weight, spec.n_tests
    rng = _rng(spec.seed)
    dense = np.zeros((T, spec.n_items), dtype=bool)
    items = np.arange(spec.n_items)
    for j in range(T - L, T):
        pick = rng.integers(0, j + 1, size=spec.n_items)
        pick[dense[pick, items]] = j
        dense[pick, items] = True
    return DesignMatrix._from_dense(
        dense, "constant_column", {"L": L, "seed": _seed_for_params(spec.seed)}
    )


def gen_near_constant_column(spec: DesignSpec) -> DesignMatrix:
    """Each column draws L tests uniformly with replacement; duplicates collapse.

    One (N, L) draw of test indices for all items, then a single scatter
    into the dense matrix. Row i of the draw holds the same values that N
    successive per-item draws of L would give item i.
    """
    if spec.design_kind != "near_constant_column":
        raise ValueError(f"spec is for {spec.design_kind!r}, expected near_constant_column")
    L = spec.column_weight
    rng = _rng(spec.seed)
    dense = np.zeros((spec.n_tests, spec.n_items), dtype=bool)
    picks = rng.integers(0, spec.n_tests, size=(spec.n_items, L))
    dense[picks, np.arange(spec.n_items)[:, np.newaxis]] = True
    return DesignMatrix._from_dense(
        dense, "near_constant_column", {"L": L, "seed": _seed_for_params(spec.seed)}
    )


_GENERATORS = {
    "bernoulli": gen_bernoulli,
    "constant_column": gen_constant_column,
    "near_constant_column": gen_near_constant_column,
}

DESIGN_KINDS = tuple(_GENERATORS)
"""The random design families; a ``DesignMatrix`` may also be "explicit"."""


def generate(spec: DesignSpec) -> DesignMatrix:
    """Dispatch to the generator for ``spec.design_kind``."""
    return _GENERATORS[spec.design_kind](spec)


def require_keys(data: dict, what: str, *keys: str) -> None:
    """ValueError naming the first of ``keys`` missing from the JSON object ``data``."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} JSON lacks the required key {key!r}")


_BOOLS = (bool, np.bool_)


def require_int(value, what: str) -> int:
    """``value`` as an int (``operator.index``); ValueError naming ``what`` if it is not one.

    Booleans, Python's and numpy's, are not integers here.
    """
    if not isinstance(value, _BOOLS):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _seed_for_params(seed) -> int | list[int]:
    # JSON-friendly copy of the seed (tuples become lists).
    return list(seed) if isinstance(seed, tuple) else int(seed)


def optimal_bernoulli_p(n_defectives: int) -> float:
    """Inclusion probability 1/(k+1) that balances sparsity and information."""
    if n_defectives < 1:
        raise ValueError("optimal inclusion probability is undefined for k < 1")
    return 1.0 / (n_defectives + 1)


def optimal_column_weight(n_tests: int, n_defectives: int) -> int:
    """Tests per item floor((T/k) ln 2), the information-maximizing choice."""
    if n_tests < 1 or n_defectives < 1:
        raise ValueError("n_tests and n_defectives must be >= 1")
    weight = math.floor((n_tests / n_defectives) * math.log(2))
    if weight < 1:
        raise ValueError(
            f"n_tests={n_tests} too small for k={n_defectives} under this design"
        )
    return weight
