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

Memory: each generator fills one preallocated T x N boolean matrix.
``gen_bernoulli`` draws its T*N uniforms in row-major blocks of 2**17
doubles (1 MiB) at a time; PCG64 makes each double from one
64-bit output, so the blocks continue the stream of one whole-matrix draw
and give the same matrix. ``gen_constant_column`` draws N indices per step.
``gen_near_constant_column`` keeps its one (N, L) int64 draw whole: it holds
8L bytes per item against the T bytes of the item's column, 8 ln 2 / k of
the matrix at the optimal L, so it stays below the matrix for k >= 6.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .checks import _BOOLS, require_choice, require_int, require_keys, require_match, require_prob, require_seed


@dataclass(frozen=True)
class DesignSpec:
    """Parameters for generating one pooling matrix.

    Exactly the parameter relevant to ``design_kind`` must be set:
    ``inclusion_prob`` for bernoulli, ``column_weight`` for the column
    designs. ``seed`` is a SeedSequence entropy, checked by ``require_seed``.
    """

    design_kind: str
    n_items: int
    n_tests: int
    inclusion_prob: float | None = None
    column_weight: int | None = None
    seed: int | tuple[int, ...] = 0

    def __post_init__(self):
        require_choice(self.design_kind, "design_kind", DESIGN_KINDS)
        for name in ("n_items", "n_tests", "column_weight"):
            if name != "column_weight" or self.column_weight is not None:
                object.__setattr__(self, name, require_int(getattr(self, name), name, 1))
        if self.design_kind == "bernoulli":
            if self.inclusion_prob is None or self.column_weight is not None:
                raise ValueError("bernoulli design takes inclusion_prob only")
            # params["p"] must stay JSON-serialisable, and an int 0 or 1 an int.
            object.__setattr__(self, "inclusion_prob", require_prob(self.inclusion_prob, "inclusion_prob"))
        else:
            if self.column_weight is None or self.inclusion_prob is not None:
                raise ValueError(f"{self.design_kind} design takes column_weight only")
            if self.design_kind == "constant_column" and self.column_weight > self.n_tests:
                raise ValueError(
                    f"column_weight {self.column_weight} exceeds n_tests {self.n_tests}"
                )
        object.__setattr__(self, "seed", require_seed(self.seed, "seed"))


class DesignMatrix:
    """Immutable binary T x N pooling matrix, held as one dense boolean array.

    ``dense`` is the read-only array of shape (n_tests, n_items):
    ``dense[t, i]`` is True when item i is pooled into test t. ``rows[t]``,
    the items of test t, is derived from it on each access. Indices are
    0-based everywhere.
    """

    __slots__ = ("n_tests", "n_items", "design_kind", "params", "dense")

    def __init__(self, rows, n_items: int, design_kind: str = "explicit", params: dict | None = None):
        require_choice(design_kind, "design_kind", DESIGN_KINDS + ("explicit",))
        n_tests = len(rows)
        n_items = require_int(n_items, "n_items", 0)
        if params is not None and not isinstance(params, dict):
            raise ValueError(f"params must be a JSON object, got {params!r}")
        # All rows in one pass; test t's indices are flat[ends[t]:ends[t + 1]].
        # A bad row stops the pass, but an out-of-range index in an earlier
        # row is still reported first. Plain ints are taken as they are; other
        # indices go through operator.index, which JSON true/false would pass.
        flat, ends, bad_row = [], [0], None
        for t, row in enumerate(rows):
            try:
                items = list(row)
                types = set(map(type, items))
                if not types.isdisjoint(_BOOLS):
                    raise TypeError
                flat.extend(items if types <= {int} else map(operator.index, items))
            except TypeError:
                del flat[ends[-1]:]
                bad_row = (t, row)
                break
            ends.append(len(flat))
        # Not require_indices: this check is vectorised over every row and names the test.
        try:
            idx = np.array(flat, dtype=np.int64)
            in_range = not flat or (idx.min() >= 0 and idx.max() < n_items)
        except OverflowError:
            in_range = False
        if not in_range:
            pos = next(p for p, i in enumerate(flat) if not 0 <= i < n_items)
            raise ValueError(
                f"test {np.searchsorted(ends, pos, side='right') - 1} contains an item index "
                f"outside [0, {n_items})"
            )
        if bad_row is not None:
            raise ValueError(f"test {bad_row[0]} is not a list of integer item indices: {bad_row[1]!r}")
        dense = np.zeros((n_tests, n_items), dtype=bool)
        dense[np.repeat(np.arange(n_tests), np.diff(ends)), idx] = True
        self._set_fields(dense, design_kind, params)

    @classmethod
    def _from_dense(cls, dense: np.ndarray, design_kind: str, params: dict) -> "DesignMatrix":
        # Fast path for the generators, whose kind and params need no checks.
        self = cls.__new__(cls)
        self._set_fields(np.ascontiguousarray(dense, dtype=bool), design_kind, params)
        return self

    def _set_fields(self, dense: np.ndarray, design_kind: str, params: dict | None) -> None:
        dense.flags.writeable = False
        self.n_tests, self.n_items = dense.shape
        self.design_kind = design_kind
        self.params = dict(params or {})
        self.dense = dense

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The items of each test, derived from ``dense`` on each access."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.dense)

    def column_weights(self) -> np.ndarray:
        return self.dense.sum(axis=0)

    def __eq__(self, other):
        # The array's shape already holds n_tests and n_items.
        return isinstance(other, DesignMatrix) and bool(np.array_equal(self.dense, other.dense))

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
        require_keys(data, "matrix JSON", "rows", "n_items", "n_tests")
        rows = data["rows"]
        if not isinstance(rows, list) or len(rows) != require_int(data["n_tests"], "n_tests"):
            raise ValueError("rows must be a list of n_tests pools")
        return cls(
            rows,
            n_items=data["n_items"],
            design_kind=data.get("design_kind", "explicit"),
            params=data.get("params", {}),
        )


# Uniforms per draw of gen_bernoulli, 1 MiB of doubles: one block still holds
# a whole N=500, T<=262 matrix, so a sweep trial makes a single draw.
_BERNOULLI_BLOCK = 1 << 17


def gen_bernoulli(spec: DesignSpec) -> DesignMatrix:
    """Matrix with independent Bernoulli(p) entries; deterministic per (spec, seed).

    The uniforms are drawn in row-major blocks, each compared straight into
    the matrix: it is the same stream as one whole-matrix draw.
    """
    require_match(spec.design_kind, "spec design_kind", "bernoulli", "generator")
    p = spec.inclusion_prob
    rng = np.random.default_rng(spec.seed)
    dense = np.empty((spec.n_tests, spec.n_items), dtype=bool)
    flat = dense.reshape(-1)
    for start in range(0, flat.size, _BERNOULLI_BLOCK):
        block = flat[start:start + _BERNOULLI_BLOCK]
        np.less(rng.random(block.size), p, out=block)
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
    require_match(spec.design_kind, "spec design_kind", "constant_column", "generator")
    L, T = spec.column_weight, spec.n_tests
    rng = np.random.default_rng(spec.seed)
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
    require_match(spec.design_kind, "spec design_kind", "near_constant_column", "generator")
    L = spec.column_weight
    rng = np.random.default_rng(spec.seed)
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


def _seed_for_params(seed) -> int | list[int]:
    # JSON-friendly copy of the seed (tuples become lists).
    return list(seed) if isinstance(seed, tuple) else int(seed)


def optimal_bernoulli_p(n_defectives: int) -> float:
    """Inclusion probability 1/(k+1) that balances sparsity and information."""
    return 1.0 / (require_int(n_defectives, "n_defectives", 1) + 1)


def optimal_column_weight(n_tests: int, n_defectives: int) -> int:
    """Tests per item floor((T/k) ln 2), the information-maximizing choice."""
    n_tests = require_int(n_tests, "n_tests", 1)
    n_defectives = require_int(n_defectives, "n_defectives", 1)
    weight = math.floor((n_tests / n_defectives) * math.log(2))
    if weight < 1:
        raise ValueError(
            f"n_tests={n_tests} too small for k={n_defectives} under this design"
        )
    return weight
