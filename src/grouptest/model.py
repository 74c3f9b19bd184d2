"""Defective-set prior and the noiseless OR test channel.

The defective set is drawn from the combinatorial prior: uniform over all
size-k subsets of the item universe. Test outcomes are exact: a test is
positive iff its pool contains at least one defective. Decoders never see
k; it is used only to construct the truth and to pick design parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checks import require_defectives, require_indices, require_int, require_keys, require_match, require_seed
from .design import DesignMatrix


@dataclass(frozen=True)
class ItemSet:
    """A subset of the item universe, stored as a sorted index tuple."""

    members: tuple[int, ...]
    universe_size: int

    def __post_init__(self):
        object.__setattr__(self, "universe_size", require_int(self.universe_size, "universe_size", 0))
        object.__setattr__(self, "members", tuple(require_indices(self.members, self.universe_size, "item index")))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "ItemSet":
        """The set of True positions of a 1-D mask over the universe.

        The indices of a mask are sorted, unique and in range by
        construction, so the instance is built without ``__post_init__``.
        """
        mask = np.asarray(mask)
        if mask.ndim != 1:
            raise ValueError(f"item mask must be 1-D, got shape {mask.shape}")
        self = object.__new__(cls)
        object.__setattr__(self, "members", tuple(np.flatnonzero(mask).tolist()))
        object.__setattr__(self, "universe_size", len(mask))
        return self

    def to_mask(self) -> np.ndarray:
        mask = np.zeros(self.universe_size, dtype=bool)
        mask[list(self.members)] = True
        return mask

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class OutcomeVector:
    """The T binary test results (each a bool or an int 0 or 1, numpy's too), index-aligned with the design's rows."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        for t, b in enumerate(bits):
            if not isinstance(b, (bool, int, np.bool_, np.integer)) or b not in (0, 1):
                raise ValueError(f"outcome bit {t} is {b!r}, not 0 or 1")
        object.__setattr__(self, "bits", tuple(bool(b) for b in bits))

    @classmethod
    def from_mask(cls, mask: np.ndarray) -> "OutcomeVector":
        """The outcomes of a 1-D boolean mask, built without ``__post_init__``."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 1:
            raise ValueError(f"outcome mask must be 1-D, got shape {mask.shape}")
        self = object.__new__(cls)
        object.__setattr__(self, "bits", tuple(mask.tolist()))
        return self

    @property
    def n_tests(self) -> int:
        return len(self.bits)

    def to_mask(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=bool)

    def to_json_dict(self) -> dict:
        return {"bits": [int(b) for b in self.bits]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "OutcomeVector":
        require_keys(data, "outcomes JSON", "bits")
        bits = data["bits"]
        if not isinstance(bits, list):
            raise ValueError(f"outcome bits must be a list, got {bits!r}")
        return cls(tuple(bits))


def sample_defective_set(n_items: int, n_defectives: int, seed) -> ItemSet:
    """Uniform draw over all size-k subsets of [0, N); deterministic per seed (``require_seed``)."""
    n_items, n_defectives = require_defectives(n_items, n_defectives)
    rng = np.random.default_rng(require_seed(seed, "seed"))
    members = rng.choice(n_items, size=n_defectives, replace=False)
    return ItemSet(tuple(int(i) for i in members), universe_size=n_items)


def run_tests(matrix: DesignMatrix, defectives: ItemSet) -> OutcomeVector:
    """Noiseless outcomes: test t is positive iff pool t meets the defective set."""
    require_match(defectives.universe_size, "universe size", matrix.n_items, "matrix n_items")
    # Only the k defective columns are read: a T x k copy, not a T x N one.
    return OutcomeVector.from_mask(matrix.dense[:, list(defectives.members)].any(axis=1))
