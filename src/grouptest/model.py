"""Defective-set prior and the noiseless OR test channel.

The defective set is drawn from the combinatorial prior: uniform over all
size-k subsets of the item universe. Test outcomes are exact: a test is
positive iff its pool contains at least one defective. Decoders never see
k; it is used only to construct the truth and to pick design parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import DesignMatrix, require_int, require_keys


@dataclass(frozen=True)
class ItemSet:
    """A subset of the item universe, stored as a sorted index tuple."""

    members: tuple[int, ...]
    universe_size: int

    def __post_init__(self):
        members = tuple(sorted({require_int(i, "item index") for i in self.members}))
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "universe_size", require_int(self.universe_size, "universe_size", 0))
        if members and (members[0] < 0 or members[-1] >= self.universe_size):
            raise ValueError(
                f"item index outside [0, {self.universe_size}): {members}"
            )

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

    def __contains__(self, item):
        # Hash lookup, as for a set of the members; the set is built on the
        # first query and kept outside the dataclass fields.
        member_set = self.__dict__.get("_member_set")
        if member_set is None:
            member_set = frozenset(self.members)
            object.__setattr__(self, "_member_set", member_set)
        return item in member_set

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class OutcomeVector:
    """The T binary test results (each 0, 1 or a bool), index-aligned with the design's rows."""

    bits: tuple[bool, ...]

    def __post_init__(self):
        bits = tuple(self.bits)
        for t, b in enumerate(bits):
            if b not in (0, 1):
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
        require_keys(data, "outcomes", "bits")
        bits = data["bits"]
        if not isinstance(bits, list):
            raise ValueError(f"outcome bits must be a list, got {bits!r}")
        return cls(tuple(bits))


def sample_defective_set(n_items: int, n_defectives: int, seed) -> ItemSet:
    """Uniform draw over all size-k subsets of [0, N); deterministic per seed."""
    n_items = require_int(n_items, "n_items")
    n_defectives = require_int(n_defectives, "n_defectives")
    if not 0 <= n_defectives <= n_items:
        raise ValueError(
            f"need 0 <= k <= N, got k={n_defectives}, N={n_items}"
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    members = rng.choice(n_items, size=n_defectives, replace=False)
    return ItemSet(tuple(int(i) for i in members), universe_size=n_items)


def run_tests(matrix: DesignMatrix, defectives: ItemSet) -> OutcomeVector:
    """Noiseless outcomes: test t is positive iff pool t meets the defective set."""
    if defectives.universe_size != matrix.n_items:
        raise ValueError(
            f"universe size {defectives.universe_size} does not match "
            f"matrix n_items {matrix.n_items}"
        )
    hits = matrix.dense & defectives.to_mask()[np.newaxis, :]
    return OutcomeVector.from_mask(hits.any(axis=1))
