"""Argument rules: one function per kind of argument and per relation between
arguments, which every module calls instead of checking by hand. Each raises
ValueError naming the argument; booleans, Python's and numpy's, are never numbers."""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

_BOOLS = (bool, np.bool_)


def require_int(value, what: str, minimum: int | None = None) -> int:
    """``value`` as an int (``operator.index``); ValueError naming ``what`` if it is
    not one, or if it is below ``minimum`` when that is given."""
    try:
        if isinstance(value, _BOOLS):
            raise TypeError
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{what} must be >= {minimum}, got {number}")
    return number


def require_prob(value, what: str, interior: bool = False):
    """``value`` as a probability in [0, 1], or in (0, 1) when ``interior``;
    ValueError naming ``what`` for a boolean, a non-number, NaN or a value
    outside. A numpy scalar becomes the equal Python number; an int stays an int.
    """
    # A float, the common case, skips the slower numbers.Real check.
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, _BOOLS))
    if not real or not (0 < value < 1 if interior else 0 <= value <= 1):
        raise ValueError(f"{what} must be a number in {'(0, 1)' if interior else '[0, 1]'}, got {value!r}")
    return value.item() if isinstance(value, np.generic) else value


def require_real(value, what: str, positive: bool = False) -> float:
    """``value`` as a float; ValueError naming ``what`` unless it is a finite real number
    >= 0, or > 0 when ``positive`` (so NaN, infinities and ints too large for a float fail)."""
    real = type(value) is float or (isinstance(value, numbers.Real) and not isinstance(value, _BOOLS))
    try:
        number = float(value) if real else math.nan
    except OverflowError:
        number = math.nan
    if not (math.isfinite(number) and (number > 0 if positive else number >= 0)):
        raise ValueError(f"{what} must be a finite number {'>' if positive else '>='} 0, got {value!r}")
    return number


def require_seed(seed, what: str) -> int | tuple[int, ...]:
    """``seed`` as a SeedSequence entropy, an int >= 0 or a tuple of them (each
    through ``require_int``); ValueError naming ``what`` otherwise, so None (OS entropy) too."""
    if isinstance(seed, tuple):
        return tuple(require_int(s, what, 0) for s in seed)
    return require_int(seed, what, 0)


def require_indices(values, size: int, what: str) -> list[int]:
    """``values`` as a sorted list of distinct ints (each through ``require_int``);
    ValueError naming ``what`` for a non-iterable, or naming the first index outside [0, size)."""
    try:
        items = iter(values)
    except TypeError:
        raise ValueError(f"{what} values must be an iterable of integers, got {values!r}") from None
    indices = sorted({require_int(i, what) for i in items})
    if indices and (indices[0] < 0 or indices[-1] >= size):
        bad = next(i for i in indices if not 0 <= i < size)
        raise ValueError(f"{what} {bad} outside [0, {size})")
    return indices


def require_defectives(n_items, n_defectives, interior: bool = False) -> tuple[int, int]:
    """``(n_items, n_defectives)`` as Python ints, which cannot overflow; ValueError
    unless 0 <= k <= N, or 1 <= k < N when ``interior`` (closed forms, moment oracles)."""
    n_items = require_int(n_items, "n_items")
    n_defectives = require_int(n_defectives, "n_defectives")
    if not (1 <= n_defectives < n_items if interior else 0 <= n_defectives <= n_items):
        relation = "1 <= k < N" if interior else "0 <= k <= N"
        raise ValueError(f"need {relation}, got k={n_defectives}, N={n_items}")
    return n_items, n_defectives


def require_choice(value, what: str, choices) -> None:
    """ValueError naming ``what`` and the sorted ``choices`` unless ``value`` is one of
    those names (a string, so an unhashable value fails here too)."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {sorted(choices)}")


def require_match(value, what: str, expected, against: str) -> None:
    """ValueError unless ``value`` (``what``) equals ``expected`` (``against``),
    as for two sizes that must agree."""
    if value != expected:
        raise ValueError(f"{what} {value} does not match {against} {expected}")


def require_keys(data: dict, what: str, *keys: str) -> None:
    """ValueError naming the first of ``keys`` missing from ``data``, such as a JSON object."""
    for key in keys:
        if key not in data:
            raise ValueError(f"{what} lacks the required key {key!r}")
