"""Truncated tensor series in two noncommuting letters.

The same letters "0", "1" index both the group-ring side (e0, e1) and
the form side (dz/z, dz/(1-z)).  ``TruncatedSeries``, the carrier of
numerical signatures, holds one complex array in shortlex word order:
the word of length k read as the binary number b sits at 2**k - 1 + b.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, as_complex, expect, is_json_int
from .words import Word, check_word, series_exp, shuffle_words, word_index
from .words import concat_mul  # noqa: F401  (the sparse product keeps its name series.concat_mul)

MAX_FLOAT_LEVEL = 12  # 8191 words a state; the slowest level-12 reach takes about 1.3 s


def check_level(r) -> None:
    if not 0 <= r <= MAX_FLOAT_LEVEL:
        raise DomainError(f"level must be between 0 and {MAX_FLOAT_LEVEL}, got {r}")


@lru_cache(maxsize=None)
def _split_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of the concatenation product.

    Row w holds, for each split w = u·v (u of length 0..|w|), the indices
    of u and of v; rows of short words are padded with ``dim``, which
    points at an appended zero.
    """
    dim = 2 ** (level + 1) - 1
    left = np.full((dim, level + 1), dim)
    right = np.full((dim, level + 1), dim)
    for k in range(level + 1):
        b = np.arange(2 ** k)
        rows = 2 ** k - 1 + b
        for j in range(k + 1):
            left[rows, j] = 2 ** j - 1 + (b >> (k - j))
            right[rows, j] = 2 ** (k - j) - 1 + (b & (2 ** (k - j) - 1))
    return left, right


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Complex truncated series: a read-only copy of the coefficients in shortlex order."""

    level: int
    array: np.ndarray

    def __post_init__(self):
        check_level(self.level)
        arr = np.array(self.array, dtype=complex)
        if arr.shape != (2 ** (self.level + 1) - 1,):
            raise ValueError(f"level {self.level} does not fit coefficients of shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)

    @classmethod
    def identity(cls, level: int) -> "TruncatedSeries":
        return cls.from_coeffs(level, {"": 1.0})

    @classmethod
    def from_coeffs(cls, level: int, coeffs: dict) -> "TruncatedSeries":
        """The series of a word -> coefficient map; words longer than the level are dropped."""
        check_level(level)
        index = word_index(level)
        arr = np.zeros(len(index), dtype=complex)
        for w, c in coeffs.items():
            if len(check_word(w)) <= level:
                arr[index[w]] = c
        return cls(level, arr)

    def coefficient(self, w: Word) -> complex:
        if len(check_word(w)) > self.level:
            return 0j
        return complex(self.array[2 ** len(w) - 1 + int(w or "0", 2)])

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Concatenation product, one gather over the splits of every word;
        it matches the signature of concatenated paths."""
        if self.level != other.level:
            raise DomainError(f"level mismatch: {self.level} vs {other.level}")
        left, right = _split_table(self.level)
        prod = np.append(self.array, 0)[left] * np.append(other.array, 0)[right]
        return TruncatedSeries(self.level, prod.sum(axis=1))

    def inverse(self) -> "TruncatedSeries":
        """Inverse of a series with constant term 1.  g·b = 1 read word by word
        is g_0·b_w = -sum over w = u·v, u nonempty, of g_u·b_v, with every v
        shorter than w: one pass per word length solves it."""
        g = self.array
        if abs(g[0] - 1) > 1e-9:
            raise DomainError("inverse needs constant term 1")
        left, right = _split_table(self.level)
        inv0 = 1 / g[0]
        b = np.zeros_like(g)
        b[0] = inv0
        for k in range(1, self.level + 1):
            rows = slice(2 ** k - 1, 2 ** (k + 1) - 1)
            b[rows] = -inv0 * (g[left[rows, 1:k + 1]] * b[right[rows, 1:k + 1]]).sum(axis=1)
        return TruncatedSeries(self.level, b)

    def distance(self, other: "TruncatedSeries") -> float:
        return float(np.abs(self.array - other.array).max())

    def to_json(self) -> dict:
        return {"level": self.level, "coefficients": {
            w: [c.real, c.imag] for w, c in zip(word_index(self.level), self.array.tolist()) if c != 0}}

    @classmethod
    def from_json(cls, data) -> "TruncatedSeries":
        """Read {"level": r, "coefficients": {word: [re, im], ...}}; the level
        is checked before anything is allocated."""
        expect(isinstance(data, dict) and is_json_int(data.get("level"))
               and isinstance(data.get("coefficients"), dict)
               and all(isinstance(c, list) for c in data["coefficients"].values()),
               'a series is {"level": r, "coefficients": {word: [re, im], ...}}')
        check_level(data["level"])
        return cls.from_coeffs(data["level"], {w: as_complex(c)
                                               for w, c in data["coefficients"].items()})


def shuffle_defect(s: TruncatedSeries, u: Word, v: Word) -> complex:
    """S(u)·S(v) − Σ_{w ∈ u⧢v} S(w); zero exactly when group-like there."""
    rhs = 0
    for w, m in shuffle_words(u, v):
        rhs = rhs + m * s.coefficient(w)
    return s.coefficient(u) * s.coefficient(v) - rhs


def exp_letter(coefficient: complex, letter: str, level: int) -> TruncatedSeries:
    """exp(c * e_letter) truncated: the group-like with a single-letter log."""
    return TruncatedSeries.from_coeffs(level, series_exp({letter: coefficient}, level))
