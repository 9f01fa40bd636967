"""Truncated tensor series in two noncommuting letters.

The same letters "0", "1" index both the group-ring side (e0, e1) and
the form side (dz/z, dz/(1-z)); a truncated series is a dict from word
strings to coefficients, with all words longer than the level dropped.
``concat_mul`` and ``series_inverse`` are coefficient-type agnostic: the
signature machinery runs them on complex floats, and the Malcev module
runs ``concat_mul`` on the Python-int numerators of its exact series
(it keeps its own Fraction exp and log over a common denominator).
``series_exp`` is the float exponential.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .words import Word, check_word, shuffle_words, word_basis

Coeffs = dict[Word, object]


def truncate(coeffs: Coeffs, level: int) -> Coeffs:
    return {w: c for w, c in coeffs.items() if len(w) <= level and c != 0}


def concat_mul(a: Coeffs, b: Coeffs, level: int) -> Coeffs:
    """Concatenation product, truncated at the level."""
    out: Coeffs = {}
    fits: dict[int, list] = {}   # room -> the terms of b no longer than room, in b's order
    for u, cu in a.items():
        room = level - len(u)
        if room < 0:
            continue
        terms = fits.get(room)
        if terms is None:
            terms = fits[room] = [(v, cv) for v, cv in b.items() if len(v) <= room]
        for v, cv in terms:
            w = u + v
            prod = cu * cv
            out[w] = out[w] + prod if w in out else prod
    return {w: c for w, c in out.items() if c != 0}


def series_exp(h: Coeffs, level: int) -> Coeffs:
    """exp of a float series with zero constant term, truncated."""
    out: Coeffs = {"": 1}
    power = {"": 1}
    fact = 1
    for k in range(1, level + 1):
        power = concat_mul(power, h, level)
        fact *= k
        for w, c in power.items():
            out[w] = out.get(w, 0) + c / fact
    return truncate(out, level)


def series_inverse(g: Coeffs, level: int) -> Coeffs:
    """Inverse of a series with nonzero constant term.

    g·b = 1 read word by word is g_0·b_w = -sum over w = u·v, u nonempty,
    of g_u·b_v: every b_v on the right belongs to a shorter word, so one
    pass in shortlex order solves it with |w| products per word.
    """
    inv0 = 1 / g[""]
    out: Coeffs = {"": inv0}
    for w in word_basis(level)[1:]:
        acc = 0
        for k in range(1, len(w) + 1):
            gu = g.get(w[:k])
            if gu:
                bv = out.get(w[k:])
                if bv:
                    acc = acc + gu * bv
        if acc:
            out[w] = -inv0 * acc
    return out


def shuffle_defect(coeffs: Coeffs, u: Word, v: Word):
    """S(u)·S(v) − Σ_{w ∈ u⧢v} S(w); zero exactly when group-like there."""
    lhs = coeffs.get(u, 0) * coeffs.get(v, 0)
    rhs = 0
    for w, m in shuffle_words(u, v):
        rhs = rhs + m * coeffs.get(w, 0)
    return lhs - rhs


@dataclass(frozen=True)
class TruncatedSeries:
    """Complex truncated series; the carrier for numerical path signatures."""

    level: int
    coeffs: dict[Word, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.level < 0:
            raise ValueError("level must be >= 0")
        clean = {check_word(w): complex(c) for w, c in self.coeffs.items()
                 if len(w) <= self.level and c != 0}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def identity(cls, level: int) -> "TruncatedSeries":
        return cls(level, {"": 1.0})

    def coefficient(self, w: Word) -> complex:
        check_word(w)
        return self.coeffs.get(w, 0j)

    def mul(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        return TruncatedSeries(self.level, concat_mul(self.coeffs, other.coeffs, self.level))

    def inverse(self) -> "TruncatedSeries":
        if abs(self.coefficient("") - 1) > 1e-9:
            raise ValueError("inverse needs constant term 1")
        return TruncatedSeries(self.level, series_inverse(self.coeffs, self.level))

    def exp_of(self) -> "TruncatedSeries":
        if self.coefficient("") != 0:
            raise ValueError("exp needs zero constant term")
        return TruncatedSeries(self.level, series_exp(self.coeffs, self.level))

    def distance(self, other: "TruncatedSeries") -> float:
        words = set(self.coeffs) | set(other.coeffs)
        return max((abs(self.coefficient(w) - other.coefficient(w)) for w in words), default=0.0)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "coefficients": {w: [self.coeffs[w].real, self.coeffs[w].imag]
                             for w in sorted(self.coeffs)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "TruncatedSeries":
        coeffs = {w: complex(re, im) for w, (re, im) in data["coefficients"].items()}
        return cls(int(data["level"]), coeffs)


def exp_letter(coefficient: complex, letter: str, level: int) -> TruncatedSeries:
    """exp(c * e_letter) truncated: the group-like with a single-letter log."""
    return TruncatedSeries(level, series_exp({letter: coefficient}, level))
