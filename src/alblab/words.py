"""Exact shuffle algebra of words in the two logarithmic 1-forms.

A word is a plain string over the alphabet {"0", "1"}; the letter "0"
stands for the form dz/z and "1" for dz/(1-z).  The empty string is the
empty word, so serialization of a word is the identity map and the
canonical ordering is shortlex (length, then "0" < "1").

Coefficients are exact rationals throughout: the shuffle identities
proved here serve as oracles for the floating-point integral routines
and must hold on the nose.  The sparse
concatenation product ``concat_mul`` of word dicts serves both sides:
the Python-int numerators of the Malcev module and the one-letter log
of ``series.exp_letter``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

ALPHABET = ("0", "1")
MAX_R = 14  # longest word length anything enumerates; hall-dims at 14 takes about 0.2 s in the CLI
MAX_RIFFLES = 60_000       # riffles one shuffle product may enumerate; the slowest call near it takes 1.3 s
MAX_SHUFFLE_LETTERS = 24   # letters of a word in a shuffle factor; shuffle_words recurses per letter

Word = str


def check_word(w: str) -> str:
    if any(ch not in ALPHABET for ch in w):
        raise ValueError(f"word {w!r} uses letters outside {{'0','1'}}")
    return w


def word_basis(r: int) -> list[Word]:
    """All words of length <= r in shortlex order; there are 2**(r+1) - 1."""
    if not 0 <= r <= MAX_R:
        raise ValueError(f"r must be between 0 and {MAX_R}, got {r}")
    out: list[Word] = [""]
    layer = [""]
    for _ in range(r):
        layer = [w + ch for w in layer for ch in ALPHABET]
        out.extend(sorted(layer))
    return out


@lru_cache(maxsize=None)
def word_index(r: int) -> dict[Word, int]:
    """Position of each word of length <= r in ``word_basis(r)``."""
    return {w: i for i, w in enumerate(word_basis(r))}


def shuffle_words(u: Word, v: Word, memo: dict | None = None) -> tuple[tuple[Word, int], ...]:
    """Riffle shuffles of two words with multiplicities.

    The recursion meets the same pairs of suffixes many times; ``memo``
    keeps their shuffles.  Callers that shuffle many pairs pass one dict
    for all of them, so the memory goes when they return and nothing
    outlives the call.
    """
    if memo is None:
        memo = {}
    key = (u, v)
    if key in memo:
        return memo[key]
    if not u:
        out = ((v, 1),)
    elif not v:
        out = ((u, 1),)
    else:
        counts: dict[Word, int] = {}
        for w, c in shuffle_words(u[1:], v, memo):
            counts[u[0] + w] = counts.get(u[0] + w, 0) + c
        for w, c in shuffle_words(u, v[1:], memo):
            counts[v[0] + w] = counts.get(v[0] + w, 0) + c
        out = tuple(sorted(counts.items()))
    memo[key] = out
    return out


@dataclass(frozen=True)
class ShuffleElement:
    """Finitely supported rational combination of words (degree-0 bar algebra)."""

    coeffs: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        clean = {check_word(w): Fraction(c) for w, c in self.coeffs.items() if c != 0}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def from_word(cls, w: Word, c=1) -> "ShuffleElement":
        return cls({w: Fraction(c)})

    @property
    def degree(self) -> int:
        return max((len(w) for w in self.coeffs), default=0)

    def to_json(self) -> dict[str, str]:
        return {w: str(c) for w, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, data: dict[str, str]) -> "ShuffleElement":
        return cls({w: Fraction(c) for w, c in data.items()})


def _check_shuffle_size(a: ShuffleElement, b: ShuffleElement) -> None:
    """The term pairs enumerate sum C(|u|+|v|, |u|) riffle shuffles; more
    than MAX_RIFFLES is refused before any is made.  Each pair adds at least
    one, so the count takes at most MAX_RIFFLES + 1 steps."""
    if max(a.degree, b.degree) > MAX_SHUFFLE_LETTERS:
        raise ValueError(f"shuffle factors may have words of at most {MAX_SHUFFLE_LETTERS} letters")
    riffles = 0
    for u in a.coeffs:
        for v in b.coeffs:
            riffles += math.comb(len(u) + len(v), len(u))
            if riffles > MAX_RIFFLES:
                raise ValueError(f"the shuffle product has more than {MAX_RIFFLES} riffle shuffles")


def shuffle_product(a: ShuffleElement, b: ShuffleElement) -> ShuffleElement:
    """Bilinear extension of the riffle shuffle; degrees add."""
    _check_shuffle_size(a, b)
    out: dict[Word, Fraction] = {}
    memo: dict = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            for w, m in shuffle_words(u, v, memo):
                out[w] = out.get(w, Fraction(0)) + cu * cv * m
    return ShuffleElement(out)


# --- sparse concatenation product -------------------------------------------

Coeffs = dict[Word, object]


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
    return out

