"""Exact truncated group-ring computations for the free group on two letters.

Everything here is exact rational arithmetic on truncated tensor series:
exponentials and logarithms, the coproduct classification separating Lie
elements from group-likes, BCH products, Lyndon (Hall) bases of the free
nilpotent Lie algebra, and Malcev coordinates of group words under
gamma_i -> exp(e_i).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .series import concat_mul, series_exp, series_log, truncate
from .words import Word, check_word, shuffle_words, word_basis

DEFAULT_MAX_LEVEL = 6  # tensor dimension 127; exact arithmetic stays quick


@dataclass(frozen=True)
class ExactSeries:
    """Truncated series with exact rational coefficients."""

    level: int
    coeffs: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be >= 1")
        clean = {check_word(w): Fraction(c) for w, c in self.coeffs.items()
                 if len(w) <= self.level and c != 0}
        object.__setattr__(self, "coeffs", clean)

    @classmethod
    def unit(cls, level: int) -> "ExactSeries":
        return cls(level, {"": Fraction(1)})

    @classmethod
    def letter(cls, ch: str, level: int) -> "ExactSeries":
        return cls(level, {ch: Fraction(1)})

    def coefficient(self, w: Word) -> Fraction:
        return self.coeffs.get(check_word(w), Fraction(0))

    def mul(self, other: "ExactSeries") -> "ExactSeries":
        if self.level != other.level:
            raise ValueError("level mismatch")
        return ExactSeries(self.level, concat_mul(self.coeffs, other.coeffs, self.level))

    def add(self, other: "ExactSeries") -> "ExactSeries":
        if self.level != other.level:
            raise ValueError("level mismatch")
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            out[w] = out.get(w, Fraction(0)) + c
        return ExactSeries(self.level, out)

    def scale(self, c) -> "ExactSeries":
        c = Fraction(c)
        return ExactSeries(self.level, {w: c * x for w, x in self.coeffs.items()})

    def bracket(self, other: "ExactSeries") -> "ExactSeries":
        return self.mul(other).add(other.mul(self).scale(-1))

    def to_json(self) -> dict:
        return {"level": self.level,
                "coefficients": {w: str(c) for w, c in sorted(self.coeffs.items())}}

    @classmethod
    def from_json(cls, data: dict) -> "ExactSeries":
        return cls(int(data["level"]),
                   {w: Fraction(c) for w, c in data["coefficients"].items()})


def exp_trunc(h: ExactSeries) -> ExactSeries:
    """Truncated exponential; requires zero constant term."""
    if h.coefficient("") != 0:
        raise ValueError("exp_trunc needs zero constant term")
    return ExactSeries(h.level, series_exp(h.coeffs, h.level))


def log_trunc(g: ExactSeries) -> ExactSeries:
    """Truncated logarithm; requires constant term 1."""
    if g.coefficient("") != 1:
        raise ValueError("log_trunc needs constant term 1")
    return ExactSeries(g.level, series_log(g.coeffs, g.level))


# --- coproduct classification -------------------------------------------------
#
# The coproduct dual to the shuffle product makes the letters primitive
# (it is the coproduct under which group elements map to group-likes);
# its pairing with a pair of words (u, v) is the shuffle multiplicity.

def _pairs(level: int):
    words = word_basis(level)
    for u in words:
        if not u:
            continue
        for v in words:
            if not v or len(u) + len(v) > level:
                continue
            yield u, v


def is_primitive(h: ExactSeries) -> bool:
    if h.coefficient("") != 0:
        return False
    for u, v in _pairs(h.level):
        total = Fraction(0)
        for w, m in shuffle_words(u, v):
            if len(w) <= h.level:
                total += m * h.coefficient(w)
        if total != 0:
            return False
    return True


def is_grouplike(g: ExactSeries) -> bool:
    if g.coefficient("") != 1:
        return False
    for u, v in _pairs(g.level):
        total = Fraction(0)
        for w, m in shuffle_words(u, v):
            if len(w) <= g.level:
                total += m * g.coefficient(w)
        if total != g.coefficient(u) * g.coefficient(v):
            return False
    return True


def classify_coproduct(h: ExactSeries) -> str:
    """Exact classification: 'primitive', 'grouplike', or 'neither'."""
    if is_primitive(h):
        return "primitive"
    if is_grouplike(h):
        return "grouplike"
    return "neither"


def bch(a: ExactSeries, b: ExactSeries, level: int | None = None) -> ExactSeries:
    """log(exp(a)·exp(b)); inputs and output are primitives."""
    if level is not None and (a.level != level or b.level != level):
        a = ExactSeries(level, a.coeffs)
        b = ExactSeries(level, b.coeffs)
    if a.level != b.level:
        raise ValueError("level mismatch")
    if not is_primitive(a) or not is_primitive(b):
        raise ValueError("bch needs primitive inputs")
    return log_trunc(exp_trunc(a).mul(exp_trunc(b)))


# --- Lyndon (Hall) bases -------------------------------------------------------

@lru_cache(maxsize=None)
def lyndon_words(degree: int) -> tuple[Word, ...]:
    """Lyndon words of the given length over {"0","1"}, lexicographic."""
    out = []
    for w in sorted("".join(bits) for bits in _tuples(degree)):
        if all(w < w[i:] + w[:i] for i in range(1, len(w))):
            out.append(w)
    return tuple(out)


def _tuples(n: int):
    if n == 0:
        yield ()
        return
    for rest in _tuples(n - 1):
        for ch in ("0", "1"):
            yield rest + (ch,)


@lru_cache(maxsize=None)
def standard_factorization(w: Word) -> tuple[Word, Word]:
    """w = u·v with v the longest proper Lyndon suffix."""
    if len(w) < 2:
        raise ValueError("need length >= 2")
    for i in range(1, len(w)):
        v = w[i:]
        if all(v < v[j:] + v[:j] for j in range(1, len(v))):
            return w[:i], v
    raise AssertionError("unreachable for a Lyndon word")


@lru_cache(maxsize=None)
def bracket_expansion(w: Word) -> tuple[tuple[Word, int], ...]:
    """Tensor-word expansion of the right-normed Lyndon bracket of w."""
    if len(w) == 1:
        return ((w, 1),)
    u, v = standard_factorization(w)
    eu, ev = dict(bracket_expansion(u)), dict(bracket_expansion(v))
    out: dict[Word, int] = {}
    for a, ca in eu.items():
        for b, cb in ev.items():
            out[a + b] = out.get(a + b, 0) + ca * cb
            out[b + a] = out.get(b + a, 0) - ca * cb
    return tuple(sorted((k, c) for k, c in out.items() if c != 0))


def hall_dims(r: int) -> list[int]:
    """Dimensions of the graded pieces of the free nilpotent Lie algebra on two letters."""
    if r < 1:
        raise ValueError("r must be >= 1")
    return [len(lyndon_words(d)) for d in range(1, r + 1)]


def hall_basis(r: int) -> list[tuple[Word, dict[Word, int]]]:
    """Lyndon representatives with their tensor expansions, degree by degree."""
    out = []
    for d in range(1, r + 1):
        for w in lyndon_words(d):
            out.append((w, dict(bracket_expansion(w))))
    return out


def hall_coordinates(h: ExactSeries) -> dict[Word, Fraction]:
    """Coordinates of a primitive in the Lyndon basis, by exact elimination."""
    if not is_primitive(h):
        raise ValueError("hall_coordinates needs a primitive element")
    coords: dict[Word, Fraction] = {}
    for d in range(1, h.level + 1):
        words_d = [w for w in word_basis(h.level) if len(w) == d]
        target = [h.coefficient(w) for w in words_d]
        if all(x == 0 for x in target):
            continue
        basis = lyndon_words(d)
        vectors = []
        for lw in basis:
            exp = dict(bracket_expansion(lw))
            vectors.append([Fraction(exp.get(w, 0)) for w in words_d])
        sol = linalg.solve_in_span(vectors, target)
        if sol is None:
            raise AssertionError("primitive not in the Lyndon span; primitivity check is broken")
        for lw, c in zip(basis, sol):
            if c != 0:
                coords[lw] = c
    return coords


def primitive_space_dimension(level: int) -> int:
    """dim of the primitive subspace at the level, by exact linear algebra."""
    words = [w for w in word_basis(level) if w]
    constraints = []
    for u, v in _pairs(level):
        row = [Fraction(0)] * len(words)
        for w, m in shuffle_words(u, v):
            if len(w) <= level:
                row[words.index(w)] += m
        constraints.append(row)
    return len(words) - linalg.rank(constraints)


# --- group words and Malcev coordinates ---------------------------------------

_TOKEN = re.compile(r"^([01])(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word in the generators gamma_0, gamma_1."""

    letters: tuple[tuple[str, int], ...] = ()  # (generator, ±1), reduced

    @classmethod
    def from_string(cls, text: str) -> "GroupWord":
        """Parse "0 1 0^-1 1^-1" style words (powers expand and reduce)."""
        letters: list[tuple[str, int]] = []
        for tok in text.split():
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"bad group-word token {tok!r}")
            gen, power = m.group(1), int(m.group(2) or 1)
            step = 1 if power > 0 else -1
            for _ in range(abs(power)):
                if letters and letters[-1] == (gen, -step):
                    letters.pop()
                else:
                    letters.append((gen, step))
        return cls(tuple(letters))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        letters = list(self.letters)
        for gen, s in other.letters:
            if letters and letters[-1] == (gen, -s):
                letters.pop()
            else:
                letters.append((gen, s))
        return GroupWord(tuple(letters))

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((gen, -s) for gen, s in reversed(self.letters)))

    def __str__(self) -> str:
        return " ".join(g if s == 1 else f"{g}^-1" for g, s in self.letters) or "(empty)"


def group_log(word: GroupWord | str, level: int) -> ExactSeries:
    """log of the image of the word under gamma_i -> exp(e_i), truncated."""
    if isinstance(word, str):
        word = GroupWord.from_string(word)
    acc = ExactSeries.unit(level)
    for gen, s in word.letters:
        h = ExactSeries.letter(gen, level).scale(s)
        acc = acc.mul(exp_trunc(h))
    return log_trunc(acc)


def malcev_coordinates(word: GroupWord | str, level: int) -> dict[Word, Fraction]:
    """Lyndon-basis coordinates of the group word in the level-r quotient."""
    return hall_coordinates(group_log(word, level))
