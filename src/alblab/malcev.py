"""Exact truncated group-ring computations for the free group on two letters.

Everything here is exact rational arithmetic on truncated tensor series:
exponentials and logarithms, the coproduct classification separating Lie
elements from group-likes, BCH products, Lyndon (Hall) bases of the free
nilpotent Lie algebra, and Malcev coordinates of group words under
gamma_i -> exp(e_i).

The inner loops run on Python ints.  A series is taken as integer
numerators over the lcm of its denominators (``_numerators``) and stays a
pair (numerators, denominator) from input to output: products concatenate
numerators, the exp and log cores (``_exp``, ``_log``) sum the powers with
integer weights over one common denominator, BCH and group words chain
those cores, the coproduct tests read a cached table of shuffle constraints
(``_coproduct_table``) against the numerators, and the Hall solve runs on
them too.  Fractions appear once, in the value handed out, and every
coefficient handed out is a canonical Fraction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .words import MAX_R, Word, check_word, concat_mul, shuffle_words, word_basis, word_index

MAX_EXACT_LEVEL = 10  # 2047 words; the costliest level-10 call tried, a dense BCH, takes 0.6-0.9 s in the CLI


def _check_level(level: int) -> None:
    if not 1 <= level <= MAX_EXACT_LEVEL:
        raise ValueError(f"exact level must be between 1 and {MAX_EXACT_LEVEL}, got {level}")


@dataclass(frozen=True)
class ExactSeries:
    """Truncated series with exact rational coefficients."""

    level: int
    coeffs: dict[Word, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        _check_level(self.level)
        clean = {check_word(w): c if type(c) is Fraction else Fraction(c)
                 for w, c in self.coeffs.items() if len(w) <= self.level and c != 0}
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
        a, da = _numerators(self.coeffs)
        b, db = _numerators(other.coeffs)
        return _from_numerators(self.level, concat_mul(a, b, self.level), da * db)

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


def _numerators(coeffs: dict[Word, Fraction]) -> tuple[dict[Word, int], int]:
    """(n, d) with coeffs = n / d: integer numerators over the lcm d of the denominators."""
    d = math.lcm(*[c.denominator for c in coeffs.values()])
    return {w: c.numerator * (d // c.denominator) for w, c in coeffs.items()}, d


def _from_numerators(level: int, numerators: dict[Word, int], d: int) -> ExactSeries:
    """The series numerators / d, one canonical Fraction per nonzero word."""
    return ExactSeries(level, {w: Fraction(n, d) for w, n in numerators.items() if n})


def _reduced(n: dict[Word, int], d: int) -> tuple[dict[Word, int], int]:
    """n / d with the common factor of the numerators and d divided out."""
    g = math.gcd(d, *n.values())
    if g == 1:
        return n, d
    return {w: c // g for w, c in n.items()}, d // g


def _power_sum(j: dict[Word, int], level: int, weights: list[int]) -> dict[Word, int]:
    """sum over k = 1..level of weights[k]·j^k, j with no constant term."""
    total = {w: weights[1] * c for w, c in j.items()}
    power = j
    for k in range(2, level + 1):
        power = concat_mul(power, j, level)
        if not power:
            break
        for w, c in power.items():
            total[w] = total.get(w, 0) + weights[k] * c
    return total


def _exp(n: dict[Word, int], d: int, r: int) -> tuple[dict[Word, int], int]:
    """exp(n/d) at level r for n with no constant term, as (numerators, denominator).

    exp(n/d) = sum_k n^k / (d^k k!), taken over the one denominator
    d^r r!, so the sum runs on ints.
    """
    fact = math.factorial(r)
    weights = [d ** (r - k) * (fact // math.factorial(k)) for k in range(r + 1)]
    total = _power_sum(n, r, weights)
    total[""] = d ** r * fact
    return total, d ** r * fact


def _log(n: dict[Word, int], d: int, r: int) -> tuple[dict[Word, int], int]:
    """log(n/d) at level r for n with constant term d, as (numerators, denominator).

    With n/d = 1 + j/d, log = sum_k (-1)^(k+1) j^k / (k d^k), taken over
    the one denominator d^r lcm(1..r), so the sum runs on ints.
    """
    j = {w: c for w, c in n.items() if w}
    m = math.lcm(*range(1, r + 1))
    weights = [0] + [(-1) ** (k + 1) * d ** (r - k) * (m // k) for k in range(1, r + 1)]
    return _power_sum(j, r, weights), d ** r * m


def exp_trunc(h: ExactSeries) -> ExactSeries:
    """Truncated exponential; requires zero constant term."""
    if h.coefficient("") != 0:
        raise ValueError("exp_trunc needs zero constant term")
    return _from_numerators(h.level, *_exp(*_numerators(h.coeffs), h.level))


def log_trunc(g: ExactSeries) -> ExactSeries:
    """Truncated logarithm; requires constant term 1."""
    if g.coefficient("") != 1:
        raise ValueError("log_trunc needs constant term 1")
    return _from_numerators(g.level, *_log(*_numerators(g.coeffs), g.level))


# --- coproduct classification -------------------------------------------------
#
# The coproduct dual to the shuffle product makes the letters primitive
# (it is the coproduct under which group elements map to group-likes);
# its pairing with a pair of words (u, v) is the shuffle multiplicity.
# Its constraints are the same for every series of a level, so they are
# tabled once, with words as their index in word_basis(level).

@lru_cache(maxsize=None)
def _coproduct_table(level: int) -> tuple[tuple[int, int, tuple[tuple[int, int], ...]], ...]:
    """(u, v, ((w, m), ...)) for nonempty u <= v (shortlex) with |u| + |v| <= level:
    the shuffle u ⧢ v = sum m·w.  The shuffle is symmetric, so v <= u adds nothing."""
    words = word_basis(level)
    index = word_index(level)
    memo: dict = {}
    return tuple((iu, iv, tuple((index[w], m) for w, m in shuffle_words(u, v, memo)))
                 for iu, u in enumerate(words) if u
                 for iv, v in enumerate(words[iu:], iu) if len(u) + len(v) <= level)


def _dense(n: dict[Word, int], level: int) -> list[int]:
    """Numerators indexed like word_basis(level)."""
    dense = [0] * (2 ** (level + 1) - 1)
    index = word_index(level)
    for w, x in n.items():
        dense[index[w]] = x
    return dense


def _primitive(n: dict[Word, int], level: int) -> bool:
    """sum m·n_w = 0 over u ⧢ v for every pair, and no constant term."""
    if n.get(""):
        return False
    dense = _dense(n, level)
    for _, _, terms in _coproduct_table(level):
        total = 0
        for w, m in terms:   # a plain loop: about 40% faster here than sum() over a generator
            total += m * dense[w]
        if total:
            return False
    return True


def is_primitive(h: ExactSeries) -> bool:
    """The coproduct test of a Lie element, on the numerators."""
    return "" not in h.coeffs and _primitive(_numerators(h.coeffs)[0], h.level)


def is_grouplike(g: ExactSeries) -> bool:
    """sum m·g_w = g_u·g_v over u ⧢ v for every pair; with g = n/d that is
    d·sum m·n_w = n_u·n_v on the numerators."""
    if g.coeffs.get("") != 1:
        return False
    n, d = _numerators(g.coeffs)
    dense = _dense(n, g.level)
    for u, v, terms in _coproduct_table(g.level):
        total = 0
        for w, m in terms:
            total += m * dense[w]
        if d * total != dense[u] * dense[v]:
            return False
    return True


def classify_coproduct(h: ExactSeries) -> str:
    """Exact classification: 'primitive', 'grouplike', or 'neither'."""
    if is_primitive(h):
        return "primitive"
    if is_grouplike(h):
        return "grouplike"
    return "neither"


def bch(a: ExactSeries, b: ExactSeries) -> ExactSeries:
    """log(exp(a)·exp(b)); inputs and output are primitives."""
    if a.level != b.level:
        raise ValueError("level mismatch")
    r = a.level
    (na, da), (nb, db) = _numerators(a.coeffs), _numerators(b.coeffs)
    if not _primitive(na, r) or not _primitive(nb, r):
        raise ValueError("bch needs primitive inputs")
    ea, da = _reduced(*_exp(na, da, r))
    eb, db = _reduced(*_exp(nb, db, r))
    return _from_numerators(r, *_log(*_reduced(concat_mul(ea, eb, r), da * db), r))


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
    """Tensor-word expansion of the standard bracketing P_w of a Lyndon word.

    P_w = w for a letter and P_w = [P_u, P_v] for the standard factorization
    w = u·v.  P_w is w plus words lexicographically greater than w
    (Reutenauer, Free Lie Algebras, 1993, Thm 5.1), so on the Lyndon-word
    columns the brackets of one degree form a unit-triangular system.
    """
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


@lru_cache(maxsize=None)
def _lyndon_system(degree: int) -> tuple[tuple[int, ...], ...]:
    """Row i: the coefficients of P_l, l the i-th Lyndon word of the degree,
    at the Lyndon words of the degree, in order; unit triangular."""
    basis = lyndon_words(degree)
    rows = []
    for lw in basis:
        exp = dict(bracket_expansion(lw))
        rows.append(tuple(exp.get(w, 0) for w in basis))
    return tuple(rows)


def _check_r(r: int) -> None:
    if not 1 <= r <= MAX_R:
        raise ValueError(f"r must be between 1 and {MAX_R}, got {r}")


def hall_dims(r: int) -> list[int]:
    """Dimensions of the graded pieces of the free nilpotent Lie algebra on two letters."""
    _check_r(r)
    return [len(lyndon_words(d)) for d in range(1, r + 1)]


def hall_coordinates(h: ExactSeries) -> dict[Word, Fraction]:
    """Coordinates of a primitive in the Lyndon basis, by exact elimination."""
    n, d = _numerators(h.coeffs)
    if not _primitive(n, h.level):
        raise ValueError("hall_coordinates needs a primitive element")
    return _hall(n, d, h.level)


def _hall(n: dict[Word, int], d: int, level: int) -> dict[Word, Fraction]:
    """Lyndon coordinates of the primitive n/d.

    Each degree is solved on its Lyndon-word columns, a unit-triangular
    system, so the coefficients of the numerators are integers; the
    residual on every word of the degree must then vanish.
    """
    by_degree: dict[int, dict[Word, int]] = {}
    for w, x in n.items():
        if x:
            by_degree.setdefault(len(w), {})[w] = x
    coords: dict[Word, Fraction] = {}
    for deg in range(1, level + 1):
        part = by_degree.get(deg)
        if part is None:
            continue
        basis = lyndon_words(deg)
        sol = linalg.solve_in_span(_lyndon_system(deg), [part.get(w, 0) for w in basis])
        if sol is None:
            raise AssertionError("primitive not in the Lyndon span; primitivity check is broken")
        for lw, c in zip(basis, sol):
            if c != 0:
                c = c.numerator   # an integer: the system is unit triangular
                for w, m in bracket_expansion(lw):
                    part[w] = part.get(w, 0) - c * m
                coords[lw] = Fraction(c, d)
        if any(part.values()):
            raise AssertionError("primitive not in the Lyndon span; primitivity check is broken")
    return coords


# --- group words and Malcev coordinates ---------------------------------------

_TOKEN = re.compile(r"^([01])(?:\^(-?\d+))?$")
MAX_WORD_LETTERS = 24  # letters of a parsed group word; coords at level 10 then take 0.45-0.7 s in the CLI


@dataclass(frozen=True)
class GroupWord:
    """Freely reduced word in the generators gamma_0, gamma_1."""

    letters: tuple[tuple[str, int], ...] = ()  # (generator, ±1), reduced

    @classmethod
    def from_string(cls, text: str) -> "GroupWord":
        """Parse "0 1 0^-1 1^-1" style words (powers expand and reduce); at most
        MAX_WORD_LETTERS letters, counted on each exponent before it expands."""
        letters: list[tuple[str, int]] = []
        total = 0
        for tok in text.split():
            m = _TOKEN.match(tok)
            if not m:
                raise ValueError(f"bad group-word token {tok!r}")
            gen, power = m.group(1), int(m.group(2) or 1)
            total += abs(power)
            if total > MAX_WORD_LETTERS:
                raise ValueError(f"group words may have at most {MAX_WORD_LETTERS} letters")
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


def _group_log(word: GroupWord | str, level: int) -> tuple[dict[Word, int], int]:
    """group_log as (numerators, denominator).

    exp(±e_i) is r+1 integer terms (±1)^k r!/k! over r!; the product is
    taken a letter at a time, with the common factor divided out after each.
    """
    _check_level(level)
    if isinstance(word, str):
        word = GroupWord.from_string(word)
    fact = math.factorial(level)
    factors = {(gen, s): {gen * k: s ** k * (fact // math.factorial(k)) for k in range(level + 1)}
               for gen, s in set(word.letters)}
    acc, d = {"": 1}, 1
    for letter in word.letters:
        acc, d = _reduced(concat_mul(acc, factors[letter], level), d * fact)
    return _log(acc, d, level)


def group_log(word: GroupWord | str, level: int) -> ExactSeries:
    """log of the image of the word under gamma_i -> exp(e_i), truncated."""
    return _from_numerators(level, *_group_log(word, level))


def malcev_coordinates(word: GroupWord | str, level: int) -> dict[Word, Fraction]:
    """Lyndon-basis coordinates of the group word in the level-r quotient."""
    n, d = _group_log(word, level)
    if not _primitive(n, level):
        raise ValueError("hall_coordinates needs a primitive element")
    return _hall(n, d, level)
