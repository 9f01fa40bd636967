"""Exact truncated group-ring algebra: exp/log, coproduct classes, BCH, Hall bases."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alblab import cli, linalg, malcev
from alblab.cli import run_command
from alblab.malcev import (MAX_EXACT_LEVEL, ExactSeries, GroupWord, _coproduct_table, bch,
                           bracket_expansion, classify_coproduct, exp_trunc, group_log,
                           hall_coordinates, hall_dims, is_grouplike, is_primitive,
                           log_trunc, lyndon_words, malcev_coordinates)
from alblab.words import MAX_R, word_basis

def random_series(rng, level, max_len=None):
    from alblab.words import word_basis
    max_len = max_len or level
    coeffs = {}
    for w in word_basis(level):
        if 0 < len(w) <= max_len and rng.random() < 0.6:
            coeffs[w] = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))
    return ExactSeries(level, coeffs)


def primitive_space_dimension(level: int) -> int:
    """dim of the primitive subspace at the level, by exact linear algebra."""
    dim = 2 ** (level + 1) - 2   # nonempty words; word index i sits in column i - 1
    constraints = []
    for _, _, terms in _coproduct_table(level):
        row = [0] * dim
        for w, m in terms:
            row[w - 1] = m
        constraints.append(row)
    return dim - linalg.rank(constraints)


class TestExpLog:
    def test_exp_zero(self):
        z = ExactSeries(3, {})
        assert exp_trunc(z).coeffs == {"": Fraction(1)}

    def test_exp_letter_level2(self):
        e0 = ExactSeries.letter("0", 2)
        out = exp_trunc(e0)
        assert out.coeffs == {"": Fraction(1), "0": Fraction(1), "00": Fraction(1, 2)}

    def test_log_unit(self):
        assert log_trunc(ExactSeries.unit(3)).coeffs == {}

    def test_log_of_one_plus_letter(self):
        g = ExactSeries(2, {"": Fraction(1), "0": Fraction(1)})
        assert log_trunc(g).coeffs == {"0": Fraction(1), "00": Fraction(-1, 2)}

    def test_round_trip_random(self, rng):
        for _ in range(20):
            level = int(rng.integers(1, 5))
            h = random_series(rng, level)
            assert log_trunc(exp_trunc(h)).coeffs == h.coeffs

    def test_exp_rejects_constant_term(self):
        with pytest.raises(ValueError):
            exp_trunc(ExactSeries.unit(2))

    def test_log_rejects_wrong_constant(self):
        with pytest.raises(ValueError):
            log_trunc(ExactSeries(2, {"0": Fraction(1)}))


class TestClassification:
    def test_letter_is_primitive(self):
        assert classify_coproduct(ExactSeries.letter("0", 3)) == "primitive"

    def test_bracket_is_primitive(self):
        e0 = ExactSeries.letter("0", 2)
        e1 = ExactSeries.letter("1", 2)
        assert classify_coproduct(e0.bracket(e1)) == "primitive"

    def test_exp_of_primitive_is_grouplike(self):
        e = ExactSeries.letter("0", 3).add(ExactSeries.letter("1", 3))
        assert classify_coproduct(exp_trunc(e)) == "grouplike"

    def test_neither(self):
        h = ExactSeries(2, {"": Fraction(1), "01": Fraction(1)})
        assert classify_coproduct(h) == "neither"

    def test_grouplike_exp_random(self, rng):
        for _ in range(30):
            level = int(rng.integers(1, 5))
            coeffs = {}
            for w, c in hall_coords_sample(rng, level).items():
                coeffs[w] = c
            h = lie_element(coeffs, level)
            assert is_primitive(h)
            assert is_grouplike(exp_trunc(h))
            assert is_primitive(log_trunc(exp_trunc(h)))


def hall_coords_sample(rng, level):
    out = {}
    for d in range(1, level + 1):
        for w in lyndon_words(d):
            if rng.random() < 0.5:
                out[w] = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
    return out


def lie_element(coords, level):
    coeffs: dict = {}
    for w, c in coords.items():
        for tw, m in bracket_expansion(w):
            coeffs[tw] = coeffs.get(tw, Fraction(0)) + c * m
    return ExactSeries(level, coeffs)


class TestBCH:
    def test_identity_element(self):
        a = ExactSeries.letter("0", 3)
        zero = ExactSeries(3, {})
        assert bch(a, zero).coeffs == a.coeffs

    def test_class_two(self):
        e0 = ExactSeries.letter("0", 2)
        e1 = ExactSeries.letter("1", 2)
        expected = e0.add(e1).add(e0.bracket(e1).scale(Fraction(1, 2)))
        assert bch(e0, e1).coeffs == expected.coeffs

    def test_class_three_coefficient(self):
        e0 = ExactSeries.letter("0", 3)
        e1 = ExactSeries.letter("1", 3)
        coords = hall_coordinates(bch(e0, e1))
        assert coords["001"] == Fraction(1, 12)

    def test_result_primitive(self, rng):
        for _ in range(10):
            level = int(rng.integers(2, 5))
            a = lie_element(hall_coords_sample(rng, level), level)
            b = lie_element(hall_coords_sample(rng, level), level)
            assert is_primitive(bch(a, b))

    def test_associative(self, rng):
        for level in (2, 3, 4):
            a = lie_element(hall_coords_sample(rng, level), level)
            b = lie_element(hall_coords_sample(rng, level), level)
            c = lie_element(hall_coords_sample(rng, level), level)
            assert bch(bch(a, b), c).coeffs == bch(a, bch(b, c)).coeffs

    def test_rejects_non_primitive(self):
        bad = ExactSeries(2, {"01": Fraction(1)})
        with pytest.raises(ValueError):
            bch(bad, ExactSeries.letter("0", 2))


class TestHall:
    def test_dims_r1(self):
        assert hall_dims(1) == [2]

    def test_dims_r2(self):
        assert hall_dims(2) == [2, 1]
        assert sum(hall_dims(2)) == 3

    def test_dims_r4(self):
        assert hall_dims(4) == [2, 1, 2, 3]

    def test_necklace_counting(self):
        # number of Lyndon words of length n over two letters
        def necklace(n):
            total = 0
            for d in range(1, n + 1):
                if n % d == 0:
                    total += _mobius(n // d) * 2 ** d
            return total // n
        for n in range(1, 7):
            assert hall_dims(n)[-1] == necklace(n)

    def test_primitive_dimension_matches(self):
        # Witt's formula: the primitives up to level r are the free Lie algebra
        for r in (1, 2, 3, 4, 5, 6):
            assert primitive_space_dimension(r) == sum(hall_dims(r))

    def test_standard_bracketing_is_unitriangular(self):
        # P_l = l + words lexicographically greater than l: the Hall solve relies on it
        for d in range(1, MAX_EXACT_LEVEL + 1):
            for lw in lyndon_words(d):
                expansion = dict(bracket_expansion(lw))
                assert expansion.pop(lw) == 1
                assert all(len(w) == d and w > lw for w in expansion)

    def test_representatives_expand_independently(self):
        from alblab.words import word_basis
        for d in range(1, 5):
            words_d = [w for w in word_basis(d) if len(w) == d]
            rows = []
            for w in lyndon_words(d):
                exp = dict(bracket_expansion(w))
                rows.append([Fraction(exp.get(t, 0)) for t in words_d])
            assert linalg.rank(rows) == len(rows)


def _mobius(n):
    if n == 1:
        return 1
    result = 1
    p = 2
    m = n
    seen = set()
    while p * p <= m:
        if m % p == 0:
            if p in seen:
                return 0
            seen.add(p)
            m //= p
            if m % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if m > 1:
        result = -result
    return result


class TestGroupWords:
    def test_parse_and_reduce(self):
        w = GroupWord.from_string("0 0^-1 1")
        assert w.letters == (("1", 1),)

    def test_power_expansion(self):
        w = GroupWord.from_string("0^2 1^-2")
        assert w.letters == (("0", 1), ("0", 1), ("1", -1), ("1", -1))

    def test_inverse(self):
        w = GroupWord.from_string("0 1")
        assert (w * w.inverse()).letters == ()

    def test_bad_token(self):
        with pytest.raises(ValueError):
            GroupWord.from_string("2")


class TestMalcevCoordinates:
    def test_generator(self):
        assert malcev_coordinates("0", 2) == {"0": Fraction(1)}

    def test_commutator(self):
        assert malcev_coordinates("0 1 0^-1 1^-1", 2) == {"01": Fraction(1)}

    def test_product_of_generators(self):
        coords = malcev_coordinates("0 1", 2)
        assert coords == {"0": Fraction(1), "1": Fraction(1), "01": Fraction(1, 2)}

    def test_homomorphism(self, rng):
        words = ["0", "1", "0 1", "1^-1 0", "0 1 0^-1", "1 1 0^-1"]
        for _ in range(10):
            w1 = words[int(rng.integers(0, len(words)))]
            w2 = words[int(rng.integers(0, len(words)))]
            level = int(rng.integers(2, 5))
            g1 = GroupWord.from_string(w1)
            g2 = GroupWord.from_string(w2)
            lhs = group_log(g1 * g2, level)
            rhs = bch(group_log(g1, level), group_log(g2, level))
            assert lhs.coeffs == rhs.coeffs

    def test_triple_commutator_collapses_at_level2(self):
        # elements of the third lower-central term vanish at level 2
        def invert(word):
            return " ".join(t[:-3] if t.endswith("^-1") else t + "^-1"
                            for t in reversed(word.split()))

        inner = "0 1 0^-1 1^-1"
        for outer in ("0", "1", "0 1"):
            word = f"{outer} {inner} {invert(outer)} {invert(inner)}"
            assert malcev_coordinates(word, 2) == {}
            assert malcev_coordinates(word, 3) != {}

    def test_hall_coordinates_reject_non_primitive(self):
        with pytest.raises(ValueError):
            hall_coordinates(ExactSeries(2, {"01": Fraction(1), "10": Fraction(1)}))


class TestSerialization:
    def test_round_trip(self):
        s = ExactSeries(3, {"01": Fraction(2, 3), "": Fraction(1)})
        # the CLI's reader is the one that builds series from JSON
        assert cli._series_arg(malcev, json.dumps(s.to_json()), None) == s


# --- the integer kernels against plain Fraction arithmetic --------------------------

coefficients = st.one_of(st.fractions(min_value=-5, max_value=5, max_denominator=9),
                         st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                                   st.integers(1, 10 ** 12)))


@st.composite
def lie_elements(draw, min_level=1):
    """A random rational combination of Lyndon brackets, as an ExactSeries."""
    level = draw(st.integers(min_level, 6))
    coeffs: dict = {}
    for d in range(1, level + 1):
        for w in lyndon_words(d):
            if draw(st.booleans()):
                c = draw(coefficients)
                for tw, m in bracket_expansion(w):
                    coeffs[tw] = coeffs.get(tw, Fraction(0)) + c * m
    return ExactSeries(level, coeffs)


@st.composite
def exact_series(draw):
    level = draw(st.integers(1, 6))
    words = draw(st.lists(st.sampled_from(word_basis(level)), max_size=30))
    return ExactSeries(level, {w: draw(coefficients) for w in words})


def reference_concat(a: ExactSeries, b: ExactSeries) -> dict:
    out: dict = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            if len(u) + len(v) <= a.level:
                out[u + v] = out.get(u + v, Fraction(0)) + cu * cv
    return {w: c for w, c in out.items() if c != 0}


class TestIntegerKernels:
    @given(lie_elements())
    @settings(max_examples=60, deadline=None)
    def test_exp_log_round_trip(self, h):
        assert is_primitive(h)
        g = exp_trunc(h)
        assert is_grouplike(g)
        assert log_trunc(g).coeffs == h.coeffs
        assert all(type(c) is Fraction for c in g.coeffs.values())

    @given(lie_elements(min_level=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_coefficient_perturbation_is_caught(self, h, data):
        # a word of length >= 2 sits in the shuffle of its first letter with
        # the rest, so changing its coefficient alone breaks that constraint
        w = data.draw(st.sampled_from([w for w in word_basis(h.level) if len(w) != 1]))
        delta = data.draw(coefficients.filter(bool))
        g = exp_trunc(h)
        bumped = dict(g.coeffs)
        bumped[w] = bumped.get(w, Fraction(0)) + delta
        assert not is_grouplike(ExactSeries(h.level, bumped))
        if w:
            lie = dict(h.coeffs)
            lie[w] = lie.get(w, Fraction(0)) + delta
            assert not is_primitive(ExactSeries(h.level, lie))

    @given(exact_series(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_mul_matches_fraction_concatenation(self, a, data):
        b = data.draw(exact_series().map(lambda s: ExactSeries(a.level, s.coeffs)))
        out = a.mul(b)
        assert out.coeffs == reference_concat(a, b)
        assert all(type(c) is Fraction for c in out.coeffs.values())

    def test_exp_log_by_fraction_series(self):
        # exp and log as plain Fraction power sums, at level 4
        h = ExactSeries(4, {"0": Fraction(2, 3), "1": Fraction(-5, 7),
                            "01": Fraction(1, 11), "10": Fraction(-1, 11)})
        power = ExactSeries.unit(4)
        exp_ref = ExactSeries.unit(4)
        fact = 1
        for k in range(1, 5):
            power = ExactSeries(4, reference_concat(power, h))
            fact *= k
            exp_ref = exp_ref.add(power.scale(Fraction(1, fact)))
        assert exp_trunc(h).coeffs == exp_ref.coeffs
        j = ExactSeries(4, {w: c for w, c in exp_ref.coeffs.items() if w})
        power = ExactSeries.unit(4)
        log_ref = ExactSeries(4, {})
        for k in range(1, 5):
            power = ExactSeries(4, reference_concat(power, j))
            log_ref = log_ref.add(power.scale(Fraction((-1) ** (k + 1), k)))
        assert log_trunc(exp_ref).coeffs == log_ref.coeffs == h.coeffs


# --- the numerator routes against the Fraction routes they replaced ----------------

def fraction_solve(vectors, target):
    """c with sum c_i vectors_i = target, by Gauss-Jordan over Fractions; None if none."""
    rows = [[Fraction(v[j]) for v in vectors] + [Fraction(target[j])] for j in range(len(target))]
    pivots: list = []
    for c in range(len(vectors)):
        p = next((i for i in range(len(pivots), len(rows)) if rows[i][c] != 0), None)
        if p is None:
            continue
        r = len(pivots)
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    if any(row[-1] != 0 for row in rows[len(pivots):]):
        return None
    out = [Fraction(0)] * len(vectors)
    for i, c in enumerate(pivots):
        out[c] = rows[i][-1]
    return out


def reference_hall(h: ExactSeries) -> dict:
    """Lyndon coordinates by elimination over all words of each degree."""
    coords = {}
    for d in range(1, h.level + 1):
        words_d = [w for w in word_basis(h.level) if len(w) == d]
        basis = lyndon_words(d)
        vectors = [[dict(bracket_expansion(lw)).get(w, 0) for w in words_d] for lw in basis]
        sol = fraction_solve(vectors, [h.coefficient(w) for w in words_d])
        assert sol is not None
        coords.update((lw, c) for lw, c in zip(basis, sol) if c != 0)
    return coords


def reference_group_log(word: str, level: int) -> ExactSeries:
    """log of the ExactSeries product of exp_trunc(±e_i), a letter at a time."""
    acc = ExactSeries.unit(level)
    for gen, s in GroupWord.from_string(word).letters:
        acc = acc.mul(exp_trunc(ExactSeries.letter(gen, level).scale(s)))
    return log_trunc(acc)


def random_group_word(rng, letters: int) -> str:
    """A freely reduced word of the given number of letters."""
    out: list = []
    while len(out) < letters:
        tok = rng.choice("01") + rng.choice(("", "^-1"))
        inverse = tok[0] if tok.endswith("^-1") else tok + "^-1"
        if not out or out[-1] != inverse:
            out.append(tok)
    return " ".join(out)


class TestNumeratorRoutes:
    def test_group_log_matches_the_series_product(self):
        rng = random.Random(15)
        for level in range(2, 9):
            for letters in (1, 3, 6, 10):
                word = random_group_word(rng, letters)
                assert group_log(word, level).coeffs == reference_group_log(word, level).coeffs

    def test_group_log_keeps_the_product_in_lowest_terms(self):
        # every coefficient of a product of exp(±e_i) has a denominator dividing r!,
        # so with the common factor divided out after each letter the accumulator's
        # denominator d divides r! and the log's, d^r lcm(1..r), divides this bound
        rng = random.Random(16)
        for level in (2, 4, 6, 8):
            bound = math.factorial(level) ** level * math.lcm(*range(1, level + 1))
            for letters in (2, 5, 12):
                _, d = malcev._group_log(random_group_word(rng, letters), level)
                assert bound % d == 0

    @given(lie_elements(), lie_elements())
    @settings(max_examples=40, deadline=None)
    def test_bch_matches_the_series_product(self, a, b):
        b = ExactSeries(a.level, b.coeffs)
        assert bch(a, b).coeffs == log_trunc(exp_trunc(a).mul(exp_trunc(b))).coeffs

    @given(lie_elements())
    @settings(max_examples=60, deadline=None)
    def test_hall_coordinates_match_full_elimination(self, h):
        coords = hall_coordinates(h)
        assert coords == reference_hall(h)
        assert all(type(c) is Fraction for c in coords.values())
        # sum c_l P_l reproduces the input
        assert lie_element(coords, h.level).coeffs == h.coeffs

    def test_malcev_coordinates_match_the_reference_routes(self):
        rng = random.Random(17)
        for level in (3, 5, 7):
            word = random_group_word(rng, 8)
            assert malcev_coordinates(word, level) == reference_hall(reference_group_log(word, level))

    def test_hall_solve_checks_the_residual(self, monkeypatch):
        # past the primitivity test, a non-Lie element must still be caught:
        # 01 alone solves the Lyndon column, but P_01 = 01 - 10 leaves 10 over
        monkeypatch.setattr(malcev, "_primitive", lambda n, level: True)
        with pytest.raises(AssertionError, match="Lyndon span"):
            hall_coordinates(ExactSeries(2, {"01": Fraction(1)}))


MALCEV_FROZEN = json.loads((Path(__file__).parent / "malcev_frozen.json").read_text())


class TestFrozenRegression:
    """``malcev`` CLI answers pinned from the Fraction-series implementation.

    Each case is an argv, its exit code and its stdout, captured through
    ``alblab.cli`` before the Malcev layer moved to integer numerators end
    to end: the ``malcev coords/bch/exp/log/classify`` calls of the exact
    benchmark's rounds for seeds 0-4 (``bench/inputs.py``, through its
    ``cli_argv``), ``malcev coords`` of freely reduced random words of 12,
    16, 20 and 24 letters at levels 8 and 10 (``random.Random(1515)``), and
    seventeen edge and error cases (levels 0 and 11, a 25-letter word, a bad
    token, the empty and the trivial word, non-primitive and mismatched
    ``bch`` inputs, wrong constant terms, the zero series at level 10, and a
    level-10 ``bch``).
    """

    @pytest.mark.parametrize("case", MALCEV_FROZEN["cases"],
                             ids=lambda c: " ".join(c["argv"][:2]))
    def test_cli_output_is_unchanged(self, capsys, case):
        code = run_command(case["argv"])
        assert (code, capsys.readouterr().out.strip()) == (case["exit"], case["output"])


class TestSizeCaps:
    def test_exact_level(self):
        ExactSeries(MAX_EXACT_LEVEL, {"0": 1})
        with pytest.raises(ValueError, match="exact level"):
            ExactSeries(MAX_EXACT_LEVEL + 1, {})
        with pytest.raises(ValueError, match="exact level"):
            malcev_coordinates("0", MAX_EXACT_LEVEL + 1)

    def test_hall_r(self):
        with pytest.raises(ValueError, match="between 1 and"):
            hall_dims(MAX_R + 1)
