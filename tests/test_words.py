"""Word algebra: the shortlex basis, exact shuffles and their size caps,
the deconcatenation behind the series product, and JSON."""

import gc
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alblab.series import _split_table
from alblab.words import (MAX_RIFFLES, MAX_SHUFFLE_LETTERS, ShuffleElement, shuffle_product,
                          shuffle_words, word_basis, word_index)

word_strategy = st.text(alphabet="01", max_size=5)


def shuffle_oracle(u: str, v: str) -> dict:
    """Brute force: place u on every position subset, v on the complement."""
    out: dict[str, int] = {}
    m, n = len(u), len(v)
    for pos in combinations(range(m + n), m):
        slots = [None] * (m + n)
        for ch, p in zip(u, pos):
            slots[p] = ch
        it = iter(v)
        w = "".join(ch if ch is not None else next(it) for ch in slots)
        out[w] = out.get(w, 0) + 1
    return out


class TestWordBasis:
    def test_r0(self):
        assert word_basis(0) == [""]

    def test_r2_enumeration(self):
        assert word_basis(2) == ["", "0", "1", "00", "01", "10", "11"]

    def test_r4_count(self):
        assert len(word_basis(4)) == 31

    @pytest.mark.parametrize("r", range(11))
    def test_count_formula(self, r):
        assert len(word_basis(r)) == 2 ** (r + 1) - 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            word_basis(-1)


class TestShuffle:
    def test_two_letters(self):
        out = shuffle_product(ShuffleElement.from_word("0"), ShuffleElement.from_word("1"))
        assert out.coeffs == {"01": Fraction(1), "10": Fraction(1)}

    def test_empty_is_identity(self):
        w = ShuffleElement.from_word("101")
        assert shuffle_product(ShuffleElement.from_word(""), w) == w

    def test_01_with_0(self):
        out = shuffle_product(ShuffleElement.from_word("01"), ShuffleElement.from_word("0"))
        assert out.coeffs == {"001": Fraction(2), "010": Fraction(1)}

    @given(word_strategy, word_strategy)
    @settings(max_examples=60, deadline=None)
    def test_matches_position_oracle(self, u, v):
        assert dict(shuffle_words(u, v)) == shuffle_oracle(u, v)

    def test_commutative_exhaustive(self):
        basis = [w for w in word_basis(3) if len(w) <= 3]
        for u in basis:
            for v in basis:
                if len(u) + len(v) > 5:
                    continue
                assert dict(shuffle_words(u, v)) == dict(shuffle_words(v, u))

    def test_associative_exhaustive(self):
        small = [w for w in word_basis(2) if len(w) <= 2]
        for u in small:
            for v in small:
                for w in small:
                    if len(u) + len(v) + len(w) > 5:
                        continue
                    a = ShuffleElement.from_word(u)
                    b = ShuffleElement.from_word(v)
                    c = ShuffleElement.from_word(w)
                    left = shuffle_product(shuffle_product(a, b), c)
                    right = shuffle_product(a, shuffle_product(b, c))
                    assert left == right

    def test_degree_adds(self):
        a = ShuffleElement.from_word("01")
        b = ShuffleElement.from_word("110")
        assert shuffle_product(a, b).degree == 5

    def test_no_zero_coefficients_stored(self):
        e = ShuffleElement({"0": Fraction(0)})
        assert e.coeffs == {}


def _riffles(a: ShuffleElement, b: ShuffleElement) -> int:
    return sum(math.comb(len(u) + len(v), len(u)) for u in a.coeffs for v in b.coeffs)


class TestShuffleCaps:
    # words of zeros shuffle into one word each, so the riffle count is
    # large while the enumeration stays cheap
    def test_at_the_riffle_cap(self):
        a = ShuffleElement({"0" * n: 1 for n in (0, 1, 2, 6, 7, 12, 14)})
        b = ShuffleElement.from_word("0" * 6)
        assert _riffles(a, b) == MAX_RIFFLES
        out = shuffle_product(a, b)
        assert out.coeffs == {"0" * (n + 6): math.comb(n + 6, 6) for n in (0, 1, 2, 6, 7, 12, 14)}

    def test_one_past_the_riffle_cap(self):
        a = ShuffleElement({w: 1 for w in ("", "0", "00", "000", "0000", "00000", "1", "10000")})
        b = ShuffleElement.from_word("0" * 17)
        assert _riffles(a, b) == MAX_RIFFLES + 1
        with pytest.raises(ValueError, match="riffle shuffles"):
            shuffle_product(a, b)
        with pytest.raises(ValueError, match="riffle shuffles"):
            shuffle_product(b, a)

    def test_many_terms_count_pairs(self):
        # 2**10 words of length 10 against two words: each pair is small,
        # the product of the term counts is not
        a = ShuffleElement({w: 1 for w in word_basis(10) if len(w) == 10})
        b = ShuffleElement({"0000": 1, "1111": 1})
        assert _riffles(a, b) > MAX_RIFFLES
        with pytest.raises(ValueError, match="riffle shuffles"):
            shuffle_product(a, b)

    def test_near_cap_products_leave_no_memory_behind(self):
        # 9 + 9 letters both ways, 7 + 12 both ways and 6 + 15: 48620 to 54264
        # riffles each.  A memo that outlived the call kept about 12 MB here.
        pairs = [("110111111", "001001010"), ("001001010", "110111111"),
                 ("0110111", "011100010110"), ("011100010110", "0110111"),
                 ("100000", "100110110101101")]
        assert all(MAX_RIFFLES * 4 // 5 < math.comb(len(u) + len(v), len(u)) <= MAX_RIFFLES
                   for u, v in pairs)
        tracemalloc.start()
        try:
            for u, v in pairs:
                shuffle_product(ShuffleElement.from_word(u), ShuffleElement.from_word(v))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 5e6

    def test_word_length_cap(self):
        long = "01" * (MAX_SHUFFLE_LETTERS // 2)
        out = shuffle_product(ShuffleElement.from_word(long), ShuffleElement.from_word("1"))
        assert sum(out.coeffs.values()) == MAX_SHUFFLE_LETTERS + 1
        with pytest.raises(ValueError, match="at most"):
            shuffle_product(ShuffleElement.from_word(long + "0"), ShuffleElement.from_word(""))


def splittings(w: str, level: int) -> list:
    """The splittings (u, v) of w listed in w's row of the series product's
    split table, without the padding."""
    left, right = _split_table(level)
    words = word_basis(level)
    row = word_index(level)[w]
    return [(words[i], words[j]) for i, j in zip(left[row], right[row]) if i < len(words)]


class TestDeconcat:
    def test_empty(self):
        assert splittings("", 3) == [("", "")]

    def test_single(self):
        assert splittings("0", 3) == [("", "0"), ("0", "")]

    def test_two_letters(self):
        assert splittings("10", 3) == [("", "10"), ("1", "0"), ("10", "")]

    def test_coassociative(self):
        for w in word_basis(5):
            left = [(a, b, c) for a, bc in splittings(w, 5) for b, c in splittings(bc, 5)]
            right = [(a, b, c) for ab, c in splittings(w, 5) for a, b in splittings(ab, 5)]
            assert sorted(left) == sorted(right)


class TestSerialization:
    def test_round_trip(self):
        e = ShuffleElement({"10": Fraction(3, 4), "": Fraction(-2)})
        assert ShuffleElement.from_json(e.to_json()) == e

    def test_json_form(self):
        e = ShuffleElement({"10": Fraction(3, 4)})
        assert e.to_json() == {"10": "3/4"}
