"""Exact linear algebra: the integer rref kernel against Fraction references."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alblab import linalg


def reference_rref(rows):
    """Gauss-Jordan over Fractions, zero rows dropped."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


entries = st.one_of(
    st.just(0),
    st.integers(-5, 5),
    st.fractions(min_value=-10, max_value=10, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 15, 10 ** 15), st.integers(1, 10 ** 15)),
)


@st.composite
def matrices(draw):
    """Rational matrices with zero rows, zero columns and repeated rows mixed in."""
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    rows = [draw(st.lists(entries, min_size=n_cols, max_size=n_cols)) for _ in range(n_rows)]
    if n_cols:
        for c in draw(st.lists(st.integers(0, n_cols - 1), max_size=2)):
            for row in rows:
                row[c] = 0
    if rows and draw(st.booleans()):
        k = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
        rows.append([k * Fraction(x) for x in rows[0]])
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * n_cols)
    return rows


class TestRref:
    @given(matrices())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_gauss_jordan(self, rows):
        red, pivots = linalg.rref(rows)
        assert (red, pivots) == reference_rref(rows)
        assert all(type(x) is Fraction for row in red for x in row)

    def test_empty(self):
        assert linalg.rref([]) == ([], [])
        assert linalg.rref([[]]) == ([], [])
        assert linalg.rref([[0, 0], [0, 0]]) == ([], [])

    def test_large_denominators(self):
        big = Fraction(1, 10 ** 30 + 7)
        red, pivots = linalg.rref([[big, 2 * big], [Fraction(3), Fraction(6, 10 ** 20)]])
        assert pivots == [0, 1]
        assert red == [[1, 0], [0, 1]]

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            linalg.rref([[1.5, 0]])

    @given(matrices())
    @settings(max_examples=50, deadline=None)
    def test_nullspace_is_the_kernel(self, rows):
        if not rows:
            return
        kernel = linalg.nullspace(rows)
        assert len(kernel) == len(rows[0]) - linalg.rank(rows)
        for v in kernel:
            assert linalg.matvec(rows, v) == [0] * len(rows)


class TestProducts:
    @given(matrices(), st.lists(entries, min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_matvec(self, rows, vec):
        vec = vec[: len(rows[0])] if rows else vec
        expected = [sum((Fraction(a) * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
                    for row in rows]
        out = linalg.matvec(rows, vec)
        assert out == expected
        assert all(type(x) is Fraction for x in out)

    @given(matrices(), matrices())
    @settings(max_examples=50, deadline=None)
    def test_matmul(self, a, b):
        expected = [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
                     for col in zip(*b)] for row in a]
        assert linalg.matmul(a, b) == expected
