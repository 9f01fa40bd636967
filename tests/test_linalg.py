"""Exact linear algebra: the integer rref kernel against Fraction references."""

import math
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


def reference_apply(rows, vec):
    return [sum((Fraction(a) * Fraction(x) for a, x in zip(row, vec)), Fraction(0))
            for row in rows]


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
        n = len(rows[0])
        kernel = linalg.nullspace(rows, n)
        assert kernel.dim == n - linalg.rank(rows)
        for v in kernel.rows:
            assert reference_apply(rows, v) == [0] * len(rows)
        assert kernel == linalg.Subspace.span(kernel.rows, n)   # already canonical


class TestProducts:
    @given(matrices(), st.lists(entries, min_size=7, max_size=7))
    @settings(max_examples=50, deadline=None)
    def test_apply(self, rows, vec):
        vec = vec[: len(rows[0])] if rows else vec
        assert linalg.apply(rows, vec) == reference_apply(rows, vec)
        ints = linalg.integer_matrix(rows)
        out = linalg.apply(ints, [1] * len(vec))
        assert all(type(x) is int for x in out)

    @given(matrices(), matrices())
    @settings(max_examples=50, deadline=None)
    def test_product(self, a, b):
        expected = [[sum((Fraction(x) * Fraction(y) for x, y in zip(row, col)), Fraction(0))
                     for col in zip(*b)] for row in a]
        assert linalg.product(a, b) == expected
        # the integer form is one positive multiple of the whole matrix
        ia = linalg.integer_matrix(a)
        assert all(type(x) is int for row in ia for x in row)
        nonzero = [(x, Fraction(y)) for rx, ry in zip(ia, a) for x, y in zip(rx, ry) if y]
        scales = {x / y for x, y in nonzero}
        assert len(scales) <= 1 and all(k > 0 for k in scales)
        k = next(iter(scales), 1)
        assert linalg.product(ia, b) == [[k * x for x in row] for row in expected]


def reference_rank(rows) -> int:
    return len(reference_rref(rows)[0])


def split(rows, data):
    """Two subspaces of the same Q^n from the rows of one matrix."""
    n = len(rows[0]) if rows else 0
    k = data.draw(st.integers(0, len(rows)))
    return n, rows[:k], rows[k:]


def vector_of(data, rows, n):
    """A vector of Q^n: arbitrary, or a random combination of the rows."""
    if rows and data.draw(st.booleans()):
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        return [sum((c * Fraction(row[i]) for c, row in zip(coeffs, rows)), Fraction(0))
                for i in range(n)]
    return data.draw(st.lists(entries, min_size=n, max_size=n))


class TestSubspace:
    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_canonical_form_and_equality(self, rows, data):
        n = len(rows[0]) if rows else 0
        sub = linalg.Subspace.span(rows, n)
        red, pivots = reference_rref(rows)
        assert sub.fractions() == red and list(sub.pivots) == pivots
        for row, p in zip(sub.rows, sub.pivots):
            assert all(type(x) is int for x in row)
            assert row[p] > 0 and math.gcd(*row) == 1
            assert all(row[q] == 0 for q in sub.pivots if q != p)
        # another spanning set of the same space gives the same value
        scales = data.draw(st.lists(st.integers(1, 5), min_size=len(rows), max_size=len(rows)))
        other = [[-k * Fraction(x) for x in row] for k, row in zip(scales, rows)][::-1]
        again = linalg.Subspace.span(other + rows[:1], n)
        assert again == sub and hash(again) == hash(sub)
        assert {sub: 1}[again] == 1

    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_membership_and_leq(self, rows, data):
        n, a_rows, b_rows = split(rows, data)
        a, b = linalg.Subspace.span(a_rows, n), linalg.Subspace.span(b_rows, n)
        v = vector_of(data, a_rows, n)
        assert (v in a) == (reference_rank(a_rows + [v]) == reference_rank(a_rows))
        assert (a <= b) == (reference_rank(b_rows + a_rows) == reference_rank(b_rows))
        assert a <= linalg.join(a, b) and linalg.intersect(a, b) <= a

    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_meet_and_join(self, rows, data):
        n, a_rows, b_rows = split(rows, data)
        a, b = linalg.Subspace.span(a_rows, n), linalg.Subspace.span(b_rows, n)
        meet, plus = linalg.intersect(a, b), linalg.join(a, b)
        assert meet.dim + plus.dim == a.dim + b.dim
        assert plus.dim == reference_rank(a_rows + b_rows)
        assert all(v in a and v in b for v in meet.rows)
        assert all(v in plus for v in a.rows + b.rows)
        assert meet == linalg.Subspace.span(meet.rows, n) == linalg.intersect(b, a)
        assert plus == linalg.Subspace.span(a_rows + b_rows, n) == linalg.join(b, a)

    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_image_and_preimage(self, mat, data):
        if not mat or not mat[0]:
            return
        m, n = len(mat), len(mat[0])
        target_rows = data.draw(st.lists(st.lists(entries, min_size=m, max_size=m), max_size=m))
        target = linalg.Subspace.span(target_rows, m)
        pre = linalg.preimage(mat, target)
        assert pre == linalg.Subspace.span(pre.rows, n)
        assert all(reference_apply(mat, v) in target for v in pre.rows)
        # dim N^-1(S) = dim ker N + dim (S ∩ im N)
        image = linalg.image(mat)
        assert image.dim == linalg.rank(mat)
        assert pre.dim == n - linalg.rank(mat) + linalg.intersect(target, image).dim
        v = vector_of(data, [], n)
        assert (v in pre) == (reference_apply(mat, v) in target)
        sub = linalg.Subspace.span(data.draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), max_size=3)), n)
        assert linalg.image(mat, sub) == linalg.Subspace.span(
            [reference_apply(mat, v) for v in sub.rows], m)

    @given(matrices(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_solve_in_span_reproduces_the_target(self, rows, data):
        n = len(rows[0]) if rows else 0
        target = vector_of(data, rows, n)
        coeffs = linalg.solve_in_span(rows, target)
        if target in linalg.Subspace.span(rows, n):
            assert coeffs is not None and all(type(c) is Fraction for c in coeffs)
            assert [sum((c * Fraction(row[i]) for c, row in zip(coeffs, rows)), Fraction(0))
                    for i in range(n)] == [Fraction(x) for x in target]
        else:
            assert coeffs is None

    @given(matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_graded_piece(self, rows, data):
        n, lo_rows, _ = split(rows, data)
        lo, hi = linalg.Subspace.span(lo_rows, n), linalg.Subspace.span(rows, n)
        basis, coords = linalg.graded_piece(lo, hi)
        assert len(basis) == hi.dim - lo.dim
        assert linalg.Subspace.span(lo.rows + tuple(basis), n) == hi
        x = vector_of(data, rows, n)
        if x in hi:
            c = coords(x)
            assert (x in lo) == (not any(c))
            # one common factor: x - combination(c) / factor lies in lo
            factor = {coords(b)[t] for t, b in enumerate(basis)}
            assert len(factor) <= 1
            k = next(iter(factor), 1)
            rest = [k * Fraction(xi) - yi for xi, yi in zip(x, linalg.combination(c, basis) or [0] * n)]
            assert rest in lo
