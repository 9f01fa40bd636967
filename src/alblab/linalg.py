"""Small exact linear algebra kit over the rationals.

Vectors are lists/tuples of int or Fraction.  An exact subspace is a
``Subspace``: the ambient dimension, the pivot columns and the rows of its
reduced row echelon form, each row scaled to primitive Python ints (gcd 1,
positive pivot, zero in every other pivot column).  That form is unique,
so equal subspaces are equal, hashable values, and a subspace can key a
dict.  Membership and ``<=`` reduce a vector against the stored rows with
no new elimination; ``join``, ``intersect``, ``image``, ``preimage`` and
``nullspace`` each run one integer elimination.  Only directions matter to
a span, so every vector is scaled to integers on entry and no Fraction is
made inside; a matrix used as a map is scaled as a whole by
``integer_matrix``, which changes no span, kernel or image.

Canonical Fractions appear at the edges only: ``rref``'s rows,
``Subspace.fractions`` (what the filtrations print) and
``solve_in_span``'s coefficients.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction


def _scaled(row) -> tuple[list[int], int]:
    """(n, d) with row = n / d: Python ints over the lcm d of the denominators."""
    if all(type(x) is int for x in row):
        return list(row), 1
    for x in row:
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"exact path needs int/Fraction entries, got {type(x).__name__}")
    scale = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (scale // x.denominator) for x in row], scale


def _ints(row) -> list[int]:
    """A positive integer multiple of the vector."""
    return _scaled(row)[0]


_ZERO, _ONE = Fraction(0), Fraction(1)


def _over(n: int, d: int) -> Fraction:
    """n / d as a Fraction, sharing the common values 0 and 1."""
    if not n:
        return _ZERO
    return _ONE if n == d else Fraction(n, d)


def _echelon(mat) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The reduced rows and pivot columns of integer rows, zero rows dropped.

    Gauss-Jordan without fractions: a row is cleared at the pivot column by
    p·row - a·pivot_row and divided by the gcd of its entries.  Each
    reduced row is returned primitive with a positive pivot, which is the
    unique integer form of the reduced row echelon form.
    """
    mat = [row for row in mat if any(row)]
    pivots = []
    r = 0
    ncols = len(mat[0]) if mat else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            a = row[c]
            if a and i != r:
                g = math.gcd(p, a)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    rows = []
    for row, c in zip(mat, pivots):
        g = math.gcd(*row)
        if row[c] < 0:
            g = -g
        rows.append(tuple(row) if g == 1 else tuple(x // g for x in row))
    return tuple(rows), tuple(pivots)


class Subspace:
    """A subspace of Q^n in canonical form: reduced rows of primitive ints.

    Build one with ``span``, ``zero`` or ``full`` or the operations below;
    the constructor takes rows and pivots that are already canonical.
    """

    __slots__ = ("n", "pivots", "rows", "_hash")

    def __init__(self, n: int, pivots: tuple, rows: tuple):
        self.n = n
        self.pivots = pivots
        self.rows = rows
        self._hash = None

    @classmethod
    def span(cls, vectors, n: int) -> "Subspace":
        """The span of int/Fraction vectors of length n."""
        rows = [_ints(v) for v in vectors]
        if any(len(row) != n for row in rows):
            raise ValueError(f"vectors of a subspace of Q^{n} need {n} entries")
        return cls._of(rows, n)

    @classmethod
    def _of(cls, rows, n: int) -> "Subspace":
        """The span of integer rows of length n."""
        red, pivots = _echelon(rows)
        return cls(n, pivots, red)

    @classmethod
    def zero(cls, n: int) -> "Subspace":
        return cls(n, (), ())

    @classmethod
    def full(cls, n: int) -> "Subspace":
        return cls(n, tuple(range(n)), tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self.rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Subspace({self.n}, {list(map(list, self.rows))})"

    def __contains__(self, vec) -> bool:
        """Membership: reduce the scaled vector against the rows."""
        v = _ints(vec)
        for row, p in zip(self.rows, self.pivots):
            a = v[p]
            if a:
                q = row[p]
                v = [q * x - a * y for x, y in zip(v, row)]
        return not any(v)

    def __le__(self, other: "Subspace") -> bool:
        return self.dim <= other.dim and all(row in other for row in self.rows)

    def _pivot_lcm(self) -> int:
        return math.lcm(*[row[p] for row, p in zip(self.rows, self.pivots)])

    def residue(self, vec) -> list[int]:
        """L·vec minus its component along the rows, L the lcm of the pivots.

        Zero at every pivot column; linear in vec with one factor L for all
        vectors, so it is the quotient map to Q^n / self in integer form.
        """
        scale = self._pivot_lcm()
        v = [scale * x for x in vec]
        for row, p in zip(self.rows, self.pivots):
            a = vec[p]
            if a:
                f = a * (scale // row[p])
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def annihilator(self) -> list[list[int]]:
        """Integer functionals spanning {phi : phi(v) = 0 on self}, one per free column."""
        scale = self._pivot_lcm()
        pivots = set(self.pivots)
        out = []
        for f in range(self.n):
            if f in pivots:
                continue
            phi = [0] * self.n
            phi[f] = scale
            for row, p in zip(self.rows, self.pivots):
                if row[f]:
                    phi[p] = -row[f] * (scale // row[p])
            out.append(phi)
        return out

    def fractions(self) -> list[list[Fraction]]:
        """The reduced rows as canonical Fractions, pivots equal to 1."""
        return [[_over(x, row[p]) for x in row] for row, p in zip(self.rows, self.pivots)]


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); zero rows dropped.

    The integer elimination of ``_echelon``, with each reduced row divided
    by its pivot at the end: the same canonical Fractions that elimination
    over the rationals gives.
    """
    red, pivots = _echelon([_ints(row) for row in rows])
    return [[_over(x, row[c]) for x in row] for row, c in zip(red, pivots)], list(pivots)


def rank(rows) -> int:
    return len(_echelon([_ints(row) for row in rows])[0])


def nullspace(rows, n: int) -> Subspace:
    """The right kernel {x in Q^n : A x = 0}, in one elimination."""
    return _kernel([_ints(row) for row in rows], n)


def _kernel(rows, n: int) -> Subspace:
    """The right kernel of integer rows.

    The elimination runs from the last column to the first.  Then the
    kernel vector of each free column f is zero before f and at every other
    free column, so the vectors are already the canonical rows.
    """
    red, piv = _echelon([row[::-1] for row in rows])
    scale = math.lcm(*[row[p] for row, p in zip(red, piv)])
    bound = set(piv)
    out, pivots = [], []
    for g in range(n - 1, -1, -1):   # reversed column g is column n-1-g
        if g in bound:
            continue
        x = [0] * n
        x[n - 1 - g] = scale
        for row, p in zip(red, piv):
            if row[g]:
                x[n - 1 - p] = -row[g] * (scale // row[p])
        d = math.gcd(*x)
        out.append(tuple(x) if d == 1 else tuple(v // d for v in x))
        pivots.append(n - 1 - g)
    return Subspace(n, tuple(pivots), tuple(out))


def join(a: Subspace, b: Subspace) -> Subspace:
    """a + b."""
    if not a.rows or len(b.rows) == b.n:
        return b
    if not b.rows or len(a.rows) == a.n:
        return a
    return Subspace._of(a.rows + b.rows, a.n)


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b: the common kernel of both annihilators."""
    if not b.rows or len(a.rows) == a.n or a == b:
        return b
    if not a.rows or len(b.rows) == b.n:
        return a
    return _kernel(a.annihilator() + b.annihilator(), a.n)


def apply(mat, vec) -> list:
    """mat · vec, with the entries' own arithmetic (ints stay ints)."""
    return [sum(map(operator.mul, row, vec)) for row in mat]


def product(a, b) -> list:
    """a · b, with the entries' own arithmetic."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def combination(coeffs, rows) -> list:
    """sum c_i rows_i."""
    out = [0] * len(rows[0]) if rows else []
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * y for x, y in zip(out, row)]
    return out


def integer_matrix(mat) -> list[list[int]]:
    """A positive integer multiple of ``mat``: the entries times the lcm of all
    denominators.  Spans, kernels, images and nilpotency do not see the factor."""
    scaled = [_scaled(row) for row in mat]
    scale = math.lcm(*[d for _, d in scaled])
    return [row if d == scale else [x * (scale // d) for x in row] for row, d in scaled]


def image(mat, sub: Subspace | None = None) -> Subspace:
    """A·sub; the column space when sub is None."""
    if sub is None:
        return Subspace.span(list(zip(*mat)), len(mat))
    return Subspace.span([apply(mat, v) for v in sub.rows], len(mat))


def preimage(mat, sub: Subspace) -> Subspace:
    """{v : A v ∈ sub}: the kernel of sub's annihilator composed with A."""
    cols = list(zip(*mat))
    return nullspace([apply(cols, phi) for phi in sub.annihilator()], len(cols))


def extend_basis(inside: Subspace, vectors) -> list:
    """The vectors, in order, that each leave the span of inside and those before them."""
    out = []
    current = inside
    for v in vectors:
        if v not in current:
            out.append(v)
            current = Subspace._of(current.rows + (_ints(v),), current.n)
    return out


def graded_piece(lo: Subspace, hi: Subspace):
    """(basis, coordinates) of the quotient hi / lo, for lo ⊆ hi.

    lo's pivots are among hi's, and the rows of hi at the other pivots
    complete lo to a basis of hi.  coordinates(x), for x in hi, gives the
    coefficients of x + lo in that basis times one positive integer that is
    the same for every x, so a matrix built from it column by column is a
    multiple of the induced map.
    """
    low = set(lo.pivots)
    kept = [(row, p) for row, p in zip(hi.rows, hi.pivots) if p not in low]
    scale = math.lcm(*[row[p] for row, p in kept])
    factors = [(p, scale // row[p]) for row, p in kept]

    def coordinates(x) -> list[int]:
        r = lo.residue(x)
        return [r[p] * f for p, f in factors]
    return [row for row, _ in kept], coordinates


def solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None."""
    if not vectors:
        return [] if not any(_ints(target)) else None
    ncols = len(vectors[0])
    aug = [[v[c] for v in vectors] + [target[c]] for c in range(ncols)]
    red, pivots = rref(aug)
    if len(vectors) in pivots:
        return None
    coeffs = [_ZERO] * len(vectors)
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][-1]
    return coeffs
