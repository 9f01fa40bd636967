"""Small exact linear algebra kit over the rationals.

Vectors are lists/tuples of Fraction (ints are accepted and coerced).
Subspaces are represented by spanning lists of row vectors; ``rref``
canonicalizes them, which makes equality of subspaces decidable.
``rref`` is the integer kernel every exact operation here goes through:
it eliminates on Python ints (rows scaled by the lcm of their
denominators, fraction-free row operations) and returns the unique
reduced rows as canonical Fractions.
A float code path (numpy, rank tolerance) is provided for the few
operations that must also accept inexact input.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

FLOAT_RANK_TOL = 1e-12


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"exact path needs int/Fraction entries, got {type(x).__name__}")


def _scaled(row) -> tuple[list[int], int]:
    """(n, d) with row = n / d: Python ints over the lcm d of the denominators."""
    for x in row:
        if not isinstance(x, (int, Fraction)):
            _frac(x)   # raises the TypeError
    scale = math.lcm(*[x.denominator for x in row])
    return [x.numerator * (scale // x.denominator) for x in row], scale


_ZERO, _ONE = Fraction(0), Fraction(1)


def _over(n: int, d: int) -> Fraction:
    """n / d as a Fraction, sharing the common values 0 and 1."""
    if not n:
        return _ZERO
    return _ONE if n == d else Fraction(n, d)


def rref(rows):
    """Reduced row echelon form. Returns (rows, pivot_columns); zero rows dropped.

    Gauss-Jordan on integer rows: a row is cleared at the pivot column by
    p·row - a·pivot_row and divided by the gcd of its entries, so no
    fraction appears until each pivot row is divided by its pivot at the
    end.  The reduced form is unique, so the rows are the same canonical
    Fractions that elimination over the rationals gives.
    """
    mat = [row for row, _ in map(_scaled, rows) if any(row)]
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
                row = [p * x - a * y for x, y in zip(row, prow)]
                g = math.gcd(*row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[_over(x, row[c]) for x in row] for row, c in zip(mat, pivots)], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def span_basis(rows):
    """Canonical (rref) basis of the span of the given vectors."""
    return rref(rows)[0]


def in_span(vectors, target) -> bool:
    """Exact membership of ``target`` in span(vectors)."""
    vecs = [list(v) for v in vectors]
    if not vecs:
        return all(_frac(x) == 0 for x in target)
    return rank(vecs) == rank(vecs + [list(target)])


def subspace_leq(a, b) -> bool:
    """span(a) <= span(b)."""
    return all(in_span(b, v) for v in a)


def nullspace(rows):
    """Basis of the right kernel {x : A x = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    return basis


def matvec(mat, vec):
    nv, dv = _scaled(vec)
    out = []
    for row in mat:
        nr, dr = _scaled(row)
        out.append(_over(sum(map(operator.mul, nr, nv)), dr * dv))
    return out


def matmul(a, b):
    cols = [_scaled(col) for col in zip(*b)]
    out = []
    for row in a:
        nr, dr = _scaled(row)
        out.append([_over(sum(map(operator.mul, nr, nc)), dr * dc) for nc, dc in cols])
    return out


def mat_power(mat, k):
    n = len(mat)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(k):
        out = matmul(out, mat)
    return out


def image(mat, vectors=None):
    """Basis of A·span(vectors); full column space when vectors is None."""
    n = len(mat)
    if vectors is None:
        vectors = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return span_basis([matvec(mat, v) for v in vectors])


def intersect(a, b):
    """Basis of span(a) ∩ span(b)."""
    if not a or not b:
        return []
    ncols = len(a[0])
    # x = sum s_i a_i = sum t_j b_j  <=>  [A^T | -B^T](s,t) = 0
    stacked = [[_frac(a[i][c]) for i in range(len(a))] + [-_frac(b[j][c]) for j in range(len(b))]
               for c in range(ncols)]
    columns = list(zip(*a))
    out = []
    for sol in nullspace(stacked):
        vec = matvec(columns, sol[: len(a)])
        if any(x != 0 for x in vec):
            out.append(vec)
    return span_basis(out)


def add_spans(a, b):
    return span_basis(list(a) + list(b))


def preimage(mat, subspace):
    """Basis of {v : A v ∈ span(subspace)}."""
    n = len(mat[0])
    m = len(mat)
    k = len(subspace)
    # A v - B^T c = 0 in the unknowns (v, c)
    rows = [[_frac(mat[i][j]) for j in range(n)] + [-_frac(subspace[t][i]) for t in range(k)]
            for i in range(m)]
    sols = nullspace(rows)
    return span_basis([s[:n] for s in sols if any(x != 0 for x in s[:n])])


def solve_in_span(vectors, target):
    """Coefficients c with sum c_i vectors_i = target, or None."""
    if not vectors:
        return [] if all(_frac(x) == 0 for x in target) else None
    ncols = len(vectors[0])
    aug = [[_frac(vectors[i][c]) for i in range(len(vectors))] + [_frac(target[c])]
           for c in range(ncols)]
    red, pivots = rref(aug)
    if len(vectors) in pivots:
        return None
    coeffs = [Fraction(0)] * len(vectors)
    for i, p in enumerate(pivots):
        coeffs[p] = red[i][-1]
    return coeffs


def extend_basis(inside, ambient):
    """Vectors from ``ambient`` extending a basis of span(inside) to span(inside + ambient)."""
    current = list(span_basis(inside))
    out = []
    for v in ambient:
        if not in_span(current, v):
            out.append(list(map(_frac, v)))
            current = span_basis(current + [out[-1]])
    return out


# --- float path -------------------------------------------------------------

def float_rank(rows, tol=FLOAT_RANK_TOL):
    import numpy as np   # only the float path needs it; the exact commands start without it
    arr = np.asarray(rows, dtype=complex)
    if arr.size == 0:
        return 0
    s = np.linalg.svd(arr, compute_uv=False)
    scale = max(s[0], 1.0) if len(s) else 1.0
    return int(np.sum(s > tol * scale))


def float_in_span(vectors, target, tol=FLOAT_RANK_TOL):
    vecs = [list(map(complex, v)) for v in vectors]
    tgt = list(map(complex, target))
    if not vecs:
        return max(abs(x) for x in tgt) <= tol
    return float_rank(vecs, tol) == float_rank(vecs + [tgt], tol)
