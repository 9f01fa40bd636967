"""Numerical iterated integrals and truncated path signatures.

Two independent evaluation routes are kept deliberately separate:

* ``signature`` (through ``transport``) solves the parallel-transport
  equation S'(t) = S(t)·(f0(t) e0 + f1(t) e1) by spectral integration
  (Greengard 1991).  The equation is strictly triangular in word length,
  so on a panel every level is the antiderivative of the level below
  times a form; each level is integrated for all of its words at once
  on Chebyshev-Lobatto nodes with the Clenshaw-Curtis integration
  matrix.  A panel is bisected until the Chebyshev tail of its forcing
  is negligible, and the state is carried from panel to panel and from
  segment to segment.
* ``iterated_integral`` evaluates a single simplex integral directly by
  nested Gauss-Legendre quadrature on uniformly doubled panels.

The two share neither nodes nor refinement rule, so the second
cross-checks the first at low word length.  Both work to the one
tolerance ABS_TOL, read when they run, in mixed form: each coefficient
c is within ABS_TOL·max(1, |c|), the form of the tail that a transport
panel accepts (the direct route's refinements agree within ABS_TOL
itself).  Large coefficients are thus bounded relative to their size:
double precision cannot reach an absolute 1e-10 on Li_8(x) at
|x| = 1e6.

Every path is interior.  The tangential base point at the puncture 0
(tangent vector +1) is the one start on a puncture, and it is reached
exactly.  Near 0 the signature has the nilpotent-orbit shape
S(z) = exp(log z·e0)·H(z) with H holomorphic and H(0) = 1 (Deligne
1989), and ``holomorphic_part`` sums the power series of H.  Every reach
and every loop starts at the junction point 1/8, so one constant per
level, S(1/8) = exp(log(1/8)·e0)·H(1/8), turns a transport from
there into a regularized one.  ``tangential_iterated_integral``
needs no series: its words start with the letter 1, so the direct
quadrature runs on the segment from 0 itself.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConvergenceError, DomainError
from .malcev import GroupWord
from .paths import (JUNCTION_RADIUS, PUNCTURES, LineSegment, Path, canonical_reach,
                    check_clear, loop_from_group_word, make_path)
from .series import TruncatedSeries, check_level, exp_letter
from .words import Word, check_word


# --- transport route: adaptive spectral panels --------------------------------------

ABS_TOL = 1e-10     # tolerance of both routes: |error| <= ABS_TOL·max(1, |coefficient|)
_CC_NODES = 41      # Chebyshev-Lobatto nodes per panel (degree 40)
_PANEL_TOL = 1e-3   # tail allowed per panel, as a fraction of ABS_TOL
_MAX_PANELS = 4096  # panel evaluations one transport may spend before it gives up
_MAX_REFINEMENTS = 10  # panel doublings the nested quadrature may spend before it gives up
_NOISE = 64 * np.finfo(float).eps   # tail that rounding alone leaves, relative to the forcing


@lru_cache(maxsize=None)
def _cc_tables():
    """One panel on [-1, 1]: 1 + x and 1 - x at the nodes, both without
    cancellation; the transposed Clenshaw-Curtis integration matrix
    (values -> antiderivative values, zero at -1); and the transposed map
    from values to the last two Chebyshev coefficients."""
    n = _CC_NODES
    half = np.arange(n) * np.pi / (2 * (n - 1))
    x = -np.cos(2 * half)
    to_coef = np.linalg.inv(chebyshev.chebvander(x, n - 1))
    integ = np.stack([chebyshev.chebint(unit, lbnd=-1) for unit in np.eye(n)], axis=1)
    intmat = chebyshev.chebvander(x, n) @ integ @ to_coef
    intmat[0] = 0.0
    return (2 * np.sin(half) ** 2, 2 * np.cos(half) ** 2,
            intmat.T.astype(complex), to_coef[-2:].T.astype(complex))


def _panel(seg, ends: tuple, y: np.ndarray, level: int, tol: float):
    """State after a panel of the segment, or None if it must be split.

    ``ends`` are the panel's ends as t and as 1 - t: (ta, tb, ua, ub).

    Level k is y_k plus the antiderivative of level k-1 times the form of
    each word's last letter.  The panel is rejected as soon as some word's
    Chebyshev tail exceeds both tol·max(1, |coefficient|) and the rounding
    noise of its forcing.
    """
    xp, xm, int_t, tail_t = _cc_tables()
    ta, tb, ua, ub = ends
    s = (tb - ta) / 2 if tb <= 0.5 else (ua - ub) / 2
    f0, f1 = seg.forms(ta + xp * s, ub + xm * s)
    forcing = np.stack((f0 * s, f1 * s))
    if not np.isfinite(forcing).all():
        raise ConvergenceError("transport forms are not finite on a panel")
    out = y.copy()
    vals = np.full((1, len(xp)), y[0])
    for k in range(1, level + 1):
        lo, hi = 2 ** k - 1, 2 ** (k + 1) - 1
        h = (vals[:, None, :] * forcing).reshape(hi - lo, -1)
        vals = y[lo:hi, None] + h @ int_t
        end = vals[:, -1]
        tail = np.abs(h @ tail_t).sum(axis=1)
        bound = np.maximum(tol * np.maximum(1.0, np.abs(end)), _NOISE * np.abs(h).max(axis=1))
        if not (tail <= bound).all():
            return None
        out[lo:hi] = end
    return out


def transport(path: Path, level: int) -> np.ndarray:
    """Signature coefficients of a path, as a word-indexed array.

    One state is carried through every panel of every segment.  Each
    segment starts as one panel and rejected panels are bisected, left
    half first; past _MAX_PANELS panel evaluations ConvergenceError is
    raised.
    """
    check_level(level)
    y = np.zeros(2 ** (level + 1) - 1, dtype=complex)
    y[0] = 1.0
    if level == 0:
        return y
    tol = ABS_TOL * _PANEL_TOL
    budget = _MAX_PANELS
    with np.errstate(over="ignore", invalid="ignore"):   # _panel raises on non-finite forms
        for seg in path.segments:
            # panel ends as t and as 1 - t, each exact in its own half, so
            # that panels can shrink toward t = 1 as far as toward t = 0
            todo = [(0.0, 1.0, 1.0, 0.0)]
            while todo:
                ends = todo.pop()
                budget -= 1
                if budget < 0:
                    raise ConvergenceError(
                        f"transport did not reach {ABS_TOL:g} within {_MAX_PANELS} panels")
                nxt = _panel(seg, ends, y, level, tol)
                if nxt is None:
                    ta, tb, ua, ub = ends
                    tm, um = (ta + tb) / 2, (ua + ub) / 2
                    todo += [(tm, tb, um, ub), (ta, tm, ua, um)]
                else:
                    y = nxt
    return y


def signature(path, r: int) -> TruncatedSeries:
    """Level-r path signature via the transport equation."""
    check_level(r)
    return TruncatedSeries(r, transport(make_path(path), r))


# --- direct quadrature route ----------------------------------------------------

_GL_NODES = 24


@lru_cache(maxsize=None)
def _gl_tables():
    n = _GL_NODES
    x, w = np.polynomial.legendre.leggauss(n)
    vander = np.polynomial.legendre.legvander(x, n - 1)          # P_k(x_i)
    proj = ((2 * np.arange(n) + 1) / 2)[:, None] * (vander.T * w)  # values -> coefficients
    coef_int = np.zeros((n + 1, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        coef_int[:, k] = np.polynomial.legendre.legint(e)
    vander1 = np.polynomial.legendre.legvander(x, n)
    lower = np.polynomial.legendre.legvander(np.array([-1.0]), n)
    intmat = (vander1 - lower) @ coef_int @ proj                  # values -> antiderivative values
    return x, w, intmat


def _nested_quadrature(segments: tuple, letters: str, panels: int) -> complex:
    x, w, intmat = _gl_tables()
    r = len(letters)
    g_start = np.zeros(r + 1, dtype=complex)
    g_start[0] = 1.0
    for seg in segments:
        for p in range(panels):
            a, b = p / panels, (p + 1) / panels
            scale = (b - a) / 2
            t = a + (x + 1) * scale
            z = np.array([seg.point(tt) for tt in t])
            dz = np.array([seg.deriv(tt) for tt in t])
            f = {"0": dz / z, "1": dz / (1 - z)}
            gvals = np.ones((r + 1, len(x)), dtype=complex)
            new_start = g_start.copy()
            for j in range(1, r + 1):
                h = gvals[j - 1] * f[letters[j - 1]]
                gvals[j] = g_start[j] + scale * (intmat @ h)
                new_start[j] = g_start[j] + scale * (w @ h)
            g_start = new_start
    return complex(g_start[r])


def iterated_integral(word: Word, path, with_error: bool = False):
    """Simplex iterated integral of the word along the path, by direct quadrature.

    The empty word gives 1.  Panels are doubled until two refinements
    agree within ABS_TOL; the independent transport route never enters.
    """
    check_word(word)
    value, err = _refined_quadrature(make_path(path).segments, word)
    return (value, err) if with_error else value


def _refined_quadrature(segments: tuple, word: Word) -> tuple[complex, float]:
    """Nested quadrature with panels doubled until two refinements agree within ABS_TOL."""
    if word == "":
        return 1.0 + 0j, 0.0
    panels = 2
    prev = _nested_quadrature(segments, word, panels)
    for _ in range(_MAX_REFINEMENTS):
        panels *= 2
        cur = _nested_quadrature(segments, word, panels)
        err = abs(cur - prev)
        if err < ABS_TOL:
            return cur, err
        prev = cur
    raise ConvergenceError(
        f"quadrature did not reach {ABS_TOL:g} within {_MAX_REFINEMENTS} refinements")


# --- the tangential base point -----------------------------------------------------

_MAX_TERMS = 1000   # series terms holomorphic_part may sum before it gives up


@lru_cache(maxsize=None)
def _prepend_e0(level: int) -> np.ndarray:
    """Index of the word 0·w for every word w shorter than the level."""
    length = np.repeat(np.arange(level), 2 ** np.arange(level))
    return np.arange(2 ** level - 1) + 2 ** length


def _bracket_e0(x: np.ndarray, level: int) -> np.ndarray:
    """[X, e0] = X·e0 - e0·X of a word-indexed array, truncated at the level."""
    short = x[:2 ** level - 1]
    out = np.zeros_like(x)
    out[1::2] = short                 # the word w·0 sits at index 2i + 1
    out[_prepend_e0(level)] -= short
    return out


def series_terms(z, r: int):
    """The terms H_n z^n, n = 1, 2, ..., of H(z) in S(z) = exp(log z·e0)·H(z).

    S is the signature from the tangential base point (0, +1) to z, along
    the segment [0, z] with log z principal.  Putting the shape into
    S' = S·(e0/z + e1/(1-z)) gives z H' = [H, e0] + z/(1-z)·H·e1, so
    n H_n - [H_n, e0] = (H_0 + ... + H_{n-1})·e1 with H_0 = 1.  X -> [X, e0]
    raises word length, so H_n is the finite Neumann series
    sum_k [., e0]^k (rhs) / n^(k+1).  Each term has e1-coefficient z^n/n.
    """
    check_level(r)
    dim = 2 ** (r + 1) - 1
    partial = np.zeros(dim, dtype=complex)     # H_0 + ... + H_{n-1}
    partial[0] = 1.0
    power = 1.0 + 0j
    for n in itertools.count(1):
        rhs = np.zeros(dim, dtype=complex)
        rhs[2::2] = partial[:2 ** r - 1]        # the word w·1 sits at index 2i + 2
        h = piece = rhs / n
        for _ in range(r - 1):
            piece = _bracket_e0(piece, r) / n
            h = h + piece
        partial += h
        power *= z
        yield h * power


def holomorphic_part(z, r: int) -> np.ndarray:
    """H(z) as a word-indexed array, summed until a term falls below
    rounding relative to the sum: 16 or 17 terms at z = 1/8 on levels 1 to 8.
    ConvergenceError after _MAX_TERMS terms."""
    check_level(r)
    total = np.zeros(2 ** (r + 1) - 1, dtype=complex)
    total[0] = 1.0
    for term in itertools.islice(series_terms(z, r), _MAX_TERMS):
        total += term
        if np.abs(term).max() <= np.finfo(float).eps * np.abs(total).max():
            return total
    raise ConvergenceError(f"the series at the tangential base point did not converge "
                           f"at z = {complex(z):g} within {_MAX_TERMS} terms")


@lru_cache(maxsize=None)
def _junction_part(r: int) -> TruncatedSeries:
    return TruncatedSeries(r, holomorphic_part(JUNCTION_RADIUS, r))


def _base_constant(r: int) -> TruncatedSeries:
    """S(1/8) = exp(log(1/8)·e0)·H(1/8): the signature from the tangential
    base point to the junction point, where every reach and loop starts."""
    return exp_letter(math.log(JUNCTION_RADIUS), "0", r).mul(_junction_part(r))


def regularized_signature(x, r: int = 2, loop_prefix: str = "") -> TruncatedSeries:
    """Level-r signature from the tangential base point (0, tangent +1) to x.

    The path is the standard reach (junction circle, then radial, around
    1 on the target's side when the ray comes close), optionally preceded
    by a loop word in the generators ("0 1^-1" style), and transported in
    one pass.  The base point's constant S(1/8) is multiplied on the left;
    with tangent vector +1 the "0"-coefficient is the branch of log(x)
    continued along the path and the "1"-coefficient is -log(1-x) on the
    same sheet.
    """
    x = complex(x)
    if x in (0, 1):
        raise DomainError("x must avoid the punctures")
    check_level(r)
    path = canonical_reach(x)
    loop = loop_from_group_word(loop_prefix) if loop_prefix else None
    path = path if loop is None else loop.concat(path)
    return _base_constant(r).mul(TruncatedSeries(r, transport(path, r)))


def regularized_loop_transport(loop, r: int = 2) -> TruncatedSeries:
    """Transport of a loop conjugated back to the tangential base point.

    ``loop`` is a group word ("0 1 0^-1 1^-1" or a GroupWord), a path
    spec, or a Path based on the positive real axis.  With C
    the signature from the base point to the loop's base (S(1/8), times
    the reach from 1/8 when the loop starts elsewhere) the result is
    C·S_loop·C^-1.
    """
    check_level(r)
    if isinstance(loop, (str, GroupWord)):
        loop_path = loop_from_group_word(loop)
        if loop_path is None:
            return TruncatedSeries.identity(r)
    else:
        loop_path = make_path(loop)
    base = loop_path.start
    if abs(loop_path.end - base) > 1e-9:
        raise DomainError("monodromy needs a closed loop")
    if abs(base.imag) > 1e-12 or base.real <= 0:
        raise DomainError("loop must be based on the positive real axis")
    conj = _base_constant(r)
    if abs(base - JUNCTION_RADIUS) > 1e-12:
        conj = conj.mul(TruncatedSeries(r, transport(canonical_reach(base), r)))
    return conj.mul(TruncatedSeries(r, transport(loop_path, r))).mul(conj.inverse())


def tangential_iterated_integral(word: Word, x) -> complex:
    """Iterated integral from the tangential base point (0, +1) to x along [0, x].

    Only words not starting with the letter "0" converge at the base
    point.  For those the integrand is analytic at 0, so the direct
    quadrature runs on the segment from 0 itself, sharing nothing with
    the series at the base point.
    """
    check_word(word)
    if word and word[0] == "0":
        raise DomainError("words starting with dz/z diverge at the tangential base point")
    segment = LineSegment(0j, complex(x))
    check_clear(segment, PUNCTURES[1])
    return _refined_quadrature((segment,), word)[0]
