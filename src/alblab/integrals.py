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
cross-checks the first at low word length.  Tangential base points at
the puncture 0 (tangent vector +1) are handled by the regularization
ladder: multiply the signature from epsilon on the left by
exp(log(eps)·e0) and extrapolate the ladder in the basis
{1, eps, eps·log(eps), ...}, which matches the analytic form of the
epsilon-error exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev

from .paths import (DomainError, JUNCTION_RADIUS, LogSegment, Path,
                    canonical_reach, loop_from_group_word, make_path)
from .series import TruncatedSeries, series_exp
from .words import Word, check_word, word_basis

TWO_PI_I = 2j * math.pi


class ConvergenceError(RuntimeError):
    """Quadrature or regularization failed to converge (CLI exit code 2)."""


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    max_subdivisions: int = 10
    # geometric ladder; the tail rungs drive the extrapolated limit
    regularization_epsilons: tuple = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8)

    def __post_init__(self):
        if self.abs_tol <= 0:
            raise DomainError("abs_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be positive")
        eps = self.regularization_epsilons
        if not eps or any(e <= 0 for e in eps) or any(a <= b for a, b in zip(eps, eps[1:])):
            raise DomainError("regularization epsilons must decrease strictly toward 0")


DEFAULT_CONFIG = QuadratureConfig()


# --- word indexing ---------------------------------------------------------------
# Words are stored in shortlex order, so the word of length k read as the
# binary number b sits at index 2**k - 1 + b.

class _WordTable:
    def __init__(self, level: int):
        self.level = level
        self.words = word_basis(level)
        self.index = {w: i for i, w in enumerate(self.words)}
        self.dim = len(self.words)


@lru_cache(maxsize=None)
def _word_index(level: int) -> _WordTable:
    return _WordTable(level)


def series_to_array(s: TruncatedSeries) -> np.ndarray:
    idx = _word_index(s.level)
    arr = np.zeros(idx.dim, dtype=complex)
    for w, c in s.coeffs.items():
        arr[idx.index[w]] = c
    return arr


def array_to_series(level: int, arr: np.ndarray) -> TruncatedSeries:
    idx = _word_index(level)
    return TruncatedSeries(level, {w: arr[i] for i, w in enumerate(idx.words)})


def _exp_e0(coefficient: complex, level: int) -> TruncatedSeries:
    return TruncatedSeries(level, series_exp({"0": coefficient}, level))


@lru_cache(maxsize=None)
def _concat_table(level: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of the concatenation product.

    Row w holds, for each split w = u·v (u of length 0..|w|), the indices
    of u and of v; rows of short words are padded with ``dim``, which
    points at an appended zero.
    """
    dim = 2 ** (level + 1) - 1
    left = np.full((dim, level + 1), dim)
    right = np.full((dim, level + 1), dim)
    for k in range(level + 1):
        b = np.arange(2 ** k)
        rows = 2 ** k - 1 + b
        for j in range(k + 1):
            left[rows, j] = 2 ** j - 1 + (b >> (k - j))
            right[rows, j] = 2 ** (k - j) - 1 + (b & (2 ** (k - j) - 1))
    return left, right


def _concat_arrays(a: np.ndarray, b: np.ndarray, level: int) -> np.ndarray:
    """Concatenation product of two word-indexed arrays, truncated at the level."""
    left, right = _concat_table(level)
    return (np.append(a, 0)[left] * np.append(b, 0)[right]).sum(axis=1)


# --- transport route: adaptive spectral panels --------------------------------------

_CC_NODES = 41      # Chebyshev-Lobatto nodes per panel (degree 40)
_PANEL_TOL = 1e-3   # tail allowed per panel, as a fraction of abs_tol
_MAX_PANELS = 4096  # panel evaluations one transport may spend before it gives up
_NOISE = 64 * np.finfo(float).eps   # tail that rounding alone leaves, relative to the forcing


@lru_cache(maxsize=None)
def _cc_tables(n: int = _CC_NODES):
    """One panel on [-1, 1]: 1 + x and 1 - x at the nodes, both without
    cancellation; the transposed Clenshaw-Curtis integration matrix
    (values -> antiderivative values, zero at -1); and the transposed map
    from values to the last two Chebyshev coefficients."""
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


def transport(path: Path, level: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Signature coefficients of an interior path, as a word-indexed array.

    One state is carried through every panel of every segment.  Each
    segment starts as one panel and rejected panels are bisected, left
    half first; past _MAX_PANELS panel evaluations ConvergenceError is
    raised.
    """
    y = np.zeros(2 ** (level + 1) - 1, dtype=complex)
    y[0] = 1.0
    if level == 0:
        return y
    tol = cfg.abs_tol * _PANEL_TOL
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
                        f"transport did not reach {cfg.abs_tol:g} within {_MAX_PANELS} panels")
                nxt = _panel(seg, ends, y, level, tol)
                if nxt is None:
                    ta, tb, ua, ub = ends
                    tm, um = (ta + tb) / 2, (ua + ub) / 2
                    todo += [(tm, tb, um, ub), (ta, tm, ua, um)]
                else:
                    y = nxt
    return y


def signature(path, r: int, cfg: QuadratureConfig = DEFAULT_CONFIG) -> TruncatedSeries:
    """Level-r path signature via the transport equation; interior anchors only."""
    path = make_path(path)
    if not path.is_interior:
        raise DomainError("signature needs interior anchors; use the regularized variants")
    if r < 0:
        raise DomainError("level must be >= 0")
    return array_to_series(r, transport(path, r, cfg))


def compose_signatures(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Concatenation product; matches the signature of concatenated paths."""
    if a.level != b.level:
        raise DomainError(f"level mismatch: {a.level} vs {b.level}")
    return a.mul(b)


# --- direct quadrature route ----------------------------------------------------

_GL_NODES = 24


@lru_cache(maxsize=None)
def _gl_tables(n: int = _GL_NODES):
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


def _nested_quadrature(path: Path, letters: str, panels: int) -> complex:
    x, w, intmat = _gl_tables()
    r = len(letters)
    g_start = np.zeros(r + 1, dtype=complex)
    g_start[0] = 1.0
    for seg in path.segments:
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


def iterated_integral(word: Word, path, cfg: QuadratureConfig = DEFAULT_CONFIG,
                      with_error: bool = False):
    """Simplex iterated integral of the word along the path, by direct quadrature.

    The empty word gives 1.  Panels are doubled until two refinements
    agree within abs_tol; the independent transport route never enters.
    """
    check_word(word)
    path = make_path(path)
    if not path.is_interior:
        raise DomainError("iterated_integral needs interior anchors")
    if word == "":
        return (1.0 + 0j, 0.0) if with_error else 1.0 + 0j
    panels = 2
    prev = _nested_quadrature(path, word, panels)
    for _ in range(cfg.max_subdivisions):
        panels *= 2
        cur = _nested_quadrature(path, word, panels)
        err = abs(cur - prev)
        if err < cfg.abs_tol:
            return (cur, err) if with_error else cur
        prev = cur
    raise ConvergenceError(
        f"quadrature did not reach {cfg.abs_tol:g} within {cfg.max_subdivisions} refinements")


# --- tangential regularization ---------------------------------------------------

def _eps_extrapolate(values: list[np.ndarray], epsilons, level: int, cfg: QuadratureConfig):
    """Limit of the ladder in the basis {1} ∪ {eps·log(eps)**k}, with a stability check."""
    k_logs = min(max(level - 1, 1), len(epsilons) - 2)
    npts = k_logs + 2

    def fit(idx_slice):
        eps = np.array(epsilons[idx_slice])
        mat = np.empty((len(eps), npts))
        mat[:, 0] = 1.0
        for k in range(k_logs + 1):
            mat[:, 1 + k] = eps * np.log(eps) ** k
        stacked = np.stack([values[i] for i in range(*idx_slice.indices(len(values)))])
        coef = np.linalg.solve(mat, stacked)
        return coef[0]

    best = fit(slice(len(values) - npts, len(values)))
    if len(values) > npts:
        shifted = fit(slice(len(values) - npts - 1, len(values) - 1))
        drift = float(np.max(np.abs(best - shifted)))
        if drift > max(100 * cfg.abs_tol, 1e-8):
            raise ConvergenceError(
                f"regularization ladder did not stabilize (drift {drift:.2e})")
    return best


def regularized_signature(x, r: int = 2, cfg: QuadratureConfig = DEFAULT_CONFIG,
                          loop_prefix: str = "") -> TruncatedSeries:
    """Level-r signature from the tangential base point (0, tangent +1) to x.

    The path is the standard reach (junction circle, then radial, around
    1 on the target's side when the ray comes close), optionally preceded
    by a loop word in the generators ("0 1^-1" style), and transported in
    one pass.  The divergence at the base point
    is removed by left multiplication with exp(log(eps)·e0) and ladder
    extrapolation; with tangent vector +1 no further constant enters, so
    the "0"-coefficient is the branch of log(x) continued along the path
    and the "1"-coefficient is -log(1-x) on the same sheet.
    """
    x = complex(x)
    if x in (0, 1):
        raise DomainError("x must avoid the punctures")
    path = canonical_reach(x)
    loop = loop_from_group_word(loop_prefix) if loop_prefix else None
    if loop is not None:
        path = loop.concat(path)
    tail = transport(path, r, cfg)
    values = []
    for eps in cfg.regularization_epsilons:
        approach = transport(Path((LogSegment(eps, JUNCTION_RADIUS),)), r, cfg)
        corr = series_to_array(_exp_e0(cmath.log(eps), r))
        values.append(_concat_arrays(_concat_arrays(corr, approach, r), tail, r))
    limit = _eps_extrapolate(values, cfg.regularization_epsilons, r, cfg)
    return array_to_series(r, limit)


def regularized_loop_transport(loop, r: int = 2,
                               cfg: QuadratureConfig = DEFAULT_CONFIG) -> TruncatedSeries:
    """Transport of a loop conjugated back to the tangential base point.

    ``loop`` is a group word ("0 1 0^-1 1^-1"), a path spec, or an
    interior Path based on the positive real axis.
    """
    if isinstance(loop, str):
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
    s_loop = transport(loop_path, r, cfg)
    reach = None
    if abs(base - JUNCTION_RADIUS) > 1e-12:
        reach = transport(canonical_reach(base), r, cfg)
    values = []
    for eps in cfg.regularization_epsilons:
        approach = transport(Path((LogSegment(eps, JUNCTION_RADIUS),)), r, cfg)
        if reach is not None:
            approach = _concat_arrays(approach, reach, r)
        conj = _concat_arrays(series_to_array(_exp_e0(cmath.log(eps), r)), approach, r)
        conj_series = array_to_series(r, conj)
        t_eps = conj_series.mul(array_to_series(r, s_loop)).mul(conj_series.inverse())
        values.append(series_to_array(t_eps))
    limit = _eps_extrapolate(values, cfg.regularization_epsilons, r, cfg)
    return array_to_series(r, limit)


def _abc_from_series(s: TruncatedSeries) -> tuple[complex, complex, complex]:
    a = s.coefficient("0") / TWO_PI_I
    b = s.coefficient("1") / TWO_PI_I
    c = s.coefficient("10") / TWO_PI_I ** 2
    return a, b, c


def _coordinate_matrix(alpha, beta, lam) -> np.ndarray:
    return np.array([[1, beta, lam], [0, 1, alpha], [0, 0, 1]], dtype=complex)


def monodromy_matrix(loop, base_signature: TruncatedSeries, r: int = 2,
                     cfg: QuadratureConfig = DEFAULT_CONFIG,
                     integer_tol: float = 1e-3) -> np.ndarray:
    """Integer unipotent matrix by which continuation along the loop acts.

    Continuing the period coordinates along the loop multiplies their
    matrix on the left; the entries must land within ``integer_tol`` of
    integers, otherwise branch tracking has gone wrong.
    """
    if r != 2:
        raise DomainError("monodromy matrices are defined at level 2")
    t_loop = regularized_loop_transport(loop, r, cfg)
    continued = compose_signatures(t_loop, base_signature)
    m_orig = _coordinate_matrix(*_abc_from_series(base_signature))
    m_cont = _coordinate_matrix(*_abc_from_series(continued))
    g = m_cont @ np.linalg.inv(m_orig)
    rounded = np.rint(g.real)
    defect = float(np.max(np.abs(g - rounded)))
    if defect > integer_tol:
        raise ConvergenceError(
            f"monodromy entries are {defect:.2e} from integers; branch tracking failed")
    return rounded.astype(int)


def tangential_iterated_integral(word: Word, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> complex:
    """Limit of direct quadratures from eps to x along the positive ray.

    Only words not starting with the letter "0" stay finite in the
    limit; the ladder is extrapolated exactly like the signatures.
    """
    check_word(word)
    if word and word[0] == "0":
        raise DomainError("words starting with dz/z diverge at the tangential base point")
    x = complex(x)
    values = []
    for eps in cfg.regularization_epsilons:
        seg = Path((LogSegment(eps, x),))
        values.append(np.array([iterated_integral(word, seg, cfg)]))
    limit = _eps_extrapolate(values, cfg.regularization_epsilons, max(len(word), 2), cfg)
    return complex(limit[0])
