"""Reference computations for the benchmark, written without alblab.

Everything here is rebuilt from the mathematics, so a fault in alblab
cannot hide in its own check:

* closed forms with mpmath: log x, -log(1-x) and Li_n(x) on the principal
  branch, and for real x > 1 the limit from the upper half-plane;
* the integer monodromies g0, g1 of the level-2 coordinates, derived by
  hand from log x -> log x + 2 pi i and Li_2 -> Li_2 - 2 pi i log x;
* iterated integrals along polylines by local power series, glued with
  Chen's identity, plus the shuffle identities and one-letter closed forms;
* a small exact tensor algebra over Fraction (concatenation, exp, log,
  Lyndon brackets, shuffles) and Witt's formula;
* the relative monodromy filtration conditions, re-checked with sympy ranks.

Words follow alblab's convention: "0" is dz/z, "1" is dz/(1-z), and the
coefficient of w1...wn integrates w1 first.  The check functions take the
JSON an operation produced (the CLI output shape) and return None when it
is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

mpmath.mp.dps = 40

TOL_COORD = 1e-8    # Albanese and chart coordinates (acceptance criterion 8 uses 1e-8)
TOL_SERIES = 1e-9   # signature coefficients and identities, times max(1, |reference|)
SNAP = 1e-9         # fundamental-domain slack for inexact real parts
JUNCTION = 0.125
LOOP1_RADIUS = 0.25
POLYGON_SIDES = 16  # per turn; a homotopic stand-in for each circle


# --- closed forms -------------------------------------------------------------

def _mp_point(x: complex):
    """x as an mpmath number; real x > 1 is nudged into the upper half-plane."""
    if x.imag == 0 and x.real > 1:
        return mpmath.mpc(x.real, mpmath.mpf("1e-60"))
    return mpmath.mpc(x.real, x.imag)


@lru_cache(maxsize=None)
def periods(x: complex, level: int = 2) -> tuple:
    """(log x, -log(1-x), Li_1(x), ..., Li_level(x)) as complex floats."""
    z = _mp_point(x)
    out = [complex(mpmath.log(z)), complex(-mpmath.log(1 - z))]
    out += [complex(mpmath.polylog(n, z)) for n in range(1, level + 1)]
    return tuple(out)


TWO_PI_I = 2j * math.pi


def albanese_raw(x: complex) -> tuple:
    log_x, m_log_1mx, _li1, li2 = periods(x, 2)
    return (log_x / TWO_PI_I, m_log_1mx / TWO_PI_I, li2 / TWO_PI_I ** 2)


def act(abc, coords) -> tuple:
    """[[1,b,c],[0,1,a],[0,0,1]] acting on (alpha, beta, lambda)."""
    a, b, c = abc
    alpha, beta, lam = coords
    return (alpha + a, beta + b, lam + b * alpha + c)


# --- integer monodromy ----------------------------------------------------------

# Around 0, log x gains 2 pi i: alpha -> alpha + 1 and Li_2 is unchanged.
# Around 1, -log(1-x) gains -2 pi i and Li_2 gains -2 pi i log x, so beta -> beta - 1
# and lambda -> lambda - alpha.  As [[1,b,c],[0,1,a],[0,0,1]] matrices:
G0 = ((1, 0, 0), (0, 1, 1), (0, 0, 1))
G1 = ((1, -1, 0), (0, 1, 0), (0, 0, 1))


def _matmul3(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))


def _inverse_unipotent(g):
    a, b, c = g[1][2], g[0][1], g[0][2]
    return ((1, -b, a * b - c), (0, 1, -a), (0, 0, 1))


def monodromy_of_word(word: str):
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for tok in word.split():
        gen = G0 if tok[0] == "0" else G1
        out = _matmul3(out, _inverse_unipotent(gen) if tok.endswith("^-1") else gen)
    return out


# --- exact tensor algebra -------------------------------------------------------

def fconcat(a: dict, b: dict, level: int) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) <= level:
                out[u + v] = out.get(u + v, 0) + cu * cv
    return {w: c for w, c in out.items() if c != 0}


def fexp(h: dict, level: int) -> dict:
    """exp of a series without constant term, by Horner: 1 + h(1 + h/2(1 + h/3 ...))."""
    acc = {"": Fraction(1)}
    for k in range(level, 0, -1):
        acc = fconcat(h, acc, level)
        acc = {w: c / k for w, c in acc.items()}
        acc[""] = acc.get("", 0) + 1
    return {w: c for w, c in acc.items() if c != 0}


def flog(g: dict, level: int) -> dict:
    """log of a series with constant term 1: sum (-1)^(k+1) (g-1)^k / k."""
    j = {w: c for w, c in g.items() if w}
    out: dict = {}
    power = {"": Fraction(1)}
    for k in range(1, level + 1):
        power = fconcat(power, j, level)
        for w, c in power.items():
            out[w] = out.get(w, 0) + Fraction((-1) ** (k + 1), k) * c
    return {w: c for w, c in out.items() if c != 0}


def _is_lyndon(w: str) -> bool:
    return all(w < w[i:] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_bracket(w: str) -> tuple:
    """Tensor expansion of the bracket of a Lyndon word (standard factorization)."""
    if len(w) == 1:
        return ((w, 1),)
    v = next(w[i:] for i in range(1, len(w)) if _is_lyndon(w[i:]))
    u = w[: len(w) - len(v)]
    out: dict = {}
    for a, ca in lyndon_bracket(u):
        for b, cb in lyndon_bracket(v):
            out[a + b] = out.get(a + b, 0) + ca * cb
            out[b + a] = out.get(b + a, 0) - ca * cb
    return tuple(sorted((k, c) for k, c in out.items() if c != 0))


def lie_element(coords: dict) -> dict:
    """sum c_w [w] over Lyndon words w, expanded into tensor words."""
    out: dict = {}
    for w, c in coords.items():
        for t, m in lyndon_bracket(w):
            out[t] = out.get(t, 0) + c * m
    return {t: c for t, c in out.items() if c != 0}


def group_word_log(word: str, level: int) -> dict:
    g = {"": Fraction(1)}
    for tok in word.split():
        sign = -1 if tok.endswith("^-1") else 1
        g = fconcat(g, fexp({tok[0]: Fraction(sign)}, level), level)
    return flog(g, level)


def witt(n: int) -> int:
    """Dimension of the degree-n part of the free Lie algebra on two letters."""
    def mobius(d):
        out, p, m = 1, 2, d
        while p * p <= m:
            if m % p == 0:
                m //= p
                if m % p == 0:
                    return 0
                out = -out
            p += 1
        return -out if m > 1 else out
    return sum(mobius(d) * 2 ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


@lru_cache(maxsize=None)
def shuffles(u: str, v: str) -> tuple:
    """Shuffles of u and v with multiplicity."""
    table = {(0, 0): {"": 1}}
    for i in range(len(u) + 1):
        for j in range(len(v) + 1):
            if i == j == 0:
                continue
            cell: dict = {}
            if i:
                for w, m in table[(i - 1, j)].items():
                    cell[w + u[i - 1]] = cell.get(w + u[i - 1], 0) + m
            if j:
                for w, m in table[(i, j - 1)].items():
                    cell[w + v[j - 1]] = cell.get(w + v[j - 1], 0) + m
            table[(i, j)] = cell
    return tuple(sorted(table[(len(u), len(v))].items()))


def shuffle_elements(a: dict, b: dict) -> dict:
    out: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            for w, m in shuffles(u, v):
                out[w] = out.get(w, 0) + cu * cv * m
    return {w: c for w, c in out.items() if c != 0}


# --- iterated integrals along polylines -------------------------------------------

_RHO = 0.3                     # piece half-length over distance to the nearest puncture
_DEGREE = 36                   # 0.3**36 < 1e-18
_POW = np.arange(_DEGREE + 1)


def _pieces(a: complex, b: complex):
    m, h = (a + b) / 2, (b - a) / 2
    if abs(h) <= _RHO * min(abs(m), abs(1 - m)):
        return [(m, h)]
    return _pieces(a, m) + _pieces(m, b)


def _letter_series(m: complex, h: complex):
    """Taylor coefficients in s in [-1, 1] of the two forms along z = m + h s."""
    r0, r1 = h / m, h / (1 - m)
    return {"0": r0 * (-r0) ** _POW, "1": r1 * r1 ** _POW}


def _integrate(poly):
    out = np.zeros(_DEGREE + 1, dtype=complex)
    out[1:] = poly[:-1] / _POW[1:]
    out[0] = -np.sum(out * (-1.0) ** _POW)
    return out


def polyline_word_integral(points, word: str) -> complex:
    """Iterated integral of the word along the polyline, by Chen's identity over pieces."""
    n = len(word)
    acc = np.zeros(n + 1, dtype=complex)
    acc[0] = 1.0
    for a, b in zip(points, points[1:]):
        for m, h in _pieces(a, b):
            forms = _letter_series(m, h)
            piece = np.zeros((n + 1, n + 1), dtype=complex)
            for j in range(n + 1):
                g = np.zeros(_DEGREE + 1, dtype=complex)
                g[0] = 1.0
                piece[j, j] = 1.0
                for k in range(j + 1, n + 1):
                    g = _integrate(np.convolve(g, forms[word[k - 1]])[: _DEGREE + 1])
                    piece[j, k] = g.sum()
            acc = acc @ piece
    return complex(acc[n])


def polyline_of(spec) -> list:
    """Vertices of a polyline homotopic (rel endpoints, in C minus {0,1}) to the path spec."""
    if "compose" in spec:
        out: list = []
        for part in spec["compose"]:
            pts = polyline_of(part)
            out.extend(pts if not out else pts[1:])
        return out
    if "loop" in spec:
        turns = int(spec.get("turns", 1))
        steps = POLYGON_SIDES * abs(turns)
        sign = 1 if turns > 0 else -1
        if spec["loop"] == "gamma0":
            return [JUNCTION * cmath.exp(2j * math.pi * sign * k / POLYGON_SIDES)
                    for k in range(steps + 1)]
        circle = [1 + LOOP1_RADIUS * cmath.exp(1j * (math.pi + 2 * math.pi * sign * k / POLYGON_SIDES))
                  for k in range(steps + 1)]
        return [complex(JUNCTION)] + circle + [complex(JUNCTION)]
    return [complex(p[0], p[1]) for p in spec["waypoints"]]


def one_letter_logs(points) -> tuple:
    """(integral of dz/z, integral of dz/(1-z)) along a polyline."""
    l0 = sum(cmath.log(b / a) for a, b in zip(points, points[1:]))
    l1 = -sum(cmath.log((1 - b) / (1 - a)) for a, b in zip(points, points[1:]))
    return l0, l1


# --- checks on operation outputs -------------------------------------------------

def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _close(got: complex, want: complex, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _coeffs(out) -> dict:
    return {w: _c(v) for w, v in out["coefficients"].items()}


def _words(level: int) -> list:
    out = [""]
    for n in range(1, level + 1):
        out += [format(i, f"0{n}b") for i in range(2 ** n)]
    return out


def check_series_identities(coeffs: dict, level: int, rng: random.Random, n_pairs: int = 24):
    """Shuffle identities S(u)S(v) = sum over shuffles S(w) on sampled word pairs."""
    get = lambda w: coeffs.get(w, 0j)  # noqa: E731
    if not _close(get(""), 1.0, TOL_SERIES):
        return f"constant term {get('')}"
    for _ in range(n_pairs):
        total = rng.randint(2, level)
        k = rng.randint(1, total - 1)
        u = "".join(rng.choice("01") for _ in range(k))
        v = "".join(rng.choice("01") for _ in range(total - k))
        lhs = get(u) * get(v)
        rhs = sum(m * get(w) for w, m in shuffles(u, v))
        if not _close(rhs, lhs, TOL_SERIES):
            return f"shuffle {u}x{v}: defect {abs(lhs - rhs):.2e}"
    return None


def _check_one_letter(coeffs: dict, l0: complex, l1: complex, level: int):
    for k in range(1, level + 1):
        for letter, base in (("0", l0), ("1", l1)):
            want = base ** k / math.factorial(k)
            got = coeffs.get(letter * k, 0j)
            if not _close(got, want, TOL_SERIES):
                return f"{letter}^{k}: {got} vs {want}"
    return None


def check_signature(args, out):
    level = args["level"]
    if out.get("level") != level:
        return f"level {out.get('level')} != {level}"
    coeffs = _coeffs(out)
    pts = polyline_of(args["path"])
    bad = _check_one_letter(coeffs, *one_letter_logs(pts), level)
    rng = random.Random(repr(args))
    bad = bad or check_series_identities(coeffs, level, rng)
    if bad:
        return bad
    for n in range(2, level + 1):
        w = "".join(rng.choice("01") for _ in range(n))
        want = polyline_word_integral(pts, w)
        if not _close(coeffs.get(w, 0j), want, TOL_SERIES):
            return f"word {w}: {coeffs.get(w, 0j)} vs {want}"
    return None


def check_chen(level: int, whole, first, second):
    """S(first . second) = S(first) S(second) with this module's concatenation."""
    a, b, ab = _coeffs(first), _coeffs(second), _coeffs(whole)
    prod: dict = {}
    for u, cu in a.items():
        for v, cv in b.items():
            if len(u) + len(v) <= level:
                prod[u + v] = prod.get(u + v, 0j) + cu * cv
    for w in _words(level):
        if not _close(ab.get(w, 0j), prod.get(w, 0j), TOL_SERIES):
            return f"Chen identity fails at {w!r}"
    return None


def check_regularized(args, out):
    level, x = args["level"], _c(args["x"])
    if out.get("level") != level:
        return f"level {out.get('level')} != {level}"
    coeffs = _coeffs(out)
    log_x, m_log_1mx, *li = periods(x, level)
    bad = _check_one_letter(coeffs, log_x, m_log_1mx, level)
    if bad:
        return bad
    for n in range(1, level + 1):
        w = "1" + "0" * (n - 1)
        if not _close(coeffs.get(w, 0j), li[n - 1], TOL_SERIES):
            return f"Li_{n}: {coeffs.get(w, 0j)} vs {li[n - 1]} (error {abs(coeffs.get(w, 0j) - li[n - 1]):.2e})"
    return check_series_identities(coeffs, level, random.Random(repr(args)))


def check_iterated_integral(args, out):
    if out.get("word") != args["word"]:
        return "word echoed wrongly"
    want = polyline_word_integral(polyline_of(args["path"]), args["word"])
    got = _c(out["value"])
    if not _close(got, want, TOL_SERIES):
        return f"{got} vs {want}"
    return None


def check_albanese_map(args, out):
    x = _c(args["x"])
    g = out["reduction_matrix"]
    if [g[1][0], g[2][0], g[2][1], g[0][0], g[1][1], g[2][2]] != [0, 0, 0, 1, 1, 1]:
        return f"reduction matrix {g} is not unipotent upper triangular"
    want = act((g[1][2], g[0][1], g[0][2]), albanese_raw(x))
    got = tuple(_c(out[k]) for k in ("alpha", "beta", "lambda"))
    for name, gv, wv in zip(("alpha", "beta", "lambda"), got, want):
        if abs(gv - wv) > TOL_COORD:
            return f"{name}: {gv} vs {wv} (error {abs(gv - wv):.2e})"
        if not -2 * SNAP <= gv.real < 1:
            return f"{name} real part {gv.real} outside [0, 1)"
    return None


def check_extension(args, out):
    x = _c(args["x"])
    _alpha, beta, lam = albanese_raw(x)
    if abs(_c(out["q"]) - x) > 1e-15:
        return f"q = {out['q']} is not x"
    for name, gv, wv in (("beta", _c(out["beta"]), beta), ("lambda", _c(out["lambda"]), lam)):
        if abs(gv - wv) > TOL_COORD:
            return f"{name}: {gv} vs {wv}"
    return None


def check_monodromy(args, out):
    want = [list(r) for r in monodromy_of_word(args["word"])]
    if out["matrix"] != want:
        return f"{out['matrix']} vs {want}"
    if args.get("commutator"):
        g = out["matrix"]
        if (g[1][2], g[0][1], abs(g[0][2])) != (0, 0, 1):
            return f"commutator gives {g}"
    return None


def _fr(data: dict) -> dict:
    return {w: Fraction(c) for w, c in data.items()}


def _exact_out(out) -> dict:
    return _fr(out["series"]["coefficients"])


def check_malcev_coords(args, out):
    coords = _fr(out["coordinates"])
    if any(len(w) > args["level"] or not _is_lyndon(w) for w in coords):
        return "coordinates outside the Lyndon basis"
    if lie_element(coords) != group_word_log(args["word"], args["level"]):
        return "Lyndon re-expansion differs from log of the group word"
    return None


def check_bch(args, out):
    level = args["level"]
    lhs = fexp(_exact_out(out), level)
    rhs = fconcat(fexp(_fr(args["a"]), level), fexp(_fr(args["b"]), level), level)
    return None if lhs == rhs else "exp(bch(a, b)) != exp(a) exp(b)"


def check_exp(args, out):
    return None if _exact_out(out) == fexp(_fr(args["series"]), args["level"]) else "exp differs"


def check_log(args, out):
    return None if _exact_out(out) == flog(_fr(args["series"]), args["level"]) else "log differs"


def check_classify(args, out):
    return None if out["class"] == args["expect"] else f"{out['class']} vs {args['expect']}"


def check_hall_dims(args, out):
    want = [witt(n) for n in range(1, args["r"] + 1)]
    if out["dims"] != want or out["total"] != sum(want):
        return f"{out['dims']} vs Witt {want}"
    return None


def check_shuffle(args, out):
    want = shuffle_elements(_fr(args["a"]), _fr(args["b"]))
    return None if _fr(out["product"]) == want else "shuffle product differs"


def check_orbit(args, out):
    a, b, c = (Fraction(v) for v in args["N"])
    alpha, beta, _lam = (Fraction(v) for v in args["F"])
    defect = c - (a * beta - b * alpha)
    if out["generates"] != (defect == 0) or Fraction(out["criterion_defect"]) != defect:
        return f"generates={out['generates']} defect={out['criterion_defect']}, want {defect}"
    if out["admissible"] is not True:
        return "this lattice always has a relative monodromy filtration"
    return None


# --- relative monodromy filtrations, re-checked with sympy -----------------------------

def _sympy():
    import sympy   # on first use: only the RMF checks need it, and it takes about a second
    return sympy


def _rank(rows) -> int:
    return _sympy().Matrix(rows).rank() if rows else 0


def _intersection(u, v) -> list:
    """Spanning set of span(u) & span(v)."""
    if not u or not v:
        return []
    sp = _sympy()
    stacked = sp.Matrix(u).T.row_join(-sp.Matrix(v).T)
    out = []
    for sol in stacked.nullspace():
        vec = sp.Matrix([list(sol[: len(u)])]) * sp.Matrix(u)
        out.append(list(vec))
    return out


def _apply(mat, vecs, k=1):
    sp = _sympy()
    m = sp.Matrix(mat) ** k
    return [list(m * sp.Matrix(v)) for v in vecs]


def _step(filt: dict, k: int) -> list:
    best = None
    for w in filt:
        if w <= k and (best is None or w > best):
            best = w
    return filt[best] if best is not None else []


def rmf_conditions(matrix, weights, filtration) -> str | None:
    """Both defining conditions of the relative monodromy filtration M of (N, W)."""
    sp = _sympy()
    mat = [[sp.Rational(x) for x in row] for row in matrix]
    dim = len(mat)
    w_f = {int(k): [[sp.Rational(x) for x in v] for v in vs] for k, vs in weights.items()}
    m_f = {int(k): [[sp.Rational(x) for x in v] for v in vs] for k, vs in filtration.items()}
    if not m_f or _rank(_step(m_f, max(m_f))) != dim:
        return "M is not exhaustive"
    for k in m_f:
        low = _step(m_f, k - 2)
        if _rank(low + _apply(mat, m_f[k])) != _rank(low):
            return f"N M_{k} is not inside M_{k - 2}"
    span = max(m_f) - min(m_f) + 2
    w_jumps = sorted(w_f)
    for idx, j in enumerate(w_jumps):
        w_hi, w_lo = w_f[j], (w_f[w_jumps[idx - 1]] if idx else [])

        cache: dict = {}

        def a(level):
            if level not in cache:
                cache[level] = _intersection(_step(m_f, level), w_hi)
            return cache[level]

        def graded_dim(level):
            return _rank(a(level) + w_lo) - _rank(a(level - 1) + w_lo)

        for k in range(1, span + 1):
            src, dst = graded_dim(j + k), graded_dim(j - k)
            base = a(j - k - 1) + w_lo
            image = _rank(_apply(mat, a(j + k), k) + base) - _rank(base)
            if not src == dst == image:
                return f"N^{k} is not an isomorphism Gr^M_{j + k} -> Gr^M_{j - k} on Gr^W_{j}"
    return None


def check_rmf(args, out):
    if not out.get("exists"):
        return "no filtration returned, but one exists by construction"
    return rmf_conditions(args["matrix"], args["weights"], out["filtration"])


def check_rmf_brute(args, out):
    sols = out["solutions"]
    if len(sols) != 1:
        return f"{len(sols)} solutions; the relative monodromy filtration is unique"
    return rmf_conditions(args["matrix"], args["weights"], sols[0])


def check_selftest(args, out):
    crit = out.get("criteria", [])
    if out.get("passed") is not True or out.get("failures") != 0 or not crit:
        return f"selftest reports passed={out.get('passed')} failures={out.get('failures')}"
    bad = [c["name"] for c in crit if not c["passed"]]
    return f"criteria failed: {bad}" if bad else None


CHECKS = {
    "alb_map": check_albanese_map,
    "alb_extend": check_extension,
    "alb_monodromy": check_monodromy,
    "ii_signature": check_signature,
    "ii_regularized": check_regularized,
    "ii_eval": check_iterated_integral,
    "malcev_coords": check_malcev_coords,
    "malcev_bch": check_bch,
    "malcev_exp": check_exp,
    "malcev_log": check_log,
    "malcev_classify": check_classify,
    "malcev_hall_dims": check_hall_dims,
    "words_shuffle": check_shuffle,
    "hodge_orbit": check_orbit,
    "hodge_rmf": check_rmf,
    "rmf_brute": check_rmf_brute,
    "selftest": check_selftest,
}


def check_output(op: dict, out: dict) -> str | None:
    """None when the output of the operation is right, else the reason it is not."""
    if "error" in out:
        return f"raised {out['error']}"
    if op["op"] == "batch":
        results = out.get("results", [])
        if len(results) != len(op["requests"]):
            return "batch answered a different number of requests"
        for req, res in zip(op["requests"], results):
            if res.get("exit_code") != 0:
                return f"batch request {req['op']} exited {res.get('exit_code')}"
            bad = CHECKS[req["op"]](req["args"], res["output"])
            if bad:
                return f"batch request {req['op']}: {bad}"
        return None
    try:
        return CHECKS[op["op"]](op["args"], out)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
