"""Acceptance suite: the quantitative exit criteria of the build.

Each criterion is a function returning a structured result with its
pinned tolerance, so the suite can run from pytest and from the CLI
selftest alike.  The float criteria run at the quadrature tolerance
``integrals.ABS_TOL``.  Failures are counted, never raised: a computation
that misses its tolerance or raises must produce a quantified red report,
not a crash.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg
from .albanese import (albanese_point, check_lie_action, extended_albanese,
                       monodromy_action, monodromy_logarithms, raw_coordinates,
                       regression_constants)
from .hodge import (LAMBDA, TWO_PI_I, Heisenberg, NilpotentEndo, WeightFiltrationGeneric,
                    boundary_chart_point, griffiths_transversal, hodge_filtration_from,
                    relative_monodromy_filtration, verify_relative_monodromy)
from .errors import DomainError
from .integrals import regularized_signature, signature
from .malcev import ExactSeries, GroupWord, bch, hall_dims, malcev_coordinates
from .paths import Path, make_path
from .series import shuffle_defect
from .words import word_basis


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    tolerance: float
    max_error: float
    checks: int
    failures: int
    elapsed: float
    details: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.number:2d} {self.name}: "
                f"max_err={self.max_error:.3e} tol={self.tolerance:.1e} "
                f"checks={self.checks} failures={self.failures} ({self.elapsed:.1f}s)"
                + (f" -- {self.details}" if self.details else ""))

    def to_json(self) -> dict:
        return {"number": self.number, "name": self.name, "passed": self.passed,
                "tolerance": self.tolerance, "max_error": self.max_error,
                "checks": self.checks, "failures": self.failures,
                "elapsed_seconds": round(self.elapsed, 3), "details": self.details}


def _result(number, name, tol, errors, start, details="", hard_failures=0):
    errors = list(errors)
    max_err = max(errors, default=0.0)
    failures = sum(1 for e in errors if e > tol) + hard_failures
    return CriterionResult(number, name, failures == 0, tol, max_err,
                           len(errors) + hard_failures, failures,
                           time.time() - start, details)


# Sampling constants: each seeded criterion's seed, and the sizes that quick and full share
SHUFFLE_SEED, COMPOSITION_SEED, ORBIT_SEED, RMF_SEED = 11, 23, 5, 17
MONODROMY_SEED, MALCEV_SEED, DIFFERENTIAL_SEED = 31, 41, 59
MONODROMY_WORDS, DIFFERENTIAL_POINTS = 10, 10   # random words of criterion 6, points of 11
PATH_MARGIN = 0.15   # distance of a random interior path from both punctures
FRACTION_NUM_MAX, FRACTION_DEN_MAX = 8, 6   # random rationals p/q, |p| <= 8, 1 <= q <= 6


def random_interior_path(rng, n_waypoints: int) -> Path:
    """Random polyline staying PATH_MARGIN away from both punctures."""
    while True:
        pts = [complex(rng.uniform(-1.2, 2.0), rng.uniform(-1.0, 1.0))
               for _ in range(n_waypoints)]
        try:
            path = make_path({"waypoints": [[p.real, p.imag] for p in pts]})
        except DomainError:   # a waypoint or segment on a puncture
            continue
        if all(seg.min_distance(p) >= PATH_MARGIN for seg in path.segments for p in (0, 1)):
            return path


# --- criteria -------------------------------------------------------------------

def criterion_dilog_anchor() -> CriterionResult:
    start = time.time()
    target = math.pi ** 2 / 12 - math.log(2) ** 2 / 2
    try:
        value = regularized_signature(0.5, 2).coefficient("10")
    except Exception as exc:
        return _result(1, "dilog anchor", 1e-8, [], start, f"exception: {exc}", 1)
    return _result(1, "dilog anchor", 1e-8, [abs(value - target)], start,
                   "Li_2(1/2) = pi^2/12 - log(2)^2/2 against the regularized signature")


def criterion_shuffle_suite(n_paths: int = 50) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(SHUFFLE_SEED)
    pairs = [(u, v) for u in word_basis(3) for v in word_basis(3)
             if u and v and len(u) + len(v) <= 4]
    errors = []
    hard = 0
    for _ in range(n_paths):
        path = random_interior_path(rng, n_waypoints=int(rng.integers(2, 5)))
        try:
            sig = signature(path, 4)
        except Exception:
            hard += 1
            continue
        for u, v in pairs:
            errors.append(abs(shuffle_defect(sig, u, v)))
    return _result(2, "shuffle suite", 1e-9, errors, start,
                   f"{len(pairs)} word pairs x {n_paths} paths", hard)


def criterion_composition_suite(n_splits: int = 50) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(COMPOSITION_SEED)
    errors = []
    hard = 0
    for _ in range(n_splits):
        path = random_interior_path(rng, n_waypoints=int(rng.integers(3, 6)))
        cut = int(rng.integers(1, len(path.segments)))
        first = Path(path.segments[:cut])
        second = Path(path.segments[cut:])
        try:
            whole = signature(path, 3)
            glued = signature(first, 3).mul(signature(second, 3))
            errors.append(whole.distance(glued))
        except Exception:
            hard += 1
    return _result(3, "composition suite", 1e-9, errors, start,
                   f"{n_splits} random splits at level 3", hard)


def _random_fraction(rng) -> Fraction:
    return Fraction(int(rng.integers(-FRACTION_NUM_MAX, FRACTION_NUM_MAX + 1)),
                    int(rng.integers(1, FRACTION_DEN_MAX + 1)))


def criterion_orbit_criterion(n_random: int = 1000) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(ORBIT_SEED)
    mismatches = 0
    checks = 0
    small = [Fraction(v) for v in (-1, 0, 1)] + [Fraction(1, 2)]
    grid = itertools.product(small[:3], small[:3], small[:3], small, small, [Fraction(0), Fraction(1)])
    cases = list(grid)
    for _ in range(n_random):
        cases.append(tuple(_random_fraction(rng) for _ in range(6)))
    for a, b, c, alpha, beta, lam in cases:
        n = NilpotentEndo(a, b, c)
        f = hodge_filtration_from(alpha, beta, lam)
        criterion = (c == a * beta - b * alpha)
        transversal = griffiths_transversal(n, f)
        checks += 1
        if criterion != transversal:
            mismatches += 1
    return _result(4, "nilpotent-orbit criterion", 0.0, [float(mismatches)], start,
                   f"{checks} exact instances (grid + random), {mismatches} discrepancies")


def _random_rmf_instance(rng):
    """Random (N, W) on dimension <= 4 with N nilpotent preserving W."""
    dim = int(rng.integers(2, 5))
    # random weight profile
    n_jumps = int(rng.integers(1, min(dim, 3) + 1))
    weights = sorted(rng.choice(np.arange(-3, 4), size=n_jumps, replace=False).tolist())
    sizes = [1] * n_jumps
    for _ in range(dim - n_jumps):
        sizes[int(rng.integers(0, n_jumps))] += 1
    # adapted basis: W-blocks of the given sizes; N block-triangular with
    # strictly upper-triangular diagonal blocks (nilpotent on each graded piece)
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    starts = np.cumsum([0] + sizes).tolist()
    for bi in range(n_jumps):
        for bj in range(bi, n_jumps):
            for i in range(starts[bi], starts[bi + 1]):
                for j in range(starts[bj], starts[bj + 1]):
                    if bi == bj and i >= j:
                        continue
                    if rng.random() < 0.5:
                        mat[i][j] = Fraction(int(rng.integers(-2, 3)))
    w_dict = {weights[k]: [[Fraction(int(i == j)) for j in range(dim)]
                           for i in range(starts[k + 1])] for k in range(n_jumps)}
    w = WeightFiltrationGeneric.from_dict(w_dict, dim)
    return mat, w


LATTICE_CAP = 160   # subspaces _lattice_subspaces collects before it stops closing


def _lattice_subspaces(mat, w: WeightFiltrationGeneric):
    """Closed-ish lattice of subspaces generated by W, kernels, and images.

    ``mat`` is an integer matrix; the subspaces are canonical values, so a
    dict keyed by them is the set of those found so far, in order.
    """
    dim = w.dim
    # kernels and images of all powers, the weight steps, and their N-transforms
    gens = [linalg.Subspace.zero(dim), linalg.Subspace.full(dim)]
    power = mat
    for _ in range(dim):
        gens.append(linalg.nullspace(power, dim))
        gens.append(linalg.image(power))
        power = linalg.product(power, mat)
    for weight in w.jumps:
        sub = w.subspace(weight)
        gens.append(sub)
        gens.append(linalg.image(mat, sub))
        gens.append(linalg.preimage(mat, sub))
    seen = dict.fromkeys(gens)
    for _ in range(2):
        new = []
        items = list(seen)
        for a in items:
            for b in items:
                for combo in (linalg.intersect(a, b), linalg.join(a, b)):
                    if combo not in seen:
                        seen[combo] = None
                        new.append(combo)
                if len(seen) > LATTICE_CAP:
                    break
            if len(seen) > LATTICE_CAP:
                break
        if not new or len(seen) > LATTICE_CAP:
            break
    return list(seen)


def rmf_profile(mat, w: WeightFiltrationGeneric) -> dict[int, int]:
    """dim gr_k M that the relative monodromy filtration must have, {k: dim}.

    Read off the Jordan type of N on each graded piece of W: with
    r_j = rank N_gr^j, there are r_{s-1} - 2 r_s + r_{s+1} blocks of size
    s, and each adds one dimension at w + s - 1 - 2i for i < s.  Only
    ranks, no subspace of the construction.
    """
    profile: dict[int, int] = {}
    for weight in w.jumps:
        basis, coords = linalg.graded_piece(w.subspace(weight - 1), w.subspace(weight))
        graded = [list(col) for col in zip(*[coords(linalg.apply(mat, v)) for v in basis])]
        ranks, power = [len(basis)], graded
        for _ in basis:   # r_j for j <= d; N_gr^d = 0 on a piece of dimension d
            ranks.append(linalg.rank(power))
            power = linalg.product(power, graded)
        ranks.append(0)
        for s in range(1, len(ranks) - 1):
            blocks = ranks[s - 1] - 2 * ranks[s] + ranks[s + 1]
            for i in range(s):
                k = weight + s - 1 - 2 * i
                profile[k] = profile.get(k, 0) + blocks
    return {k: d for k, d in profile.items() if d}


def rmf_brute_force(mat, w: WeightFiltrationGeneric):
    """All filtrations satisfying both characterizing conditions, found by
    searching nested chains in a lattice of natural subspaces.  Dimension
    profiles are forced by the graded Jordan data (``rmf_profile``), which
    keeps the search tiny; used as the independent oracle for the
    constructive route."""
    dim = w.dim
    mat = linalg.integer_matrix(mat)
    profile = rmf_profile(mat, w)
    ks = sorted(profile)
    cum = 0
    target_dims = []
    for k in ks:
        cum += profile[k]
        target_dims.append((k, cum))
    candidates = _lattice_subspaces(mat, w)
    by_dim: dict[int, list] = {}
    for c in candidates:
        by_dim.setdefault(c.dim, []).append(c)
    solutions = []

    def extend(level: int, chosen: list):
        if level == len(target_dims):
            filt = WeightFiltrationGeneric.from_subspaces(
                {k: chosen[i] for i, (k, _) in enumerate(target_dims)}, dim)
            if verify_relative_monodromy(mat, w, filt):
                if all(filt != s for s in solutions):
                    solutions.append(filt)
            return
        k, d = target_dims[level]
        # N must already map the candidate into the chosen filtration at k-2
        low = linalg.Subspace.zero(dim)
        for (kk, _), c in zip(target_dims[:level], chosen):
            if kk <= k - 2:
                low = c
        for cand in by_dim.get(d, []):
            if chosen and not chosen[-1] <= cand:
                continue
            if not all(linalg.apply(mat, v) in low for v in cand.rows):
                continue
            extend(level + 1, chosen + [cand])

    extend(0, [])
    return solutions


def criterion_rmf(n_cases: int = 200) -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(RMF_SEED)
    failures = 0
    checks = 0
    found_both = 0
    for _ in range(n_cases):
        mat, w = _random_rmf_instance(rng)
        checks += 1
        ours = relative_monodromy_filtration(mat, w)
        if ours is not None and not verify_relative_monodromy(mat, w, ours):
            failures += 1
            continue
        search = rmf_brute_force(mat, w)
        if ours is None:
            if search:
                failures += 1
        else:
            if len(search) != 1 or search[0] != ours:
                failures += 1
            else:
                found_both += 1
    # the worked rank-3 instance, verified explicitly
    m = relative_monodromy_filtration(NilpotentEndo(1, 0, 0), LAMBDA.weights)
    checks += 1
    if m is None or not verify_relative_monodromy(NilpotentEndo(1, 0, 0), LAMBDA.weights, m):
        failures += 1
    return _result(5, "relative monodromy filtration", 0.0, [float(failures)], start,
                   f"{checks} instances, search confirmed {found_both}")


def _gap(g: Heisenberg, h: Heisenberg) -> float:
    return float(max(abs(g.a - h.a), abs(g.b - h.b), abs(g.c - h.c)))


def criterion_monodromy_integrality() -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(MONODROMY_SEED)
    frozen = regression_constants()["monodromy_matrices"]
    errors = []
    hard = 0
    basic = {}
    for name, word in (("gamma0", "0"), ("gamma1", "1")):
        try:
            basic[word] = Heisenberg.of(monodromy_action(word).tolist())
            errors.append(_gap(basic[word], Heisenberg.of(frozen[name])))
        except Exception:
            hard += 1
    basic.update({word + "^-1": g.inverse() for word, g in list(basic.items())})
    words = []
    for _ in range(MONODROMY_WORDS):
        length = int(rng.integers(1, 5))
        letters = [str(rng.integers(0, 2)) + ("" if rng.random() < 0.5 else "^-1")
                   for _ in range(length)]
        words.append(" ".join(letters))
    for word in words:
        try:   # a generator that failed above fails every word that uses it
            g = Heisenberg.of(monodromy_action(word).tolist())
            expected = math.prod((basic[tok] for tok in word.split()), start=Heisenberg(0, 0, 0))
        except Exception:
            hard += 1
            continue
        errors.append(_gap(g, expected))
    return _result(6, "monodromy integrality + homomorphy", 1e-6, errors, start,
                   f"gamma0, gamma1 and {MONODROMY_WORDS} random words", hard)


def criterion_heisenberg() -> CriterionResult:
    start = time.time()
    try:
        g = Heisenberg.of(monodromy_action("0 1 0^-1 1^-1").tolist())
    except Exception as exc:
        return _result(7, "Heisenberg commutator", 0.0, [], start, f"exception: {exc}", 1)
    ok = (g.a == 0 and g.b == 0 and abs(g.c) == 1)
    return _result(7, "Heisenberg commutator", 0.0, [0.0 if ok else 1.0], start,
                   f"commutator (a,b,c) = ({g.a},{g.b},{g.c})")


def criterion_boundary_limit() -> CriterionResult:
    start = time.time()
    xs = [10.0 ** (-k) for k in range(1, 5)]
    errors = []
    hard = 0
    prev_mods = None
    for x in xs:
        try:
            q, beta, lam = extended_albanese(x)
        except Exception:
            hard += 1
            continue
        mods = (abs(q), abs(beta), abs(lam))
        if prev_mods is not None and not all(m < p for m, p in zip(mods, prev_mods)):
            errors.append(1.0)
        prev_mods = mods
        bound_defect = max(abs(beta) - 2 * x, abs(lam) - 2 * x, 0.0)
        errors.append(bound_defect)
        chart = boundary_chart_point(q, beta, lam)
        direct = albanese_point(x)
        errors.append(max(abs(a - b) for a, b in zip(chart.coords, direct.coords)))
    return _result(8, "boundary limit and chart consistency", 1e-8, errors, start,
                   "x = 1e-1 .. 1e-4 on the real axis", hard)


def criterion_malcev_exactness() -> CriterionResult:
    start = time.time()
    failures = 0
    checks = 0

    def check(ok):
        nonlocal failures, checks
        checks += 1
        if not ok:
            failures += 1

    check(hall_dims(2) == [2, 1])
    e0 = ExactSeries.letter("0", 2)
    e1 = ExactSeries.letter("1", 2)
    expected = e0.add(e1).add(e0.bracket(e1).scale(Fraction(1, 2)))
    check(bch(e0, e1).coeffs == expected.coeffs)
    rng = np.random.default_rng(MALCEV_SEED)
    for _ in range(5):
        a = ExactSeries(2, {"0": _random_fraction(rng), "1": _random_fraction(rng)})
        b = ExactSeries(2, {"0": _random_fraction(rng), "1": _random_fraction(rng)})
        expected = a.add(b).add(a.bracket(b).scale(Fraction(1, 2)))
        check(bch(a, b).coeffs == expected.coeffs)
    e0_3 = ExactSeries.letter("0", 3)
    e1_3 = ExactSeries.letter("1", 3)
    from .malcev import hall_coordinates
    coords = hall_coordinates(bch(e0_3, e1_3))
    check(coords.get("001") == Fraction(1, 12))
    for word in ("0 1 0^-1 1^-1", "1 0 1^-1 0^-1"):
        inverse = str(GroupWord.from_string(word).inverse())
        for gen in "01":
            check(malcev_coordinates(f"{gen} {word} {gen}^-1 {inverse}", 2) == {})
    return _result(9, "malcev exactness", 0.0, [float(failures)], start,
                   f"{checks} exact identities")


def criterion_mhs_morphism() -> CriterionResult:
    start = time.time()
    try:
        logs = monodromy_logarithms()
    except Exception as exc:
        return _result(10, "MHS morphism check", 0.0, [], start, f"exception: {exc}", 1)
    ok = check_lie_action(logs)["passes"]
    perturbed = {"N0": [[0, 0, 1], [0, 0, 1], [0, 0, 0]], "N1": logs["N1"]}
    detects = not check_lie_action(perturbed)["passes"]
    return _result(10, "MHS morphism check", 0.0,
                   [0.0 if (ok and detects) else 1.0], start,
                   f"log M0 and log M1 {'pass' if ok else 'fail'}; "
                   f"perturbed N0 {'detected' if detects else 'missed'}")


def criterion_differential_relation() -> CriterionResult:
    start = time.time()
    rng = np.random.default_rng(DIFFERENTIAL_SEED)
    h = 1e-4
    errors = []
    hard = 0
    for _ in range(DIFFERENTIAL_POINTS):
        x = complex(rng.uniform(0.15, 0.85), rng.uniform(0.1, 0.8) * (1 if rng.random() < 0.5 else -1))
        step = h * complex(math.cos(a := rng.uniform(0, 2 * math.pi)), math.sin(a))
        try:
            a0, b0, l0 = raw_coordinates(x)
            ap, bp, lp = raw_coordinates(x + step)
            am, bm, lm = raw_coordinates(x - step)
        except Exception:
            hard += 1
            continue
        dalpha, dbeta, dlam = (ap - am) / 2, (bp - bm) / 2, (lp - lm) / 2
        errors.append(abs(dalpha - step / x / TWO_PI_I))
        errors.append(abs(dbeta - step / (1 - x) / TWO_PI_I))
        errors.append(abs(dlam - b0 * dalpha))
    return _result(11, "coordinate differential relations", 1e-6, errors, start,
                   f"central differences at step {h:g} on {DIFFERENTIAL_POINTS} points", hard)


ALL_CRITERIA = [
    criterion_dilog_anchor,
    criterion_shuffle_suite,
    criterion_composition_suite,
    criterion_orbit_criterion,
    criterion_rmf,
    criterion_monodromy_integrality,
    criterion_heisenberg,
    criterion_boundary_limit,
    criterion_malcev_exactness,
    criterion_mhs_morphism,
    criterion_differential_relation,
]


def run_acceptance(level: str = "full") -> list[CriterionResult]:
    """Run the suite.  "quick" trims the sampling; "full" is the gate."""
    if level == "quick":
        return [
            criterion_dilog_anchor(),
            criterion_shuffle_suite(n_paths=6),
            criterion_composition_suite(n_splits=6),
            criterion_orbit_criterion(n_random=200),
            criterion_rmf(n_cases=25),
            criterion_heisenberg(),
            criterion_malcev_exactness(),
            criterion_mhs_morphism(),
        ]
    if level != "full":
        raise ValueError("selftest level must be 'quick' or 'full'")
    return [fn() for fn in ALL_CRITERIA]
