"""The rank-3 period domain and its rank-1 toroidal boundary chart.

The lattice data is the fixed rank-3 example: weights -4, -2, 0 with
one-dimensional graded pieces, Hodge numbers concentrated in types
(0,0), (-1,-1), (-2,-2).  Filtrations F(alpha, beta, lambda) biject
with unipotent upper-triangular matrices; a nilpotent direction
(a, b, c) pairs with F into a nilpotent orbit exactly when
c = a*beta - b*alpha, which this module decides both by the closed
criterion and independently by rank computations.

Exact rational arithmetic is used whenever every input is rational;
otherwise a float path with tolerance 1e-12 takes over.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import DomainError

CRITERION_TOL = 1e-12
TWO_PI_I = 2j * math.pi


def _is_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def _re(v):
    return v.real if isinstance(v, complex) else v


REDUCE_SNAP = 1e-9


def _floor_int(v) -> int:
    """Floor of the real part; inexact values snap up across a 1e-9 gap.

    Continuation returns to the boundary of the fundamental domain with
    roundoff on either side; without the snap, 1 - 1e-16 and 1 + 1e-16
    would reduce to representatives a full unit apart.
    """
    r = _re(v)
    if _is_exact(r):
        return math.floor(r)
    if not math.isfinite(r):
        raise DomainError(f"coordinates to reduce must be finite, got {v}")
    return math.floor(r + REDUCE_SNAP)


# --- weight filtrations --------------------------------------------------------

@dataclass(frozen=True)
class WeightFiltrationGeneric:
    """Increasing exhaustive filtration of Q^n given by cumulative spanning sets."""

    steps: tuple = ()   # ((weight, rref-basis), ...) sorted, strictly growing spans
    dim: int = 0

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "WeightFiltrationGeneric":
        steps = []
        prev: list = []
        for w in sorted(data):
            basis = linalg.span_basis([list(map(Fraction, v)) for v in data[w]])
            if not linalg.subspace_leq(prev, basis):
                raise DomainError("weight filtration is not nested")
            if len(basis) > len(prev):
                steps.append((w, tuple(tuple(v) for v in basis)))
            prev = basis
        if len(prev) != dim:
            raise DomainError("weight filtration is not exhaustive")
        return cls(tuple(steps), dim)

    def subspace(self, w: int) -> list:
        out: list = []
        for weight, basis in self.steps:
            if weight <= w:
                out = [list(v) for v in basis]
        return out

    @property
    def jumps(self) -> list[int]:
        return [w for w, _ in self.steps]

    def graded_dim(self, w: int) -> int:
        return len(self.subspace(w)) - len(self.subspace(w - 1))

    def to_json(self) -> dict:
        return {str(w): [[str(x) for x in v] for v in basis] for w, basis in self.steps}


# --- the fixed rank-3 lattice ----------------------------------------------------

@dataclass(frozen=True)
class LambdaData:
    """Rank-3 lattice with weights -4, -2, 0 and one Hodge type per weight."""

    rank: int = 3
    basis_names: tuple = ("e1", "e2", "e3")
    weights: WeightFiltrationGeneric = field(default_factory=lambda: WeightFiltrationGeneric.from_dict(
        {-4: [[1, 0, 0]], -2: [[1, 0, 0], [0, 1, 0]], 0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 3))
    # <e_j, e_j>_w = 1 on gr_w for the single generator of each graded piece
    pairings: tuple = ((0, 1), (-2, 1), (-4, 1))
    hodge_numbers: tuple = (((0, 0), 1), ((-1, -1), 1), ((-2, -2), 1))
    basis_weights: tuple = (-4, -2, 0)
    basis_types: tuple = ((-2, -2), (-1, -1), (0, 0))


LAMBDA = LambdaData()


# --- Hodge filtrations ------------------------------------------------------------

@dataclass(frozen=True)
class HodgeFiltration:
    """Decreasing flag F^0 ⊂ F^{-1} ⊂ F^{-2} = C^3 with dims (1, 2, 3)."""

    f0: tuple           # one generator
    fm1: tuple          # two generators (the first is the F^0 one)

    def __post_init__(self):
        if len(self.f0) != 1 or len(self.fm1) != 2:
            raise DomainError("flag needs dims (1, 2)")
        if self.exact:
            if linalg.rank([list(v) for v in self.fm1]) != 2:
                raise DomainError("F^{-1} generators are dependent")
        elif linalg.float_rank([list(map(complex, v)) for v in self.fm1]) != 2:
            raise DomainError("F^{-1} generators are dependent")

    @property
    def exact(self) -> bool:
        return all(_is_exact(*v) for v in self.fm1)

    def generators(self, p: int) -> list:
        if p >= 1:
            return []
        if p == 0:
            return [list(self.f0[0])]
        if p == -1:
            return [list(v) for v in self.fm1]
        return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def coordinates(self):
        """Recover (alpha, beta, lambda); inverse of hodge_filtration_from."""
        g = self.f0[0]
        if g[2] == 0:
            raise DomainError("flag is not in the unipotent orbit of the base flag")
        lam, alpha = g[0] / g[2], g[1] / g[2]
        # beta from a generator of F^{-1} that keeps an e2 part modulo F^0
        beta = None
        for w in self.fm1:
            u = [w[0] - w[2] * lam, w[1] - w[2] * alpha, 0]  # subtract the F^0 part
            if u[1] != 0:
                beta = u[0] / u[1]
                break
        if beta is None:
            raise DomainError("flag is not in the unipotent orbit of the base flag")
        return alpha, beta, lam


def hodge_filtration_from(alpha, beta, lam) -> HodgeFiltration:
    """The flag with F^0 = <e3 + alpha e2 + lambda e1>, F^{-1} adding e2 + beta e1."""
    one = Fraction(1) if _is_exact(alpha, beta, lam) else 1.0
    zero = one - one
    g0 = (lam, alpha, one)
    g1 = (beta, one, zero)
    return HodgeFiltration((g0,), (g0, g1))


@dataclass(frozen=True)
class NilpotentEndo:
    """Rational map with N e3 = a e2 + c e1, N e2 = b e1, N e1 = 0."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))

    def matrix(self) -> list:
        z, a, b, c = Fraction(0), self.a, self.b, self.c
        return [[z, b, c], [z, z, a], [z, z, z]]


def unipotent_matrix(a: int, b: int, c: int):
    import numpy as np
    return np.array([[1, b, c], [0, 1, a], [0, 0, 1]], dtype=object)


def coordinate_action(g, coords):
    """Left multiplication by [[1,b,c],[0,1,a],[0,0,1]] on (alpha, beta, lambda)."""
    a, b, c = g[1][2], g[0][1], g[0][2]
    alpha, beta, lam = coords
    return alpha + a, beta + b, lam + b * alpha + c


def griffiths_transversal(n: NilpotentEndo, f: HodgeFiltration) -> bool:
    """N F^p ⊆ F^{p-1} for all p, by span membership (exact when possible)."""
    mat = n.matrix()
    exact = f.exact
    for p in (0, -1):
        target = f.generators(p - 1)
        for v in f.generators(p):
            if exact:
                image = linalg.matvec(mat, [Fraction(x) for x in v])
                if not linalg.in_span(target, image):
                    return False
            else:
                import numpy as np
                nm = np.array([[float(x) for x in row] for row in mat], dtype=complex)
                image = list(nm @ np.array([complex(x) for x in v]))
                if not linalg.float_in_span([[complex(x) for x in w] for w in target], image):
                    return False
    return True


@dataclass(frozen=True)
class OrbitResult:
    generates: bool
    criterion_defect: object      # c - (a*beta - b*alpha)
    transversal: bool
    admissible: bool
    reason: str

    def __bool__(self) -> bool:
        return self.generates


def generates_nilpotent_orbit(n: NilpotentEndo, f: HodgeFiltration) -> OrbitResult:
    """Nilpotent-orbit criterion for (R_{>=0} N, F): c = a*beta - b*alpha.

    Admissibility is decided by actually computing the relative
    monodromy filtration, and positivity at infinity is vacuous here
    because the period domain is the whole unipotent group; the result
    is cross-checked against the rank-based transversality route.
    """
    alpha, beta, lam = f.coordinates()
    defect = n.c - (n.a * beta - n.b * alpha)
    if _is_exact(alpha, beta, lam):
        criterion = defect == 0
    else:
        criterion = abs(complex(defect)) <= CRITERION_TOL
    transversal = griffiths_transversal(n, f)
    if criterion != transversal:
        raise RuntimeError(
            f"criterion and transversality disagree at N={n}, coords={(alpha, beta, lam)}")
    m = relative_monodromy_filtration(n, LAMBDA.weights)
    admissible = m is not None
    generates = criterion and admissible
    reason = "criterion c = a*beta - b*alpha " + ("holds" if criterion else
                                                  f"fails (defect {defect})")
    if not admissible:
        reason += "; no relative monodromy filtration"
    return OrbitResult(generates, defect, transversal, admissible, reason)


# --- relative monodromy filtrations ------------------------------------------------

def _matrix_of(n) -> list:
    if isinstance(n, NilpotentEndo):
        return n.matrix()
    return [[Fraction(x) for x in row] for row in n]


def _nilpotency_index(mat) -> int:
    n = len(mat)
    power = mat
    for k in range(1, n + 2):
        if all(x == 0 for row in power for x in row):
            return k
        power = linalg.matmul(power, mat)
    raise DomainError("matrix is not nilpotent")


def pure_monodromy_filtration(mat, center: int) -> dict:
    """Monodromy filtration of a nilpotent matrix centered at ``center``.

    M_{c+k} = sum over j >= max(k, 0) of ker(N^{j+1}) ∩ im(N^{j-k}).
    """
    n = len(mat)
    m = _nilpotency_index(mat)
    kernels = {j: linalg.nullspace(linalg.mat_power(mat, j)) for j in range(0, m + 1)}
    images = {j: linalg.image(linalg.mat_power(mat, j)) for j in range(0, m + 1)}
    out = {}
    for k in range(-m, m):
        pieces: list = []
        for j in range(max(k, 0), m):
            if j - k >= m:
                continue   # that power of N is zero, so its image contributes nothing
            pieces = linalg.add_spans(pieces, linalg.intersect(kernels[j + 1], images[j - k]))
        out[center + k] = pieces
    out[center + m - 1] = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return out


def _restrict_matrix(mat, basis):
    """Matrix of the restriction of ``mat`` to span(basis), in that basis."""
    out = []
    for v in basis:
        image = linalg.matvec(mat, v)
        coeffs = linalg.solve_in_span(basis, image)
        if coeffs is None:
            raise DomainError("subspace is not stable under the endomorphism")
        out.append(coeffs)
    return [list(col) for col in zip(*out)]   # columns are images


def _jordan_chain_tops(mat):
    """Chain tops (vector, height) of a nilpotent matrix, by the kernel ladder."""
    m = _nilpotency_index(mat)
    kernels = {j: linalg.nullspace(linalg.mat_power(mat, j)) for j in range(0, m + 1)}
    tops = []
    carried: list = []   # one-step images of every chain alive at this height
    for h in range(m, 0, -1):
        base = linalg.add_spans(kernels[h - 1], carried)
        new_tops = linalg.extend_basis(base, kernels[h])
        tops.extend((v, h) for v in new_tops)
        carried = [linalg.matvec(mat, v) for v in carried + new_tops]
    return tops


def relative_monodromy_filtration(n, w: WeightFiltrationGeneric):
    """The filtration M with N M_k ⊆ M_{k-2} inducing centered filtrations on gr^W.

    Built by the standard induction on the top weight: recurse on the
    sub below the top, take Jordan chains on the top graded quotient,
    and correct each chain top by an element of the sub so that the
    whole chain keeps shifting M by -2.  Returns None when some
    correction is unsolvable, which is exactly the failure of existence.
    """
    mat = _matrix_of(n)
    dim = len(mat)
    _nilpotency_index(mat)
    for weight in w.jumps:
        sub = w.subspace(weight)
        for v in sub:
            if not linalg.in_span(sub, linalg.matvec(mat, v)):
                raise DomainError("N does not preserve the weight filtration")
    levels = _rmf_levels(mat, w)
    if levels is None:
        return None
    cumulative: dict = {}
    running: list = []
    for k in sorted(levels):
        running = linalg.add_spans(running, levels[k])
        if running:
            cumulative[k] = [list(v) for v in running]
    return WeightFiltrationGeneric.from_dict(cumulative, dim)


def _rmf_levels(mat, w: WeightFiltrationGeneric):
    """Graded generators {k: vectors of M-weight k}, or None."""
    jumps = w.jumps
    dim = w.dim
    top = jumps[-1]
    if len(jumps) == 1:
        filt = pure_monodromy_filtration(mat, top)
        return {k: basis for k, basis in filt.items()}

    sub_basis = w.subspace(top - 1)
    sub_mat = _restrict_matrix(mat, sub_basis)
    sub_w = WeightFiltrationGeneric.from_dict(
        {weight: [linalg.solve_in_span(sub_basis, v) for v in w.subspace(weight)]
         for weight in jumps[:-1]}, len(sub_basis))
    sub_levels = _rmf_levels(sub_mat, sub_w)
    if sub_levels is None:
        return None

    def to_ambient(vec):
        out = [Fraction(0)] * dim
        for coeff, bvec in zip(vec, sub_basis):
            for i in range(dim):
                out[i] += coeff * Fraction(bvec[i])
        return out

    sub_cumulative: dict = {}
    running: list = []
    for k in sorted(sub_levels):
        running = linalg.add_spans(running, [to_ambient(v) for v in sub_levels[k]])
        sub_cumulative[k] = [list(v) for v in running]

    def sub_m(k):
        out: list = []
        for kk in sorted(sub_cumulative):
            if kk <= k:
                out = sub_cumulative[kk]
        return out

    # quotient by the sub: complement coordinates and induced matrix
    std = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    comp = linalg.extend_basis(sub_basis, std)

    def project(vec):
        coeffs = linalg.solve_in_span(sub_basis + comp, vec)
        return coeffs[len(sub_basis):]

    q_mat_cols = [project(linalg.matvec(mat, v)) for v in comp]
    q_mat = [list(col) for col in zip(*q_mat_cols)]

    levels = {k: [to_ambient(v) for v in vs] for k, vs in sub_levels.items()}
    for vbar, height in _jordan_chain_tops(q_mat):
        l = height - 1
        lift = [sum((Fraction(vbar[j]) * Fraction(comp[j][i]) for j in range(len(comp))),
                    Fraction(0)) for i in range(dim)]
        power = linalg.mat_power(mat, l + 1)
        target = linalg.matvec(power, lift)
        m_low = sub_m(top + l - 2 * (l + 1))
        # solve N^{l+1}(lift + s) ∈ M_sub with s in the sub
        columns = [[-x for x in linalg.matvec(power, v)] for v in sub_basis] + m_low
        coeffs = linalg.solve_in_span(columns, target)
        if coeffs is None:
            return None
        corrected = list(lift)
        for cf, v in zip(coeffs[: len(sub_basis)], sub_basis):
            for i in range(dim):
                corrected[i] += cf * Fraction(v[i])
        vec = corrected
        for i in range(l + 1):
            weight_k = top + l - 2 * i
            levels.setdefault(weight_k, []).append(list(vec))
            vec = linalg.matvec(mat, vec)
    return levels


def verify_relative_monodromy(n, w: WeightFiltrationGeneric,
                              m: WeightFiltrationGeneric) -> bool:
    """Direct exact check of both characterizing conditions."""
    mat = _matrix_of(n)
    ks = m.jumps
    lo, hi = min(ks) - 2, max(ks) + 2
    for k in range(lo, hi + 1):
        target = m.subspace(k - 2)
        for v in m.subspace(k):
            if not linalg.in_span(target, linalg.matvec(mat, v)):
                return False
    for weight in w.jumps:
        w_lo = w.subspace(weight - 1)
        w_hi = w.subspace(weight)
        basis = linalg.extend_basis(w_lo, w_hi)   # graded piece coordinates
        full = w_lo + basis

        def graded_m(j):
            inter = linalg.intersect(m.subspace(j), w_hi)
            reps = []
            for v in inter:
                coeffs = linalg.solve_in_span(full, v)
                reps.append(coeffs[len(w_lo):])
            return linalg.span_basis([r for r in reps if any(x != 0 for x in r)])

        def graded_map(vec, k):
            out = list(vec)
            amb = [sum((vec[t] * Fraction(basis[t][i]) for t in range(len(basis))), Fraction(0))
                   for i in range(w.dim)]
            for _ in range(k):
                amb = linalg.matvec(mat, amb)
            coeffs = linalg.solve_in_span(full, amb)
            if coeffs is None:
                return None
            return coeffs[len(w_lo):]

        kmax = max(ks) - min(ks)
        span_cache = {j: graded_m(j) for j in range(weight - kmax - 1, weight + kmax + 2)}
        for k in range(0, kmax + 1):
            up, up_prev = span_cache[weight + k], span_cache[weight + k - 1]
            dn, dn_prev = span_cache[weight - k], span_cache[weight - k - 1]
            if len(up) - len(up_prev) != len(dn) - len(dn_prev):
                return False
            reps = linalg.extend_basis(up_prev, up)
            images = []
            for rvec in reps:
                img = graded_map(rvec, k)
                if img is None or not linalg.in_span(dn, img):
                    return False
                images.append(img)
            stacked = dn_prev + images
            if linalg.rank(stacked) != len(dn_prev) + len(images):
                return False
    return True


# --- the boundary chart --------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryChartPoint:
    """Point (q, beta, lambda) of the boundary chart; beta = 0 when q = 0."""

    q: complex
    beta: complex
    lam: complex

    def __post_init__(self):
        if self.q == 0 and self.beta != 0:
            raise DomainError("chart needs beta = 0 on the boundary q = 0")


@dataclass(frozen=True)
class ChartClass:
    """Image of a chart point: an interior class or a rank-1 nilpotent orbit."""

    kind: str                      # "interior" | "orbit"
    coords: tuple | None = None    # reduced (alpha, beta, lambda) for interior
    reduction: tuple | None = None
    orbit_generator: NilpotentEndo | None = None
    orbit_lambda: complex | None = None


def reduce_mod_integral(alpha, beta, lam):
    """Canonical orbit representative with real parts in [0, 1), plus the matrix used."""
    a = -_floor_int(alpha)
    b = -_floor_int(beta)
    c = -_floor_int(lam + b * alpha)
    g = unipotent_matrix(a, b, c)
    reduced = coordinate_action(g, (alpha, beta, lam))
    return reduced, g


def boundary_chart_point(q, beta, lam) -> ChartClass:
    """Class of a chart point: q != 0 gives F(alpha, beta, lambda) with
    q = exp(2 pi i alpha); q = 0 gives the rank-1 orbit through F(0, 0, lambda)."""
    point = BoundaryChartPoint(complex(q), complex(beta), complex(lam))
    if point.q == 0:
        reduced, _ = reduce_mod_integral(0.0, 0.0, point.lam)
        return ChartClass(kind="orbit", orbit_generator=NilpotentEndo(1, 0, 0),
                          orbit_lambda=reduced[2])
    alpha = cmath.log(point.q) / TWO_PI_I
    reduced, g = reduce_mod_integral(alpha, point.beta, point.lam)
    return ChartClass(kind="interior", coords=reduced,
                      reduction=tuple(int(g[i][j]) for i, j in ((1, 2), (0, 1), (0, 2))))
