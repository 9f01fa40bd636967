"""The rank-3 period domain, its level-2 group and its rank-1 toroidal boundary chart.

The level-2 group U_2, the Heisenberg group, lives here as ``Heisenberg``;
its integral elements act on the flags and reduce them.  The lattice is
the fixed rank-3 example: weights -4, -2, 0 with one-dimensional graded
pieces, Hodge types (0,0), (-1,-1), (-2,-2).  A flag F(alpha, beta,
lambda) is its three coordinates, from which it builds its generators; a
nilpotent direction (a, b, c) pairs with F into a nilpotent orbit exactly
when c = a*beta - b*alpha.  On exact flags this module decides it both by
that closed criterion and independently by span membership; on float
flags, where transversality is the same equation, by the criterion
within CRITERION_TOL.

Every such orbit is admissible: each (a, b, c) maps W_k into W_{k-2}, so
the relative monodromy filtration M(N, W) is W itself (Steenbrink-Zucker
1985).  For any (N, W), ``relative_monodromy_filtration`` builds M in one
bottom-up pass over the weights (Jordan chains on each graded piece of W,
their tops corrected into the part already built); its pure case, a
single weight, is Deligne's monodromy filtration.
``verify_relative_monodromy`` checks both defining conditions directly.

Exact rational arithmetic is used whenever every input is rational.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import ConvergenceError, DomainError

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
    """Increasing exhaustive filtration of Q^n by canonical subspaces."""

    steps: tuple = ()   # ((weight, linalg.Subspace), ...) sorted, strictly growing
    dim: int = 0

    @classmethod
    def from_dict(cls, data: dict, dim: int) -> "WeightFiltrationGeneric":
        return cls.from_subspaces(
            {w: linalg.Subspace.span([list(map(Fraction, v)) for v in vs], dim)
             for w, vs in data.items()}, dim)

    @classmethod
    def from_subspaces(cls, data: dict, dim: int) -> "WeightFiltrationGeneric":
        steps = []
        prev = linalg.Subspace.zero(dim)
        for w in sorted(data):
            sub = data[w]
            if not prev <= sub:
                raise DomainError("weight filtration is not nested")
            if sub.dim > prev.dim:
                steps.append((w, sub))
            prev = sub
        if prev.dim != dim:
            raise DomainError("weight filtration is not exhaustive")
        return cls(tuple(steps), dim)

    def subspace(self, w: int) -> linalg.Subspace:
        out = None
        for weight, sub in self.steps:
            if weight > w:
                break
            out = sub
        return out if out is not None else linalg.Subspace.zero(self.dim)

    @property
    def jumps(self) -> list[int]:
        return [w for w, _ in self.steps]

    def graded_dim(self, w: int) -> int:
        return self.subspace(w).dim - self.subspace(w - 1).dim

    def to_json(self) -> dict:
        return {str(w): [[str(x) for x in v] for v in sub.fractions()] for w, sub in self.steps}


# --- the fixed rank-3 lattice ----------------------------------------------------

@dataclass(frozen=True)
class LambdaData:
    """Rank-3 lattice with weights -4, -2, 0 and one Hodge type per weight."""

    weights: WeightFiltrationGeneric = field(default_factory=lambda: WeightFiltrationGeneric.from_dict(
        {-4: [[1, 0, 0]], -2: [[1, 0, 0], [0, 1, 0]], 0: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, 3))


LAMBDA = LambdaData()


# --- Hodge filtrations ------------------------------------------------------------

@dataclass(frozen=True)
class HodgeFiltration:
    """The flag F^0 ⊂ F^{-1} ⊂ F^{-2} = C^3 of F(alpha, beta, lambda).

    The coordinates are Fractions when all three are rational, otherwise
    all three are complex.
    """

    alpha: object
    beta: object
    lam: object

    @property
    def exact(self) -> bool:
        return isinstance(self.alpha, Fraction)

    def coordinates(self) -> tuple:
        return self.alpha, self.beta, self.lam

    def generators(self, p: int) -> list:
        """F^0 = <e3 + alpha e2 + lambda e1>, F^{-1} adding e2 + beta e1."""
        if p >= 1:
            return []
        if p <= -2:
            return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        one = Fraction(1) if self.exact else 1.0
        g0 = [self.lam, self.alpha, one]
        return [g0] if p == 0 else [g0, [self.beta, one, one - one]]


def hodge_filtration_from(alpha, beta, lam) -> HodgeFiltration:
    """The flag F(alpha, beta, lambda); its generators (lambda, alpha, 1) and
    (beta, 1, 0) are independent for every finite entry."""
    if _is_exact(alpha, beta, lam):
        return HodgeFiltration(Fraction(alpha), Fraction(beta), Fraction(lam))
    try:
        coords = tuple(complex(v) for v in (alpha, beta, lam))
        finite = all(cmath.isfinite(v) for v in coords)
    except OverflowError:   # a rational past the float range beside a float
        finite = False
    if not finite:
        raise DomainError("flag entries must be finite and within the float range")
    return HodgeFiltration(*coords)


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


@dataclass(frozen=True)
class Heisenberg:
    """[[1, b, c], [0, 1, a], [0, 0, 1]] in U_2: a reduction, a monodromy or the
    point F(alpha, beta, lambda).  The product is (a + a', b + b', c + c' + b a')."""

    a: object
    b: object
    c: object

    def matrix(self) -> list:
        return [[1, self.b, self.c], [0, 1, self.a], [0, 0, 1]]

    @classmethod
    def of(cls, mat) -> "Heisenberg":
        """The element of a unipotent upper-triangular 3 x 3 matrix."""
        return cls(mat[1][2], mat[0][1], mat[0][2])

    def __mul__(self, other: "Heisenberg") -> "Heisenberg":
        return Heisenberg(self.a + other.a, self.b + other.b,
                          self.c + other.c + self.b * other.a)

    def inverse(self) -> "Heisenberg":
        return Heisenberg(-self.a, -self.b, self.a * self.b - self.c)

    def act(self, coords) -> tuple:
        """Left multiplication on the coordinates (alpha, beta, lambda)."""
        alpha, beta, lam = coords
        return alpha + self.a, beta + self.b, lam + self.b * alpha + self.c

    def log(self) -> NilpotentEndo:
        """log g = (g - 1) - (g - 1)^2 / 2, as (g - 1)^3 = 0 and (g - 1)^2 = ab e13."""
        return NilpotentEndo(self.a, self.b, self.c - Fraction(self.a * self.b, 2))


def _float_defect(n: NilpotentEndo, f: HodgeFiltration) -> complex:
    """c - (a*beta - b*alpha) at a float flag: DomainError for an entry of N
    past the float range, ConvergenceError for a defect that is not finite."""
    try:
        a, b, c = complex(n.a), complex(n.b), complex(n.c)
    except OverflowError as exc:
        raise DomainError("N entries must be within the float range beside a float flag") from exc
    defect = c - (a * f.beta - b * f.alpha)
    if not cmath.isfinite(defect):
        raise ConvergenceError("the criterion defect c - (a*beta - b*alpha) is not finite")
    return defect


def griffiths_transversal(n: NilpotentEndo, f: HodgeFiltration) -> bool:
    """N F^p ⊆ F^{p-1} for all p.

    An exact flag is decided by span membership.  N F^0 ⊆ F^{-1} is the
    equation c = a*beta - b*alpha and N F^{-1} ⊆ F^{-2} = C^3 always holds,
    so a float flag is decided by that equation within CRITERION_TOL.
    """
    if not f.exact:
        return abs(_float_defect(n, f)) <= CRITERION_TOL
    mat = n.matrix()
    for p in (0, -1):
        span = linalg.Subspace.span(f.generators(p - 1), 3)
        if any(linalg.apply(mat, v) not in span for v in f.generators(p)):
            return False
    return True


@dataclass(frozen=True)
class OrbitResult:
    generates: bool
    criterion_defect: object      # c - (a*beta - b*alpha)
    reason: str
    admissible = True   # every N maps W_k into W_{k-2}, so Gr^W N = 0 and M(N, W) = W

    def __bool__(self) -> bool:
        return self.generates


def generates_nilpotent_orbit(n: NilpotentEndo, f: HodgeFiltration) -> OrbitResult:
    """Nilpotent-orbit criterion for (R_{>=0} N, F): c = a*beta - b*alpha.

    Admissibility is the lemma of OrbitResult.admissible, and positivity at
    infinity is vacuous because the period domain is the whole unipotent
    group.  An exact flag is cross-checked against the span-membership
    route of transversality; a float flag's reason shows the defect as [re,im].
    """
    defect = n.c - (n.a * f.beta - n.b * f.alpha) if f.exact else _float_defect(n, f)
    if f.exact:
        criterion = defect == 0
        if criterion != griffiths_transversal(n, f):
            raise RuntimeError(f"criterion and transversality disagree at N={n}, "
                               f"coords={f.coordinates()}")
        shown = str(defect)
    else:
        criterion = abs(defect) <= CRITERION_TOL
        shown = f"[{defect.real!r},{defect.imag!r}]"
    reason = "criterion c = a*beta - b*alpha " + ("holds" if criterion else
                                                  f"fails (defect {shown})")
    return OrbitResult(criterion, defect, reason)


# --- relative monodromy filtrations ------------------------------------------------
#
# Matrices here are integer matrices (linalg.integer_matrix): a positive
# multiple of N has the same kernels, images and relative monodromy
# filtration, so no Fraction is made between the input and the output.

def _matrix_of(n) -> list:
    rows = n.matrix() if isinstance(n, NilpotentEndo) else n
    return linalg.integer_matrix([[x if isinstance(x, (int, Fraction)) else Fraction(x)
                                   for x in row] for row in rows])


MAX_RMF_DIM = 48  # a conjugated 48 x 48 Jordan block, the slowest input tried, takes about 1.3 s


def check_rmf_dim(dim: int) -> None:
    """DomainError past MAX_RMF_DIM, before any elimination."""
    if dim > MAX_RMF_DIM:
        raise DomainError(f"the dimension must be between 0 and {MAX_RMF_DIM}, got {dim}")


MAX_RMF_BITS = 192  # dimension x bits of the widest entry; at 48 x 4 the slowest input tried takes 1.1-1.7 s in the CLI


def check_rmf_bits(mat, vectors=()) -> None:
    """DomainError when the dimension times the bit length of the widest entry
    passes MAX_RMF_BITS, before N's powers and any elimination.

    The entries are those of N's integer multiple (linalg.integer_matrix) and
    of each vector's.  A k x k minor of such rows, b bits an entry, has at most
    k(b + log2 k) bits (Hadamard), so this bounds the integers that every
    power and elimination meets.
    """
    rows = linalg.integer_matrix(mat) + [linalg.integer_matrix([v])[0] for v in vectors]
    widest = max((abs(x).bit_length() for row in rows for x in row), default=0)
    if len(mat) * widest > MAX_RMF_BITS:
        raise DomainError(f"the dimension times the bits of the widest entry must be at most "
                          f"{MAX_RMF_BITS}, got {len(mat)} x {widest}")


def _powers(mat) -> list:
    """[N^0, N^1, ..., N^m] with N^m = 0 the first vanishing power."""
    n = len(mat)
    out = [[[int(i == j) for j in range(n)] for i in range(n)], mat]
    while any(any(row) for row in out[-1]):
        if len(out) > n + 1:
            raise DomainError("matrix is not nilpotent")
        out.append(linalg.product(out[-1], mat))
    return out


def _jordan_chain_tops(mat):
    """Chain tops of a nilpotent integer matrix, by the kernel ladder.

    ker N^h = N^-1 ker N^(h-1), climbed until it is everything; the answer
    is [(height, tops)] from the tallest chains down, every height with at
    least one top.
    """
    n = len(mat)
    kernels = [linalg.Subspace.zero(n)]
    while kernels[-1].dim < n:   # ends: the caller has checked that N is nilpotent
        kernels.append(linalg.preimage(mat, kernels[-1]))
    out = []
    carried: list = []   # one-step images of every chain alive at this height
    for h in range(len(kernels) - 1, 0, -1):
        base = linalg.join(kernels[h - 1], linalg.Subspace.span(carried, n))
        new_tops = linalg.extend_basis(base, kernels[h].rows)
        if new_tops:
            out.append((h, new_tops))
        carried = [linalg.apply(mat, v) for v in carried + new_tops]
    return out


def _partial_filtration(chains: dict, dim: int) -> WeightFiltrationGeneric:
    """M_k = the span of the chain vectors at levels <= k, unchecked for exhaustion."""
    steps = []
    running = linalg.Subspace.zero(dim)
    for k in sorted(chains):
        running = linalg.Subspace.span(running.rows + tuple(chains[k]), dim)
        steps.append((k, running))
    return WeightFiltrationGeneric(tuple(steps), dim)


def relative_monodromy_filtration(n, w: WeightFiltrationGeneric):
    """The filtration M with N M_k ⊆ M_{k-2} inducing centered filtrations on gr^W.

    One pass over the jumps of W from the bottom up, in ambient
    coordinates.  At weight w, take the Jordan chain tops of N on the
    graded piece W_w / W_below; lift each top of height l + 1 to W_w and
    correct it by an element of W_below so that N^{l+1} of it lands in
    M_{w-l-2} of the part already built; its chain then joins M at
    w + l, w + l - 2, ..., w - l.  At the first weight W_below is 0, the
    correction is the identity and the chains give Deligne's monodromy
    filtration.  Returns None when some correction is unsolvable, which is
    exactly the failure of existence (Steenbrink-Zucker 1985).
    """
    mat = _matrix_of(n)
    dim = len(mat)
    check_rmf_dim(dim)
    check_rmf_bits(mat)
    powers = _powers(mat)   # DomainError unless N is nilpotent
    for _, sub in w.steps:
        for v in sub.rows:
            if linalg.apply(mat, v) not in sub:
                raise DomainError("N does not preserve the weight filtration")
    chains: dict = {}   # level k -> the chain vectors put into M_k
    built = _partial_filtration(chains, dim)
    below = linalg.Subspace.zero(dim)
    for weight, hi in w.steps:
        basis, coords = linalg.graded_piece(below, hi)
        graded = [list(col) for col in zip(*[coords(linalg.apply(mat, v)) for v in basis])]
        for height, vbars in _jordan_chain_tops(graded):
            # a top is lift + s, s in below, with N^height(lift + s) in M of the
            # part built: an element of (below + Q·lift) ∩ N^-height M outside below
            allowed = linalg.preimage(powers[height], built.subspace(weight - height - 1))
            for vbar in vbars:
                lift = linalg.combination(vbar, basis)
                tops = linalg.intersect(linalg.join(below, linalg.Subspace.span([lift], dim)),
                                        allowed)
                vec = next((v for v in tops.rows if v not in below), None)
                if vec is None:
                    return None
                for i in range(height):
                    chains.setdefault(weight + height - 1 - 2 * i, []).append(vec)
                    vec = linalg.apply(mat, vec)
        built = _partial_filtration(chains, dim)
        below = hi
    return WeightFiltrationGeneric.from_subspaces(dict(built.steps), dim)


def verify_relative_monodromy(n, w: WeightFiltrationGeneric,
                              m: WeightFiltrationGeneric) -> bool:
    """Direct exact check of both characterizing conditions."""
    mat = _matrix_of(n)
    # N M_k ⊆ M_{k-2}: M_k only grows at its jumps, so those are the binding k
    for k, step in m.steps:
        target = m.subspace(k - 2)
        if not all(linalg.apply(mat, v) in target for v in step.rows):
            return False
    ks = m.jumps
    for weight in w.jumps:
        w_lo = w.subspace(weight - 1)
        w_hi = w.subspace(weight)
        basis, coords = linalg.graded_piece(w_lo, w_hi)
        pieces: dict = {}

        def graded_m(j):
            """M_j on the graded piece, once per distinct step of M."""
            step = m.subspace(j)
            if step not in pieces:
                pieces[step] = linalg.Subspace.span(
                    [coords(v) for v in linalg.intersect(step, w_hi).rows], len(basis))
            return pieces[step]

        # the induced filtration can only jump at a jump of M, so every
        # graded piece with N^k between them has k <= max |j - weight|
        for k in range(0, max(abs(j - weight) for j in ks) + 1):
            up, up_prev = graded_m(weight + k), graded_m(weight + k - 1)
            dn, dn_prev = graded_m(weight - k), graded_m(weight - k - 1)
            if up.dim - up_prev.dim != dn.dim - dn_prev.dim:
                return False
            images = []
            for rvec in linalg.extend_basis(up_prev, up.rows):
                img = linalg.combination(rvec, basis)
                for _ in range(k):
                    img = linalg.apply(mat, img)
                if img not in w_hi:
                    return False
                img = coords(img)
                if img not in dn:
                    return False
                images.append(img)
            if linalg.Subspace.span(dn_prev.rows + tuple(images), len(basis)).dim \
                    != dn_prev.dim + len(images):
                return False
    return True


# --- the boundary chart --------------------------------------------------------------

@dataclass(frozen=True)
class ChartClass:
    """Image of a chart point: an interior class or a rank-1 nilpotent orbit."""

    kind: str                      # "interior" | "orbit"
    coords: tuple | None = None    # reduced (alpha, beta, lambda) for interior
    reduction: Heisenberg | None = None
    orbit_generator: NilpotentEndo | None = None
    orbit_lambda: complex | None = None


def reduce_mod_integral(alpha, beta, lam):
    """Canonical orbit representative with real parts in [0, 1), plus the
    integral element of U_2 that moves the point there."""
    a = -_floor_int(alpha)
    b = -_floor_int(beta)
    g = Heisenberg(a, b, -_floor_int(lam + b * alpha))
    return g.act((alpha, beta, lam)), g


def boundary_chart_point(q, beta, lam) -> ChartClass:
    """Class of a chart point: q != 0 gives F(alpha, beta, lambda) with
    q = exp(2 pi i alpha); q = 0 gives the rank-1 orbit through F(0, 0, lambda)."""
    q, beta, lam = complex(q), complex(beta), complex(lam)
    if q == 0:
        if beta != 0:
            raise DomainError("chart needs beta = 0 on the boundary q = 0")
        reduced, _ = reduce_mod_integral(0.0, 0.0, lam)
        return ChartClass(kind="orbit", orbit_generator=NilpotentEndo(1, 0, 0),
                          orbit_lambda=reduced[2])
    alpha = cmath.log(q) / TWO_PI_I
    reduced, g = reduce_mod_integral(alpha, beta, lam)
    return ChartClass(kind="interior", coords=reduced, reduction=g)
