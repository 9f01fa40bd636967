"""Piecewise-smooth paths in C \\ {0, 1}.

A path is a chain of parametrized pieces, each mapped from [0, 1]: line
segments, and log segments z = c + (z0 - c) exp(rate t) about the
puncture c = 0 or 1, which are rays, circular arcs or spirals about it.
Every path is interior: its segments stay away from both punctures, and
only the regularized routes of ``integrals`` start at the tangential base
point.  Named loops "gamma0"/"gamma1" are the standard representatives of
the two generating loops, based on the positive real axis at the junction
radius; each turns about its puncture on one log segment that ends
exactly where it starts, whatever the number of turns.
``canonical_reach`` is the standard path from the junction point to a
target; it ends on a log segment about the puncture the target is near,
where the form with its pole there is constant.

Besides ``point``/``deriv`` (one parameter at a time, for the direct
quadrature), every segment supplies its two forms ``dz/z`` and
``dz/(1-z)`` at an array of parameters for the transport engine.  Those
take ``z`` and ``1 - z`` from the nearer end of the segment, so that they
keep full relative precision next to a puncture.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, as_complex, expect, is_json_int

PUNCTURES = (0.0 + 0j, 1.0 + 0j)
JUNCTION_RADIUS = 0.125   # base point of interior loops, on the positive real axis
LOOP1_RADIUS = 0.25       # radius of the circle around 1 inside gamma1, and of the spiral reach
_CHAIN_TOL = 1e-12


def _log_ratio(num: complex, den: complex) -> complex:
    """Principal log(num/den), accurate also when num is close to den."""
    w = (num - den) / den
    if abs(w) > 0.5:
        q = num / den
        if q != 0 and cmath.isfinite(q):
            return cmath.log(q)
        # the ratio overflows or underflows: subtract the logs, principal branch
        d = cmath.log(num) - cmath.log(den)
        return complex(d.real, math.remainder(d.imag, 2 * math.pi))
    # log1p(w), which numpy does not evaluate accurately for complex w
    return complex(0.5 * math.log1p(w.real * (2 + w.real) + w.imag ** 2),
                   math.atan2(w.imag, 1 + w.real))


def _spiral(z0: complex, z1: complex, c: complex, rate: complex, t, u):
    """z, 1 - z and z - c on z(t) = c + (z0 - c) exp(rate t), which ends at z1.

    Each value is taken from the nearer endpoint with expm1, so it keeps
    its relative precision wherever it is small next to that endpoint.
    Where exp(rate t) is more than a factor e from 1 the point is far from
    that endpoint, and z - c is taken as a product, since adding expm1
    there could cancel to nothing (z = z1 exp(-700) on a long log segment).
    """
    near0 = t <= 0.5
    ze = np.where(near0, z0, z1)
    we = np.where(near0, z0 - c, z1 - c)
    arg = rate * np.where(near0, t, -u)
    far = np.abs(arg) > 1
    step = we * np.expm1(arg)
    w = np.where(far, we * np.exp(arg), we + step)
    return (np.where(far, c + w, ze + step),
            np.where(far, (1 - c) - w, (1 - ze) - step), w)


@dataclass(frozen=True)
class LineSegment:
    z0: complex
    z1: complex

    def point(self, t: float) -> complex:
        return self.z0 + (self.z1 - self.z0) * t

    def deriv(self, t: float) -> complex:
        return self.z1 - self.z0

    def reversed(self) -> "LineSegment":
        return LineSegment(self.z1, self.z0)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    def speed_near(self, p: complex) -> float:
        """|dz/dt| where the segment passes p."""
        return abs(self.z1 - self.z0)

    def min_distance(self, p: complex) -> float:
        d = self.z1 - self.z0
        t = ((p - self.z0) / d).real if d != 0 else 0.0
        if t <= 0:
            return abs(self.z0 - p)
        if t >= 1:
            return abs(self.z1 - p)
        return abs(self.z0 + d * t - p)

    def forms(self, t: np.ndarray, u: np.ndarray):
        """(dz/z, dz/(1-z)) at the parameters t, with u = 1 - t."""
        d = self.z1 - self.z0
        near0 = t <= 0.5
        step = d * np.where(near0, t, -u)          # z minus the nearer endpoint
        z = np.where(near0, self.z0, self.z1) + step
        omz = np.where(near0, 1 - self.z0, 1 - self.z1) - step
        return d / z, d / omz


@dataclass(frozen=True)
class LogSegment:
    """A segment about a centre c of 0 or 1: z(t) = c + (z0 - c) exp(rate t),
    where rate is a logarithm of (z1 - c)/(z0 - c).

    ``sweep`` is the angle turned about the centre, and rate takes the
    branch nearest it: z1 = z0 with sweep 2 pi k is k full turns, and an
    arc ends exactly on the float points that its neighbours end on.
    Without a sweep the branch is principal, at most a half turn, and a
    half turn passes above the centre.

    The form with a pole at the centre is the constant rate on it: dz/z
    about 0, -dz/(1-z) about 1.  On a ray through the centre this is the
    radial segment, which removes the boundary layer of the transport
    equation on approaches to that puncture; on a circle about it, an arc;
    otherwise a log-spiral.
    """

    z0: complex
    z1: complex
    center: float = 0.0
    sweep: float | None = None

    def __post_init__(self):
        if self.center not in (0, 1):
            raise DomainError("a log segment is centred on a puncture")
        if self.z0 == self.center or self.z1 == self.center:
            raise DomainError(f"log segment endpoint at its centre {self.center:g}")

    @cached_property
    def _rate(self) -> complex:
        rate = _log_ratio(self.z1 - self.center, self.z0 - self.center)
        if self.sweep is not None:
            return rate + 2j * math.pi * round((self.sweep - rate.imag) / (2 * math.pi))
        if abs(rate.imag) == math.pi:
            # a half turn, whose principal log follows the signs of zero: pass
            # above the centre, so that the reversed segment retraces it
            return complex(rate.real, math.copysign(math.pi, (self.z0 - self.center).real))
        return rate

    def point(self, t: float) -> complex:
        c = self.center
        return c + (self.z0 - c) * cmath.exp(self._rate * t)

    def deriv(self, t: float) -> complex:
        return (self.point(t) - self.center) * self._rate

    def reversed(self) -> "LogSegment":
        return LogSegment(self.z1, self.z0, self.center,
                          None if self.sweep is None else -self.sweep)

    @property
    def start(self) -> complex:
        return self.z0

    @property
    def end(self) -> complex:
        return self.z1

    def speed_near(self, p: complex) -> float:
        """|dz/dt| where the segment passes p: |rate| |z - c|, with z about p."""
        return abs(self._rate) * abs(p - self.center)

    def min_distance(self, p: complex) -> float:
        c, rate = self.center, self._rate
        ends = min(abs(self.z0 - p), abs(self.z1 - p))
        # |z - c| is monotone along the segment, so z stays in the annulus of
        # the end radii; where that alone keeps p as far as the nearer end, done
        r0, r1 = abs(self.z0 - c), abs(self.z1 - c)
        q = abs(p - c)
        if max(q - max(r0, r1), min(r0, r1) - q) >= ends:
            return ends
        if abs(rate.imag) <= 1e-14 * max(1.0, abs(rate.real)):
            # radial: project p onto the ray
            e = (self.z0 - c) / r0
            v = (p - c) * e.conjugate()
            return abs(v.imag) if min(r0, r1) < v.real < max(r0, r1) else ends
        if abs(rate.real) <= 1e-14 * abs(rate.imag):
            # circular: p's angle from the start, in the sense of turning
            v = (p - c) * (self.z0 - c).conjugate()
            phi = math.atan2(v.imag, v.real) % math.copysign(2 * math.pi, rate.imag)
            return min(ends, abs(q - r0)) if abs(phi) < abs(rate.imag) else ends
        # a spiral of at most half a turn: sample, then refine the best bracket
        ts = np.linspace(0.0, 1.0, 65)
        k = int(np.argmin(np.abs(c + (self.z0 - c) * np.exp(rate * ts) - p)))
        lo, hi = ts[max(k - 1, 0)], ts[min(k + 1, 64)]
        for _ in range(60):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if abs(self.point(m1) - p) <= abs(self.point(m2) - p):
                hi = m2
            else:
                lo = m1
        return min(ends, abs(self.point((lo + hi) / 2) - p))

    def forms(self, t: np.ndarray, u: np.ndarray):
        """(dz/z, dz/(1-z)) at the parameters t, with u = 1 - t; the one with
        its pole at the centre is the constant (-)rate."""
        c, rate = self.center, self._rate
        z, omz, w = _spiral(self.z0, self.z1, c, rate, t, u)
        if c == 0:
            return np.full(t.shape, rate), rate * (z / omz)
        return rate * (w / z), np.full(t.shape, -rate)


def check_clear(seg, p: complex) -> None:
    """DomainError if the segment touches the puncture p.

    An endpoint may lie arbitrarily close to p, since the forms are taken
    from the nearer end; the interior must keep a clearance relative to
    the segment's speed where it passes p.
    """
    d = seg.min_distance(p)
    ends = min(abs(seg.start - p), abs(seg.end - p))
    if d == 0 or (d < ends and d < _CHAIN_TOL * seg.speed_near(p)):
        raise DomainError(f"segment passes through the puncture {p.real:g}")


@dataclass(frozen=True)
class Path:
    segments: tuple = ()

    def __post_init__(self):
        if not self.segments:
            raise DomainError("path needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if abs(a.end - b.start) > _CHAIN_TOL:
                raise DomainError("path segments are disconnected")
        for seg in self.segments:
            for p in PUNCTURES:
                check_clear(seg, p)

    @property
    def start(self) -> complex:
        return self.segments[0].start

    @property
    def end(self) -> complex:
        return self.segments[-1].end

    def concat(self, other: "Path") -> "Path":
        return Path(self.segments + other.segments)

    def reversed(self) -> "Path":
        return Path(_reversed(self.segments))


def _reversed(segments: tuple) -> tuple:
    return tuple(s.reversed() for s in reversed(segments))


def _gamma0(turns: int) -> tuple:
    return (LogSegment(JUNCTION_RADIUS, JUNCTION_RADIUS, 0.0, 2 * math.pi * turns),)


def _gamma1(turns: int) -> tuple:
    turn = 1 - LOOP1_RADIUS
    return (LineSegment(JUNCTION_RADIUS, turn),
            LogSegment(turn, turn, 1.0, 2 * math.pi * turns),
            LineSegment(turn, JUNCTION_RADIUS))


def loop_gamma0(turns: int = 1) -> Path:
    """``turns`` circles about 0 through the junction point; positive = counterclockwise."""
    if turns == 0:
        raise DomainError("gamma0 with zero turns is an empty loop")
    return Path(_gamma0(turns))


def loop_gamma1(turns: int = 1) -> Path:
    """Out along the real axis, ``turns`` times around 1, and back."""
    if turns == 0:
        raise DomainError("gamma1 with zero turns is an empty loop")
    return Path(_gamma1(turns))


# the key that names each form of a path spec, and the keys it may add
_SPEC_FORMS = {"waypoints": set(), "loop": {"turns"}, "compose": set()}


def make_path(spec) -> Path:
    """Build a validated path from its JSON-style description.

    A spec names exactly one form and no key besides it:
    {"waypoints": [...]}, {"loop": "gamma0"|"gamma1", "turns": k} with
    turns optional, or {"compose": [spec, ...]}.
    """
    if isinstance(spec, Path):
        return spec
    expect(isinstance(spec, dict), "path spec must be a JSON object")
    forms = [k for k in _SPEC_FORMS if k in spec]
    expect(len(forms) == 1, 'a path spec names exactly one of "waypoints", "loop" and "compose"')
    form = forms[0]
    extra = sorted(set(spec) - _SPEC_FORMS[form] - {form})
    expect(not extra, f"a {form} spec takes no key {', '.join(map(repr, extra))}")

    if form == "compose":
        expect(isinstance(spec["compose"], list), "compose needs a list of path specs")
        if not spec["compose"]:
            raise DomainError("compose needs a non-empty list of path specs")
        parts = [make_path(s) for s in spec["compose"]]
        return Path(tuple(seg for p in parts for seg in p.segments))

    if form == "loop":
        turns = spec.get("turns", 1)
        expect(is_json_int(turns) and abs(turns) <= 2 ** 53,
               f"turns must be an integer of size at most 2**53, got {turns!r}")
        name = spec["loop"]
        if name == "gamma0":
            return loop_gamma0(turns)
        if name == "gamma1":
            return loop_gamma1(turns)
        raise DomainError(f"unknown named loop {name!r}")

    waypoints = spec["waypoints"]
    expect(isinstance(waypoints, list), "waypoints must be a list")
    points = [as_complex(w) for w in waypoints]
    if len(points) < 2:
        raise DomainError("need at least two waypoints")
    for w in points:
        if min(abs(w - p) for p in PUNCTURES) < _CHAIN_TOL:
            raise DomainError(f"waypoint {w} is a puncture")
    return Path(tuple(LineSegment(a, b) for a, b in zip(points, points[1:])))


def canonical_reach(x: complex) -> Path:
    """Deterministic interior path from the junction point to x.

    A target within LOOP1_RADIUS of 1 is reached along the real axis to
    1 - LOOP1_RADIUS and then on one log-spiral about 1, which sweeps
    arg(x - 1) on the target's side: above 1 for real targets beyond 1
    (whatever the sign of their zero imaginary part), radially for real
    targets below 1.  dz/(1-z) is constant on the spiral, so the
    transport's panels grow only with log log(1/|x - 1|).  Any other
    target is reached by turning on the junction circle through the
    principal argument of x, on the side the sign of a zero imaginary
    part names, and then moving radially; a ray that passes within
    rho = min(LOOP1_RADIUS, |x - 1|/2) of 1 goes around 1 on an arc of
    radius rho, on the side of the target, which keeps every segment rho
    away from 1.  Both fix one homotopy class per target, which loop
    prefixes then act on.
    """
    x = complex(x)
    if not math.isfinite(math.hypot(x.real, x.imag)):
        raise DomainError("target must be finite, with a modulus below the float range")
    if x == 0 or x == 1:
        raise DomainError("target is a puncture")
    if abs(x - 1) < LOOP1_RADIUS:
        turn = 1 - LOOP1_RADIUS
        return Path((LogSegment(JUNCTION_RADIUS, turn), LogSegment(turn, x, 1.0)))
    theta = math.atan2(x.imag, x.real)   # cmath.phase raises where the angle underflows
    segs: list = []
    ray_start = JUNCTION_RADIUS * cmath.exp(1j * theta)
    if abs(theta) > 1e-15:
        segs.append(LogSegment(JUNCTION_RADIUS, ray_start, 0.0, theta))
    rho = min(LOOP1_RADIUS, abs(x - 1) / 2)
    if math.cos(theta) > 0 and abs(math.sin(theta)) < rho and abs(x) > math.cos(theta):
        # the ray meets the circle |z - 1| = rho at radii cos(theta) -+ h
        h = math.sqrt(rho * rho - math.sin(theta) ** 2)
        side = 1.0 if theta >= 0 else -1.0

        def angle(s: float) -> float:
            w = s * cmath.exp(1j * theta) - 1
            return side * math.atan2(abs(w.imag), w.real)

        a0 = angle(math.cos(theta) - h)
        sweep = angle(math.cos(theta) + h) - a0
        p0, p1 = (1.0 + rho * cmath.exp(1j * a) for a in (a0, a0 + sweep))
        # the rays join the arc at its own float endpoints, without a gap
        segs += [LogSegment(ray_start, p0), LogSegment(p0, p1, 1.0, sweep)]
        ray_start = p1
    if x != ray_start:
        segs.append(LogSegment(ray_start, x))
    if not segs:
        segs.append(LineSegment(ray_start, ray_start))  # constant path
    return Path(tuple(segs))


def loop_from_group_word(word) -> Path | None:
    """Interior loop based at the junction point realizing a group word.

    Letters map to the named loops; inverse letters to their reversals.
    Returns None for the empty word.
    """
    from .malcev import GroupWord
    if isinstance(word, str):
        word = GroupWord.from_string(word)
    segments: tuple = ()
    for gen, sign in word.letters:
        loop = _gamma0(1) if gen == "0" else _gamma1(1)
        segments += loop if sign > 0 else _reversed(loop)
    return Path(segments) if segments else None
