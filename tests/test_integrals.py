"""Numerical Chen integrals: quadrature and transport routes, regularization."""

import cmath
import math
from dataclasses import dataclass

import numpy as np
import pytest

from alblab import integrals
from alblab.albanese import monodromy_action
from alblab.hodge import TWO_PI_I
from alblab.errors import BadJson
from alblab.integrals import (ABS_TOL, ConvergenceError, holomorphic_part,
                              iterated_integral, regularized_loop_transport,
                              regularized_signature, signature,
                              tangential_iterated_integral, transport)
from alblab.malcev import GroupWord
from alblab.paths import DomainError, LineSegment, LogSegment, Path, make_path
from alblab.series import MAX_FLOAT_LEVEL, TruncatedSeries, concat_mul, exp_letter, shuffle_defect
from alblab.words import shuffle_words, word_basis

LI2_HALF = math.pi ** 2 / 12 - math.log(2) ** 2 / 2


def polylog_series(r: int, x: complex, terms: int = 400) -> complex:
    """Li_r(x) = sum x^n / n^r, for |x| well inside the unit disk."""
    return sum(x ** n / n ** r for n in range(1, terms))


def random_path(rng, n=3, margin=0.15):
    from alblab.acceptance import random_interior_path
    return random_interior_path(rng, n, margin)


@dataclass(frozen=True)
class Warped:
    """A segment run at the parameter t + a sin(pi t) t (1 - t), an
    increasing warp of [0, 1]; its forms are the base forms pulled back."""

    base: object
    amount: float

    @property
    def start(self) -> complex:
        return self.base.start

    @property
    def end(self) -> complex:
        return self.base.end

    def speed_near(self, p: complex) -> float:
        return self.base.speed_near(p)

    def min_distance(self, p: complex) -> float:
        return self.base.min_distance(p)

    def forms(self, t, u):
        a = self.amount
        w = t + a * np.sin(np.pi * t) * t * (1 - t)
        dw = 1 + a * (np.pi * np.cos(np.pi * t) * t * (1 - t) + np.sin(np.pi * t) * (1 - 2 * t))
        f0, f1 = self.base.forms(w, 1 - w)
        return f0 * dw, f1 * dw


class TestMakePath:
    def test_gamma0_windings(self):
        path = make_path({"loop": "gamma0", "turns": 1})
        w0 = iterated_integral("0", path)
        w1 = iterated_integral("1", path)
        assert abs(w0 - TWO_PI_I) < 1e-9
        assert abs(w1) < 1e-9  # no winding about 1

    def test_waypoints_segment(self):
        path = make_path({"waypoints": [0.25, 0.5]})
        assert len(path.segments) == 1

    def test_waypoint_at_puncture_rejected(self):
        with pytest.raises(DomainError):
            make_path({"waypoints": [0.5, 1.0]})

    def test_empty_compose_rejected(self):
        with pytest.raises(DomainError, match="non-empty"):
            make_path({"compose": []})

    def test_disconnected_compose_rejected(self):
        with pytest.raises(DomainError):
            make_path({"compose": [{"waypoints": [0.25, 0.5]},
                                   {"waypoints": [0.6, 0.7]}]})

    def test_compose_checks_every_junction(self):
        ok = [{"waypoints": [0.25, 0.5]}, {"waypoints": [0.5, 0.25]}]
        with pytest.raises(DomainError, match="paths do not chain"):
            make_path({"compose": ok + [{"waypoints": [0.3, 0.4]}]})
        with pytest.raises(DomainError, match="paths do not chain"):
            make_path({"compose": ok + [{"waypoints": [0.25, 0.3]}, {"waypoints": [0.31, 0.4]}]})

    def test_compose_keeps_the_outer_anchors(self):
        # tangential anchors are retired: a part that names one is refused,
        # and a compose runs from its first part's start to its last part's end
        start = {"tangential_start": {"at": 0}, "waypoints": [0.25]}
        end = {"waypoints": [0.25, 0.5], "tangential_end": {"at": 1}}
        middle = {"waypoints": [0.25, 0.5, 0.25]}
        for parts in ([start, middle], [middle, end]):
            with pytest.raises(BadJson, match="takes no key"):
                make_path({"compose": parts})
        path = make_path({"compose": [{"waypoints": [0.125, 0.25]}, middle,
                                      {"waypoints": [0.25, 0.5]}]})
        assert len(path.segments) == 4 and (path.start, path.end) == (0.125, 0.5)

    def test_segment_through_puncture_rejected(self):
        with pytest.raises(DomainError):
            make_path({"waypoints": [[0.5, 0], [1.5, 0]]})

    def test_tangential_start(self):
        # a path starts at a waypoint: the retired tangential keys are
        # refused, with or without an "at"
        for key in ("tangential_start", "tangential_end"):
            for anchor in ({"at": 0, "vector": [1, 0]}, {"at": 1}, 5):
                with pytest.raises(BadJson, match=key):
                    make_path({key: anchor, "waypoints": [0.5, 0.25]})
        with pytest.raises(BadJson, match="exactly one"):
            make_path({"tangential_start": {"at": 0}})


class TestIteratedIntegral:
    def test_empty_word(self):
        path = make_path({"waypoints": [0.25, 0.5]})
        assert iterated_integral("", path) == 1

    def test_residue(self):
        value = iterated_integral("0", make_path({"loop": "gamma0", "turns": 1}))
        assert abs(value - TWO_PI_I) < ABS_TOL * 10

    def test_multiple_turns(self):
        value = iterated_integral("0", make_path({"loop": "gamma0", "turns": 3}))
        assert abs(value - 3 * TWO_PI_I) < ABS_TOL * 10

    def test_log_two(self):
        value = iterated_integral("0", make_path({"waypoints": [0.25, 0.5]}))
        assert abs(value - math.log(2)) < ABS_TOL * 10

    def test_dilog_limit(self):
        value = tangential_iterated_integral("10", 0.5)
        assert abs(value - LI2_HALF) < 10 * ABS_TOL

    @pytest.mark.parametrize("x", (0.5, 0.3 + 0.2j), ids=str)
    def test_polylog_limits_on_the_segment_from_zero(self, x):
        # words 1 0^(r-1) are analytic at 0, so [0, x] needs no regularization
        for r in (1, 2, 3, 4):
            value = tangential_iterated_integral("1" + "0" * (r - 1), x)
            assert abs(value - polylog_series(r, x)) < 1e-12

    def test_segment_from_zero_keeps_clear_of_one(self):
        # [0, x] starts on the puncture 0 by design, but may not pass through 1
        for x in (1, 2, 2 + 1e-14j):
            with pytest.raises(DomainError, match="puncture 1"):
                tangential_iterated_integral("10", x)

    def test_diverging_word_rejected(self):
        with pytest.raises(DomainError):
            tangential_iterated_integral("01", 0.5)

    def test_tangential_path_rejected(self):
        spec = {"tangential_start": {"at": 0, "vector": [1, 0]}, "waypoints": [0.5]}
        with pytest.raises(BadJson):
            iterated_integral("0", spec)
        # nor does a path that ends on a puncture pass as one from it
        with pytest.raises(DomainError, match="puncture 0"):
            iterated_integral("1", Path((LineSegment(0j, 0.5 + 0j),)))

    def test_matches_transport_route(self, rng):
        # the two independent evaluation routes agree on random paths
        for _ in range(3):
            path = random_path(rng)
            sig = signature(path, 2)
            for w in ("0", "1", "01", "10"):
                direct = iterated_integral(w, path)
                assert abs(direct - sig.coefficient(w)) < 10 * ABS_TOL

    def test_matches_transport_route_depth_four(self):
        path = make_path({"waypoints": [[0.3, 0.1], [0.5, 0.4], [0.7, 0.1]]})
        sig = signature(path, 4)
        for w in ("0110", "1001"):
            direct = iterated_integral(w, path)
            assert abs(direct - sig.coefficient(w)) < 10 * ABS_TOL

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(integrals, "_MAX_REFINEMENTS", 1)
        # a single refinement round cannot resolve a near-singular sweep
        path = make_path({"waypoints": [[0.5, 1e-3], [0.999, 1e-3], [0.5, 0.5]]})
        with pytest.raises(ConvergenceError, match="within 1 refinements"):
            iterated_integral("11", path)


class TestSignature:
    def test_constant_path(self):
        path = Path((LineSegment(0.4 + 0.1j, 0.4 + 0.1j),))
        sig = signature(path, 3)
        assert sig.distance(TruncatedSeries.identity(3)) < ABS_TOL

    def test_loop_cancellation(self, rng):
        path = random_path(rng)
        whole = path.concat(path.reversed())
        sig = signature(whole, 3)
        assert sig.distance(TruncatedSeries.identity(3)) < 10 * ABS_TOL

    def test_reversal_is_inverse(self, rng):
        path = random_path(rng)
        a = signature(path, 3)
        b = signature(path.reversed(), 3)
        assert a.mul(b).distance(TruncatedSeries.identity(3)) < 10 * ABS_TOL

    def test_gamma0_small_radius_is_exponential(self):
        sig = signature(Path((LogSegment(1e-10, 1e-10, 0.0, 2 * math.pi),)), 2)
        expected = exp_letter(TWO_PI_I, "0", 2)
        assert sig.distance(expected) < 1e-8

    def test_group_like(self, rng):
        path = random_path(rng)
        sig = signature(path, 4)
        for u in word_basis(2):
            for v in word_basis(2):
                if u and v and len(u) + len(v) <= 4:
                    assert abs(shuffle_defect(sig, u, v)) < 10 * ABS_TOL

    def test_reparametrization_invariance(self, rng):
        path = random_path(rng)
        a = signature(path, 3)
        warped = Path(tuple(Warped(seg, 0.4) for seg in path.segments))
        b = signature(warped, 3)
        assert a.distance(b) < 10 * ABS_TOL

    def test_homotopy_invariance(self):
        straight = make_path({"waypoints": [0.25, 0.6]})
        detour = make_path({"waypoints": [[0.25, 0], [0.25, 0.4], [0.6, 0.4], [0.6, 0]]})
        a = signature(straight, 3)
        b = signature(detour, 3)
        assert a.distance(b) < 10 * ABS_TOL

    def test_tangential_rejected(self):
        spec = {"tangential_start": {"at": 0, "vector": [1, 0]}, "waypoints": [0.5]}
        with pytest.raises(BadJson):
            signature(spec, 2)
        with pytest.raises(DomainError, match="puncture 0"):
            signature(Path((LineSegment(0.5 + 0j, 0j),)), 2)

    def test_level_zero(self):
        sig = signature(make_path({"waypoints": [0.25, 0.5]}), 0)
        assert sig.to_json() == {"level": 0, "coefficients": {"": [1.0, 0.0]}}

    def test_gamma1_windings(self):
        for turns in (1, 2, -1):
            sig = signature(make_path({"loop": "gamma1", "turns": turns}), 1)
            assert abs(sig.coefficient("0")) < 1e-9
            assert abs(sig.coefficient("1") + turns * TWO_PI_I) < 1e-9


class TestSpectralTransport:
    def test_gamma0_three_turns_one_letter(self):
        # only e0 winds: S(0^k) = (6 pi i)^k / k!, with coefficients up to 4e5
        sig = signature(make_path({"loop": "gamma0", "turns": 3}), 8)
        for k in range(1, 9):
            exact = (3 * TWO_PI_I) ** k / math.factorial(k)
            assert abs(sig.coefficient("0" * k) - exact) < 1e-12 * abs(exact)

    def test_large_coefficients_meet_non_polynomial_forms(self, monkeypatch):
        # after three turns about 0 the state holds coefficients up to 1e6 and
        # gamma1's forms are not polynomial; a stop rule scaled to them ends
        # in a few dozen panels, where an absolute one needs thousands
        g0, g1 = {"loop": "gamma0", "turns": 3}, {"loop": "gamma1", "turns": 1}
        monkeypatch.setattr(integrals, "_MAX_PANELS", 200)
        whole = signature({"compose": [g0, g1]}, 8)
        glued = signature(g0, 8).mul(signature(g1, 8))
        scale = np.maximum(1.0, np.abs(glued.array))
        assert (np.abs(whole.array - glued.array) < 1e-11 * scale).all()

    @pytest.mark.parametrize("segment", (LineSegment, LogSegment))
    def test_endpoint_next_to_puncture(self, segment):
        # 1 - z is taken from the nearer end, so -log(1-x) keeps its digits
        x = 1 - 1e-9
        sig = signature(Path((segment(0.5, x),)), 2)
        expected = math.log(0.5) - math.log(1 - x)
        assert abs(sig.coefficient("1") - expected) < 1e-13 * abs(expected)
        assert abs(sig.coefficient("11") - expected ** 2 / 2) < 1e-12 * expected ** 2

    def test_panel_cap_raises(self):
        # a hundred thousand turns cannot be resolved within the panel cap
        with pytest.raises(ConvergenceError, match="panels"):
            signature(make_path({"loop": "gamma0", "turns": 100000}), 2)

    def test_concat_arrays_matches_concat_mul(self, rng):
        # the sparse dict product is the independent reference for the gather
        r, dim = 6, 127
        a = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        b = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        words = word_basis(r)
        slow = concat_mul(dict(zip(words, a)), dict(zip(words, b)), r)
        fast = TruncatedSeries(r, a).mul(TruncatedSeries(r, b))
        assert max(abs(fast.coefficient(w) - slow.get(w, 0)) for w in words) < 1e-12


class TestCompose:
    def test_identity(self, rng):
        path = random_path(rng)
        sig = signature(path, 3)
        assert TruncatedSeries.identity(3).mul(sig).distance(sig) == 0

    def test_commuting_exponentials(self):
        a = exp_letter(0.3 + 0.2j, "0", 2)
        b = exp_letter(-1.1 + 0.7j, "0", 2)
        expected = exp_letter(-0.8 + 0.9j, "0", 2)
        assert a.mul(b).distance(expected) < 1e-12

    def test_split_path(self, rng):
        path = random_path(rng, n=4)
        cut = len(path.segments) // 2
        first, second = Path(path.segments[:cut]), Path(path.segments[cut:])
        whole = signature(path, 3)
        glued = signature(first, 3).mul(signature(second, 3))
        assert whole.distance(glued) < 10 * ABS_TOL

    def test_level_mismatch(self):
        with pytest.raises(DomainError):
            TruncatedSeries.identity(2).mul(TruncatedSeries.identity(3))


class TestSeriesInverse:
    def test_exact_in_floats(self, rng):
        # small integers keep every product and sum of the level-6 inverse
        # exact in floats, so g·g^-1 and g^-1·g are exactly the unit
        coeffs = {w: complex(*rng.integers(-3, 4, size=2))
                  for w in word_basis(6)[1:] if rng.random() < 0.7}
        g = TruncatedSeries.from_coeffs(6, {"": 1, **coeffs})
        one = TruncatedSeries.identity(6).array
        assert (g.mul(g.inverse()).array == one).all()
        assert (g.inverse().mul(g).array == one).all()

    def test_level8_signature(self):
        sig = signature({"waypoints": [[0.3, 0.3], [0.4, -0.5], [2, 0.1]]}, 8)
        one = TruncatedSeries.identity(8)
        assert sig.mul(sig.inverse()).distance(one) < 1e-13
        assert sig.inverse().mul(sig).distance(one) < 1e-12

    def test_needs_unit_constant(self):
        with pytest.raises(ValueError):
            TruncatedSeries.from_coeffs(2, {"": 2, "0": 1}).inverse()


class TestSizeCaps:
    def test_float_level(self):
        top = MAX_FLOAT_LEVEL
        assert signature({"waypoints": [[0.25, 0], [0.3, 0]]}, top).level == top
        for call in (lambda: signature({"loop": "gamma0"}, top + 1),
                     lambda: regularized_signature(0.5, top + 1),
                     lambda: regularized_loop_transport("0", top + 1),
                     lambda: transport(make_path({"loop": "gamma0"}), top + 1)):
            with pytest.raises(DomainError, match="level must be between"):
                call()


def _near_one(k: int) -> list:
    """Targets 10^-k from 1: above, below, and on the real axis where a float resolves them."""
    d = 10.0 ** -k
    return [x for x in (1 + 1j * d, 1 - 1j * d, 1 + d, 1 - d) if x != 1]


class TestReachNearOne:
    def test_panel_count(self, monkeypatch):
        # dz/(1-z) is constant on the spiral about 1, so the panels do not
        # grow with 1/|x - 1| (49 at 1 + 1e-7 on a radial reach); the pole of
        # dz/z at 0, log 4 e-folds before the spiral's start, adds two panels
        # per doubling of log(1/|x - 1|) below 1e-15: 10 at 1e-16, 18 at 1e-300
        calls = []
        panel = integrals._panel

        def counted(*args):
            calls.append(1)
            return panel(*args)
        monkeypatch.setattr(integrals, "_panel", counted)
        for k in range(1, 301):
            for x in _near_one(k):
                calls.clear()
                regularized_signature(x, 2)
                assert len(calls) <= (8 if k <= 15 else 18), (x, len(calls))

    @pytest.mark.parametrize("k", (1, 7, 15, 100, 300))
    def test_one_letter_words(self, k):
        # S(0^j) = log(x)^j / j! and S(1^j) = (-log(1 - x))^j / j!, with 1 - x
        # of argument -pi for real targets beyond 1 (the reach passes above)
        for x in _near_one(k):
            side = complex(x.real, 1e-300) if x.imag == 0 and x.real > 1 else x
            sig = regularized_signature(x, 8)
            for letter, log in (("0", cmath.log(side)), ("1", -cmath.log(1 - side))):
                for j in range(1, 9):
                    exact = log ** j / math.factorial(j)
                    assert abs(sig.coefficient(letter * j) - exact) < 1e-12 * max(1, abs(exact))


class TestRegularized:
    def test_half_closed_forms(self):
        sig = regularized_signature(0.5, 2)
        assert abs(sig.coefficient("0") - cmath.log(0.5)) < 10 * ABS_TOL
        assert abs(sig.coefficient("1") - math.log(2)) < 10 * ABS_TOL
        assert abs(sig.coefficient("10") - LI2_HALF) < 10 * ABS_TOL

    def test_weight_three_anchor(self):
        # the coefficient of "100" is the trilogarithm (series oracle)
        sig = regularized_signature(0.5, 3)
        li3 = sum(0.5 ** n / n ** 3 for n in range(1, 200))
        assert abs(sig.coefficient("100") - li3) < 1e-9
        # weight-3 shuffle identity among the regularized coefficients
        lhs = sig.coefficient("0") * sig.coefficient("10")
        rhs = sig.coefficient("010") + 2 * sig.coefficient("100")
        assert abs(lhs - rhs) < 1e-10

    def test_weight_four_anchor(self):
        sig = regularized_signature(0.3, 4)
        li4 = sum(0.3 ** n / n ** 4 for n in range(1, 200))
        assert abs(sig.coefficient("1000") - li4) < 1e-8

    def test_detour_branch_beyond_one(self):
        # the standard path passes above 1, so 1-x acquires argument -pi
        sig = regularized_signature(2.5, 2)
        assert abs(sig.coefficient("0") - math.log(2.5)) < 1e-9
        expected_l1 = -math.log(1.5) + 1j * math.pi
        assert abs(sig.coefficient("1") - expected_l1) < 1e-9

    def test_small_x_coefficients_vanish(self):
        sig = regularized_signature(1e-3, 2)
        assert abs(sig.coefficient("1")) < 2e-3
        assert abs(sig.coefficient("10")) < 2e-3
        assert abs(sig.coefficient("11")) < 1e-5

    def test_loop_prefix_shifts_log_branch(self):
        plain = regularized_signature(0.3 + 0.2j, 2)
        looped = regularized_signature(0.3 + 0.2j, 2, loop_prefix="0")
        assert abs((looped.coefficient("0") - plain.coefficient("0")) - TWO_PI_I) < 1e-9
        assert abs(looped.coefficient("1") - plain.coefficient("1")) < 1e-9

    def test_puncture_rejected(self):
        with pytest.raises(DomainError):
            regularized_signature(1.0, 2)

    def test_chen_pairing_finiteness(self):
        # pairing of a length-2 word against a product of three augmentation
        # factors: the alternating sum over sub-compositions cancels
        loops = ["0", "1", "0"]
        sigs = {(): TruncatedSeries.identity(2)}
        from itertools import combinations
        def loop_sig(indices):
            if not indices:
                return TruncatedSeries.identity(2)
            word = " ".join(loops[i] for i in indices)
            return regularized_loop_transport(word, 2)
        for w in ("0", "1", "01", "10", "11", "00"):
            total = 0j
            for k in range(4):
                for subset in combinations(range(3), k):
                    total += (-1) ** (3 - k) * loop_sig(subset).coefficient(w)
            assert abs(total) < 10 * ABS_TOL


class TestTangentialBasePoint:
    @pytest.mark.parametrize("x", (0.3, 0.3 + 0.2j, -0.7 + 0.1j), ids=str)
    def test_polylog_anchors(self, x):
        # the word 1 0^(r-1) of the regularized signature is Li_r(x)
        for r in range(2, 9):
            sig = regularized_signature(x, r)
            assert abs(sig.coefficient("1" + "0" * (r - 1)) - polylog_series(r, x)) < 1e-13

    def test_loop_about_zero_is_exact(self):
        # at the tangential base point the monodromy about 0 is exp(2 pi i e0)
        for r in range(2, 9):
            t = regularized_loop_transport("0", r)
            assert t.distance(exp_letter(TWO_PI_I, "0", r)) < 1e-11

    def test_series_matches_transport_inside_the_disk(self):
        # exp(log z e0) H(z) from the series alone, against S(1/8) times the
        # panel engine's transport from 1/8 along a path inside |z| < 1/2
        r = 6
        path = make_path({"waypoints": [[0.125, 0], [0.3, 0.2], [-0.1, 0.4]]})
        for end in (1, 2):
            part = Path(path.segments[:end])
            z = part.end
            direct = exp_letter(cmath.log(z), "0", r).mul(TruncatedSeries(r, holomorphic_part(z, r)))
            routed = integrals._base_constant(r).mul(TruncatedSeries(r, transport(part, r)))
            assert direct.distance(routed) < 1e-12

    def test_series_terms_at_the_junction(self, monkeypatch):
        # 17 terms reach rounding at 1/8 on level 8; 16 do not
        monkeypatch.setattr(integrals, "_MAX_TERMS", 17)
        holomorphic_part(0.125, 8)
        monkeypatch.setattr(integrals, "_MAX_TERMS", 16)
        with pytest.raises(ConvergenceError, match="16 terms"):
            holomorphic_part(0.125, 8)

    def test_series_must_converge(self):
        # near the unit circle the terms decay like |z|^n / n
        with pytest.raises(ConvergenceError, match="did not converge"):
            holomorphic_part(0.999, 2)


class TestMonodromyMatrix:
    """The one monodromy route, albanese.monodromy_action, on loops of every kind."""

    def test_trivial_loop(self):
        loop = make_path({"compose": [{"waypoints": [0.125, 0.3]},
                                      {"waypoints": [0.3, 0.125]}]})
        assert (monodromy_action(loop) == np.eye(3, dtype=int)).all()

    def test_trivial_path_spec_loop(self):
        # a there-and-back loop from a base point off the junction, as a spec
        spec = {"compose": [{"waypoints": [0.3, 0.6]}, {"waypoints": [0.6, 0.3]}]}
        assert (monodromy_action(spec) == np.eye(3, dtype=int)).all()

    def test_gamma0(self):
        g = monodromy_action("0")
        assert g.tolist() == [[1, 0, 0], [0, 1, 1], [0, 0, 1]]

    def test_gamma1_frozen(self):
        from alblab.albanese import regression_constants
        g = monodromy_action("1")
        assert g.tolist() == regression_constants()["monodromy_matrices"]["gamma1"]

    def test_group_word_and_string_agree(self):
        word = "0 1 0^-1 1^-1"
        g = monodromy_action(GroupWord.from_string(word))
        assert g.tolist() == monodromy_action(word).tolist()

    def test_loops_based_off_the_junction(self):
        # polygons based at 0.3 are conjugated by the reach from 1/8 first
        from alblab.albanese import regression_constants
        frozen = regression_constants()["monodromy_matrices"]
        about0 = {"waypoints": [0.3, [0, 0.3], [-0.3, 0], [0, -0.3], 0.3]}
        about1 = {"waypoints": [0.3, [1, -0.5], [1.7, 0], [1, 0.5], 0.3]}
        assert monodromy_action(about0).tolist() == frozen["gamma0"]
        assert monodromy_action(about1).tolist() == frozen["gamma1"]

    def test_gamma1_path_spec(self):
        g = monodromy_action({"loop": "gamma1", "turns": 1})
        assert g.tolist() == monodromy_action("1").tolist()


class TestShuffleRelationsSampled:
    def test_random_paths(self, rng):
        pairs = [(u, v) for u in word_basis(3) for v in word_basis(3)
                 if u and v and len(u) + len(v) <= 4]
        for _ in range(5):
            path = random_path(rng)
            sig = signature(path, 4)
            for u, v in pairs:
                lhs = sig.coefficient(u) * sig.coefficient(v)
                rhs = sum(m * sig.coefficient(w) for w, m in shuffle_words(u, v))
                assert abs(lhs - rhs) < 10 * ABS_TOL


class TestTolerance:
    def test_both_routes_read_the_tolerance_when_they_run(self, monkeypatch):
        # a near-singular sweep: the refinement stops as soon as two rounds agree
        path = make_path({"waypoints": [[0.5, 1e-2], [0.99, 1e-2], [0.5, 0.5]]})
        value, err = iterated_integral("11", path, with_error=True)
        assert err < ABS_TOL
        many_turns = make_path({"loop": "gamma0", "turns": 1000})
        with pytest.raises(ConvergenceError, match="reach 1e-10 within 4096 panels"):
            signature(many_turns, 2)
        monkeypatch.setattr(integrals, "ABS_TOL", 1e-3)
        coarse, loose = iterated_integral("11", path, with_error=True)
        assert err < loose < 1e-3 and abs(coarse - value) < 1e-3
        monkeypatch.setattr(integrals, "ABS_TOL", 1e-300)
        with pytest.raises(ConvergenceError, match="reach 1e-300 within 10 refinements"):
            iterated_integral("11", path)
        with pytest.raises(ConvergenceError, match="reach 1e-300 within 4096 panels"):
            signature(many_turns, 2)
