"""The degree-two Albanese map: values, monodromy, extension, MHS bookkeeping."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from alblab import linalg
from alblab.albanese import (albanese_point, check_lie_action, extended_albanese,
                             monodromy_action, monodromy_logarithms, raw_coordinates,
                             regression_constants)
from alblab.hodge import (TWO_PI_I, boundary_chart_point, coordinate_action,
                          reduce_mod_integral, unipotent_matrix)
from alblab.integrals import ABS_TOL
from alblab.paths import DomainError

LI2_HALF = math.pi ** 2 / 12 - math.log(2) ** 2 / 2


def li2_series(x: complex, terms: int = 300) -> complex:
    return sum(x ** n / n ** 2 for n in range(1, terms))


def li2(x: complex) -> complex:
    """Principal Li_2 by its series, through the inversion formula for |x| >= 2
    and the reflection formula for |1 - x| <= 1/2."""
    if abs(x) <= 0.5:
        return li2_series(x, 80)
    if abs(x) >= 2:
        return -math.pi ** 2 / 6 - cmath.log(-x) ** 2 / 2 - li2_series(1 / x, 80)
    if abs(1 - x) <= 0.5:
        return math.pi ** 2 / 6 - cmath.log(x) * cmath.log(1 - x) - li2_series(1 - x, 80)
    raise ValueError("the series oracle covers |x| <= 1/2, |x| >= 2 and |1 - x| <= 1/2")


class TestAlbanesePoint:
    def test_half_values(self):
        p = albanese_point(0.5)
        expected_raw = (cmath.log(0.5) / TWO_PI_I, math.log(2) / TWO_PI_I,
                        LI2_HALF / TWO_PI_I ** 2)
        reduced, _ = reduce_mod_integral(*expected_raw)
        assert max(abs(a - b) for a, b in zip(p.coords, reduced)) < 1e-8

    def test_homotopy_classes_agree(self):
        x = 0.4 + 0.3j
        base = albanese_point(x)
        for prefix in ("0", "1", "0 1^-1"):
            other = albanese_point(x, homotopy_class=prefix)
            assert base.distance(other) < 1e-8

    def test_raw_coordinates_differ_by_integers(self):
        x = 0.4 + 0.3j
        plain = raw_coordinates(x)
        looped = raw_coordinates(x, loop_prefix="0")
        assert abs((looped[0] - plain[0]) - 1) < 1e-9
        assert abs(looped[1] - plain[1]) < 1e-9

    def test_small_x_behavior(self):
        x = 1e-3
        alpha, beta, lam = raw_coordinates(x)
        # alpha = log(x)/(2 pi i) has large positive imaginary part
        assert alpha.imag > 1.0
        assert abs(alpha.imag - (-math.log(x) / (2 * math.pi))) < 1e-9
        assert abs(beta) < 2e-3 and abs(lam) < 2e-3

    def test_puncture_rejected(self):
        with pytest.raises(DomainError):
            albanese_point(0.0)

    @pytest.mark.parametrize("x", (1e-12, 2 + 1e-8j, 2 - 1e-8j, 1 + 1e-20j, 1 - 1e-20j,
                                   1e308 + 1e-300j, -1e308, 1e308j, 1e100 + 1e100j), ids=str)
    def test_closed_forms_next_to_puncture_and_cut(self, x):
        # 1e-12 hugs the puncture 0, 2 +- 1e-8 i lie next to the cut beyond 1,
        # and 1 +- 1e-20 i sit closer to 1 than a float near 1 can resolve; the
        # last four end the reach on a log segment of up to 709 e-folds (the
        # reach to 1e308 + 1e-300 i is the one to 1e308, which passes above 1)
        expected = (cmath.log(x) / TWO_PI_I, -cmath.log(1 - x) / TWO_PI_I,
                    li2(x) / TWO_PI_I ** 2)
        p = albanese_point(x)
        assert max(abs(a - b) for a, b in zip(p.raw, expected)) < ABS_TOL

    def test_one_ulp_beyond_one(self):
        # the detour arc cannot end at 1 + ulp/2, which rounds onto 1; it ends
        # at x itself, above 1, where 1 - x has argument -pi
        x = 1.0000000000000002
        above = complex(x, 1e-300)
        expected = (cmath.log(above) / TWO_PI_I, -cmath.log(1 - above) / TWO_PI_I,
                    li2(above) / TWO_PI_I ** 2)
        p = albanese_point(x)
        assert max(abs(a - b) for a, b in zip(p.raw, expected)) < ABS_TOL

    def test_target_beyond_the_float_range_of_the_forms(self):
        # dz/(1-z) on a ray would be 2e310 at 1 + 1e-310 i; on the spiral about 1
        # it is the constant -log(4e-310) + i pi/2, so the target is answered
        x = 1 + 1e-310j
        expected = (cmath.log(x) / TWO_PI_I, -cmath.log(1 - x) / TWO_PI_I,
                    li2(x) / TWO_PI_I ** 2)
        p = albanese_point(x)
        assert max(abs(a - b) for a, b in zip(p.raw, expected)) < ABS_TOL

    @pytest.mark.parametrize("k", (1, 3, 7, 12, 15, 16, 60, 300))
    def test_raw_coordinates_next_to_one(self, k):
        # around 1 on both sides, along the real axis on both sides of 1 (beyond
        # 1 the reach passes above it), closed forms with Li2 by reflection
        d = 10.0 ** -k
        targets = [1 + d * cmath.exp(1j * a) for a in (0.7, -0.7, 2.0, -2.9, math.pi / 2)]
        targets += [complex(1 + d, 0.0), complex(1 + d, -0.0), 1 - d]
        for x in (x for x in targets if x != 1):
            side = complex(x.real, 1e-300) if x.imag == 0 and x.real > 1 else x
            expected = (cmath.log(side) / TWO_PI_I, -cmath.log(1 - side) / TWO_PI_I,
                        li2(side) / TWO_PI_I ** 2)
            raw = raw_coordinates(x)
            assert max(abs(a - b) for a, b in zip(raw, expected)) < ABS_TOL

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_negative_axis_keeps_its_side(self, sign):
        # the reach to -2 + 0.0j passes above 0 and the one to -2 - 0.0j below,
        # so log x = 2 pi i alpha continues to log 2 +- pi i
        alpha, _, _ = raw_coordinates(complex(-2, math.copysign(0.0, sign)))
        log_x = TWO_PI_I * alpha
        assert math.copysign(1.0, log_x.imag) == sign
        assert abs(log_x - complex(math.log(2), sign * math.pi)) < 1e-12

    def test_junction_point_target(self):
        # the standard path degenerates to a constant tail there
        p = albanese_point(0.125)
        assert abs(p.alpha - cmath.log(0.125) / TWO_PI_I) < 1e-9

    def test_reduced_class_continuous_across_argument_cut(self):
        # the canonical-path convention flips across the negative real axis,
        # but the flip is by an integer matrix, so reduced classes agree
        above = albanese_point(-0.5 + 1e-9j)
        below = albanese_point(-0.5 - 1e-9j)
        assert above.distance(below) < 1e-7


def _other_convention(alpha, beta, lam):
    """Coordinates of the same class read off the inverse matrix."""
    return beta, alpha, alpha * beta - lam


def _random_rationals(rng, n):
    return [Fraction(int(rng.integers(-50, 51)), int(rng.integers(1, 20))) for _ in range(n)]


class TestAlternativeForm:
    """The inverse-matrix convention is a coordinate change, checked exactly."""

    def test_frozen_comparison_rule(self, rng):
        # [[1, -alpha, lambda], [0, 1, -beta], [0, 0, 1]]^-1 read at (2,3), (1,2)
        # and (1,3) is (beta, alpha, alpha*beta - lambda)
        for _ in range(50):
            alpha, beta, lam = _random_rationals(rng, 3)
            mat = [[1, -alpha, lam], [0, 1, -beta], [0, 0, 1]]
            inverse = unipotent_matrix(*_other_convention(alpha, beta, lam))
            identity = [[int(i == j) for j in range(3)] for i in range(3)]
            assert linalg.product(mat, inverse) == identity
            assert linalg.product(inverse, mat) == identity

    def test_alt_monodromy_stability(self, rng):
        # the change turns the integer action by (a, b, c) into the action by
        # (b, a, ab - c), so reduced classes agree in either convention
        for _ in range(50):
            coords = _random_rationals(rng, 3)
            a, b, c = (int(v) for v in rng.integers(-5, 6, size=3))
            moved = _other_convention(*coordinate_action(unipotent_matrix(a, b, c), coords))
            assert moved == coordinate_action(unipotent_matrix(b, a, a * b - c),
                                              _other_convention(*coords))


class TestMonodromyAction:
    def test_empty_word(self):
        g = monodromy_action("")
        assert (g == np.eye(3, dtype=int)).all()

    def test_generators_match_frozen(self):
        frozen = regression_constants()["monodromy_matrices"]
        assert monodromy_action("0").tolist() == frozen["gamma0"]
        assert monodromy_action("1").tolist() == frozen["gamma1"]

    def test_commutator_is_central_shift(self):
        g = monodromy_action("0 1 0^-1 1^-1")
        assert g.tolist() == regression_constants()["monodromy_matrices"]["commutator"]

    def test_homomorphy(self):
        g0 = monodromy_action("0")
        g1 = monodromy_action("1")
        g01 = monodromy_action("0 1")
        assert (g01 == g0 @ g1).all()
        g101 = monodromy_action("1 0 1^-1")
        assert (g101 == g1 @ g0 @ np.linalg.inv(g1).astype(int)).all()

    def test_heisenberg_generation(self):
        g0 = monodromy_action("0")
        g1 = monodromy_action("1")
        ab = np.array([[g0[1][2], g1[1][2]], [g0[0][1], g1[0][1]]])
        assert abs(round(np.linalg.det(ab))) == 1  # abelianization generates Z^2
        comm = monodromy_action("0 1 0^-1 1^-1")
        assert abs(comm[0][2]) == 1                # commutator generates the center


class TestExtendedMap:
    def test_at_zero(self):
        assert extended_albanese(0) == (0, 0, 0)

    def test_series_oracle_at_tenth(self):
        q, beta, lam = extended_albanese(0.1)
        assert q == 0.1
        l1 = -cmath.log(1 - 0.1)
        assert abs(beta - l1 / TWO_PI_I) < 1e-8
        assert abs(lam - li2_series(0.1) / TWO_PI_I ** 2) < 1e-8

    def test_chart_consistency(self):
        for x in (0.1, 0.05, 0.2j, -0.15 + 0.1j):
            q, beta, lam = extended_albanese(x)
            chart = boundary_chart_point(q, beta, lam)
            direct = albanese_point(x)
            assert max(abs(a - b) for a, b in zip(chart.coords, direct.coords)) < 1e-8

    def test_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            extended_albanese(0.75)

    def test_radial_continuity_at_zero(self):
        for k in range(10):
            direction = cmath.exp(2j * math.pi * k / 10)
            x = 0.01 * direction
            q, beta, lam = extended_albanese(x)
            assert abs(beta) <= 2 * abs(x)
            assert abs(lam) <= 2 * abs(x)

    def test_orbit_class_at_zero(self):
        cc = boundary_chart_point(*extended_albanese(0))
        assert cc.kind == "orbit"
        assert (cc.orbit_generator.a, cc.orbit_generator.b, cc.orbit_generator.c) == (1, 0, 0)
        assert abs(cc.orbit_lambda) == 0


class TestPathIndependence:
    def test_reduced_class_fixed_under_loops(self, rng):
        xs = [0.3, 0.6 + 0.4j, -0.2 + 0.25j, 1.4 + 0.5j, 0.5 - 0.35j, 0.07]
        words = ["0", "1", "0 1", "1^-1 0 1", "0 0 1^-1", "1 0 1 0^-1"]
        for x in xs:
            base = albanese_point(x)
            for word in words:
                moved = albanese_point(x, homotopy_class=word)
                assert base.distance(moved) < 1e-8, (x, word)


class TestMHSMorphism:
    """log M0 and log M1 of the computed generator matrices against W and the types."""

    def test_both_tables_pass(self):
        report = check_lie_action(monodromy_logarithms())
        assert report["passes"]

    def test_tables_are_the_expected_maps(self):
        logs = monodromy_logarithms()
        assert logs["N0"] == [[0, 0, 0], [0, 0, 1], [0, 0, 0]]    # e3 -> e2
        assert logs["N1"] == [[0, -1, 0], [0, 0, 0], [0, 0, 0]]   # e2 -> -e1
        assert all(isinstance(x, Fraction) for n in logs.values() for row in n for x in row)

    def test_logarithm_subtracts_half_the_square(self, monkeypatch):
        # a generator matrix with (g - 1)^2 != 0, as at higher level
        import alblab.albanese as albanese
        monkeypatch.setattr(albanese, "monodromy_action",
                            lambda word: np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]]))
        assert monodromy_logarithms()["N0"] == [[0, 1, Fraction(-1, 2)], [0, 0, 1], [0, 0, 0]]

    def test_perturbed_action_detected(self):
        perturbed = {"N0": [[0, 0, 1], [0, 0, 1], [0, 0, 0]],
                     "N1": monodromy_logarithms()["N1"]}
        report = check_lie_action(perturbed)
        assert report["N0"]["weight_compatible"]        # image stays in low weights
        assert not report["N0"]["type_compatible"]      # but mixes Hodge types
        assert not report["passes"]

    def test_weight_violation_detected(self):
        bad = {"N0": [[0, 0, 0], [0, 0, 0], [0, 1, 0]], "N1": monodromy_logarithms()["N1"]}
        assert not check_lie_action(bad)["N0"]["weight_compatible"]


class TestDifferentialRelations:
    def test_finite_differences(self):
        h = 1e-4
        for x in (0.45 + 0.3j, 0.3 - 0.25j):
            a0, b0, l0 = raw_coordinates(x)
            ap, bp, lp = raw_coordinates(x + h)
            am, bm, lm = raw_coordinates(x - h)
            dalpha, dbeta, dlam = (ap - am) / 2, (bp - bm) / 2, (lp - lm) / 2
            assert abs(dalpha - h / x / TWO_PI_I) < 1e-6
            assert abs(dbeta - h / (1 - x) / TWO_PI_I) < 1e-6
            assert abs(dlam - b0 * dalpha) < 1e-6
