"""Period-domain machinery: flags, the orbit criterion, monodromy filtrations, the chart."""

import cmath
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alblab import hodge, linalg
from alblab.acceptance import rmf_brute_force, rmf_profile
from alblab.hodge import (LAMBDA, Heisenberg, NilpotentEndo,
                          WeightFiltrationGeneric, boundary_chart_point,
                          generates_nilpotent_orbit,
                          griffiths_transversal, hodge_filtration_from,
                          reduce_mod_integral,
                          relative_monodromy_filtration,
                          verify_relative_monodromy)
from alblab.errors import ConvergenceError
from alblab.paths import DomainError

frac = st.fractions(min_value=-4, max_value=4, max_denominator=5)


class TestFiltration:
    def test_base_flag(self):
        f = hodge_filtration_from(Fraction(0), Fraction(0), Fraction(0))
        assert f.generators(0) == [[0, 0, 1]]
        assert f.generators(-1) == [[0, 0, 1], [0, 1, 0]]

    @given(frac, frac, frac, st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
    @settings(max_examples=50, deadline=None)
    def test_left_multiplication_action(self, alpha, beta, lam, a, b, c):
        g = Heisenberg(a, b, c)
        moved = g.act((alpha, beta, lam))
        f_moved = hodge_filtration_from(*moved)
        # matrix-product oracle: apply g to the generators of F(alpha,beta,lam)
        f = hodge_filtration_from(alpha, beta, lam)
        g_frac = [[Fraction(x) for x in row] for row in g.matrix()]
        for p in (0, -1):
            pushed = [linalg.apply(g_frac, v) for v in f.generators(p)]
            target = f_moved.generators(p)
            assert linalg.Subspace.span(pushed, 3) == linalg.Subspace.span(target, 3)

    @given(frac, frac, frac)
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, alpha, beta, lam):
        f = hodge_filtration_from(alpha, beta, lam)
        assert f.coordinates() == (alpha, beta, lam)

    def test_round_trip_float(self, rng):
        for _ in range(100):
            coords = tuple(complex(rng.normal(), rng.normal()) for _ in range(3))
            f = hodge_filtration_from(*coords)
            back = f.coordinates()
            assert max(abs(a - b) for a, b in zip(coords, back)) < 1e-12


class TestTransversality:
    def test_zero_endo(self):
        f = hodge_filtration_from(Fraction(1, 2), Fraction(3), Fraction(-1))
        assert griffiths_transversal(NilpotentEndo(0, 0, 0), f)

    def test_a_only(self):
        # N = (1,0,0): transversal iff beta = 0
        f0 = hodge_filtration_from(Fraction(2), Fraction(0), Fraction(5))
        f1 = hodge_filtration_from(Fraction(2), Fraction(1, 3), Fraction(5))
        n = NilpotentEndo(1, 0, 0)
        assert griffiths_transversal(n, f0)
        assert not griffiths_transversal(n, f1)

    def test_paper_criterion_instance(self):
        # N = (1,1,c) with F(alpha,beta,lambda): true iff c = beta - alpha
        alpha, beta = Fraction(3, 2), Fraction(-2, 3)
        f = hodge_filtration_from(alpha, beta, Fraction(7))
        assert griffiths_transversal(NilpotentEndo(1, 1, beta - alpha), f)
        assert not griffiths_transversal(NilpotentEndo(1, 1, beta - alpha + 1), f)

    @given(frac, frac, frac, frac, frac, frac)
    @settings(max_examples=100, deadline=None)
    def test_criterion_equivalence(self, a, b, c, alpha, beta, lam):
        n = NilpotentEndo(a, b, c)
        f = hodge_filtration_from(alpha, beta, lam)
        assert griffiths_transversal(n, f) == (c == a * beta - b * alpha)

    @pytest.mark.parametrize("entry", (math.nan, math.inf, -math.inf, complex(0, math.nan),
                                       Fraction(10 ** 400)))
    def test_non_finite_flag_rejected(self, entry):
        with pytest.raises(DomainError, match="finite"):
            hodge_filtration_from(0.5, entry, 0.0)

    @given(frac, frac, frac, frac, frac, st.sampled_from((Fraction(0), Fraction(1, 125), Fraction(-3))))
    @settings(max_examples=100, deadline=None)
    def test_float_route_is_the_criterion(self, a, b, alpha, beta, lam, offset):
        # the exact span-membership route is the oracle of the float decision;
        # c meets the criterion exactly or misses it by at least 1/125
        n = NilpotentEndo(a, b, a * beta - b * alpha + offset)
        exact = griffiths_transversal(n, hodge_filtration_from(alpha, beta, lam))
        approx = generates_nilpotent_orbit(
            n, hodge_filtration_from(*map(complex, (alpha, beta, lam)))).generates
        assert approx == exact == (offset == 0)

    def test_float_route(self):
        f = hodge_filtration_from(0.25, 0.5 + 0.1j, -0.7)
        n = NilpotentEndo(2, 0, 0)
        assert not generates_nilpotent_orbit(n, f).generates
        f0 = hodge_filtration_from(0.25, 0.0, -0.7)
        assert generates_nilpotent_orbit(n, f0).generates


class TestOrbitCriterion:
    def test_zero_endo_always(self):
        f = hodge_filtration_from(0.3 + 1j, -2.0, 0.9j)
        assert generates_nilpotent_orbit(NilpotentEndo(0, 0, 0), f).generates

    def test_paper_specialization(self):
        n = NilpotentEndo(1, 0, 0)
        assert generates_nilpotent_orbit(n, hodge_filtration_from(
            Fraction(4), Fraction(0), Fraction(1))).generates
        assert not generates_nilpotent_orbit(n, hodge_filtration_from(
            Fraction(4), Fraction(1), Fraction(1))).generates

    def test_weight_filtration_is_its_own_rmf(self):
        # the lemma behind OrbitResult.admissible: every N lowers W by 2, so
        # the relative monodromy filtration exists and is W itself
        values = (Fraction(0), Fraction(1), Fraction(-2), Fraction(3, 7))
        for a, b, c in itertools.product(values, repeat=3):
            n = NilpotentEndo(a, b, c)
            m = relative_monodromy_filtration(n, LAMBDA.weights)
            assert m == LAMBDA.weights
            assert verify_relative_monodromy(n, LAMBDA.weights, m)

    def test_orbit_never_computes_the_rmf(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the orbit criterion computed a relative monodromy filtration")

        monkeypatch.setattr(hodge, "relative_monodromy_filtration", refuse)
        n = NilpotentEndo(1, 1, Fraction(1, 3))
        for coords in ((Fraction(0), Fraction(1, 3), Fraction(5)), (0.25, 0.5 + 0.1j, -0.7)):
            r = generates_nilpotent_orbit(n, hodge_filtration_from(*coords))
            assert r.admissible

    def test_float_disagreement_at_the_tolerance_is_numerical(self):
        # a float flag is decided by the criterion within 1e-12 alone, where
        # the exact flag's span membership holds only at c = 0
        f = hodge_filtration_from(0.0, 0.0, 0.0)
        exact = hodge_filtration_from(Fraction(0), Fraction(0), Fraction(0))
        for c, inside in (("1.2e-12", False), ("1.01e-12", False), ("0.99e-12", True), ("0", True)):
            n = NilpotentEndo(1, 0, Fraction(c))
            r = generates_nilpotent_orbit(n, f)
            assert (r.generates, griffiths_transversal(n, exact)) == (inside, c == "0")
            assert r.criterion_defect == float(c)

    def test_exact_disagreement_stays_a_hard_error(self, monkeypatch):
        monkeypatch.setattr(hodge, "griffiths_transversal", lambda n, f: False)
        f = hodge_filtration_from(Fraction(0), Fraction(0), Fraction(0))
        with pytest.raises(RuntimeError, match="disagree") as info:
            generates_nilpotent_orbit(NilpotentEndo(0, 0, 0), f)
        assert not isinstance(info.value, ConvergenceError)


class TestPureMonodromy:
    def test_zero_matrix(self):
        mat = [[Fraction(0)] * 2 for _ in range(2)]
        w = WeightFiltrationGeneric.from_dict({5: [[1, 0], [0, 1]]}, 2)
        m = relative_monodromy_filtration(mat, w)
        assert m.subspace(5) == linalg.Subspace.full(2)
        assert m.subspace(4) == linalg.Subspace.zero(2)

    def test_jordan_block(self):
        mat = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        w = WeightFiltrationGeneric.from_dict({3: [[1, 0], [0, 1]]}, 2)
        m = relative_monodromy_filtration(mat, w)
        assert m.jumps == [2, 4]
        assert verify_relative_monodromy(mat, w, m)
        assert rmf_brute_force(mat, w) == [m]


class TestRelativeMonodromy:
    def test_rmf_of_the_zero_space(self):
        # W.jumps[-1] of the empty filtration used to raise IndexError
        empty = WeightFiltrationGeneric.from_dict({}, 0)
        m = relative_monodromy_filtration([], empty)
        assert m == empty and m.to_json() == {}

    def test_zero_endo_gives_w(self):
        m = relative_monodromy_filtration(NilpotentEndo(0, 0, 0), LAMBDA.weights)
        assert m == LAMBDA.weights

    def test_lambda_example(self):
        n = NilpotentEndo(1, 0, 0)
        m = relative_monodromy_filtration(n, LAMBDA.weights)
        assert m is not None
        assert verify_relative_monodromy(n, LAMBDA.weights, m)
        search = rmf_brute_force(n.matrix(), LAMBDA.weights)
        assert search == [m]

    def test_non_existence(self):
        mat = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        w = WeightFiltrationGeneric.from_dict({-1: [[1, 0]], 0: [[1, 0], [0, 1]]}, 2)
        assert relative_monodromy_filtration(mat, w) is None
        assert rmf_brute_force(mat, w) == []

    def test_shift_two_exists(self):
        mat = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        w = WeightFiltrationGeneric.from_dict({-2: [[1, 0]], 0: [[1, 0], [0, 1]]}, 2)
        m = relative_monodromy_filtration(mat, w)
        assert m is not None and verify_relative_monodromy(mat, w, m)

    def test_non_nilpotent_rejected(self):
        mat = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        w = WeightFiltrationGeneric.from_dict({0: [[1, 0], [0, 1]]}, 2)
        with pytest.raises(DomainError):
            relative_monodromy_filtration(mat, w)

    def test_w_preservation_required(self):
        # N maps e1 (low weight) out to e2 (high weight)
        mat = [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]
        w = WeightFiltrationGeneric.from_dict({-2: [[1, 0]], 0: [[1, 0], [0, 1]]}, 2)
        with pytest.raises(DomainError):
            relative_monodromy_filtration(mat, w)

    def test_verify_needs_n_to_be_an_isomorphism(self):
        # N = 0 meets N M_k ⊆ M_{k-2} and the dimensions of gr_1 and gr_-1
        # agree, but N: gr_1 -> gr_-1 is not an isomorphism
        zero = [[Fraction(0)] * 2 for _ in range(2)]
        w = WeightFiltrationGeneric.from_dict({0: [[1, 0], [0, 1]]}, 2)
        split = WeightFiltrationGeneric.from_dict({-1: [[1, 0]], 1: [[1, 0], [0, 1]]}, 2)
        assert not verify_relative_monodromy(zero, w, split)
        assert verify_relative_monodromy(zero, w, w)
        block = [[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]]
        assert verify_relative_monodromy(block, w, split)

    def test_randomized_against_search(self, rng):
        from alblab.acceptance import _random_rmf_instance
        for _ in range(40):
            mat, w = _random_rmf_instance(rng)
            ours = relative_monodromy_filtration(mat, w)
            found = rmf_brute_force(mat, w)
            if ours is None:
                assert found == []
            else:
                assert verify_relative_monodromy(mat, w, ours)
                assert found == [ours]


rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
elements = st.builds(Heisenberg, rational, rational, rational)


def _fraction_matrix(g: Heisenberg) -> list:
    return [[Fraction(x) for x in row] for row in g.matrix()]


class TestHeisenberg:
    """The level-2 group law, inverse, action and log against 3 x 3 matrices."""

    @given(elements, elements)
    @settings(max_examples=100, deadline=None)
    def test_product_is_the_matrix_product(self, g, h):
        assert (g * h).matrix() == linalg.product(_fraction_matrix(g), _fraction_matrix(h))

    @given(elements)
    @settings(max_examples=100, deadline=None)
    def test_inverse_is_the_matrix_inverse(self, g):
        identity = [[int(i == j) for j in range(3)] for i in range(3)]
        assert linalg.product(_fraction_matrix(g), _fraction_matrix(g.inverse())) == identity
        assert g * g.inverse() == g.inverse() * g == Heisenberg(0, 0, 0)

    @given(elements, rational, rational, rational)
    @settings(max_examples=100, deadline=None)
    def test_action_is_left_multiplication_of_the_point(self, g, alpha, beta, lam):
        point = Heisenberg(alpha, beta, lam)
        moved = linalg.product(_fraction_matrix(g), _fraction_matrix(point))
        assert g.act((alpha, beta, lam)) == (moved[1][2], moved[0][1], moved[0][2])

    @given(elements)
    @settings(max_examples=100, deadline=None)
    def test_matrix_round_trip(self, g):
        assert Heisenberg.of(g.matrix()) == g

    @given(elements)
    @settings(max_examples=100, deadline=None)
    def test_closed_form_log(self, g):
        # (g - 1) - (g - 1)^2 / 2, as (g - 1)^3 = 0
        u = [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(_fraction_matrix(g))]
        series = [[x - y / 2 for x, y in zip(row, row2)]
                  for row, row2 in zip(u, linalg.product(u, u))]
        assert g.log().matrix() == series


class TestReduce:
    def test_identity(self):
        reduced, g = reduce_mod_integral(0.0, 0.0, 0.0)
        assert reduced == (0, 0, 0)
        assert g == Heisenberg(0, 0, 0)

    def test_worked_example(self):
        reduced, g = reduce_mod_integral(1.5, -0.25 + 1j, 2 + 0.5j)
        assert reduced == (0.5, 0.75 + 1j, 0.5 + 0.5j)
        assert g == Heisenberg(-1, 1, -3)
        assert g.matrix() == [[1, 1, -3], [0, 1, -1], [0, 0, 1]]

    def test_idempotent(self, rng):
        for _ in range(50):
            coords = tuple(complex(rng.normal() * 3, rng.normal()) for _ in range(3))
            reduced, _ = reduce_mod_integral(*coords)
            again, g = reduce_mod_integral(*reduced)
            assert again == reduced
            assert g == Heisenberg(0, 0, 0)

    def test_orbit_invariance(self, rng):
        for _ in range(100):
            coords = tuple(complex(rng.normal() * 2, rng.normal()) for _ in range(3))
            g = Heisenberg(*(int(x) for x in rng.integers(-5, 6, size=3)))
            moved = g.act(coords)
            r1, _ = reduce_mod_integral(*coords)
            r2, _ = reduce_mod_integral(*moved)
            assert max(abs(a - b) for a, b in zip(r1, r2)) < 1e-12

    def test_exact_inputs_stay_exact(self):
        reduced, _ = reduce_mod_integral(Fraction(7, 2), Fraction(-1, 4), Fraction(9))
        assert all(isinstance(x, Fraction) for x in reduced)
        # lambda' = 9 + 1*(7/2) - 12 = 1/2
        assert reduced == (Fraction(1, 2), Fraction(3, 4), Fraction(1, 2))

    @given(frac, frac, frac, st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_exact_orbit_invariance(self, alpha, beta, lam, a, b, c):
        moved = Heisenberg(a, b, c).act((alpha, beta, lam))
        r1, _ = reduce_mod_integral(alpha, beta, lam)
        r2, _ = reduce_mod_integral(*moved)
        assert r1 == r2


class TestBoundaryChart:
    def test_interior_alpha_zero_branch(self):
        cc = boundary_chart_point(1.0, 0.3, 0.7j)
        assert cc.kind == "interior"
        assert max(abs(a - b) for a, b in zip(cc.coords, (0.0, 0.3, 0.7j))) < 1e-12

    def test_branch_independence(self):
        alpha = 0.37 + 0.6j
        q = cmath.exp(2j * math.pi * alpha)
        cc1 = boundary_chart_point(q, 0.2, 0.5)
        shifted = cmath.exp(2j * math.pi * (alpha + 1))
        cc2 = boundary_chart_point(shifted, 0.2, 0.5)
        assert max(abs(a - b) for a, b in zip(cc1.coords, cc2.coords)) < 1e-9

    def test_orbit_point(self):
        cc = boundary_chart_point(0, 0, 0.25)
        assert cc.kind == "orbit"
        assert (cc.orbit_generator.a, cc.orbit_generator.b, cc.orbit_generator.c) == (1, 0, 0)
        assert abs(cc.orbit_lambda - 0.25) < 1e-12

    def test_invariant_violation(self):
        with pytest.raises(DomainError, match="beta = 0 on the boundary q = 0"):
            boundary_chart_point(0, 0.1, 0.0)

    def test_vertical_line_converges_to_orbit(self):
        # q = exp(2 pi i (theta + i t)): modulus decreases monotonically in t,
        # the reduced real part stays fixed, and the chart point tends to (0,0,l)
        theta, lam = 0.3, 0.45
        prev_mod = None
        for t in (0.5, 1.0, 2.0, 4.0):
            q = cmath.exp(2j * math.pi * complex(theta, t))
            cc = boundary_chart_point(q, 0.0, lam)
            assert cc.kind == "interior"
            assert abs(cc.coords[0].real - theta) < 1e-12
            if prev_mod is not None:
                assert abs(q) < prev_mod
            prev_mod = abs(q)
        limit = boundary_chart_point(0, 0, lam)
        assert limit.kind == "orbit"
        assert abs(limit.orbit_lambda - lam) < 1e-12


class TestWeightFiltrationType:
    def test_nested_required(self):
        with pytest.raises(DomainError):
            WeightFiltrationGeneric.from_dict({0: [[1, 0]], 1: [[0, 1]]}, 2)

    def test_exhaustive_required(self):
        with pytest.raises(DomainError):
            WeightFiltrationGeneric.from_dict({0: [[1, 0]]}, 2)

    def test_graded_dims(self):
        w = LAMBDA.weights
        assert [w.graded_dim(j) for j in (-4, -3, -2, -1, 0)] == [1, 0, 1, 0, 1]


FROZEN = json.loads((Path(__file__).parent / "rmf_frozen.json").read_text())


def _frozen_instance(case):
    mat = [[Fraction(x) for x in row] for row in case["matrix"]]
    w = WeightFiltrationGeneric.from_dict(
        {int(k): [[Fraction(x) for x in v] for v in vs] for k, vs in case["weights"].items()},
        len(mat))
    return mat, w


class TestFrozenRegression:
    """Outputs pinned from earlier implementations, compared as JSON text.

    The first 80 RMF instances were pinned from the Fraction-list
    implementation that preceded the integer-row Subspace: the exact
    benchmark's for seeds 0-4, those of ``_random_rmf_instance`` with numpy
    seeds 0-39, and twenty more of them (seeds 100-119) conjugated by a
    random invertible integer matrix, so that W is not a coordinate flag.
    The next 48, of dimension 5-12, were pinned from the construction that
    took the pure case from the kernel ∩ image formula and recursed on the
    sub below the top weight: single weights with several Jordan blocks,
    block upper-triangular N on 2-4 weights (both with and without an RMF),
    and conjugates of those by unimodular integer matrices (products of
    random elementary matrices, ``random.Random(1414)``).  Their
    brute-force solutions are pinned only up to dimension 5, where the
    search stays small.  The orbit cases are the exact benchmark's for
    seeds 0-4 and twenty random rational ones.
    """

    @pytest.mark.parametrize("case", FROZEN["rmf"])
    def test_rmf_and_brute_force(self, case):
        mat, w = _frozen_instance(case)
        m = relative_monodromy_filtration(mat, w)
        assert json.dumps(None if m is None else m.to_json()) == json.dumps(case["rmf"])
        if "brute" in case:
            found = [s.to_json() for s in rmf_brute_force(mat, w)]
            assert json.dumps(found) == json.dumps(case["brute"])

    def test_oracle_profile_matches_the_construction(self):
        # the oracle's profile comes from ranks of N on gr^W alone
        for case in FROZEN["rmf"]:
            if case["rmf"] is None:
                continue
            mat, w = _frozen_instance(case)
            m = relative_monodromy_filtration(mat, w)
            assert rmf_profile(mat, w) == {k: m.graded_dim(k) for k in m.jumps}

    def test_orbits(self):
        for case in FROZEN["orbits"]:
            r = generates_nilpotent_orbit(NilpotentEndo(*map(Fraction, case["N"])),
                                          hodge_filtration_from(*map(Fraction, case["F"])))
            # the frozen "transversal" is "generates": a disagreement raises
            assert (r.generates, str(r.criterion_defect), r.generates, r.admissible,
                    r.reason) == (case["generates"], case["criterion_defect"],
                                  case["transversal"], case["admissible"], case["reason"])

    @pytest.mark.parametrize("case", [c for c in FROZEN["rmf"] if c["rmf"]][::3])
    def test_verify_accepts_only_the_rmf(self, case):
        # the relative monodromy filtration is unique, so every other
        # filtration must fail one of the two conditions
        mat, w = _frozen_instance(case)
        m = relative_monodromy_filtration(mat, w)
        steps = dict(m.steps)
        variants = [w, {k + 1: s for k, s in steps.items()}, {k - 2: s for k, s in steps.items()}]
        ks = sorted(steps)
        for i, k in enumerate(ks):
            for moved in (k - 1, k + 1):
                if moved not in steps and (i == 0 or ks[i - 1] < moved) \
                        and (i + 1 == len(ks) or moved < ks[i + 1]):
                    variants.append({kk if kk != k else moved: s for kk, s in steps.items()})
        for variant in variants:
            if not isinstance(variant, WeightFiltrationGeneric):
                variant = WeightFiltrationGeneric.from_subspaces(variant, w.dim)
            assert verify_relative_monodromy(mat, w, variant) == (variant == m)
