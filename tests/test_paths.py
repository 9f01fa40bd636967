"""Path geometry: the clearance of the standard reach and the puncture test."""

import cmath
import math

import numpy as np
import pytest

from alblab import paths
from alblab.paths import (JUNCTION_RADIUS, LOOP1_RADIUS, DomainError, LineSegment,
                          LogSegment, Path, canonical_reach, loop_gamma0, loop_gamma1)

# targets whose straight ray from the junction circle grazes the puncture 1
GRAZING_TARGETS = (1.2 + 1e-9j, 2 + 1e-8j, 2 - 1e-8j, 2 + 1e-14j, 1.0000001 + 0j)


class TestCanonicalReach:
    @pytest.mark.parametrize("x", GRAZING_TARGETS, ids=str)
    def test_clearance_from_one(self, x):
        path = canonical_reach(x)
        rho = min(LOOP1_RADIUS, abs(x - 1) / 2)
        assert path.end == x
        for seg in path.segments[:-1]:
            assert seg.min_distance(1) >= rho * (1 - 1e-9)

    @pytest.mark.parametrize("x", GRAZING_TARGETS, ids=str)
    def test_detour_on_the_side_of_the_target(self, x):
        # one log segment goes around 1: the principal spiral about 1 for
        # targets within LOOP1_RADIUS of it, the detour arc with its sweep
        # otherwise; it passes on the side of the target and keeps at least
        # 1 - LOOP1_RADIUS away from 0
        around = [s for s in canonical_reach(x).segments if getattr(s, "center", 0) == 1]
        assert len(around) == 1
        (seg,) = around
        near = abs(x - 1) < LOOP1_RADIUS
        assert isinstance(seg, LogSegment) and (seg.sweep is None) == near
        if not near:
            assert abs(abs(seg.start - 1) - abs(seg.end - 1)) < 1e-15   # a circular arc
        top = seg.point(0.5).imag
        assert top > 0 if x.imag >= 0 else top < 0
        assert seg.min_distance(0) >= 1 - LOOP1_RADIUS

    def test_detour_one_ulp_beyond_one(self):
        # the spiral about 1 ends at x itself and passes above 1; 1 + 1e-310 i,
        # where dz/(1-z) on a ray would overflow, is reached the same way
        for x in (1.0000000000000002, 1 + 1e-310j):
            path = canonical_reach(x)
            first, spiral = path.segments
            assert first == LogSegment(0.125, 1 - LOOP1_RADIUS)
            assert spiral.center == 1 and spiral.start == 1 - LOOP1_RADIUS and spiral.end == x
            assert spiral.point(0.5).imag > 0
            assert spiral.min_distance(1) == abs(x - 1)
            assert spiral.min_distance(0) == 1 - LOOP1_RADIUS
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                assert np.isfinite(spiral.forms(np.ones(1), np.zeros(1))).all()

    @pytest.mark.parametrize("x", (0.5, 0.3 + 0.2j, -2.0, 3j, 1e-12, 0.9999999))
    def test_no_detour_when_the_ray_keeps_clear(self, x):
        # the reach ends radially: about 0, or about 1 for real targets just below it
        path = canonical_reach(x)
        assert not any(getattr(s, "sweep", None) is not None and s.center == 1
                       for s in path.segments)
        last = path.segments[-1]
        assert isinstance(last, LogSegment)
        c = 1 if abs(x - 1) < LOOP1_RADIUS else 0
        assert last.center == c
        assert abs(cmath.phase((last.point(0.5) - c) / (x - c))) < 1e-12


class TestLogSegmentAboutOne:
    @pytest.mark.parametrize("x", (1.0000001, complex(1.0000001, -0.0), 1 + 1e-300j, 1 - 0.1j))
    def test_reversed_retraces(self, x):
        seg = LogSegment(0.75, x, 1.0)
        back = seg.reversed()
        for t in (0.25, 0.5, 0.75):
            assert abs(back.point(1 - t) - seg.point(t)) < 1e-15

    def test_forms(self):
        # dz/(1-z) is the constant -rate; dz/z is the derivative over z
        seg = LogSegment(0.75, 1.1 + 0.05j, 1.0)
        t = np.linspace(0.0, 1.0, 7)
        f0, f1 = seg.forms(t, 1 - t)
        rate = cmath.log((0.1 + 0.05j) / -0.25)
        assert np.allclose(f1, -rate, rtol=1e-15, atol=0)
        expected = [seg.deriv(tt) / seg.point(tt) for tt in t]
        assert np.allclose(f0, expected, rtol=1e-13, atol=0)

    def test_centre_must_be_a_puncture(self):
        with pytest.raises(DomainError):
            LogSegment(0.5, 0.6, 0.5)
        with pytest.raises(DomainError):
            LogSegment(0.75, 1.0, 1.0)


class TestArcs:
    """Arcs and full turns are log segments with the angle they sweep."""

    @pytest.mark.parametrize("turns", (1, -1, 3, 10 ** 5, 10 ** 6, 10 ** 8, 2 ** 53, -2 ** 53))
    def test_named_loops_close_exactly(self, turns):
        for loop, centre in ((loop_gamma0(turns), 0), (loop_gamma1(turns), 1)):
            assert loop.start == loop.end == JUNCTION_RADIUS
            (arc,) = [s for s in loop.segments if isinstance(s, LogSegment)]
            assert arc.center == centre and arc.start == arc.end
            # the form with its pole at the centre is +-(2 pi i turns) per unit t
            f0, f1 = arc.forms(np.zeros(1), np.ones(1))
            rate = (f0 if centre == 0 else -f1)[0]
            assert abs(rate - 2j * math.pi * turns) <= 1e-15 * abs(2 * math.pi * turns)

    @pytest.mark.parametrize("x", (-2 + 1j, complex(-2, 0.0), complex(-2, -0.0), 3j,
                                   2 + 1e-8j, 2 - 1e-8j, 1.5 + 1e-9j), ids=str)
    def test_reversed_arcs_retrace(self, x):
        arcs = [s for s in canonical_reach(x).segments if getattr(s, "sweep", None) is not None]
        assert arcs
        for seg in arcs + [loop_gamma0(2).segments[0], loop_gamma1(-1).segments[1]]:
            back = seg.reversed()
            assert (back.start, back.end, back.sweep) == (seg.end, seg.start, -seg.sweep)
            for t in (0.1, 0.25, 0.5, 0.75, 0.9):
                assert abs(back.point(1 - t) - seg.point(t)) < 1e-15

    @pytest.mark.parametrize("x", (2 + 1e-8j, 2 - 1e-8j, 2 + 1e-14j, 1.5 - 0.1j), ids=str)
    def test_detour_arc_distance_is_closed_form(self, x, monkeypatch):
        # the arc about 1 is circular, so neither building the reach nor its
        # distances sample the segment
        def no_sampling(*args, **kwargs):
            raise AssertionError("min_distance sampled a circular arc")

        monkeypatch.setattr(paths.np, "linspace", no_sampling)
        (arc,) = [s for s in canonical_reach(x).segments if getattr(s, "sweep", None) is not None
                  and s.center == 1]
        for p in (0, 1):
            dense = min(abs(arc.point(k / 20000) - p) for k in range(20001))
            assert dense - 1e-6 <= arc.min_distance(p) <= dense + 1e-15


class TestPunctureTest:
    @pytest.mark.parametrize("x", (1e-12, 1e-300, 1 - 1e-13, 1 + 1e-13, -1e-13j))
    def test_targets_next_to_a_puncture_accepted(self, x):
        path = canonical_reach(x)
        assert path.end == x

    def test_segment_ending_on_puncture_rejected(self):
        with pytest.raises(DomainError):
            Path((LineSegment(0.5, 1.0),))
        with pytest.raises(DomainError):
            Path((LogSegment(0.5, 1.0),))

    def test_grazing_interior_rejected(self):
        with pytest.raises(DomainError):
            Path((LineSegment(0.5 + 1e-13j, 1.5 + 1e-13j),))
        with pytest.raises(DomainError):
            Path((LogSegment(0.5 + 1e-13j, 2 + 4e-13j),))

    def test_small_circle_about_the_puncture_accepted(self):
        # a half circle of radius 1e-14 about 1, above it, from angle pi to 0
        start, end = (1 + 1e-14 * cmath.exp(1j * a) for a in (math.pi, 0.0))
        Path((LogSegment(start, end, 1.0, -math.pi),))


class TestMinDistance:
    def test_radial_log_segment(self):
        assert LogSegment(0.125, 1e-12).min_distance(0) == 1e-12
        theta = 1e-3
        ray = LogSegment(0.5 * cmath.exp(1j * theta), 2 * cmath.exp(1j * theta))
        assert abs(ray.min_distance(1) - math.sin(theta)) < 1e-15

    def test_spiral_matches_dense_sampling(self):
        seg = LogSegment(0.4 - 0.5j, 1.6 + 0.3j)
        dense = min(abs(seg.point(t) - 1) for t in np.linspace(0, 1, 200001))
        assert abs(seg.min_distance(1) - dense) < 1e-9

    @pytest.mark.parametrize("sweep", (2.5, -2.5, 4 * math.pi, -3 * math.pi))
    def test_arc_matches_dense_sampling(self, sweep):
        end = 0.125 * cmath.exp(1j * sweep)
        arc = LogSegment(0.125, end, 0.0, sweep)
        for p in (1, -0.5, 0.3j, -0.2 - 0.2j, 0.1 * cmath.exp(2.5j), 0):
            dense = min(abs(arc.point(t) - p) for t in np.linspace(0, 1, 200001))
            assert abs(arc.min_distance(p) - dense) < 1e-9
