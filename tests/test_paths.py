"""Path geometry: the clearance of the standard reach and the puncture test."""

import cmath
import math

import numpy as np
import pytest

from alblab.paths import (LOOP1_RADIUS, CircularArc, DomainError, LineSegment,
                          LogSegment, Path, canonical_reach)

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
        # one segment goes around 1: the log-spiral about 1 for targets within
        # LOOP1_RADIUS of it, the detour arc otherwise; it passes on the side of
        # the target and keeps at least 1 - LOOP1_RADIUS away from 0
        around = [s for s in canonical_reach(x).segments if getattr(s, "center", 0) == 1]
        assert len(around) == 1
        (seg,) = around
        near = abs(x - 1) < LOOP1_RADIUS
        assert isinstance(seg, LogSegment if near else CircularArc)
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
        assert not any(isinstance(s, CircularArc) and s.center == 1 for s in path.segments)
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
        Path((CircularArc(1.0, 1e-14, math.pi, 0.0),))


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
