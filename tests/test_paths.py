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
        arcs = [s for s in canonical_reach(x).segments
                if isinstance(s, CircularArc) and s.center == 1]
        assert len(arcs) == 1
        top = arcs[0].point(0.5).imag
        assert top > 0 if x.imag >= 0 else top < 0

    def test_detour_one_ulp_beyond_one(self):
        # 1 + ulp/2 rounds onto 1, so the arc takes the circle through x and ends there
        x = 1.0000000000000002
        path = canonical_reach(x)
        arc = path.segments[-1]
        assert isinstance(arc, CircularArc) and arc.center == 1 and arc.end == x
        assert arc.point(0.5).imag > 0
        assert all(seg.min_distance(1) > 0 for seg in path.segments)

    @pytest.mark.parametrize("x", (0.5, 0.3 + 0.2j, -2.0, 3j, 1e-12, 0.9999999))
    def test_no_detour_when_the_ray_keeps_clear(self, x):
        path = canonical_reach(x)
        assert not any(isinstance(s, CircularArc) and s.center == 1 for s in path.segments)
        assert isinstance(path.segments[-1], LogSegment)


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
