"""Samplers: support constraints, determinism, and distributional checks
against analytic moments."""

import numpy as np
import pytest
from scipy import stats

from conftest import traced_peak

from kernelshot import (
    DomainSpec,
    Sample,
    cube_moments,
    sample_cube,
    sample_domain,
    sample_unit_ball,
    spawn_seeds,
)
from kernelshot.distributions import _NORM_ROWS, _draw_ball
from kernelshot.experiments import ball_cloud


class TestUnitBall:
    def test_support(self):
        sample = sample_unit_ball(5, 2000, seed=1)
        assert np.all(np.linalg.norm(sample.points, axis=1) <= 1.0)

    def test_seed_determinism(self):
        a = sample_unit_ball(4, 100, seed=7)
        b = sample_unit_ball(4, 100, seed=7)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.seed == 7

    def test_mean_concentrates_at_origin(self):
        sample = sample_unit_ball(3, 100_000, seed=2)
        assert np.all(np.abs(sample.points.mean(axis=0)) < 0.02)

    def test_covariance_is_isotropic(self):
        # uniform ball covariance is I / (d + 2)
        d = 3
        sample = sample_unit_ball(d, 100_000, seed=3)
        cov = np.cov(sample.points.T)
        np.testing.assert_allclose(cov, np.eye(d) / (d + 2), atol=0.02)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            sample_unit_ball(3, 0, seed=0)
        with pytest.raises(ValueError):
            sample_unit_ball(0, 5, seed=0)


    def test_radius_and_centre_scale_then_shift_in_place(self):
        d, n = 4, 300
        centre = np.array([1.0, -2.0, 0.5, 3.0])
        want = sample_unit_ball(d, n, seed=5).points * 0.3 + centre
        np.testing.assert_array_equal(sample_unit_ball(d, n, 5, radius=0.3, centre=centre).points, want)
        unit = sample_unit_ball(d, n, seed=5).points
        np.testing.assert_array_equal(sample_unit_ball(d, n, 5, centre=centre).points, unit + centre)
        np.testing.assert_array_equal(sample_unit_ball(d, n, 5, radius=0.3).points, unit * 0.3)

    def test_ball_cloud_is_the_scaled_draw_without_a_second_array(self):
        # one n x d array: the unit-ball draw, scaled and shifted where it
        # lies; scaling a copy held two
        d, n = 20, 100_000
        centre = np.linspace(-1.0, 1.0, d)
        want = sample_unit_ball(d, n, seed=8).points * 0.5 + centre
        got, peak = traced_peak(lambda: ball_cloud(d, centre, 0.5, n, 8))
        np.testing.assert_array_equal(got, want)
        assert peak <= 1.25 * n * d * 8

    def test_radii_are_formed_in_the_uniforms_buffer(self):
        # the draw (2n), its uniforms (n) and the norms (n), with no radii or
        # ratio vector beside them: 4.16 n floats, against 5.08 when the radii
        # and their ratio to the norms were fresh vectors (a process's first
        # call reads about 0.9 n more either way, so one call warms up)
        n = 100_000
        sample_unit_ball(2, n, 3)
        _, peak = traced_peak(lambda: sample_unit_ball(2, n, 3))
        assert peak < 4.6 * n * 8

    @pytest.mark.parametrize("d", [1, 2, 7])
    def test_a_draw_made_ahead_gives_the_same_points(self, d):
        n, centre = 300, np.linspace(-1.0, 1.0, d)
        drawn = np.empty((n, d)), np.empty(n)
        _draw_ball(np.random.default_rng(11), *drawn)
        got = sample_unit_ball(d, n, 11, 0.4, centre, drawn=drawn)
        np.testing.assert_array_equal(got.points, sample_unit_ball(d, n, 11, 0.4, centre).points)
        assert np.shares_memory(got.points, drawn[0])

    def test_a_draw_of_other_shapes_is_rejected(self):
        with pytest.raises(ValueError, match=r"^drawn must be arrays of shapes \(4, 3\) and \(4,\)"):
            sample_unit_ball(3, 4, 0, drawn=(np.empty((4, 2)), np.empty(4)))

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.nan, np.inf, True])
    def test_radius_not_positive_and_finite_is_rejected(self, radius):
        with pytest.raises(ValueError, match=r"^radius must be positive and finite"):
            sample_unit_ball(3, 5, 0, radius=radius)

    @pytest.mark.parametrize(
        "centre", [[0.0, 0.0], 0.5, [[0.0, 0.0, 0.0]], [0.0, np.nan, 0.0], [0.0, 0.0, np.inf]],
        ids=["short", "scalar", "row", "nan", "inf"],
    )
    def test_centre_not_a_finite_length_d_vector_is_rejected(self, centre):
        with pytest.raises(ValueError, match=r"^centre must be"):
            sample_unit_ball(3, 5, 0, centre=centre)


class TestCube:
    def test_support(self):
        sample = sample_cube(4, 1.5, 2000, seed=5)
        assert np.all(np.abs(sample.points) <= 1.5)

    def test_seed_determinism(self):
        a = sample_cube(2, 0.5, 64, seed=11)
        b = sample_cube(2, 0.5, 64, seed=11)
        np.testing.assert_array_equal(a.points, b.points)

    def test_second_moment(self):
        sample = sample_cube(2, 1.0, 100_000, seed=6)
        emp = float(np.mean(sample.points[:, 0] ** 2))
        assert emp == pytest.approx(cube_moments((2, 0), 1.0), abs=0.01)

    def test_uniformity_kolmogorov_smirnov(self):
        n = 10_000
        sample = sample_cube(1, 1.0, n, seed=8)
        statistic = stats.kstest(sample.points[:, 0], stats.uniform(loc=-1.0, scale=2.0).cdf).statistic
        critical_1pct = 1.6276 / np.sqrt(n)
        assert statistic < critical_1pct

    def test_invalid_half_width(self):
        with pytest.raises(ValueError):
            sample_cube(2, 0.0, 10, seed=0)


class TestDomainSpec:
    def test_dispatch(self):
        ball = sample_domain(DomainSpec("unit_ball", 3), 50, seed=1)
        assert np.all(np.linalg.norm(ball.points, axis=1) <= 1.0)
        cube = sample_domain(DomainSpec("cube", 3, half_width=2.0), 50, seed=1)
        assert np.all(np.abs(cube.points) <= 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DomainSpec("simplex", 3)
        with pytest.raises(ValueError):
            DomainSpec("cube", 0)
        with pytest.raises(ValueError):
            DomainSpec("cube", 2, half_width=-1.0)

    def test_unit_ball_takes_no_half_width(self):
        # the unit ball has radius 1, so another half-width would be ignored
        with pytest.raises(ValueError, match="^half_width applies to kind 'cube' only"):
            DomainSpec("unit_ball", 3, 5.0)
        assert DomainSpec("unit_ball", 3, 1.0).half_width == 1.0

    @pytest.mark.parametrize("half_width", [np.nan, np.inf])
    def test_half_width_not_finite_is_rejected(self, half_width):
        with pytest.raises(ValueError, match="positive and finite"):
            DomainSpec("cube", 3, half_width)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_cube(3, half_width, 4, seed=1)
        with pytest.raises(ValueError, match="positive and finite"):
            cube_moments((2, 0), half_width)

    def test_sample_points_immutable(self):
        for sample in (sample_unit_ball(2, 5, seed=0), sample_cube(2, 0.5, 5, seed=0)):
            with pytest.raises(ValueError):
                sample.points[0, 0] = 2.0

    def test_caller_array_neither_aliased_nor_frozen(self):
        points = np.arange(6.0).reshape(3, 2)
        sample = Sample(points, seed=0)
        assert points.flags.writeable
        assert not np.shares_memory(sample.points, points)
        assert not sample.points.flags.writeable
        points[0, 0] = 9.0
        assert sample.points[0, 0] == 0.0


class TestSamplerBits:
    """Norms in row chunks and no copy into Sample: the points are the bits
    of the whole-array formula."""

    @pytest.mark.parametrize("d", [1, 5, 20])
    @pytest.mark.parametrize("n", [1, _NORM_ROWS, 2 * _NORM_ROWS + 17])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_unit_ball_matches_whole_array_formula(self, d, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, d))
        norms = np.linalg.norm(g, axis=1)
        norms[norms == 0.0] = 1.0
        radii = rng.random(n) ** (1.0 / d)
        np.testing.assert_array_equal(sample_unit_ball(d, n, seed).points, g * (radii / norms)[:, None])


class TestCubeMoments:
    def test_odd_component_vanishes(self):
        assert cube_moments((1, 0), 1.0) == 0.0
        assert cube_moments((2, 3), 0.7) == 0.0

    def test_even_moment(self):
        assert cube_moments((2, 0), 1.0) == pytest.approx(1.0 / 3.0)
        assert cube_moments((2, 2), 1.0) == pytest.approx(1.0 / 9.0)
        assert cube_moments((2, 0), 2.0) == pytest.approx(4.0 / 3.0)

    def test_constant_moment(self):
        assert cube_moments((0, 0, 0), 3.0) == 1.0

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            cube_moments((-1, 2), 1.0)


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(123, 8)
        b = spawn_seeds(123, 8)
        assert a == b
        assert len(set(a)) == 8

    def test_distinct_roots_differ(self):
        assert spawn_seeds(1, 4) != spawn_seeds(2, 4)
