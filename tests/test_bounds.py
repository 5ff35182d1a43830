"""Empirical probability functions against brute-force pair loops, margin
formulas against hand evaluations, and the three bound evaluators on
degenerate and synthetic data."""

import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from kernelshot import (
    BoundGrid,
    GeometricBrackets,
    NumericError,
    StepCdf,
    combined_success_bounds,
    centered_gram,
    combo_pair_stats,
    empirical_probability_functions,
    few_shot_success_bounds,
    gaussian_kernel,
    linear_ball_ratio,
    linear_kernel,
    mean_combination,
    mean_concentration_bounds,
    new_class_margin,
    old_class_margin,
    polynomial_kernel,
    singleton_combination,
)
from kernelshot import bounds, classifier, experiments, kernels
from kernelshot.experiments import ball_cloud, two_ball_refits

LINEAR = linear_kernel(0.0)


class TestStepCdf:
    def test_endpoints_and_right_continuity(self):
        cdf = StepCdf([1.0, 2.0, 2.0, 5.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25  # knot included: right-continuous
        assert cdf(2.0) == 0.75
        assert cdf(4.999) == 0.75
        assert cdf(5.0) == 1.0
        assert cdf(100.0) == 1.0

    def test_vectorised_and_monotone(self):
        rng = np.random.default_rng(0)
        cdf = StepCdf(rng.normal(size=200))
        ts = np.linspace(-4, 4, 101)
        vals = cdf(ts)
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1))


    def test_sorted_knots_are_a_read_only_view(self):
        knots = np.array([1.0, 2.0, 2.0, 5.0])
        cdf = StepCdf(knots)
        assert np.shares_memory(cdf.knots, knots)
        assert not cdf.knots.flags.writeable
        assert knots.flags.writeable

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        knots=st.lists(
            st.one_of(
                st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
                st.floats(-1e300, 1e300),
                st.floats(-1e-300, 1e-300),
            ),
            min_size=1,
            max_size=3000,
        ),
        count=st.integers(2, 600),
    )
    def test_sorted_quantiles_match_numpy(self, knots, count):
        # np.quantile partitions a copy, which may swap -0 and +0, so values
        # are compared, not signs of zero
        x = np.sort(np.asarray(knots))
        norm_quantiles = inspect.signature(BoundGrid.default).parameters["norm_quantiles"].default
        for q in (np.linspace(0.0, 1.0, count), np.asarray(norm_quantiles)):
            with np.errstate(over="ignore", invalid="ignore"):
                np.testing.assert_array_equal(bounds._sorted_quantiles(x, q), np.quantile(x, q))

    def test_thinned_knots_are_quantiles_and_the_upper_tail(self):
        knots = np.random.default_rng(3).normal(size=5000)
        thinned = StepCdf(knots)._thinned_knots
        knots.sort()
        np.testing.assert_array_equal(thinned[:513], np.quantile(knots, np.linspace(0.0, 1.0, 513)))
        np.testing.assert_array_equal(thinned[513:], knots[-64:])

    @pytest.mark.parametrize("t", [math.nan, [0.5, math.nan]], ids=["nan", "nan-entry"])
    def test_rejects_a_nan_level(self, t):
        with pytest.raises(ValueError, match="t must not be NaN"):
            StepCdf([1.0, 2.0])(t)

    def test_infinite_levels_are_the_ends(self):
        cdf = StepCdf([1.0, 2.0])
        assert (cdf(-math.inf), cdf(math.inf)) == (0.0, 1.0)
        np.testing.assert_array_equal(cdf([-math.inf, 1.5, math.inf]), [0.0, 0.5, 1.0])

    def test_unsorted_knots_are_sorted_in_a_copy(self):
        knots = np.array([5.0, np.nan, 1.0, 2.0])
        cdf = StepCdf(knots)
        np.testing.assert_array_equal(cdf.knots, [1.0, 2.0, 5.0, np.nan])
        np.testing.assert_array_equal(knots, [5.0, np.nan, 1.0, 2.0])
        assert knots.flags.writeable
        assert cdf(3.0) == 0.5


def pf_from_points(spec, X, Z):
    c_x = mean_combination(spec, X)
    c_z = mean_combination(spec, Z)
    pf = empirical_probability_functions(spec, X, Z, c_x, c_z)
    dist_sq = combo_pair_stats(spec, c_x, c_z).sq_distance
    return pf, c_x, c_z, dist_sq


class TestEmpiricalProbabilityFunctions:
    def test_projection_matches_brute_force(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5, 2))
        Z = rng.normal(size=(4, 2)) + 3.0
        pf, c_x, c_z, _ = pf_from_points(LINEAR, X, Z)

        # brute force over all 20 ordered pairs in plain data space; evaluate a
        # hair above each knot so 1-ulp float-path differences cannot flip
        # membership on either side
        mean_x = X.mean(axis=0)
        inners = [
            float((X[i] - mean_x) @ (X[j] - mean_x))
            for i in range(5)
            for j in range(5)
            if i != j
        ]
        for knot in sorted(inners):
            t = knot + 1e-9
            expected = sum(v <= t for v in inners) / 20.0
            assert pf.projection(t) == pytest.approx(expected, abs=1e-12)

    def test_localisation_and_separation_brute_force(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(6, 3))
        Z = rng.normal(size=(5, 3)) + 2.0
        pf, c_x, c_z, _ = pf_from_points(LINEAR, X, Z)
        mean_x, mean_z = X.mean(axis=0), Z.mean(axis=0)

        norms = np.linalg.norm(X - mean_x, axis=1)
        for r in norms + 1e-9:
            assert pf.localisation_new(r) == pytest.approx(np.mean(norms <= r), abs=1e-12)
        assert pf.localisation_new(norms.max() + 1e-9) == 1.0

        seps = (Z - mean_z) @ (mean_x - mean_z)
        for t in seps + 1e-9:
            assert pf.separation_old(t) == pytest.approx(np.mean(seps <= t), abs=1e-12)

    def test_point_mass_heaviside(self):
        x0 = np.array([0.5, -0.5])
        X = np.tile(x0, (6, 1))
        Z = np.tile(np.array([2.0, 2.0]), (4, 1))
        pf, *_ = pf_from_points(LINEAR, X, Z)
        assert pf.localisation_new(-1e-12) == 0.0
        assert pf.localisation_new(0.0) == 1.0
        assert pf.projection(-1e-12) == 0.0
        assert pf.projection(0.0) == 1.0

    def test_needs_two_new_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            empirical_probability_functions(
                LINEAR,
                np.array([[1.0, 0.0]]),
                np.array([[0.0, 1.0], [1.0, 1.0]]),
                singleton_combination(LINEAR, np.array([1.0, 0.0])),
                singleton_combination(LINEAR, np.array([0.0, 1.0])),
            )


PF_SPECS = [LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(0.5)]


def assert_knots_close(got, want, scale):
    """Same number of knots, each within round-off of the size of the terms
    combined: OpenBLAS may round the entries of a block of kernel rows in
    the last place differently from the same entries of a larger product."""
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * scale)


class TestBlockedProjectionKnots:
    """The projection knots are copied block by block from the centred pair
    blocks; the strict upper triangle of the dense centred Gram is their
    reference."""

    # 1025 rows leave a one-row remainder after two blocks of 512
    @pytest.mark.parametrize("spec", PF_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("d", [3, 40])
    def test_match_dense_upper_triangle(self, spec, d):
        X = ball_cloud(d, np.zeros(d), 1.0, 1025, seed=d)
        Z = ball_cloud(d, np.full(d, 0.5), 1.0, 50, seed=d + 1)
        pf, c_x, _, _ = pf_from_points(spec, X, Z)
        CX = centered_gram(spec, X, c_x)
        scale = 1.0 + float(np.abs(CX).max())
        assert_knots_close(pf.projection.knots, np.sort(CX[np.triu_indices(X.shape[0], k=1)]), scale)
        norms = np.sort(np.sqrt(np.maximum(np.diagonal(CX), 0.0)))
        assert_knots_close(pf.localisation_new.knots, norms, scale)

    @pytest.mark.parametrize("row_block", [2, 97, 400])
    @pytest.mark.parametrize("spec", PF_SPECS, ids=lambda s: s.label)
    def test_do_not_depend_on_row_block(self, monkeypatch, spec, row_block):
        X = ball_cloud(4, np.zeros(4), 1.0, 301, seed=21)
        Z = ball_cloud(4, np.full(4, 0.5), 1.0, 40, seed=22)
        c_x = mean_combination(spec, X)
        c_z = mean_combination(spec, Z)
        want = empirical_probability_functions(spec, X, Z, c_x, c_z)
        monkeypatch.setattr(kernels, "ROW_BLOCK", row_block)
        got = empirical_probability_functions(spec, X, Z, c_x, c_z)
        scale = 1.0 + float(np.abs(want.projection.knots).max())
        assert_knots_close(got.projection.knots, want.projection.knots, scale)
        assert_knots_close(got.localisation_new.knots, want.localisation_new.knots, scale)


class TestProbabilityFunctionPasses:
    """Each sample's kernel rows are evaluated once against each centre, and
    nothing but the returned knots grows as n x n."""

    def test_each_sample_evaluated_once_per_centre(self, monkeypatch):
        spec = gaussian_kernel(0.5)
        X, Z, S_new, S_old = (
            ball_cloud(4, np.full(4, shift), 1.0, 300, seed=30 + i) for i, shift in enumerate((0.0, 0.5, 0.0, 0.5))
        )
        own_new, own_old = mean_combination(spec, X), mean_combination(spec, Z)
        cases = [
            # centres over reference points of their own
            (X, Z, mean_combination(spec, S_new), mean_combination(spec, S_old)),
            # each sample its centre's support: its own column is read, and
            # (c_new, c_old) comes from the rows of (X, c_old), not a second pass
            (own_new.support, own_old.support, own_new, own_old),
        ]
        calls = []
        original = kernels.inner_with_combo

        def record(spec, rows, c):
            calls.append((np.asarray(rows).tobytes(), id(c)))
            return original(spec, rows, c)

        monkeypatch.setattr(kernels, "inner_with_combo", record)
        monkeypatch.setattr(bounds, "inner_with_combo", record)
        for new, old, c_new, c_old in cases:
            calls.clear()
            empirical_probability_functions(spec, new, old, c_new, c_old)
            assert len(calls) == len(set(calls))
            for rows, own, other in ((new, c_new, c_old), (old, c_old, c_new)):
                assert (rows.tobytes(), id(other)) in calls
                assert ((rows.tobytes(), id(own)) in calls) == (rows is not own.support)

    @pytest.mark.parametrize("spec", [gaussian_kernel(0.5), polynomial_kernel(2, 1.0)], ids=lambda s: s.label)
    def test_sample_equal_to_the_support_gives_the_centre_pair_from_its_rows(self, monkeypatch, spec):
        # a centre copies its points, so each sample equals its centre's
        # support without being it; poly2 at d 30 has 496 features, more than
        # the 300 points, so it has no primal vector either
        X, Z = (ball_cloud(30, np.full(30, shift), 1.0, 300, seed=50 + i) for i, shift in enumerate((0.0, 0.2)))
        c_x, c_z = mean_combination(spec, X), mean_combination(spec, Z)
        assert c_x.support is not X and np.array_equal(c_x.support, X) and c_x.primal is None
        want = empirical_probability_functions(spec, c_x.support, c_z.support, c_x, c_z)
        calls = Counter()
        original = kernels.inner_with_combo

        def record(spec, rows, c):
            calls[np.asarray(rows).tobytes(), id(c)] += 1
            return original(spec, rows, c)

        monkeypatch.setattr(kernels, "inner_with_combo", record)
        monkeypatch.setattr(bounds, "inner_with_combo", record)
        got = empirical_probability_functions(spec, X, Z, c_x, c_z)
        assert calls[X.tobytes(), id(c_z)] == 1
        assert got.dist_sq == want.dist_sq
        # only the support itself reads its pair blocks from a Gaussian
        # factor (TestGaussianPairFactor), so other rows keep their projection
        same = [name for name, cdf in vars(want).items() if isinstance(cdf, StepCdf)]
        if spec.kind == "gaussian":
            same.remove("projection")
        for name in same:
            np.testing.assert_array_equal(getattr(got, name).knots, getattr(want, name).knots, err_msg=name)

    @pytest.mark.parametrize("spec", [gaussian_kernel(0.5), polynomial_kernel(2, 1.0)], ids=lambda s: s.label)
    def test_peak_below_one_square_matrix_besides_the_knots(self, spec):
        n = 3000
        rng = np.random.default_rng(46)
        X = rng.uniform(-1, 1, size=(n, 20))
        Z = rng.uniform(-1, 1, size=(n, 20)) + 0.5
        c_x = mean_combination(spec, X)
        c_z = mean_combination(spec, Z)
        pf, peak = traced_peak(lambda: empirical_probability_functions(spec, X, Z, c_x, c_z))
        knots = sum(cdf.knots.nbytes for cdf in vars(pf).values() if isinstance(cdf, StepCdf))
        assert peak - knots < n * n * 8


class TestTwoBallRefitPasses:
    def test_support_rows_evaluated_once_against_their_own_centre(self, monkeypatch):
        # a reference sample is its centre's support, so the column its
        # construction summed is read, not evaluated again
        calls = Counter()
        original = kernels.inner_with_combo

        def record(spec, rows, c):
            calls[np.asarray(rows).tobytes(), c] += 1
            return original(spec, rows, c)

        for module in (kernels, bounds, classifier):
            monkeypatch.setattr(module, "inner_with_combo", record)
        two_ball_refits(
            gaussian_kernel(0.5), d=4, centre_distance=1.0, radius_new=1.0, radius_old=1.0, reference_size=200,
            shots=5, thetas=[0.0], refits=2, draws=50, seeds=(1, 2, 3),
        )
        own = [count for (rows, c), count in calls.items() if rows == c.support.tobytes()]
        assert len(own) == 2 + 2  # two reference centres and two prototypes
        assert own == [1] * len(own)

    def test_each_rows_and_centre_pair_evaluated_once(self, monkeypatch):
        # the new reference rows against the old centre give sep_new, the
        # centre pair's inner product and the distance the bounds read
        calls = Counter()
        centres = []
        original = kernels.inner_with_combo
        original_pf = experiments.empirical_probability_functions

        def record(spec, rows, c):
            calls[np.asarray(rows).tobytes(), c] += 1
            return original(spec, rows, c)

        def keep_centres(spec, new_sample, old_sample, centre_new, centre_old):
            centres.extend((centre_new, centre_old))
            return original_pf(spec, new_sample, old_sample, centre_new, centre_old)

        for module in (kernels, bounds, classifier):
            monkeypatch.setattr(module, "inner_with_combo", record)
        monkeypatch.setattr(experiments, "empirical_probability_functions", keep_centres)
        spec = gaussian_kernel(0.5)
        fit = two_ball_refits(
            spec, d=4, centre_distance=1.0, radius_new=1.0, radius_old=1.0, reference_size=200,
            shots=5, thetas=[0.0], refits=2, draws=50, seeds=(1, 2, 3),
        )
        assert max(calls.values()) == 1
        centre_new, centre_old = centres
        assert calls[centre_new.support.tobytes(), centre_old] == 1
        assert fit.dist_sq == fit.pf.dist_sq == combo_pair_stats(spec, centre_new, centre_old).sq_distance


class TestTwoBallRefitSeeds:
    VALID = dict(
        d=2, centre_distance=2.0, radius_new=0.5, radius_old=0.5, reference_size=20, shots=3, thetas=[-1.0, 0.0],
        refits=2, draws=10,
    )

    @pytest.mark.parametrize(
        "seeds", [(1, 2), (1, 2, 3, 4), (), 7, (1, math.nan, 3), (1, 2, -1), (1, 2.5, 3), (True, 2, 3)],
        ids=["two", "four", "none", "scalar", "nan", "negative", "fractional", "bool"],
    )
    def test_bad_seeds_raise_naming_them(self, seeds):
        with pytest.raises(ValueError, match=r"^seeds must be"):
            two_ball_refits(LINEAR, seeds=seeds, **self.VALID)

    def test_whole_float_and_list_seeds_are_accepted(self):
        want = two_ball_refits(LINEAR, seeds=(1, 2, 3), **self.VALID)
        got = two_ball_refits(LINEAR, seeds=[1.0, 2, 3.0], **self.VALID)
        assert got.dist_sq == want.dist_sq
        np.testing.assert_array_equal(got.mu_dists, want.mu_dists)


class TestMargins:
    def test_new_class_margin_hand_values(self):
        assert new_class_margin(0.0, 4.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(-2.0)
        assert new_class_margin(-1.0, 0.0, 1.0, 1.0, 2.0, 2.0) == pytest.approx(-2.25)
        # huge gamma with a = b = 0 leaves only -theta
        assert new_class_margin(-1.0, 4.0, 0.0, 0.0, 1e12, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_old_class_margin_hand_values(self):
        assert old_class_margin(0.0, 5.0, 0.0, 0.0, 1.0, 1.0) == pytest.approx(0.0)
        assert old_class_margin(0.0, 4.0, 0.0, 0.0, 2.0, 1.0) == pytest.approx(2.0)
        # gamma -> infinity with a = 0: margin tends to theta + dist_sq
        assert old_class_margin(0.5, 4.0, 0.0, 1.0, 1e12, 2.0) == pytest.approx(
            0.5 + 4.0 - 0.25, abs=1e-6
        )

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        theta=st.floats(-10.0, 10.0),
        dist_sq=st.floats(0.0, 100.0),
        a=st.floats(0.0, 1e3),
        da=st.floats(0.0, 1e3),
        r=st.floats(0.0, 1e3),
        gamma=st.floats(1e-3, 1e3),
        epsilon=st.floats(1e-3, 1e3),
    )
    def test_margins_below_the_zero_error_threshold(self, theta, dist_sq, a, da, r, gamma, epsilon):
        # with mu = c_new (e = 0) a new point is accepted iff sep_new(x) <= -theta
        # and an old one passed on iff sep_old(z) < theta + dist_sq; a larger
        # bound a on |e| can only make the certain region smaller
        new = [new_class_margin(theta, dist_sq, v, r, gamma, epsilon) for v in (a, a + da)]
        old = [old_class_margin(theta, dist_sq, v, r, gamma, epsilon) for v in (a, a + da)]
        assert new[0] <= -theta and old[0] <= theta + dist_sq
        assert new[1] <= new[0] and old[1] <= old[0]

    def test_positivity_validation(self):
        with pytest.raises(ValueError):
            new_class_margin(0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            old_class_margin(0.0, 1.0, 0.0, 0.0, 1.0, -1.0)


class TestMeanConcentration:
    def test_k_equals_one_reduces_to_localisation(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(20, 2))
        Z = rng.normal(size=(20, 2)) + 4.0
        pf, *_ = pf_from_points(LINEAR, X, Z)
        for s in (0.3, 1.0, 2.5):
            bracket = mean_concentration_bounds(1, s, pf)
            assert bracket.lower == bracket.upper == pytest.approx(pf.localisation_new(s))

    def test_point_mass_certain(self):
        X = np.tile(np.array([1.0, 1.0]), (8, 1))
        Z = np.tile(np.array([-1.0, -1.0]), (8, 1))
        pf, *_ = pf_from_points(LINEAR, X, Z)
        for s in (1e-6, 0.5, 2.0):
            bracket = mean_concentration_bounds(5, s, pf)
            assert bracket.lower == 1.0 and bracket.upper == 1.0

    def test_delta_equals_s_squared_hand_value(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 3))
        Z = rng.normal(size=(30, 3)) + 4.0
        pf, *_ = pf_from_points(LINEAR, X, Z)
        k, s = 5, 1.2
        bracket = mean_concentration_bounds(k, s, pf, delta_grid=[s * s])
        hand_lower = 1.0 - (k * (1.0 - pf.localisation_new(s)) + k * (k - 1) * (1.0 - pf.projection(s * s)))
        hand_upper = k * pf.localisation_new(s) + k * (k - 1) * pf.projection(s * s)
        assert bracket.lower == pytest.approx(min(max(hand_lower, 0.0), 1.0), abs=1e-12)
        assert bracket.upper == pytest.approx(min(max(hand_upper, 0.0), 1.0), abs=1e-12)

    def test_bracket_ordered_and_monotone_in_s(self):
        rng = np.random.default_rng(5)
        X = ball_cloud(8, np.zeros(8), 0.5, 200, seed=6)
        Z = ball_cloud(8, np.full(8, 1.0), 0.5, 200, seed=7)
        pf, *_ = pf_from_points(LINEAR, X, Z)
        previous = (0.0, 0.0)
        for s in np.linspace(0.05, 1.0, 12):
            bracket = mean_concentration_bounds(4, float(s), pf)
            assert 0.0 <= bracket.lower <= bracket.upper <= 1.0
            assert bracket.lower >= previous[0] - 1e-12
            assert bracket.upper >= previous[1] - 1e-12
            previous = bracket

    def test_overflowing_radius_is_certain(self):
        # s * s overflows to inf: every radius is inf, a level the CDFs take
        pf, *_ = pf_from_points(LINEAR, np.eye(3), np.eye(3) + 1.0)
        with np.errstate(over="ignore"):
            bracket = mean_concentration_bounds(2, 1e200, pf)
        assert bracket.lower == bracket.upper == 1.0

    def test_invalid_inputs(self):
        pf, *_ = pf_from_points(LINEAR, np.eye(3), np.eye(3) + 1.0)
        with pytest.raises(ValueError):
            mean_concentration_bounds(0, 1.0, pf)
        with pytest.raises(ValueError):
            mean_concentration_bounds(3, 0.0, pf)
        # NaN fails every comparison, so a bare s <= 0 check would pass it on
        for k in (1, 3):
            with pytest.raises(ValueError, match="s must be positive"):
                mean_concentration_bounds(k, float("nan"), pf)


class TestGeometricBrackets:
    def test_exact_for_uniform_density(self):
        brackets = GeometricBrackets(1.0, lambda r: 0.37, lambda delta: 0.21)
        loc = brackets.localisation(0.5)
        assert loc.lower == pytest.approx(0.37) and loc.upper == pytest.approx(0.37)
        proj = brackets.projection(0.1)
        assert proj.lower == pytest.approx(0.79) and proj.upper == pytest.approx(0.79)

    def test_clamped_bracket(self):
        brackets = GeometricBrackets(2.0, lambda r: 0.9, lambda delta: 0.9)
        loc = brackets.localisation(1.0)
        assert loc == pytest.approx((0.8, 1.0))

    def test_linear_kernel_power_law_composition(self):
        d, r_support = 6, 1.0
        brackets = GeometricBrackets(
            1.0,
            lambda r: linear_ball_ratio(min(r, r_support) / r_support, d),
            lambda delta: 0.5,
        )
        for eps in (0.2, 0.6, 1.0):
            loc = brackets.localisation(eps * r_support)
            assert loc.lower == pytest.approx(eps**d)
            assert loc.upper == pytest.approx(eps**d)

    def test_separation_same_form_as_projection(self):
        brackets = GeometricBrackets(1.5, lambda r: 0.5, lambda delta: 0.3)
        assert brackets.separation(0.0) == brackets.projection(0.0)

    def test_density_bound_below_one_rejected(self):
        with pytest.raises(ValueError):
            GeometricBrackets(0.5, lambda r: 0.5, lambda delta: 0.5)

    def test_nan_density_bound_rejected(self):
        with pytest.raises(ValueError):
            GeometricBrackets(float("nan"), lambda r: 0.5, lambda delta: 0.5)

    def test_ratio_out_of_range_flagged(self):
        brackets = GeometricBrackets(1.0, lambda r: 1.2, lambda delta: 0.5)
        with pytest.raises(NumericError, match="outside"):
            brackets.localisation(1.0)


class TestBracketRule:
    """bounds._bracket, the one rule that turns a raw lower and upper
    probability into a reported bracket."""

    def test_clamps_to_unit_interval(self):
        assert bounds._bracket(-0.5, 1.5, "ctx") == (0.0, 1.0)
        assert bounds._bracket(0.2, 0.7, "ctx") == (0.2, 0.7)
        # an inversion is judged after clamping
        assert bounds._bracket(1.5, 1.2, "ctx") == (1.0, 1.0)

    @pytest.mark.parametrize("crossing", [2.0**-40, 1e-12])
    def test_round_off_crossing_is_absorbed(self, crossing):
        bracket = bounds._bracket(0.5 + crossing, 0.5, "ctx")
        assert bracket.lower == bracket.upper == 0.5

    def test_wider_inversion_raises_naming_its_context(self):
        with pytest.raises(NumericError, match="inverted") as err:
            bounds._bracket(0.5 + 2.0**-39, 0.5, "localisation(r=0.25)")
        assert "localisation(r=0.25)" in str(err.value)

    def test_geometric_brackets_unchanged(self):
        # GeometricBrackets' rule before the shared one: the inversion check
        # on the raw values, then the clamp
        def check_then_clamp(low, high):
            assert low <= high + 1e-12
            low = min(low, high)
            return (min(max(low, 0.0), 1.0), min(max(high, 0.0), 1.0))

        for A in (1.0, 1.5, 2.0, 10.0):
            for v in [*np.linspace(0.0, 1.0, 11), 0.37, 0.9]:
                brackets = GeometricBrackets(A, lambda r: v, lambda delta: v)
                assert brackets.localisation(0.5) == check_then_clamp(1.0 - A * (1.0 - v), A * v)
                expected = check_then_clamp(1.0 - A * v, A * (1.0 - v))
                assert brackets.projection(0.1) == brackets.separation(0.1) == expected
        loc = GeometricBrackets(2.0, lambda r: 0.9, lambda delta: 0.9).localisation(1.0)
        assert loc == pytest.approx((0.8, 1.0))


def certain_mean(a):
    return (1.0, 1.0)


class TestFewShotSuccessBounds:
    def test_point_mass_classes_certain_learning(self):
        x0 = np.array([1.0, 0.0])
        z0 = np.array([-1.0, 0.0])
        X = np.tile(x0, (5, 1))
        Z = np.tile(z0, (5, 1))
        pf, c_x, c_z, dist_sq = pf_from_points(LINEAR, X, Z)
        assert dist_sq == pytest.approx(4.0)
        grid = BoundGrid.default(pf)
        result = few_shot_success_bounds(pf, dist_sq, theta=-1.0, mean_concentration=certain_mean, grid=grid)
        assert result.new_class.lower == 1.0
        assert result.new_class.upper == 1.0
        assert result.old_class.lower == 1.0

    def test_identical_classes_no_lower_bound(self):
        rng = np.random.default_rng(8)
        X = np.vstack([rng.normal(size=(10, 2)), -rng.normal(size=(10, 2))])
        pf, c_x, c_z, dist_sq = pf_from_points(LINEAR, X, X.copy())
        assert dist_sq <= 1e-12
        result = few_shot_success_bounds(
            pf, 0.0, theta=0.0, mean_concentration=certain_mean, grid=BoundGrid.default(pf)
        )
        assert result.new_class.lower == 0.0

    def test_bracket_always_valid(self):
        rng = np.random.default_rng(9)
        X = ball_cloud(6, np.zeros(6), 0.7, 80, seed=10)
        Z = ball_cloud(6, np.r_[2.0, np.zeros(5)], 0.7, 80, seed=11)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        for theta in (-2.0, -0.5, 0.0, 0.5):
            result = combined_success_bounds(5, pf, dist_sq, theta)
            for report in result:
                assert 0.0 <= report.lower <= report.upper <= 1.0

    def test_monotone_in_theta(self):
        X = ball_cloud(10, np.zeros(10), 0.5, 150, seed=12)
        Z = ball_cloud(10, np.r_[4.0, np.zeros(9)], 0.5, 150, seed=13)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        grid = BoundGrid.default(pf)
        thetas = [-2.0, -1.0, 0.0, 1.0]
        results = [
            few_shot_success_bounds(pf, dist_sq, t, certain_mean, grid) for t in thetas
        ]
        new_lowers = [r.new_class.lower for r in results]
        old_lowers = [r.old_class.lower for r in results]
        assert all(a >= b - 1e-12 for a, b in zip(new_lowers, new_lowers[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(old_lowers, old_lowers[1:]))

    def test_grid_refinement_never_decreases_lower(self):
        X = ball_cloud(8, np.zeros(8), 0.5, 100, seed=14)
        Z = ball_cloud(8, np.r_[3.0, np.zeros(7)], 0.5, 100, seed=15)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        coarse = BoundGrid.default(pf, points_per_axis=6)
        fine = BoundGrid(
            a_values=coarse.a_values + (0.017, 0.29),
            b_values=coarse.b_values + (0.23,),
            beta_values=coarse.beta_values + (0.41,),
            gamma_values=coarse.gamma_values + (4.0,),
            epsilon_values=coarse.epsilon_values + (7.0,),
        )
        lo = few_shot_success_bounds(pf, dist_sq, -1.0, certain_mean, coarse)
        hi = few_shot_success_bounds(pf, dist_sq, -1.0, certain_mean, fine)
        assert hi.new_class.lower >= lo.new_class.lower - 1e-15
        assert hi.old_class.lower >= lo.old_class.lower - 1e-15

    def test_argbest_tie_break_is_lexicographic(self):
        # point-mass classes make many grid tuples achieve lower = 1; the
        # reported argbest must be the lexicographically smallest achiever
        X = np.tile(np.array([1.0, 0.0]), (5, 1))
        Z = np.tile(np.array([-1.0, 0.0]), (5, 1))
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        grid = BoundGrid(
            a_values=(0.001, 0.01),
            b_values=(0.001, 0.01),
            beta_values=(0.001, 0.01),
            gamma_values=(4.0, 8.0),
            epsilon_values=(1.0, 2.0),
        )
        result = few_shot_success_bounds(pf, dist_sq, -1.0, certain_mean, grid)
        achievers = []
        for a in grid.a_values:
            for b in grid.b_values:
                for g in grid.gamma_values:
                    for e in grid.epsilon_values:
                        margin = new_class_margin(-1.0, dist_sq, a, b, g, e)
                        gain = max(pf.localisation_new(b) + pf.separation_new(margin) - 1.0, 0.0)
                        if gain == result.new_class.lower:
                            achievers.append((a, b, g, e))
        best = result.new_class.argbest
        assert (best.a, best.b, best.gamma, best.epsilon) == min(achievers)

    def test_argbest_achieves_lower_bound(self):
        X = ball_cloud(6, np.zeros(6), 0.5, 120, seed=16)
        Z = ball_cloud(6, np.r_[3.0, np.zeros(5)], 0.5, 120, seed=17)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        result = few_shot_success_bounds(
            pf, dist_sq, -1.0, certain_mean, BoundGrid.default(pf)
        )
        best = result.new_class.argbest
        margin = new_class_margin(best.theta, dist_sq, best.a, best.b, best.gamma, best.epsilon)
        value = max(pf.localisation_new(best.b) + pf.separation_new(margin) - 1.0, 0.0)
        assert value == pytest.approx(result.new_class.lower, abs=1e-12)

    def test_invalid_mean_concentration_rejected(self):
        pf, _, _, dist_sq = pf_from_points(LINEAR, np.eye(3), np.eye(3) + 2.0)
        grid = BoundGrid.default()
        with pytest.raises(NumericError):
            few_shot_success_bounds(pf, dist_sq, 0.0, lambda a: (0.9, 0.1), grid)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            BoundGrid(a_values=(), b_values=(1.0,), beta_values=(1.0,), gamma_values=(1.0,), epsilon_values=(1.0,))


def clamped_bracket(lower, upper):
    """The bracket rule (bounds._bracket) with no crossing to raise."""
    lower, upper = min(max(lower, 0.0), 1.0), min(max(upper, 0.0), 1.0)
    return min(lower, upper), upper


def stepped_mean(a):
    # ties in both ends across the a axis
    return (0.5, 0.75) if a < 0.1 else (1.0, 1.0)


class TestBruteForceOracle:
    """Both bound evaluators against plain Python loops over their grids,
    bit for bit, on small grids with deliberate ties."""

    GRID = BoundGrid(
        a_values=(0.001, 0.01, 0.5),
        b_values=(0.001, 0.5, 2.0),
        beta_values=(0.01, 1.0),
        gamma_values=(1.0, 4.0),
        epsilon_values=(0.5, 2.0, 8.0),
    )

    @staticmethod
    def side(loc_cdf, sep_cdf, margin_fn, radii, theta, dist_sq, mean_concentration, grid):
        """(lower, upper, best tuple (a, radius, gamma, epsilon), grid size),
        the best tuple the first maximum in lexicographic loop order."""
        best, best_value, upper_gap, size = None, -1.0, 0.0, 0
        for a in grid.a_values:
            mc_low, mc_high = mean_concentration(a)
            for r in radii:
                for g in grid.gamma_values:
                    for e in grid.epsilon_values:
                        size += 1
                        loc = loc_cdf(r)
                        sep = sep_cdf(margin_fn(theta, dist_sq, a, r, g, e))
                        value = mc_low * max(loc + sep - 1.0, 0.0)
                        if value > best_value:
                            best, best_value = (a, r, g, e), value
                        upper_gap = max(upper_gap, (1.0 - mc_high) * max(1.0 - loc - sep, 0.0))
        return (*clamped_bracket(best_value, 1.0 - upper_gap), best, size)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("mean_concentration", [certain_mean, stepped_mean], ids=["certain", "stepped"])
    @pytest.mark.parametrize("shift", [0.0, 1.5, None], ids=["identical", "near", "point-masses"])
    def test_success_bounds_match_loops(self, theta, mean_concentration, shift):
        if shift is None:
            X = np.tile([1.0, 0.0], (5, 1))
            Z = np.tile([-1.0, 0.0], (5, 1))
        else:
            X = ball_cloud(3, np.zeros(3), 0.7, 12, seed=60)
            Z = ball_cloud(3, np.r_[shift, 0.0, 0.0], 0.7, 12, seed=61)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        result = few_shot_success_bounds(pf, dist_sq, theta, mean_concentration, self.GRID)
        sides = (
            (result.new_class, pf.localisation_new, pf.separation_new, new_class_margin, "b"),
            (result.old_class, pf.localisation_old, pf.separation_old, old_class_margin, "beta"),
        )
        for report, loc_cdf, sep_cdf, margin_fn, radius_name in sides:
            radii = getattr(self.GRID, radius_name + "_values")
            lower, upper, (a, r, g, e), size = self.side(
                loc_cdf, sep_cdf, margin_fn, radii, theta, dist_sq, mean_concentration, self.GRID
            )
            assert (report.lower, report.upper, report.grid_size) == (lower, upper, size)
            other = "beta" if radius_name == "b" else "b"
            best = report.argbest
            assert (best.theta, best.a, getattr(best, radius_name), best.gamma, best.epsilon) == (theta, a, r, g, e)
            assert getattr(best, other) == 0.0

    @staticmethod
    def concentration(k, s, pf, candidates):
        lower, upper = -math.inf, math.inf
        for delta, r in candidates:
            loc, proj = pf.localisation_new(r), pf.projection(delta)
            lower = max(lower, 1.0 - (k * (1.0 - loc) + k * (k - 1) * (1.0 - proj)))
            upper = min(upper, k * loc + k * (k - 1) * proj)
        return clamped_bracket(lower, upper)

    @pytest.mark.parametrize("n_new", [12, 50])  # 50 points give 1225 knots, so they are thinned
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("s", [0.1, 0.55, 0.6])  # upper ends below 1, lower ends above 0
    def test_mean_concentration_matches_loops(self, n_new, k, s):
        X = ball_cloud(3, np.zeros(3), 0.7, n_new, seed=62)
        Z = ball_cloud(3, np.r_[1.5, 0.0, 0.0], 0.7, 12, seed=63)
        pf, *_ = pf_from_points(LINEAR, X, Z)
        s_sq = s * s

        def radius(delta):
            return math.sqrt(max(k * s_sq - (k - 1) * delta, 0.0))

        # a grid with a repeated delta and one above s^2, where the radius is 0
        delta_grid = [-0.2, 0.0, 0.0, 2 * s_sq + 0.1]
        candidates = [(d, radius(d)) for d in delta_grid] + [(s_sq, s)]
        assert mean_concentration_bounds(k, s, pf, delta_grid=delta_grid) == self.concentration(k, s, pf, candidates)

        thinned = pf.projection._thinned_knots
        assert thinned.size == min(pf.projection.knots.size, 513 + 64)
        candidates = [(float(d), radius(d)) for d in thinned]
        candidates += [((k * s_sq - r * r) / (k - 1), float(r)) for r in pf.localisation_new.knots]
        candidates.append((s_sq, s))
        assert mean_concentration_bounds(k, s, pf) == self.concentration(k, s, pf, candidates)


class TestBracketOrderingProperty:
    """lower <= upper for every bracket returned, on random two-class samples.

    A success bracket can come out inverted when the mean-concentration
    bracket is tight and the sample small (see
    test_small_shot_count_inversion_is_reported); that must raise, never
    return."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(PF_SPECS),
        d=st.integers(1, 6),
        n_new=st.integers(2, 60),
        n_old=st.integers(1, 60),
        shift=st.floats(0.0, 3.0),
        k=st.integers(1, 12),
        s=st.floats(1e-3, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mean_concentration_brackets_ordered(self, spec, d, n_new, n_old, shift, k, s, seed):
        X = ball_cloud(d, np.zeros(d), 1.0, n_new, seed=seed)
        Z = ball_cloud(d, np.full(d, shift), 1.0, n_old, seed=seed + 1)
        pf, *_ = pf_from_points(spec, X, Z)
        bracket = mean_concentration_bounds(k, s, pf)
        assert 0.0 <= bracket.lower <= bracket.upper <= 1.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        spec=st.sampled_from(PF_SPECS),
        d=st.integers(1, 6),
        n_new=st.integers(2, 60),
        n_old=st.integers(1, 60),
        shift=st.floats(0.0, 3.0),
        k=st.integers(1, 12),
        theta=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_success_brackets_ordered(self, spec, d, n_new, n_old, shift, k, theta, seed):
        X = ball_cloud(d, np.zeros(d), 1.0, n_new, seed=seed)
        Z = ball_cloud(d, np.full(d, shift), 1.0, n_old, seed=seed + 1)
        pf, _, _, dist_sq = pf_from_points(spec, X, Z)
        grid = BoundGrid.default(pf, points_per_axis=6)
        for evaluate in (
            lambda: combined_success_bounds(k, pf, dist_sq, theta, grid),
            lambda: few_shot_success_bounds(pf, dist_sq, theta, certain_mean, grid),
        ):
            try:
                result = evaluate()
            except NumericError as err:
                assert "inverted" in str(err)
                continue
            for report in result:
                assert 0.0 <= report.lower <= report.upper <= 1.0


class TestCombinedBounds:
    def test_point_mass_composition(self):
        X = np.tile(np.array([1.0, 0.0]), (6, 1))
        Z = np.tile(np.array([-1.0, 0.0]), (6, 1))
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        result = combined_success_bounds(5, pf, dist_sq, theta=-1.0)
        assert result.new_class.lower == 1.0
        assert result.old_class.lower == 1.0

    def test_non_decreasing_in_shot_count(self):
        X = ball_cloud(12, np.zeros(12), 0.5, 300, seed=18)
        Z = ball_cloud(12, np.r_[4.0, np.zeros(11)], 0.5, 300, seed=19)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        lowers = [
            combined_success_bounds(k, pf, dist_sq, theta=-1.0).new_class.lower
            for k in (5, 10, 20)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(lowers, lowers[1:]))

    def test_small_shot_count_inversion_is_reported(self):
        # with very few shots, a tight mean-concentration bracket can expose
        # the symmetric upper bound as inconsistent with the lower bound; this
        # must surface as a numeric failure, never as a silently bad bracket
        X = ball_cloud(12, np.zeros(12), 0.5, 300, seed=18)
        Z = ball_cloud(12, np.r_[4.0, np.zeros(11)], 0.5, 300, seed=19)
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        with pytest.raises(NumericError, match="inverted"):
            combined_success_bounds(2, pf, dist_sq, theta=-1.0)

    def test_serialisation_round_trip(self):
        X = np.tile(np.array([1.0, 0.0]), (4, 1))
        Z = np.tile(np.array([-1.0, 0.0]), (4, 1))
        pf, _, _, dist_sq = pf_from_points(LINEAR, X, Z)
        report = combined_success_bounds(3, pf, dist_sq, theta=-1.0).new_class
        payload = report.to_dict()
        assert set(payload) == {"lower", "upper", "argbest", "grid_size", "heuristic_flags"}
        assert set(payload["argbest"]) == {"theta", "a", "b", "beta", "gamma", "epsilon"}
        assert payload["lower"] == report.lower
