"""Acceptance suite: one test per criterion, each printing a pass/fail line
(run with -s to see them).

The Monte-Carlo sandwich criteria share one expensive synthetic-data bundle
(two uniform balls, 200 classifier refits at 10^4 evaluation draws each).
"""

import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from conftest import explicit_combination, explicit_poly_point, random_kernel_case
from kernelshot import (
    auroc,
    ball_ratio_sweep,
    cap_ratio_sweep,
    centered_inners,
    centered_sq_norms,
    combined_success_bounds,
    decision_values,
    enclosing_radius,
    fit_few_shot,
    gaussian_kernel,
    gaussian_mean_norm_limits,
    gaussian_preimage_radius_sq,
    linear_ball_ratio,
    linear_kernel,
    mean_combination,
    mean_concentration_bounds,
    normalize_feature_table,
    orthogonality_stats,
    polynomial_kernel,
    roc_curve,
    sample_unit_ball,
    singleton_combination,
    spawn_seeds,
    transition_width,
    wilson_interval,
)
from kernelshot.experiments import ball_cloud, two_ball_refits

LINEAR = linear_kernel(0.0)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


@dataclass
class TwoBallBundle:
    spec: object
    k: int
    refits: int
    draws: int
    pf: object
    grid: object
    dist_sq: float
    mu_dists: np.ndarray
    success_new: dict
    success_old: dict
    elapsed: float


@pytest.fixture(scope="module")
def two_ball_bundle():
    """Two uniform balls in d=20, centres 4 apart, radii 0.5, linear kernel:
    reference probability functions plus 200 refits x 10^4 draws."""
    start = time.perf_counter()
    k, refits, draws = 10, 200, 10_000
    fit = two_ball_refits(
        LINEAR,
        d=20,
        centre_distance=4.0,
        radius_new=0.5,
        radius_old=0.5,
        reference_size=2000,
        shots=k,
        thetas=(-1.0, 0.0),
        refits=refits,
        draws=draws,
        seeds=(101, 102, 999),
    )
    return TwoBallBundle(
        spec=LINEAR,
        k=k,
        refits=refits,
        draws=draws,
        pf=fit.pf,
        grid=fit.grid,
        dist_sq=fit.dist_sq,
        mu_dists=fit.mu_dists,
        success_new=fit.success_new,
        success_old=fit.success_old,
        elapsed=time.perf_counter() - start,
    )


def test_c01_kernel_trick_oracle_equivalence():
    with criterion(1, "kernel-trick ops match the explicit feature map to 1e-9"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for _ in range(100):
            d, degree, bias = random_kernel_case(rng, max_d=4, max_degree=3)
            spec = polynomial_kernel(degree, bias)
            n = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(n, d))
            weights = rng.normal(size=n)
            from kernelshot import FeatureCombination

            combo = FeatureCombination(spec, pts, weights)
            combo_vec = explicit_combination(pts, weights, degree, bias)
            y = rng.uniform(-1, 1, size=d)
            z = rng.uniform(-1, 1, size=d)
            phi_y = explicit_poly_point(y, degree, bias)
            phi_z = explicit_poly_point(z, degree, bias)
            assert centered_sq_norms(spec, y, combo)[0] == pytest.approx(
                float((phi_y - combo_vec) @ (phi_y - combo_vec)), abs=1e-9
            )
            assert centered_inners(spec, y, z, combo)[0] == pytest.approx(
                float((phi_y - combo_vec) @ (phi_z - combo_vec)), abs=1e-9
            )

            shots = rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), d))
            old_pts = rng.uniform(-1, 1, size=(2, d))
            model = fit_few_shot(spec, shots, mean_combination(spec, old_pts))
            mu_vec = explicit_combination(shots, np.full(len(shots), 1 / len(shots)), degree, bias)
            cz_vec = explicit_combination(old_pts, np.full(2, 0.5), degree, bias)
            phi_x = explicit_poly_point(y, degree, bias)
            assert decision_values(model, y)[0] == pytest.approx(
                float((phi_x - mu_vec) @ (mu_vec - cz_vec)), abs=1e-9
            )
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_c02_linear_power_law():
    with criterion(2, "linear-kernel ball ratio matches eps^d within 99% Wilson CI"):
        start = time.perf_counter()
        for offset, d in enumerate((2, 5, 10)):
            centre = singleton_combination(LINEAR, np.zeros(d))  # the exact feature mean
            probe = sample_unit_ball(d, 100_000, seed=500 + offset)
            for eps in (0.3, 0.5, 0.7, 0.9):
                estimate = ball_ratio_sweep(LINEAR, centre, probe, 1.0, [eps])[0]
                low, high = wilson_interval(estimate.hits, estimate.trials, 0.99)
                truth = linear_ball_ratio(eps, d)
                assert low <= truth <= high, f"d={d} eps={eps}: {truth} outside [{low}, {high}]"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_c03_gaussian_membership_closed_form():
    with criterion(3, "gaussian feature-ball membership matches the data-space radius exactly"):
        rng = np.random.default_rng(1003)
        X = rng.uniform(-2.0, 2.0, size=(1000, 3))
        Y = rng.uniform(-2.0, 2.0, size=(1000, 3))
        for sigma in (0.25, 1.0):
            spec = gaussian_kernel(sigma)
            for r_sq in (0.5, 1.0, 1.9):
                data_r_sq = gaussian_preimage_radius_sq(np.sqrt(r_sq), sigma)
                for x, y in zip(X, Y):
                    feature_side = (
                        centered_sq_norms(spec, x, singleton_combination(spec, y))[0] <= r_sq
                    )
                    data_side = float(np.sum((x - y) ** 2)) <= data_r_sq
                    assert feature_side == data_side


def test_c04_gaussian_small_eps_emptiness():
    with criterion(4, "gaussian d=1 ball ratio is exactly 0 at eps=0.2"):
        spec = gaussian_kernel(1.0)
        support = sample_unit_ball(1, 1000, seed=510)
        centre = mean_combination(spec, support)
        radius = enclosing_radius(spec, centre, support)
        probe = sample_unit_ball(1, 100_000, seed=511)
        estimate = ball_ratio_sweep(spec, centre, probe, radius, eps_values=[0.2])[0]
        assert estimate.hits == 0
        assert estimate.ratio == 0.0


def test_c05_gaussian_mean_norm_limit():
    with criterion(5, "empirical ||mu||^2 at d=500, k=100 matches the d->infinity limit"):
        start = time.perf_counter()
        spec = gaussian_kernel(1.0)
        points = sample_unit_ball(500, 100, seed=520)
        empirical = mean_combination(spec, points).self_inner
        limit = gaussian_mean_norm_limits(100, 1.0).d_to_infinity
        assert abs(empirical - limit) < 0.05
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s"


def test_c06_success_bound_sandwich(two_ball_bundle):
    with criterion(6, "Monte-Carlo success probabilities lie inside the combined bounds"):
        bundle = two_ball_bundle
        start = time.perf_counter()
        for theta in (-1.0, 0.0):
            reports = combined_success_bounds(
                bundle.k, bundle.pf, bundle.dist_sq, theta, bundle.grid
            )
            for report, values in (
                (reports.new_class, bundle.success_new[theta]),
                (reports.old_class, bundle.success_old[theta]),
            ):
                estimate = float(values.mean())
                sigma = float(values.std(ddof=1)) / np.sqrt(bundle.refits) + 1e-12
                assert report.lower - 3 * sigma <= estimate <= report.upper + 3 * sigma, (
                    f"theta={theta}: {estimate} outside "
                    f"[{report.lower - 3 * sigma}, {report.upper + 3 * sigma}]"
                )
        elapsed = bundle.elapsed + (time.perf_counter() - start)
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"


def test_c07_mean_concentration_sandwich(two_ball_bundle):
    with criterion(7, "mean-concentration brackets contain P(||mu - c|| <= s) on a 10-point grid"):
        bundle = two_ball_bundle
        # default candidates always include the delta = s^2 simplification
        for s in np.linspace(0.05, 0.65, 10):
            bracket = mean_concentration_bounds(bundle.k, float(s), bundle.pf)
            estimate = float(np.mean(bundle.mu_dists <= s))
            sigma = float(np.sqrt(max(estimate * (1 - estimate), 0.0) / bundle.refits)) + 1e-12
            assert bracket.lower - 3 * sigma <= estimate <= bracket.upper + 3 * sigma, (
                f"s={s}: {estimate} outside [{bracket.lower}, {bracket.upper}] (3sigma={3 * sigma})"
            )


def test_c08_cap_transition_sharpens_with_degree():
    with criterion(8, "cap-ratio transition width strictly shrinks as degree goes 1 -> 2 -> 5"):
        d = 10
        support = sample_unit_ball(d, 1000, seed=81)
        probe = sample_unit_ball(d, 100_000, seed=82)
        direction = np.zeros(d)
        direction[0] = 1.0
        sweep = np.linspace(-0.9, 0.9, 19)
        widths = {}
        for degree in (1, 2, 5):
            spec = polynomial_kernel(degree, 1.0)
            centre = mean_combination(spec, support)
            radius = enclosing_radius(spec, centre, support)
            # normalise delta by the Cauchy-Schwarz scale so degrees are comparable
            scale = radius * np.sqrt(centered_sq_norms(spec, direction, centre)[0])
            estimates = cap_ratio_sweep(
                spec, centre, direction, probe, radius, [t * scale for t in sweep]
            )
            widths[degree] = transition_width(sweep, [e.ratio for e in estimates])
        assert widths[1] > widths[2] > widths[5], f"widths not strictly shrinking: {widths}"


def test_c09_fewshot_auroc_property():
    with criterion(9, "normalised-feature AUROC >= 0.99 and degree-2 kernel does not hurt"):
        d, k = 50, 10
        centre_old_vec = np.r_[4.0, np.zeros(d - 1)]
        old_train = ball_cloud(d, centre_old_vec, 0.5, 300, seed=530)
        new_train = ball_cloud(d, np.zeros(d), 0.5, 300, seed=531)
        old_test = ball_cloud(d, centre_old_vec, 0.5, 1000, seed=532)
        new_test = ball_cloud(d, np.zeros(d), 0.5, 1000, seed=533)

        old_norm, new_norm, transform = normalize_feature_table(old_train, new_train)
        positives = transform.apply(new_test)
        negatives = transform.apply(old_test)

        means = {}
        for spec in (LINEAR, polynomial_kernel(2, 1.0)):
            centre_old = mean_combination(spec, old_norm)
            values = []
            for seed in spawn_seeds(909, 20):
                rng = np.random.default_rng(seed)
                idx = rng.choice(len(new_norm), size=k, replace=False)
                model = fit_few_shot(spec, new_norm[idx], centre_old)
                curve = roc_curve(
                    decision_values(model, positives), decision_values(model, negatives)
                )
                values.append(auroc(curve))
            means[spec.label] = float(np.mean(values))
        linear_mean = means[LINEAR.label]
        poly_mean = means[polynomial_kernel(2, 1.0).label]
        assert linear_mean >= 0.99, f"linear mean AUROC {linear_mean}"
        assert poly_mean >= linear_mean - 0.01, f"degree-2 drop: {linear_mean - poly_mean}"


def test_c10_orthogonality_trend():
    with criterion(10, "gaussian cosines beat linear at d=100 and shrink from d=10 to d=1000"):
        gauss = gaussian_kernel(1.0)
        sample = sample_unit_ball(100, 1000, seed=91)
        gauss_stats = orthogonality_stats(gauss, sample)
        linear_stats = orthogonality_stats(LINEAR, sample)
        assert gauss_stats.mean_abs_cos < linear_stats.mean_abs_cos

        stats_by_d = {}
        for offset, d in enumerate((10, 1000)):
            stats = orthogonality_stats(gauss, sample_unit_ball(d, 1000, seed=92 + offset))
            # conservative effective sample: each point participates in ~n pairs
            stats_by_d[d] = (stats.mean_abs_cos, stats.std_cos / np.sqrt(stats.n_pairs / 500))
        low_d, high_d = stats_by_d[10], stats_by_d[1000]
        assert low_d[0] - 3 * low_d[1] > high_d[0] + 3 * high_d[1]
