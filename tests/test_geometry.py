"""Monte-Carlo volume ratio estimators against analytic oracles, orthogonality
statistics, and the closed-form kernel geometry results."""

import csv
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from kernelshot import (
    CentredProbe,
    DomainSpec,
    NumericError,
    OrthogonalityStats,
    ball_ratio_sweep,
    cap_ratio_sweep,
    centered_gram,
    centered_inners,
    centered_sq_norms,
    enclosing_radius,
    gaussian_ball_preimage_volume,
    gaussian_kernel,
    gaussian_mean_norm_limits,
    gaussian_preimage_radius_sq,
    linear_ball_ratio,
    linear_kernel,
    mean_combination,
    multi_index_basis,
    orthogonality_stats,
    polynomial_kernel,
    quadratic_ball_ratio_bound,
    sample_domain,
    sample_unit_ball,
    singleton_combination,
    spawn_seeds,
    transition_width,
    wilson_interval,
)
from kernelshot import geometry, kernels
from kernelshot.experiments import load_config, run_volume_ratio
from kernelshot.geometry import write_ratio_sweep_csv

LINEAR = linear_kernel(0.0)


def origin_combo(d):
    return singleton_combination(LINEAR, np.zeros(d))


class TestWilson:
    def test_bounds_are_probabilities(self):
        low, high = wilson_interval(0, 50)
        assert low == 0.0 and 0.0 < high < 0.2
        low, high = wilson_interval(50, 50)
        assert 0.8 < low < 1.0 and high == 1.0

    def test_contains_point_estimate(self):
        for hits in (1, 10, 25, 49):
            low, high = wilson_interval(hits, 50)
            assert low < hits / 50 < high

    def test_higher_confidence_is_wider(self):
        low95, high95 = wilson_interval(30, 100, 0.95)
        low99, high99 = wilson_interval(30, 100, 0.99)
        assert low99 < low95 and high99 > high95

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestEnclosingRadius:
    def test_identity_support(self):
        x = np.array([0.2, -0.4])
        c = singleton_combination(LINEAR, x)
        assert enclosing_radius(LINEAR, c, x[None, :]) <= 1e-9

    def test_gaussian_diameter_bound(self):
        spec = gaussian_kernel(1.0)
        rng = np.random.default_rng(0)
        pts = rng.normal(scale=4.0, size=(200, 3))
        c = singleton_combination(spec, rng.normal(size=3))
        assert enclosing_radius(spec, c, pts) <= 2.0

    def test_monotone_under_extension(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(30, 2))
        c = origin_combo(2)
        base = enclosing_radius(LINEAR, c, pts)
        extended = enclosing_radius(LINEAR, c, np.vstack([pts, [[5.0, 5.0]]]))
        assert extended >= base


class TestBallRatio:
    def test_eps_one_with_enclosing_radius(self):
        probe = sample_unit_ball(3, 5000, seed=3)
        c = origin_combo(3)
        r = enclosing_radius(LINEAR, c, probe)
        est = ball_ratio_sweep(LINEAR, c, probe, r, eps_values=[1.0])[0]
        assert est.ratio == 1.0

    def test_monotone_in_eps(self):
        probe = sample_unit_ball(4, 8000, seed=4)
        c = origin_combo(4)
        hits = [ball_ratio_sweep(LINEAR, c, probe, 1.0, [eps])[0].hits for eps in np.linspace(0, 1, 11)]
        assert all(a <= b for a, b in zip(hits, hits[1:]))

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("eps", [0.3, 0.7])
    def test_linear_power_law(self, d, eps):
        probe = sample_unit_ball(d, 20_000, seed=50 + d)
        est = ball_ratio_sweep(LINEAR, origin_combo(d), probe, 1.0, [eps])[0]
        low, high = wilson_interval(est.hits, est.trials, 0.99)
        assert low <= linear_ball_ratio(eps, d) <= high

    def test_gaussian_small_eps_empty(self):
        spec = gaussian_kernel(1.0)
        support = sample_unit_ball(1, 500, seed=6)
        c = mean_combination(spec, support)
        r = enclosing_radius(spec, c, support)
        probe = sample_unit_ball(1, 20_000, seed=7)
        est = ball_ratio_sweep(spec, c, probe, r, eps_values=[0.2])[0]
        assert est.hits == 0 and est.ratio == 0.0

    def test_invalid_inputs(self):
        probe = sample_unit_ball(2, 10, seed=0)
        with pytest.raises(ValueError):
            ball_ratio_sweep(LINEAR, origin_combo(2), probe, r=0.0, eps_values=[0.5])[0]
        with pytest.raises(ValueError):
            ball_ratio_sweep(LINEAR, origin_combo(2), probe, r=1.0, eps_values=[1.5])[0]

    def test_chunking_invariance(self):
        probe = sample_unit_ball(3, 5000, seed=12)
        c = origin_combo(3)
        a = ball_ratio_sweep(LINEAR, c, probe, 1.0, [0.6], chunk_size=97)[0]
        b = ball_ratio_sweep(LINEAR, c, probe, 1.0, [0.6], chunk_size=4096)[0]
        assert a == b

    def test_sweep_matches_pointwise(self):
        probe = sample_unit_ball(3, 3000, seed=44)
        c = origin_combo(3)
        eps_values = [0.2, 0.5, 0.8, 1.0]
        sweep = ball_ratio_sweep(LINEAR, c, probe, 1.0, eps_values)
        pointwise = [ball_ratio_sweep(LINEAR, c, probe, 1.0, [e])[0] for e in eps_values]
        assert sweep == pointwise


class TestCapRatio:
    def test_vacuous_halfspace_equals_ball(self):
        probe = sample_unit_ball(3, 4000, seed=8)
        c = origin_combo(3)
        r = enclosing_radius(LINEAR, c, probe)
        ball = ball_ratio_sweep(LINEAR, c, probe, r, eps_values=[1.0])[0]
        cap = cap_ratio_sweep(LINEAR, c, np.array([1.0, 0.0, 0.0]), probe, r, delta_values=[-1e30])[0]
        assert cap.hits == ball.hits

    def test_cauchy_schwarz_exclusion(self):
        probe = sample_unit_ball(3, 4000, seed=9)
        c = origin_combo(3)
        v = np.array([0.5, 0.1, -0.2])
        r = 1.0
        delta = r * math.sqrt(centered_sq_norms(LINEAR, v, c)[0]) * 1.0001
        est = cap_ratio_sweep(LINEAR, c, v, probe, r, [delta])[0]
        assert est.hits == 0

    def test_half_ball(self):
        probe = sample_unit_ball(2, 20_000, seed=10)
        est = cap_ratio_sweep(LINEAR, origin_combo(2), np.array([1.0, 0.0]), probe, 1.0, delta_values=[0.0])[0]
        low, high = wilson_interval(est.hits, est.trials, 0.99)
        assert low <= 0.5 <= high

    def test_monotone_in_delta(self):
        probe = sample_unit_ball(3, 5000, seed=11)
        c = origin_combo(3)
        v = np.array([1.0, 0.0, 0.0])
        hits = [
            cap_ratio_sweep(LINEAR, c, v, probe, 1.0, [delta])[0].hits
            for delta in np.linspace(-1.0, 1.0, 9)
        ]
        assert all(a >= b for a, b in zip(hits, hits[1:]))

    def test_sweep_matches_pointwise(self):
        probe = sample_unit_ball(2, 2000, seed=45)
        c = origin_combo(2)
        v = np.array([0.7, -0.1])
        deltas = [-0.5, -0.1, 0.0, 0.2]
        sweep = cap_ratio_sweep(LINEAR, c, v, probe, 1.0, deltas)
        pointwise = [cap_ratio_sweep(LINEAR, c, v, probe, 1.0, [t])[0] for t in deltas]
        assert sweep == pointwise


class TestSweepValidation:
    def test_ball_rejects_nan_radius(self):
        probe = sample_unit_ball(2, 10, seed=0)
        with pytest.raises(ValueError, match="finite"):
            ball_ratio_sweep(LINEAR, origin_combo(2), probe, r=math.nan, eps_values=[0.5])[0]

    def test_ball_rejects_infinite_radius(self):
        probe = sample_unit_ball(2, 10, seed=0)
        with pytest.raises(ValueError, match="finite"):
            ball_ratio_sweep(LINEAR, origin_combo(2), probe, r=math.inf, eps_values=[0.5])[0]

    def test_cap_rejects_nan_delta(self):
        probe = sample_unit_ball(2, 10, seed=0)
        with pytest.raises(ValueError, match="finite"):
            cap_ratio_sweep(LINEAR, origin_combo(2), np.array([1.0, 0.0]), probe, 1.0, [math.nan])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cap_direction_must_be_finite(self, bad):
        probe = sample_unit_ball(2, 10, seed=0)
        with pytest.raises(ValueError, match="v must be finite"):
            cap_ratio_sweep(LINEAR, origin_combo(2), np.array([1.0, bad]), probe, 1.0, [0.0])
        with pytest.raises(ValueError, match="v must be finite"):
            centered_inners(LINEAR, probe, np.array([bad, 0.0]), origin_combo(2))


SWEEP_SPECS = [gaussian_kernel(0.3), gaussian_kernel(2.0), polynomial_kernel(2, 1.0), polynomial_kernel(3, 0.5)]
SWEEP_PROBE = 300


def sweep_case(spec, d, n_support, seed):
    """Centre, probe, radius and cap direction of one random sweep scenario.

    The polynomial supports range over both sides of the feature dimension,
    so the kernel-row and the primal paths are both exercised.
    """
    rng = np.random.default_rng(seed)
    support = rng.uniform(-1.0, 1.0, size=(n_support, d))
    c = mean_combination(spec, support)
    probe = rng.uniform(-1.2, 1.2, size=(SWEEP_PROBE, d))
    v = rng.uniform(-1.0, 1.0, size=d)
    return c, probe, enclosing_radius(spec, c, support), v


def sorted_grid(rng, low, high, size=6):
    return sorted(float(t) for t in rng.uniform(low, high, size=size))


SCENARIO = dict(
    spec=st.sampled_from(SWEEP_SPECS),
    d=st.integers(1, 4),
    n_support=st.integers(2, 40),
    seed=st.integers(0, 2**32 - 1),
)
# 250 leaves a partial last chunk of the 300-point probe
CHUNK_SIZES = [1, 97, 250]


class TestSweepProperties:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_counts_do_not_depend_on_chunk_size(self, spec, d, n_support, seed, chunk_size):
        c, probe, r, v = sweep_case(spec, d, n_support, seed)
        rng = np.random.default_rng(seed)
        eps = sorted_grid(rng, 0.0, 1.0)
        bound = r * math.sqrt(centered_sq_norms(spec, v, c)[0])
        deltas = sorted_grid(rng, -bound, bound)
        assert ball_ratio_sweep(spec, c, probe, r, eps, chunk_size=chunk_size) == ball_ratio_sweep(
            spec, c, probe, r, eps
        )
        assert cap_ratio_sweep(spec, c, v, probe, r, deltas, chunk_size=chunk_size) == cap_ratio_sweep(
            spec, c, v, probe, r, deltas
        )

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_counts_match_direct_thresholding(self, spec, d, n_support, seed):
        c, probe, r, v = sweep_case(spec, d, n_support, seed)
        rng = np.random.default_rng(seed)
        eps = sorted_grid(rng, 0.0, 1.0)
        bound = r * math.sqrt(centered_sq_norms(spec, v, c)[0])
        deltas = sorted_grid(rng, -bound, bound)
        dist = np.sqrt(centered_sq_norms(spec, probe, c))
        inner = centered_inners(spec, probe, v, c)
        ball = [int(np.count_nonzero(dist <= e * r)) for e in eps]
        cap = [int(np.count_nonzero((dist <= r) & (inner >= t))) for t in deltas]
        assert [est.hits for est in ball_ratio_sweep(spec, c, probe, r, eps)] == ball
        assert [est.hits for est in cap_ratio_sweep(spec, c, v, probe, r, deltas)] == cap

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_ball_hits_monotone_in_eps(self, spec, d, n_support, seed):
        c, probe, r, _ = sweep_case(spec, d, n_support, seed)
        eps = sorted_grid(np.random.default_rng(seed), 0.0, 1.0, size=12)
        hits = [est.hits for est in ball_ratio_sweep(spec, c, probe, r, eps)]
        assert all(a <= b for a, b in zip(hits, hits[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_sweeps_equal_per_value_calls(self, spec, d, n_support, seed):
        c, probe, r, v = sweep_case(spec, d, n_support, seed)
        rng = np.random.default_rng(seed)
        eps = sorted_grid(rng, 0.0, 1.0)
        bound = r * math.sqrt(centered_sq_norms(spec, v, c)[0])
        deltas = sorted_grid(rng, -bound, bound)
        assert ball_ratio_sweep(spec, c, probe, r, eps) == [ball_ratio_sweep(spec, c, probe, r, [e])[0] for e in eps]
        assert cap_ratio_sweep(spec, c, v, probe, r, deltas) == [
            cap_ratio_sweep(spec, c, v, probe, r, [t])[0] for t in deltas
        ]

    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_enclosing_radius_does_not_depend_on_chunk_size(self, spec, d, n_support, seed, chunk_size):
        c, probe, _, _ = sweep_case(spec, d, n_support, seed)
        assert enclosing_radius(spec, c, probe, chunk_size=chunk_size) == enclosing_radius(spec, c, probe)


class TestCentredProbe:
    @pytest.mark.parametrize("cap_first", [False, True], ids=["ball-cap", "cap-ball"])
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(**SCENARIO)
    def test_shared_column_gives_the_counts_of_plain_sweeps(self, spec, d, n_support, seed, chunk_size, cap_first):
        c, probe, r, v = sweep_case(spec, d, n_support, seed)
        rng = np.random.default_rng(seed)
        eps = sorted_grid(rng, 0.0, 1.0)
        bound = r * math.sqrt(centered_sq_norms(spec, v, c)[0])
        deltas = sorted_grid(rng, -bound, bound)
        shared = CentredProbe(spec, c, probe)
        sweeps = [
            lambda p: ball_ratio_sweep(spec, c, p, r, eps, chunk_size=chunk_size),
            lambda p: cap_ratio_sweep(spec, c, v, p, r, deltas, chunk_size=chunk_size),
        ]
        if cap_first:
            sweeps.reverse()
        for sweep in sweeps:
            assert sweep(shared) == sweep(probe)

    def test_probe_centred_elsewhere_is_rejected(self):
        spec = gaussian_kernel(0.5)
        support = sample_unit_ball(3, 20, seed=1).points
        c = mean_combination(spec, support)
        probe = CentredProbe(spec, c, sample_unit_ball(3, 30, seed=2))
        with pytest.raises(ValueError, match="another kernel or combination"):
            ball_ratio_sweep(spec, mean_combination(spec, support), probe, 1.0, [0.5])
        with pytest.raises(ValueError, match="another kernel or combination"):
            cap_ratio_sweep(gaussian_kernel(0.6), c, np.ones(3), probe, 1.0, [0.0])
        with pytest.raises(ValueError, match="kernel spec mismatch"):
            CentredProbe(gaussian_kernel(0.6), c, probe.points)

    def test_failed_pass_caches_nothing(self):
        # kappa(y, y) = (1 + |y|^2)^200 overflows, while the column
        # (phi(y), phi(0)) = 1 is finite
        spec = polynomial_kernel(200, 1.0)
        probe = CentredProbe(spec, singleton_combination(spec, np.zeros(2)), np.full((5, 2), 10.0))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match="not finite"):
            ball_ratio_sweep(spec, probe.centre, probe, 1.0, [0.5])
        assert "centre_inner" not in vars(probe)

    def test_run_volume_ratio_evaluates_each_probe_row_once(self, tmp_path, monkeypatch):
        # whole groups of probe rows, so no block repeats a row to fill one
        config = {
            "kernel": {"kind": "gaussian", "sigma": 0.5}, "d": 3, "support_size": 50, "probe_size": 2000,
            "eps_grid": [0.5, 1.0], "delta_grid": [0.0, 0.5], "seed": 4, "out": str(tmp_path),
        }
        cfg = load_config("volume-ratio", config)
        rows = Counter()
        original = kernels.kernel_matrix

        def recording(spec, X, Y):
            if len(getattr(Y, "support", Y)) == cfg.support_size:
                rows.update(x.tobytes() for x in X)
            return original(spec, X, Y)

        monkeypatch.setattr(kernels, "kernel_matrix", recording)
        run_volume_ratio(cfg)
        domain = DomainSpec(cfg.domain, cfg.d, cfg.half_width)
        probe = sample_domain(domain, cfg.probe_size, spawn_seeds(cfg.seed, 2)[1]).points
        assert [rows[y.tobytes()] for y in probe] == [1] * cfg.probe_size


class TestOrthogonalityStats:
    def test_two_points_antipodal(self):
        for spec in (LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(1.0)):
            stats = orthogonality_stats(spec, np.array([[0.3, 0.1], [-0.5, 0.4]]))
            assert stats.mean_abs_cos == pytest.approx(1.0, abs=1e-9)
            assert stats.std_cos == pytest.approx(0.0, abs=1e-9)
            assert stats.n_pairs == 1

    def test_high_dimension_near_orthogonal(self):
        sample = sample_unit_ball(100, 1000, seed=13)
        stats = orthogonality_stats(LINEAR, sample)
        assert stats.mean_abs_cos < 0.15

    def test_gaussian_trend_with_dimension(self):
        values = []
        for i, d in enumerate((10, 100, 1000)):
            sample = sample_unit_ball(d, 400, seed=20 + i)
            values.append(orthogonality_stats(gaussian_kernel(1.0), sample).mean_abs_cos)
        assert values[0] > values[1] > values[2]

    def test_degenerate_pairs_excluded(self):
        # the midpoint maps exactly onto the mean under the linear kernel
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])
        pts = np.vstack([a, b, (a + b) / 2])
        stats = orthogonality_stats(LINEAR, pts)
        assert stats.n_pairs == 1
        assert stats.excluded_pairs == 2
        assert stats.mean_abs_cos == pytest.approx(1.0, abs=1e-9)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            orthogonality_stats(LINEAR, np.array([[1.0, 2.0]]))

    def test_all_pairs_degenerate_is_a_numeric_error(self):
        # every point coincides with the mean, so no pair has a cosine
        pts = np.tile([0.5, -1.0], (4, 1))
        for spec in (LINEAR, gaussian_kernel(1.0)):
            with pytest.raises(NumericError, match="all pairs are degenerate"):
                orthogonality_stats(spec, pts)


def long_double_mean_norm(X, degree, bias):
    """Mean of ||phi(x_i) - mu|| with the explicit feature map, its
    coefficients and the mean all in long double: the reference for data far
    from the origin, where double-precision centring cancels."""
    Xl = X.astype(np.longdouble)
    columns = []
    for m in multi_index_basis(X.shape[1], degree):
        total = sum(m)
        multinomial = math.prod(math.comb(sum(m[i:]), m[i]) for i in range(len(m)))
        power = np.longdouble(bias) ** (2 * (degree - total))
        sq = np.longdouble(math.comb(degree, degree - total) * multinomial) * power
        columns.append(np.sqrt(sq) * np.prod(Xl ** np.array(m), axis=1))
    phi = np.stack(columns, axis=1)
    centred = phi - phi.mean(axis=0)
    return np.sqrt((centred * centred).sum(axis=1)).mean()


class TestOrthogonalityFarFromOrigin:
    """Centred feature rows subtract the mean once, in feature space, so the
    centred norms keep their accuracy at offset 100, where the kernel-trick
    expansion kappa(x, x) - 2 (phi(x), mu) + (mu, mu) cancels."""

    @pytest.mark.parametrize("spec", [LINEAR, polynomial_kernel(2, 1.0)], ids=lambda s: s.label)
    def test_mean_norm_matches_long_double(self, spec):
        X = np.random.default_rng(90).uniform(-0.1, 0.1, size=(2000, 5))
        X[:, 0] += 100.0
        want = long_double_mean_norm(X, spec.degree, spec.bias)
        assert orthogonality_stats(spec, X).mean_norm == pytest.approx(float(want), rel=1e-13, abs=0.0)


def dense_orthogonality_stats(spec, sample):
    """The orthogonality statistics from the whole n x n centred Gram matrix,
    walked one row at a time: the reference for the blocked routine."""
    pts = np.asarray(sample, dtype=float)
    n = pts.shape[0]
    C = centered_gram(spec, pts, mean_combination(spec, pts))
    sq = np.diagonal(C).copy()
    assert np.all(sq >= -1e-9)
    np.maximum(sq, 0.0, out=sq)
    norms = np.sqrt(sq)
    valid = norms > 0.0

    count = 0
    excluded = 0
    sum_cos = 0.0
    sum_cos_sq = 0.0
    sum_abs = 0.0
    for i in range(n - 1):
        row = C[i, i + 1 :]
        if not valid[i]:
            excluded += row.size
            continue
        mask = valid[i + 1 :]
        good = row[mask] / (norms[i] * norms[i + 1 :][mask])
        excluded += row.size - good.size
        count += good.size
        sum_cos += float(good.sum())
        sum_cos_sq += float((good * good).sum())
        sum_abs += float(np.abs(good).sum())

    mean_cos = sum_cos / count
    return OrthogonalityStats(
        mean_abs_cos=sum_abs / count,
        std_cos=math.sqrt(max(sum_cos_sq / count - mean_cos * mean_cos, 0.0)),
        mean_norm=float(norms.mean()),
        std_norm=float(norms.std()),
        n_pairs=count,
        excluded_pairs=excluded,
    )


def with_zero_norm_points(d, seed):
    """256 points whose linear feature mean is exactly the origin, six of
    them at the origin, so those six have centred norm exactly 0.

    Coordinates are multiples of 1/8 and the weights 1/256, so every partial
    sum of the mean is exact."""
    half = np.random.default_rng(seed).integers(-8, 9, size=(125, d)) / 8.0
    return np.vstack([half, np.zeros((6, d)), -half])


ORTHO_SPECS = [LINEAR, polynomial_kernel(2, 1.0), polynomial_kernel(3, 0.5), gaussian_kernel(0.5)]


def far_gaussian_points(n):
    """n points near (100, 0, 0, 0, 0), the last five of them 2 further out:
    |e| about 400 on those rows, beyond _EXP_RANGE, while every r_j of the
    factor stays within it (as in TestGaussianPairFactor)."""
    X = np.random.default_rng(71).uniform(-0.1, 0.1, size=(n, 5))
    X[:, 0] += 100.0
    X[-5:, 0] += 2.0
    return X


# centred feature rows: the cosine sums in closed form, with no kernel
# entry.  Each n leaves one row after the blocks of ROW_BLOCK - p - 1 rows,
# folded into the one before
CLOSED_FORM_CASES = {
    "linear": (LINEAR, lambda: sample_unit_ball(3, 1009, seed=31).points),
    "poly2": (polynomial_kernel(2, 1.0), lambda: sample_unit_ball(3, 1001, seed=33).points),
    "poly3": (polynomial_kernel(3, 0.5), lambda: sample_unit_ball(3, 977, seed=34).points),
}
# the column pass, then centred kernel rows: n^2 kernel entries.  1025 rows
# leave one row after two pair blocks.  poly2 at d 40 has 861 features and
# linear at d 100 has 101, both beyond _CENTRED_ROWS_DIM
COLUMN_PASS_CASES = {
    "poly2-d40": (polynomial_kernel(2, 1.0), lambda: sample_unit_ball(40, 1025, seed=35).points),
    "linear-d100-zero-norms": (LINEAR, lambda: with_zero_norm_points(100, seed=36)),
    "gaussian-no-factor": (gaussian_kernel(1e-3), lambda: sample_unit_ball(3, 1025, seed=38).points),
    "gaussian-beyond-the-guard": (gaussian_kernel(0.5), lambda: far_gaussian_points(1025)),
}


def assert_same_stats(got, want):
    """Counts exactly, the rest to rel 1e-12.

    The blocked routine evaluates kernel rows in blocks, and OpenBLAS may
    round a block's entries in the last place differently from the same
    entries of one n x n product; the cosines are also summed in another
    order."""
    assert (got.n_pairs, got.excluded_pairs) == (want.n_pairs, want.excluded_pairs)
    for name in ("mean_abs_cos", "std_cos", "mean_norm", "std_norm"):
        assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-12, abs=0.0), name


class TestBlockedOrthogonality:
    """orthogonality_stats reduces blocks of centred pair inner products; the
    dense centred Gram walked row by row is its reference."""

    # 1025 rows leave a one-row remainder after two blocks of 512; d = 40
    # puts the polynomial means of 1025 points on the kernel-trick path
    @pytest.mark.parametrize("spec", ORTHO_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("d", [3, 40])
    def test_matches_dense_oracle(self, spec, d):
        sample = sample_unit_ball(d, 1025, seed=d).points
        assert_same_stats(orthogonality_stats(spec, sample), dense_orthogonality_stats(spec, sample))

    def test_zero_norm_pairs_counted_in_closed_form(self):
        sample = with_zero_norm_points(3, seed=5)
        stats = orthogonality_stats(LINEAR, sample)
        assert stats.n_pairs == 250 * 249 // 2
        assert stats.excluded_pairs == 256 * 255 // 2 - stats.n_pairs
        assert_same_stats(stats, dense_orthogonality_stats(LINEAR, sample))

    @pytest.mark.parametrize("row_block", [2, 97, 400])
    @pytest.mark.parametrize("spec", [LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(0.5)], ids=lambda s: s.label)
    def test_does_not_depend_on_row_block(self, monkeypatch, spec, row_block):
        samples = [sample_unit_ball(4, 301, seed=6).points, with_zero_norm_points(4, seed=7)]
        default = [orthogonality_stats(spec, sample) for sample in samples]
        monkeypatch.setattr(kernels, "ROW_BLOCK", row_block)
        for sample, want in zip(samples, default):
            assert_same_stats(orthogonality_stats(spec, sample), want)


    def test_gaussian_reuses_the_mean_row_sums(self, monkeypatch):
        # the upper block triangle of the column pass, whose row and column
        # sums are n (phi(x_i), mu), then the upper block triangle of pair
        # blocks: n^2 entries in all, where building the mean first cost
        # another n^2 / 2
        n = 1025
        sample = sample_unit_ball(4, n, seed=9).points
        evals = count_kernel_entries(monkeypatch)
        orthogonality_stats(gaussian_kernel(0.5), sample)
        assert sum(evals) == column_and_pair_entries(n)

    def test_column_pass_forms_factor_rows_per_block(self, monkeypatch):
        # the column pass, like the pair blocks, hands _factor_rows one
        # block's rows at a time, never the whole sample
        n = 1025
        sample = sample_unit_ball(4, n, seed=9).points
        want = orthogonality_stats(gaussian_kernel(0.5), sample)
        sizes = []
        original = kernels._factor_rows

        def recording(spec, m, X, *args):
            sizes.append(X.shape[0])
            return original(spec, m, X, *args)

        monkeypatch.setattr(kernels, "_factor_rows", recording)
        assert orthogonality_stats(gaussian_kernel(0.5), sample) == want
        blocks = [*kernels._row_blocks(n, n), *kernels._row_blocks(n)]
        assert sorted(sizes) == sorted(hi - lo for lo, hi in blocks)

    @pytest.mark.parametrize("n", [2053, 4099])
    @pytest.mark.parametrize("spec", [LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(0.5)], ids=lambda s: s.label)
    def test_matches_dense_oracle_beyond_2048_rows(self, monkeypatch, spec, n):
        # past n 2048 a pair block has fewer rows than ROW_BLOCK, at most
        # _PAIR_ENTRIES entries: linear and poly2 at d 5 (6 and 21 features)
        # take the centred rows, the Gaussian the column pass and kernel rows
        sample = sample_unit_ball(5, n, seed=n).points
        want = dense_orthogonality_stats(spec, sample)
        centred = record_centred_blocks(monkeypatch)
        evals = count_kernel_entries(monkeypatch)
        assert_same_stats(orthogonality_stats(spec, sample), want)
        if kernels._has_centred_rows(spec, 5, n):
            assert evals == [] and sum(m for m, _ in centred) == n
            assert max(m * cols for m, cols in centred) <= kernels._PAIR_ENTRIES
        else:
            assert centred == [] and sum(evals) == column_and_pair_entries(n)
            assert max(evals) <= kernels._PAIR_ENTRIES

    @pytest.mark.parametrize("case", list(CLOSED_FORM_CASES))
    def test_closed_forms_match_dense_oracle(self, monkeypatch, case):
        spec, points = CLOSED_FORM_CASES[case]
        sample = points()
        want = dense_orthogonality_stats(spec, sample)
        assert kernels._has_centred_rows(spec, sample.shape[1], sample.shape[0])
        evals = count_kernel_entries(monkeypatch)
        assert_same_stats(orthogonality_stats(spec, sample), want)
        assert evals == []

    @pytest.mark.parametrize("case", list(COLUMN_PASS_CASES))
    def test_column_pass_matches_dense_oracle(self, monkeypatch, case):
        spec, points = COLUMN_PASS_CASES[case]
        sample = points()
        n = sample.shape[0]
        want = dense_orthogonality_stats(spec, sample)
        assert not kernels._has_centred_rows(spec, sample.shape[1], n)
        evals = count_kernel_entries(monkeypatch)
        assert_same_stats(orthogonality_stats(spec, sample), want)
        assert sum(evals) == column_and_pair_entries(n)

    def test_gaussian_cases_reach_the_fallbacks(self):
        # tiny sigma: no factor at all; offset 100: a factor whose last block
        # in each pass, and no other, is beyond _EXP_RANGE
        spec, points = COLUMN_PASS_CASES["gaussian-no-factor"]
        assert kernels._gaussian_factor(spec, points()) is None
        spec, points = COLUMN_PASS_CASES["gaussian-beyond-the-guard"]
        own = kernels._gaussian_factor(spec, points())
        assert own is not None
        for blocks in (list(kernels._row_blocks(1025, 1025)), list(kernels._row_blocks(1025))):
            _, within = kernels._factor_rows(spec, own.m, own.support, [lo for lo, _ in blocks])
            assert within.tolist() == [True] * (len(blocks) - 1) + [False]


def count_kernel_entries(monkeypatch) -> list:
    """The sizes of the kernel_matrix blocks evaluated from here on."""
    evals = []
    original = kernels.kernel_matrix

    def counting(spec, X, Y):
        K = original(spec, X, Y)
        evals.append(K.size)
        return K

    monkeypatch.setattr(kernels, "kernel_matrix", counting)
    return evals


def record_centred_blocks(monkeypatch) -> list:
    """The shapes of the centred-row pair blocks orthogonality_stats reduces
    from here on."""
    shapes = []
    original = geometry._centred_row_blocks

    def recording(*args):
        for lo, hi, U, out in original(*args):
            shapes.append(out.shape)
            yield lo, hi, U, out

    monkeypatch.setattr(geometry, "_centred_row_blocks", recording)
    return shapes


def column_and_pair_entries(n: int) -> int:
    """Kernel entries of the column pass's upper block triangle, in blocks of
    _row_blocks(n, n) rows, and of the pair blocks', in the blocks of
    _pair_row_blocks(n)."""
    return sum((hi - lo) * (n - lo) for lo, hi in [*kernels._row_blocks(n, n), *kernels._pair_row_blocks(n)])


class TestOrthogonalityMemory:
    """No n x n matrix: blocks of ROW_BLOCK x n centred pair inner products
    and O(n) vectors are all orthogonality_stats holds at once."""

    @pytest.mark.parametrize("spec", [gaussian_kernel(0.5), polynomial_kernel(2, 1.0)], ids=lambda s: s.label)
    def test_peak_below_one_square_matrix(self, spec):
        n = 3000
        sample = np.random.default_rng(45).uniform(-1, 1, size=(n, 20))
        _, peak = traced_peak(lambda: orthogonality_stats(spec, sample))
        assert peak < n * n * 8

    @pytest.mark.parametrize("spec", [gaussian_kernel(0.5), polynomial_kernel(2, 1.0), LINEAR], ids=lambda s: s.label)
    def test_one_pair_block_alive_at_a_time(self, spec):
        # each block is freed before the next kernel_matrix call, and a
        # Gaussian block on the sample's own mean is one product buffer
        n = 3000
        sample = np.random.default_rng(45).uniform(-1, 1, size=(n, 20))
        _, peak = traced_peak(lambda: orthogonality_stats(spec, sample))
        assert peak < 1.5 * kernels.ROW_BLOCK * n * 8


class TestPairBlockMemory:
    """Pair blocks stop growing with n at _PAIR_ENTRIES entries (until the
    centred rows' floor of rows), so orthogonality_stats holds one such
    block beside rows of about p + 1 entries per point: the centred feature
    rows for a primal mean (p features), else the points and their factor
    (p = d)."""

    @pytest.mark.parametrize("spec", [LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(0.5)], ids=lambda s: s.label)
    def test_peak_within_one_pair_block_and_the_rows(self, spec):
        n, d = 6000, 20
        sample = np.random.default_rng(45).uniform(-1, 1, size=(n, d))
        p = kernels.poly_feature_dim(d, spec.degree) if kernels._has_centred_rows(spec, d, n) else d
        _, peak = traced_peak(lambda: orthogonality_stats(spec, sample))
        assert peak < 1.5 * (kernels._PAIR_ENTRIES + n * (p + 1)) * 8


class TestAnalyticForms:
    def test_linear_ball_ratio(self):
        assert linear_ball_ratio(1.0, 7) == 1.0
        assert linear_ball_ratio(0.0, 7) == 0.0
        assert linear_ball_ratio(0.5, 5) == pytest.approx(0.03125)
        with pytest.raises(ValueError):
            linear_ball_ratio(1.2, 3)

    def test_quadratic_bound(self):
        assert quadratic_ball_ratio_bound(1.0, 2.0, 6) == pytest.approx(1.0)
        assert quadratic_ball_ratio_bound(0.5, 1.0, 4) == 0.0
        # large shift limit approaches eps^(d/2)
        assert quadratic_ball_ratio_bound(0.6, 1e12, 8) == pytest.approx(0.6**4, abs=1e-9)
        with pytest.raises(ValueError):
            quadratic_ball_ratio_bound(0.5, 0.0, 4)
        # the same eps range as linear_ball_ratio, NaN included
        for eps in (-0.9, 2.0, math.nan):
            with pytest.raises(ValueError, match="eps"):
                quadratic_ball_ratio_bound(eps, 1.0, 4)

    def test_gaussian_volume_closed_form(self):
        r = math.sqrt(2.0 * (1.0 - math.exp(-0.5)))
        assert gaussian_ball_preimage_volume(r, 1.0, 2) == pytest.approx(math.pi, rel=1e-12)
        assert gaussian_ball_preimage_volume(0.0, 1.0, 3) == 0.0
        assert gaussian_ball_preimage_volume(1.5, 1.0, 3) == math.inf  # r^2 = 2.25 > 2
        assert math.isfinite(gaussian_ball_preimage_volume(1.0, 1.0, 500))

    def test_gaussian_membership_predicate(self):
        rng = np.random.default_rng(30)
        spec_cases = [(0.25,), (1.0,)]
        for (sigma,) in spec_cases:
            spec = gaussian_kernel(sigma)
            for r_sq in (0.5, 1.0, 1.9):
                r = math.sqrt(r_sq)
                data_r_sq = gaussian_preimage_radius_sq(r, sigma)
                X = rng.uniform(-2, 2, size=(200, 3))
                Y = rng.uniform(-2, 2, size=(200, 3))
                for x, y in zip(X[:50], Y[:50]):
                    feature_side = centered_sq_norms(spec, x, singleton_combination(spec, y))[0] <= r_sq
                    data_side = float(np.sum((x - y) ** 2)) <= data_r_sq
                    assert feature_side == data_side

    def test_mean_norm_limits(self):
        limits = gaussian_mean_norm_limits(1, 0.5)
        assert limits.sigma_to_zero == 1.0 and limits.d_to_infinity == 1.0
        assert gaussian_mean_norm_limits(10, 1.0).sigma_to_zero == pytest.approx(0.1)
        assert gaussian_mean_norm_limits(2, 1.0).d_to_infinity == pytest.approx(
            0.5 + 0.5 * math.exp(-1.0), abs=1e-9
        )


class TestTransitionWidth:
    def test_linear_ramp(self):
        xs = np.linspace(0.0, 1.0, 101)
        ys = 1.0 - xs
        assert transition_width(xs, ys) == pytest.approx(0.8, abs=1e-9)

    def test_requires_spanning_sweep(self):
        with pytest.raises(ValueError):
            transition_width([0.0, 1.0], [0.8, 0.2])

    def test_sweep_ending_at_low_stops_where_it_reaches_it(self):
        high = 0.1 + (0.95 - 0.9) / (0.95 - 0.5) * (0.2 - 0.1)
        assert transition_width([0.1, 0.2, 0.3], [0.95, 0.5, 0.1]) == 0.3 - high
        assert transition_width([0.1, 0.2, 0.3, 0.4], [0.95, 0.5, 0.1, 0.1]) == 0.3 - high

    def test_crossings_below_low_keep_their_interpolation(self):
        # a point exactly at low followed by one below it crosses at that point
        assert transition_width([0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.1, 0.0]) == 2.0 - (1.0 - 0.9) / (1.0 - 0.5)

    @pytest.mark.parametrize("high, low", [(0.1, 0.9), (0.5, 0.5)])
    def test_high_not_above_low_raises_naming_both(self, high, low):
        # swapped levels would cross in the wrong order and give a negative width
        with pytest.raises(ValueError, match=rf"^high \({high}\) must exceed low \({low}\)"):
            transition_width([0.1, 0.2, 0.3], [0.95, 0.5, 0.05], high=high, low=low)


class TestSweepCsv:
    def test_round_trip(self, tmp_path):
        probe = sample_unit_ball(2, 500, seed=40)
        c = origin_combo(2)
        eps_values = [0.25, 0.5, 0.75]
        estimates = [ball_ratio_sweep(LINEAR, c, probe, 1.0, [e])[0] for e in eps_values]
        path = tmp_path / "sweep.csv"
        write_ratio_sweep_csv(path, eps_values, estimates)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        for row, eps, est in zip(rows, eps_values, estimates):
            assert float(row["eps_or_delta"]) == eps
            assert float(row["ratio"]) == est.ratio
            assert int(row["hits"]) == est.hits
            assert int(row["trials"]) == est.trials

    def test_length_mismatch_writes_nothing(self, tmp_path):
        estimates = [ball_ratio_sweep(LINEAR, origin_combo(2), sample_unit_ball(2, 50, seed=41), 1.0, [0.5])[0]] * 2
        with pytest.raises(ValueError, match="3 sweep values but 2 estimates"):
            write_ratio_sweep_csv(tmp_path / "sweep.csv", [0.25, 0.5, 0.75], estimates)
        assert list(tmp_path.iterdir()) == []
