"""Prototype classifier: decision values against hand evaluations and the
explicit feature map, ROC/AUROC against pair-counting, and table
normalisation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import explicit_combination, explicit_poly_point, random_kernel_case
from kernelshot import (
    CentredProbe,
    FeatureTransform,
    auroc,
    centered_sq_norms,
    classify,
    decision_values,
    fit_few_shot,
    gaussian_kernel,
    linear_kernel,
    mean_combination,
    normalize_feature_table,
    polynomial_kernel,
    roc_curve,
    singleton_combination,
)
from kernelshot.experiments import ball_cloud

LINEAR = linear_kernel(0.0)


def two_point_model(spec=LINEAR):
    mu_point = np.array([1.0, 0.0])
    cz_point = np.array([-1.0, 0.0])
    return fit_few_shot(spec, mu_point[None, :], singleton_combination(spec, cz_point))


def mann_whitney(pos, neg):
    """Pair-counting concordance with half credit for ties; the AUROC oracle."""
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    wins = sum(float(p > n) + 0.5 * float(p == n) for p in pos for n in neg)
    return wins / (pos.size * neg.size)


class TestFit:
    def test_single_shot_prototype_is_image(self):
        for spec in (LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(1.0)):
            x0 = np.array([0.4, -0.2])
            model = fit_few_shot(spec, x0[None, :], singleton_combination(spec, np.array([1.0, 1.0])))
            assert centered_sq_norms(spec, x0, model.prototype)[0] <= 1e-12
            assert model.k == 1

    def test_symmetric_shots_cancel_for_linear(self):
        shots = np.array([[0.5, 0.3], [-0.5, -0.3], [0.2, -0.7], [-0.2, 0.7]])
        model = fit_few_shot(LINEAR, shots, singleton_combination(LINEAR, np.array([2.0, 0.0])))
        assert centered_sq_norms(LINEAR, np.zeros(2), model.prototype)[0] <= 1e-12

    def test_prototype_matches_explicit_average(self):
        spec = polynomial_kernel(2, 1.0)
        rng = np.random.default_rng(1)
        shots = rng.uniform(-1, 1, size=(3, 2))
        model = fit_few_shot(spec, shots, singleton_combination(spec, np.array([2.0, 2.0])))
        mu_vec = explicit_combination(shots, np.full(3, 1 / 3), 2, 1.0)
        y = rng.uniform(-1, 1, size=2)
        phi_y = explicit_poly_point(y, 2, 1.0)
        expected = float((phi_y - mu_vec) @ (phi_y - mu_vec))
        assert centered_sq_norms(spec, y, model.prototype)[0] == pytest.approx(expected, abs=1e-9)

    def test_empty_shots_rejected(self):
        with pytest.raises(ValueError):
            fit_few_shot(LINEAR, np.empty((0, 2)), singleton_combination(LINEAR, np.zeros(2)))


class TestDecisionValue:
    def test_shot_itself_scores_zero(self):
        model = two_point_model()
        assert decision_values(model, np.array([1.0, 0.0]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_old_centre_scores_minus_distance(self):
        model = two_point_model()
        assert decision_values(model, np.array([-1.0, 0.0]))[0] == pytest.approx(
            -model.dist_sq, abs=1e-12
        )

    def test_hand_evaluated_linear_case(self):
        # mu = (1,0), c_old = (-1,0), x = (2,0): (x - mu) . (mu - c_old) = 2
        model = two_point_model()
        assert decision_values(model, np.array([2.0, 0.0]))[0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_explicit_feature_map(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            d, degree, bias = random_kernel_case(rng, max_d=3, max_degree=3)
            spec = polynomial_kernel(degree, bias)
            shots = rng.uniform(-1, 1, size=(int(rng.integers(1, 4)), d))
            old_pts = rng.uniform(-1, 1, size=(2, d))
            model = fit_few_shot(spec, shots, mean_combination(spec, old_pts))
            x = rng.uniform(-1, 1, size=d)

            mu_vec = explicit_combination(shots, np.full(len(shots), 1 / len(shots)), degree, bias)
            cz_vec = explicit_combination(old_pts, np.full(2, 0.5), degree, bias)
            phi_x = explicit_poly_point(x, degree, bias)
            expected = float((phi_x - mu_vec) @ (mu_vec - cz_vec))
            assert decision_values(model, x)[0] == pytest.approx(expected, abs=1e-9)

    def test_dimension_mismatch(self):
        model = two_point_model()
        with pytest.raises(ValueError, match="dimension mismatch"):
            decision_values(model, np.array([1.0, 0.0, 0.0]))[0]


KERNELS = [LINEAR, polynomial_kernel(2, 1.0), gaussian_kernel(0.5)]


class TestOldInner:
    """decision_values given a CentredProbe on the old centre, whose column
    (phi(x), old centre) fewshot-roc evaluates once per kernel for every
    seed's model."""

    @pytest.mark.parametrize("spec", KERNELS, ids=lambda s: s.label)
    def test_passed_column_gives_the_same_bits(self, spec):
        rng = np.random.default_rng(44)
        # 300 old rows put the linear and poly2 old centres on the primal path
        centre_old = mean_combination(spec, rng.normal(size=(300, 6)))
        X = rng.normal(size=(1030, 6))
        probe = CentredProbe(spec, centre_old, X)
        # the second model reads the column the first one evaluated
        for shots in (rng.normal(size=(5, 6)), rng.normal(size=(3, 6))):
            model = fit_few_shot(spec, shots, centre_old)
            np.testing.assert_array_equal(decision_values(model, probe), decision_values(model, X))
        assert "centre_inner" in vars(probe)

    def test_probe_centred_elsewhere_is_rejected(self):
        model = two_point_model()
        X = np.ones((10, 2))
        gaussian = gaussian_kernel(0.5)
        for probe in (
            CentredProbe(LINEAR, singleton_combination(LINEAR, np.array([-1.0, 0.0])), X),  # equal, not the same
            CentredProbe(LINEAR, model.prototype, X),
            CentredProbe(gaussian, singleton_combination(gaussian, np.array([-1.0, 0.0])), X),
        ):
            with pytest.raises(ValueError, match="another kernel or combination"):
                decision_values(model, probe)


class TestClassify:
    def test_threshold_extremes(self):
        model = two_point_model()
        x = np.array([0.3, 0.7])
        assert classify(model, x, theta=-1e30, fallback_label="old") == "new"
        assert classify(model, x, theta=1e30, fallback_label="old") == "old"

    def test_boundary_is_inclusive(self):
        model = two_point_model()
        x = np.array([2.0, 0.0])
        value = decision_values(model, x)[0]
        assert classify(model, x, theta=value, fallback_label="old") == "new"

    def test_monotone_in_theta(self):
        model = two_point_model()
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=2)
            labels = [
                classify(model, x, theta, fallback_label="old")
                for theta in np.linspace(-3, 3, 13)
            ]
            # raising theta can only switch new -> old, never back
            seen_old = False
            for label in labels:
                if label == "old":
                    seen_old = True
                else:
                    assert not seen_old

    def test_custom_new_label(self):
        model = two_point_model()
        assert classify(model, np.array([2.0, 0.0]), -10.0, "F", new_label=9) == 9


class TestRocCurve:
    def test_perfect_separation(self):
        curve = roc_curve([2.0, 3.0, 4.0], [-1.0, 0.0])
        assert any(np.array_equal(p, [0.0, 1.0]) for p in curve.points)
        assert auroc(curve) == 1.0

    def test_identical_distributions_diagonal(self):
        scores = [0.1, 0.5, 0.9]
        curve = roc_curve(scores, scores)
        np.testing.assert_array_equal(curve.fpr, curve.tpr)
        assert auroc(curve) == pytest.approx(0.5)

    def test_hand_enumerated_thresholds(self):
        curve = roc_curve([1.0, 3.0], [2.0])
        points = {tuple(p) for p in curve.points}
        assert {(0.0, 0.0), (0.0, 0.5), (1.0, 0.5), (1.0, 1.0)} <= points
        assert auroc(curve) == pytest.approx(0.5)

    def test_endpoints_and_monotonicity(self):
        rng = np.random.default_rng(4)
        curve = roc_curve(rng.normal(size=37), rng.normal(size=23))
        np.testing.assert_array_equal(curve.points[0], [0.0, 0.0])
        np.testing.assert_array_equal(curve.points[-1], [1.0, 1.0])
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            roc_curve([], [1.0])

    @pytest.mark.parametrize(
        "pos, neg",
        [([float("nan"), 1.0], [0.0]), ([1.0], [float("inf")]), ([-float("inf")], [0.0])],
    )
    def test_non_finite_rejected(self, pos, neg):
        with pytest.raises(ValueError, match="finite"):
            roc_curve(pos, neg)


class TestAuroc:
    def test_matches_mann_whitney_with_ties(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            pos = np.round(rng.normal(size=30), 1)  # rounding forces ties
            neg = np.round(rng.normal(loc=0.3, size=25), 1)
            assert auroc(roc_curve(pos, neg)) == pytest.approx(
                mann_whitney(pos, neg), abs=1e-12
            )

    # scores from a small grid, so ties within and across the classes are common
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        pos=st.lists(st.integers(-4, 4).map(lambda v: v / 4.0), min_size=1, max_size=25),
        neg=st.lists(st.integers(-4, 4).map(lambda v: v / 4.0), min_size=1, max_size=25),
    )
    def test_matches_mann_whitney_property(self, pos, neg):
        assert auroc(roc_curve(pos, neg)) == pytest.approx(mann_whitney(pos, neg), abs=1e-12)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(6)
        pos = rng.normal(size=40)
        neg = rng.normal(loc=-0.5, size=40)
        base = auroc(roc_curve(pos, neg))
        affine = auroc(roc_curve(3.0 * pos + 2.0, 3.0 * neg + 2.0))
        cubic = auroc(roc_curve(pos**3, neg**3))
        assert affine == base
        assert cubic == base

    def test_swap_complements(self):
        rng = np.random.default_rng(7)
        pos = rng.normal(size=31)
        neg = rng.normal(loc=0.4, size=29)
        a = auroc(roc_curve(pos, neg))
        swapped = auroc(roc_curve(neg, pos))
        assert swapped == pytest.approx(1.0 - a, abs=1e-12)

    def test_separable_synthetic_refits(self):
        d, k = 50, 10
        centre_new = np.zeros(d)
        centre_old = np.r_[4.0, np.zeros(d - 1)]
        scores = []
        for seed in range(20):
            shots = ball_cloud(d, centre_new, 0.5, k, seed=100 + seed)
            pos = ball_cloud(d, centre_new, 0.5, 300, seed=200 + seed)
            neg = ball_cloud(d, centre_old, 0.5, 300, seed=300 + seed)
            old_centre = mean_combination(LINEAR, ball_cloud(d, centre_old, 0.5, 200, seed=400 + seed))
            model = fit_few_shot(LINEAR, shots, old_centre)
            curve = roc_curve(decision_values(model, pos), decision_values(model, neg))
            scores.append(auroc(curve))
        assert min(scores) >= 0.99


class TestNormalizeFeatureTable:
    def test_centres_old_mean_and_unit_max_norm(self):
        rng = np.random.default_rng(8)
        old = rng.normal(size=(40, 6)) + 5.0
        new = rng.normal(size=(25, 6)) - 2.0
        old_n, new_n, transform = normalize_feature_table(old, new)
        np.testing.assert_allclose(old_n.mean(axis=0), 0.0, atol=1e-12)
        max_norm = max(
            np.linalg.norm(old_n, axis=1).max(), np.linalg.norm(new_n, axis=1).max()
        )
        assert max_norm == pytest.approx(1.0, abs=1e-12)

    def test_single_row_old_table_maps_to_origin(self):
        old = np.array([[3.0, -1.0]])
        new = np.array([[4.0, 0.0], [2.0, 1.0]])
        old_n, _, _ = normalize_feature_table(old, new)
        np.testing.assert_array_equal(old_n, np.zeros((1, 2)))

    def test_transform_applies_to_test_rows(self):
        rng = np.random.default_rng(9)
        old = rng.normal(size=(10, 3))
        new = rng.normal(size=(10, 3))
        old_n, _, transform = normalize_feature_table(old, new)
        np.testing.assert_allclose(transform.apply(old), old_n, atol=1e-12)
        assert isinstance(transform, FeatureTransform)

    def test_zero_scale_rejected(self):
        row = np.array([[1.0, 2.0]])
        with pytest.raises(ValueError, match="zero maximum norm"):
            normalize_feature_table(np.tile(row, (3, 1)), np.tile(row, (2, 1)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="width mismatch"):
            normalize_feature_table(np.zeros((2, 3)), np.zeros((2, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected_naming_its_table(self, bad):
        with pytest.raises(ValueError, match="old_features"):
            normalize_feature_table([[bad, 1.0]], [[1.0, 2.0]])
        with pytest.raises(ValueError, match="new_features"):
            normalize_feature_table([[1.0, 2.0], [0.0, 1.0]], [[1.0, bad]])
