"""Kernel evaluation, Gram matrices, implicit combinations, and the explicit
polynomial feature map that serves as their independent oracle."""

import contextvars
import math
import os
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_kernel, explicit_combination, explicit_poly_point, random_kernel_case, traced_peak
from kernelshot import (
    CentredProbe,
    FeatureCombination,
    KernelSpec,
    NumericError,
    centered_gram,
    centered_inners,
    centered_sq_norms,
    combo_inner,
    combo_pair_stats,
    enclosing_radius,
    gaussian_kernel,
    gaussian_mean_norm_limits,
    gram_matrix,
    inner_with_combo,
    kernel_matrix,
    linear_kernel,
    mean_combination,
    multi_index_basis,
    poly_coefficient,
    poly_feature_dim,
    poly_feature_map,
    polynomial_kernel,
    singleton_combination,
)
from kernelshot import kernels
from kernelshot.kernels import (
    ROW_BLOCK,
    SQ_NORM_TOL,
    _centered_pair_blocks,
    _clamp_sq,
    _row_blocks,
    kernel_diag,
)

ALL_SPECS = [
    linear_kernel(0.0),
    linear_kernel(1.0),
    polynomial_kernel(2, 1.0),
    polynomial_kernel(3, 0.5),
    gaussian_kernel(1.0),
    gaussian_kernel(0.25),
]


class TestKernelSpec:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=0)
        with pytest.raises(ValueError):
            KernelSpec("polynomial", degree=2, bias=-0.1)
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=0.0)
        with pytest.raises(ValueError):
            KernelSpec("linear", degree=2)
        with pytest.raises(ValueError):
            KernelSpec("sigmoid")
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                KernelSpec("gaussian", sigma=bad)
            with pytest.raises(ValueError, match="finite"):
                KernelSpec("polynomial", degree=2, bias=bad)
            with pytest.raises(ValueError, match="finite"):
                KernelSpec("linear", bias=bad)
            with pytest.raises(ValueError, match="finite"):
                KernelSpec("polynomial", degree=bad)

    def test_labels_distinct(self):
        labels = {spec.label for spec in ALL_SPECS}
        assert len(labels) == len(ALL_SPECS)


class TestEvalKernel:
    """kappa of one pair, as kernel_matrix evaluates it."""

    @staticmethod
    def one(spec, x, y):
        return float(kernel_matrix(spec, [x], [y])[0, 0])

    def test_polynomial_unit_vector(self):
        e1 = np.array([1.0, 0.0])
        assert self.one(polynomial_kernel(2, 1.0), e1, e1) == 4.0

    def test_gaussian_zero_distance(self):
        x = np.array([0.3, -1.2, 0.8])
        for sigma in (0.25, 1.0, 5.0):
            assert self.one(gaussian_kernel(sigma), x, x) == 1.0

    def test_linear_orthogonal(self):
        assert self.one(linear_kernel(0.0), [1.0, 0.0], [0.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            self.one(linear_kernel(), [1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_symmetry(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            assert self.one(spec, x, y) == self.one(spec, y, x)


class TestGramMatrix:
    def test_gaussian_unit_diagonal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(6, 4))
        K = gram_matrix(gaussian_kernel(0.7), X)
        assert np.all(np.diagonal(K) == 1.0)

    def test_orthonormal_linear_identity(self):
        K = gram_matrix(linear_kernel(0.0), np.eye(4))
        np.testing.assert_array_equal(K, np.eye(4))

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(4, 3))
        for spec in ALL_SPECS:
            K = gram_matrix(spec, X)
            for i in range(4):
                for j in range(4):
                    assert K[i, j] == pytest.approx(eval_kernel(spec, X[i], X[j]), abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            gram_matrix(linear_kernel(), np.empty((0, 3)))

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_exactly_symmetric(self, spec):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 5))
        K = gram_matrix(spec, X)
        np.testing.assert_array_equal(K, K.T)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label)
    def test_positive_semidefinite(self, spec):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            d = int(rng.integers(1, 6))
            X = rng.normal(scale=rng.uniform(0.2, 2.0), size=(n, d))
            K = gram_matrix(spec, X)
            assert np.linalg.eigvalsh(K).min() >= -1e-8


def textbook_gaussian_matrix(X, Y, sigma, same):
    """The Gaussian kernel matrix as one out-of-place expression; the oracle
    for the in-place construction in kernel_matrix."""
    xs = np.einsum("ij,ij->i", X, X)
    ys = xs if same else np.einsum("ij,ij->i", Y, Y)
    sq = xs[:, None] + ys[None, :] - 2.0 * (X @ Y.T)
    np.maximum(sq, 0.0, out=sq)
    if same:
        np.fill_diagonal(sq, 0.0)
    return np.exp(sq * (-1.0 / (2.0 * sigma)))


class TestGaussianKernelMatrix:
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 3.0])
    @pytest.mark.parametrize("shape", [(1, 1, 1), (7, 3, 2), (50, 40, 5), (300, 17, 32)])
    def test_bitwise_equal_to_textbook_expression(self, sigma, shape):
        rows, cols, d = shape
        rng = np.random.default_rng(rows + cols + d)
        X = rng.normal(size=(rows, d))
        Y = rng.normal(size=(cols, d))
        np.testing.assert_array_equal(
            kernel_matrix(gaussian_kernel(sigma), X, Y), textbook_gaussian_matrix(X, Y, sigma, same=False)
        )

    @pytest.mark.parametrize("sigma", [0.05, 0.5, 3.0])
    def test_same_array_bitwise_with_unit_diagonal(self, sigma):
        X = np.random.default_rng(13).normal(scale=3.0, size=(60, 4))
        K = kernel_matrix(gaussian_kernel(sigma), X, X)
        np.testing.assert_array_equal(K, textbook_gaussian_matrix(X, X, sigma, same=True))
        assert np.all(np.diagonal(K) == 1.0)

    def test_strided_input(self):
        X = np.random.default_rng(14).normal(size=(30, 6))[::2, ::2]
        spec = gaussian_kernel(0.7)
        np.testing.assert_array_equal(
            kernel_matrix(spec, X, X), textbook_gaussian_matrix(X, X, 0.7, same=True)
        )


class TestCoincidentPoints:
    """kappa(x, x) = 1 exactly for a Gaussian kernel whichever arrays x sits
    in, so the sigma -> 0 limit (every image orthogonal) comes out exact."""

    @pytest.mark.parametrize("d", [3, 64, 3000])
    @pytest.mark.parametrize("data", ["normal", "nonnegative"])
    def test_unit_at_every_coincident_pair(self, d, data):
        rng = np.random.default_rng(d)
        X = rng.normal(scale=3.0, size=(60, d)) if data == "normal" else rng.uniform(0.0, 1.0, size=(60, d))
        dup = X[rng.integers(0, 60, size=80)]
        spec = gaussian_kernel(0.5 * d)
        for A, B in ((X[3:9], X), (X, X.copy()), (dup, dup), (dup, X)):
            K = kernel_matrix(spec, A, B)
            coincident = (A[:, None, :] == B[None, :, :]).all(axis=2)
            assert coincident.any()
            assert np.all(K[coincident] == 1.0)
            assert np.all((K > 0.0) & (K <= 1.0))

    @pytest.mark.parametrize("sigma", [1e-10, 1e-14, 1e-18])
    def test_sigma_to_zero_is_exact(self, sigma):
        n = 50
        X = np.random.default_rng(46).uniform(-1, 1, size=(n, 3))
        spec = gaussian_kernel(sigma)
        mean = mean_combination(spec, X)
        np.testing.assert_array_max_ulp(enclosing_radius(spec, mean, X), math.sqrt(1.0 - 1.0 / n), maxulp=2)
        np.testing.assert_array_max_ulp(centered_sq_norms(spec, X, mean), np.full(n, 1.0 - 1.0 / n), maxulp=2)
        np.testing.assert_array_max_ulp(mean.self_inner, gaussian_mean_norm_limits(n, sigma).sigma_to_zero, maxulp=2)


def recursive_compositions(total, parts):
    """Depth-`parts` recursion over the first entry; the oracle for the
    stars-and-bars enumeration."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


class TestPolyFeatureMap:
    def test_dimension_count(self):
        assert poly_feature_dim(2, 2) == 6
        assert len(multi_index_basis(2, 2)) == 6
        assert poly_feature_map(np.zeros(2), 2, 1.0).size == 6

    def test_zero_input_constant_term(self):
        phi = poly_feature_map(np.zeros(3), 2, 1.0)
        assert phi[0] == 1.0
        assert np.all(phi[1:] == 0.0)

    def test_graded_lex_order(self):
        basis = multi_index_basis(2, 2)
        assert basis == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    @pytest.mark.parametrize("d", range(1, 7))
    @pytest.mark.parametrize("degree", range(1, 5))
    def test_basis_matches_recursive_oracle(self, d, degree):
        expected = [m for total in range(degree + 1) for m in recursive_compositions(total, d)]
        basis = multi_index_basis(d, degree)
        assert basis == expected
        assert len(basis) == poly_feature_dim(d, degree)

    def test_kernel_identity_cubic(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-1, 1, size=3)
            y = rng.uniform(-1, 1, size=3)
            lhs = poly_feature_map(x, 3, 1.0) @ poly_feature_map(y, 3, 1.0)
            assert lhs == pytest.approx((1.0 + x @ y) ** 3, abs=1e-10)

    def test_kernel_identity_random_cases(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d, degree, bias = random_kernel_case(rng)
            x = rng.uniform(-1, 1, size=d)
            y = rng.uniform(-1, 1, size=d)
            lhs = poly_feature_map(x, degree, bias) @ poly_feature_map(y, degree, bias)
            assert lhs == pytest.approx((bias**2 + x @ y) ** degree, abs=1e-10)

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="exceeds cap"):
            poly_feature_map(np.zeros(100), 5, 1.0, dim_cap=10**4)

    def test_coefficient_is_multinomial_weighted(self):
        # alpha((1,1))^2 for degree 2 must carry the multinomial factor 2
        assert poly_coefficient((1, 1), 2, 0.0) == pytest.approx(math.sqrt(2.0))
        assert poly_coefficient((2, 0), 2, 0.0) == 1.0


def feature_rows_oracle(X, degree, bias):
    """phi of every row, one column at a time: a monomial is its parent's
    column (one power less of its last non-zero variable j) times x_j, and
    is scaled by alpha(m) once all columns are built."""
    basis = multi_index_basis(X.shape[1], degree)
    cols = {basis[0]: np.ones(X.shape[0])}
    for m in basis[1:]:
        j = max(t for t, mt in enumerate(m) if mt)
        cols[m] = cols[m[:j] + (m[j] - 1,) + m[j + 1 :]] * X[:, j]
    return np.column_stack([cols[m] * poly_coefficient(m, degree, bias) for m in basis])


FEATURE_ROW_CASES = [(d, degree) for d in range(1, 8) for degree in range(1, 5)] + [(20, 2), (32, 2), (50, 2)]


class TestFeatureRows:
    """_feature_rows fills runs of consecutive columns with one broadcast
    product each; the products, and so the bits, are the oracle's."""

    @pytest.mark.parametrize("bias", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d, degree", FEATURE_ROW_CASES)
    def test_bits_match_column_oracle(self, d, degree, bias):
        X = np.random.default_rng(10 * d + degree).standard_normal((9, d))
        X[0] = 0.0
        X[1] = -0.0  # the bits must match, signs of zeros included
        X[2, ::2] = -0.0
        got = kernels._feature_rows(X, degree, bias)
        want = feature_rows_oracle(X, degree, bias)
        assert got.shape == want.shape == (9, poly_feature_dim(d, degree))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d, degree", FEATURE_ROW_CASES)
    def test_runs_tile_columns_once(self, d, degree):
        runs, coef = kernels._feature_plan(d, degree, 1.0)
        covered = np.zeros(coef.size, dtype=int)
        for parent, start, k in runs:
            assert parent < start  # a parent is built before its run
            covered[start : start + d - k] += 1
        assert covered[0] == 0
        assert (covered[1:] == 1).all()


def tuple_feature_plan(d, degree, bias):
    """_feature_plan's runs and coefficients from the tuple basis: the
    reference the direct derivation must match bit for bit."""
    basis = multi_index_basis(d, degree)
    index = {m: i for i, m in enumerate(basis)}
    runs = tuple(
        (p, index[m[:-1] + (m[-1] + 1,)], max((t for t, mt in enumerate(m) if mt), default=0))
        for p, m in enumerate(basis)
        if sum(m) < degree
    )
    return runs, np.array([poly_coefficient(m, degree, bias) for m in basis])


class TestFeaturePlan:
    """_feature_plan derives its runs and coefficients without the tuple
    basis, with the same values and bits."""

    @pytest.mark.parametrize(
        "d, degree, bias",
        [(1, 1, 0.0), (1, 7, 0.3), (2, 3, 0.3), (3, 2, 1.0), (5, 4, 0.7), (6, 5, 1.7), (7, 3, 2.5),
         (20, 1, 0.0), (32, 2, 1.0), (50, 2, 1.0), (50, 2, 0.1)],
    )
    def test_matches_tuple_basis(self, d, degree, bias):
        runs, coef = kernels._feature_plan(d, degree, bias)
        want_runs, want_coef = tuple_feature_plan(d, degree, bias)
        assert runs == want_runs
        assert np.array_equal(coef, want_coef)
        assert not coef.flags.writeable


class TestPolynomialBuffers:
    """Polynomial feature rows and kernel blocks are built in their output
    buffer: no block-sized temporary."""

    def test_feature_rows_peak(self):
        X = np.random.default_rng(0).standard_normal((512, 32))
        rows, peak = traced_peak(lambda: kernels._feature_rows(X, 2, 1.0))
        assert peak < 1.25 * rows.nbytes

    def test_kernel_block_peak(self):
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((512, 50)), rng.standard_normal((3000, 50))
        block, peak = traced_peak(lambda: kernel_matrix(polynomial_kernel(2, 1.0), X, Y))
        assert peak < 1.25 * block.nbytes

    def test_degree_three_block_peak(self):
        # the power's copy of the base is a few rows, not a block
        rng = np.random.default_rng(1)
        X, Y = rng.standard_normal((512, 50)), rng.standard_normal((3000, 50))
        block, peak = traced_peak(lambda: kernel_matrix(polynomial_kernel(3, 1.0), X, Y))
        assert peak < 1.25 * block.nbytes

    @pytest.mark.parametrize("spec", [linear_kernel(0.0), linear_kernel(0.7), polynomial_kernel(2, 1.0),
                                      polynomial_kernel(3, 0.5), polynomial_kernel(4, 0.3)])
    def test_block_bits_match_textbook_expression(self, spec):
        # the base b = bias^2 + X Y^T raised as ((b b) b) ... b, whose
        # square is numpy's b ** 2
        rng = np.random.default_rng(2)
        X, Y = rng.standard_normal((40, 6)), rng.standard_normal((70, 6))
        base = spec.bias**2 + X @ Y.T
        want = base.copy()
        for _ in range(spec.degree - 1):
            want *= base
        np.testing.assert_array_equal(kernel_matrix(spec, X, Y).view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("spec", [polynomial_kernel(2, 1.0), polynomial_kernel(3, 0.5),
                                      polynomial_kernel(4, 0.3), polynomial_kernel(7, 1.0)], ids=lambda s: s.label)
    def test_power_within_long_double_oracle(self, spec):
        # against (b^2 + x . y)^k in long double: the forward error bound
        # k (d + 2) u (b^2 + |x| . |y|)^k of the d-term product, the bias and
        # the power, which numpy's ** meets too; and the power alone, from
        # the same float64 base, within its k - 1 roundings
        rng = np.random.default_rng(3)
        X, Y = rng.standard_normal((300, 6)), rng.standard_normal((1000, 6))
        k, u = spec.degree, 2.0**-53
        XL, YL, bias = X.astype(np.longdouble), Y.astype(np.longdouble), np.longdouble(spec.bias)
        exact = (bias**2 + XL @ YL.T) ** k
        scale = (bias**2 + np.abs(XL) @ np.abs(YL).T) ** k
        got = kernel_matrix(spec, X, Y)
        textbook = (spec.bias**2 + X @ Y.T) ** k
        for K in (got, textbook):
            assert np.max(np.abs(K - exact) / scale) <= k * (X.shape[1] + 2) * u
        base = spec.bias**2 + X @ Y.T
        power = base.astype(np.longdouble) ** k
        assert np.max(np.abs(got - power) / np.abs(power)) <= (k - 1) * u / (1 - (k - 1) * u)
        assert got.shape[0] > len(list(kernels._row_blocks(*got.shape)))  # several row blocks


class TestCenteredOps:
    def test_identity_point_zero(self):
        for spec in ALL_SPECS:
            y = np.array([0.4, -0.3])
            c = singleton_combination(spec, y)
            assert centered_sq_norms(spec, y, c)[0] <= 1e-12

    def test_gaussian_singleton_expansion(self):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            expected = 2.0 - 2.0 * eval_kernel(spec, y, x)
            got = centered_sq_norms(spec, y, singleton_combination(spec, x))[0]
            assert got == pytest.approx(expected, abs=1e-12)

    def test_gaussian_bounded_by_sphere_diameter(self):
        spec = gaussian_kernel(1.0)
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.normal(scale=3.0, size=4)
            y = rng.normal(scale=3.0, size=4)
            assert centered_sq_norms(spec, y, singleton_combination(spec, x))[0] <= 4.0 + 1e-9

    def test_diagonal_consistency(self):
        rng = np.random.default_rng(13)
        for spec in ALL_SPECS:
            pts = rng.normal(size=(3, 2))
            c = mean_combination(spec, pts)
            y = rng.normal(size=2)
            assert centered_inners(spec, y, y, c)[0] == pytest.approx(
                centered_sq_norms(spec, y, c)[0], abs=1e-12
            )

    def test_zero_vector_factor(self):
        rng = np.random.default_rng(14)
        for spec in ALL_SPECS:
            y = rng.normal(size=2)
            c = singleton_combination(spec, y)
            for _ in range(5):
                z = rng.normal(size=2)
                assert centered_inners(spec, y, z, c)[0] == pytest.approx(0.0, abs=1e-12)

    def test_cauchy_schwarz(self):
        rng = np.random.default_rng(15)
        for spec in ALL_SPECS:
            for _ in range(40):
                pts = rng.normal(size=(3, 3))
                weights = rng.normal(size=3)
                c = FeatureCombination(spec, pts, weights)
                y = rng.normal(size=3)
                z = rng.normal(size=3)
                lhs = abs(centered_inners(spec, y, z, c)[0])
                rhs = math.sqrt(
                    centered_sq_norms(spec, y, c)[0] * centered_sq_norms(spec, z, c)[0]
                )
                assert lhs <= rhs + 1e-9

    def test_combo_pair_stats_identical(self):
        spec = polynomial_kernel(2, 1.0)
        pts = np.array([[0.1, 0.5], [-0.2, 0.3]])
        A = mean_combination(spec, pts)
        assert combo_pair_stats(spec, A, A).sq_distance == 0.0

    def test_combo_pair_stats_gaussian_singletons(self):
        spec = gaussian_kernel(2.0)
        rng = np.random.default_rng(21)
        for _ in range(10):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            stats = combo_pair_stats(
                spec, singleton_combination(spec, x), singleton_combination(spec, y)
            )
            assert stats.sq_distance == pytest.approx(2.0 - 2.0 * eval_kernel(spec, x, y), abs=1e-12)

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="weights length"):
            FeatureCombination(linear_kernel(), np.zeros((2, 2)), np.ones(3))

    def test_spec_mismatch(self):
        c = singleton_combination(linear_kernel(), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="kernel spec mismatch"):
            centered_sq_norms(gaussian_kernel(1.0), np.array([0.0, 0.0]), c)[0]

    def test_combination_immutable(self):
        c = singleton_combination(linear_kernel(), np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            c.support[0, 0] = 2.0


class TestClampSq:
    """Squared quantities clamp round-off negatives to 0 and raise
    NumericError, which is also a ValueError, for anything else."""

    def test_round_off_negatives_clamp_to_zero(self):
        np.testing.assert_array_equal(_clamp_sq(np.array([2.0, -SQ_NORM_TOL, -1e-16]), "q"), [2.0, 0.0, 0.0])
        assert _clamp_sq(-1e-12, "q") == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_raises_naming_the_quantity(self, bad):
        with pytest.raises(NumericError, match=r"^centered squared norm is not finite"):
            _clamp_sq(np.array([1.0, bad, 2.0]), "centered squared norm")

    def test_negative_beyond_tolerance_raises(self):
        with pytest.raises(NumericError, match="negative beyond round-off tolerance"):
            _clamp_sq(np.array([1.0, -1e-6]), "pairwise squared distance")

    def test_numeric_error_is_a_value_error(self):
        with pytest.raises(ValueError):
            _clamp_sq(np.nan, "q")

    def test_overflowing_kernel_raises_at_construction(self):
        spec = polynomial_kernel(200, 10.0)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match="combination self inner product is not finite"
        ):
            mean_combination(spec, np.ones((3, 2)))

    def test_overflowing_bias_gives_inf(self):
        spec = polynomial_kernel(2, 1e200)
        assert poly_coefficient((0,), 2, 1e200) == math.inf
        with np.errstate(over="ignore"):
            assert (kernel_matrix(spec, [[1.0]], [[1.0]]) == math.inf).all()
            assert (kernel_diag(spec, [[1.0]]) == math.inf).all()
            assert kernel_matrix(polynomial_kernel(3, 0.0), [[-1e110]], [[1e110]])[0, 0] == -math.inf


class TestKernelTrickOracle:
    """Kernel-trick results must agree with the explicit polynomial map."""

    def test_centered_ops_match_explicit_map(self):
        rng = np.random.default_rng(100)
        for _ in range(100):
            d, degree, bias = random_kernel_case(rng)
            spec = polynomial_kernel(degree, bias)
            n = int(rng.integers(1, 4))
            pts = rng.uniform(-1, 1, size=(n, d))
            weights = rng.normal(size=n)
            c = FeatureCombination(spec, pts, weights)
            c_vec = explicit_combination(pts, weights, degree, bias)
            y = rng.uniform(-1, 1, size=d)
            z = rng.uniform(-1, 1, size=d)
            phi_y = explicit_poly_point(y, degree, bias)
            phi_z = explicit_poly_point(z, degree, bias)

            assert centered_sq_norms(spec, y, c)[0] == pytest.approx(
                float((phi_y - c_vec) @ (phi_y - c_vec)), abs=1e-9
            )
            assert centered_inners(spec, y, z, c)[0] == pytest.approx(
                float((phi_y - c_vec) @ (phi_z - c_vec)), abs=1e-9
            )

    def test_combo_pair_stats_match_explicit_map(self):
        rng = np.random.default_rng(200)
        for _ in range(50):
            d, degree, bias = random_kernel_case(rng, max_d=2, max_degree=2)
            spec = polynomial_kernel(degree, bias)
            pts_a = rng.uniform(-1, 1, size=(2, d))
            pts_b = rng.uniform(-1, 1, size=(3, d))
            w_a = rng.normal(size=2)
            w_b = rng.normal(size=3)
            A = FeatureCombination(spec, pts_a, w_a)
            B = FeatureCombination(spec, pts_b, w_b)
            a_vec = explicit_combination(pts_a, w_a, degree, bias)
            b_vec = explicit_combination(pts_b, w_b, degree, bias)
            stats = combo_pair_stats(spec, A, B)
            assert stats.sq_distance == pytest.approx(
                float((a_vec - b_vec) @ (a_vec - b_vec)), abs=1e-9
            )
            assert stats.inner == pytest.approx(float(a_vec @ b_vec), abs=1e-9)


# Linear and polynomial kernels with the constant term absent and present.
FINITE_SPECS = [
    linear_kernel(0.0),
    linear_kernel(0.7),
    polynomial_kernel(2, 0.0),
    polynomial_kernel(2, 1.0),
    polynomial_kernel(3, 0.5),
]


def assert_close(got, want, scale):
    """Agreement to 1e-9 relative to the size of the terms being combined."""
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale)


class TestPrimalPath:
    """A combination over more points than the feature dimension keeps the
    explicit vector w @ phi(S); the kernel trick is the reference for it."""

    @pytest.mark.parametrize("spec", FINITE_SPECS, ids=lambda s: s.label)
    @pytest.mark.parametrize("extra", [-3, 0, 1, 40])
    def test_matches_kernel_trick(self, spec, extra):
        rng = np.random.default_rng(31)
        d = 3
        n = poly_feature_dim(d, spec.degree) + extra
        S = rng.uniform(-1, 1, size=(n, d))
        w = rng.normal(size=n)
        X = rng.uniform(-1, 1, size=(7, d))
        v = rng.uniform(-1, 1, size=d)
        c = FeatureCombination(spec, S, w)
        assert (c.primal is not None) == (extra > 0)

        K = kernel_matrix(spec, X, S)
        inner = K @ w
        double_sum = float(w @ gram_matrix(spec, S) @ w)
        scale = float(np.abs(K).max() * np.abs(w).sum())
        assert_close(inner_with_combo(spec, X, c), inner, scale)
        assert_close(c.self_inner, double_sum, scale * np.abs(w).sum())
        assert_close(
            centered_sq_norms(spec, X, c),
            kernel_diag(spec, X) - 2.0 * inner + double_sum,
            scale * np.abs(w).sum(),
        )
        inner_v = float(kernel_matrix(spec, v, S)[0] @ w)
        assert_close(
            centered_inners(spec, X, v, c),
            kernel_matrix(spec, X, v)[:, 0] - inner - inner_v + double_sum,
            scale * np.abs(w).sum(),
        )
        assert_close(
            centered_gram(spec, X, c),
            kernel_matrix(spec, X, X) - inner[:, None] - inner[None, :] + double_sum,
            scale * np.abs(w).sum(),
        )

    @pytest.mark.parametrize("spec", FINITE_SPECS, ids=lambda s: s.label)
    def test_combo_inner_matches_kernel_trick(self, spec):
        rng = np.random.default_rng(32)
        d = 2
        dim = poly_feature_dim(d, spec.degree)
        big = [rng.uniform(-1, 1, size=(dim + 5, d)) for _ in range(2)]
        small = rng.uniform(-1, 1, size=(2, d))
        combos = [mean_combination(spec, pts) for pts in (*big, small)]
        assert [c.primal is not None for c in combos] == [True, True, False]
        for A in combos:
            for B in combos:
                want = float(A.weights @ kernel_matrix(spec, A.support, B.support) @ B.weights)
                assert_close(combo_inner(spec, A, B), want, 1.0 + abs(want))

    def test_blocks_cover_every_row(self):
        spec = polynomial_kernel(2, 1.0)
        rng = np.random.default_rng(33)
        S = rng.uniform(-1, 1, size=(2 * ROW_BLOCK + 7, 2))
        c = mean_combination(spec, S)
        assert c.primal is not None
        X = rng.uniform(-1, 1, size=(ROW_BLOCK + 3, 2))
        assert_close(inner_with_combo(spec, X, c), kernel_matrix(spec, X, S) @ c.weights, 10.0)
        assert_close(c.self_inner, float(c.weights @ gram_matrix(spec, S) @ c.weights), 10.0)

    def test_absent_for_gaussian_and_small_supports(self):
        rng = np.random.default_rng(34)
        S = rng.normal(size=(200, 2))
        assert mean_combination(gaussian_kernel(1.0), S).primal is None
        for spec in FINITE_SPECS:
            dim = poly_feature_dim(2, spec.degree)
            assert mean_combination(spec, S[:dim]).primal is None
            assert mean_combination(spec, S[: dim + 1]).primal is not None

    def test_primal_is_read_only(self):
        c = mean_combination(linear_kernel(), np.vstack([np.eye(3), -np.eye(3)]))
        with pytest.raises(ValueError):
            c.primal[0] = 1.0

    @pytest.mark.parametrize("spec", FINITE_SPECS, ids=lambda s: s.label)
    def test_batch_feature_map_reproduces_kernel_matrix(self, spec):
        rng = np.random.default_rng(35)
        X = rng.uniform(-1, 1, size=(6, 3))
        Y = rng.uniform(-1, 1, size=(4, 3))
        phi_x = poly_feature_map(X, spec.degree, spec.bias)
        phi_y = poly_feature_map(Y, spec.degree, spec.bias)
        assert phi_x.shape == (6, poly_feature_dim(3, spec.degree))
        assert_close(phi_x @ phi_y.T, kernel_matrix(spec, X, Y), 10.0)
        for row, x in zip(phi_x, X):
            np.testing.assert_array_equal(row, poly_feature_map(x, spec.degree, spec.bias))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        d=st.integers(1, 4),
        degree=st.integers(1, 3),
        bias=st.sampled_from([0.0, 0.5, 1.0]),
        extra=st.integers(-2, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_primal_matches_dual_property(self, d, degree, bias, extra, seed):
        spec = KernelSpec("linear", bias=bias) if degree == 1 else polynomial_kernel(degree, bias)
        n = max(1, poly_feature_dim(d, degree) + extra)
        rng = np.random.default_rng(seed)
        S = rng.uniform(-1, 1, size=(n, d))
        w = rng.normal(size=n)
        X = rng.uniform(-1, 1, size=(5, d))
        c = FeatureCombination(spec, S, w)
        K = kernel_matrix(spec, X, S)
        scale = float(np.abs(K).max() * np.abs(w).sum())
        assert_close(inner_with_combo(spec, X, c), K @ w, scale)
        double_sum = float(w @ gram_matrix(spec, S) @ w)
        assert_close(c.self_inner, double_sum, scale * np.abs(w).sum())


class TestBlockedComboInner:
    """(A, B) between two centres without a primal vector is summed over
    blocks of kernel rows of A's support against B, with no support x
    support matrix; the dense w_A @ K @ w_B is its reference."""

    @pytest.mark.parametrize(
        "spec, d, sizes",
        [
            (gaussian_kernel(0.5), 5, (2000, 2000)),
            (gaussian_kernel(2.0), 3, (1100, 700)),
            (polynomial_kernel(2, 1.0), 40, (600, 700)),  # dual: below 861 features
        ],
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_matches_dense_oracle_in_blocks(self, monkeypatch, spec, d, sizes):
        rng = np.random.default_rng(44)
        A, B = (FeatureCombination(spec, rng.uniform(-1, 1, size=(m, d)), rng.normal(size=m)) for m in sizes)
        assert A.primal is None and B.primal is None
        want = float(A.weights @ kernel_matrix(spec, A.support, B.support) @ B.weights)
        shapes = recording(monkeypatch, "kernel_matrix")
        got = combo_inner(spec, A, B)
        assert shapes
        assert all(min(shape) <= ROW_BLOCK + 1 for shape in shapes), shapes
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestCentredProbeSupportColumn:
    """A probe on a centre's own support reads the column (phi(s_j), c) its
    construction summed; any other rows, and a primal centre, evaluate it."""

    @pytest.mark.parametrize(
        "spec, d",
        [(gaussian_kernel(0.5), 5), (polynomial_kernel(2, 1.0), 40)],  # dual: 300 points, 861 features
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_own_support_read_without_kernel_evaluations(self, monkeypatch, spec, d):
        c = mean_combination(spec, np.random.default_rng(48).uniform(-1, 1, size=(300, d)))
        assert c.primal is None
        shapes = recording(monkeypatch, "kernel_matrix")
        got = CentredProbe(spec, c, c.support).centre_inner
        assert shapes == []
        # an equal copy of the support is other rows: evaluated, to the same bits
        np.testing.assert_array_equal(got, CentredProbe(spec, c, c.support.copy()).centre_inner)
        assert shapes
        np.testing.assert_array_equal(got, inner_with_combo(spec, c.support, c))

    @pytest.mark.parametrize(
        "spec, d",
        [(gaussian_kernel(0.5), 5), (polynomial_kernel(2, 1.0), 40)],  # dual: 300 points, 861 features
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_own_support_norms_read_the_construction_column(self, monkeypatch, spec, d):
        c = mean_combination(spec, np.random.default_rng(50).uniform(-1, 1, size=(300, d)))
        assert c.primal is None
        # the norms from a column evaluated afresh, clamped as centered_sq_norms clamps
        want = kernels.kernel_diag(spec, c.support) - 2.0 * inner_with_combo(spec, c.support, c) + c.self_inner
        want[want < 0.0] = 0.0
        shapes = recording(monkeypatch, "kernel_matrix")
        np.testing.assert_array_equal(centered_sq_norms(spec, c.support, c), want)
        assert shapes == []

    def test_primal_centre_evaluates_the_column(self, monkeypatch):
        spec = polynomial_kernel(2, 1.0)
        c = mean_combination(spec, np.random.default_rng(49).uniform(-1, 1, size=(300, 5)))
        assert c.primal is not None
        shapes = recording(monkeypatch, "_feature_rows")
        np.testing.assert_array_equal(
            CentredProbe(spec, c, c.support).centre_inner, inner_with_combo(spec, c.support, c)
        )
        assert sum(rows for rows, _ in shapes) >= c.size


class TestRowBlocks:
    """Blocked evaluation: every path splits rows with _row_blocks, and the
    dense kernel-trick expressions are the reference."""

    @pytest.mark.parametrize("row_block", [2, 3, 97, ROW_BLOCK])
    def test_blocks_cover_rows_without_a_lone_row(self, monkeypatch, row_block):
        monkeypatch.setattr(kernels, "ROW_BLOCK", row_block)
        for n in range(1, 3 * row_block + 3):
            blocks = list(_row_blocks(n))
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == n
            assert all(1 <= hi - lo <= row_block + 1 for lo, hi in blocks)
            if n > 1:
                assert all(hi - lo > 1 for lo, hi in blocks)

    @pytest.mark.parametrize(
        "spec, d, n_support",
        [
            (gaussian_kernel(0.5), 5, 1000),
            (gaussian_kernel(2.0), 3, 40),
            (polynomial_kernel(2, 1.0), 40, 600),  # dual: below the feature dimension
            (polynomial_kernel(2, 1.0), 5, 1000),  # primal
        ],
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_each_row_independent_of_its_block(self, monkeypatch, spec, d, n_support):
        rng = np.random.default_rng(36)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(n_support, d)))
        X = rng.uniform(-1, 1, size=(101, d))
        whole = inner_with_combo(spec, X, c)
        # a lone row, and rows at every offset of a short last group
        for i in (0, 1, 50, 99, 100):
            assert inner_with_combo(spec, X[i], c)[0] == whole[i]
        for stop in (2, 3, 5, 6, 7):
            np.testing.assert_array_equal(inner_with_combo(spec, X[:stop], c), whole[:stop])
        monkeypatch.setattr(kernels, "ROW_BLOCK", 2)
        np.testing.assert_array_equal(inner_with_combo(spec, X, c), whole)

    @pytest.mark.parametrize(
        "spec, d, n_support",
        [
            (gaussian_kernel(0.5), 5, 1025),  # two blocks of 512, then a lone row folded in
            (gaussian_kernel(0.25), 2, 7),
            (polynomial_kernel(2, 1.0), 40, 600),
            (polynomial_kernel(3, 0.5), 4, 30),
            (linear_kernel(1.0), 50, 20),
        ],
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_dual_self_inner_matches_gram(self, spec, d, n_support):
        rng = np.random.default_rng(37)
        S = rng.uniform(-1, 1, size=(n_support, d))
        w = rng.normal(size=n_support)
        c = FeatureCombination(spec, S, w)
        assert c.primal is None
        want = float(w @ gram_matrix(spec, S) @ w)
        assert c.self_inner == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_gaussian_pair_blocks_have_unit_kernel_diagonal(self):
        # as in centered_gram, the centred squared norm is 1 - 2 a + (c, c)
        # exactly, from kappa(x, x) = 1, whatever the block
        spec = gaussian_kernel(0.4)
        X = np.random.default_rng(39).uniform(-1, 1, size=(1025, 6))
        c = mean_combination(spec, X)
        a = inner_with_combo(spec, X, c)
        blocks = list(_centered_pair_blocks(spec, X, c))
        assert [(lo, hi) for lo, hi, _ in blocks] == [(512, 1025), (0, 512)]
        for lo, hi, C in blocks:
            assert C.shape == (hi - lo, X.shape[0] - lo)
            np.testing.assert_array_equal(np.diagonal(C), (1.0 - a[lo:hi]) - a[lo:hi] + c.self_inner)

    def test_gaussian_self_inner_has_unit_diagonal(self):
        rng = np.random.default_rng(38)
        for x in rng.uniform(-3, 3, size=(20, 6)):
            assert singleton_combination(gaussian_kernel(0.3), x).self_inner == 1.0


def block_rows(width):
    """Rows in a full block against `width` entries per row."""
    group = kernels._ROW_GROUP
    return min(ROW_BLOCK, max(group, kernels._BLOCK_ENTRIES // width // group * group))


def recording(monkeypatch, name):
    """Replace kernels.<name> with a wrapper that records each result's shape."""
    shapes = []
    original = getattr(kernels, name)

    def record(*args):
        out = original(*args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(kernels, name, record)
    return shapes


class TestRowBlocksByWidth:
    """Blocks of rows against a support hold about _BLOCK_ENTRIES entries:
    fewer rows against a wider support, never more than ROW_BLOCK."""

    # a lone last row folded into a full block of 64 (width 1000), and short
    # last groups padded to _ROW_GROUP rows
    N_ROWS = (1030, 1089)

    def test_one_argument_keeps_row_block(self):
        assert list(_row_blocks(1100)) == [(0, 512), (512, 1024), (1024, 1100)]
        assert list(_row_blocks(1100, 1)) == list(_row_blocks(1100))

    @pytest.mark.parametrize("width, rows", [(7, 512), (128, 512), (129, 508), (1000, 64), (3000, 20), (10**6, 4)])
    def test_blocks_are_whole_groups_within_the_entry_bound(self, width, rows):
        assert block_rows(width) == rows
        for n in (2, rows - 1, rows, rows + 1, 3 * rows + 1, 3 * rows + 5):
            blocks = list(_row_blocks(n, width))
            assert [lo for lo, _ in blocks] == [0] + [hi for _, hi in blocks[:-1]]
            assert blocks[-1][1] == n
            sizes = [hi - lo for lo, hi in blocks]
            # full blocks, then a last one that may hold a folded lone row
            assert all(size == rows for size in sizes[:-1])
            assert 1 < sizes[-1] <= rows + 1

    @pytest.mark.parametrize("n_support", [7, 1000, 3000])
    def test_kernel_rows_against_a_support(self, monkeypatch, n_support):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(40)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(n_support, 5)))
        shapes = recording(monkeypatch, "kernel_matrix")
        rows = block_rows(n_support)
        for n in self.N_ROWS:
            shapes.clear()
            inner_with_combo(spec, rng.uniform(-1, 1, size=(n, 5)), c)
            assert shapes[0] == (rows, n_support)
            assert {w for _, w in shapes} == {n_support}
            assert sum(r for r, _ in shapes) - n < kernels._ROW_GROUP
            for r, _ in shapes:
                assert r <= max(kernels._ROW_GROUP, kernels._BLOCK_ENTRIES // n_support) + kernels._ROW_GROUP
                assert r <= ROW_BLOCK

    @pytest.mark.parametrize("d, n_support", [(5, 1000), (50, 3000)])
    def test_feature_rows_against_a_primal_vector(self, monkeypatch, d, n_support):
        spec = polynomial_kernel(2, 1.0)
        rng = np.random.default_rng(41)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(n_support, d)))
        assert c.primal is not None
        width = c.primal.size
        shapes = recording(monkeypatch, "_feature_rows")
        for n in self.N_ROWS:
            shapes.clear()
            inner_with_combo(spec, rng.uniform(-1, 1, size=(n, d)), c)
            assert shapes[0] == (block_rows(width), width)
            for r, _ in shapes:
                assert r <= max(kernels._ROW_GROUP, kernels._BLOCK_ENTRIES // width) + kernels._ROW_GROUP
                assert r <= ROW_BLOCK

    @pytest.mark.parametrize("n_support", [7, 1000, 3000])
    def test_rows_of_a_combination_self_inner(self, monkeypatch, n_support):
        # blocks of support rows against the whole support, as inner_with_combo
        # evaluates them: no support x support matrix
        S = np.random.default_rng(42).uniform(-1, 1, size=(n_support, 5))
        shapes = recording(monkeypatch, "kernel_matrix")
        mean_combination(gaussian_kernel(0.5), S)
        assert shapes[0] == (min(block_rows(n_support), n_support + -n_support % kernels._ROW_GROUP), n_support)
        assert {cols for _, cols in shapes} == {n_support}
        assert 0 <= sum(rows for rows, _ in shapes) - n_support < kernels._ROW_GROUP
        for rows, _ in shapes:
            assert rows <= max(kernels._ROW_GROUP, kernels._BLOCK_ENTRIES // n_support) + kernels._ROW_GROUP
            assert rows <= ROW_BLOCK

    @pytest.mark.parametrize(
        "spec, d, n_support",
        [
            (gaussian_kernel(0.5), 5, 7),
            (gaussian_kernel(0.5), 5, 1000),
            (gaussian_kernel(0.5), 5, 3000),
            (polynomial_kernel(2, 1.0), 50, 1000),  # dual: below the feature dimension
            (polynomial_kernel(2, 1.0), 5, 1000),  # primal, 21 features
            (polynomial_kernel(2, 1.0), 50, 3000),  # primal, 1326 features
        ],
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_same_bits_as_row_block_rows(self, monkeypatch, spec, d, n_support):
        rng = np.random.default_rng(43)
        S = rng.uniform(-1, 1, size=(n_support, d))
        w = rng.normal(size=n_support)
        X = rng.uniform(-1, 1, size=(1089, d))
        c = FeatureCombination(spec, S, w)
        got = inner_with_combo(spec, X, c)
        # every block ROW_BLOCK rows, as before the entry bound
        monkeypatch.setattr(kernels, "_BLOCK_ENTRIES", ROW_BLOCK * 10**7)
        c_old = FeatureCombination(spec, S, w)
        np.testing.assert_array_equal(got, inner_with_combo(spec, X, c_old))
        assert c.self_inner == c_old.self_inner
        if c.primal is None:
            np.testing.assert_array_equal(c._support_inner, c_old._support_inner)
        else:
            np.testing.assert_array_equal(c.primal, c_old.primal)


class TestSplitRows:
    """At _SPLIT_ENTRIES entries or more, inner_with_combo against a centre
    without a primal vector fills the second half of its row blocks on a
    worker thread.  The floor is lowered here so that small inputs split;
    block-by-block serial evaluation is the reference."""

    @pytest.fixture(autouse=True)
    def split_small_inputs(self, monkeypatch):
        monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

    @staticmethod
    def threads_of(monkeypatch, name="kernel_matrix"):
        """Replace kernels.<name> with a wrapper that records the thread of
        every call."""
        idents = []
        original = getattr(kernels, name)

        def record(*args):
            idents.append(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(kernels, name, record)
        return idents

    @pytest.mark.parametrize(
        "spec, d, n_support",
        [
            (gaussian_kernel(0.5), 5, 1000),
            (polynomial_kernel(2, 1.0), 40, 300),  # dual: below 861 features
        ],
        ids=lambda v: getattr(v, "label", str(v)),
    )
    def test_same_bits_as_serial_blocks(self, monkeypatch, spec, d, n_support):
        rng = np.random.default_rng(50)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(n_support, d)))
        X = rng.uniform(-1, 1, size=(1089, d))
        assert c.primal is None and len(list(_row_blocks(X.shape[0], c.size))) >= 2
        with monkeypatch.context() as serial:
            serial.setattr(kernels, "_SPLIT_ENTRIES", X.shape[0] * c.size + 1)
            want = inner_with_combo(spec, X, c)
        for _ in range(20):
            np.testing.assert_array_equal(inner_with_combo(spec, X, c), want)

    def test_two_threads_above_the_floor(self, monkeypatch):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(51)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        idents = self.threads_of(monkeypatch)
        inner_with_combo(spec, rng.uniform(-1, 1, size=(1089, 5)), c)
        assert len(set(idents)) == 2

    def test_one_thread_below_the_floor_or_on_one_core(self, monkeypatch):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(52)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        X = rng.uniform(-1, 1, size=(1089, 5))
        idents = self.threads_of(monkeypatch)
        monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", X.shape[0] * c.size + 1)
        inner_with_combo(spec, X, c)
        assert set(idents) == {threading.get_ident()}
        idents.clear()
        monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        inner_with_combo(spec, X, c)
        assert set(idents) == {threading.get_ident()}

    def test_primal_centre_stays_on_one_thread(self, monkeypatch):
        spec = polynomial_kernel(2, 1.0)
        rng = np.random.default_rng(54)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        assert c.primal is not None
        idents = self.threads_of(monkeypatch, "_feature_rows")
        inner_with_combo(spec, rng.uniform(-1, 1, size=(1089, 5)), c)
        assert len(idents) >= 2 and set(idents) == {threading.get_ident()}

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        class Failed(RuntimeError):
            pass

        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(53)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        X = rng.uniform(-1, 1, size=(1089, 5))
        X[:, 0] = np.arange(X.shape[0])  # each block's first row names it
        blocks = list(_row_blocks(X.shape[0], c.size))
        second_half = blocks[len(blocks) // 2][0]
        original = kernels.kernel_matrix

        def fail_in_second_half(spec, rows, support):
            if rows[0, 0] >= second_half:
                raise Failed
            return original(spec, rows, support)

        monkeypatch.setattr(kernels, "kernel_matrix", fail_in_second_half)
        with pytest.raises(Failed):
            inner_with_combo(spec, X, c)

    def test_worker_runs_in_the_callers_context(self, monkeypatch):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(56)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        marker = contextvars.ContextVar("marker", default="unset")
        seen = []
        original = kernels.kernel_matrix

        def record(*args):
            seen.append((threading.get_ident(), marker.get()))
            return original(*args)

        monkeypatch.setattr(kernels, "kernel_matrix", record)
        marker.set("caller")
        inner_with_combo(spec, rng.uniform(-1, 1, size=(1089, 5)), c)
        assert len({ident for ident, _ in seen}) == 2
        assert {value for _, value in seen} == {"caller"}

    def test_worker_keeps_the_callers_errstate(self):
        # the overflowing rows are the worker's: numpy's error state is per
        # thread, and a warning there would reach the caller as an error
        spec = polynomial_kernel(2, 1.0)
        rng = np.random.default_rng(55)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(300, 40)))
        assert c.primal is None
        X = rng.uniform(-1, 1, size=(90_000, 40))
        X[-5:] *= 1e200
        with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = inner_with_combo(spec, X, c)
        assert np.isinf(got[-5:]).all() and np.isfinite(got[:-5]).all()


class TestBeside:
    """kernels._beside, the one way a library call puts work on a second
    thread: inner_with_combo's row split and the refits' prefetched draws."""

    def test_body_error_wins_and_the_worker_is_joined(self, monkeypatch):
        class Body(RuntimeError):
            pass

        monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)
        done = []

        def slow_failure():
            time.sleep(0.1)
            done.append(threading.get_ident())
            raise ValueError("worker")

        before = threading.active_count()
        with pytest.raises(Body), kernels._beside(slow_failure):
            raise Body
        assert threading.active_count() == before
        assert len(done) == 1 and done[0] != threading.get_ident()

    def test_one_core_runs_the_work_inline_before_the_body(self, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cores", lambda: 1)
        order = []
        with kernels._beside(lambda: order.append(("work", threading.get_ident()))):
            order.append(("body", threading.get_ident()))
        assert order == [("work", threading.get_ident()), ("body", threading.get_ident())]

    def test_worker_error_is_raised_after_the_join(self, monkeypatch):
        monkeypatch.setattr(kernels, "_usable_cores", lambda: 2)

        def fail():
            time.sleep(0.1)
            raise KeyError("worker")

        before = threading.active_count()
        with pytest.raises(KeyError, match="worker"), kernels._beside(fail):
            pass
        assert threading.active_count() == before


def exponents(c, X):
    """e = (x - m) . (x + m) / 2 sigma of every row x against the combination
    c, whose factorised rows are taken only within _EXP_RANGE."""
    m = c._factor[0]
    return np.einsum("ij,ij->i", X - m, X + m) / (2.0 * c.spec.sigma)


class TestGaussianRowFactor:
    """Rows against a Gaussian combination c are exp(u . s_j - e - r_j)
    (kernels module docstring): kernel_matrix on c's factor carrying a
    block's rows [u, -e, -1] from _factor_rows within _EXP_RANGE, and the
    squared-distance rows of kernel_matrix(spec, X, c.support) beyond it."""

    @staticmethod
    def factor_rows(c, X):
        """Kernel rows of X against c: from X's own rows [u, -e, -1]
        (_factor_rows) within the guard, else from c.support."""
        m, table = c._factor.m, c._factor.table
        rows, within = kernels._factor_rows(c.spec, m, X)
        return kernel_matrix(c.spec, X, kernels._Factor(m, table, rows) if within[0] else c.support)

    @classmethod
    def factor_matrix(cls, X, c):
        return np.vstack([cls.factor_rows(c, X[lo:hi]) for lo, hi in _row_blocks(X.shape[0], c.size)])

    @classmethod
    def block_by_block(cls, spec, X, c):
        """inner_with_combo's blocks, each padded to whole groups and
        evaluated on its own rows: the reference for the rows it forms once
        per chunk."""
        out = np.empty(X.shape[0])
        for lo, hi in _row_blocks(X.shape[0], c.size):
            block = np.pad(X[lo:hi], ((0, -(hi - lo) % kernels._ROW_GROUP), (0, 0)), mode="edge")
            out[lo:hi] = (cls.factor_rows(c, block) @ c.weights)[: hi - lo]
        return out

    @pytest.mark.parametrize("offset", [0.0, 10.0])
    @pytest.mark.parametrize("d", [3, 32])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 4.0])
    def test_matches_kernel_matrix(self, sigma, d, offset):
        # data far from the origin leave u . s_j to cancel against e, or fall
        # beyond the guard
        rng = np.random.default_rng(60)
        S = offset + rng.uniform(-1, 1, size=(300, d))
        w = rng.uniform(0.5, 1.0, size=300)
        X = offset + rng.uniform(-1.5, 1.5, size=(201, d))
        c = FeatureCombination(gaussian_kernel(sigma), S, w)
        assert np.array_equal(c.support, S) and not c.support.flags.writeable
        want = kernel_matrix(c.spec, X, S)
        np.testing.assert_allclose(self.factor_matrix(X, c), want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(inner_with_combo(c.spec, X, c), want @ w, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(c._support_inner, kernel_matrix(c.spec, S, S) @ w, rtol=1e-12, atol=0.0)
        with pytest.raises(ValueError, match="spec mismatch"):
            inner_with_combo(gaussian_kernel(2 * sigma), X, c)

    def test_rows_beyond_the_guard_keep_kernel_matrix_bits(self):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(61)
        S = rng.uniform(-1, 1, size=(1000, 5))
        c = mean_combination(spec, S)
        X = rng.uniform(-1, 1, size=(64, 5))  # one block of whole groups
        assert np.abs(exponents(c, X)).max() <= kernels._EXP_RANGE
        X[-1] *= 30.0  # one far row moves its whole block
        assert np.abs(exponents(c, X)).max() > kernels._EXP_RANGE
        np.testing.assert_array_equal(self.factor_matrix(X, c), kernel_matrix(spec, X, S))
        np.testing.assert_array_equal(inner_with_combo(spec, X, c), kernel_matrix(spec, X, S) @ c.weights)

    @pytest.mark.parametrize("sigma", [1e-3, 1e-300])
    def test_wide_support_keeps_kernel_matrix_bits(self, sigma):
        spec = gaussian_kernel(sigma)
        rng = np.random.default_rng(62)
        S = rng.uniform(-1, 1, size=(40, 3))
        c = FeatureCombination(spec, S, rng.normal(size=40))
        assert c._factor is None
        X = np.vstack([S[:20], rng.uniform(-1, 1, size=(44, 3))])
        np.testing.assert_array_equal(inner_with_combo(spec, X, c), kernel_matrix(spec, X, S) @ c.weights)
        assert c.self_inner == float(c.weights @ kernel_matrix(spec, S, S) @ c.weights)

    @pytest.mark.parametrize("d", [3, 32])
    def test_split_matches_serial_bits(self, monkeypatch, d):
        # factorised blocks first, then blocks beyond the guard, on both threads
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(63)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, d)))
        X = rng.uniform(-1, 1, size=(1089, d))
        X[700:] *= 40.0
        with monkeypatch.context() as serial:
            serial.setattr(kernels, "_SPLIT_ENTRIES", X.shape[0] * c.size + 1)
            want = inner_with_combo(spec, X, c)
        monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        idents = TestSplitRows.threads_of(monkeypatch)
        np.testing.assert_array_equal(inner_with_combo(spec, X, c), want)
        assert len(set(idents)) == 2
        for _ in range(10):
            np.testing.assert_array_equal(inner_with_combo(spec, X, c), want)

    @pytest.mark.parametrize("d", [3, 5, 32, 50])
    def test_chunk_rows_equal_block_rows(self, d):
        # each block's rows as kernel_matrix formed them alone, from a
        # separate u = x - m
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(65)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, d)))
        m = c._factor.m
        X = rng.uniform(-1.5, 1.5, size=(2049, d))
        X[700] *= 40.0  # one block beyond the guard
        blocks = list(_row_blocks(X.shape[0], c.size))
        chunk, within = kernels._factor_rows(spec, m, X, [lo for lo, _ in blocks])
        for k, (lo, hi) in enumerate(blocks):
            u = X[lo:hi] - m
            e = np.einsum("ij,ij->i", u, X[lo:hi] + m) / (2.0 * spec.sigma)
            want = np.column_stack([u / spec.sigma, -e, -np.ones(hi - lo)])
            np.testing.assert_array_equal(chunk[lo:hi], want)
            block_rows, block_within = kernels._factor_rows(spec, m, X[lo:hi])
            np.testing.assert_array_equal(block_rows, want)
            assert within[k] == block_within[0] == (np.abs(e).max() <= kernels._EXP_RANGE) == (not lo <= 700 < hi)

    @pytest.mark.parametrize("split", [False, True])
    def test_chunks_give_block_by_block_bits(self, monkeypatch, split):
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(66)
        c = FeatureCombination(spec, rng.uniform(-1, 1, size=(1000, 5)), rng.uniform(0.5, 1.0, size=1000))
        monkeypatch.setattr(kernels, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(kernels, "_usable_cores", lambda: 2 if split else 1)
        idents = TestSplitRows.threads_of(monkeypatch)
        for n in (1, 2, 63, 64, 65, 511, 513, 2047, 2049, 1089):
            X = rng.uniform(-1, 1, size=(n, 5))
            got = inner_with_combo(spec, X, c)
            np.testing.assert_array_equal(got, self.block_by_block(spec, X, c))
        assert bool(set(idents) - {threading.get_ident()}) == split

    def test_only_blocks_beyond_the_guard_take_squared_distances(self, monkeypatch):
        # six blocks of 64 rows in one chunk: block 1 has an |e| beyond the
        # guard, block 3 a NaN row
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(67)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        X = rng.uniform(-1, 1, size=(384, 5))
        X[100] *= 30.0
        X[200, 2] = np.nan
        blocks = list(_row_blocks(X.shape[0], c.size))
        assert len(blocks) == 6 and blocks[1] == (64, 128) and blocks[3] == (192, 256)
        e = exponents(c, X)
        assert np.abs(e[64:128]).max() > kernels._EXP_RANGE and np.isnan(e[200])
        factorised = []
        original = kernels.kernel_matrix

        def recording(spec, X, Y):
            factorised.append(isinstance(Y, kernels._Factor) and Y.rows is not None)
            return original(spec, X, Y)

        monkeypatch.setattr(kernels, "kernel_matrix", recording)
        got = inner_with_combo(spec, X, c)
        assert factorised == [True, False, True, False, True, True]
        monkeypatch.setattr(kernels, "kernel_matrix", original)
        np.testing.assert_array_equal(got, self.block_by_block(spec, X, c))
        for lo, hi in (blocks[1], blocks[3]):
            np.testing.assert_array_equal(got[lo:hi], kernel_matrix(spec, X[lo:hi], c.support) @ c.weights)
        assert np.isnan(got[200]) and np.isfinite(np.delete(got, 200)).all()

    def test_scratch_memory_does_not_grow_with_the_rows(self):
        # rows formed for all 1e5 probes at once would take 5.6 MB
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(68)
        c = mean_combination(spec, rng.uniform(-1, 1, size=(1000, 5)))
        X = rng.uniform(-1, 1, size=(100_000, 5))
        out, peak = traced_peak(lambda: inner_with_combo(spec, X, c))
        assert peak - out.nbytes < 2e6

    def test_singleton_is_exact(self):
        rng = np.random.default_rng(64)
        for x in rng.uniform(-3, 3, size=(20, 6)):
            c = singleton_combination(gaussian_kernel(0.3), x)
            assert c._factor is not None
            assert self.factor_matrix(x[None, :], c)[0, 0] == 1.0
            assert inner_with_combo(c.spec, np.vstack([x, x + 1.0]), c)[0] == 1.0


PRIMAL_PAIR_CASES = [
    (linear_kernel(0.0), 5, 700),
    (linear_kernel(1.0), 20, 900),
    (polynomial_kernel(2, 1.0), 5, 1100),
    (polynomial_kernel(3, 0.5), 3, 600),
]


class TestPrimalPairBlocks:
    """Pair blocks of a primal combination of at most _CENTRED_ROWS_DIM
    features are products of its centred feature rows phi(x) - v, with no
    kernel evaluation; the explicit feature map is their oracle."""

    @staticmethod
    def oracle(spec, X, c):
        phi = poly_feature_map(X, spec.degree, spec.bias)
        centred = phi - c.weights @ poly_feature_map(c.support, spec.degree, spec.bias)
        return centred, np.abs(centred).max() ** 2

    @pytest.mark.parametrize("spec, d, n", PRIMAL_PAIR_CASES, ids=lambda v: getattr(v, "label", str(v)))
    def test_matches_explicit_feature_map(self, monkeypatch, spec, d, n):
        rng = np.random.default_rng(80 + d)
        c = FeatureCombination(spec, rng.uniform(-1, 1, size=(n, d)), rng.uniform(0.5, 1.5, size=n) / n)
        assert c.primal is not None and c.primal.size <= kernels._CENTRED_ROWS_DIM

        def no_kernel_rows(*args):
            raise AssertionError("a primal pair block evaluated kernel rows")

        monkeypatch.setattr(kernels, "kernel_matrix", no_kernel_rows)
        centred, scale = self.oracle(spec, c.support, c)
        blocks = []
        for lo, hi, C in _centered_pair_blocks(spec, c.support, c):
            np.testing.assert_allclose(C, centred[lo:hi] @ centred[lo:].T, rtol=1e-12, atol=1e-13 * scale)
            blocks.append((lo, hi))
        assert blocks[-1][0] == 0 and blocks[0][1] == n and len(blocks) >= 2

    @pytest.mark.parametrize("spec, d, n", PRIMAL_PAIR_CASES, ids=lambda v: getattr(v, "label", str(v)))
    def test_rows_off_the_support_keep_the_bits(self, spec, d, n):
        c = mean_combination(spec, np.random.default_rng(81).uniform(-1, 1, size=(n, d)))
        for (lo, hi, C), (_, _, want) in zip(
            _centered_pair_blocks(spec, c.support.copy(), c), _centered_pair_blocks(spec, c.support, c)
        ):
            np.testing.assert_array_equal(C, want)

    @pytest.mark.parametrize(
        "spec", [linear_kernel(0.0), linear_kernel(1.0), polynomial_kernel(2, 0.5)], ids=lambda s: s.label
    )
    def test_copies_of_one_point_centre_to_zero(self, spec):
        # v rounds off phi(x0) by up to n ulp: those entries are zeroed
        for n in (7, 25, 1000):
            X = np.tile([0.3, -0.7], (n, 1))
            c = mean_combination(spec, X)
            assert c.primal is not None
            for _, _, C in _centered_pair_blocks(spec, c.support, c):
                assert not C.any()

    @pytest.mark.parametrize(
        "spec, d", [(linear_kernel(0.0), 1), (linear_kernel(1.0), 95), (polynomial_kernel(2, 1.0), 12)]
    )
    def test_rows_and_one_block_within_a_row_block(self, monkeypatch, spec, d):
        # the centred rows U (n x p) are formed once, at the front of one
        # allocation fitted to U and the block at lo 0, within ROW_BLOCK x n
        # entries; every block has the floor's rows, 2 (p + 1) + 64 rounded
        # down to whole groups, is written into the rest of that allocation,
        # and nothing else of its size is held
        n = 1500
        c = mean_combination(spec, np.random.default_rng(82).uniform(-1, 1, size=(n, d)))
        p = c.primal.size
        assert p <= kernels._CENTRED_ROWS_DIM and (d == 1 or p > kernels._CENTRED_ROWS_DIM - 8)
        rows = []
        original = kernels._centred_feature_rows

        def record(*args):
            U = original(*args)
            rows.append(U)
            return U

        monkeypatch.setattr(kernels, "_centred_feature_rows", record)

        def blocks():
            shapes = []
            for lo, hi, C in _centered_pair_blocks(spec, c.support, c):
                (U,) = rows
                assert C.base is U.base and not np.shares_memory(C, U)
                shapes.append((lo, C.shape))
                del C  # as every caller does, before the next block
            return shapes

        shapes, peak = traced_peak(blocks)
        (U,) = rows
        size = U.base.size
        floor = (2 * (p + 1) + 64) // kernels._ROW_GROUP * kernels._ROW_GROUP
        assert U.shape == (n, p) and size == n * (p + floor) <= ROW_BLOCK * n
        assert all(n * p + m * cols <= size for _, (m, cols) in shapes)
        assert [cols for _, (_, cols) in shapes] == [n - lo for lo, _ in shapes]
        # from the last: the rows past the whole blocks, then floor rows each
        assert [m for _, (m, _) in shapes[1:]] == [floor] * (len(shapes) - 1)
        assert shapes[0][1][0] == n - floor * (len(shapes) - 1) <= floor + 1
        # the one allocation alive, and scratch of a few row blocks beside it
        assert peak < (size + 4 * ROW_BLOCK * p) * 8 + 2**16

    def test_blocks_have_the_floor_at_every_n(self):
        # the same rows at n 1025 as at n 20000, where _PAIR_ENTRIES alone
        # would give kernel-row blocks 512 and 52 rows
        spec = linear_kernel(0.0)
        for n in (300, 1025, 2000, 20000):
            c = FeatureCombination(spec, np.zeros((n, 20)), np.full(n, 1.0 / n))
            blocks = [(lo, hi) for lo, hi, _, _ in kernels._centred_row_blocks(spec, c.support, c)]
            assert blocks == list(_row_blocks(n, most=108))[::-1]

    def test_dimension_beyond_the_bound_keeps_kernel_rows(self, monkeypatch):
        spec = polynomial_kernel(2, 1.0)
        c = mean_combination(spec, np.random.default_rng(83).uniform(-1, 1, size=(600, 14)))
        assert c.primal.size > kernels._CENTRED_ROWS_DIM
        want = list(dense_pair_blocks(spec, c.support, c))
        for (lo, hi, C), (wlo, whi, W) in zip(_centered_pair_blocks(spec, c.support, c), want):
            assert (lo, hi) == (wlo, whi)
            np.testing.assert_array_equal(C, W)


def dense_pair_blocks(spec, X, c):
    """(lo, hi, C) of _centered_pair_blocks from kernel_matrix on the rows as
    plain arrays: the squared-distance entries, centred in the same order."""
    a = inner_with_combo(spec, X, c)
    for lo, hi in reversed(list(_row_blocks(X.shape[0]))):
        C = kernel_matrix(spec, X[lo:hi], X[lo:])
        C -= a[lo:hi, None]
        C -= a[None, lo:]
        C += c.self_inner
        yield lo, hi, C


class TestGaussianPairFactor:
    """Pair blocks on a Gaussian combination's own support are read from its
    factor (kernels module docstring) with kappa(x_i, x_i) = 1 set exactly;
    other rows, and factors beyond _EXP_RANGE, keep the squared distances."""

    @pytest.mark.parametrize("offset", [0.0, 10.0])
    @pytest.mark.parametrize("d", [3, 32])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 4.0])
    def test_matches_centered_gram(self, monkeypatch, sigma, d, offset):
        monkeypatch.setattr(kernels, "ROW_BLOCK", 64)
        rng = np.random.default_rng(70)
        S = offset + rng.uniform(-1, 1, size=(201, d))
        c = FeatureCombination(gaussian_kernel(sigma), S, rng.uniform(0.5, 1.0, size=201))
        want = centered_gram(c.spec, S, c)
        a = c._support_inner
        for lo, hi, C in _centered_pair_blocks(c.spec, c.support, c):
            np.testing.assert_allclose(C, want[lo:hi, lo:], rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(np.diagonal(C), (1.0 - a[lo:hi]) - a[lo:hi] + c.self_inner)

    def test_block_beyond_the_guard_keeps_its_bits(self, monkeypatch):
        monkeypatch.setattr(kernels, "ROW_BLOCK", 64)
        spec = gaussian_kernel(0.5)
        rng = np.random.default_rng(71)
        S = rng.uniform(-0.1, 0.1, size=(300, 5))
        S[:, 0] += 100.0
        S[-5:, 0] += 2.0  # |e| about 400 in the last block only
        c = mean_combination(spec, S)
        beyond = [np.abs(exponents(c, S[lo:hi])).max() > kernels._EXP_RANGE for lo, hi in _row_blocks(300)]
        assert c._factor is not None and beyond == [False] * 4 + [True]
        (lo, _, C), (_, _, want) = next(zip(_centered_pair_blocks(spec, c.support, c), dense_pair_blocks(spec, c.support, c)))
        assert lo == 256
        np.testing.assert_array_equal(C, want)

    @pytest.mark.parametrize("rows", ["wide support", "not the support"])
    def test_squared_distance_blocks_keep_their_bits(self, rows):
        rng = np.random.default_rng(72)
        S = rng.uniform(-1, 1, size=(600, 4))
        c = mean_combination(gaussian_kernel(1e-3 if rows == "wide support" else 0.5), S)
        assert (c._factor is None) == (rows == "wide support")
        X = c.support if rows == "wide support" else c.support.copy()
        for (lo, hi, C), (_, _, want) in zip(_centered_pair_blocks(c.spec, X, c), dense_pair_blocks(c.spec, X, c)):
            np.testing.assert_array_equal(C, want)

    def test_kernel_matrix_counts_the_upper_block_triangle(self, monkeypatch):
        spec = gaussian_kernel(0.5)
        n = 1025
        c = mean_combination(spec, np.random.default_rng(73).uniform(-1, 1, size=(n, 6)))
        evals = []
        original = kernels.kernel_matrix

        def counting(spec, X, Y):
            assert isinstance(Y, kernels._Factor)
            K = original(spec, X, Y)
            evals.append(K.size)
            return K

        monkeypatch.setattr(kernels, "kernel_matrix", counting)
        blocks = [(lo, hi) for lo, hi, _ in _centered_pair_blocks(spec, c.support, c)]
        assert blocks == [(512, 1025), (0, 512)]
        assert sum(evals) == sum((hi - lo) * (n - lo) for lo, hi in blocks)
