"""Shared test helpers: a one-pair kernel and explicit-feature-map oracles
for the kernel trick, and a peak-memory probe."""

import math
import tracemalloc

import numpy as np

from kernelshot import poly_feature_map


def eval_kernel(spec, x, y):
    """kappa(x, y) of one pair, straight from the kernel's formula: the oracle
    side of kernel_matrix checks."""
    x, y = np.asarray(x, dtype=float).ravel(), np.asarray(y, dtype=float).ravel()
    if spec.kind == "gaussian":
        return math.exp(-float((x - y) @ (x - y)) / (2.0 * spec.sigma))
    return (spec.bias**2 + float(x @ y)) ** spec.degree


def explicit_poly_point(x, degree, bias):
    """phi(x) materialised explicitly; the oracle side of kernel-trick checks."""
    return poly_feature_map(np.asarray(x, dtype=float), degree, bias)


def explicit_combination(points, weights, degree, bias):
    """sum_i w_i phi(x_i) materialised explicitly."""
    feats = np.stack([explicit_poly_point(p, degree, bias) for p in np.asarray(points, dtype=float)])
    return np.asarray(weights, dtype=float) @ feats


def random_kernel_case(rng, max_d=4, max_degree=3):
    """One random polynomial-kernel scenario: dimensions, kernel, and points."""
    d = int(rng.integers(1, max_d + 1))
    degree = int(rng.integers(1, max_degree + 1))
    bias = float(rng.choice([0.0, 0.5, 1.0]))
    return d, degree, bias


def traced_peak(fn):
    """fn() and the peak bytes allocated while it ran, as tracemalloc sees
    them (numpy reports its array buffers to tracemalloc)."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
