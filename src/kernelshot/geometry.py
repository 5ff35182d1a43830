"""Feature-space geometry: Monte-Carlo ball/cap pre-image volume ratios,
pairwise orthogonality statistics, and the closed forms known for specific
kernels.

The Monte-Carlo estimators count uniform probe points falling into the
pre-image of a feature-space ball around an implicit centre c (and, for
caps, additionally on the far side of a hyperplane).  A CentredProbe keeps
each probe's kernel column (phi(y), c) for every sweep over that probe, and
only the elementwise work is chunked.  Counts are exact integer reductions
over the chunks, so results are independent of the chunk size and
deterministic given the probe sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import NumericError, _count_arg, _real_arg
from .ingest import _write_csv
from .kernels import (
    FeatureCombination,
    KernelSpec,
    _centred_row_blocks,
    _clamp_sq,
    _has_centred_rows,
    _mean_pair_blocks,
    _probe_pass,
    as_points,
    mean_combination,
)

__all__ = [
    "VolumeRatioEstimate",
    "OrthogonalityStats",
    "MeanNormLimits",
    "wilson_interval",
    "enclosing_radius",
    "ball_ratio_sweep",
    "cap_ratio_sweep",
    "orthogonality_stats",
    "linear_ball_ratio",
    "quadratic_ball_ratio_bound",
    "gaussian_preimage_radius_sq",
    "gaussian_ball_preimage_volume",
    "gaussian_mean_norm_limits",
    "transition_width",
    "write_ratio_sweep_csv",
    "RATIO_SWEEP_COLUMNS",
]

DEFAULT_CHUNK_SIZE = 4096

RATIO_SWEEP_COLUMNS = ("eps_or_delta", "ratio", "ci_low", "ci_high", "hits", "trials")


def wilson_interval(hits: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion."""
    trials = _count_arg("trials", trials, 1)
    hits = _count_arg("hits", hits, 0, trials)
    confidence = _real_arg("confidence", confidence, above=0, below=1)
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    n = float(trials)
    phat = hits / n
    denom = 1.0 + z * z / n
    centre = phat + z * z / (2.0 * n)
    rad = z * math.sqrt(phat * (1.0 - phat) / n + z * z / (4.0 * n * n))
    low = max(0.0, (centre - rad) / denom)
    high = min(1.0, (centre + rad) / denom)
    return low, high


@dataclass(frozen=True)
class VolumeRatioEstimate:
    """Monte-Carlo hit count, ratio, and 95% Wilson interval."""

    hits: int
    trials: int
    ratio: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, hits: int, trials: int) -> "VolumeRatioEstimate":
        low, high = wilson_interval(hits, trials)
        return cls(hits=hits, trials=trials, ratio=hits / trials, ci_low=low, ci_high=high)


def _estimates(hits: np.ndarray, trials: int) -> list[VolumeRatioEstimate]:
    return [VolumeRatioEstimate.from_counts(int(h), trials) for h in hits]


def enclosing_radius(
    spec: KernelSpec,
    c: FeatureCombination,
    support,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> float:
    """Largest feature-space distance from c over a finite sample.

    This underestimates the true support radius; report consumers should
    treat it as sample-estimated.
    """
    radius = 0.0
    for sq, _ in _probe_pass(spec, c, support, chunk_size):
        radius = max(radius, float(np.sqrt(sq).max()))
    return radius


def ball_ratio_sweep(
    spec: KernelSpec,
    c: FeatureCombination,
    probe,
    r: float,
    eps_values,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[VolumeRatioEstimate]:
    """Fraction of probe points with ||phi(y) - c|| <= eps * r for each eps, in
    one pass over the probe: with the probe uniform on the support region, the
    volume ratio of the eps-shrunk feature ball pre-image to the full one."""
    r = _real_arg("r", r, above=0)
    thresholds = _real_arg("eps_values", eps_values, at_least=0, at_most=1, array=True) * r
    hits = np.zeros(thresholds.size, dtype=np.int64)
    for sq, _ in _probe_pass(spec, c, probe, chunk_size):
        # number of distances d <= threshold; NaN sorts last and never counts
        hits += np.searchsorted(np.sort(np.sqrt(sq)), thresholds, side="right")
    return _estimates(hits, as_points(probe).shape[0])


def cap_ratio_sweep(
    spec: KernelSpec,
    c: FeatureCombination,
    v,
    probe,
    r: float,
    delta_values,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[VolumeRatioEstimate]:
    """Fraction of probe points inside the ball of radius r around c with
    (phi(y) - c, phi(v) - c) >= delta for each delta, in one pass over the probe."""
    r = _real_arg("r", r, above=0)
    neg_deltas = -_real_arg("delta_values", delta_values, array=True)
    hits = np.zeros(neg_deltas.size, dtype=np.int64)
    for sq, inner in _probe_pass(spec, c, probe, chunk_size, v):
        inside = np.sqrt(sq) <= r
        # inner >= delta exactly when -inner <= -delta; NaN sorts last and never counts
        hits += np.searchsorted(np.sort(-inner[inside]), neg_deltas, side="right")
    return _estimates(hits, as_points(probe).shape[0])


@dataclass(frozen=True)
class OrthogonalityStats:
    """Statistics of pairwise centered cosines and centered norms.

    Cosines are (phi(x_i) - mu, phi(x_j) - mu) / (||.|| ||.||) over unordered
    pairs i < j, with mu the empirical feature mean of the sample.  Pairs
    involving a zero centered norm are excluded and counted.
    """

    mean_abs_cos: float
    std_cos: float
    mean_norm: float
    std_norm: float
    n_pairs: int
    excluded_pairs: int


def orthogonality_stats(spec: KernelSpec, sample) -> OrthogonalityStats:
    """OrthogonalityStats of the sample's centred feature vectors, with no
    n x n matrix: blocks of pairs i < j, from the last, one alive at a time.

    A mean with centred feature rows u_i (kernels._has_centred_rows: a linear
    or polynomial kernel of p <= _CENTRED_ROWS_DIM features, p < n) scales
    them to unit rows e_i = u_i / ||u_i|| (0 for a zero norm), so the cosine
    sums are closed forms, sum_{i<j} cos = (|sum_i e_i|^2 - sum_i |e_i|^2) / 2
    and sum_{i<j} cos^2 = (||E^T E||_F^2 - sum_i |e_i|^4) / 2, and only
    sum |cos| reads the n^2 / 2 entries E[lo:hi] E[lo:]^T.  Any other kernel
    evaluates n^2 / 2 kernel entries for the column (phi(x_i), mu)
    and n^2 / 2 for the centred pair blocks (kernels._mean_pair_blocks).
    """
    pts = as_points(sample)
    n = pts.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    norms = np.empty(n)
    # 1 / norm, and 0 for a zero norm, so the cosines of its pairs vanish
    inv = np.zeros(n)
    context = f"{spec.label} centered squared norm"
    if _has_centred_rows(spec, pts.shape[1], n):
        sum_cos, sum_cos_sq, sum_abs = _unit_row_sums(spec, mean_combination(spec, pts), norms, inv, context)
    else:
        sum_cos = sum_cos_sq = sum_abs = 0.0
        # bottom-up blocks: the norms of rows lo: are known when block lo arrives
        for lo, hi, C in _mean_pair_blocks(spec, pts):
            norms[lo:hi] = np.sqrt(_clamp_sq(np.diagonal(C), context))
            np.divide(1.0, norms[lo:hi], out=inv[lo:hi], where=norms[lo:hi] > 0.0)
            w = inv[lo:]
            sum_cos += _pair_sum(C, w)
            sum_abs += _pair_sum(np.abs(C, out=C), w)
            sum_cos_sq += _pair_sum(np.square(C, out=C), w * w)
            del C
    valid = int(np.count_nonzero(norms > 0.0))
    count = valid * (valid - 1) // 2
    if count == 0:
        raise NumericError("all pairs are degenerate (zero centered norm)")

    mean_cos = sum_cos / count
    var_cos = max(sum_cos_sq / count - mean_cos * mean_cos, 0.0)
    return OrthogonalityStats(
        mean_abs_cos=sum_abs / count,
        std_cos=math.sqrt(var_cos),
        mean_norm=float(norms.mean()),
        std_norm=float(norms.std()),
        n_pairs=count,
        excluded_pairs=n * (n - 1) // 2 - count,
    )


def _unit_row_sums(spec: KernelSpec, mu: FeatureCombination, norms, inv, context: str):
    """sum cos, sum cos^2 and sum |cos| over the pairs i < j of mu's support,
    from its centred feature rows (orthogonality_stats), writing each row's
    norm and inverse norm (0 for a zero norm) into norms and inv."""
    p = mu.primal.size
    row_sum = np.zeros(p)
    gram = np.zeros((p, p))
    unit_sq = unit_quartic = sum_abs = 0.0
    # bottom-up blocks: the inverse norms of rows hi: are known at block lo
    for lo, hi, U, out in _centred_row_blocks(spec, mu.support, mu):
        m = hi - lo
        norms[lo:hi] = np.sqrt(_clamp_sq(np.einsum("ij,ij->i", U[:m], U[:m]), context))
        np.divide(1.0, norms[lo:hi], out=inv[lo:hi], where=norms[lo:hi] > 0.0)
        U *= inv[lo:, None]
        top = U[:m]
        sq = np.einsum("ij,ij->i", top, top)
        unit_sq += float(sq.sum())
        unit_quartic += float(sq @ sq)
        row_sum += top.sum(axis=0)
        gram += top.T @ top
        P = np.abs(np.matmul(top, U.T, out=out), out=out)
        del U, out, top
        # the square is symmetric, so its strict upper part is half its sum
        # less its diagonal: the block's pairs are its sum less the rest
        sum_abs += float(P.sum() - (P[:, :m].sum() + np.trace(P)) / 2.0)
        del P
    sum_cos = (row_sum @ row_sum - unit_sq) / 2.0
    sum_cos_sq = (float(np.einsum("ij,ij->", gram, gram)) - unit_quartic) / 2.0
    return float(sum_cos), sum_cos_sq, sum_abs


def _pair_sum(C: np.ndarray, w: np.ndarray) -> float:
    """Sum of w_i C[i, j] w_j over the pairs i < j of a pair block C whose
    rows are its first C.shape[0] columns: the columns past that square in
    one matrix-vector product, and the square's strict upper part as its
    whole sum less its diagonal, halved, since the square is symmetric."""
    m = C.shape[0]
    wr = w[:m]
    square = wr @ (C[:, :m] @ wr)
    return float(wr @ (C[:, m:] @ w[m:]) + (square - np.diagonal(C) @ (wr * wr)) / 2.0)


def linear_ball_ratio(eps: float, d: int) -> float:
    """Ball pre-image volume ratio eps^d of the linear kernel on a uniform ball."""
    eps, d = _real_arg("eps", eps, at_least=0, at_most=1), _count_arg("d", d, 1)
    return eps**d


def quadratic_ball_ratio_bound(eps: float, delta_shift: float, d: int) -> float:
    """Upper bound on the quadratic-kernel ball volume ratio.

    Valid for the uniform cube with half-width 1/sqrt(3), bias 1, and ball
    radius r^2 = (1 + delta_shift) d:

        (eps^2 (1 + 1/delta_shift) - 1/delta_shift)_+ ^ (d/4)

    As delta_shift grows this tends to eps^(d/2).
    """
    eps, d = _real_arg("eps", eps, at_least=0, at_most=1), _count_arg("d", d, 1)
    delta_shift = _real_arg("delta_shift", delta_shift, above=0)
    inv = 1.0 / delta_shift
    base = eps * eps * (1.0 + inv) - inv
    if base <= 0.0:
        return 0.0
    return base ** (d / 4.0)


def gaussian_preimage_radius_sq(r: float, sigma: float) -> float:
    """Data-space squared radius of the Gaussian-kernel feature ball around phi(y):

    ||phi(x) - phi(y)|| <= r  iff  |x - y|^2 <= -2 sigma log(1 - r^2 / 2),

    valid for r^2 <= 2; for r^2 >= 2 every pair of points qualifies.
    """
    r, sigma = _real_arg("r", r, at_least=0), _real_arg("sigma", sigma, above=0)
    if r * r >= 2.0:
        return math.inf
    return -2.0 * sigma * math.log1p(-r * r / 2.0)


def gaussian_ball_preimage_volume(r: float, sigma: float, d: int) -> float:
    """Volume of {x : ||phi(x) - phi(y)|| <= r} for the Gaussian kernel.

    Equals the volume of a Euclidean ball whose squared radius is
    -2 sigma log(1 - r^2/2); infinite once r^2 >= 2 (the feature image lies
    on the unit sphere, so such a ball swallows it entirely).  Evaluated in
    log space to stay finite in high dimension.
    """
    d = _count_arg("d", d, 1)
    t = gaussian_preimage_radius_sq(r, sigma)
    if math.isinf(t):
        return math.inf
    if t == 0.0:
        return 0.0
    log_vol = (d / 2.0) * math.log(math.pi * t) - math.lgamma(d / 2.0 + 1.0)
    try:
        return math.exp(log_vol)
    except OverflowError:
        return math.inf


class MeanNormLimits(NamedTuple):
    sigma_to_zero: float
    d_to_infinity: float


def gaussian_mean_norm_limits(k: int, sigma: float) -> MeanNormLimits:
    """Limits of ||mu||^2 for the Gaussian-kernel mean of k unit-ball points.

    As sigma -> 0 the cross terms vanish and ||mu||^2 -> 1/k.  As d -> infinity
    pairwise squared distances concentrate at 2, giving
    1/k + (1 - 1/k) exp(-1/sigma).
    """
    k, sigma = _count_arg("k", k, 1), _real_arg("sigma", sigma, above=0)
    inv_k = 1.0 / k
    return MeanNormLimits(
        sigma_to_zero=inv_k,
        d_to_infinity=inv_k + (1.0 - inv_k) * math.exp(-1.0 / sigma),
    )


def transition_width(sweep_values, ratios, high: float = 0.9, low: float = 0.1) -> float:
    """Width of the interval over which a non-increasing ratio sweep falls
    from `high` to `low`, located by linear interpolation between grid points."""
    xs = _real_arg("sweep_values", sweep_values, array=True)
    ys = _real_arg("ratios", ratios, array=True)
    high, low = _real_arg("high", high), _real_arg("low", low)
    if high <= low:
        raise ValueError(f"high ({high}) must exceed low ({low})")
    if xs.size != ys.size or xs.size < 2:
        raise ValueError("need matching sweeps with at least 2 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("sweep_values must be strictly increasing")
    if ys[0] < high or ys[-1] > low:
        raise ValueError(
            f"sweep does not span the transition: starts at {ys[0]}, ends at {ys[-1]}"
        )

    def crossing(level: float) -> float:
        below = np.nonzero(ys < level)[0]
        # a sweep that ends at `level` crosses where it first reaches it
        j = int(below[0]) if below.size else int(np.argmax(ys <= level))
        if j == 0 or ys[j] == level:
            return float(xs[j])
        i = j - 1
        frac = (ys[i] - level) / (ys[i] - ys[j])
        return float(xs[i] + frac * (xs[j] - xs[i]))

    return crossing(low) - crossing(high)


def write_ratio_sweep_csv(path, sweep_values, estimates) -> None:
    """Emit a ratio sweep as CSV with the standard columns, atomically."""
    sweep_values, estimates = list(sweep_values), list(estimates)
    if len(sweep_values) != len(estimates):
        raise ValueError(f"{len(sweep_values)} sweep values but {len(estimates)} estimates")
    rows = ([float(v), e.ratio, e.ci_low, e.ci_high, e.hits, e.trials] for v, e in zip(sweep_values, estimates))
    _write_csv(path, RATIO_SWEEP_COLUMNS, rows)
