"""Empirical probability functions and numerical evaluation of the few-shot
success bounds.

Three families of results are evaluated here, all expressed through step
functions estimated from data:

* ``few_shot_success_bounds``: lower/upper bounds on the probability that
  the prototype classifier accepts a new-class point (and on the
  probability that it leaves old-class points to the legacy classifier),
  as suprema of union-bound products over a grid of trade-off parameters.
* ``mean_concentration_bounds``: a bracket on P(||mu - c|| <= s) for the
  empirical feature mean of k samples, trading localisation of single
  points against quasi-orthogonality of pairs.
* ``GeometricBrackets``: brackets on the probability functions themselves
  in terms of ball/cap pre-image volume ratios, for distributions with
  density bounded by a constant over the uniform level.

Every bound is valid for any finite parameter grid (each grid point is a
feasible choice in the underlying supremum/infimum), so richer grids only
tighten results.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import NumericError, _count_arg, _real_arg
from .kernels import (
    FeatureCombination,
    KernelSpec,
    _centered_pair_blocks,
    _centered_rows,
    _clamp_sq,
    _pair_sq_distance,
    _probe,
    combo_inner,
    inner_with_combo,
)

__all__ = [
    "StepCdf",
    "ProbabilityFunctions",
    "empirical_probability_functions",
    "new_class_margin",
    "old_class_margin",
    "TradeoffParams",
    "BoundReport",
    "BoundGrid",
    "ClassBounds",
    "ProbabilityBracket",
    "few_shot_success_bounds",
    "mean_concentration_bounds",
    "GeometricBrackets",
    "combined_success_bounds",
]


@dataclass(frozen=True, eq=False)
class StepCdf:
    """Right-continuous empirical CDF: fraction of knots <= t.

    Knots that arrive sorted are kept as a read-only view, not copied; the
    caller's array is never sorted or frozen.
    """

    knots: np.ndarray

    def __post_init__(self) -> None:
        knots = np.asarray(self.knots, dtype=float).ravel()
        if knots.size == 0:
            raise ValueError("empirical CDF needs at least one knot")
        # a NaN fails every comparison, so knots holding one are sorted, NaN last
        knots = knots.view() if np.all(knots[:-1] <= knots[1:]) else np.sort(knots)
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    def __call__(self, t):
        counts = np.searchsorted(self.knots, t, side="right")
        result = counts / self.knots.size
        return float(result) if np.ndim(result) == 0 else result

    @cached_property
    def _thinned_knots(self) -> np.ndarray:
        """All knots when there are at most 1024, else 513 evenly spaced
        quantiles plus the 64 largest knots; computed once per CDF."""
        if self.knots.size <= 1024:
            return self.knots
        return np.concatenate([_sorted_quantiles(self.knots, np.linspace(0.0, 1.0, 513)), self.knots[-64:]])


def _sorted_quantiles(knots: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(knots, q) of sorted knots, read in place instead of from
    np.quantile's copy: numpy 2.4's 'linear' method, index (n - 1) q and a
    lerp that switches form at a fraction of 0.5."""
    n = knots.size
    index = (n - 1) * q
    lo = np.floor(index)
    lo[index >= n - 1] = -1
    lo = lo.astype(np.intp)
    hi = np.where(lo < 0, -1, lo + 1)
    t = index - lo
    a, b = knots[lo], knots[hi]
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    # a NaN knot sorts last and makes every quantile NaN
    return np.full_like(out, np.nan) if np.isnan(knots[-1]) else out


@dataclass(frozen=True, eq=False)
class ProbabilityFunctions:
    """Empirical step-function estimators of the class geometry.

    projection:       CDF of (phi(x_i) - c_new, phi(x_j) - c_new) over
                      ordered pairs i != j from the new-class sample.
    localisation_new: CDF of ||phi(x) - c_new|| over the new-class sample.
    localisation_old: CDF of ||phi(z) - c_old|| over the old-class sample.
    separation_new:   CDF of (phi(x) - c_new, c_old - c_new).
    separation_old:   CDF of (phi(z) - c_old, c_new - c_old).
    dist_sq:          ||c_new - c_old||^2, clamped at zero against round-off.
    """

    projection: StepCdf
    localisation_new: StepCdf
    localisation_old: StepCdf
    separation_new: StepCdf
    separation_old: StepCdf
    dist_sq: float


def empirical_probability_functions(
    spec: KernelSpec,
    new_sample,
    old_sample,
    centre_new: FeatureCombination,
    centre_old: FeatureCombination,
) -> ProbabilityFunctions:
    """Build all five empirical probability functions from class samples.

    The projection CDF needs at least two new-class points.  All quantities
    are inner products with the given centres (see inner_with_combo); a
    sample that is its centre's support reuses its column (CentredProbe).
    """
    # each sample's kernel rows against its own centre, evaluated once
    probe_new = _probe(spec, centre_new, new_sample)
    probe_old = _probe(spec, centre_old, old_sample)
    X, Z = probe_new.points, probe_old.points
    if X.shape[0] < 2:
        raise ValueError(f"projection CDF needs at least 2 new-class points, got {X.shape[0]}")

    # the pairs i < j in row-major order; ordered pairs duplicate each
    # unordered pair, so the CDF is unchanged
    n = X.shape[0]
    pair_inners = np.empty(n * (n - 1) // 2)
    sq_new = np.empty(n)
    for lo, hi, C in _centered_pair_blocks(spec, probe_new, centre_new):
        sq_new[lo:hi] = np.diagonal(C)
        start = lo * n - lo * (lo + 1) // 2  # rows before lo hold this many pairs
        for r in range(hi - lo):
            pair_inners[start : start + n - lo - r - 1] = C[r, r + 1 :]
            start += n - lo - r - 1
        del C
    norms_new = np.sqrt(_clamp_sq(sq_new, f"{spec.label} centered squared norm"))
    # in place, so the n(n-1)/2 knots exist once
    pair_inners.sort()

    b_new = inner_with_combo(spec, X, centre_old)
    # (c_new, c_old) as combo_inner sums it, from these rows when they equal
    # c_new's support (a Gaussian centre keeps a copy of it in its factor)
    S = centre_new.support
    own = centre_new.primal is None and (X is S or X.shape == S.shape and np.array_equal(X, S))
    cross = float(centre_new.weights @ b_new) if own else combo_inner(spec, centre_new, centre_old)
    sep_new = _centered_rows(spec, None, centre_new, probe_new.centre_inner, b_new, cross)[1]
    b_old = inner_with_combo(spec, Z, centre_new)
    sq_old, sep_old = _centered_rows(spec, Z, centre_old, probe_old.centre_inner, b_old, cross)

    return ProbabilityFunctions(
        projection=StepCdf(pair_inners),
        localisation_new=StepCdf(norms_new),
        localisation_old=StepCdf(np.sqrt(sq_old)),
        separation_new=StepCdf(sep_new),
        separation_old=StepCdf(sep_old),
        dist_sq=_pair_sq_distance(spec, centre_new, centre_old, cross),
    )


def _tradeoff_arrays(a, b, gamma, epsilon):
    """The margin arguments as float arrays: a and b finite, gamma and
    epsilon positive and finite."""
    return (
        _real_arg("a", a, array=True),
        _real_arg("b", b, array=True),
        _real_arg("gamma", gamma, above=0, array=True),
        _real_arg("epsilon", epsilon, above=0, array=True),
    )


def new_class_margin(theta: float, dist_sq: float, a, b, gamma, epsilon):
    """Projection level below which new-class points are certainly accepted:

    -theta - dist_sq/(2 gamma) - (epsilon + gamma + 2)/2 * a^2 - b^2/(2 epsilon)
    """
    a, b, gamma, epsilon = _tradeoff_arrays(a, b, gamma, epsilon)
    out = -theta - dist_sq / (2.0 * gamma) - (epsilon + gamma + 2.0) / 2.0 * a**2 - b**2 / (2.0 * epsilon)
    return float(out) if np.ndim(out) == 0 else out


def old_class_margin(theta: float, dist_sq: float, a, beta, gamma, epsilon):
    """Projection level below which old-class points are certainly passed on:

    theta + (1 - 1/gamma) dist_sq - (epsilon + 2 gamma - 2)_+/2 * a^2 - beta^2/(2 epsilon)

    by new_class_margin's Young steps on the decision value sep_old(z) - dist_sq
    + (phi(z) - c_old, e) - 2 (c_new - c_old, e) - |e|^2, e = mu - c_new.
    """
    a, beta, gamma, epsilon = _tradeoff_arrays(a, beta, gamma, epsilon)
    out = (
        theta
        + (1.0 - 1.0 / gamma) * dist_sq
        - np.maximum(epsilon + 2.0 * gamma - 2.0, 0.0) / 2.0 * a**2
        - beta**2 / (2.0 * epsilon)
    )
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class TradeoffParams:
    """One point of the trade-off parameter grid.

    theta is the classifier threshold; a bounds ||mu - c_new||; b and beta
    bound single-point norms about each centre; gamma and epsilon are the
    Young-inequality trade-off factors.
    """

    theta: float
    a: float
    b: float
    beta: float
    gamma: float
    epsilon: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    """A probability bracket with the grid point achieving the lower bound."""

    lower: float
    upper: float
    argbest: TradeoffParams
    grid_size: int
    heuristic_flags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not (0.0 <= self.lower <= self.upper <= 1.0):
            raise NumericError(
                f"invalid bound bracket [{self.lower}, {self.upper}]; must satisfy 0 <= lower <= upper <= 1"
            )

    def to_dict(self) -> dict:
        return {**asdict(self), "heuristic_flags": list(self.heuristic_flags)}


class ClassBounds(NamedTuple):
    new_class: BoundReport
    old_class: BoundReport


class ProbabilityBracket(NamedTuple):
    lower: float
    upper: float


def _bracket(lower: float, upper: float, context: str) -> ProbabilityBracket:
    """The reported bracket for a raw lower and upper probability: both ends
    clamped to [0, 1], then a crossing of at most 1e-12 closed as round-off
    (e.g. 1 - A(1 - v) against A v at A = 1) and a wider one raised."""
    lower = min(max(lower, 0.0), 1.0)
    upper = min(max(upper, 0.0), 1.0)
    if lower > upper + 1e-12:
        raise NumericError(f"{context}: inverted bracket [{lower}, {upper}], an inconsistent probability model")
    return ProbabilityBracket(min(lower, upper), upper)


@dataclass(frozen=True)
class BoundGrid:
    """Parameter grids for the success-bound suprema.

    Any finite grid yields valid (conservative) bounds; the default is
    log-spaced with 12 points per axis on [1e-3, 1e3], with the a and
    b/beta axes additionally seeded from empirical quantiles of observed
    centered norms when probability functions are supplied.
    """

    a_values: tuple[float, ...]
    b_values: tuple[float, ...]
    beta_values: tuple[float, ...]
    gamma_values: tuple[float, ...]
    epsilon_values: tuple[float, ...]

    def __post_init__(self) -> None:
        for name in ("a_values", "b_values", "beta_values", "gamma_values", "epsilon_values"):
            low = {"above": 0} if name in ("gamma_values", "epsilon_values") else {"at_least": 0}
            vals = tuple(float(v) for v in np.unique(_real_arg(name, getattr(self, name), **low, array=True)))
            if len(vals) == 0:
                raise ValueError(f"{name} must be non-empty")
            object.__setattr__(self, name, vals)

    @classmethod
    def default(
        cls,
        pf: ProbabilityFunctions | None = None,
        points_per_axis: int = 12,
        low: float = 1e-3,
        high: float = 1e3,
        norm_quantiles: Sequence[float] = (0.25, 0.5, 0.75, 0.9, 0.99, 1.0),
    ) -> "BoundGrid":
        points_per_axis = _count_arg("points_per_axis", points_per_axis, 1)
        low, high = _real_arg("low", low, above=0), _real_arg("high", high, above=0)
        norm_quantiles = _real_arg("norm_quantiles", norm_quantiles, at_least=0, at_most=1, array=True)
        base = np.geomspace(low, high, points_per_axis)
        a = list(base)
        b = list(base)
        beta = list(base)
        if pf is not None:
            q_new = np.quantile(pf.localisation_new.knots, norm_quantiles)
            q_old = np.quantile(pf.localisation_old.knots, norm_quantiles)
            extra_new = [float(v) for v in q_new if v > 0]
            extra_old = [float(v) for v in q_old if v > 0]
            a.extend(extra_new)
            b.extend(extra_new)
            beta.extend(extra_old)
        return cls(
            a_values=tuple(a),
            b_values=tuple(b),
            beta_values=tuple(beta),
            gamma_values=tuple(base),
            epsilon_values=tuple(base),
        )


def _validate_bracket(low: float, high: float, context: str) -> None:
    if not (0.0 <= low <= high <= 1.0):
        raise NumericError(f"{context}: invalid probability bracket [{low}, {high}]")


def _one_side(
    localisation: StepCdf,
    separation: StepCdf,
    margin_fn,
    theta: float,
    dist_sq: float,
    radius_values: tuple[float, ...],
    mc_low: np.ndarray,
    mc_high: np.ndarray,
    grid: BoundGrid,
    is_new: bool,
) -> BoundReport:
    a = np.asarray(grid.a_values)
    r = np.asarray(radius_values)
    g = np.asarray(grid.gamma_values)
    e = np.asarray(grid.epsilon_values)
    A, R, G, E = np.meshgrid(a, r, g, e, indexing="ij")
    margins = margin_fn(theta, dist_sq, A, R, G, E)
    loc = localisation(R)
    sep = separation(margins)

    gain = np.maximum(loc + sep - 1.0, 0.0)
    lower_field = mc_low[:, None, None, None] * gain
    flat = lower_field.ravel()
    best = int(np.argmax(flat))  # first max in C order: lexicographically smallest tuple
    lower = float(flat[best])

    loss = np.maximum(1.0 - loc - sep, 0.0)
    upper_field = (1.0 - mc_high)[:, None, None, None] * loss
    upper = 1.0 - float(upper_field.max())
    lower, upper = _bracket(lower, upper, f"success bound (theta={theta}, dist_sq={dist_sq})")

    ai, ri, gi, ei = np.unravel_index(best, A.shape)
    argbest = TradeoffParams(
        theta=theta,
        a=float(a[ai]),
        b=float(r[ri]) if is_new else 0.0,
        beta=0.0 if is_new else float(r[ri]),
        gamma=float(g[gi]),
        epsilon=float(e[ei]),
    )
    return BoundReport(lower=lower, upper=upper, argbest=argbest, grid_size=A.size)


def few_shot_success_bounds(
    pf: ProbabilityFunctions,
    dist_sq: float,
    theta: float,
    mean_concentration: Callable[[float], tuple[float, float]],
    grid: BoundGrid,
) -> ClassBounds:
    """Bracket the success probabilities of the prototype classifier.

    ``mean_concentration(a)`` must return a bracket [low, high] for
    P(||mu - c_new|| <= a), non-decreasing in a.  For each side, the lower
    bound is the grid supremum of  mc_low(a) * {loc(radius) + sep(margin) - 1}_+
    and the upper bound is  1 - sup (1 - mc_high(a)) * {1 - loc - sep}_+,
    with the new-class margin decreasing in theta and the old-class margin
    increasing in it.
    """
    dist_sq, theta = _real_arg("dist_sq", dist_sq, at_least=0), _real_arg("theta", theta)
    mc_low = np.empty(len(grid.a_values))
    mc_high = np.empty(len(grid.a_values))
    for i, a in enumerate(grid.a_values):
        low, high = mean_concentration(a)
        _validate_bracket(low, high, f"mean_concentration({a})")
        mc_low[i] = low
        mc_high[i] = high
    if np.any(np.diff(mc_low) < -1e-9) or np.any(np.diff(mc_high) < -1e-9):
        raise ValueError("mean_concentration bracket must be non-decreasing in a")

    new_report = _one_side(
        pf.localisation_new,
        pf.separation_new,
        new_class_margin,
        theta,
        dist_sq,
        grid.b_values,
        mc_low,
        mc_high,
        grid,
        is_new=True,
    )
    old_report = _one_side(
        pf.localisation_old,
        pf.separation_old,
        old_class_margin,
        theta,
        dist_sq,
        grid.beta_values,
        mc_low,
        mc_high,
        grid,
        is_new=False,
    )
    return ClassBounds(new_class=new_report, old_class=old_report)


def _mean_candidates(k: int, s: float, pf: ProbabilityFunctions) -> tuple[np.ndarray, np.ndarray]:
    """Candidate (delta, radius) pairs for the concentration infimum.

    The objective only changes when delta crosses a projection knot or when
    the derived radius crosses a localisation knot, so candidates are taken
    from quantiles plus the full upper tail of the projection knots, from
    radii at every localisation knot, and from the delta = s^2 point.
    """
    s_sq = s * s
    deltas_a = pf.projection._thinned_knots
    radii_a = np.sqrt(np.maximum(k * s_sq - (k - 1) * deltas_a, 0.0))

    radii_b = pf.localisation_new.knots
    deltas_b = (k * s_sq - radii_b**2) / (k - 1)

    deltas = np.concatenate([deltas_a, deltas_b, [s_sq]])
    radii = np.concatenate([radii_a, radii_b, [s]])
    return deltas, radii


def mean_concentration_bounds(
    k: int,
    s: float,
    pf: ProbabilityFunctions,
    delta_grid: Sequence[float] | None = None,
) -> ProbabilityBracket:
    """Bracket P(||mu - c_new|| <= s) for the mean of k new-class samples.

    For each delta the radius r = (k s^2 - (k-1) delta)_+^(1/2) splits the
    event into per-point localisation and pairwise projection parts:

        lower = sup_delta 1 - [k (1 - loc(r)) + k(k-1)(1 - proj(delta))]
        upper = inf_delta  k loc(r) + k(k-1) proj(delta)

    both clamped to [0, 1].  When delta_grid is omitted, candidates are
    derived from the CDF knots (and always include delta = s^2, which makes
    r = s exactly).
    """
    k, s = _count_arg("k", k, 1), _real_arg("s", s, above=0)
    if delta_grid is not None:
        delta_grid = _real_arg("delta_grid", delta_grid, array=True).ravel()
    if k == 1:
        v = float(pf.localisation_new(s))
        return ProbabilityBracket(v, v)

    if delta_grid is None:
        deltas, radii = _mean_candidates(k, s, pf)
    else:
        deltas = np.concatenate([delta_grid, [s * s]])
        radii = np.sqrt(np.maximum(k * s * s - (k - 1) * deltas, 0.0))
        radii[-1] = s  # exact at the delta = s^2 simplification

    loc = pf.localisation_new(radii)
    proj = pf.projection(deltas)
    pair_count = k * (k - 1)

    lower_vals = 1.0 - (k * (1.0 - loc) + pair_count * (1.0 - proj))
    upper_vals = k * loc + pair_count * proj
    return _bracket(float(lower_vals.max()), float(upper_vals.min()), f"mean concentration (k={k}, s={s})")


@dataclass(frozen=True)
class GeometricBrackets:
    """Probability-function brackets driven by volume ratios.

    ``density_bound`` is the constant A bounding the class density over the
    uniform level on its feature-space support ball; the brackets are exact
    when A = 1 (uniform distributions).  ``ball_ratio(r)`` must return
    V(c, min(r, r_support)) / V(c, r_support) and ``cap_ratio(delta)`` the
    corresponding cap/ball ratio for the direction of interest (an image
    point phi(y) for the projection function, the opposite centre for the
    separation function).
    """

    density_bound: float
    ball_ratio: Callable[[float], float]
    cap_ratio: Callable[[float], float]

    def __post_init__(self) -> None:
        # a density bounded by A/V with A < 1 cannot integrate to 1
        object.__setattr__(self, "density_bound", _real_arg("density_bound", self.density_bound, at_least=1))

    def _checked(self, ratio: float, context: str) -> float:
        if not 0.0 <= ratio <= 1.0:
            raise NumericError(f"{context} returned ratio {ratio} outside [0, 1]")
        return ratio

    def localisation(self, r: float) -> ProbabilityBracket:
        """Bracket on P(||phi(x) - c|| <= r)."""
        r = _real_arg("r", r, at_least=0)
        A = self.density_bound
        v = self._checked(self.ball_ratio(r), f"ball_ratio({r})")
        return _bracket(1.0 - A * (1.0 - v), A * v, f"localisation(r={r}, A={A}, ratio={v})")

    def _cap_bracket(self, delta: float, name: str) -> ProbabilityBracket:
        delta = _real_arg("delta", delta)
        A = self.density_bound
        c = self._checked(self.cap_ratio(delta), f"cap_ratio({delta})")
        return _bracket(1.0 - A * c, A * (1.0 - c), f"{name}(delta={delta}, A={A}, ratio={c})")

    def projection(self, delta: float) -> ProbabilityBracket:
        """Bracket on P((phi(x) - c, phi(y) - c) <= delta)."""
        return self._cap_bracket(delta, "projection")

    def separation(self, delta: float) -> ProbabilityBracket:
        """Bracket on P((phi(x) - c, c_other - c) <= delta)."""
        return self._cap_bracket(delta, "separation")


def combined_success_bounds(
    k: int,
    pf: ProbabilityFunctions,
    dist_sq: float,
    theta: float,
    grid: BoundGrid | None = None,
) -> ClassBounds:
    """Success bounds with the mean-concentration term supplied by
    ``mean_concentration_bounds`` at every a in the grid."""
    if grid is None:
        grid = BoundGrid.default(pf)
    a_values = tuple(a for a in grid.a_values if a > 0)
    if not a_values:
        raise ValueError("grid must contain positive a values")
    if a_values != grid.a_values:
        grid = replace(grid, a_values=a_values)
    cache = {a: mean_concentration_bounds(k, a, pf) for a in a_values}
    return few_shot_success_bounds(pf, dist_sq, theta, lambda a: cache[float(a)], grid)
