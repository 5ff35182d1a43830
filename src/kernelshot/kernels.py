"""Kernel families and kernel-trick linear algebra on implicit feature-space points.

Every feature-space quantity here is evaluated through the kernel
``kappa(x, y) = (phi(x), phi(y))``, so points such as class means can be
manipulated without materialising ``phi``, whose codomain may be infinite
dimensional.  A weighted combination ``c = sum_i w_i phi(x_i)`` is kept as
its support points and weights (:class:`FeatureCombination`); distances and
inner products against it expand into Gram sums:

    ||phi(y) - c||^2 = kappa(y, y) - 2 sum_i w_i kappa(y, x_i)
                       + sum_ij w_i w_j kappa(x_i, x_j)

    (phi(y) - c, phi(z) - c) = kappa(y, z)
                               - sum_i w_i (kappa(y, x_i) + kappa(z, x_i))
                               + sum_ij w_i w_j kappa(x_i, x_j)

The double sum is cached at construction, which matters when the same
combination is probed ~1e5 times by the Monte-Carlo estimators.

Linear and polynomial kernels have a finite feature map, with
C(d + degree, degree) coordinates (:func:`poly_feature_map`).  When a
combination has more support points than that, it also keeps its explicit
vector v = sum_i w_i phi(x_i) (``FeatureCombination.primal``).  Every inner
product against it is then phi(y) . v, one feature row instead of a kernel
row against the whole support, and (c, c) is v . v.  Its centred pair
inner products (phi(y) - c, phi(z) - c), for at most _CENTRED_ROWS_DIM
features, are products of the centred feature rows phi(y) - v, which keep
their accuracy far from the origin, where the expansion above cancels.
Gaussian kernels, and supports no larger than the feature dimension, stay on
the kernel trick.

A Gaussian combination keeps its support mean m and, beside each support
point s_j, r_j = |s_j - m|^2 / 2 sigma.  With u = (x - m) / sigma and
e = u . (x + m) / 2, kappa(x, s_j) = exp(u . s_j - e - r_j), an exact identity
with other round-off, so a block of rows against its support (or its rows lo:)
is one product [u, -e, -1] [S, 1, r]^T and one exp.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import os
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericError, _count_arg, _real_arg

__all__ = [
    "KernelSpec",
    "linear_kernel",
    "polynomial_kernel",
    "gaussian_kernel",
    "FeatureCombination",
    "CentredProbe",
    "mean_combination",
    "singleton_combination",
    "as_points",
    "kernel_matrix",
    "kernel_diag",
    "gram_matrix",
    "inner_with_combo",
    "centered_sq_norms",
    "centered_inners",
    "centered_gram",
    "combo_inner",
    "combo_pair_stats",
    "PairStats",
    "poly_feature_dim",
    "multi_index_basis",
    "poly_coefficient",
    "poly_feature_map",
    "SQ_NORM_TOL",
    "DEFAULT_FEATURE_DIM_CAP",
    "ROW_BLOCK",
]

# Squared norms computed through Gram sums may round off slightly negative.
# Values in [-SQ_NORM_TOL, 0) clamp to 0; anything below signals a real
# numerical problem and raises.
SQ_NORM_TOL = 1e-9

DEFAULT_FEATURE_DIM_CAP = 10**6

# Most rows evaluated at a time on every blocked path, so scratch memory is
# at most ROW_BLOCK x the feature dimension, the support size or n.  Rows
# against a support are further bounded by _BLOCK_ENTRIES (_row_blocks), and
# the rows of a kernel-row pair block by _PAIR_ENTRIES (_pair_row_blocks).
ROW_BLOCK = 512

# Entries (float64, 512 KB) in one block of rows against a support: a wide
# support gets fewer rows per block, so each block's scratch stays in cache
# instead of costing two fresh multi-MB arrays.
_BLOCK_ENTRIES = 1 << 16

# Most entries (float64, 8 MB) of one pair block of centred kernel rows
# (_pair_row_blocks), rows i against columns j >= lo of n rows.  2^20 is
# ROW_BLOCK x 2048, so every n <= 2048 keeps blocks of ROW_BLOCK rows, and a
# larger n gets fewer rows instead of a block that grows with n (82 MB at
# n 20000).  Centred feature rows take smaller blocks (_centred_row_blocks).
_PAIR_ENTRIES = 1 << 20

# Entries (rows x support size) from which one kernel-trick inner_with_combo
# call splits its row blocks between two threads, the worker in a copy of the
# caller's context.  It pays off because a block's work releases the GIL: a
# product, an exp and a matrix-vector product, a Gaussian factor's rows formed
# per chunk of blocks (_CHUNK_ENTRIES).  A worker thread leaves about 1 MB of
# allocator arena resident for the rest of the process, so only calls this
# large (such as 1e5 Monte-Carlo probes against 1000 support points) gain.
# Primal centres never split: feature-row blocks hold the GIL.
_SPLIT_ENTRIES = 1 << 24

# Entries (float64, 128 KB) of the factorised Gaussian rows [u, -e, -1] that
# inner_with_combo forms at a time, in whole row blocks (at least one): the
# small numpy calls that form them hold the GIL, and run once per chunk.
_CHUNK_ENTRIES = 1 << 14

# Largest feature dimension p of a primal combination whose centred pair
# blocks are products of its centred feature rows (_centered_pair_blocks),
# and from which orthogonality_stats takes its cosine sums in closed form:
# there one product with p terms, one abs pass and one sum per pair entry,
# against two kernel entries (the column pass's and the pair block's), each a
# product with d terms, and about ten elementwise passes.  Timing
# orthogonality_stats with each path forced on n = 3000 points (2-core Xeon,
# OpenBLAS 0.3.31, 1 and 2 threads), the centred rows took 0.43-0.49 of the
# kernel rows' time at p 21 and 0.68-0.88 at p 66, and broke even for the
# quadratic kernel, the cheapest kernel row of its p, at p 91-105; a linear
# or cubic kernel still gained there.
_CENTRED_ROWS_DIM = 96

# Rows a BLAS matrix-vector product reduces together (OpenBLAS dgemv on x86).
_ROW_GROUP = 4

# Largest |e| and r_j of the factorised Gaussian rows (module docstring): the
# exponent u . s_j - e - r_j cancels terms this large, and its round-off grows
# with them.  Beyond it a block uses the squared distances below.
_EXP_RANGE = 300.0

_KINDS = ("linear", "polynomial", "gaussian")


@dataclass(frozen=True)
class KernelSpec:
    """Parameters of one kernel family.

    linear:      kappa(x, y) = bias^2 + x . y  (polynomial of degree 1)
    polynomial:  kappa(x, y) = (bias^2 + x . y)^degree
    gaussian:    kappa(x, y) = exp(-|x - y|^2 / (2 sigma)), so kappa(x, x) = 1
    """

    kind: str
    degree: int = 1
    bias: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}; expected one of {_KINDS}")
        object.__setattr__(self, "degree", _count_arg("degree", self.degree, 1))
        object.__setattr__(self, "bias", _real_arg("bias", self.bias, at_least=0))
        object.__setattr__(self, "sigma", _real_arg("sigma", self.sigma, above=0))
        if self.kind == "linear" and self.degree != 1:
            raise ValueError("linear kernel has degree 1 by definition")

    @property
    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma:g})"
        if self.kind == "linear":
            return f"linear(b={self.bias:g})"
        return f"poly{self.degree}(b={self.bias:g})"


def linear_kernel(bias: float = 0.0) -> KernelSpec:
    return KernelSpec("linear", degree=1, bias=bias)


def polynomial_kernel(degree: int, bias: float = 1.0) -> KernelSpec:
    return KernelSpec("polynomial", degree=degree, bias=bias)


def gaussian_kernel(sigma: float) -> KernelSpec:
    return KernelSpec("gaussian", sigma=sigma)


def as_points(data) -> np.ndarray:
    """Coerce a Sample, array, or sequence of vectors to a float (n, d) array."""
    pts = getattr(data, "points", data)
    arr = np.asarray(pts, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-d point array, got shape {arr.shape}")
    if arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError("point array must be non-empty")
    return arr


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")


def _clamp_sq(values, context: str):
    """Clamp round-off-negative squared quantities to zero.

    Raises NumericError, naming the quantity, for a value that is not finite
    (from an overflowed kernel value, or inf - inf) or is below -SQ_NORM_TOL.
    """
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        bad = float(arr[~finite].flat[0])
        raise NumericError(
            f"{context} is not finite ({bad}): a kernel value overflowed or an input is not finite"
        )
    if np.any(arr < -SQ_NORM_TOL):
        worst = float(arr.min())
        raise NumericError(f"{context} is negative beyond round-off tolerance: {worst}")
    out = np.where(arr < 0.0, 0.0, arr)
    return float(out) if out.ndim == 0 else out


def _power(base: float, exponent: int) -> float:
    """float(base) ** exponent for base >= 0, with an overflow giving inf as
    numpy's does, so that an overflowing kernel fails in the not-finite checks
    that name it."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def kernel_matrix(spec: KernelSpec, X, Y) -> np.ndarray:
    """Evaluate kappa on all pairs: entry [i, j] = kappa(X[i], Y[j]).

    Y may be a Gaussian combination's _Factor (cut to support rows lo:)
    carrying the rows [u, -e, -1] of X within _EXP_RANGE (_factor_rows): one
    product and one exp (module docstring).  Otherwise a Gaussian
    kappa(x, x) = 1 exactly (see the bound below)."""
    Xa = as_points(X)
    factor = Y if isinstance(Y, _Factor) else None
    Ya = as_points(Y if factor is None else factor.support)
    _check_dims(Xa, Ya)
    if factor is not None:
        out = factor.rows @ factor.table.T
        return np.exp(out, out=out)
    if spec.kind == "gaussian":
        xs = np.einsum("ij,ij->i", Xa, Xa)
        ys = np.einsum("ij,ij->i", Ya, Ya)
        # in place, in the order (xs + ys) - 2 (X Y^T): one product buffer
        # and one result buffer, the same values as the textbook expression
        prod = Xa @ Ya.T
        prod *= 2.0
        out = np.add(xs[:, None], ys[None, :])
        out -= prod
        del prod
        # |x|^2 and x . y are sums of d terms, each within d/2 ulp of |x|^2,
        # so a point paired with itself keeps less than d + 1 ulp of 2 |x|^2
        bound = (Xa.shape[1] + 1) * 2.0**-52 * (xs.max() + ys.max())
        if out.min() <= bound:
            near = np.flatnonzero(out <= bound)
            diff = Xa[near // out.shape[1]] - Ya[near % out.shape[1]]
            out.flat[near] = np.einsum("ij,ij->i", diff, diff)
        out *= -1.0 / (2.0 * spec.sigma)
        return np.exp(out, out=out)
    # in place: one buffer for a block of any degree
    out = Xa @ Ya.T
    out += _power(spec.bias, 2)
    if spec.degree > 1:
        _raise_in_place(out, spec.degree)
    return out


def _raise_in_place(out: np.ndarray, degree: int) -> None:
    """out ** degree in place for an integer degree >= 2, as ((b b) b) ... b:
    numpy's ** takes a generic pow beyond a square, about five times slower
    per entry.  Above a square, rows go in blocks of about _BLOCK_ENTRIES
    entries (_row_blocks) with one scratch copy of a block's base, so there
    is no block-sized temporary."""
    if degree == 2:
        np.multiply(out, out, out=out)
        return
    blocks = list(_row_blocks(*out.shape))
    base = np.empty(max(hi - lo for lo, hi in blocks) * out.shape[1])
    for lo, hi in blocks:
        block = out[lo:hi]
        b = base[: block.size].reshape(block.shape)
        np.copyto(b, block)
        for _ in range(degree - 1):
            block *= b


def kernel_diag(spec: KernelSpec, X) -> np.ndarray:
    """kappa(x, x) for every row of X."""
    Xa = as_points(X)
    if spec.kind == "gaussian":
        return np.ones(Xa.shape[0])
    base = _power(spec.bias, 2) + np.einsum("ij,ij->i", Xa, Xa)
    if spec.degree == 1:
        return base
    return base**spec.degree


def gram_matrix(spec: KernelSpec, X) -> np.ndarray:
    """Symmetric Gram matrix of kappa over the rows of X."""
    Xa = as_points(X)
    K = kernel_matrix(spec, Xa, Xa)
    # BLAS products are not bitwise symmetric; the Gram matrix must be
    return (K + K.T) / 2.0


@dataclass(frozen=True, eq=False)
class FeatureCombination:
    """A feature-space point c = sum_i w_i phi(x_i).

    Immutable after construction.  ``primal`` is the explicit vector
    w @ phi(support) when the kernel is linear or polynomial and its feature
    dimension is below the support size, else None.  ``self_inner`` caches
    (c, c): primal . primal when there is a primal vector, otherwise the
    weighted Gram double sum, so repeated probes against c cost one feature
    row or one kernel row.  Without a primal vector, ``_support_inner`` keeps
    (phi(s_j), c) for every support point s_j (inner_with_combo; CentredProbe
    reads it); Gaussian kappa(s_j, s_j) is 1.  ``_factor`` is the _Factor
    (m, [S, 1, r]) of a Gaussian combination, its first d columns
    ``support``, or None if some r_j exceeds _EXP_RANGE.
    """

    spec: KernelSpec
    support: np.ndarray
    weights: np.ndarray
    primal: np.ndarray | None = field(init=False)
    self_inner: float = field(init=False)
    _support_inner: np.ndarray | None = field(init=False, repr=False)
    _factor: _Factor | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        points = as_points(self.support)
        factor = _gaussian_factor(self.spec, points) if self.spec.kind == "gaussian" else None
        support = points.copy() if factor is None else factor.support
        weights = np.asarray(self.weights, dtype=float).ravel().copy()
        if weights.size != support.shape[0]:
            raise ValueError(
                f"weights length {weights.size} does not match support size {support.shape[0]}"
            )
        support.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_factor", factor)
        if self.spec.kind == "gaussian" or poly_feature_dim(self.dim, self.spec.degree) >= self.size:
            object.__setattr__(self, "primal", None)
            wK = inner_with_combo(self.spec, support, self)
            wK.setflags(write=False)
            self_inner = float(wK @ weights)
        else:
            wK = None
            # a sum over blocks, so the block layout is part of its value:
            # ROW_BLOCK rows whatever the feature dimension
            primal = sum(
                weights[lo:hi] @ _feature_rows(support[lo:hi], self.spec.degree, self.spec.bias)
                for lo, hi in _row_blocks(self.size)
            )
            primal.setflags(write=False)
            self_inner = float(primal @ primal)
            object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "_support_inner", wK)
        context = f"{self.spec.label} combination self inner product"
        object.__setattr__(self, "self_inner", _clamp_sq(self_inner, context))

    @property
    def dim(self) -> int:
        return self.support.shape[1]

    @property
    def size(self) -> int:
        return self.support.shape[0]


class _Factor(NamedTuple):
    """Support mean m and table [S, 1, r] of a Gaussian combination (module
    docstring).  ``rows``, in the factor handed to kernel_matrix, are the
    left factor [u, -e, -1] of the rows X it evaluates, every |e| within
    _EXP_RANGE (_factor_rows)."""

    m: np.ndarray
    table: np.ndarray
    rows: np.ndarray | None = None

    @property
    def support(self) -> np.ndarray:
        return self.table[:, :-2]


def _factor_rows(spec: KernelSpec, m: np.ndarray, X: np.ndarray, starts=(0,), rows=None):
    """The left factor [u, -e, -1] of every row x of X against a Gaussian
    factor with support mean m, written into `rows` (n x (d + 2)) if given,
    and for the blocks of X beginning at `starts` whether every |e| is
    within _EXP_RANGE, the guard that lets a block use them.  Each row is
    reduced on its own, so any run of rows gives the same bits."""
    if rows is None:
        rows = np.empty((X.shape[0], X.shape[1] + 2))
    # x - m in the rows' own columns: no second n x d temporary
    u = np.subtract(X, m, out=rows[:, :-2])
    e = np.einsum("ij,ij->i", u, X + m) / (2.0 * spec.sigma)
    u /= spec.sigma
    np.negative(e, out=rows[:, -2])
    rows[:, -1] = -1.0
    return rows, np.maximum.reduceat(np.abs(rows[:, -2]), starts) <= _EXP_RANGE


def _gaussian_factor(spec: KernelSpec, points: np.ndarray):
    """FeatureCombination._factor of a Gaussian combination of the points."""
    m = points.mean(axis=0)
    table = np.empty((points.shape[0], points.shape[1] + 2))
    # centred in the table's first columns: no second n x d temporary
    centred = np.subtract(points, m, out=table[:, :-2])
    r = np.einsum("ij,ij->i", centred, centred) / (2.0 * spec.sigma)
    if not r.max() <= _EXP_RANGE:
        return None
    table[:, :-2] = points
    table[:, -2] = 1.0
    table[:, -1] = r
    table.setflags(write=False)
    return _Factor(m, table)


def mean_combination(spec: KernelSpec, points) -> FeatureCombination:
    """Uniform-weight combination: the empirical feature mean of the points."""
    pts = as_points(points)
    weights = np.full(pts.shape[0], 1.0 / pts.shape[0])
    return FeatureCombination(spec, pts, weights)


def singleton_combination(spec: KernelSpec, x) -> FeatureCombination:
    """The image phi(x) of a single data point."""
    return FeatureCombination(spec, np.asarray(x, dtype=float)[None, :], np.ones(1))


def _check_combo(spec: KernelSpec, c: FeatureCombination) -> None:
    if c.spec != spec:
        raise ValueError(f"kernel spec mismatch: combination built with {c.spec}, called with {spec}")


def inner_with_combo(spec: KernelSpec, X, c: FeatureCombination) -> np.ndarray:
    """(phi(x), c) for every row x of X.

    For a kernel-trick centre at _SPLIT_ENTRIES entries or more, the second
    half of the row blocks is filled beside the first (_beside): with two
    usable cores on a worker thread in a copy of the caller's context, so
    under its np.errstate.  A Gaussian factor's rows are formed once per chunk
    of blocks (_factor_rows), each block's _EXP_RANGE guard decided on its own
    rows, so a block is one kernel_matrix call that releases the GIL in its
    product and exp, with the same calls on either thread.
    """
    _check_combo(spec, c)
    Xa = as_points(X)
    _check_dims(Xa, c.support)
    out = np.empty(Xa.shape[0])
    width = c.size if c.primal is None else c.primal.size
    factor = c._factor
    blocks = list(_row_blocks(Xa.shape[0], width))
    step = max(1, _CHUNK_ENTRIES // ((Xa.shape[1] + 2) * (blocks[0][1] - blocks[0][0])))

    def fill(blocks):
        chunks = [blocks[i : i + step] for i in range(0, len(blocks), step)]
        if factor is not None:
            # one buffer for every chunk's rows, allocated before any block's
            # product: rows allocated per chunk would split the heap space a
            # freed product leaves, and the next product would grow the heap
            buf = np.empty((max((ch[-1][1] - ch[0][0] for ch in chunks), default=0), Xa.shape[1] + 2))
        for chunk in chunks:
            first, last = chunk[0][0], chunk[-1][1]
            if factor is not None:
                starts = [lo - first for lo, _ in chunk]
                rows, within = _factor_rows(spec, factor.m, Xa[first:last], starts, buf[: last - first])
            for k, (lo, hi) in enumerate(chunk):
                block = _whole_groups(Xa[lo:hi])
                if c.primal is not None:
                    values = _feature_rows(block, spec.degree, spec.bias) @ c.primal
                elif factor is not None and within[k]:
                    block_rows = _whole_groups(rows[lo - first : hi - first])
                    values = kernel_matrix(spec, block, _Factor(factor.m, factor.table, block_rows)) @ c.weights
                else:
                    values = kernel_matrix(spec, block, c.support) @ c.weights
                out[lo:hi] = values[: hi - lo]

    if c.primal is not None or Xa.shape[0] * width < _SPLIT_ENTRIES:
        fill(blocks)
        return out
    half = len(blocks) // 2
    with _beside(fill, blocks[half:]):
        fill(blocks[:half])
    return out


def _whole_groups(rows: np.ndarray) -> np.ndarray:
    """rows with the last one repeated up to a whole _ROW_GROUP of rows.

    numpy reduces a lone row with a BLAS dot, and BLAS dgemv sums a short
    last group of rows in another order, so a block is padded this way.
    dgemm still rounds a row by the block's row count: TestRowBlocks checks
    its shapes only."""
    pad = -rows.shape[0] % _ROW_GROUP
    return np.pad(rows, ((0, pad), (0, 0)), mode="edge") if pad else rows


def _usable_cores() -> int:
    getaffinity = getattr(os, "sched_getaffinity", None)
    return len(getaffinity(0)) if getaffinity else (os.cpu_count() or 1)


@contextlib.contextmanager
def _beside(fn, *args):
    """Run fn(*args) beside the body of the with block: on a worker thread in
    a copy of the caller's context (numpy's error state is a context
    variable), or inline before the body with fewer than two usable cores.
    Leaving the block joins the worker on every exit path, then re-raises the
    worker's exception if the body raised none."""
    if _usable_cores() < 2:
        fn(*args)
        yield
        return
    failed = []
    context = contextvars.copy_context()

    def worker():
        try:
            context.run(fn, *args)
        except BaseException as exc:  # re-raised in the caller after join
            failed.append(exc)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        yield
    finally:
        thread.join()
    if failed:
        raise failed[0]


@dataclass(frozen=True, eq=False)
class CentredProbe:
    """Rows and their kernel column (phi(y), c), evaluated once: a centre's
    own support column is the one its construction summed."""

    spec: KernelSpec
    centre: FeatureCombination
    points: np.ndarray

    def __post_init__(self) -> None:
        _check_combo(self.spec, self.centre)
        object.__setattr__(self, "points", as_points(self.points))

    @functools.cached_property
    def centre_inner(self) -> np.ndarray:
        c = self.centre
        if self.points is c.support and c.primal is None:
            return c._support_inner
        return inner_with_combo(self.spec, self.points, c)


def _probe(spec: KernelSpec, c: FeatureCombination, rows) -> CentredProbe:
    """rows as a CentredProbe on (spec, c): plain rows or a Sample are wrapped."""
    if not isinstance(rows, CentredProbe):
        return CentredProbe(spec, c, rows)
    if rows.spec != spec or rows.centre is not c:
        raise ValueError("probe is centred on another kernel or combination")
    return rows


def _centered_rows(spec: KernelSpec, X, c: FeatureCombination, a, b=None, b_c=None):
    """Clamped ||phi(x) - c||^2 for every row x of X (None if X is None), from
    a = (phi(x), c), and given a direction u's column b = (phi(x), u) and
    b_c = (u, c), (phi(x) - c, u - c)."""
    sq = None if X is None else _clamp_sq(
        kernel_diag(spec, X) - 2.0 * a + c.self_inner, f"{spec.label} centered squared norm"
    )
    return sq, None if b is None else b - a - b_c + c.self_inner


def _probe_pass(spec: KernelSpec, c: FeatureCombination, probe, chunk_size: int, v=None):
    """Yield (||phi(y) - c||^2, inners) for each chunk of probe rows y.

    The squared norms are clamped at zero against round-off.  Given a
    direction v, inners holds (phi(y) - c, phi(v) - c) for the chunk, else
    it is None.  Both come from the probe's kernel column (phi(y), c), so
    only the elementwise work and the chunk's column (phi(y), phi(v)) are
    chunked; (phi(v), c) is evaluated once per pass.
    """
    chunk_size = _count_arg("chunk_size", chunk_size, 1)
    probe = _probe(spec, c, probe)
    va = v_c = b = None
    if v is not None:
        va = _real_arg("v", v, array=True)[None, :]
        v_c = float(inner_with_combo(spec, va, c)[0])
    pts, a = probe.points, probe.centre_inner
    try:
        for lo in range(0, pts.shape[0], chunk_size):
            hi = lo + chunk_size
            if va is not None:
                b = kernel_matrix(spec, pts[lo:hi], va)[:, 0]
            yield _centered_rows(spec, pts[lo:hi], c, a[lo:hi], b, v_c)
    except NumericError:
        # a failed pass leaves the probe as it found it
        vars(probe).pop("centre_inner", None)
        raise


def centered_sq_norms(spec: KernelSpec, X, c: FeatureCombination) -> np.ndarray:
    """||phi(x) - c||^2 for every row x of X, clamped at zero against round-off:
    _probe_pass in one chunk, so X = c.support reads c's own column."""
    Xa = as_points(X)
    return next(_probe_pass(spec, c, Xa, Xa.shape[0]))[0]


def centered_inners(spec: KernelSpec, X, v, c: FeatureCombination) -> np.ndarray:
    """(phi(x) - c, phi(v) - c) for every row x of X against a fixed vector v;
    raises NumericError where ||phi(x) - c||^2 would (see centered_sq_norms)."""
    Xa = as_points(X)
    return next(_probe_pass(spec, c, Xa, Xa.shape[0], v))[1]


def centered_gram(spec: KernelSpec, X, c: FeatureCombination) -> np.ndarray:
    """Matrix of (phi(x_i) - c, phi(x_j) - c) over all row pairs of X."""
    _check_combo(spec, c)
    Xa = as_points(X)
    _check_dims(Xa, c.support)
    # a first, so its scratch memory is freed before K exists; in place
    # below: K can be hundreds of MB for large samples
    a = inner_with_combo(spec, Xa, c)
    K = kernel_matrix(spec, Xa, Xa)
    K -= a[:, None]
    K -= a[None, :]
    K += c.self_inner
    return K


def _centered_pair_blocks(spec: KernelSpec, X, c: FeatureCombination):
    """Yield (lo, hi, C), C[i - lo, j - lo] = (phi(x_i) - c, phi(x_j) - c) for
    rows i in lo:hi and j in lo:, in blocks of rows from the last, so rows
    after hi have been yielded before block lo.  X may be a CentredProbe on
    (spec, c).  Read a block before asking for the next: centred-row blocks
    share one buffer.

    A primal combination of p <= _CENTRED_ROWS_DIM features gives each block
    as one product U[lo:hi] U[lo:]^T of its centred feature rows
    U = phi(X) - v, in the blocks of _centred_row_blocks.  Otherwise blocks
    are kernel rows centred through (phi(x), c), in the blocks of
    _pair_row_blocks; rows that are c's support are read from c._factor,
    with a Gaussian kappa(x_i, x_i) of exactly 1 (_own_kernel_blocks).
    """
    probe = _probe(spec, c, X)
    Xa = probe.points
    _check_dims(Xa, c.support)
    if _has_centred_rows(spec, c.dim, c.size):
        for lo, hi, U, out in _centred_row_blocks(spec, Xa, c):
            yield lo, hi, np.matmul(U[: hi - lo], U.T, out=out)
        return
    own = c._factor if Xa is c.support else None
    yield from _kernel_pair_blocks(spec, Xa, probe.centre_inner, c.self_inner, own)


def _has_centred_rows(spec: KernelSpec, d: int, n: int) -> bool:
    """Whether a combination of n points in d dimensions has a primal vector
    of at most _CENTRED_ROWS_DIM features, so that its centred pair blocks
    are products of centred feature rows (_centered_pair_blocks)."""
    return spec.kind != "gaussian" and poly_feature_dim(d, spec.degree) < min(n, _CENTRED_ROWS_DIM + 1)


def _pair_row_blocks(n: int) -> list:
    """(lo, hi) of the kernel-row pair blocks over n rows, from the last: at
    most ROW_BLOCK rows, and at most _PAIR_ENTRIES entries of n rounded down
    to whole groups of _ROW_GROUP rows (at least one)."""
    rows = min(ROW_BLOCK, _PAIR_ENTRIES // n) // _ROW_GROUP * _ROW_GROUP
    return list(_row_blocks(n, most=max(_ROW_GROUP, rows)))[::-1]


def _centred_row_blocks(spec: KernelSpec, X: np.ndarray, c: FeatureCombination):
    """Yield (lo, hi, U, out) over the rows of X in blocks from the last, for
    a primal combination c = v of p <= _CENTRED_ROWS_DIM features: U =
    phi(X[lo:]) - v, its centred feature rows (_centred_feature_rows), and
    out, room for an (hi - lo) x (n - lo) block.

    Blocks have 2 (p + 1) + 64 rows, rounded down to whole groups of
    _ROW_GROUP rows and capped at ROW_BLOCK - p - 1, whatever n: the fewest
    rows whose product writes more than twice the entries of the rows U[lo:]
    it reads.  phi(X) - v is formed once, at the front of one allocation
    whose rest holds the largest block, and each block in turn, so a caller
    may scale U[:hi - lo] in place for later blocks to read.  At n 2000 and
    p 21 that is 108 rows, 2.1 MB with U, where blocks of ROW_BLOCK - p - 1
    rows in an allocation of ROW_BLOCK x n entries wrote 8.1 MB.
    """
    n, p = X.shape[0], c.primal.size
    # n eps sum_i |w_i phi(s_i)|: the round-off of v (_centred_feature_rows)
    spread = sum(
        np.abs(c.weights[lo:hi]) @ np.abs(_feature_rows(c.support[lo:hi], spec.degree, spec.bias))
        for lo, hi in _row_blocks(c.size)
    )
    tol = c.size * np.finfo(float).eps * spread
    rows = min(ROW_BLOCK - p - 1, 2 * (p + 1) + 64) // _ROW_GROUP * _ROW_GROUP
    blocks = list(_row_blocks(n, most=max(_ROW_GROUP, rows)))[::-1]
    buf = np.empty(n * p + max((hi - lo) * (n - lo) for lo, hi in blocks))
    U = _centred_feature_rows(spec, X, c, tol, buf[: n * p].reshape(n, p))
    for lo, hi in blocks:
        m, cols = hi - lo, n - lo
        yield lo, hi, U[lo:], buf[n * p : n * p + m * cols].reshape(m, cols)


def _kernel_pair_blocks(spec: KernelSpec, X: np.ndarray, a: np.ndarray, self_inner: float, own: _Factor | None):
    """Yield the pair blocks of _centered_pair_blocks as kernel rows centred
    through a = (phi(x), c) and self_inner = (c, c), in the blocks of
    _pair_row_blocks (_own_kernel_blocks)."""
    for lo, hi, C in _own_kernel_blocks(spec, X, _pair_row_blocks(X.shape[0]), own):
        C -= a[lo:hi, None]
        C -= a[None, lo:]
        C += self_inner
        yield lo, hi, C
        del C  # before the next block is built


def _own_kernel_blocks(spec: KernelSpec, X: np.ndarray, blocks, own: _Factor | None):
    """Yield (lo, hi, K), K = kappa(X[lo:hi], X[lo:]), for each (lo, hi) in
    blocks.  `own` is the Gaussian factor whose support X is, or None: a
    block within _EXP_RANGE is read from it, with factor rows formed from
    that block only (_factor_rows), and kappa(x_i, x_i) is exactly 1."""
    for lo, hi in blocks:
        rows, within = _factor_rows(spec, own.m, X[lo:hi]) if own else (None, False)
        K = kernel_matrix(spec, X[lo:hi], _Factor(own.m, own.table[lo:], rows) if within else X[lo:])
        del rows  # before K is yielded
        if own:
            np.fill_diagonal(K, 1.0)
        yield lo, hi, K
        del K  # before the next block is built


def _mean_pair_blocks(spec: KernelSpec, points: np.ndarray):
    """Yield the pair blocks of _centered_pair_blocks for mu, the mean of phi
    over the points, without building mu: kernel rows of the points (read
    from a Gaussian factor, _gaussian_factor) centred through a = (phi(x_i),
    mu) and (mu, mu) = mean(a).

    a comes from the upper block triangle of the kernel rows: each block of
    _row_blocks(n, n) rows lo:hi is evaluated against rows lo: only; its row
    sums go to its own rows, and its column sums past the square go to rows
    hi:, whose entries in columns lo:hi they are by symmetry.  So the column
    costs n^2 / 2 kernel entries, not the n^2 of mean_combination's
    construction, and the pair blocks n^2 / 2 more.
    """
    own = _gaussian_factor(spec, points) if spec.kind == "gaussian" else None
    X = points if own is None else own.support
    n = X.shape[0]
    sums = np.zeros(n)
    part = np.empty(n)
    for lo, hi, K in _own_kernel_blocks(spec, X, _row_blocks(n, n), own):
        m = hi - lo
        sums[lo:hi] += np.sum(K, axis=1, out=part[:m])
        sums[hi:] += np.sum(K[:, m:], axis=0, out=part[: n - hi])
        del K
    del part  # before the pair blocks
    a = np.divide(sums, n, out=sums)
    self_inner = _clamp_sq(a.mean(), f"{spec.label} combination self inner product")
    yield from _kernel_pair_blocks(spec, X, a, self_inner, own)


def _centred_feature_rows(
    spec: KernelSpec, X: np.ndarray, c: FeatureCombination, tol: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """phi(x) - v for every row x of X and a primal combination c = v =
    sum_i w_i phi(s_i), written into `out`, with each entry within tol_j =
    n eps sum_i |w_i phi(s_i)_j| of 0 set to 0.  Each row is formed on its
    own, so any run of rows gives the same bits.

    The computed v_j is within gamma_n sum_i |w_i phi(s_i)_j| of the exact
    sum over the n support points, gamma_n = n u / (1 - n u) with u = 2^-53,
    whatever the order of the sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., section 3.1), and uniform weights fl(1/n)
    sum to 1 within u.  So an entry whose exact value is 0 reads at most
    tol_j, and zeroing it moves it by no more than its round-off: copies of
    one point centre to exactly 0, as their kernel-trick norms do.
    """
    U = _feature_rows(X, spec.degree, spec.bias, out)
    U -= c.primal
    for lo, hi in _row_blocks(U.shape[0]):
        block = U[lo:hi]
        block[np.abs(block) <= tol] = 0.0
    return U


def combo_inner(spec: KernelSpec, A: FeatureCombination, B: FeatureCombination) -> float:
    """(A, B) between two combinations, through the primal vector of either
    one when it has one, else as blocked kernel rows of A's support against B."""
    _check_combo(spec, A)
    _check_combo(spec, B)
    _check_dims(A.support, B.support)
    if A.primal is not None and B.primal is not None:
        return float(A.primal @ B.primal)
    if A.primal is not None:
        return float(B.weights @ inner_with_combo(spec, B.support, A))
    return float(A.weights @ inner_with_combo(spec, A.support, B))


class PairStats(NamedTuple):
    sq_distance: float
    inner: float


def combo_pair_stats(spec: KernelSpec, A: FeatureCombination, B: FeatureCombination) -> PairStats:
    """||A - B||^2 and (A, B) for two combinations."""
    inner = combo_inner(spec, A, B)
    return PairStats(_pair_sq_distance(spec, A, B, inner), inner)


def _pair_sq_distance(spec: KernelSpec, A: FeatureCombination, B: FeatureCombination, inner: float) -> float:
    """||A - B||^2 from inner = (A, B), clamped at zero against round-off."""
    return _clamp_sq(A.self_inner - 2.0 * inner + B.self_inner, f"{spec.label} pairwise squared distance")


# ---------------------------------------------------------------------------
# Explicit polynomial feature map.  Serves as the primal representation of
# combinations over more points than it has coordinates, and as the
# independent oracle for the kernel-trick computations above.
# ---------------------------------------------------------------------------


def poly_feature_dim(d: int, degree: int) -> int:
    """Number of monomials of total degree <= degree in d variables."""
    return math.comb(d + degree, degree)


def _monomial_levels(d: int, degree: int):
    """Yield the monomials of total degree 0, 1, ..., degree, one list per
    degree, in graded-lex order (sort by total degree, ties by the exponent
    tuple's lexicographic order).

    Each monomial is the flat list j_1, e_1, j_2, e_2, ... of its variables
    with a non-zero exponent, in increasing order, and those exponents (lists:
    CPython keeps up to 2000 freed tuples of each small length).  A monomial
    whose last variable is k (k = 0 for the constant) has the children
    m * x_j, j = d - 1 down to k; each non-constant monomial is the child of
    one m, itself less one power of its last variable, and children keep
    their parents' order, so the children of one degree's monomials, parent
    by parent, are the next degree's in graded-lex order.
    """
    level = [[]]
    for total in range(degree + 1):
        yield level
        if total < degree:
            children = []
            for m in level:
                k = m[-2] if m else 0
                children.extend(m + [j, 1] for j in range(d - 1, k, -1))
                children.append(m[:-1] + [m[-1] + 1] if m else [0, 1])
            level = children


def multi_index_basis(d: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples m with |m| <= degree, in graded lexicographic order.

    Graded-lex (sort by total degree, ties by tuple order) fixes a
    deterministic feature ordering across runs.
    """
    d, degree = _count_arg("d", d, 1), _count_arg("degree", degree, 1)
    basis: list[tuple[int, ...]] = []
    for level in _monomial_levels(d, degree):
        for m in level:
            exponents = [0] * d
            for j, e in zip(m[::2], m[1::2]):
                exponents[j] = e
            basis.append(tuple(exponents))
    return basis


def _alpha_sq(degree: int, bias: float, total: int, exponents) -> float:
    """alpha(m)^2 = C(degree, degree - |m|) * bias^(2(degree - |m|))
    * multinomial(|m|; m) of a monomial m with total degree |m| = total, the
    multinomial written as a telescoping product of binomials over suffix
    sums of its exponents in variable order.  Zero exponents may be left out:
    each contributes C(s, 0) = 1, an exact factor."""
    sq = math.comb(degree, degree - total) * _power(bias, 2 * (degree - total))
    for e in exponents:
        sq *= math.comb(total, e)
        total -= e
    return sq


def poly_coefficient(m: tuple[int, ...], degree: int, bias: float) -> float:
    """Coefficient alpha(m) making the monomial features reproduce the kernel:
    the square root of _alpha_sq."""
    degree, bias = _count_arg("degree", degree, 1), _real_arg("bias", bias, at_least=0)
    total = sum(m)
    if total > degree:
        raise ValueError(f"multi-index total degree {total} exceeds kernel degree {degree}")
    return math.sqrt(_alpha_sq(degree, bias, total, m))


@functools.lru_cache(maxsize=16)
def _feature_plan(
    d: int, degree: int, bias: float
) -> tuple[tuple[tuple[int, int, int], ...], np.ndarray]:
    """How to build every monomial of the graded-lex basis (_monomial_levels)
    from a lower one.

    A monomial p whose last variable is k has its children p * x_j,
    j = d - 1 down to k, at the d - k consecutive indices from `start`, so
    each run (parent, start, k) is one product of column p with x_{d-1}, ...,
    x_k; runs start 1 plus the d - k of every run before them.  coef[i] is
    alpha(m_i), from the same _alpha_sq as poly_coefficient, so it has the same
    bits; read-only since the cache hands it to every caller.
    """
    runs, coef = [], []
    for total, level in enumerate(_monomial_levels(d, degree)):
        coef.extend(math.sqrt(_alpha_sq(degree, bias, total, m[1::2])) for m in level)
        if total < degree:
            for m in level:
                runs.append((len(runs), runs[-1][1] + d - runs[-1][2] if runs else 1, m[-2] if m else 0))
    coef = np.array(coef)
    coef.setflags(write=False)
    return tuple(runs), coef


def _feature_rows(X: np.ndarray, degree: int, bias: float, out: np.ndarray | None = None) -> np.ndarray:
    """phi of every row of a 2-d array, without the dimension cap, written
    into `out` if given."""
    n, d = X.shape
    runs, coef = _feature_plan(d, degree, float(bias))
    mono = np.empty((n, coef.size)) if out is None else out
    mono[:, 0] = 1.0
    reversed_x = X[:, ::-1]
    for parent, start, k in runs:
        np.multiply(mono[:, parent, None], reversed_x[:, : d - k], out=mono[:, start : start + d - k])
    mono *= coef
    return mono


def _row_blocks(n: int, width: int = 1, most: int | None = None):
    """Yield (lo, hi) over n rows in blocks of at most `most` rows (ROW_BLOCK
    by default).

    Each row holds `width` entries (a support size or a feature dimension),
    and a block holds about _BLOCK_ENTRIES of them: _BLOCK_ENTRIES // width
    rows, rounded down to whole groups of _ROW_GROUP (so that only a last
    block can end in a short group) and at least one group, capped at
    `most`.  With the default width, blocks have `most` rows.
    A last block of a single row is folded into the one before it: numpy
    evaluates a one-row product with another BLAS routine, which rounds
    differently.
    """
    rows = min(ROW_BLOCK if most is None else most, max(_ROW_GROUP, _BLOCK_ENTRIES // width // _ROW_GROUP * _ROW_GROUP))
    starts = list(range(0, n, rows))
    if n > 1 and n - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [n]):
        yield lo, hi


def poly_feature_map(
    x, degree: int, bias: float, dim_cap: int = DEFAULT_FEATURE_DIM_CAP
) -> np.ndarray:
    """Explicit feature vector phi(x) of the polynomial kernel.

    Entries are alpha(m) * x^m over the graded-lex multi-index basis, so that
    dot(poly_feature_map(x), poly_feature_map(y)) == (bias^2 + x . y)^degree.
    A vector x gives a vector; an (n, d) array gives the (n, dim) rows phi(x_i).
    Raises if the feature dimension C(d + degree, degree) exceeds dim_cap.
    """
    degree, bias = _count_arg("degree", degree, 1), _real_arg("bias", bias, at_least=0)
    dim_cap = _count_arg("dim_cap", dim_cap, 1)
    arr = np.asarray(x, dtype=float)
    if arr.ndim > 2:
        raise ValueError(f"expected a vector or a 2-d point array, got shape {arr.shape}")
    X = arr.reshape(1, -1) if arr.ndim < 2 else arr
    if X.shape[1] == 0:
        raise ValueError("empty input vector")
    dim = poly_feature_dim(X.shape[1], degree)
    if dim > dim_cap:
        raise ValueError(f"feature dimension {dim} exceeds cap {dim_cap}")
    phi = _feature_rows(X, degree, bias)
    return phi if arr.ndim == 2 else phi[0]
