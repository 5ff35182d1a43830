"""Seeded sampling on the supported data domains, plus exact cube monomial moments."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _count_arg, _real_arg

__all__ = [
    "DomainSpec",
    "Sample",
    "sample_unit_ball",
    "sample_cube",
    "sample_domain",
    "cube_moments",
    "spawn_seeds",
]

# Rows whose norms sample_unit_ball computes at a time: the squares of the
# whole draw would be one more n x d temporary.
_NORM_ROWS = 4096


@dataclass(frozen=True)
class DomainSpec:
    """A data domain to sample uniformly: the closed unit ball, or [-L, L]^d."""

    kind: str  # "unit_ball" | "cube"
    dim: int
    half_width: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("unit_ball", "cube"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        object.__setattr__(self, "dim", _count_arg("dim", self.dim, 1))
        object.__setattr__(self, "half_width", _real_arg("half_width", self.half_width, above=0))
        if self.kind == "unit_ball" and self.half_width != 1.0:
            raise ValueError(f"half_width applies to kind 'cube' only, got {self.half_width} for 'unit_ball'")


@dataclass(frozen=True, eq=False)
class Sample:
    """An (n, d) batch of sampled points with the seed that produced it."""

    points: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError(f"points must be a non-empty (n, d) array, got shape {pts.shape}")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def _adopt(cls, points: np.ndarray, seed: int) -> Sample:
        """A Sample that keeps `points`, a float (n, d) array just drawn by a
        sampler and held by nothing else, without the copy of a caller's array
        (sample_unit_ball's drawn buffers stay with a caller that refills them
        only once the Sample is out of use)."""
        points.setflags(write=False)
        sample = object.__new__(cls)
        object.__setattr__(sample, "points", points)
        object.__setattr__(sample, "seed", seed)
        return sample

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_unit_ball(d: int, n: int, seed: int, radius: float = 1.0, centre=None, *, drawn=None) -> Sample:
    """n i.i.d. points uniform in the closed ball of R^d of the given radius
    about a length-d centre (the unit ball about the origin by default).

    Direction from a normalised Gaussian vector, radius U^(1/d): exact
    uniformity in any dimension, no rejection.  The draw (_draw_ball) comes
    first; the points are then shaped in the draw's own buffers: normalised,
    scaled by radius, then shifted by centre, in place.  drawn is an (n, d)
    and an (n,) float array that _draw_ball has already filled from
    default_rng(seed), so the draw can be made ahead of the call; the points
    are built in the first of them.
    """
    d, n, seed = _count_arg("d", d, 1), _count_arg("n", n, 1), _count_arg("seed", seed, 0)
    radius = _real_arg("radius", radius, above=0)
    if centre is not None:
        centre = _real_arg("centre", centre, array=True)
        if centre.shape != (d,):
            raise ValueError(f"centre must be a vector of length d = {d}, got shape {centre.shape}")
    if drawn is None:
        drawn = np.empty((n, d)), np.empty(n)
        _draw_ball(np.random.default_rng(seed), *drawn)
    g, u = drawn
    if g.shape != (n, d) or u.shape != (n,):
        raise ValueError(f"drawn must be arrays of shapes {(n, d)} and {(n,)}, got {g.shape} and {u.shape}")
    norms = np.empty(n)
    for lo in range(0, n, _NORM_ROWS):
        # each row's norm is reduced on its own, so chunks give the same bits
        norms[lo : lo + _NORM_ROWS] = np.linalg.norm(g[lo : lo + _NORM_ROWS], axis=1)
    norms[norms == 0.0] = 1.0
    # the radii, then their ratio to the norms, in the uniforms' buffer: the
    # in-place power takes the same route (a square root at d = 2) as u ** (1 / d)
    u **= 1.0 / d
    u /= norms
    g *= u[:, None]
    g *= radius
    if centre is not None:
        g += centre
    return Sample._adopt(g, seed)


def _draw_ball(rng: np.random.Generator, g: np.ndarray, u: np.ndarray) -> None:
    """Fill g with standard normals, then u with uniforms on [0, 1): the
    draw of sample_unit_ball, into buffers its caller allocated."""
    rng.standard_normal(out=g)
    rng.random(out=u)


def sample_cube(d: int, half_width: float, n: int, seed: int) -> Sample:
    """n i.i.d. points uniform in the cube [-half_width, half_width]^d."""
    d, n, seed = _count_arg("d", d, 1), _count_arg("n", n, 1), _count_arg("seed", seed, 0)
    half_width = _real_arg("half_width", half_width, above=0)
    rng = np.random.default_rng(seed)
    return Sample._adopt(rng.uniform(-half_width, half_width, size=(n, d)), seed)


def sample_domain(domain: DomainSpec, n: int, seed: int) -> Sample:
    if domain.kind == "unit_ball":
        return sample_unit_ball(domain.dim, n, seed)
    return sample_cube(domain.dim, domain.half_width, n, seed)


def cube_moments(m, half_width: float) -> float:
    """Moment E[x^m] of the uniform distribution on [-L, L]^d.

    Zero when any exponent is odd; otherwise L^|m| / prod_i (m_i + 1).
    """
    exponents = tuple(_count_arg("m", v, 0) for v in m)
    half_width = _real_arg("half_width", half_width, above=0)
    if any(v % 2 for v in exponents):
        return 0.0
    denom = math.prod(v + 1 for v in exponents)
    return half_width ** sum(exponents) / denom


def spawn_seeds(seed: int, n: int) -> list[int]:
    """n reproducible 64-bit child seeds for independent parallel substreams."""
    seed, n = _count_arg("seed", seed, 0), _count_arg("n", n, 0)
    children = np.random.SeedSequence(seed).spawn(n)
    return [int(child.generate_state(2, np.uint32).view(np.uint64)[0]) for child in children]
