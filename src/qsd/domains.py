"""Bounded Euclidean domains: the one owner of boundary geometry.

For points x of shape (n, d), `rho_boundary(x)` is the exact signed
distance to the boundary, positive inside, and `contains(x)` is the open
domain rho_boundary(x) > 0 (a row with a NaN is never inside).
`normal_sigma2(x, diffusion)` builds the unit normal nu, shape (n, d), of
the boundary face nearest to x and returns `diffusion.normal_sigma2(x, nu)`
= |s(x)^T nu|^2, so the sign of nu does not enter.  On a box a tie goes to
the lower axis; at the centre of a ball nu is the first axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


class DomainError(ValueError):
    """A point violates a domain precondition."""


def _as_points(x, dim: int) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim == 0:
        p = p.reshape(1, 1)
    elif p.ndim == 1:
        p = p.reshape(1, dim) if p.size == dim else p.reshape(-1, 1)
    if p.shape[1] != dim:
        raise DomainError(f"points of dimension {p.shape[1]} in a {dim}-d domain")
    return p


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("need lo < hi")

    dim = 1

    @property
    def inradius(self) -> float:
        return 0.5 * (self.hi - self.lo)

    def contains(self, x) -> np.ndarray:
        return self.rho_boundary(x) > 0

    def rho_boundary(self, x) -> np.ndarray:
        p = _as_points(x, 1)[:, 0]
        return np.minimum(p - self.lo, self.hi - p)

    def normal_sigma2(self, x, diffusion) -> np.ndarray:
        p = _as_points(x, 1)
        return diffusion.normal_sigma2(p, np.ones_like(p))

    def boundary_points(self) -> np.ndarray:
        return np.array([[self.lo], [self.hi]])

    def uniform(self, g: np.random.Generator, n: int, margin: float = 0.0) -> np.ndarray:
        return g.uniform(self.lo + margin, self.hi - margin, size=(n, 1))

    def extreme_points(self) -> np.ndarray:
        return self.boundary_points()

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.array([self.lo]), np.array([self.hi])


@dataclass(frozen=True)
class Box:
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi) or any(a >= b for a, b in zip(lo, hi)):
            raise ValueError("need lo < hi per axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def inradius(self) -> float:
        return 0.5 * min(b - a for a, b in zip(self.lo, self.hi))

    def _face_gaps(self, p: np.ndarray) -> list[np.ndarray]:
        """Per axis, the distance from each point to the nearer of its two faces."""
        return [np.minimum(c - a, b - c) for c, a, b in zip(p.T, self.lo, self.hi)]

    def contains(self, x) -> np.ndarray:
        return self.rho_boundary(x) > 0

    def rho_boundary(self, x) -> np.ndarray:
        return reduce(np.minimum, self._face_gaps(_as_points(x, self.dim)))

    def normal_sigma2(self, x, diffusion) -> np.ndarray:
        p = _as_points(x, self.dim)
        gaps = self._face_gaps(p)
        rho = reduce(np.minimum, gaps)
        # nu = e_k for the first axis k whose face gap is rho
        nu = np.zeros_like(p)
        free = np.ones(p.shape[0], dtype=bool)
        for k, gap in enumerate(gaps):
            nu[:, k] = hit = free & (gap == rho)
            free &= ~hit
        return diffusion.normal_sigma2(p, nu)

    def boundary_points(self) -> np.ndarray:
        # face centers
        mid = 0.5 * (np.asarray(self.lo) + np.asarray(self.hi))
        pts = []
        for k in range(self.dim):
            for v in (self.lo[k], self.hi[k]):
                q = mid.copy()
                q[k] = v
                pts.append(q)
        return np.array(pts)

    def uniform(self, g: np.random.Generator, n: int, margin: float = 0.0) -> np.ndarray:
        lo = np.asarray(self.lo) + margin
        hi = np.asarray(self.hi) - margin
        return g.uniform(lo, hi, size=(n, self.dim))

    def extreme_points(self) -> np.ndarray:
        corners = np.stack(
            np.meshgrid(*[(a, b) for a, b in zip(self.lo, self.hi)], indexing="ij"),
            axis=-1,
        ).reshape(-1, self.dim)
        return corners

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo), np.asarray(self.hi)


@dataclass(frozen=True)
class Ball:
    center: tuple[float, ...]
    radius: float

    def __post_init__(self):
        c = tuple(float(v) for v in np.atleast_1d(self.center))
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return len(self.center)

    @property
    def inradius(self) -> float:
        return self.radius

    def contains(self, x) -> np.ndarray:
        return self.rho_boundary(x) > 0

    def rho_boundary(self, x) -> np.ndarray:
        p = _as_points(x, self.dim)
        return self.radius - np.linalg.norm(p - np.asarray(self.center), axis=1)

    def normal_dirs(self, x) -> np.ndarray:
        """Unit vectors from the centre through each point; the first axis at the centre."""
        v = _as_points(x, self.dim) - np.asarray(self.center)
        r = np.linalg.norm(v, axis=1)
        centre = r <= 1e-300
        v[centre] = np.eye(self.dim)[0]
        r[centre] = 1.0
        return v / r[:, None]

    def normal_sigma2(self, x, diffusion) -> np.ndarray:
        p = _as_points(x, self.dim)
        return diffusion.normal_sigma2(p, self.normal_dirs(p))

    def boundary_points(self) -> np.ndarray:
        c = np.asarray(self.center)
        pts = []
        for k in range(self.dim):
            e = np.zeros(self.dim)
            e[k] = self.radius
            pts.extend([c + e, c - e])
        return np.array(pts)

    def extreme_points(self) -> np.ndarray:
        return self.boundary_points()

    def uniform(self, g: np.random.Generator, n: int, margin: float = 0.0) -> np.ndarray:
        r = self.radius - margin
        out = np.empty((n, self.dim))
        filled = 0
        while filled < n:
            cand = g.uniform(-r, r, size=(2 * (n - filled) + 8, self.dim))
            keep = cand[np.linalg.norm(cand, axis=1) < r]
            take = min(keep.shape[0], n - filled)
            out[filled : filled + take] = keep[:take]
            filled += take
        return out + np.asarray(self.center)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        c = np.asarray(self.center)
        return c - self.radius, c + self.radius


Domain = Interval | Box | Ball


@dataclass(frozen=True)
class InnerCompact:
    """The inner compact M_eps = {rho_boundary >= eps} of a domain."""

    domain: Domain
    eps: float

    def __post_init__(self):
        if not 0 < self.eps < self.domain.inradius:
            raise ValueError("eps must lie in (0, inradius)")

    def contains(self, x) -> np.ndarray:
        return self.domain.rho_boundary(x) >= self.eps


@dataclass(frozen=True)
class BallTarget:
    """A closed ball target set for hitting probes."""

    center: tuple[float, ...]
    radius: float

    def contains(self, x) -> np.ndarray:
        p = np.asarray(x, dtype=float)
        if p.ndim == 1:
            p = p.reshape(1, -1)
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        return np.linalg.norm(p - c, axis=1) <= self.radius
