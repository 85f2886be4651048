"""Measures, total-variation distance and Lipschitz utilities.

The total-variation convention used throughout is the unhalved one,
``tv(a, b) = sum_i |a_i - b_i|``, so two mutually singular probability
measures are at distance 2.  Much other software halves this; every bound
in this package (``2 (1 - c1 c2)^floor(t/t0)`` and friends) carries the
factor 2 that belongs to the unhalved convention, so do not rescale.

Histogram measures compare only on identical bin grids; there is no
automatic re-binning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

MASS_RTOL = 1e-12

#: Cemetery point. Distinct from every state; metrics treat rho(x, CEMETERY)
#: as the boundary distance of x.
CEMETERY = type("Cemetery", (), {"__repr__": lambda self: "∂"})()


class SupportMismatchError(ValueError):
    """Two measures live on different supports."""


class InsufficientPointsError(ValueError):
    """A Lipschitz constant needs at least two points."""


@dataclass(frozen=True)
class BinGrid:
    """Rectangular bin grid over a box, one edge array per axis."""

    edges: tuple[tuple[float, ...], ...]

    @classmethod
    def regular(cls, lo, hi, bins) -> "BinGrid":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.isscalar(bins) or np.ndim(bins) == 0:
            bins = [int(bins)] * lo.size
        edges = tuple(
            tuple(np.linspace(lo[k], hi[k], int(bins[k]) + 1).tolist())
            for k in range(lo.size)
        )
        return cls(edges)

    @property
    def dim(self) -> int:
        return len(self.edges)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(e) - 1 for e in self.edges)

    @property
    def size(self) -> int:
        return int(np.prod(self.shape))

    def edge_arrays(self) -> list[np.ndarray]:
        return [np.asarray(e) for e in self.edges]

    def centers(self) -> np.ndarray:
        """Bin centers, shape (size, dim), flattened in C order."""
        mids = [0.5 * (e[1:] + e[:-1]) for e in self.edge_arrays()]
        grids = np.meshgrid(*mids, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin (lo, hi) corners, each of shape (size, dim)."""
        los = [np.asarray(e[:-1]) for e in self.edges]
        his = [np.asarray(e[1:]) for e in self.edges]
        glo = np.meshgrid(*los, indexing="ij")
        ghi = np.meshgrid(*his, indexing="ij")
        return (
            np.stack([g.ravel() for g in glo], axis=1),
            np.stack([g.ravel() for g in ghi], axis=1),
        )


@dataclass(frozen=True)
class Measure:
    """Nonnegative weights over the bins of a grid."""

    support: BinGrid
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            w = w.ravel()
        if w.size != self.support.size:
            raise ValueError(
                f"weight vector of length {w.size} on support of size {self.support.size}"
            )
        if (w < 0).any():
            raise ValueError("negative weight in measure")
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def is_distribution(self) -> bool:
        return abs(self.mass - 1.0) <= MASS_RTOL * max(1.0, self.mass)


def tv_distance(a, b) -> float:
    """Unhalved total-variation distance, sum_i |a_i - b_i|.

    Accepts two Measures on identical supports, or two equal-length weight
    vectors.
    """
    if isinstance(a, Measure) or isinstance(b, Measure):
        if not (isinstance(a, Measure) and isinstance(b, Measure)):
            raise SupportMismatchError("cannot compare a Measure with a bare vector")
        if a.support != b.support:
            raise SupportMismatchError(f"supports differ: {a.support} vs {b.support}")
        return float(np.abs(a.weights - b.weights).sum())
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SupportMismatchError(f"weight shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def lipschitz_constant(
    points: Sequence, values: Sequence[float], metric: Callable
) -> float:
    """Largest |v(x) - v(y)| / rho(x, y) over distinct pairs of points.

    Discretizes the sup-gradient of a function over a supplied point set.
    `metric` must be positive for distinct points.
    """
    pts = list(points)
    vals = np.asarray(values, dtype=float)
    if len(pts) < 2:
        raise InsufficientPointsError(f"need >= 2 points, got {len(pts)}")
    if vals.size != len(pts):
        raise ValueError("points and values length mismatch")
    best = 0.0
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(metric(pts[i], pts[j]))
            if d <= 0:
                raise ValueError(f"metric is not positive for pair ({i}, {j})")
            q = abs(vals[i] - vals[j]) / d
            if q > best:
                best = q
    return best


@dataclass(frozen=True)
class FiniteStateSpace:
    """Finite state space {0..n-1} embedded in R^d, with the distance
    rho(x, CEMETERY) of every state to the cemetery.

    It is the metric of diffusion probe grids: the gradient and h_t
    profiles embed their points and take the domain's boundary distance,
    so this class is the one place that knows the distance to the cemetery.
    """

    n: int
    embedding: np.ndarray
    boundary_distance: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one state")
        e = np.asarray(self.embedding, dtype=float)
        if e.ndim == 1:
            e = e[:, None]
        if e.shape[0] != self.n:
            raise ValueError("embedding must provide one point per state")
        object.__setattr__(self, "embedding", e)
        b = np.asarray(self.boundary_distance, dtype=float)
        if b.shape != (self.n,) or (b < 0).any():
            raise ValueError("boundary_distance must be n nonnegative reals")
        object.__setattr__(self, "boundary_distance", b)

    def rho_boundary(self, i) -> float:
        return 0.0 if i is CEMETERY else float(self.boundary_distance[i])

    def metric(self, i, j) -> float:
        if i is CEMETERY and j is CEMETERY:
            return 0.0
        if i is CEMETERY:
            return self.rho_boundary(j)
        if j is CEMETERY:
            return self.rho_boundary(i)
        if i == j:
            return 0.0
        return float(np.linalg.norm(self.embedding[i] - self.embedding[j]))


def histogram_from_samples(grid: BinGrid, samples: np.ndarray) -> Measure:
    """Bin samples (m, dim) onto `grid` and normalize to a distribution."""
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("no samples to bin")
    counts, _ = np.histogramdd(pts, bins=grid.edge_arrays())
    total = counts.sum()
    if total == 0:
        raise ValueError("all samples fell outside the bin grid")
    return Measure(grid, counts.ravel() / total)


def write_histogram_csv(path, hist: Measure) -> None:
    """Histogram CSV: bin_lo per axis, bin_hi per axis, weight."""
    grid = hist.support
    lo, hi = grid.bounds()
    d = grid.dim
    cols = [f"bin_lo{k}" for k in range(d)] + [f"bin_hi{k}" for k in range(d)] + ["weight"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for b in range(grid.size):
            row = [format(v, ".17g") for v in lo[b]] + [
                format(v, ".17g") for v in hi[b]
            ] + [format(hist.weights[b], ".17g")]
            fh.write(",".join(row) + "\n")
