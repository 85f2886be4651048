"""Measures, total-variation distance, histogram binning and the grid
Lipschitz constant.

The total-variation convention used throughout is the unhalved one,
``tv(a, b) = sum_i |a_i - b_i|``, so two mutually singular probability
measures are at distance 2.  Much other software halves this; every bound
in this package (``2 (1 - c1 c2)^floor(t/t0)`` and friends) carries the
factor 2 that belongs to the unhalved convention, so do not rescale.

Histogram measures compare only on identical bin grids; there is no
automatic re-binning.  Every histogram bins through one kernel,
`_bin_index` plus `np.bincount`.  The Lipschitz constant of a function on
a point set counts the cemetery, where the function vanishes, at its
distance rho(x) from each point x; `lipschitz_constant` takes the points,
the values and rho as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MASS_RTOL = 1e-12


class SupportMismatchError(ValueError):
    """Two measures live on different supports."""


@dataclass(frozen=True)
class BinGrid:
    """Rectangular bin grid over a box, one edge array per axis."""

    edges: tuple[tuple[float, ...], ...]

    @classmethod
    def regular(cls, lo, hi, bins) -> "BinGrid":
        lo, hi = np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
        bins = np.broadcast_to(bins, lo.shape)  # one count for every axis, or one per axis
        return cls(tuple(tuple(np.linspace(a, b, int(k) + 1).tolist()) for a, b, k in zip(lo, hi, bins)))

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
        return _product([0.5 * (e[1:] + e[:-1]) for e in self.edge_arrays()])

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bin (lo, hi) corners, each of shape (size, dim)."""
        edges = self.edge_arrays()
        return _product([e[:-1] for e in edges]), _product([e[1:] for e in edges])


def _product(axes) -> np.ndarray:
    """Rows of the C-order Cartesian product of per-axis arrays."""
    return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)


@dataclass(frozen=True)
class Measure:
    """Nonnegative weights over the bins of a grid."""

    support: BinGrid
    weights: np.ndarray = field(repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=float).ravel()  # a copy, flattened
        if w.size != self.support.size:
            raise ValueError(f"weight vector of length {w.size} on support of size {self.support.size}")
        if (w < 0).any():
            raise ValueError("negative weight in measure")
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
        a, b = a.weights, b.weights
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise SupportMismatchError(f"weight shapes differ: {a.shape} vs {b.shape}")
    return float(np.abs(a - b).sum())


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of `diff` (k, dim), rounded exactly as
    `np.linalg.norm(row)`: both take the square root of one dot product."""
    return np.sqrt(diff[:, None, :] @ diff[:, :, None]).ravel()


def lipschitz_constant(points, values, rho):
    """Largest |v_i - v_j| / |x_i - x_j| over pairs of points, and
    |v_i| / rho_i: the value 0 at the cemetery, at distance rho_i from x_i.

    `points` is (m, dim) (or (m,) on a line), `values` and `rho` are (m,).
    rho_i = inf leaves the cemetery out.  Equal points, or a distance to
    the cemetery that is not positive, raise `ValueError`.
    """
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    vals, rho = np.asarray(values, dtype=float), np.asarray(rho, dtype=float)
    if vals.shape != (len(pts),) or rho.shape != vals.shape:
        raise ValueError(f"need one value and one rho per point: {len(pts)} points, got {vals.shape} and {rho.shape}")
    i, j = np.triu_indices(len(pts), 1)
    d = _norms(pts[i] - pts[j])
    if (d <= 0).any() or (rho <= 0).any():
        raise ValueError("a point coincides with another point or with the cemetery")
    return np.concatenate([np.abs(vals[i] - vals[j]) / d, np.abs(vals) / rho]).max()


def _bin_index(edges, pts: np.ndarray) -> np.ndarray:
    """Flat C-order bin of each point of `pts` (m, dim) on the grid with
    edge arrays `edges` (`BinGrid.edge_arrays()`), clipped to the grid.

    Per axis this is clip(searchsorted(e, x, side="right") - 1, 0,
    bins - 1), exactly, for every grid: bin i holds lo[i] <= x < hi[i],
    with the interior edges padded by -inf and +inf.  The floor of
    (x - e[0]) / mean width is kept where it satisfies that, and the few
    points where it does not (rounding at an edge, an irregular grid) are
    binary-searched.
    """
    flat = np.zeros(pts.shape[0], dtype=np.intp)
    for e, x in zip(edges, np.ascontiguousarray(pts.T)):
        top = e.size - 2
        i = np.floor((x - e[0]) * ((top + 1) / (e[-1] - e[0])))
        i = np.fmin(np.fmax(i, 0), top).astype(np.intp)
        inner = e[1:-1]
        bad = ~((np.append(-np.inf, inner)[i] <= x) & (x < np.append(inner, np.inf)[i]))
        if bad.any():
            i[bad] = np.clip(np.searchsorted(e, x[bad], side="right") - 1, 0, top)
        flat = flat * (top + 1) + i
    return flat


def histogram_from_samples(grid: BinGrid, samples: np.ndarray) -> Measure:
    """Bin samples (m, dim) onto `grid` and normalize to a distribution.

    Samples outside the grid's closed box (or with a NaN) are dropped; a
    sample on the last edge of an axis falls in that axis's last bin.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("no samples to bin")
    if pts.shape[1] != grid.dim:
        raise ValueError(f"{pts.shape[1]}-d samples on a {grid.dim}-d grid")
    edges = grid.edge_arrays()
    inside = np.logical_and.reduce([(e[0] <= x) & (x <= e[-1]) for e, x in zip(edges, pts.T)])
    if not inside.all():
        pts = pts[inside]
    if pts.shape[0] == 0:
        raise ValueError("all samples fell outside the bin grid")
    return Measure(grid, np.bincount(_bin_index(edges, pts), minlength=grid.size) / pts.shape[0])


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
