"""Diffusion models: drift/diffusion fields with declared ellipticity bounds.

The declared bounds (sigma_min2, sigma_max2, drift_bound) are the user's
standing assumptions; `validate_model` spot-checks them on a sampled grid
rather than proving them.  Built-in fields keep exact bounds.

A diffusion field s(x) is square, d x d: `apply(x, z)` is s(x) z, and
`normal_sigma2(x, nu)` is |s(x)^T nu|^2 for the unit normals nu, shape
(n, d), of the nearest boundary faces that the domain builds (`domains`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domains import Ball, Box, Domain, Interval
from .report import VerificationReport
from .rng import stream_generator


class ModelBoundsError(ValueError):
    """Declared ellipticity or drift bounds fail on the sampled grid."""


# --- diffusion coefficient fields --------------------------------------------


@dataclass(frozen=True)
class ConstantIsotropic:
    """s(x) = sigma * I."""

    sigma: float

    def apply(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self.sigma * z

    def normal_sigma2(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        # |sigma nu|^2 = sigma^2 for a unit vector nu
        return np.full(x.shape[0], self.sigma**2)

    def bounds_on(self, pts: np.ndarray) -> tuple[float, float]:
        return self.sigma**2, self.sigma**2


@dataclass(frozen=True)
class DiagonalHolder:
    """Diagonal field s_ii(x) = base + amp * |x_i - center_i|^exponent.

    Hölder-continuous of order `exponent` in each coordinate; amp = 0
    recovers a constant diagonal field.
    """

    base: float
    amp: float = 0.0
    exponent: float = 0.5
    center: tuple[float, ...] = (0.0,)

    def _sig(self, x: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=float)
        return self.base + self.amp * np.abs(x - c) ** self.exponent

    def apply(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return self._sig(x) * z

    def normal_sigma2(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return ((self._sig(x) * nu) ** 2).sum(axis=1)

    def bounds_on(self, pts: np.ndarray) -> tuple[float, float]:
        s = self._sig(pts)
        # eigenvalues of ss* are the squared diagonal entries
        return float((s**2).min()), float((s**2).max())


@dataclass(frozen=True)
class MatrixField:
    """General square s: (n, d) -> (n, d, d)."""

    fn: Callable[[np.ndarray], np.ndarray]

    def apply(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        return np.einsum("nij,nj->ni", self.fn(x), z)

    def normal_sigma2(self, x: np.ndarray, nu: np.ndarray) -> np.ndarray:
        return (np.einsum("nij,ni->nj", self.fn(x), nu) ** 2).sum(axis=1)

    def bounds_on(self, pts: np.ndarray) -> tuple[float, float]:
        s = self.fn(pts)
        a = np.einsum("nij,nkj->nik", s, s)
        ev = np.linalg.eigvalsh(a)
        return float(ev.min()), float(ev.max())


# --- drift fields -------------------------------------------------------------


@dataclass(frozen=True)
class ZeroDrift:
    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    def bound_on(self, pts: np.ndarray) -> float:
        return 0.0


@dataclass(frozen=True)
class ConstantDrift:
    value: tuple[float, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.value, dtype=float), x.shape)

    def bound_on(self, pts: np.ndarray) -> float:
        return float(np.linalg.norm(self.value))


@dataclass(frozen=True)
class LinearDrift:
    """b(x) = gain * (x - target), pointing inward for negative gain... or outward."""

    gain: float
    target: tuple[float, ...]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.gain * (x - np.asarray(self.target, dtype=float))

    def bound_on(self, pts: np.ndarray) -> float:
        return float(
            np.abs(self.gain) * np.linalg.norm(pts - np.asarray(self.target), axis=1).max()
        )


@dataclass(frozen=True)
class CallableDrift:
    fn: Callable[[np.ndarray], np.ndarray]
    declared_bound: float

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.fn(x)

    def bound_on(self, pts: np.ndarray) -> float:
        return float(np.linalg.norm(self.fn(pts), axis=1).max())


# --- the model -----------------------------------------------------------------


@dataclass(frozen=True)
class DiffusionModel:
    """SDE dX = b(X) dt + s(X) dB killed at the domain boundary."""

    domain: Domain
    drift: object
    diffusion: object
    sigma_min2: float
    sigma_max2: float
    drift_bound: float
    name: str = ""

    @property
    def dim(self) -> int:
        return self.domain.dim

    def normal_sigma2(self, x: np.ndarray) -> np.ndarray:
        return self.domain.normal_sigma2(x, self.diffusion)


def validate_model(model: DiffusionModel, n: int = 256, seed: int = 0) -> VerificationReport:
    """Spot-check the declared bounds on a sampled interior grid."""
    g = stream_generator(seed, purpose=7)
    pts = model.domain.uniform(g, n)
    lo, hi = model.diffusion.bounds_on(pts)
    b = model.drift.bound_on(pts)
    rep = VerificationReport(title=f"model bounds ({model.name or 'anonymous'})")
    rep.check_ge("ellipticity-lower", lo, model.sigma_min2, tol=1e-9)
    rep.check_le("ellipticity-upper", hi, model.sigma_max2, tol=1e-9)
    rep.check_le("drift-bound", b, model.drift_bound, tol=1e-9)
    return rep


def brownian_interval(lo: float, hi: float, sigma: float = 1.0) -> DiffusionModel:
    return DiffusionModel(
        domain=Interval(lo, hi),
        drift=ZeroDrift(),
        diffusion=ConstantIsotropic(sigma),
        sigma_min2=sigma**2,
        sigma_max2=sigma**2,
        drift_bound=0.0,
        name=f"bm({lo},{hi})",
    )


# --- registry -----------------------------------------------------------------


def _build_domain(spec: str) -> Domain:
    toks = spec.split()
    kind = toks[0]
    vals = [float(t) for t in toks[1:]]
    if kind == "interval":
        if len(vals) != 2:
            raise ValueError("interval needs: lo hi")
        return Interval(vals[0], vals[1])
    if kind == "box":
        if len(vals) < 2 or len(vals) % 2:
            raise ValueError("box needs: lo... hi... (d each)")
        d = len(vals) // 2
        return Box(tuple(vals[:d]), tuple(vals[d:]))
    if kind == "ball":
        if len(vals) < 2:
            raise ValueError("ball needs: center... radius")
        return Ball(tuple(vals[:-1]), vals[-1])
    raise ValueError(f"unknown domain kind {kind!r}")


def _build_drift(spec: str, domain: Domain):
    toks = spec.split()
    kind = toks[0]
    vals = [float(t) for t in toks[1:]]
    if kind == "zero":
        return ZeroDrift()
    if kind == "constant":
        if len(vals) != domain.dim:
            raise ValueError(f"constant drift needs {domain.dim} components")
        return ConstantDrift(tuple(vals))
    if kind == "linear":
        if len(vals) != 1 + domain.dim:
            raise ValueError(f"linear drift needs: gain target({domain.dim})")
        return LinearDrift(vals[0], tuple(vals[1:]))
    raise ValueError(f"unknown drift kind {kind!r}")


def _build_diffusion(spec: str, domain: Domain):
    toks = spec.split()
    kind = toks[0]
    vals = [float(t) for t in toks[1:]]
    if kind == "constant":
        if len(vals) != 1:
            raise ValueError("constant diffusion needs: sigma")
        return ConstantIsotropic(vals[0])
    if kind == "diagonal_holder":
        if len(vals) != 3 + domain.dim:
            raise ValueError(
                f"diagonal_holder needs: base amp exponent center({domain.dim})"
            )
        return DiagonalHolder(vals[0], vals[1], vals[2], tuple(vals[3:]))
    raise ValueError(f"unknown diffusion kind {kind!r}")


def build_model(
    domain_spec: str, drift_spec: str, diffusion_spec: str, name: str = ""
) -> DiffusionModel:
    """Resolve a model from registry strings and compute its declared bounds.

    Bounds are taken as the extremes over a deterministic sample of the
    domain, padded by 1e-9; exact for the constant built-ins.
    """
    domain = _build_domain(domain_spec)
    drift = _build_drift(drift_spec, domain)
    diffusion = _build_diffusion(diffusion_spec, domain)
    g = stream_generator(0, purpose=11)
    # extremes of the built-in fields live on the closed domain's corners
    pts = np.vstack([domain.uniform(g, 512), domain.extreme_points()])
    lo, hi = diffusion.bounds_on(pts)
    b = drift.bound_on(pts)
    model = DiffusionModel(
        domain=domain,
        drift=drift,
        diffusion=diffusion,
        sigma_min2=lo - 1e-9,
        sigma_max2=hi + 1e-9,
        drift_bound=b + 1e-9,
        name=name or f"{domain_spec}|{drift_spec}|{diffusion_spec}",
    )
    return model
