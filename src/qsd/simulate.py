"""Euler-Maruyama simulation of killed diffusions.

Absorption is declared when a step leaves the domain, and additionally,
when the bridge correction is on, with probability
exp(-2 rho(x) rho(x') / (sigma_n^2 dt)) for steps that stay inside: the
one-dimensional Brownian-bridge boundary-crossing probability applied to
the boundary-distance process, with sigma_n^2 the diffusion coefficient in
the boundary-normal direction at the step start.  Discrete-exit absorption
alone is biased low (paths can cross and return between samples); the
correction is switchable for bias studies.

The estimators here and in `particles` advance their paths through one
kernel, `_step`, which draws the step's noise from a per-(seed, step)
Philox block (see `rng`) in slot order: slot j serves row j of the paths
passed in.  Most of them compact absorbed paths away, so a path's slot is
its rank among the paths still alive at that step.  Its variate is then a
function of (seed, step, alive slot), not of its original index: it
depends on which paths died earlier, and splitting a batch changes the
realisations.  Keying the noise by path id is item 1 of ROADMAP.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import DomainError
from .models import DiffusionModel
from .rng import step_generator, stream_generator


class NumericalBlowupError(RuntimeError):
    """A path produced a non-finite coordinate."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state at step {step}")
        self.step = step


class ZeroSurvivorError(RuntimeError):
    """All paths were absorbed; increase N or reduce t."""


@dataclass(frozen=True)
class PathConfig:
    """Time step, horizon, seed and bridge-correction switch."""

    dt: float
    horizon: float
    seed: int
    bridge_correction: bool = True

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.dt > self.horizon:
            raise ValueError("dt must not exceed the horizon")

    @property
    def n_steps(self) -> int:
        return int(np.ceil(self.horizon / self.dt - 1e-9))


@dataclass(frozen=True)
class AbsorbedPath:
    """Sampled path: interior positions until absorption, then the cemetery."""

    times: np.ndarray
    positions: np.ndarray
    absorption_time: float
    hit_time: float

    @property
    def absorbed(self) -> bool:
        return np.isfinite(self.absorption_time)

    @property
    def hit(self) -> bool:
        return np.isfinite(self.hit_time)


# Edge of the bridge band, in units of sigma_n^2 dt (see `_step`): outside
# it p <= exp(-2 _BAND) < 0.3 * 2**-53.  The exact edge 53 ln(2) / 2 = 18.37
# would not do: there the computed exp already exceeds 2**-53 by 3 ulps.
_BAND = 19.0


def _step(model, x, g, dt, bridge, rho):
    """One Euler step with absorption for the paths in `x`:
    (x_new, alive, rho_new).

    `x` has shape (..., k, d); `rho`, of shape x.shape[:-1], is
    rho_boundary(x), carried by every caller from the step before.  The step
    draws k normal d-vectors (d = model.dim), then k uniforms, from `g`;
    slot j serves row j of the last-but-one axis, and every leading axis
    shares the same k slots (common random numbers).  A path is alive when
    x_new lies in the open domain {rho > 0} and, with `bridge`, the
    Brownian-bridge crossing test u < p, p = exp(-2 rho(x) rho(x_new) /
    (sigma_n^2 dt)), does not fire; sigma_n^2 = |s(x)^T nu|^2 is
    `model.normal_sigma2(x)`, nu the unit normal of the nearest boundary
    face.  `alive` and `rho_new` = rho_boundary(x_new) have shape
    x.shape[:-1]; non-finite rows of x_new are never alive.

    p is only evaluated in the band rho(x) rho(x_new) < _BAND sigma_n^2 dt,
    with sigma_n^2 each path's own normal variance, and on paths whose
    uniform is exactly 0.  The uniforms of `Generator.random` are multiples
    of 2**-53, so elsewhere u >= 2**-53 > p and u < p cannot hold: the alive
    mask is bit for bit the one of evaluating p on every path.
    """
    shape = x.shape
    z = g.standard_normal((shape[-2], model.dim))
    u = g.random(shape[-2])
    lead = math.prod(shape[:-2])
    if lead > 1:
        z, u = np.tile(z, (lead, 1)), np.tile(u, lead)
    x = x.reshape(-1, shape[-1])
    x_new = x + model.drift(x) * dt + model.diffusion.apply(x, z) * np.sqrt(dt)
    rho1 = model.domain.rho_boundary(x_new)
    alive = rho1 > 0
    if bridge:
        rho0, sig2 = rho.reshape(-1), model.normal_sigma2(x)
        band = np.flatnonzero(alive & ((rho0 * rho1 < sig2 * (_BAND * dt)) | (u == 0)))
        r0, r1, s2 = rho0[band], rho1[band], sig2[band]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p_cross = np.exp(-2.0 * r0 * r1 / (s2 * dt))
        p_cross = np.where(s2 > 0, p_cross, 0.0)
        alive[band[u[band] < p_cross]] = False
    return x_new.reshape(shape), alive.reshape(shape[:-1]), rho1.reshape(shape[:-1])


def _start_cloud(model, x, n):
    """n copies of the start x as an (n, d) cloud, checked against the open domain."""
    if n < 100:
        raise ValueError("need n >= 100")
    pos = np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (n, 1))
    if not model.domain.contains(pos).all():
        raise DomainError(f"start {x!r} is not in the open domain")
    return pos


def simulate_path(
    model: DiffusionModel,
    x0,
    config: PathConfig,
    target=None,
) -> AbsorbedPath:
    """One killed path from x0; hit_time records the first sample in `target`."""
    x = np.asarray(x0, dtype=float).reshape(1, model.dim)
    if not model.domain.contains(x)[0]:
        raise DomainError(f"start {x0!r} is not in the open domain")
    dt, bridge = config.dt, config.bridge_correction
    times = [0.0]
    positions = [x[0].copy()]
    hit_time = np.inf
    if target is not None and bool(target.contains(x)[0]):
        hit_time = 0.0
    absorption_time = np.inf
    rho = model.domain.rho_boundary(x)
    for step in range(config.n_steps):
        x_new, alive, rho_new = _step(model, x, step_generator(config.seed, step), dt, bridge, rho)
        if not np.isfinite(x_new).all():
            raise NumericalBlowupError(step)
        t = (step + 1) * dt
        if not alive[0]:
            absorption_time = t
            break
        x, rho = x_new, rho_new
        times.append(t)
        positions.append(x[0].copy())
        if target is not None and not np.isfinite(hit_time) and bool(target.contains(x)[0]):
            hit_time = t
    return AbsorbedPath(
        times=np.array(times),
        positions=np.array(positions),
        absorption_time=absorption_time,
        hit_time=hit_time,
    )


@dataclass
class SnapshotResult:
    """Alive counts (and optional alive positions) at requested times."""

    times: np.ndarray
    counts: np.ndarray
    n: int
    positions: dict[float, np.ndarray]

    def survival(self) -> np.ndarray:
        return self.counts / self.n

    def standard_errors(self) -> np.ndarray:
        p = self.survival()
        return np.sqrt(p * (1.0 - p) / self.n)


def _snap_steps(times, dt) -> list[int]:
    return [int(np.ceil(t / dt - 1e-9)) for t in times]


def survival_snapshots(
    model: DiffusionModel,
    starts: np.ndarray,
    times,
    dt: float,
    seed: int,
    *,
    bridge: bool = True,
    keep_positions=(),
) -> SnapshotResult:
    """Evolve a batch of killed paths, reporting alive counts at `times`.

    `starts` is (n, d) (a cloud) and is consumed in slot order; absorbed
    paths are compacted away.  Positions of the alive set are kept for the
    times listed in `keep_positions`.
    """
    times = sorted(float(t) for t in times)
    x = np.asarray(starts, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if not model.domain.contains(x).all():
        raise DomainError("some start positions are not in the open domain")
    snap = _snap_steps(times, dt)
    keep = {int(np.ceil(t / dt - 1e-9)) for t in keep_positions}
    counts = np.zeros(len(times), dtype=np.int64)  # 0 after every path died
    positions: dict[float, np.ndarray] = {}
    ti = 0
    n_steps = max(snap) if snap else 0
    rho = model.domain.rho_boundary(x)
    for step in range(n_steps + 1):
        while ti < len(times) and snap[ti] == step:
            counts[ti] = x.shape[0]
            if step in keep:
                positions[times[ti]] = x.copy()
            ti += 1
        if step == n_steps or x.shape[0] == 0:
            break
        x_new, alive, rho_new = _step(model, x, step_generator(seed, step), dt, bridge, rho)
        x, rho = x_new[alive], rho_new[alive]
    return SnapshotResult(
        times=np.array(times), counts=counts, n=n, positions=positions
    )


def survival_probability(
    model: DiffusionModel,
    x,
    t: float,
    n: int,
    seed: int,
    *,
    dt: float,
    bridge: bool = True,
) -> tuple[float, float]:
    """Monte-Carlo survival probability P_x(t < tau) with binomial SE."""
    if t == 0 and n >= 100:  # _start_cloud rejects n < 100
        return 1.0, 0.0
    starts = _start_cloud(model, x, n)
    res = survival_snapshots(model, starts, [t], dt, seed, bridge=bridge)
    p = float(res.counts[0]) / n
    return p, float(np.sqrt(p * (1 - p) / n))


def hitting_before(
    model: DiffusionModel,
    x,
    target,
    t1: float,
    n: int,
    seed: int,
    *,
    dt: float,
    bridge: bool = True,
) -> tuple[float, float]:
    """MC estimate of the joint event {T_K <= t1} and {t1 < tau}."""
    pos = _start_cloud(model, x, n)
    hit = target.contains(pos)
    rho = model.domain.rho_boundary(pos)
    n_steps = int(np.ceil(t1 / dt - 1e-9))
    for step in range(n_steps):
        if pos.shape[0] == 0:
            break
        new, alive, rho_new = _step(model, pos, step_generator(seed, step), dt, bridge, rho)
        pos, hit, rho = new[alive], hit[alive], rho_new[alive]
        hit |= target.contains(pos)
    p = float(hit.sum()) / n
    return p, float(np.sqrt(p * (1 - p) / n))


def tube_probability(
    model: DiffusionModel,
    x,
    y,
    radius: float,
    t1: float,
    n: int,
    seed: int,
    *,
    dt: float,
    bridge: bool = True,
) -> tuple[float, float]:
    """MC estimate of P_x(X_s in B(y, r) for every sample time in [t1, 2 t1])."""
    pos = _start_cloud(model, x, n)
    center = np.atleast_1d(np.asarray(y, dtype=float))
    k1 = int(np.ceil(t1 / dt - 1e-9))
    k2 = int(np.ceil(2 * t1 / dt - 1e-9))
    rho = model.domain.rho_boundary(pos)
    for step in range(k2):
        if pos.shape[0] == 0:
            break
        new, alive, rho_new = _step(model, pos, step_generator(seed, step), dt, bridge, rho)
        pos, rho = new[alive], rho_new[alive]
        if step + 1 >= k1:
            inside = np.linalg.norm(pos - center, axis=1) <= radius
            pos, rho = pos[inside], rho[inside]
    p = float(pos.shape[0]) / n
    return p, float(np.sqrt(p * (1 - p) / n))


def split_survival_profile(
    model: DiffusionModel,
    xs: np.ndarray,
    times,
    n: int,
    seed: int,
    *,
    dt: float,
    window: float,
    bridge: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Windowed-resampling survival estimates for deep-tail horizons.

    For each start, N particles evolve with killing; at the end of every
    window the alive fraction is recorded and the cloud is resampled back
    to N from the alive set, so the product of fractions estimates the
    survival probability without the survivor count ever collapsing.
    Increment noise is shared across starts (common random numbers), which
    stabilizes profile ratios.  Returns (log-survival, approximate relative
    SE), each of shape (len(times), len(xs)).  Resampling correlation is
    ignored in the SE, which is therefore mildly optimistic.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim == 1:
        xs = xs[:, None]
    m = xs.shape[0]
    times = sorted(float(t) for t in times)
    pos = np.repeat(xs[:, None, :], n, axis=1)  # (m, n, d)
    rho = model.domain.rho_boundary(pos.reshape(-1, model.dim)).reshape(m, n)
    log_surv = np.zeros(m)
    rel_var = np.zeros(m)
    out = np.full((len(times), m), np.nan)
    out_se = np.full((len(times), m), np.nan)
    snap = _snap_steps(times, dt)
    w_steps = max(1, int(round(window / dt)))
    n_steps = max(snap)
    ti = 0
    for step in range(n_steps):
        x_new, alive, rho_new = _step(model, pos, step_generator(seed, step), dt, bridge, rho)
        pos = np.where(alive[..., None], x_new, np.nan)
        rho = np.where(alive, rho_new, np.nan)
        if (step + 1) % w_steps == 0 and step + 1 < n_steps:
            for i in range(m):
                alive_idx = np.flatnonzero(np.isfinite(pos[i][:, 0]))
                k = alive_idx.size
                if k == 0:
                    log_surv[i] = -np.inf
                    continue
                frac = k / n
                log_surv[i] += np.log(frac)
                rel_var[i] += (1 - frac) / (frac * n)
                gi = stream_generator(seed, purpose=(step + 1) * 1000 + i)
                donors = alive_idx[gi.integers(0, k, size=n)]
                pos[i], rho[i] = pos[i][donors], rho[i][donors]
        while ti < len(times) and snap[ti] == step + 1:
            for i in range(m):
                k = int(np.isfinite(pos[i][:, 0]).sum())
                if k == 0 or not np.isfinite(log_surv[i]):
                    out[ti, i] = -np.inf
                    out_se[ti, i] = np.inf
                else:
                    frac = k / n
                    out[ti, i] = log_surv[i] + np.log(frac)
                    out_se[ti, i] = np.sqrt(rel_var[i] + (1 - frac) / (frac * n))
            ti += 1
    return out, out_se
