"""Particle estimators of conditioned laws and quasi-stationary distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import DomainError
from .measures import BinGrid, Measure, _bin_index, histogram_from_samples
from .models import DiffusionModel
from .rng import _loop_generator, step_generator, stream_generator
from .simulate import ZeroSurvivorError, _columns, _snapshots, _start_cloud, _step, _variates
from .simulate import survival_snapshots  # noqa: F401  (importable from here, as before)


class ExtinctionError(RuntimeError):
    """Every particle was absorbed in a single step (dt too large near the boundary)."""


@dataclass(frozen=True)
class ParticleCloud:
    positions: np.ndarray
    time: float
    rebirths: int


def domain_grid(model: DiffusionModel, bins) -> BinGrid:
    if isinstance(bins, BinGrid):
        return bins
    lo, hi = model.domain.bounds()
    return BinGrid.regular(lo, hi, bins)


def conditional_rejection(
    model: DiffusionModel,
    x,
    t: float,
    n: int,
    bins,
    seed: int,
    *,
    dt: float,
    bridge: bool = True,
) -> tuple[Measure, float]:
    """Conditioned law at time t by rejection: bin the survivors of n paths."""
    if t <= 0:
        raise ValueError("need t > 0")
    hists, survs = conditioned_law_series(
        model, x, [t], n, bins, seed, dt=dt, bridge=bridge
    )
    if hists[0] is None:
        raise ZeroSurvivorError(
            f"no survivors at t={t} out of {n} paths; increase n or reduce t"
        )
    return hists[0], float(survs[0])


def conditioned_law_series(
    model: DiffusionModel,
    x,
    times,
    n: int,
    bins,
    seed: int,
    *,
    dt: float,
    bridge: bool = True,
) -> tuple[list[Measure | None], np.ndarray]:
    """Conditioned-law histograms and survival estimates on a time grid.

    Results follow the ascending-sorted time grid; entries are None at
    times where no path survived.
    """
    return _conditioned_laws(model, [x], times, n, bins, [seed], dt=dt, bridge=bridge)[0]


def _conditioned_laws(model, xs, times, n, bins, seeds, *, dt, bridge=True):
    """`conditioned_law_series` from every start xs[k] on seeds[k], one
    (histograms, survival) pair per start, with the batches stepped
    together (`simulate._snapshots`); every start is checked first."""
    clouds = [_start_cloud(model, x, n) for x in xs]
    grid = domain_grid(model, bins)

    def law(pts) -> Measure | None:
        return None if pts is None or pts.shape[0] == 0 else histogram_from_samples(grid, pts)

    res = _snapshots(model, clouds, times, dt, seeds, bridge=bridge, keep_positions=times)
    return [([law(r.positions.get(float(t))) for t in r.times], r.survival()) for r in res]


@dataclass(frozen=True)
class FlemingViotResult:
    final_histogram: Measure
    occupation: Measure
    rebirth_times: np.ndarray
    rebirth_rates: np.ndarray
    total_rebirths: int
    cloud: ParticleCloud

    def mean_rebirth_rate(self, t_lo: float, t_hi: float) -> float:
        """Mean rebirths per particle per unit time over [t_lo, t_hi]."""
        sel = (self.rebirth_times >= t_lo) & (self.rebirth_times <= t_hi)
        if not sel.any():
            raise ValueError("empty rebirth-rate window")
        return float(self.rebirth_rates[sel].mean())


def fleming_viot_run(
    model: DiffusionModel,
    n: int,
    horizon: float,
    bins,
    seed: int,
    *,
    dt: float,
    burn_in: float | None = None,
    init: np.ndarray | None = None,
    bridge: bool = True,
    rate_bins: int = 100,
) -> FlemingViotResult:
    """Fleming-Viot particle system: absorbed particles restart at a
    uniformly chosen alive particle.

    Multiple absorptions in one step are resolved sequentially in particle
    index order (an O(dt) artifact); previously reborn particles count as
    alive donors.  The occupation measure time-averages the binned cloud
    after `burn_in` (default horizon/2); a `burn_in` that leaves no step to
    average is a ValueError, raised before any step.
    """
    if n < 2:
        raise ValueError("need at least 2 particles")
    if burn_in is None:
        burn_in = horizon / 2.0
    grid = domain_grid(model, bins)
    if init is None:
        g0 = stream_generator(seed, purpose=1)
        pos = model.domain.uniform(g0, n, margin=model.domain.inradius / 4.0)
    else:
        pos = np.asarray(init, dtype=float)
        if pos.ndim == 1:
            pos = pos[:, None]
        if pos.shape != (n, model.dim):
            raise ValueError(f"init cloud must have shape ({n}, {model.dim})")
        if not model.domain.contains(pos).all():
            raise DomainError("initial cloud must lie in the open domain")
    n_steps = int(np.ceil(horizon / dt - 1e-9))
    burn_steps = int(np.ceil(burn_in / dt - 1e-9))
    if burn_steps >= n_steps:
        raise ValueError(f"burn_in {burn_in} leaves none of the {n_steps} steps of dt {dt} to accumulate")
    edges = grid.edge_arrays()
    occ = np.zeros(grid.size)
    rebirth_count = np.zeros(n_steps, dtype=np.int64)
    total = 0
    pos, rho, own = _columns(pos), model.domain.rho_boundary(pos), _loop_generator()
    for step in range(n_steps):
        g = step_generator(seed, step, own)  # also draws the rebirth donors
        pos, alive, rho = _step(model, pos, _variates(model.dim, [(g, n)]), dt, bridge, rho)
        dead = np.flatnonzero(~alive)
        if dead.size:
            alive_idx = np.flatnonzero(alive)
            a = alive_idx.size
            if not a:
                raise ExtinctionError(
                    f"all {n} particles absorbed at step {step}; reduce dt"
                )
            # dead[j] draws one of the a + j particles alive before it: the
            # alive ones, then dead[0..j-1], already reborn
            pick = g.integers(0, a + np.arange(dead.size))
            donor = alive_idx[np.minimum(pick, a - 1)]
            for j in np.flatnonzero(pick >= a):
                donor[j] = donor[pick[j] - a]
            pos[dead] = pos[donor]
            rho[dead] = rho[donor]
            rebirth_count[step] = dead.size
            total += int(dead.size)
        if step >= burn_steps:
            occ += np.bincount(_bin_index(edges, pos), minlength=grid.size)
    occupation = Measure(grid, occ / occ.sum())
    final_histogram = histogram_from_samples(grid, pos)
    # rebirth-rate series on a coarse time grid
    rb = max(1, n_steps // rate_bins)
    k_full = (n_steps // rb) * rb
    counts = rebirth_count[:k_full].reshape(-1, rb).sum(axis=1)
    mids = (np.arange(counts.size) + 0.5) * rb * dt
    rates = counts / (n * rb * dt)
    return FlemingViotResult(
        final_histogram=final_histogram,
        occupation=occupation,
        rebirth_times=mids,
        rebirth_rates=rates,
        total_rebirths=total,
        cloud=ParticleCloud(positions=pos, time=n_steps * dt, rebirths=total),
    )


@dataclass(frozen=True)
class Lambda0Fit:
    lambda0: float
    r_squared: float | None
    se: float | None
    window: tuple[float, float]
    n_points: int


def lambda0_estimate(
    times,
    values,
    *,
    kind: str = "survival",
    window: tuple[float, float] | None = None,
) -> Lambda0Fit:
    """Decay-rate estimate.

    kind="survival": least-squares slope of -ln p against t over the
    window (needs >= 5 positive entries).  kind="rebirth": mean rebirth
    rate per particle over the window, with the SE of the mean.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError("times and values must have equal length")
    if window is None:
        window = (float(t.min()), float(t.max()))
    sel = (t >= window[0] - 1e-12) & (t <= window[1] + 1e-12)
    t, v = t[sel], v[sel]
    if kind == "survival":
        if t.size < 5:
            raise ValueError("need at least 5 points in the window")
        if (v <= 0).any():
            raise ValueError("survival entries must be positive")
        y = -np.log(v)
        A = np.vstack([t, np.ones_like(t)]).T
        coef, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ coef
        ss_tot = float(((y - y.mean()) ** 2).sum())
        r2 = 1.0 - float((resid**2).sum()) / ss_tot if ss_tot > 0 else 1.0
        return Lambda0Fit(float(coef[0]), r2, None, window, int(t.size))
    if kind == "rebirth":
        if t.size < 1:
            raise ValueError("empty rebirth window")
        se = float(v.std(ddof=1) / np.sqrt(t.size)) if t.size > 1 else None
        return Lambda0Fit(float(v.mean()), None, se, window, int(t.size))
    raise ValueError(f"unknown kind {kind!r}")
