"""Euler-Maruyama simulation of killed diffusions.

Absorption is declared when a step leaves the domain, and additionally,
when the bridge correction is on, with probability
exp(-2 rho(x) rho(x') / (sigma_n^2 dt)) for steps that stay inside: the
one-dimensional Brownian-bridge boundary-crossing probability applied to
the boundary-distance process, with sigma_n^2 the diffusion coefficient in
the boundary-normal direction at the step start.  Discrete-exit absorption
alone is biased low (paths can cross and return between samples); the
correction is switchable for bias studies.  Off a thin band near the
boundary the probability is below every nonzero uniform, so the step builds
the normal, sigma_n^2 and the probability only in that band, sized by a
bound of sigma_n^2 from the field, and on paths whose uniform is 0 (see
`_step`).

The estimators here and in `particles` advance their paths through one
kernel, `_step`, whose noise `_variates` draws from a per-(seed, step)
Philox block (see `rng`) in slot order.  All but Fleming-Viot run on one
batch driver, `_batches`, as does the exit loop of `scale1d`; it compacts
absorbed paths away: a path's slot is its rank among its batch's alive
paths.  Its variate is then a function of (seed, step, alive slot), not of
its original index: it depends on which paths died earlier, and splitting
a batch changes the realisations.  Keying the noise by path id is item 1
of ROADMAP.md.  Independent batches of one call, one start on one seed
each, join that loop at their own step 0 as earlier paths die, each on its
own block in its own slot order, so sharing changes no variate.  The starts
of a split profile share one block: within a window, every start's path on
slot j (its row in its start's cloud) takes variate j.  Path state is held
column-major (`_columns`), so per-axis work runs on contiguous columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .domains import DomainError, InnerCompact
from .models import DiffusionModel
from .rng import _loop_generator, step_generator, stream_generator


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

_STACK = 8192  # most live coordinates (rows x d) in a loop, bar one bigger batch: arrays <= 64 KiB


def _admitted(sizes, live):
    """How many of the queued batches, of `sizes` coordinates (rows x d) each, next first,
    join a loop that holds `live` coordinates: while they fit in _STACK, and one into an empty loop."""
    k = 0
    while k < len(sizes) and (not live or live + sizes[k] <= _STACK):
        live, k = live + sizes[k], k + 1
    return k


def _columns(a):
    """(n, d) `a` column-major for d <= 7, where `domains._sum_squares` adds a row in the same order either way."""
    return np.asfortranarray(a) if a.shape[1] <= 7 else a


def _take(a, idx):
    """Rows `idx` of `a` in its layout (`take(idx, 0)` of an F array returns a C one)."""
    return a.T.take(idx, 1).T if a.ndim == 2 and a.flags.f_contiguous else a.take(idx, 0)


def _variates(dim, draws):
    """Step noise (z, u) of the live batches: each (g, k) of `draws`, one batch in order, draws k
    normal dim-vectors, row-major, then k uniforms, from its own g; z is held as `_columns` holds it."""
    if len(draws) == 1:
        [(g, k)] = draws
        return _columns(g.standard_normal((k, dim))), g.random(k)
    z = [g.standard_normal((k, dim)) for g, k in draws]
    return _columns(np.concatenate(z)), np.concatenate([g.random(k) for g, k in draws])


def _batches(dim, sizes, seeds, fill, body, n_steps, *, slots=None, visit=None, after=None):
    """Step batches k = 0, 1, ..., of sizes[k] coordinates (rows x `dim`) each, in one loop.

    The live rows are arrays `cols`, each batch's in order, the first its paths: `fill(k)`
    gives batch k's, a 2-d one held by `_columns`.  Before a step, batches at step `n_steps`
    or with no alive path retire, queued ones join at step 0 while they fit (`_admitted`),
    and `visit(k, step, x, lo, r)` sees each live batch k, rows lo:lo + r of x = cols[0].
    Batch k draws from its own generator's (seeds[k], step) block; `body(cols, noise)` gives
    the stepped cols and the alive mask they are compacted by (the mask itself if all are
    1-d and no `after`), so a row-wise body keeps each batch's bits its own.  With `slots`,
    all share the one seed `seeds`, join and retire together, and row r takes variate
    cols[-1][r] of `slots` drawn.  `after(step, idx, cols, rows)` runs after compaction
    (`idx` the alive rows, `rows` the alive paths per batch) and returns the (cols, rows)
    that go on; with it the batches share a step.
    """
    queue = [([k], s) for k, s in enumerate(sizes)] if slots is None else [(range(len(sizes)), sum(sizes))]
    cols, live, rows, queued = None, [], [], 0  # per live batch: [k, step, generator], and its alive paths

    def kept(mask):  # cols at the rows where `mask` holds, and the index they are taken by
        idx = mask if flat else np.flatnonzero(mask)
        return tuple([c[idx] for c in cols] if flat else [_take(c, idx) for c in cols]), idx

    while True:
        admit = _admitted([s for _, s in queue[queued:]], sum(rows) * dim) if queued < len(queue) else 0
        if admit:
            fresh, queued = [k for grp, _ in queue[queued : queued + admit] for k in grp], queued + admit
            cols = tuple(_columns(c) if c.ndim == 2 else c
                         for c in map(np.concatenate, zip(*([] if cols is None else [cols]), *map(fill, fresh))))
            live, rows = live + [[k, 0, _loop_generator()] for k in fresh], rows + [sizes[k] // dim for k in fresh]
            flat = after is None and all(c.ndim == 1 for c in cols)
        if visit is not None:
            for (k, step, _), r, lo in zip(live, rows, accumulate(rows, initial=0)):
                visit(k, step, cols[0], lo, r)
        done = [step == n_steps or not (r if slots is None else sum(rows)) for (_, step, _), r in zip(live, rows)]
        if any(done):
            cols, _ = kept(np.repeat(np.logical_not(done), rows))
            live, rows = [b for b, d in zip(live, done) if not d], [r for r, d in zip(rows, done) if not d]
            continue
        if not live:
            break
        if slots is None:
            noise = _variates(dim, [(step_generator(seeds[k], j, g), r) for (k, j, g), r in zip(live, rows)])
        else:
            z, u = _variates(dim, [(step_generator(seeds, live[0][1], live[0][2]), slots)])
            noise = _take(z, cols[-1]), u.take(cols[-1])
        cols, alive = body(cols, noise)
        total = np.count_nonzero(alive)
        if after is not None or total < len(alive):  # else the rows stand as they are
            cols, idx = kept(alive)
            counts = [np.count_nonzero(alive[lo : lo + r]) for r, lo in zip(rows[:-1], accumulate(rows, initial=0))]
            rows = counts + [total - sum(counts)]
        for b in live:
            b[1] += 1
        if after is not None:
            cols, rows = after(live[0][1], idx, cols, rows)


def _step(model, x, noise, dt, bridge, rho):
    """One Euler step with absorption for the k paths in `x`:
    (x_new, alive, rho_new).

    `x` has shape (k, d), in either layout; `rho`, of shape (k,), is rho_boundary(x),
    carried by every caller from the step before.  `noise` is (z, u), k normal
    d-vectors (d = model.dim) and k uniforms, row j for row j of `x`.
    A path is alive when x_new lies in the open domain {rho > 0} and, with
    `bridge`, the Brownian-bridge crossing test u < p, p = exp(-2 rho(x)
    rho(x_new) / (sigma_n^2 dt)), does not fire; sigma_n^2 = |s(x)^T nu|^2
    is `model.normal_sigma2(x)`, nu the unit normal of the nearest boundary
    face; the field s(x) is evaluated once and feeds s(x) z and sigma_n^2.
    `alive` and `rho_new` = rho_boundary(x_new) have shape (k,); non-finite
    rows of x_new are never alive.

    The normal, sigma_n^2 and p are only evaluated on the alive paths in
    the band rho(x) rho(x_new) < _BAND b dt, where b = `model.sigma2_bound`
    bounds every path's sigma_n^2, and on paths whose uniform is exactly 0;
    with no such path none of them is.  The uniforms of `Generator.random`
    are multiples of 2**-53, so out of the band u >= 2**-53 > p and u < p
    cannot hold: the alive mask is bit for bit the one of evaluating p on
    every path.  For the constant field b = sigma_n^2, so these rows are
    exactly the band of sigma_n^2 itself.
    """
    z, u = noise
    s = model.diffusion.at(x)
    x_new = x + model.drift(x) * dt + model.diffusion.apply(x, z, s) * np.sqrt(dt)
    rho1 = model.domain.rho_boundary(x_new)
    alive = rho1 > 0
    if bridge:
        near = rho * rho1 < model.sigma2_bound(rho, s) * (_BAND * dt)
        if not u.all():
            near |= u == 0
        band = np.flatnonzero(near & alive)
        if band.size:
            s2 = model.normal_sigma2(_take(x, band), s if np.ndim(s) == 0 else _take(s, band))
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                p_cross = np.exp(-2.0 * rho.take(band) * rho1.take(band) / (s2 * dt))
            alive[band[u.take(band) < p_cross]] = False  # s2 = 0 or NaN gives p = 0 or NaN: no kill
    return x_new, alive, rho1


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
    positions = [x[0].copy()]  # one per sample time up to the last one inside
    hit_time = 0.0 if target is not None and bool(target.contains(x)[0]) else np.inf

    def step(cols, noise):
        nonlocal hit_time
        x_new, alive, rho = _step(model, cols[0], noise, dt, bridge, cols[1])
        if not np.isfinite(x_new).all():
            raise NumericalBlowupError(len(positions) - 1)
        if alive[0]:
            positions.append(x_new[0].copy())
            if target is not None and hit_time == np.inf and bool(target.contains(x_new)[0]):
                hit_time = (len(positions) - 1) * dt
        return (x_new, rho), alive

    _batches(model.dim, [model.dim], [config.seed], lambda k: (x, model.domain.rho_boundary(x)), step, config.n_steps)
    k = len(positions)
    return AbsorbedPath(np.arange(k) * dt, np.array(positions), k * dt if k <= config.n_steps else np.inf, hit_time)


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
    """The step of each time; dt <= 0 or a negative time is a ValueError."""
    if dt <= 0 or any(t < 0 for t in times):
        raise ValueError("dt must be positive and every time at least 0")
    return [int(np.ceil(t / dt - 1e-9)) for t in times]


def _snapshots(model, clouds, times, dt, seeds, *, bridge=True, keep_positions=(), after=None):
    """`survival_snapshots` of every cloud k on seeds[k], in order, on
    `_batches` with one `_step` a step; every cloud, dt and time is checked
    before any step.  With one seed in place of the list, the clouds (n
    paths each) share its noise: row r takes the variates of its slot, its
    row in its cloud, the last row array.  `after` is the driver's hook,
    on cols (x, rho) or, with shared noise, (x, rho, slot).
    """
    clouds = [c[:, None] if c.ndim == 1 else c for c in (np.asarray(c, dtype=float) for c in clouds)]
    if not all(model.domain.contains(c).all() for c in clouds):
        raise DomainError("some start positions are not in the open domain")
    times = sorted(float(t) for t in times)
    snap = _snap_steps(times, dt)
    at = {s: [ti for ti, t in enumerate(snap) if t == s] for s in snap}  # the snapshots of each step
    keep = set(_snap_steps(keep_positions, dt))
    shared = np.ndim(seeds) == 0
    counts = np.zeros((len(clouds), len(times)), dtype=np.int64)  # 0 after every path died
    positions: list[dict[float, np.ndarray]] = [{} for _ in clouds]

    def fill(k):
        c = clouds[k]
        return (c, model.domain.rho_boundary(c)) + ((np.arange(len(c)),) if shared else ())

    def step(cols, noise):
        x, alive, rho = _step(model, cols[0], noise, dt, bridge, cols[1])
        return (x, rho) + cols[2:], alive

    def visit(k, step, x, lo, r):
        for ti in at.get(step, ()):
            counts[k, ti] = r
            if step in keep:
                positions[k][times[ti]] = x[lo : lo + r].copy()

    _batches(model.dim, [c.size for c in clouds], seeds, fill, step, max(snap, default=0),
             slots=len(clouds[0]) if shared and clouds else None, visit=visit, after=after)
    return [SnapshotResult(np.array(times), c, len(cloud), p) for c, cloud, p in zip(counts, clouds, positions)]


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
    [res] = _snapshots(model, [starts], times, dt, [seed], bridge=bridge, keep_positions=keep_positions)
    return res


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
    """MC estimate of the joint event {T_K <= t1} and {t1 < tau}.

    For an `InnerCompact` of the model's own domain, membership after a step
    is read off the rho_boundary that the step already computed.
    """
    pos = _start_cloud(model, x, n)
    hit = target.contains(pos)  # per alive path: has it been in K yet
    inner = isinstance(target, InnerCompact) and target.domain is model.domain

    def mark(step, idx, cols, rows):
        nonlocal hit
        hit = hit.take(idx) | (cols[1] >= target.eps if inner else target.contains(cols[0]))
        return cols, rows

    _snapshots(model, [pos], [t1], dt, [seed], bridge=bridge, after=mark)
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
    [k1] = _snap_steps([t1], dt)

    def in_tube(step, idx, cols, rows):  # kills the paths outside B(y, r) from step k1 on
        if step < k1:
            return cols, rows
        pts, rho = cols
        inside = np.flatnonzero(np.linalg.norm(pts - center, axis=1) <= radius)
        return (_take(pts, inside), rho.take(inside)), [inside.size]

    [res] = _snapshots(model, [pos], [2 * t1], dt, [seed], bridge=bridge, after=in_tube)
    p = float(res.counts[0]) / n
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
    SE), each of shape (len(times), len(xs)); a time that rounds to step 0
    gives log-survival 0 and SE 0.  Resampling correlation is ignored in the
    SE, which is therefore mildly optimistic.
    """
    xs = np.asarray(xs, dtype=float)
    times = sorted(float(t) for t in times)
    snap, m = _snap_steps(times, dt), len(xs)
    w_steps, n_steps = max(1, int(round(window / dt))), max(snap)
    log_surv, rel_var = np.zeros(m), np.zeros(m)
    at_snap = np.zeros((2, len(times), m))  # (log_surv, rel_var) at each snapshot

    def resample(step, idx, cols, rows):
        x, rho, slot = cols
        if step % w_steps == 0 and step < n_steps and any(rows):
            donors, lo = [], 0  # n picks among each live start's alive rows
            for i, k in enumerate(rows):
                if k:
                    frac = k / n
                    log_surv[i] += np.log(frac)
                    rel_var[i] += (1 - frac) / (frac * n)
                    donors.append(lo + stream_generator(seed, purpose=step * 1000 + i).integers(0, k, size=n))
                lo += k
            pick = np.concatenate(donors)
            x, rho, slot = _take(x, pick), rho.take(pick), np.tile(np.arange(n), len(donors))
            rows = [n if k else 0 for k in rows]
        at = [ti for ti, s in enumerate(snap) if s == step]
        at_snap[0, at], at_snap[1, at] = log_surv, rel_var
        return (x, rho, slot), rows

    res = _snapshots(model, [np.tile(x, (n, 1)) for x in xs], times, dt, seed, bridge=bridge, after=resample)
    out, out_se = np.full((len(times), m), -np.inf), np.full((len(times), m), np.inf)
    for (ti, i), k in np.ndenumerate(np.array([r.counts for r in res]).T):
        if k:  # else no path of start i is alive: log-survival -inf, SE inf
            frac = k / n
            out[ti, i] = at_snap[0, ti, i] + np.log(frac)
            out_se[ti, i] = np.sqrt(at_snap[1, ti, i] + (1 - frac) / (frac * n))
    return out, out_se
