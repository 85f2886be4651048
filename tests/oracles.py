"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package code:
finite-difference Dirichlet eigenproblems, Gaussian image series,
adaptive quadrature, dense eigensolvers and brute-force enumerations.
Two finite-chain loops are the exception: the batched survival-ratio and
conditioned-TV loops the package ran before it cached the survival
sequence and stepped in blocks, kept as bit-for-bit references.
The Monte-Carlo kernels at the end are the plain forms of the package's
step, rebirth and binning code: the crossing probability on every path,
one donor draw per dead particle, and one `searchsorted` per axis.  The
boundary geometry before them keeps each domain's own open-domain test and
normal encoding (the axis itself, a nearest-axis index, unit vectors).
The batch loops (snapshots, hitting, tube, windowed splitting) and the
one-path loop of `simulate_path` each step on their own with that plain
step, where the package runs them all on one batch driver.  Last come the grid Lipschitz constant as a pairwise loop
over the points and a cemetery label through a metric callable, and
histograms by `np.histogramdd`, both as the package computed them before
one array kernel each.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.stats import norm

from qsd.domains import Box, Interval
from qsd.models import ConstantIsotropic
from qsd.rng import step_generator, stream_generator
from qsd.simulate import AbsorbedPath, NumericalBlowupError


# --- 1-d Dirichlet eigensolver (finite differences) ---------------------------


def fd_dirichlet(lo: float, hi: float, npts: int = 1024, nmodes: int = 8):
    """Eigenpairs of -(1/2) u'' with zero boundary values on (lo, hi).

    Returns (x, eigenvalues, eigenvectors, h) on npts interior points;
    eigenvectors are l2-orthonormal columns.
    """
    h = (hi - lo) / (npts + 1)
    x = lo + h * np.arange(1, npts + 1)
    d = np.full(npts, 1.0 / h**2)
    e = np.full(npts - 1, -0.5 / h**2)
    vals, vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, nmodes - 1))
    return x, vals, vecs, h


def ground_profile_hist(lo: float, hi: float, bins: int, npts: int = 1024) -> np.ndarray:
    """QSD histogram (probability per bin) from the FD ground state."""
    x, _, vecs, _ = fd_dirichlet(lo, hi, npts, 1)
    w = np.maximum(vecs[:, 0] * np.sign(vecs[:, 0].sum()), 0.0)
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, bins - 1)
    hist = np.bincount(idx, weights=w, minlength=bins)
    return hist / hist.sum()


def survival_series(x0: float, times, lo: float, hi: float, npts: int = 2048, nmodes: int = 80):
    """P_x0(t < tau) for killed BM via the FD eigen-series."""
    x, vals, vecs, h = fd_dirichlet(lo, hi, npts, nmodes)
    phi = vecs / np.sqrt(h)
    i0 = int(np.argmin(np.abs(x - x0)))
    coef = phi[i0] * (phi.sum(axis=0) * h)
    return np.array([float(np.sum(coef * np.exp(-vals * t))) for t in np.atleast_1d(times)])


def reflection_survival(x: float, t: float, lo: float, hi: float, kmax: int = 25) -> float:
    """Survival of killed BM on (lo, hi) by the Gaussian image series."""
    L = hi - lo
    x = x - lo
    s = 0.0
    rt = np.sqrt(t)
    for k in range(-kmax, kmax + 1):
        s += norm.cdf((L - x - 2 * k * L) / rt) - norm.cdf((-x - 2 * k * L) / rt)
        s -= norm.cdf((L + x - 2 * k * L) / rt) - norm.cdf((x - 2 * k * L) / rt)
    return float(s)


# --- finite-chain oracles -------------------------------------------------------


def dense_left_perron(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """QSD and Perron value from a dense eigensolver."""
    vals, vecs = np.linalg.eig(Q.T)
    i = int(np.argmax(vals.real))
    a = vecs[:, i].real
    a = a / a.sum()
    return a, float(vals[i].real)


def dense_right_perron(Q: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eig(Q)
    i = int(np.argmax(vals.real))
    v = vecs[:, i].real
    v = v / np.abs(v).max()
    if v.max() < 0:
        v = -v
    return v


def minimal_c_for_mu(P: np.ndarray, mu: np.ndarray, c_grid: np.ndarray) -> float:
    """Smallest c on the grid admitting some f with the two-sided sandwich.

    Feasibility of c for row x: some f(x) with max_y P_xy/(c mu_y) <= f(x)
    <= c min_y P_xy/mu_y, i.e. the interval is nonempty.
    """
    r = P / mu[None, :]
    for c in np.sort(c_grid):
        if (r.max(axis=1) / c <= c * r.min(axis=1) + 1e-15).all():
            return float(c)
    return float("inf")


def survival_ratio_series(Q: np.ndarray, pi: np.ndarray, horizon: int) -> np.ndarray:
    """pi(Q^t 1)/max(Q^t 1) for t = 0..horizon, max-renormalized, one law at a time."""
    v = np.ones(Q.shape[0])
    vals = []
    for _ in range(horizon + 1):
        vals.append(float(pi @ v) / float(v.max()))
        v = Q @ v
        v = v / v.max()
    return np.array(vals)


def brute_force_survival_ratio(Q: np.ndarray, pi: np.ndarray, horizon: int) -> float:
    """min over t <= horizon of pi(Q^t 1)/max(Q^t 1), max-renormalized."""
    return float(survival_ratio_series(Q, pi, horizon).min())


def conditioned_tv_series(Q: np.ndarray, pi1, pi2, t_max: int) -> np.ndarray:
    """Unhalved TV between conditioned pi1 Q^t and pi2 Q^t, t = 0..t_max, one pair at a time."""
    d1, d2 = np.asarray(pi1, dtype=float), np.asarray(pi2, dtype=float)
    tvs = []
    for _ in range(t_max + 1):
        tvs.append(float(np.abs(d1 - d2).sum()))
        d1 = d1 @ Q
        d1 = d1 / d1.sum()
        d2 = d2 @ Q
        d2 = d2 / d2.sum()
    return np.array(tvs)


def survival_ratios_reference(Q: np.ndarray, laws: np.ndarray, horizon: int) -> np.ndarray:
    """c_t(pi) for every row pi of `laws`, t = 0..horizon, renormalizing v each step.

    The package's batched loop before it cached the survival sequence; its
    arithmetic is the package's, so results agree bit for bit.
    """
    v = np.ones(Q.shape[0])
    vals = np.empty((len(laws), horizon + 1))
    for t in range(horizon + 1):
        vals[:, t] = (laws @ v) / v.max()
        v = Q @ v
        v /= v.max()
    return vals


def conditioned_tv_reference(Q: np.ndarray, laws: np.ndarray, pairs: np.ndarray, t_max: int) -> np.ndarray:
    """TVs between the conditioned laws of every row (i, j) of `pairs`, one step at a time.

    The package's batched loop before it stepped in blocks; its arithmetic
    is the package's, so results agree bit for bit.
    """
    d = laws
    tvs = np.empty((len(pairs), t_max + 1))
    for t in range(t_max + 1):
        tvs[:, t] = np.abs(d[pairs[:, 0]] - d[pairs[:, 1]]).sum(axis=1)
        d = d @ Q
        d /= d.sum(axis=1, keepdims=True)
    return tvs


def condition_A_prime_brute(Q: np.ndarray, K, t1: int, horizon: int) -> tuple[float, float, float]:
    """(c1', c2', A) of condition (A') by an explicit double loop over state pairs.

    nu_{x,y} is built pair by pair; c2' is the survival-ratio minimum over
    every pair and t <= horizon, floored by its limit from the dense right
    Perron vector.
    """
    n = Q.shape[0]
    K = np.asarray(K)
    P2 = np.linalg.matrix_power(Q, 2 * t1)
    cond2 = P2 / P2.sum(axis=1, keepdims=True)
    A = float(cond2[:, K].sum(axis=1).min())
    mins = np.minimum(P2[K][:, None, :], P2[K][None, :, :])
    masses = np.empty((n, n))
    nus = np.empty((n, n, n))
    for x in range(n):
        for y in range(n):
            raw = np.einsum("u,v,uvk->k", cond2[x][K], cond2[y][K], mins)
            masses[x, y] = raw.sum()
            nus[x, y] = raw / masses[x, y]
    eta = dense_right_perron(Q)
    c2 = min(
        min(survival_ratio_series(Q, nus[x, y], horizon).min() for x in range(n) for y in range(n)),
        float((nus @ eta).min() / eta.max()),
    )
    return float(masses.min()), float(c2), A


def nu_xy_brute(Q: np.ndarray, K, t1: int, x: int, y: int, f: np.ndarray) -> tuple[float, float]:
    """Direct double-sum evaluation of the pair-minorization functional.

    Returns (nu_{x,y}(f), m_{x,y}) with explicit loops over (u, u') in K^2.
    """
    P2 = np.linalg.matrix_power(Q, 2 * t1)
    px = P2[x] / P2[x].sum()
    py = P2[y] / P2[y].sum()
    total = 0.0
    mass = 0.0
    for u in K:
        for up in K:
            m_uu = np.minimum(P2[u], P2[up])
            w = px[u] * py[up]
            total += w * float(m_uu @ f)
            mass += w * float(m_uu.sum())
    return total / mass, mass


def random_positive_chain(rng: np.random.Generator, n: int, row_sum: float = 0.9) -> np.ndarray:
    Q = rng.uniform(size=(n, n))
    return Q * (row_sum / Q.sum(axis=1, keepdims=True))


# --- quadrature oracles ---------------------------------------------------------


def green_constant_quad(a: float, eps1: float) -> float:
    val, _ = quad(lambda v: 1.0 / (1.0 + 2 * a * v) ** 2, 0.0, eps1 / 2, epsabs=1e-14, epsrel=1e-14)
    return 2.0 * val


def exit_time_quad(a: float, u: float, L: float) -> float:
    val, _ = quad(
        lambda v: (1.0 - max(u, v) / L) * min(u, v) / (1.0 + 2 * a * v) ** 2,
        0.0,
        L,
        points=[u],
        epsabs=1e-14,
        epsrel=1e-14,
    )
    return 2.0 * val


def natural_scale_exit_time_mc(a: float, u: float, L: float, n: int, dt: float, seed: int) -> tuple[float, float]:
    """Plain-Euler MC mean exit time of dN=(1+2aN)dW from (0, L) (independent code path)."""
    g = np.random.default_rng(seed)
    pos = np.full(n, u)
    t_exit = np.zeros(n)
    alive = np.arange(n)
    sqdt = np.sqrt(dt)
    step = 0
    while alive.size:
        step += 1
        sig = 1.0 + 2 * a * pos[alive]
        new = pos[alive] + sig * sqdt * g.standard_normal(alive.size)
        uu = g.random(alive.size)
        p_hi = np.exp(-2 * np.maximum(L - pos[alive], 0) * np.maximum(L - new, 0) / (sig**2 * dt))
        p_lo = np.exp(-2 * np.maximum(pos[alive], 0) * np.maximum(new, 0) / (sig**2 * dt))
        out = (new <= 0) | (new >= L) | (uu < p_hi + p_lo)
        t_exit[alive[out]] = step * dt
        pos[alive[~out]] = new[~out]
        alive = alive[~out]
        if step > 10_000_000:
            raise RuntimeError("exit-time oracle did not terminate")
    return float(t_exit.mean()), float(t_exit.std(ddof=1) / np.sqrt(n))


def exit_mc_reference(a: float, u: float, hi: float, horizon: float, n: int, seed: int, *, dt: float):
    """The natural-scale exit loop of `scale1d.natural_scale_exit_mc` as one
    start on its own: the full-length cloud stays behind an index of live
    paths, and every step gathers their positions.  Returns (state,
    exit_time): 1 = hit hi first, 2 = hit 0 first, 3 = inside at the horizon."""
    pos = np.full(n, float(u))
    state = np.zeros(n, dtype=np.int8)
    exit_time = np.full(n, np.inf)
    idx = np.arange(n)
    sqdt = np.sqrt(dt)
    for step in range(int(np.ceil(horizon / dt - 1e-9))):
        if idx.size == 0:
            break
        g = step_generator(seed, step)
        z = g.standard_normal(idx.size)
        un = g.random(idx.size)
        sig = 1.0 + 2.0 * a * pos[idx]
        new = pos[idx] + sig * sqdt * z
        var = sig * sig * dt
        p_hi = np.exp(-2.0 * np.maximum(hi - pos[idx], 0) * np.maximum(hi - new, 0) / var)
        p_lo = np.exp(-2.0 * np.maximum(pos[idx], 0) * np.maximum(new, 0) / var)
        hit_hi = (new >= hi) | (un < p_hi)
        hit_lo = (new <= 0) | (~hit_hi & (un >= p_hi) & (un < p_hi + p_lo))
        state[idx[hit_hi]] = 1
        state[idx[hit_lo]] = 2
        exit_time[idx[hit_hi | hit_lo]] = (step + 1) * dt
        keep = ~(hit_hi | hit_lo)
        pos[idx[keep]] = new[keep]
        idx = idx[keep]
    state[idx] = 3
    return state, exit_time


# --- boundary geometry, one encoding per domain -----------------------------------


def contains_reference(domain, x) -> np.ndarray:
    """Open-domain membership by each domain's own strict inequalities."""
    p = np.asarray(x, dtype=float).reshape(-1, domain.dim)
    if isinstance(domain, Interval):
        return (p[:, 0] > domain.lo) & (p[:, 0] < domain.hi)
    if isinstance(domain, Box):
        return ((p > np.asarray(domain.lo)) & (p < np.asarray(domain.hi))).all(axis=1)
    return np.linalg.norm(p - np.asarray(domain.center), axis=1) < domain.radius


def rho_reference(domain, x) -> np.ndarray:
    """Signed boundary distance by numpy's own reductions over the axes."""
    p = np.asarray(x, dtype=float).reshape(-1, domain.dim)
    if isinstance(domain, (Interval, Box)):
        lo, hi = np.atleast_1d(domain.lo), np.atleast_1d(domain.hi)
        return np.minimum(p - lo, hi - p).min(axis=1)
    return domain.radius - np.linalg.norm(p - np.asarray(domain.center), axis=1)


def diagonal_field_reference(f, x) -> np.ndarray:
    """The (n, d) diagonal of a constant or diagonal Hoelder field at x."""
    p = np.asarray(x, dtype=float)
    if isinstance(f, ConstantIsotropic):
        return np.full(p.shape, float(f.sigma))
    return f.base + f.amp * np.abs(p - np.asarray(f.center, dtype=float)) ** f.exponent


def normal_sigma2_reference(model, x) -> np.ndarray:
    """sigma_n^2 for a constant or diagonal Hoelder field, the normal
    encoded per domain: the axis itself on an interval, the `argmin` axis
    of the face gaps on a box (a tie goes to the lower axis), and the unit
    vector from the centre on a ball (the first axis at the centre)."""
    dom, f = model.domain, model.diffusion
    p = np.asarray(x, dtype=float).reshape(-1, model.dim)
    if isinstance(f, ConstantIsotropic):
        return np.full(p.shape[0], f.sigma**2)
    s = diagonal_field_reference(f, p)
    if isinstance(dom, Interval):
        return s[:, 0] ** 2
    if isinstance(dom, Box):
        gaps = np.minimum(p - np.asarray(dom.lo), np.asarray(dom.hi) - p)
        return s[np.arange(p.shape[0]), gaps.argmin(axis=1)] ** 2
    v = p - np.asarray(dom.center)
    r = np.linalg.norm(v, axis=1, keepdims=True)
    dirs = np.where(r > 1e-300, v / np.maximum(r, 1e-300), 0.0)
    dirs[r[:, 0] <= 1e-300] = np.eye(model.dim)[0]
    return ((s * dirs) ** 2).sum(axis=1)


# --- Monte-Carlo kernels, unoptimised ------------------------------------------


def step_reference(model, x, g, dt, bridge):
    """One Euler step with absorption, (x_new, alive), the crossing
    probability exp(-2 rho(x) rho(x_new) / (sigma_n^2 dt)) evaluated on
    every path.  Draws k normal vectors, then k uniforms, from `g`."""
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
        rho0 = model.domain.rho_boundary(x)
        sig2 = normal_sigma2_reference(model, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            p_cross = np.exp(-2.0 * rho0 * np.maximum(rho1, 0.0) / (sig2 * dt))
        p_cross = np.where(sig2 > 0, p_cross, 0.0)
        alive &= ~(u < p_cross)
    return x_new.reshape(shape), alive.reshape(shape[:-1])


def bin_index_reference(edges, pts: np.ndarray) -> np.ndarray:
    """Flat C-order bin of each point, clipped searchsorted per axis."""
    shape = tuple(e.size - 1 for e in edges)
    idx = [
        np.clip(np.searchsorted(e, pts[:, k], side="right") - 1, 0, shape[k] - 1)
        for k, e in enumerate(edges)
    ]
    return np.ravel_multi_index(idx, shape)


def fleming_viot_reference(model, pos, n_steps, edges, seed, *, dt, burn_steps, bridge=True):
    """Fleming-Viot loop with rebirths drawn one dead particle at a time.

    Dead particles restart in index order at a uniform pick among the
    alive ones and those reborn before them.  Returns (occupation counts,
    rebirths per step, final cloud, number of rebirths whose donor was
    itself reborn in the same step).
    """
    occ = np.zeros(math.prod(e.size - 1 for e in edges))
    rebirths = np.zeros(n_steps, dtype=np.int64)
    chained = 0
    for step in range(n_steps):
        g = step_generator(seed, step)
        pos, alive = step_reference(model, pos, g, dt, bridge)
        dead = np.flatnonzero(~alive)
        alive_idx = list(np.flatnonzero(alive))
        n_alive = len(alive_idx)
        for i in dead:
            pick = int(g.integers(0, len(alive_idx)))
            chained += pick >= n_alive
            pos[i] = pos[alive_idx[pick]]
            alive_idx.append(int(i))
        rebirths[step] = dead.size
        if step >= burn_steps:
            occ += np.bincount(bin_index_reference(edges, pos), minlength=occ.size)
    return occ, rebirths, pos, chained


# --- batch estimator loops, as they stood on their own ------------------------------


def path_reference(model, x0, config, target=None):
    """The loop of `simulate.simulate_path` as it stood on its own: one path,
    one row of noise from a fresh `step_generator(seed, step)` every step,
    the times appended as (step + 1) dt, and hit_time the first of them in
    `target`.  A non-finite step raises `NumericalBlowupError(step)`."""
    x = np.asarray(x0, dtype=float).reshape(1, model.dim)
    times, positions = [0.0], [x[0].copy()]
    hit_time = 0.0 if target is not None and bool(target.contains(x)[0]) else np.inf
    absorption_time = np.inf
    for step in range(config.n_steps):
        x_new, alive = step_reference(model, x, step_generator(config.seed, step), config.dt, config.bridge_correction)
        if not np.isfinite(x_new).all():
            raise NumericalBlowupError(step)
        t = (step + 1) * config.dt
        if not alive[0]:
            absorption_time = t
            break
        x = x_new
        times.append(t)
        positions.append(x[0].copy())
        if target is not None and not np.isfinite(hit_time) and bool(target.contains(x)[0]):
            hit_time = t
    return AbsorbedPath(np.array(times), np.array(positions), absorption_time, hit_time)



def snapshots_reference(model, cloud, times, dt, seed, *, bridge=True):
    """Alive counts and alive positions of one cloud at each of the sorted
    `times`: a plain loop that steps the survivors, fresh `step_generator`
    per step, and drops the dead by boolean mask."""
    pos = np.asarray(cloud, dtype=float)
    snap = [int(np.ceil(t / dt - 1e-9)) for t in sorted(times)]
    counts, positions = [], []
    for step in range(max(snap) + 1):
        for _ in range(snap.count(step)):
            counts.append(pos.shape[0])
            positions.append(pos.copy())
        if pos.shape[0] == 0 or step == max(snap):
            break
        new, alive = step_reference(model, pos, step_generator(seed, step), dt, bridge)
        pos = new[alive]
    counts += [0] * (len(snap) - len(counts))
    return np.array(counts), positions


def hitting_reference(model, x, target, t1, n, seed, *, dt, bridge=True):
    """The loop of `simulate.hitting_before` as it stood on its own: a hit
    mask per alive path, compacted with the survivors and OR-ed with
    membership in `target` after every step."""
    pos = np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (n, 1))
    hit = target.contains(pos)
    for step in range(int(np.ceil(t1 / dt - 1e-9))):
        if pos.shape[0] == 0:
            break
        new, alive = step_reference(model, pos, step_generator(seed, step), dt, bridge)
        pos, hit = new[alive], hit[alive]
        hit |= target.contains(pos)
    p = float(hit.sum()) / n
    return p, float(np.sqrt(p * (1 - p) / n))


def tube_reference(model, x, y, radius, t1, n, seed, *, dt, bridge=True):
    """The loop of `simulate.tube_probability` as it stood on its own: from
    step k1 on, the paths outside B(y, r) are dropped after every step."""
    pos = np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (n, 1))
    center = np.atleast_1d(np.asarray(y, dtype=float))
    k1 = int(np.ceil(t1 / dt - 1e-9))
    for step in range(int(np.ceil(2 * t1 / dt - 1e-9))):
        if pos.shape[0] == 0:
            break
        new, alive = step_reference(model, pos, step_generator(seed, step), dt, bridge)
        pos = new[alive]
        if step + 1 >= k1:
            pos = pos[np.linalg.norm(pos - center, axis=1) <= radius]
    p = float(pos.shape[0]) / n
    return p, float(np.sqrt(p * (1 - p) / n))


def split_profile_reference(model, xs, times, n, seed, *, dt, window, bridge=True):
    """The windowed-splitting loop of `simulate.split_survival_profile` as it
    stood on its own: every start's n rows in one (m, n, d) array, dead rows
    kept as NaN and stepped until a window's end resamples the start, and
    row j of every start on slot j of the step's noise.  A time that rounds
    to step 0 is never recorded (NaN)."""
    xs = np.asarray(xs, dtype=float).reshape(len(xs), -1)
    m = xs.shape[0]
    times = sorted(float(t) for t in times)
    snap = [int(np.ceil(t / dt - 1e-9)) for t in times]
    w_steps = max(1, int(round(window / dt)))
    pos = np.repeat(xs[:, None, :], n, axis=1)
    log_surv, rel_var = np.zeros(m), np.zeros(m)
    out = np.full((len(times), m), np.nan)
    out_se = np.full((len(times), m), np.nan)
    ti, n_steps = 0, max(snap)
    for step in range(n_steps):
        with np.errstate(invalid="ignore"):
            new, alive = step_reference(model, pos, step_generator(seed, step), dt, bridge)
        pos = np.where(alive[..., None], new, np.nan)
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
                pos[i] = pos[i][alive_idx[gi.integers(0, k, size=n)]]
        while ti < len(times) and snap[ti] == step + 1:
            for i in range(m):
                k = int(np.isfinite(pos[i][:, 0]).sum())
                if k == 0 or not np.isfinite(log_surv[i]):
                    out[ti, i], out_se[ti, i] = -np.inf, np.inf
                else:
                    frac = k / n
                    out[ti, i] = log_surv[i] + np.log(frac)
                    out_se[ti, i] = np.sqrt(rel_var[i] + (1 - frac) / (frac * n))
            ti += 1
    return out, out_se


# --- grid Lipschitz constant and histograms, before one kernel each ---------------

CEMETERY = type("Cemetery", (), {"__repr__": lambda self: "∂"})()


def lipschitz_reference(points, values, rho):
    """Largest |v(a) - v(b)| / metric(a, b) over distinct pairs of the
    labels 0..m-1 and CEMETERY, where v vanishes.  The metric is Euclidean
    between points, one `np.linalg.norm` per pair, and rho[i] between point
    i and the cemetery."""
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    rho = np.asarray(rho, dtype=float)

    def metric(i, j) -> float:
        if i is CEMETERY and j is CEMETERY:
            return 0.0
        if i is CEMETERY:
            return float(rho[j])
        if j is CEMETERY:
            return float(rho[i])
        if i == j:
            return 0.0
        return float(np.linalg.norm(pts[i] - pts[j]))

    labels = list(range(len(pts))) + [CEMETERY]
    vals = np.append(np.asarray(values, dtype=float), 0.0)
    best = 0.0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            d = metric(labels[i], labels[j])
            if d <= 0:
                raise ValueError(f"metric is not positive for pair ({i}, {j})")
            q = abs(vals[i] - vals[j]) / d
            if q > best:
                best = q
    return best


def histogram_reference(grid, samples) -> np.ndarray:
    """Normalized `np.histogramdd` counts on the grid's edges, flattened in
    C order: samples outside the closed box are dropped."""
    pts = np.asarray(samples, dtype=float)
    counts, _ = np.histogramdd(pts[:, None] if pts.ndim == 1 else pts, bins=grid.edge_arrays())
    return counts.ravel() / counts.sum()
