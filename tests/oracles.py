"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package code:
finite-difference Dirichlet eigenproblems, Gaussian image series,
adaptive quadrature, dense eigensolvers and brute-force enumerations.
The Monte-Carlo kernels at the end are the plain forms of the package's
step, rebirth and binning code: the crossing probability on every path,
one donor draw per dead particle, and one `searchsorted` per axis.  The
boundary geometry before them keeps each domain's own open-domain test and
normal encoding (the axis itself, a nearest-axis index, unit vectors).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.stats import norm

from qsd.domains import Box, Interval
from qsd.models import ConstantIsotropic
from qsd.rng import step_generator


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


# --- boundary geometry, one encoding per domain -----------------------------------


def contains_reference(domain, x) -> np.ndarray:
    """Open-domain membership by each domain's own strict inequalities."""
    p = np.asarray(x, dtype=float).reshape(-1, domain.dim)
    if isinstance(domain, Interval):
        return (p[:, 0] > domain.lo) & (p[:, 0] < domain.hi)
    if isinstance(domain, Box):
        return ((p > np.asarray(domain.lo)) & (p < np.asarray(domain.hi))).all(axis=1)
    return np.linalg.norm(p - np.asarray(domain.center), axis=1) < domain.radius


def normal_sigma2_reference(model, x) -> np.ndarray:
    """sigma_n^2 for a constant or diagonal Hoelder field, the normal
    encoded per domain: the axis itself on an interval, the `argmin` axis
    of the face gaps on a box (a tie goes to the lower axis), and the unit
    vector from the centre on a ball (the first axis at the centre)."""
    dom, f = model.domain, model.diffusion
    p = np.asarray(x, dtype=float).reshape(-1, model.dim)
    if isinstance(f, ConstantIsotropic):
        return np.full(p.shape[0], f.sigma**2)
    s = f.base + f.amp * np.abs(p - np.asarray(f.center, dtype=float)) ** f.exponent
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
