"""Independent oracles for the test suite.

Everything here is computed by a route disjoint from the package code:
finite-difference Dirichlet eigenproblems, Gaussian image series,
adaptive quadrature, dense eigensolvers and brute-force enumerations.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal
from scipy.stats import norm


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
