"""Scale-function and speed-measure machinery for drifted Brownian comparison.

The comparison process is Brownian motion with constant downward drift
rate a; its scale function f(x) = (e^{2ax} - 1)/(2a) turns it into a
martingale N with dN = (1 + 2 a N) dW and speed density (1 + 2av)^{-2}.
All Green-formula integrals are evaluated in closed form; Monte-Carlo
routines exist only to confront the closed forms and the escape bounds.
The u's of an escape check share one loop, `simulate._batches`, each at its
own step and on its own (seed, step) block in its own slot order, so sharing
changes no variate.  Its step evaluates the two bridge-crossing
probabilities only near a barrier, where they can fire (see `_exit_mc`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .report import VerificationReport
from .simulate import _BAND, _batches

_A_TINY = 1e-12


def scale_function(a: float, x) -> float | np.ndarray:
    """f(x) = (e^{2ax} - 1) / (2a); the limit x as a -> 0."""
    x = np.asarray(x, dtype=float)
    if a < 0:
        raise ValueError("a must be nonnegative")
    if a < _A_TINY:
        out = x
    else:
        out = np.expm1(2.0 * a * x) / (2.0 * a)
    return float(out) if out.ndim == 0 else out


def scale_inverse(a: float, y) -> float | np.ndarray:
    """f^{-1}(y) = ln(1 + 2ay) / (2a)."""
    y = np.asarray(y, dtype=float)
    if a < _A_TINY:
        out = y
    else:
        out = np.log1p(2.0 * a * y) / (2.0 * a)
    return float(out) if out.ndim == 0 else out


def green_constants(a: float, eps1: float) -> tuple[float, float]:
    """(C_eps1, s1): C = 2 int_0^{eps1/2} dv/(1+2av)^2 = eps1/(1 + a eps1),
    and the escape-time budget s1 = eps1 * C."""
    if a < 0 or eps1 <= 0:
        raise ValueError("need a >= 0 and eps1 > 0")
    c = eps1 if a < _A_TINY else eps1 / (1.0 + a * eps1)
    return c, eps1 * c


def _I1(a: float, w: float) -> float:
    """int_0^w v (1+2av)^{-2} dv."""
    if a < _A_TINY:
        return 0.5 * w * w
    t = 2.0 * a * w
    return (np.log1p(t) - t / (1.0 + t)) / (4.0 * a * a)


def _J(a: float, u: float, L: float) -> float:
    """int_u^L (1+2av)^{-2} dv."""
    if a < _A_TINY:
        return L - u
    return (1.0 / (1.0 + 2.0 * a * u) - 1.0 / (1.0 + 2.0 * a * L)) / (2.0 * a)


def expected_exit_time(a: float, u: float, L: float) -> float:
    """Green-formula mean exit time of the natural-scale martingale from (0, L):
    E_u(T_0 ^ T_L) = 2 int_0^L (1 - (u v v)/L)(u ^ v) dv/(1+2av)^2."""
    if not 0 <= u <= L:
        raise ValueError("need 0 <= u <= L")
    if u == 0 or u == L:
        return 0.0
    return 2.0 * (
        (1.0 - u / L) * _I1(a, u) + u * (_J(a, u, L) - (_I1(a, L) - _I1(a, u)) / L)
    )


@dataclass(frozen=True)
class DriftedBMParams:
    """Derived constants of the drifted-Brownian comparison argument.

    a is the effective downward drift scale (drift bound over the
    ellipticity floor); eps0 is the boundary-collar width in the original
    coordinate; everything else follows: eps1 = f(eps0), the Green constant
    C_eps1, the time budget s1 = eps1 C_eps1, the half-collar pullback
    eps = f^{-1}(eps1 / 2).
    """

    a: float
    eps0: float

    def __post_init__(self):
        if self.a < 0 or self.eps0 <= 0:
            raise ValueError("need a >= 0 and eps0 > 0")

    @property
    def eps1(self) -> float:
        return float(scale_function(self.a, self.eps0))

    @property
    def c_eps1(self) -> float:
        return green_constants(self.a, self.eps1)[0]

    @property
    def s1(self) -> float:
        return green_constants(self.a, self.eps1)[1]

    @property
    def eps(self) -> float:
        return float(scale_inverse(self.a, self.eps1 / 2.0))

    def t1(self, sigma_min2: float) -> float:
        """Original-coordinate time budget s1 / sigma_min^2."""
        if sigma_min2 <= 0:
            raise ValueError("sigma_min2 must be positive")
        return self.s1 / sigma_min2


def natural_scale_exit_mc(
    a: float,
    u: float,
    hi: float,
    horizon: float,
    n: int,
    seed: int,
    *,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Simulate dN = (1 + 2aN) dW from u on (0, hi) up to `horizon`.

    Returns (state, exit_time): state 1 = hit hi first, 2 = hit 0 first,
    3 = still inside at the horizon.  Both barriers get the Brownian-bridge
    crossing correction with the locally frozen volatility.  One uniform
    decides between the two barriers and the exit side is recorded, which
    is why its step is not the alive-mask kernel `simulate._step`.
    """
    if not 0 < u < hi:
        raise ValueError("need 0 < u < hi")
    return _exit_mc(a, [u], hi, horizon, n, [seed], dt=dt)[0]


def _exit_mc(a, us, hi, horizon, n, seeds, *, dt):
    """(state, exit_time) of `natural_scale_exit_mc` from every start us[k]
    on seeds[k], in one `simulate._batches` loop of 1-d row arrays, the
    positions and each path's index in `state`.  Each start has its own
    step, and is admitted and retired as a batch of `_batches`.

    The crossing probabilities p_hi and p_lo are only evaluated in the band
    where a gap product, (hi - x)(hi - x') or x x', is below _BAND times the
    step variance, and on paths whose uniform is exactly 0.  Elsewhere both
    are at most exp(-2 _BAND), their sum is below 2**-53 and so below every
    nonzero uniform (a multiple of 2**-53), and `new >= hi` / `new <= 0`
    settle the path as evaluating them would: bit for bit."""
    n_steps, sqdt = int(np.ceil(horizon / dt - 1e-9)), np.sqrt(dt)
    state, stop = np.full(len(us) * n, 3, dtype=np.int8), np.full(len(us) * n, -1)  # 3 unless it exits, at loop step stop
    born, it = [0] * len(us), 0  # loop step each start joined at, and loop steps taken: start k is at it - born[k]

    def fill(k):
        born[k] = it
        return np.full(n, float(us[k])), np.arange(k * n, (k + 1) * n)

    def step(cols, noise):
        nonlocal it
        (pos, path), (z, un) = cols, noise
        sig = 1.0 + 2.0 * a * pos
        new = pos + sig * sqdt * z[:, 0]
        var = sig * sig * dt
        gap_hi, gap_lo, edge = np.maximum(hi - new, 0), np.maximum(new, 0), _BAND * var
        band = np.flatnonzero(((hi - pos) * gap_hi < edge) | (pos * gap_lo < edge) | (un == 0))
        hit_hi, hit_lo = new >= hi, new <= 0
        if band.size:
            p0, ub, vb = pos[band], un[band], var[band]
            p_hi = np.exp(-2.0 * np.maximum(hi - p0, 0) * gap_hi[band] / vb)
            p_lo = np.exp(-2.0 * np.maximum(p0, 0) * gap_lo[band] / vb)
            fire = hit_hi[band] | (ub < p_hi)
            hit_lo[band] |= ~fire & (ub >= p_hi) & (ub < p_hi + p_lo)
            hit_hi[band] = fire
        state[path[hit_hi]] = 1
        state[path[hit_lo]] = 2
        keep = ~(hit_hi | hit_lo)
        stop[path[~keep]] = it
        it += 1
        return (new, path), keep

    _batches(1, [n] * len(us), seeds, fill, step, n_steps)
    exit_time = np.where(stop < 0, np.inf, (stop - np.repeat(born, n) + 1) * dt)  # at the start's own step
    return [(state[k * n : (k + 1) * n], exit_time[k * n : (k + 1) * n]) for k in range(len(us))]


def escape_bounds_check(
    a: float,
    eps1: float,
    u_grid,
    n: int,
    seed: int,
    *,
    dt: float = 1e-4,
    z_ci: float = 3.0,
) -> VerificationReport:
    """MC check of the martingale escape bound and the Green tail bound.

    For each u in (0, eps1/2): P_u(T_{eps1/2} <= s1 ^ T_0) >= u/eps1, and
    P_u(s1 <= T_0 ^ T_{eps1/2}) <= u C_eps1 / s1, each within z_ci SEs.
    Every u is checked before any is simulated.
    """
    c_eps, s1 = green_constants(a, eps1)
    u_grid = list(u_grid)
    if bad := [u for u in u_grid if not 0 < u < eps1 / 2]:
        raise ValueError(f"u={bad[0]} outside (0, eps1/2)")
    rep = VerificationReport(title=f"escape bounds (a={a}, eps1={eps1})")
    rep.add_info("c-eps1", c_eps)
    rep.add_info("s1", s1)
    seeds = [seed + 7919 * k for k in range(len(u_grid))]
    for u, (state, _) in zip(u_grid, _exit_mc(a, u_grid, eps1 / 2.0, s1, n, seeds, dt=dt)):
        p_escape = float((state == 1).mean())
        p_tail = float((state == 3).mean())
        se_e = float(np.sqrt(p_escape * (1 - p_escape) / n))
        se_t = float(np.sqrt(p_tail * (1 - p_tail) / n))
        rep.check_ge(
            f"escape-lower-bound[u={u:g}]",
            p_escape,
            u / eps1,
            tol=z_ci * se_e,
            se=se_e,
        )
        rep.check_le(
            f"tail-upper-bound[u={u:g}]",
            p_tail,
            u * c_eps / s1,
            tol=z_ci * se_t,
            se=se_t,
        )
    return rep


def lemma32_verify(
    model,
    x_grid,
    n: int,
    seed: int,
    *,
    eps: float | None = None,
    t1: float | None = None,
    dt: float,
    z_ci: float = 3.0,
) -> VerificationReport:
    """Boundary-return lower bound on an interval model.

    Checks that min over the grid of P_x(T_eps <= t1 < tau)/rho(x) has a
    positive lower confidence bound; (eps, t1) default to the drifted-BM
    comparison values derived from the model's declared bounds.  The
    estimates are those of `certificates.boundary_return_constant` with
    K = M_eps.
    """
    from .certificates import boundary_return_constant
    from .domains import InnerCompact, Interval

    if not isinstance(model.domain, Interval):
        raise ValueError("lemma32_verify expects an interval model")
    if eps is None or t1 is None:
        a = model.drift_bound / model.sigma_min2
        params = DriftedBMParams(a=a, eps0=model.domain.inradius / 2.0)
        eps = params.eps if eps is None else eps
        t1 = params.t1(model.sigma_min2) if t1 is None else t1
    xs = np.asarray(x_grid, dtype=float).reshape(-1, 1)
    res = boundary_return_constant(
        model, InnerCompact(model.domain, eps), t1, xs, n, seed, dt=dt, z_ci=z_ci
    )
    rep = VerificationReport(title=f"lemma-3.2 bound (eps={eps:g}, t1={t1:g})")
    rep.add_info("eps", eps)
    rep.add_info("t1", t1)
    for x, line in zip(xs[:, 0], res.report.checks):  # its ratio[k] lines come first
        rep.add_info(f"ratio[x={x:g}]", line.measured, se=line.se)
    rep.check_ge("min-ratio-lower-ci", res.c_prime_lower, 1e-12)
    rep.add_info("c-prime-estimate", res.c_prime)
    return rep
