"""Numerical minorization/survival certificates and bound-vs-measurement probes.

For finite chains every quantity here is exact; for diffusions the state
space is uncountable, so infima over all starting points are relaxed to a
stratified probe grid including near-boundary points, estimates carry
binomial confidence intervals, and certificates quote conservative CI
ends.  These are lower-confidence certificates, not proofs.  The gradient
and h_t profiles take one Lipschitz constant over the probe grid and the
cemetery, which lies at the domain's boundary distance from each point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chains import FiniteAbsorbedChain, _conditioned_tv, _survival_ratios
from .chains import qsd_spectral  # noqa: F401  (importable from here, as before)
from .domains import DomainError
from .measures import BinGrid, Measure, _norms, lipschitz_constant, tv_distance
from .models import DiffusionModel
from .particles import _conditioned_laws, domain_grid
from .report import VerificationReport
from .rng import stream_generator, substream
from .simulate import (
    ZeroSurvivorError,
    _snapshots,
    hitting_before,
    split_survival_profile,
    survival_snapshots,  # noqa: F401  (importable from here, as before)
    tube_probability,
)


class NoMinorizationError(RuntimeError):
    """The common part of the conditioned laws vanished at this bin resolution."""


class FailedA2Error(RuntimeError):
    """The minorizing measure produced zero survival on the time grid."""


@dataclass(frozen=True)
class ProbeGrid:
    """Interior probe points (boundary-stratified), time grid and MC
    budget per probe."""

    points: np.ndarray
    times: np.ndarray
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "points", np.atleast_2d(np.asarray(self.points, dtype=float)))
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        if (np.diff(self.times) <= 0).any():
            raise ValueError("time grid must be increasing")


def default_probe_grid(
    model: DiffusionModel,
    times,
    budget: int,
    n_bulk: int = 6,
    boundary_fracs=(0.02, 0.05, 0.1),
    seed: int = 0,
) -> ProbeGrid:
    """Bulk points plus near-boundary strata at fractions of the inradius."""
    dom = model.domain
    g = stream_generator(seed, purpose=3)
    bulk = dom.uniform(g, n_bulk, margin=dom.inradius / 3.0)
    near = []
    for frac in boundary_fracs:
        eps = frac * dom.inradius
        for b in dom.boundary_points():
            # pull each boundary anchor inward by eps
            direction = bulk.mean(axis=0) - b
            norm = np.linalg.norm(direction)
            if norm <= 0:
                continue
            p = b + direction / norm * eps
            if dom.contains(p[None, :])[0]:
                near.append(p)
    pts = np.vstack([bulk] + [np.array(near)]) if near else bulk
    if not dom.contains(pts).all():
        raise ValueError("probe grid left the domain")
    return ProbeGrid(points=pts, times=np.asarray(times, dtype=float), budget=budget)


def minorize_laws(laws: np.ndarray) -> tuple[float, np.ndarray]:
    """Common part of a family of laws: c1 = mass of the row-wise min."""
    m = laws.min(axis=0)
    c1 = float(m.sum())
    return c1, m


@dataclass(frozen=True)
class A1Estimate:
    c1: float
    nu: Measure
    per_point: tuple[Measure, ...]


def estimate_A1(
    model: DiffusionModel,
    points: np.ndarray,
    t0: float,
    bins,
    n: int,
    seed: int,
    *,
    dt: float,
) -> A1Estimate:
    """Minorization constant and measure from conditioned histograms.

    Builds the conditioned law at t0 from every grid point, takes the
    bin-wise minimum m, and returns c1 = sum(m) with nu = m / c1.
    """
    grid = domain_grid(model, bins)
    pts = np.atleast_2d(points)
    seeds = [substream(seed, 20, k) for k in range(len(pts))]
    hists = []
    for x, (h, _) in zip(pts, _conditioned_laws(model, pts, [t0], n, grid, seeds, dt=dt)):
        if h[0] is None:
            raise NoMinorizationError(f"no survivors from {x} at t={t0}")
        hists.append(h[0])
    laws = np.stack([h.weights for h in hists])
    c1, m = minorize_laws(laws)
    if c1 <= 0:
        raise NoMinorizationError(
            "empty intersection of conditioned laws: coarsen bins or increase t0"
        )
    return A1Estimate(c1=c1, nu=Measure(grid, m / c1), per_point=tuple(hists))


def _grid_survival(model, pts, times, n, seed, ids, *, dt, window=0.0):
    """Survival P_x(t < tau) and its SE from every grid point x, each of
    shape (points, times).

    `window` > 0 runs the windowed-splitting estimator on `seed` (common
    random numbers across points); otherwise point k runs its own batch of
    n paths on `substream(seed, *ids, k)`, the batches sharing one loop.
    """
    if window > 0:
        logp, logse = split_survival_profile(model, pts, times, n, seed, dt=dt, window=window)
        p = np.exp(logp.T)
        # a point whose particles all died (log-survival -inf) has no evidence
        se = np.full_like(p, np.inf)
        np.multiply(p, logse.T, out=se, where=np.isfinite(logp.T))
        return p, se
    clouds = [np.tile(x, (n, 1)) for x in pts]
    res = _snapshots(model, clouds, times, dt, [substream(seed, *ids, k) for k in range(len(pts))])
    return np.array([r.survival() for r in res]), np.array([r.standard_errors() for r in res])


@dataclass(frozen=True)
class A2Estimate:
    c2: float
    c2_conservative: float
    times: np.ndarray
    nu_survival: np.ndarray
    worst_point_survival: np.ndarray


def _sample_from_histogram(nu: Measure, n: int, g) -> np.ndarray:
    grid: BinGrid = nu.support
    lo, hi = grid.bounds()
    idx = g.choice(grid.size, size=n, p=nu.weights / nu.weights.sum())
    return lo[idx] + g.random((n, grid.dim)) * (hi[idx] - lo[idx])


def estimate_A2(
    model: DiffusionModel,
    nu: Measure,
    points: np.ndarray,
    times,
    n: int,
    seed: int,
    *,
    dt: float,
    z_ci: float = 3.0,
) -> A2Estimate:
    """Survival-comparison constant c2 = min_t surv_nu(t) / max_z surv_z(t).

    The conservative value divides the lower CI of the numerator by the
    upper CI of the denominator.
    """
    times = np.asarray(sorted(float(t) for t in times))
    if not model.domain.contains(np.atleast_2d(points)).all():
        raise DomainError("some probe points are not in the open domain")
    g = stream_generator(seed, purpose=9)
    cloud = _sample_from_histogram(nu, n, g)
    inside = model.domain.contains(cloud)
    if not inside.all():
        cloud = cloud[inside]
        if cloud.shape[0] < max(100, n // 2):
            raise FailedA2Error("minorizing measure puts too much mass outside the domain")
    clouds = [cloud] + [np.tile(x, (n, 1)) for x in np.atleast_2d(points)]
    seeds = [substream(seed, 30)] + [substream(seed, 31, k) for k in range(len(clouds) - 1)]
    res_nu, *res_z = _snapshots(model, clouds, times, dt, seeds)
    p_nu = res_nu.survival()
    se_nu = res_nu.standard_errors()
    if (p_nu <= 0).any():
        raise FailedA2Error("zero survival from the minorizing measure on the grid")
    p_z, se_z = np.array([r.survival() for r in res_z]), np.array([r.standard_errors() for r in res_z])
    worst = p_z.max(axis=0)
    kmax = p_z.argmax(axis=0)
    worst_hi = np.minimum(worst + z_ci * se_z[kmax, np.arange(times.size)], 1.0)
    c2 = float((p_nu / worst).min())
    c2_cons = float((np.maximum(p_nu - z_ci * se_nu, 0.0) / worst_hi).min())
    return A2Estimate(
        c2=c2,
        c2_conservative=c2_cons,
        times=times,
        nu_survival=p_nu,
        worst_point_survival=worst,
    )


@dataclass(frozen=True)
class ConditionACertificate:
    """Empirical minorization certificate (t0, c1, nu, c2)."""

    t0: float
    c1: float
    nu: Measure
    c2: float

    def __post_init__(self):
        if not self.t0 > 0:
            raise ValueError(f"t0 must be positive, got {self.t0}")
        if not (0 < self.c1 <= 1 + 1e-12 and 0 < self.c2 <= 1 + 1e-12):
            raise ValueError("c1 and c2 must lie in (0, 1]")
        if not self.nu.is_distribution:
            raise ValueError("nu must be a probability histogram")

    @property
    def gamma_hat(self) -> float:
        """Certified TV decay rate -ln(1 - c1 c2) / t0."""
        return -float(np.log(1.0 - self.c1 * self.c2)) / self.t0


def certify_condition_A(
    model: DiffusionModel,
    grid: ProbeGrid,
    t0_candidates,
    bins,
    seed: int,
    *,
    dt: float,
) -> ConditionACertificate:
    """Scan t0 candidates and keep the certificate with the best certified
    rate gamma_hat = -ln(1 - c1 c2)/t0, with the conservative c2 of each
    candidate."""
    best = None
    for j, t0 in enumerate(t0_candidates):
        a1 = estimate_A1(
            model, grid.points, t0, bins, grid.budget, substream(seed, 40, j), dt=dt
        )
        a2 = estimate_A2(
            model,
            a1.nu,
            grid.points,
            grid.times,
            grid.budget,
            substream(seed, 41, j),
            dt=dt,
        )
        c2 = min(max(a2.c2_conservative, 0.0), 1.0)
        if c2 <= 0:
            continue
        cand = ConditionACertificate(t0=float(t0), c1=min(a1.c1, 1.0), nu=a1.nu, c2=c2)
        if best is None or cand.gamma_hat > best.gamma_hat:
            best = cand
    if best is None:
        raise NoMinorizationError("no t0 candidate produced a usable certificate")
    return best


# --- decay reports -------------------------------------------------------------


def decay_report_chain(
    chain: FiniteAbsorbedChain,
    cert,
    pairs,
    t_max: int,
    tol: float = 1e-10,
) -> VerificationReport:
    """Exact TV-decay checks for a finite chain against certificate `cert`
    (any object with c1, c2, t0 attributes).

    Checks the 2 (1-c1c2)^floor(t/t0) bound and the pair-contraction form
    with the survival-comparison constants c(pi); fits the empirical rate
    to the TVs above 1e-6 of each pair's first one.  No pairs, or
    t_max < 1, is a ValueError: the margins would hold trivially.
    """
    laws = np.asarray(pairs, dtype=float)  # (pairs, 2, n)
    if len(laws) == 0:
        raise ValueError("decay_report_chain needs at least one pair of initial laws")
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    c1c2 = cert.c1 * cert.c2
    t0 = int(cert.t0)
    rep = VerificationReport(title=f"decay report (chain, t0={t0})")
    gamma_hat = -np.log(1 - c1c2) / t0
    rep.add_info("gamma-hat", gamma_hat)
    laws = laws.reshape(2 * len(laws), -1)  # pi1, pi2 of each pair in turn
    vals, limits = _survival_ratios(chain, laws, t_max)
    c_pi = vals.min(axis=1) if limits is None else np.minimum(vals.min(axis=1), limits)
    c_max = c_pi.reshape(-1, 2).max(axis=1, keepdims=True)
    tvs = _conditioned_tv(chain, laws, np.arange(len(laws)).reshape(-1, 2), t_max)
    decay = (1 - c1c2) ** (np.arange(t_max + 1) // t0)
    worst_abs = (2.0 * decay - tvs).min()
    worst_pair = (decay * tvs[:, :1] / c_max - tvs).min()
    gammas = []
    for tv in tvs:
        # a floor relative to tv[0] keeps the fit off the TVs that rounding dominates
        pos = tv > 1e-6 * tv[0]
        if pos.sum() >= 3:
            t_arr = np.arange(t_max + 1)[pos]
            y = -np.log(tv[pos])
            A = np.vstack([t_arr, np.ones_like(t_arr, dtype=float)]).T
            coef, *_ = np.linalg.lstsq(A, y, rcond=None)
            gammas.append(coef[0] / chain.dt)
    rep.check_ge("absolute-bound-margin", float(worst_abs), 0.0, tol=tol)
    rep.check_ge("pair-contraction-margin", float(worst_pair), 0.0, tol=tol)
    if gammas:
        gamma_emp = float(min(gammas))
        rep.add_info("gamma-emp", gamma_emp)
        rep.check_ge("rate-dominates-certificate", gamma_emp, gamma_hat, tol=1e-9)
    else:
        rep.add_info("gamma-emp-degenerate-tv-zero", 0.0)
    return rep


def decay_report_model(
    model: DiffusionModel,
    cert: ConditionACertificate,
    pairs,
    times,
    n: int,
    bins,
    seed: int,
    *,
    dt: float,
    z_ci: float = 3.0,
) -> VerificationReport:
    """TV-decay checks for a diffusion from histogram estimates.

    pairs are (x, y) starting points; TV(t) between their conditioned laws
    is compared with 2 (1 - c1 c2)^floor(t/t0) plus an MC tolerance, the
    empirical rate is fitted, and the survival-comparison surrogate
    c(delta_x) >= a * rho(x) is reported.
    """
    times = np.asarray(sorted(float(t) for t in times))
    grid = domain_grid(model, bins)
    rep = VerificationReport(title="decay report (diffusion)")
    c1c2 = cert.c1 * cert.c2
    rep.add_info("gamma-hat", cert.gamma_hat)
    pairs = list(pairs)
    starts = [z for pair in pairs for z in pair]
    seeds = [substream(seed, 50 + j, ip) for ip in range(len(pairs)) for j in (0, 1)]
    laws = _conditioned_laws(model, starts, times, n, grid, seeds, dt=dt)
    for ip, (x, y) in enumerate(pairs):
        (hx, sx), (hy, sy) = laws[2 * ip : 2 * ip + 2]
        tvs = np.full(times.size, np.nan)
        tv_se = np.full(times.size, np.nan)
        for k in range(times.size):
            if hx[k] is None or hy[k] is None:
                continue
            tvs[k] = tv_distance(hx[k], hy[k])
            n_x = max(sx[k] * n, 1.0)
            n_y = max(sy[k] * n, 1.0)
            tv_se[k] = np.sqrt(2.0 * grid.size / np.pi * (1 / n_x + 1 / n_y))
        ok = np.isfinite(tvs)
        if not ok.any():
            raise ZeroSurvivorError(
                f"pair{ip} (x={np.ravel(x).tolist()}, y={np.ravel(y).tolist()}): "
                f"no time with survivors from both starts "
                f"out of {n} paths each; increase n or reduce the times"
            )
        worst = np.inf
        for k in np.flatnonzero(ok):
            bound = 2.0 * (1 - c1c2) ** int(times[k] // cert.t0)
            worst = min(worst, bound + z_ci * tv_se[k] - tvs[k])
        rep.check_ge(f"absolute-bound-margin[pair{ip}]", float(worst), 0.0)
        # survival-comparison surrogate c(delta) >= a rho(x)
        ratio_x = (sx[ok] / np.maximum(sx[ok], sy[ok])).min()
        ratio_y = (sy[ok] / np.maximum(sx[ok], sy[ok])).min()
        rho_x = float(model.domain.rho_boundary(np.atleast_1d(x))[0])
        rho_y = float(model.domain.rho_boundary(np.atleast_1d(y))[0])
        a_hat = min(ratio_x / rho_x, ratio_y / rho_y)
        rep.add_info(f"c-mu-surrogate-a[pair{ip}]", a_hat)
        rep.check_ge(f"c-mu-surrogate-positive[pair{ip}]", a_hat, 1e-12)
        pair_worst = np.inf
        for k in np.flatnonzero(ok):
            bound = (1 - c1c2) ** int(times[k] // cert.t0) * 2.0 / max(ratio_x, ratio_y)
            pair_worst = min(pair_worst, bound + z_ci * tv_se[k] - tvs[k])
        rep.check_ge(f"pair-contraction-margin[pair{ip}]", float(pair_worst), 0.0)
        sel = ok & (tvs > 0)
        if sel.sum() >= 3:
            A = np.vstack([times[sel], np.ones(int(sel.sum()))]).T
            coef, *_ = np.linalg.lstsq(A, -np.log(tvs[sel]), rcond=None)
            rep.add_info(f"gamma-emp[pair{ip}]", float(coef[0]))
            rep.check_ge(
                f"rate-dominates-certificate[pair{ip}]",
                float(coef[0]),
                cert.gamma_hat,
                tol=0.25 * abs(coef[0]) + 1e-9,
                se=0.0,
            )
    return rep


# --- gradient and h_t profiles --------------------------------------------------


@dataclass(frozen=True)
class GradientProfile:
    times: np.ndarray
    lipschitz: np.ndarray
    max_survival: np.ndarray
    inconclusive: np.ndarray
    report: VerificationReport


def gradient_profile(
    model: DiffusionModel,
    times,
    points: np.ndarray,
    n: int,
    seed: int,
    *,
    dts,
    windows=None,
    shape_factor: float = 2.0,
) -> GradientProfile:
    """Lipschitz profile L(t) of x -> P_x(t < tau) over a probe grid.

    L(t) is the pairwise max quotient over the grid and the cemetery,
    whose survival is 0 and whose distance to x is rho_boundary(x).  Side
    checks: L(t) (1 ^ sqrt(t)) spread within `shape_factor` across the
    grid of times; L(t)/max survival spread within `shape_factor` over the
    times with t >= 1; the smallest time t1 yields
    P_x(t1 < tau) <= L(t1) rho(x) on the grid.  MC noise above 20% of the
    largest survival difference flags the time as inconclusive.  A time at
    which no point has a surviving path raises `ZeroSurvivorError`.
    `windows[k]` > 0 switches time k to the windowed-splitting estimator.
    """
    times = [float(t) for t in times]
    dts, windows = list(dts), list(windows) if windows is not None else [0.0] * len(times)
    if len(dts) != len(times) or len(windows) != len(times):
        raise ValueError(f"need one dt and one window per time: {len(times)} times, got {len(dts)} and {len(windows)}")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rho = model.domain.rho_boundary(pts)
    L = np.zeros(len(times))
    max_surv = np.zeros(len(times))
    inconclusive = np.zeros(len(times), dtype=bool)
    surv_profiles = []
    rep = VerificationReport(title="gradient profile")
    for k, t in enumerate(times):
        surv, se = _grid_survival(
            model, pts, [t], n, substream(seed, 60, k), (), dt=dts[k], window=windows[k]
        )
        surv, se = surv[:, 0], se[:, 0]
        if not surv.any():
            raise ZeroSurvivorError(
                f"no survivors at t={t:g} from any of the {len(pts)} points out of {n} "
                "paths each; increase n or reduce the times"
            )
        surv_profiles.append(surv)
        L[k] = lipschitz_constant(pts, surv, rho)
        max_surv[k] = float(surv.max())
        diffs = np.abs(surv[:, None] - surv[None, :]).max()
        inconclusive[k] = se.max() > 0.2 * max(diffs, 1e-300)
        rep.add_info(f"L[t={t:g}]", L[k], se=float(se.max()))
        rep.add_info(f"max-survival[t={t:g}]", max_surv[k])
    # sqrt(t) blowup is the small-time content; at t >= 1 the relevant
    # scale is the decaying max survival instead
    small = np.asarray(times) < 1.0
    shaped = L[small] * np.sqrt(np.asarray(times)[small])
    if small.sum() >= 2 and shaped.min() > 0:
        rep.check_le(
            "gradient-shape-spread", float(shaped.max() / shaped.min()), shape_factor
        )
    large = np.asarray(times) >= 1.0
    if large.sum() >= 2:
        ratios = L[large] / max_surv[large]
        rep.check_le(
            "late-time-ratio-spread", float(ratios.max() / ratios.min()), shape_factor
        )
    # P_x(t1 < tau) <= L(t1) rho(x) on the measured profile at the smallest
    # time; holds by construction, since the cemetery pairs enter L, and is
    # recorded to pin the constant C = L(t1).
    k1 = int(np.argmin(times))
    margin = float((L[k1] * rho - surv_profiles[k1]).min())
    rep.check_ge("survival-below-L-rho-margin", margin, 0.0, tol=1e-12)
    return GradientProfile(
        times=np.asarray(times),
        lipschitz=L,
        max_survival=max_surv,
        inconclusive=inconclusive,
        report=rep,
    )


@dataclass(frozen=True)
class BoundaryReturnResult:
    c_prime: float
    c_prime_lower: float
    ratios: np.ndarray
    report: VerificationReport


def boundary_return_constant(
    model: DiffusionModel,
    target,
    t1: float,
    points: np.ndarray,
    n: int,
    seed: int,
    *,
    dt: float,
    gradient_C: float | None = None,
    z_ci: float = 3.0,
) -> BoundaryReturnResult:
    """C' = min over the grid of P_x(T_K <= t1 < tau)/rho(x), with CIs.

    Passes when the lower CI stays positive; if the Lipschitz constant C
    of the survival at t1 is supplied, also reports the conditioned
    return bound C'/C and checks C' <= C.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if n < 100:
        raise ValueError("need n >= 100")
    if not model.domain.contains(pts).all():
        raise DomainError("some probe points are not in the open domain")
    rep = VerificationReport(title=f"boundary return (t1={t1:g})")
    ratios = np.zeros(pts.shape[0])
    lowers = np.zeros(pts.shape[0])
    for k, (x, rho) in enumerate(zip(pts, model.domain.rho_boundary(pts))):
        est, se = hitting_before(model, x, target, t1, n, substream(seed, 70, k), dt=dt)
        ratios[k] = est / rho
        lowers[k] = max(est - z_ci * se, 0.0) / rho
        rep.add_info(f"ratio[{k}]", ratios[k], se=se / rho)
    c_prime = float(ratios.min())
    c_lo = float(lowers.min())
    rep.check_ge("c-prime-lower-ci", c_lo, 1e-12)
    rep.add_info("c-prime", c_prime)
    if gradient_C is not None:
        rep.add_info("conditioned-return-bound", c_prime / gradient_C)
        rep.check_le("c-prime-below-C", c_prime, gradient_C)
    return BoundaryReturnResult(c_prime=c_prime, c_prime_lower=c_lo, ratios=ratios, report=rep)


def irreducibility_probe(
    model: DiffusionModel,
    x,
    y,
    radius: float,
    t1: float,
    n: int,
    seed: int,
    *,
    dt: float,
) -> tuple[float, float, float]:
    """Tube-event probability estimate; returns (estimate, se, upper_ci).

    Zero successes are inconclusive, not a disproof: the 3-sigma upper
    bound (rule of three) is still reported.
    """
    est, se = tube_probability(model, x, y, radius, t1, n, seed, dt=dt)
    upper = est + 3.0 * se if est > 0 else 3.0 / n
    return est, se, upper


@dataclass(frozen=True)
class HtProfile:
    h: np.ndarray
    z_index: int
    z_point: np.ndarray
    c_lipschitz: float
    k_prime_threshold: float | None
    degenerate: bool
    report: VerificationReport


def ht_profile(
    model: DiffusionModel,
    t: float,
    points: np.ndarray,
    n: int,
    seed: int,
    *,
    dt: float,
    window: float = 0.0,
) -> HtProfile:
    """Normalized survival profile h_t = P_.(t < tau)/max over the grid.

    Reports its maximizer z_t, the grid Lipschitz constant C'', the inner
    compact threshold 1/C'' and the minoration h_t >= (1 - C'' rho(., z_t))+.
    h_t vanishes at the cemetery, so the cemetery pairs enter C'' exactly
    as in the continuum definition.  An all-equal survival profile is
    flagged degenerate, with C'' = 0 and no threshold: a flat h_t carries
    no Lipschitz information.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    rep = VerificationReport(title=f"h_t profile (t={t:g})")
    surv = _grid_survival(model, pts, [t], n, seed, (80,), dt=dt, window=window)[0][:, 0]
    if surv.max() <= 0:
        raise ZeroDivisionError("no survival at this horizon; not resolvable")
    z = int(np.argmax(surv))  # ties resolve to the smallest index
    h = surv / surv[z]
    degen = np.allclose(h, h[0], atol=1e-12)
    c_dd, thr = 0.0, None
    if degen:
        rep.add_info("degenerate-flat-profile", 1.0)
    else:
        rho = model.domain.rho_boundary(pts)
        c_dd = lipschitz_constant(pts, h, rho)
        rep.add_info("c-double-prime", c_dd)
        fz = np.maximum(1.0 - c_dd * _norms(pts - pts[z]), 0.0)
        rep.check_ge("ht-minoration-margin", float((h - fz).min()), 0.0, tol=1e-9)
        rep.check_ge("z-boundary-clearance", float(rho[z]), 1.0 / c_dd, tol=1e-9)
        thr = 1.0 / c_dd
    return HtProfile(
        h=h,
        z_index=z,
        z_point=pts[z],
        c_lipschitz=c_dd,
        k_prime_threshold=thr,
        degenerate=degen,
        report=rep,
    )
