"""Exact linear-algebra engine for finite absorbed Markov chains.

A chain is a substochastic kernel Q on states {0..n-1}; the mass missing
from each row is sent to the cemetery.  Everything here is exact (up to
floating point): conditioned evolution, quasi-stationary spectra,
two-sided-estimate certificates, and the minorization objects built from
infimum measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import FiniteSupport, Measure, tv_distance
from .report import VerificationReport

EIG_TOL = 1e-10
POWER_TOL = 1e-13
POWER_MAX_ITER = 10**6
DENSE_EIG_MAX_N = 512


class ChainFormatError(ValueError):
    """Malformed plain-text kernel file; message carries the line number."""


class PrimitivityError(ValueError):
    """Kernel is not primitive; the QSD need not be unique."""


class IterationLimitError(RuntimeError):
    """Power iteration did not converge within the iteration cap."""


class NoCertificateError(ValueError):
    """Q^t0 has a zero entry, so no two-sided estimate exists at t0."""


class EmptyOverlapError(ValueError):
    """The pair-minorization measure has zero mass (K too small or chain reducible)."""


@dataclass(frozen=True)
class FiniteAbsorbedChain:
    """Substochastic one-step kernel with step duration dt."""

    kernel: np.ndarray = field(repr=False)
    dt: float = 1.0

    def __post_init__(self):
        q = np.asarray(self.kernel, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"kernel must be square, got shape {q.shape}")
        if (q < 0).any():
            raise ValueError("kernel entries must be nonnegative")
        rows = q.sum(axis=1)
        if (rows > 1.0 + 1e-12).any():
            raise ValueError(f"row sums exceed 1: max {rows.max()}")
        if (rows <= 0).any():
            raise ValueError("every row must keep positive mass in E")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        q = q.copy()
        q.flags.writeable = False
        object.__setattr__(self, "kernel", q)

    @property
    def n(self) -> int:
        return self.kernel.shape[0]

    @property
    def support(self) -> FiniteSupport:
        return FiniteSupport(self.n)

    def absorption_probabilities(self) -> np.ndarray:
        return 1.0 - self.kernel.sum(axis=1)

    def power(self, t: int) -> np.ndarray:
        if t < 0:
            raise ValueError("negative power")
        return np.linalg.matrix_power(self.kernel, t)


def parse_chain_text(text: str, dt: float = 1.0) -> FiniteAbsorbedChain:
    """Parse the plain-text kernel format: first line n, then n rows.

    Raises ChainFormatError with a 1-based line number on any defect.
    """
    lines = text.splitlines()
    rows = []
    n = None
    lineno = 0
    for lineno, raw in enumerate(lines, start=1):
        s = raw.split("#", 1)[0].strip()
        if not s:
            continue
        if n is None:
            try:
                n = int(s)
            except ValueError:
                raise ChainFormatError(f"line {lineno}: expected the state count, got {s!r}")
            if n < 1:
                raise ChainFormatError(f"line {lineno}: state count must be >= 1")
            continue
        try:
            vals = [float(tok) for tok in s.split()]
        except ValueError:
            raise ChainFormatError(f"line {lineno}: row is not a list of decimals: {s!r}")
        if len(vals) != n:
            raise ChainFormatError(
                f"line {lineno}: expected {n} entries, got {len(vals)}"
            )
        if any(v < 0 for v in vals):
            raise ChainFormatError(f"line {lineno}: negative entry")
        if sum(vals) > 1.0 + 1e-12:
            raise ChainFormatError(f"line {lineno}: row sum {sum(vals)} exceeds 1")
        if sum(vals) <= 0:
            raise ChainFormatError(f"line {lineno}: row keeps no mass in E")
        rows.append(vals)
        if len(rows) == n:
            break
    if n is None:
        raise ChainFormatError("line 1: empty kernel file")
    if len(rows) != n:
        raise ChainFormatError(f"line {lineno}: expected {n} rows, found {len(rows)}")
    return FiniteAbsorbedChain(np.array(rows), dt=dt)


def load_chain(path, dt: float = 1.0) -> FiniteAbsorbedChain:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_chain_text(fh.read(), dt=dt)


def is_primitive(chain: FiniteAbsorbedChain) -> bool:
    """Primitivity via boolean matrix squaring up to exponent >= n^2."""
    b = chain.kernel > 0
    if b.all():
        return True
    n = chain.n
    # no zero column is necessary (a never-entered state kills positivity)
    if (~b.any(axis=0)).any():
        return False
    target = max(n * n, 2)
    e = 1
    while e < target:
        # path counts in float64 are exact below 2^53; a uint8 product wraps at 256
        f = b.astype(np.float64)
        b = (f @ f) > 0
        e *= 2
        if b.all():
            return True
    return bool(b.all())


@dataclass(frozen=True)
class SpectralData:
    """Perron data of a primitive substochastic kernel.

    alpha: quasi-stationary distribution (left Perron vector, mass 1);
    eta: survival eigenfunction (right Perron vector, sup-norm 1);
    lambda0 = -ln(perron)/dt; second_modulus: largest non-Perron
    eigenvalue modulus (None when n exceeds the dense-eig cap).
    """

    alpha: np.ndarray
    perron: float
    lambda0: float
    eta: np.ndarray
    second_modulus: float | None
    iterations: int


def qsd_spectral(
    chain: FiniteAbsorbedChain,
    tol: float = POWER_TOL,
    max_iter: int = POWER_MAX_ITER,
) -> SpectralData:
    """Left/right Perron vectors by renormalized power iteration."""
    if not is_primitive(chain):
        raise PrimitivityError(
            "kernel is not primitive; quasi-stationary distribution may be non-unique"
        )
    q = chain.kernel
    n = chain.n

    alpha = np.full(n, 1.0 / n)
    it_a = 0
    for it_a in range(1, max_iter + 1):
        nxt = alpha @ q
        nxt /= nxt.sum()
        if tv_distance(nxt, alpha) < tol:
            alpha = nxt
            break
        alpha = nxt
    else:
        raise IterationLimitError(f"left power iteration: no convergence in {max_iter}")

    eta = np.full(n, 1.0)
    it_e = 0
    for it_e in range(1, max_iter + 1):
        nxt = q @ eta
        nxt /= np.abs(nxt).max()
        if np.abs(nxt - eta).sum() < tol:
            eta = nxt
            break
        eta = nxt
    else:
        raise IterationLimitError(f"right power iteration: no convergence in {max_iter}")

    perron = float(alpha @ q @ eta) / float(alpha @ eta)
    second = None
    if n <= DENSE_EIG_MAX_N:
        mods = np.sort(np.abs(np.linalg.eigvals(q)))[::-1]
        second = float(mods[1]) if n > 1 else 0.0
    return SpectralData(
        alpha=alpha,
        perron=perron,
        lambda0=-float(np.log(perron)) / chain.dt,
        eta=eta,
        second_modulus=second,
        iterations=max(it_a, it_e),
    )


def evolve_conditioned(
    chain: FiniteAbsorbedChain, pi: np.ndarray, t: int
) -> tuple[np.ndarray, float]:
    """Conditioned law pi Q^t / (pi Q^t 1) and the survival mass pi Q^t 1.

    Renormalizes each step and accumulates the log-mass, so survival keeps
    full relative accuracy far beyond the double underflow horizon.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    d = np.asarray(pi, dtype=float)
    if d.shape != (chain.n,):
        raise ValueError("initial law has wrong length")
    if (d < 0).any() or abs(d.sum() - 1.0) > 1e-9:
        raise ValueError("initial law must be a probability vector")
    log_mass = 0.0
    for _ in range(t):
        d = d @ chain.kernel
        step_mass = d.sum()
        if step_mass <= 0:
            raise RuntimeError("survival vanished, impossible for a valid chain")
        d = d / step_mass
        log_mass += float(np.log(step_mass))
    return d, float(np.exp(log_mass))


@dataclass(frozen=True)
class TwoSidedCertificate:
    """Witness (t0, c, f, mu) of the kernel sandwich at time t0.

    c**-1 f(x) mu(y) <= (Q^t0)_{xy} <= c f(x) mu(y), with mu a probability
    and ||f||_inf <= c.  Derived constants: c1 = c**-2, c2 = c**-3 mu(f).
    """

    t0: int
    c: float
    f: np.ndarray
    mu: np.ndarray

    @property
    def mu_f(self) -> float:
        return float(self.mu @ self.f)

    @property
    def c1(self) -> float:
        return self.c**-2

    @property
    def c2(self) -> float:
        return self.c**-3 * self.mu_f

    @property
    def contraction_factor(self) -> float:
        """1 - c^-5 mu(f) = 1 - c1 c2, the per-t0-block TV contraction."""
        return 1.0 - self.c**-5 * self.mu_f

    def kernel_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        prod = np.outer(self.f, self.mu)
        return prod / self.c, prod * self.c


def fit_two_sided(chain: FiniteAbsorbedChain, t0: int) -> TwoSidedCertificate:
    """Fit a two-sided certificate at time t0 with mu = column-sum profile.

    For this mu the per-row optimal f is the geometric mean of the extreme
    ratios r_x(y) = (Q^t0)_{xy} / mu(y), and c = max_x sqrt(max_y r_x /
    min_y r_x) is minimal.  mu is a probability by construction and
    ||f||_inf <= c holds automatically because min_y r_x <= row mass <= 1.
    """
    if t0 < 1:
        raise ValueError("t0 must be >= 1")
    p = chain.power(t0)
    if (p <= 0).any():
        raise NoCertificateError(
            f"Q^{t0} has zero entries; no two-sided estimate at this t0"
        )
    mu = p.sum(axis=0)
    mu = mu / mu.sum()
    r = p / mu[None, :]
    r_max = r.max(axis=1)
    r_min = r.min(axis=1)
    f = np.sqrt(r_max * r_min)
    c = float(np.sqrt((r_max / r_min).max()))
    cert = TwoSidedCertificate(t0=t0, c=c, f=f, mu=mu)
    lo, hi = cert.kernel_bounds()
    scale = np.maximum(p, 1e-300)
    if ((p - lo) / scale < -EIG_TOL).any() or ((hi - p) / scale < -EIG_TOL).any():
        raise AssertionError("fitted certificate violates its own sandwich")
    if cert.f.max() > c * (1 + 1e-12) or cert.mu_f > cert.f.max() * (1 + 1e-12):
        raise AssertionError("certificate normalization broken")
    return cert


def verify_theorem_2_1(
    chain: FiniteAbsorbedChain,
    cert: TwoSidedCertificate,
    *,
    n_pairs: int = 10,
    t_max: int = 50,
    seed: int = 0,
    tol: float = 1e-10,
) -> VerificationReport:
    """Exact checks of the two-sided-estimate consequences.

    (i) QSD sandwich c^-2 mu <= alpha <= c^2 mu entrywise;
    (ii) minorization/majorization of every conditioned row at t0;
    (iii) TV contraction between conditioned laws on random pairs of
          initial laws, all t <= t_max;
    (iv) discrete second-gap transcription: every non-Perron eigenvalue
         theta of Q^t0 has |theta| <= perron^t0 (1 - c^-5 mu(f)).
    Failures are recorded in the report, never raised.
    """
    rep = VerificationReport(title=f"theorem-2.1 checks (t0={cert.t0}, c={cert.c:.6g})")
    spec = qsd_spectral(chain)
    c, mu, f = cert.c, cert.mu, cert.f

    rep.check_ge("qsd-sandwich-lower", float((spec.alpha - c**-2 * mu).min()), 0.0, tol=tol)
    rep.check_le("qsd-sandwich-upper", float((spec.alpha - c**2 * mu).max()), 0.0, tol=tol)

    p = chain.power(cert.t0)
    rows = p / p.sum(axis=1, keepdims=True)
    rep.check_ge("a1-form-lower", float((rows - c**-2 * mu[None, :]).min()), 0.0, tol=tol)
    rep.check_le("a1-form-upper", float((rows - c**2 * mu[None, :]).max()), 0.0, tol=tol)

    rate = cert.contraction_factor
    g = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    worst_gap = np.inf
    for _ in range(n_pairs):
        pi1 = g.exponential(size=chain.n)
        pi1 /= pi1.sum()
        pi2 = g.exponential(size=chain.n)
        pi2 /= pi2.sum()
        d1, d2 = pi1, pi2
        denom = max(float(pi1 @ f), float(pi2 @ f))
        base = tv_distance(pi1, pi2) / denom
        for t in range(0, t_max + 1):
            lhs = tv_distance(d1, d2)
            rhs = c**3 * rate ** (t // cert.t0) * base
            worst_gap = min(worst_gap, rhs - lhs)
            d1 = d1 @ chain.kernel
            d1 /= d1.sum()
            d2 = d2 @ chain.kernel
            d2 /= d2.sum()
    rep.check_ge("tv-contraction-margin", float(worst_gap), 0.0, tol=tol)

    mods = np.sort(np.abs(np.linalg.eigvals(p)))[::-1]
    second = float(mods[1]) if chain.n > 1 else 0.0
    rep.check_le(
        "second-eigenvalue-bound",
        second,
        spec.perron**cert.t0 * rate,
        tol=tol,
    )
    rep.add_info("perron", spec.perron)
    rep.add_info("contraction-factor", rate)
    return rep


@dataclass(frozen=True)
class SurvivalRatioResult:
    """c(pi) = inf_t P_pi(t < tau) / sup_z P_z(t < tau) with its pieces."""

    c: float
    grid_min: float
    grid_argmin: int
    limit: float | None
    monotone_nonincreasing: bool

    @property
    def limit_unavailable(self) -> bool:
        return self.limit is None


def survival_ratio(
    chain: FiniteAbsorbedChain, pi: np.ndarray, horizon: int
) -> SurvivalRatioResult:
    """Survival-comparison constant c(pi) over {0..horizon} plus its t->inf limit.

    The ratio c_t(pi) = pi(Q^t 1)/max_x (Q^t 1)_x is scale-free, so the
    survival vector is renormalized every step; the spectral limit is
    pi(eta)/||eta||_inf.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    pi = np.asarray(pi, dtype=float)
    v = np.ones(chain.n)
    vals = np.empty(horizon + 1)
    for t in range(horizon + 1):
        vals[t] = float(pi @ v) / float(v.max())
        v = chain.kernel @ v
        v /= v.max()
    grid_min = float(vals.min())
    grid_argmin = int(vals.argmin())
    monotone = bool((np.diff(vals) <= 1e-14).all())
    try:
        spec = qsd_spectral(chain)
        limit = float(pi @ spec.eta) / float(spec.eta.max())
    except PrimitivityError:
        return SurvivalRatioResult(grid_min, grid_min, grid_argmin, None, monotone)
    return SurvivalRatioResult(
        min(grid_min, limit), grid_min, grid_argmin, limit, monotone
    )


def infimum_measure(chain: FiniteAbsorbedChain, x: int, y: int, t: int) -> Measure:
    """Infimum measure of delta_x Q^t and delta_y Q^t (elementwise row min)."""
    p = chain.power(t)
    return Measure(chain.support, np.minimum(p[x], p[y]))


def _pair_min_masses(p2: np.ndarray) -> np.ndarray:
    """mass of the infimum measure for every state pair: (n, n)."""
    return np.minimum(p2[:, None, :], p2[None, :, :]).sum(axis=2)


def build_nu_xy(
    chain: FiniteAbsorbedChain,
    K: np.ndarray,
    t1: int,
    x: int,
    y: int,
) -> tuple[Measure, float]:
    """Pair-minorization measure nu_{x,y} and its mass m_{x,y}.

    nu_{x,y} is the double sum over (u, u') in K x K of the infimum
    measures of the 2*t1-step laws, weighted by the conditioned 2*t1-step
    laws from x and y restricted to K; m_{x,y} is the normalizing mass and
    satisfies m_{x,y} >= A^2 min_{u,u' in K} (infimum mass) with A the
    conditioned return probability to K.
    """
    K = np.asarray(K, dtype=int)
    if K.size == 0:
        raise ValueError("K must be nonempty")
    p2 = chain.power(2 * t1)
    cond = p2 / p2.sum(axis=1, keepdims=True)
    wx = cond[x][K]
    wy = cond[y][K]
    mins = np.minimum(p2[K][:, None, :], p2[K][None, :, :])  # (|K|, |K|, n)
    nu_raw = np.einsum("u,v,uvk->k", wx, wy, mins)
    m = float(nu_raw.sum())
    if m <= 0:
        raise EmptyOverlapError(
            f"nu_({x},{y}) has zero mass: K too small or chain reducible"
        )
    return Measure(chain.support, nu_raw / m), m


@dataclass(frozen=True)
class ConditionAPrimeResult:
    c1: float
    c2: float
    A: float
    t0: int
    report: VerificationReport

    @property
    def contraction_factor(self) -> float:
        return 1.0 - self.c1 * self.c2


def check_condition_A_prime(
    chain: FiniteAbsorbedChain,
    K: np.ndarray,
    t1: int,
    horizon: int = 100,
    tol: float = 1e-10,
) -> ConditionAPrimeResult:
    """Exact pair-minorization constants and the TV decay they certify.

    c1' = min_{x,y} m_{x,y} (minorization of both conditioned laws at
    t0 = 4 t1 by nu_{x,y}); c2' = min over t <= horizon and x,y,z of
    P_{nu_{x,y}}(t < tau)/P_z(t < tau), floored by its spectral limit;
    A = min_x P_x(X_{2 t1} in K | survival).  The report then verifies,
    exhaustively over delta starts and t <= horizon, that conditioned TV
    distances respect 2 (1 - c1' c2')^floor(t / 4 t1).
    """
    if not is_primitive(chain):
        raise PrimitivityError("condition (A') constants need a primitive chain")
    K = np.asarray(K, dtype=int)
    n = chain.n
    p2 = chain.power(2 * t1)
    cond2 = p2 / p2.sum(axis=1, keepdims=True)
    A = float(cond2[:, K].sum(axis=1).min())

    pair_mass = _pair_min_masses(p2[K])  # infimum masses over K x K
    nus = np.empty((n, n, n))
    masses = np.empty((n, n))
    mins = np.minimum(p2[K][:, None, :], p2[K][None, :, :])
    for x in range(n):
        for y in range(n):
            raw = np.einsum("u,v,uvk->k", cond2[x][K], cond2[y][K], mins)
            m = raw.sum()
            if m <= 0:
                raise EmptyOverlapError(f"nu_({x},{y}) has zero mass")
            masses[x, y] = m
            nus[x, y] = raw / m
    c1 = float(masses.min())

    spec = qsd_spectral(chain)
    c2 = np.inf
    v = np.ones(n)
    for _ in range(horizon + 1):
        ratios = (nus @ v) / v.max()
        c2 = min(c2, float(ratios.min()))
        v = chain.kernel @ v
        v /= v.max()
    limit = float((nus @ spec.eta).min() / spec.eta.max())
    c2 = min(c2, limit)

    rep = VerificationReport(title=f"condition (A') checks (t1={t1}, t0={4 * t1})")
    rep.add_info("A-return-probability", A)
    rep.add_info("c1-prime", c1)
    rep.add_info("c2-prime", c2)
    rep.check_ge(
        "mass-lower-bound-margin",
        float((masses - A**2 * pair_mass.min()).min()),
        0.0,
        tol=tol,
    )
    rep.check_le("contraction-factor", 1.0 - c1 * c2, 1.0 - tol, tol=0.0)

    # minorization of both conditioned laws at t0 = 4 t1 by m_{x,y} nu_{x,y}
    p4 = chain.power(4 * t1)
    cond4 = p4 / p4.sum(axis=1, keepdims=True)
    worst = np.inf
    for x in range(n):
        for y in range(n):
            bound = masses[x, y] * nus[x, y]
            worst = min(
                worst,
                float((cond4[x] - bound).min()),
                float((cond4[y] - bound).min()),
            )
    rep.check_ge("a1-prime-minorization-margin", worst, 0.0, tol=tol)

    rate = 1.0 - c1 * c2
    t0 = 4 * t1
    rows = np.eye(n)
    worst_gap = np.inf
    for t in range(horizon + 1):
        if t > 0:
            rows = rows @ chain.kernel
            rows = rows / rows.sum(axis=1, keepdims=True)
        bound = 2.0 * rate ** (t // t0)
        diffs = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
        worst_gap = min(worst_gap, float((bound - diffs).min()))
    rep.check_ge("tv-decay-margin", worst_gap, 0.0, tol=tol)
    return ConditionAPrimeResult(c1=c1, c2=c2, A=A, t0=t0, report=rep)
