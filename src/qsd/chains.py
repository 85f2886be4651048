"""Exact linear-algebra engine for finite absorbed Markov chains.

A chain is a substochastic kernel Q on states {0..n-1}; the mass missing
from each row is sent to the cemetery.  Everything here is exact (up to
floating point): conditioned evolution, quasi-stationary spectra,
two-sided-estimate certificates, and the minorization objects built from
infimum measures.

Each chain caches what depends on its kernel alone: the primitivity
verdict, the Perron data of `qsd_spectral` and the read-only matrix powers
of `power`.  The cache lives on the instance and dies with it; a
`PrimitivityError` is raised again on every call, never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measures import FiniteSupport, Measure, tv_distance
from .report import VerificationReport
from .rng import step_generator

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
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        """Q^t, computed once per t and returned read-only."""
        if t < 0:
            raise ValueError("negative power")
        p = self._cache.get(("power", t))
        if p is None:
            p = np.linalg.matrix_power(self.kernel, t)
            p.flags.writeable = False
            self._cache[("power", t)] = p
        return p


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
    """Primitivity via boolean matrix squaring up to exponent >= n^2 (cached per chain)."""
    if "primitive" not in chain._cache:
        chain._cache["primitive"] = _is_primitive(chain)
    return chain._cache["primitive"]


def _is_primitive(chain: FiniteAbsorbedChain) -> bool:
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
    eigenvalue modulus (None when n exceeds the dense-eig cap);
    iterations: power-iteration steps taken (0 on the dense path).
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
    """Left/right Perron vectors, Perron value and second eigenvalue modulus.

    For n <= DENSE_EIG_MAX_N the vectors are dense eigenvectors of Q and Q^T
    for the eigenvalue of largest real part; beyond the cap they come from
    renormalized power iteration, the only path `tol` and `max_iter` apply
    to.  perron is the Rayleigh quotient alpha Q eta / alpha eta.  Cached
    on the chain, with read-only vectors.
    """
    if not is_primitive(chain):
        raise PrimitivityError(
            "kernel is not primitive; quasi-stationary distribution may be non-unique"
        )
    key = ("spectral", tol, max_iter)
    if key in chain._cache:
        return chain._cache[key]
    q = chain.kernel
    n = chain.n
    if n <= DENSE_EIG_MAX_N:
        w, right = np.linalg.eig(q)
        eta = np.abs(right[:, np.argmax(w.real)].real)
        eta /= eta.max()
        wl, left = np.linalg.eig(q.T)
        alpha = np.abs(left[:, np.argmax(wl.real)].real)
        alpha /= alpha.sum()
        mods = np.sort(np.abs(w))[::-1]
        second = float(mods[1]) if n > 1 else 0.0
        iterations = 0
    else:
        alpha, eta, iterations = _power_iteration(q, tol, max_iter)
        second = None
    perron = float(alpha @ q @ eta) / float(alpha @ eta)
    alpha.flags.writeable = eta.flags.writeable = False  # shared by every caller
    spec = SpectralData(
        alpha=alpha,
        perron=perron,
        lambda0=-float(np.log(perron)) / chain.dt,
        eta=eta,
        second_modulus=second,
        iterations=iterations,
    )
    chain._cache[key] = spec
    return spec


def _power_iteration(
    q: np.ndarray, tol: float, max_iter: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(alpha, eta, iterations) by renormalized power iteration on q and q^T."""
    n = q.shape[0]
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
    return alpha, eta, max(it_a, it_e)


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


def _conditioned_tv(
    chain: FiniteAbsorbedChain, laws: np.ndarray, pairs: np.ndarray, t_max: int
) -> np.ndarray:
    """TV distance between the conditioned laws evolved from laws[i] and
    laws[j] for every row (i, j) of `pairs`, at t = 0..t_max: (len(pairs), t_max + 1)."""
    d = laws
    tvs = np.empty((len(pairs), t_max + 1))
    for t in range(t_max + 1):
        tvs[:, t] = np.abs(d[pairs[:, 0]] - d[pairs[:, 1]]).sum(axis=1)
        d = d @ chain.kernel
        d /= d.sum(axis=1, keepdims=True)
    return tvs


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
    Failures are recorded in the report, never raised; n_pairs < 1 is a
    ValueError, since check (iii) would then have no evidence.
    """
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
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
    g = step_generator(seed, 0)
    laws = g.exponential(size=(2 * n_pairs, chain.n))  # pi1, pi2 of each pair in turn
    laws /= laws.sum(axis=1, keepdims=True)
    tvs = _conditioned_tv(chain, laws, np.arange(2 * n_pairs).reshape(-1, 2), t_max)
    base = tvs[:, :1] / (laws @ f).reshape(-1, 2).max(axis=1, keepdims=True)
    rhs = c**3 * rate ** (np.arange(t_max + 1) // cert.t0) * base
    rep.check_ge("tv-contraction-margin", float((rhs - tvs).min()), 0.0, tol=tol)

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
    vals, limits = _survival_ratios(chain, pi[None, :], horizon)
    vals = vals[0]
    grid_min = float(vals.min())
    grid_argmin = int(vals.argmin())
    monotone = bool((np.diff(vals) <= 1e-14).all())
    if limits is None:
        return SurvivalRatioResult(grid_min, grid_min, grid_argmin, None, monotone)
    limit = float(limits[0])
    return SurvivalRatioResult(
        min(grid_min, limit), grid_min, grid_argmin, limit, monotone
    )


def _survival_ratios(
    chain: FiniteAbsorbedChain, laws: np.ndarray, horizon: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Ratios c_t(pi) for every row pi of `laws` and t = 0..horizon, (m, horizon + 1),
    and their limits pi(eta)/||eta||_inf (None when the chain is not primitive)."""
    v = np.ones(chain.n)
    vals = np.empty((len(laws), horizon + 1))
    for t in range(horizon + 1):
        vals[:, t] = (laws @ v) / v.max()
        v = chain.kernel @ v
        v /= v.max()
    if not is_primitive(chain):
        return vals, None
    eta = qsd_spectral(chain).eta
    return vals, (laws @ eta) / eta.max()


def infimum_measure(chain: FiniteAbsorbedChain, x: int, y: int, t: int) -> Measure:
    """Infimum measure of delta_x Q^t and delta_y Q^t (elementwise row min)."""
    p = chain.power(t)
    return Measure(chain.support, np.minimum(p[x], p[y]))


def _pair_nu_raw(pK: np.ndarray, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Unnormalized nu for every row pair of wx (a, |K|) and wy (b, |K|): (a, b, n).

    raw[x, y] = sum_{u, v in K} wx[x, u] wy[y, v] min(pK[u], pK[v]), where
    pK holds the 2*t1-step rows of K; one tensordot contracts u and one
    batched matmul contracts v, O(a |K|^2 n + a b |K| n) in all.
    """
    mins = np.minimum(pK[:, None, :], pK[None, :, :])  # (|K|, |K|, n)
    return wy @ np.tensordot(wx, mins, (1, 0))


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
    w = (p2 / p2.sum(axis=1, keepdims=True))[:, K]
    nu_raw = _pair_nu_raw(p2[K], w[[x]], w[[y]])[0, 0]
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

    pK = p2[K]
    pair_mass = np.minimum(pK[:, None, :], pK[None, :, :]).sum(axis=2)  # infimum masses over K x K
    W = cond2[:, K]
    raw = _pair_nu_raw(pK, W, W)  # raw[x, y] = m_{x,y} nu_{x,y}
    masses = raw.sum(axis=2)
    empty = np.argwhere(masses <= 0)
    if empty.size:
        x, y = empty[0]
        raise EmptyOverlapError(f"nu_({x},{y}) has zero mass")
    c1 = float(masses.min())
    # minorization of both conditioned laws at t0 = 4 t1 by m_{x,y} nu_{x,y} = raw[x, y]
    p4 = chain.power(4 * t1)
    cond4 = p4 / p4.sum(axis=1, keepdims=True)
    worst = min(float((cond4[:, None, :] - raw).min()), float((cond4[None, :, :] - raw).min()))
    raw /= masses[:, :, None]  # now raw[x, y] = nu_{x,y}

    # nu_{x,y} = nu_{y,x} (swap u and v in the double sum): pairs x <= y suffice
    vals, limits = _survival_ratios(chain, raw[np.triu_indices(n)], horizon)
    c2 = min(float(vals.min()), float(limits.min()))
    del raw, vals  # n^3 + n^2 (horizon + 1) / 2 floats the TV loop below does not need

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
    rep.check_ge("a1-prime-minorization-margin", worst, 0.0, tol=tol)

    rate = 1.0 - c1 * c2
    t0 = 4 * t1
    tvs = _conditioned_tv(chain, np.eye(n), np.transpose(np.triu_indices(n)), horizon)
    worst_gap = float((2.0 * rate ** (np.arange(horizon + 1) // t0) - tvs).min())
    rep.check_ge("tv-decay-margin", worst_gap, 0.0, tol=tol)
    return ConditionAPrimeResult(c1=c1, c2=c2, A=A, t0=t0, report=rep)
