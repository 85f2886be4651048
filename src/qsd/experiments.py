"""Experiment runners behind the CLI: config in, report + CSV artifacts out.

Every runner is deterministic given (config, seed): artifacts are
byte-identical across reruns.  Runners return (report, estimation_only);
the CLI exits 0 iff the report passes or the experiment only estimates.
"""

from __future__ import annotations

import os

import numpy as np

from . import certificates as certs
from . import chains as ch
from . import scale1d
from .config import ConfigError, ExperimentConfig
from .domains import InnerCompact
from .measures import Measure, write_histogram_csv
from .models import DiffusionModel, build_model, validate_model
from .particles import fleming_viot_run, lambda0_estimate
from .report import VerificationReport
from .rng import step_generator, substream
from .simulate import PathConfig, _snap_steps, simulate_path, survival_snapshots


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def _load_chain(cfg: ExperimentConfig) -> ch.FiniteAbsorbedChain:
    """The `[model] chain` file; a relative path is taken from the config's directory."""
    path = os.path.join(os.path.dirname(cfg.path), cfg.get_str("model", "chain"))
    if not os.path.exists(path):
        raise ConfigError(f"{cfg.path}: chain file {path!r} does not exist")
    try:
        return ch.load_chain(path, dt=cfg.get_float("model", "dt", 1.0))
    except ch.ChainFormatError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _load_model(cfg: ExperimentConfig) -> DiffusionModel:
    model = build_model(
        cfg.get_str("model", "domain"),
        cfg.get_str("model", "drift", "zero"),
        cfg.get_str("model", "diffusion"),
    )
    rep = validate_model(model)
    if not rep.passed:
        raise ConfigError(f"{cfg.path}: declared model bounds fail the spot check")
    return model


def run_finite_verify(cfg: ExperimentConfig, out: str, seed: int):
    chain = _load_chain(cfg)
    t0 = cfg.positive(cfg.get_int("params", "t0"), "params", "t0")
    n_pairs = cfg.positive(cfg.get_int("params", "n_pairs", 10), "params", "n_pairs")
    t_max = cfg.positive(cfg.get_int("params", "t_max", 50), "params", "t_max")
    a_prime = cfg.get_bool("params", "a_prime", False)
    if a_prime:
        t1 = cfg.positive(cfg.get_int("params", "t1", 1), "params", "t1")
        horizon = cfg.positive(cfg.get_int("params", "horizon", 100), "params", "horizon")
    cert = ch.fit_two_sided(chain, t0)
    report = ch.verify_theorem_2_1(chain, cert, n_pairs=n_pairs, t_max=t_max, seed=seed)
    spec = ch.qsd_spectral(chain)
    # QSD fixed point and survival identity
    d, surv = ch.evolve_conditioned(chain, spec.alpha, t_max)
    report.check_le(
        "qsd-fixed-point-tv",
        float(np.abs(d - spec.alpha).sum()),
        0.0,
        tol=1e-10,
    )
    report.check_le(
        "alpha-survival-identity",
        abs(surv - spec.perron**t_max) / spec.perron**t_max,
        0.0,
        tol=1e-10,
    )
    if a_prime:
        res = ch.check_condition_A_prime(chain, np.arange(chain.n), t1, horizon=horizon)
        report.extend(res.report, prefix="a-prime/")
    _write_csv(
        os.path.join(out, "certificate.csv"),
        "state,f,mu",
        [(str(i), cert.f[i], cert.mu[i]) for i in range(chain.n)],
    )
    _write_csv(
        os.path.join(out, "spectral.csv"),
        "state,alpha,eta",
        [(str(i), spec.alpha[i], spec.eta[i]) for i in range(chain.n)],
    )
    return report, False


def run_two_sided_fit(cfg: ExperimentConfig, out: str, seed: int):
    chain = _load_chain(cfg)
    t0 = cfg.positive(cfg.get_int("params", "t0"), "params", "t0")
    cert = ch.fit_two_sided(chain, t0)
    p = chain.power(t0)
    lo, hi = cert.kernel_bounds()
    report = VerificationReport(title=f"two-sided fit at t0={t0}")
    report.add_info("c", cert.c)
    report.add_info("c1", cert.c1)
    report.add_info("c2", cert.c2)
    report.add_info("mu-f", cert.mu_f)
    report.check_ge("kernel-lower-margin", float((p - lo).min()), 0.0, tol=1e-12)
    report.check_ge("kernel-upper-margin", float((hi - p).min()), 0.0, tol=1e-12)
    report.check_le("f-sup-below-c", float(cert.f.max()), cert.c, tol=1e-12)
    _write_csv(
        os.path.join(out, "certificate.csv"),
        "state,f,mu",
        [(str(i), cert.f[i], cert.mu[i]) for i in range(chain.n)],
    )
    return report, False


def run_simulate(cfg: ExperimentConfig, out: str, seed: int):
    model = _load_model(cfg)
    dt = cfg.positive(cfg.get_float("params", "dt"), "params", "dt")
    horizon = cfg.at_least(cfg.get_float("params", "horizon"), dt, "params", "horizon")  # one step at least
    n = cfg.positive(cfg.get_int("params", "n", 10000), "params", "n")
    x0 = cfg.get_floats("params", "x0")
    n_times = cfg.positive(cfg.get_int("params", "snapshots", 10), "params", "snapshots")
    bridge = cfg.get_bool("params", "bridge", True)
    times = np.linspace(horizon / n_times, horizon, n_times)
    starts = np.tile(np.asarray(x0), (n, 1))
    res = survival_snapshots(model, starts, times, dt, substream(seed, 1), bridge=bridge)
    _write_csv(
        os.path.join(out, "survival_series.csv"),
        "t,estimate,se",
        list(zip(res.times, res.survival(), res.standard_errors())),
    )
    path = simulate_path(
        model, x0, PathConfig(dt=dt, horizon=horizon, seed=substream(seed, 2), bridge_correction=bridge)
    )
    _write_csv(
        os.path.join(out, "path.csv"),
        ",".join(["t"] + [f"x{k}" for k in range(model.dim)]),
        [(t, *pos) for t, pos in zip(path.times, path.positions)],
    )
    report = VerificationReport(title="simulate")
    report.add_info("final-survival", res.survival()[-1], se=res.standard_errors()[-1])
    report.add_info("absorption-time-sample-path", path.absorption_time if path.absorbed else np.inf)
    return report, True


def run_fleming_viot(cfg: ExperimentConfig, out: str, seed: int):
    model = _load_model(cfg)
    dt = cfg.positive(cfg.get_float("params", "dt"), "params", "dt")
    horizon = cfg.at_least(cfg.get_float("params", "horizon"), dt, "params", "horizon")  # one step at least
    n = cfg.at_least(cfg.get_int("params", "n"), 2, "params", "n")
    bins = cfg.positive(cfg.get_int("params", "bins", 64), "params", "bins")
    burn_in = cfg.at_least(cfg.get_float("params", "burn_in", horizon / 2), 0.0, "params", "burn_in")
    burn_steps, n_steps = _snap_steps([burn_in, horizon], dt)
    if burn_steps >= n_steps:
        raise cfg.invalid("params", "burn_in", f"at most {(n_steps - 1) * dt:g}, a step before the horizon", burn_in)
    res = fleming_viot_run(
        model, n, horizon, bins, substream(seed, 3), dt=dt, burn_in=burn_in
    )
    try:
        fit = lambda0_estimate(
            res.rebirth_times, res.rebirth_rates, kind="rebirth", window=(burn_in, horizon)
        )
    except ValueError:  # no time of the rebirth-rate series at or after burn_in
        last = res.rebirth_times[-1]
        raise cfg.invalid("params", "burn_in", f"at most {last:g}, the last rebirth-rate time", burn_in) from None
    write_histogram_csv(os.path.join(out, "occupation.csv"), res.occupation)
    write_histogram_csv(os.path.join(out, "final.csv"), res.final_histogram)
    _write_csv(
        os.path.join(out, "rebirth_series.csv"),
        "t,rate",
        list(zip(res.rebirth_times, res.rebirth_rates)),
    )
    report = VerificationReport(title="fleming-viot")
    report.add_info("lambda0-rebirth-rate", fit.lambda0, se=fit.se or 0.0)
    report.add_info("total-rebirths", res.total_rebirths)
    return report, True


def run_certify_A(cfg: ExperimentConfig, out: str, seed: int):
    model = _load_model(cfg)
    dt = cfg.positive(cfg.get_float("params", "dt"), "params", "dt")
    bins = cfg.positive(cfg.get_int("params", "bins", 32), "params", "bins")
    budget = cfg.at_least(cfg.get_int("params", "n", 20000), 100, "params", "n")
    times = cfg.at_least(cfg.get_floats("params", "times"), 0.0, "params", "times")
    if (np.diff(times) <= 0).any():
        raise cfg.invalid("params", "times", "increasing", times)
    t0s = cfg.positive(cfg.get_floats("params", "t0_candidates"), "params", "t0_candidates")
    grid = certs.default_probe_grid(model, times, budget, seed=substream(seed, 4))
    cert = certs.certify_condition_A(
        model, grid, t0s, bins, substream(seed, 5), dt=dt
    )
    write_histogram_csv(os.path.join(out, "nu.csv"), cert.nu)
    _write_csv(
        os.path.join(out, "conditionA.csv"),
        "t0,c1,c2,gamma_hat",
        [(cert.t0, cert.c1, cert.c2, cert.gamma_hat)],
    )
    report = VerificationReport(title="condition (A) certificate")
    report.add_info("t0", cert.t0)
    report.add_info("c1", cert.c1)
    report.add_info("c2", cert.c2)
    report.add_info("gamma-hat", cert.gamma_hat)
    report.check_le("rate-factor-below-1", 1 - cert.c1 * cert.c2, 1.0 - 1e-12)
    return report, False


def _points(cfg: ExperimentConfig, model) -> np.ndarray:
    """`[params] points`, read as rows of `model.dim` coordinates, each in
    the open domain."""
    flat, dim = cfg.get_floats("params", "points"), model.dim
    if not flat or len(flat) % dim:
        raise cfg.invalid("params", "points", f"a nonzero multiple of {dim} numbers", len(flat))
    pts = np.asarray(flat).reshape(-1, dim)
    if not (inside := model.domain.contains(pts)).all():
        raise cfg.invalid("params", "points", "inside the open domain", pts[~inside][0].tolist())
    return pts


def run_gradient(cfg: ExperimentConfig, out: str, seed: int):
    model = _load_model(cfg)
    times = cfg.at_least(cfg.get_floats("params", "times"), 0.0, "params", "times")
    dts = cfg.positive(cfg.get_floats("params", "dts"), "params", "dts")
    windows = cfg.at_least(cfg.get_floats("params", "windows", [0.0] * len(times)), 0.0, "params", "windows")
    for key, vals in (("dts", dts), ("windows", windows)):
        if len(vals) != len(times):
            raise cfg.invalid("params", key, f"{len(times)} numbers, one per time", len(vals))
    n = cfg.positive(cfg.get_int("params", "n", 20000), "params", "n")
    points = _points(cfg, model)
    prof = certs.gradient_profile(
        model,
        times,
        points,
        n,
        substream(seed, 6),
        dts=dts,
        windows=windows,
        shape_factor=cfg.get_float("params", "shape_factor", 2.0),
    )
    _write_csv(
        os.path.join(out, "gradient.csv"),
        "t,lipschitz,max_survival,inconclusive",
        [
            (t, L, ms, str(int(f)))
            for t, L, ms, f in zip(prof.times, prof.lipschitz, prof.max_survival, prof.inconclusive)
        ],
    )
    return prof.report, False


def run_boundary_return(cfg: ExperimentConfig, out: str, seed: int):
    model = _load_model(cfg)
    dt = cfg.positive(cfg.get_float("params", "dt"), "params", "dt")
    # heuristic defaults: K = M_eps at a quarter inradius, t1 at the
    # diffusive crossing time of that collar
    eps = cfg.get_float("params", "eps", model.domain.inradius / 4.0)
    if not 0 < eps < model.domain.inradius:
        raise cfg.invalid("params", "eps", f"inside (0, inradius) = (0, {model.domain.inradius:g})", eps)
    t1 = cfg.positive(cfg.get_float("params", "t1", eps**2 / model.sigma_max2), "params", "t1")
    n = cfg.at_least(cfg.get_int("params", "n", 100000), 100, "params", "n")
    points = _points(cfg, model)
    res = certs.boundary_return_constant(
        model, InnerCompact(model.domain, eps), t1, points, n, substream(seed, 7), dt=dt
    )
    _write_csv(
        os.path.join(out, "boundary_return.csv"),
        "point,ratio",
        [(str(k), r) for k, r in enumerate(res.ratios)],
    )
    return res.report, False


def run_scale1d(cfg: ExperimentConfig, out: str, seed: int):
    a = cfg.at_least(cfg.get_float("params", "a"), 0.0, "params", "a")
    eps0 = cfg.get_float("params", "eps0", None)
    eps1 = cfg.get_float("params", "eps1", None)
    if eps1 is None:
        if eps0 is None:
            raise ConfigError(f"{cfg.path}: missing required field 'eps0' (or 'eps1') in [params]")
        eps1 = float(scale1d.scale_function(a, cfg.positive(eps0, "params", "eps0")))
    cfg.positive(eps1, "params", "eps1")
    n = cfg.positive(cfg.get_int("params", "n", 20000), "params", "n")
    dt = cfg.positive(cfg.get_float("params", "dt", 1e-4), "params", "dt")
    u_grid = cfg.get_floats("params", "u_grid", [eps1 / 8, eps1 / 4, 3 * eps1 / 8])
    if bad := [u for u in u_grid if not 0 < u < eps1 / 2]:
        raise cfg.invalid("params", "u_grid", f"inside (0, eps1/2) = (0, {eps1 / 2:g})", bad[0])
    report = scale1d.escape_bounds_check(a, eps1, u_grid, n, substream(seed, 8), dt=dt)
    c_eps, s1 = scale1d.green_constants(a, eps1)
    _write_csv(
        os.path.join(out, "green.csv"),
        "a,eps1,c_eps1,s1",
        [(a, eps1, c_eps, s1)],
    )
    _write_csv(
        os.path.join(out, "exit_time.csv"),
        "u,expected_exit_time",
        [(u, scale1d.expected_exit_time(a, u, eps1 / 2)) for u in u_grid],
    )
    return report, False


def run_decay_report(cfg: ExperimentConfig, out: str, seed: int):
    if cfg.get_str("model", "chain", None) is not None:
        chain = _load_chain(cfg)
        t0 = cfg.positive(cfg.get_int("params", "t0"), "params", "t0")
        n_pairs = cfg.positive(cfg.get_int("params", "n_pairs", 5), "params", "n_pairs")
        t_max = cfg.positive(cfg.get_int("params", "t_max", 60), "params", "t_max")
        cert = ch.fit_two_sided(chain, t0)
        g = step_generator(seed, 77)
        pairs = g.exponential(size=(n_pairs, 2, chain.n))
        pairs /= pairs.sum(axis=2, keepdims=True)
        report = certs.decay_report_chain(chain, cert, pairs, t_max)
        return report, False
    model = _load_model(cfg)
    dt = cfg.positive(cfg.get_float("params", "dt"), "params", "dt")
    times = cfg.at_least(cfg.get_floats("params", "times"), 0.0, "params", "times")
    x = cfg.get_floats("params", "x")
    y = cfg.get_floats("params", "y")
    n = cfg.at_least(cfg.get_int("params", "n", 100000), 100, "params", "n")
    bins = cfg.positive(cfg.get_int("params", "bins", 16), "params", "bins")
    # nu itself is not used by the decay checks, only (t0, c1, c2); carry a
    # uniform placeholder so the certificate type stays valid
    grid = certs.domain_grid(model, bins)
    t0 = cfg.positive(cfg.get_float("certificate", "t0"), "certificate", "t0")
    c1, c2 = (cfg.get_float("certificate", key) for key in ("c1", "c2"))
    for key, c in (("c1", c1), ("c2", c2)):
        if not 0 < c <= 1:
            raise cfg.invalid("certificate", key, "inside (0, 1]", c)
    cert = certs.ConditionACertificate(t0=t0, c1=c1, nu=Measure(grid, np.full(grid.size, 1.0 / grid.size)), c2=c2)
    report = certs.decay_report_model(
        model, cert, [(np.asarray(x), np.asarray(y))], times, n, bins, substream(seed, 9), dt=dt
    )
    return report, False


RUNNERS = {
    "finite-verify": run_finite_verify,
    "two-sided-fit": run_two_sided_fit,
    "simulate": run_simulate,
    "fleming-viot": run_fleming_viot,
    "certify-A": run_certify_A,
    "gradient": run_gradient,
    "boundary-return": run_boundary_return,
    "scale1d": run_scale1d,
    "decay-report": run_decay_report,
}
