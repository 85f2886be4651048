"""The three benchmark workloads, their generated inputs and reference checks.

A workload builds the task list of one round from (workload seed, round
index); every round gets fresh inputs, so a per-chain or per-model cache can
only help within a round, never across rounds or from the warm-up.  A task
is one or more timed calls into the program (a generator yields between
calls) plus an untimed reference check, which returns a digest of the
outputs or raises `CheckFailed`; the runner counts an exception in either as
a failed task.

* `chain-exact`: the exact engine alone.  Dense random positive chains
  (the acceptance-suite recipe: 100 five-state chains with row sum 0.9, plus
  a few at n = 20 and 40) stress per-call overhead and the condition-(A')
  kernel; killed lazy random walks at n = 40, 80, 160 mix slowly, so
  power iteration in `qsd_spectral` dominates and is recomputed by every
  spectral consumer.  No Monte-Carlo layer runs.
* `bm-qsd`: large-batch Monte Carlo on Brownian motion killed outside
  (0, pi): a Fleming-Viot run and conditioned-law series from pi/2, checked
  against the sin profile and lambda0 = 1/2.
* `cli-kinds`: every CLI kind in process, on the benchmark's own configs
  (2-d box and ball models with linear drift and a Hoelder diffusion),
  with reports and CSV artifacts written.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qsd import certificates, chains, cli, models, particles

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
Z = 6.0  # reference tolerances sit this many standard errors out
PI = math.pi


class CheckFailed(Exception):
    """A task's output missed the benchmark's reference check."""


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable[[], object]  # the timed calls into the program
    check: Callable[[object], str]  # reference check; returns an output digest
    unit: bool = False  # sampled for the task latency percentiles
    tag: str = ""  # chain tag carried by the traced spans


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else np.ascontiguousarray(p).tobytes())
    return h.hexdigest()


def _rng(seed: int, round_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_index, salt])


def _fail_report(name: str, *reports) -> None:
    bad = [f"{c.name}" for rep in reports for c in rep.checks if not c.passed]
    if bad:
        raise CheckFailed(f"{name}: report checks failed: {', '.join(bad[:5])}")


# --- chain-exact -----------------------------------------------------------------


def dense_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random positive kernel with row sums 0.9 (acceptance-suite recipe)."""
    q = rng.uniform(size=(n, n))
    return q * (0.9 / q.sum(axis=1, keepdims=True))


def band_chain(rng: np.random.Generator, n: int) -> np.ndarray:
    """Lazy random walk killed at both ends (a discretised killed BM).

    A seed-drawn uniform extra killing scales the kernel; it changes the
    Perron data but not the convergence ratio, so the work per chain is the
    same for every seed.
    """
    keep = 1.0 - rng.uniform(0.0, 0.01)
    q = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    return keep * q


def _perron_reference(q: np.ndarray):
    w, vl = np.linalg.eig(q.T)
    k = int(np.argmax(w.real))
    alpha = np.abs(vl[:, k].real)
    alpha /= alpha.sum()
    w2, vr = np.linalg.eig(q)
    eta = np.abs(vr[:, int(np.argmax(w2.real))].real)
    eta /= eta.max()
    return float(w[k].real), alpha, eta


def _laws(rng, n):
    p = rng.exponential(size=(2, n))
    return p / p.sum(axis=1, keepdims=True)


def _chain_task(name: str, tag: str, q: np.ndarray, rng: np.random.Generator, unit: bool) -> Task:
    n = q.shape[0]
    dense = tag.startswith("dense")
    pi1, pi2 = _laws(rng, n)
    pair_seed = int(rng.integers(2**31))

    def run():  # yields after each call, so each call is calibrated on its own
        chain = chains.FiniteAbsorbedChain(q)
        spec = chains.qsd_spectral(chain)
        yield
        cert = chains.fit_two_sided(chain, 1 if dense else n)
        yield
        reports = [
            chains.verify_theorem_2_1(chain, cert, n_pairs=10 if dense else 2, t_max=50, seed=pair_seed)
        ]
        yield
        ratio = None
        if dense:
            reports.append(chains.check_condition_A_prime(chain, np.arange(n), 1, horizon=100).report)
            yield
            ratio = chains.survival_ratio(chain, pi1, 100).c
            yield
        reports.append(certificates.decay_report_chain(chain, cert, [(pi1, pi2)], 60 if dense else 50))
        return spec, ratio, reports

    def check(res) -> str:
        spec, ratio, reports = res
        perron, alpha, eta = _perron_reference(q)
        err = max(abs(spec.perron - perron), np.abs(spec.alpha - alpha).max(), np.abs(spec.eta - eta).max())
        if not err <= 1e-10:
            raise CheckFailed(f"{name}: Perron data off dense eig by {err:.3g}")
        if ratio is not None and not 0 < ratio <= 1 + 1e-12:
            raise CheckFailed(f"{name}: survival ratio {ratio} outside (0, 1]")
        _fail_report(name, *reports)
        return _digest(spec.alpha, spec.eta, *(r.to_csv().encode() for r in reports))

    return Task(name, run, check, unit=unit, tag=tag)


def chain_exact_tasks(seed: int, round_index: int, small: bool, work: Path, tracer=None) -> list[Task]:
    rng = _rng(seed, round_index, 1)
    plan = [("dense5", 5, 5 if small else 100), ("dense20", 20, 1 if small else 3), ("dense40", 40, 0 if small else 2)]
    tasks = []
    for tag, n, count in plan:
        for i in range(count):
            tasks.append(_chain_task(f"{tag}/{i}", tag, dense_chain(rng, n), rng, unit=tag == "dense5"))
    for n in (40,) if small else (40, 80, 160):
        tasks.append(_chain_task(f"band{n}", f"band{n}", band_chain(rng, n), rng, unit=False))
    return tasks


# --- bm-qsd ----------------------------------------------------------------------

BINS = 32


def sin_profile(bins: int) -> np.ndarray:
    """QSD of BM killed outside (0, pi): density sin(x)/2, integrated per bin."""
    e = np.linspace(0.0, PI, bins + 1)
    return 0.5 * (np.cos(e[:-1]) - np.cos(e[1:]))


def tv_tolerance(p: np.ndarray, n: float) -> float:
    """Mean plus Z sd of the unhalved TV between p and an n-sample histogram.

    Each bin error is about N(0, p(1-p)/n); |N(0, s^2)| has mean s sqrt(2/pi)
    and variance s^2 (1 - 2/pi).
    """
    var = p * (1 - p) / n
    return float(np.sqrt(2 / PI * var).sum() + Z * np.sqrt((1 - 2 / PI) * var.sum()))


def survival_from_center(t) -> np.ndarray:
    """P_{pi/2}(t < tau) for BM killed outside (0, pi), by its sine series."""
    t = np.asarray(t, dtype=float)[:, None]
    k = np.arange(1, 200, 2)
    return (4 / PI * ((-1.0) ** ((k - 1) // 2)) / k * np.exp(-(k**2) * t / 2)).sum(axis=1)


def _slope(times, surv):
    a = np.vstack([times, np.ones_like(times)]).T
    return float(np.linalg.lstsq(a, -np.log(surv), rcond=None)[0][0])


CLS_TIMES = np.arange(1, 17) * 0.125  # 0.125 .. 2.0
CLS_WINDOW = (1.0, 2.0)
FV_HORIZON, FV_BURN_IN, DT = 3.0, 1.5, 2e-3


def _cls_task(name: str, n: int, seed: int) -> Task:
    in_win = (CLS_TIMES >= CLS_WINDOW[0]) & (CLS_TIMES <= CLS_WINDOW[1])
    exact = survival_from_center(CLS_TIMES)
    bias = abs(_slope(CLS_TIMES[in_win], exact[in_win]) - 0.5)
    p1, p2 = survival_from_center(CLS_WINDOW)
    q = p2 / p1
    lam_se = math.sqrt((1 - q) / (n * p1 * q)) / (CLS_WINDOW[1] - CLS_WINDOW[0])
    sin = sin_profile(BINS)

    def run():
        model = models.brownian_interval(0.0, PI)
        return particles.conditioned_law_series(model, [PI / 2], CLS_TIMES, n, BINS, seed, dt=DT)

    def check(res) -> str:
        hists, surv = res
        if hists[-1] is None:
            raise CheckFailed(f"{name}: no survivors at t={CLS_TIMES[-1]}")
        tv = float(np.abs(hists[-1].weights - sin).sum())
        tol = tv_tolerance(sin, surv[-1] * n)
        if not tv <= tol:
            raise CheckFailed(f"{name}: TV to sin profile {tv:.4f} > {tol:.4f}")
        lam = particles.lambda0_estimate(CLS_TIMES, surv, window=CLS_WINDOW).lambda0
        if not abs(lam - 0.5) <= bias + Z * lam_se:
            raise CheckFailed(f"{name}: lambda0 {lam:.4f} off 1/2 by more than {bias + Z * lam_se:.4f}")
        return _digest(surv, *(h.weights for h in hists))

    return Task(name, run, check, unit=True)


def _fv_task(name: str, n: int, seed: int) -> Task:
    sin = sin_profile(BINS)
    window = FV_HORIZON - FV_BURN_IN

    def run():
        model = models.brownian_interval(0.0, PI)
        return particles.fleming_viot_run(model, n, FV_HORIZON, BINS, seed, dt=DT, burn_in=FV_BURN_IN)

    def check(res) -> str:
        # the time average over the window only lowers the noise of n particles
        tv = float(np.abs(res.occupation.weights - sin).sum())
        tol = tv_tolerance(sin, n)
        if not tv <= tol:
            raise CheckFailed(f"{name}: occupation TV to sin profile {tv:.4f} > {tol:.4f}")
        fit = particles.lambda0_estimate(
            res.rebirth_times, res.rebirth_rates, kind="rebirth", window=(FV_BURN_IN, FV_HORIZON)
        )
        se = max(fit.se or 0.0, math.sqrt(fit.lambda0 * n * window) / (n * window))
        if not abs(fit.lambda0 - 0.5) <= Z * se:
            raise CheckFailed(f"{name}: rebirth rate {fit.lambda0:.4f} off 1/2 by more than {Z * se:.4f}")
        return _digest(res.occupation.weights, res.rebirth_rates)

    return Task(name, run, check, unit=True)


def bm_qsd_tasks(seed: int, round_index: int, small: bool, work: Path, tracer=None) -> list[Task]:
    rng = _rng(seed, round_index, 2)
    seeds = [int(s) for s in rng.integers(2**62, size=4)]
    n_cls, n_fv = (2000, 500) if small else (10_000, 5000)
    tasks = [_cls_task(f"cls/{i}", n_cls, seeds[i]) for i in range(1 if small else 3)]
    tasks.append(_fv_task("fv", n_fv, seeds[3]))
    return tasks


# --- cli-kinds -------------------------------------------------------------------

CLI_CONFIGS = {
    "finite-verify": "finite_verify.cfg",
    "two-sided-fit": "two_sided_fit.cfg",
    "simulate": "simulate.cfg",
    "fleming-viot": "fleming_viot.cfg",
    "certify-A": "certify_A.cfg",
    "gradient": "gradient.cfg",
    "boundary-return": "boundary_return.cfg",
    "scale1d": "scale1d.cfg",
    "decay-report": "decay_report.cfg",
}
# reduced sizes for the warm-up and smoke rounds
SMALL_PARAMS = {
    "simulate": {"n": "400"},
    "fleming-viot": {"n": "300", "horizon": "0.4", "burn_in": "0.2"},
    "certify-A": {"n": "500"},
    "gradient": {"n": "300"},
    "boundary-return": {"n": "600"},
    "scale1d": {"n": "1000"},
    "decay-report": {"n": "1000"},
}


def materialise_config(template: Path, dest: Path, chain: Path, params: dict[str, str]) -> None:
    """Copy a config, pointing `[model] chain` at an absolute path.

    The CLI resolves `chain` against the working directory, not the config
    file, so the copy carries an absolute path and runs from anywhere.
    """
    section = None
    lines = []
    for raw in template.read_text().splitlines():
        s = raw.split("#", 1)[0].strip()
        if s.startswith("["):
            section = s[1:-1].strip()
        elif "=" in s:
            key = s.split("=", 1)[0].strip()
            if section == "model" and key == "chain":
                raw = f"chain = {chain}"
            elif section == "params" and key in params:
                raw = f"{key} = {params[key]}"
        lines.append(raw)
    dest.write_text("\n".join(lines) + "\n")


def _write_chain(path: Path, q: np.ndarray) -> None:
    rows = "\n".join(" ".join(format(v, ".17g") for v in row) for row in q)
    path.write_text(f"{q.shape[0]}\n{rows}\n")


def _check_cli_outputs(kind: str, out: Path) -> str:
    with open(out / "report.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["relation"] != "info" and not math.isfinite(float(row["measured"])):
                raise CheckFailed(f"{kind}: check {row['name']} has no finite evidence ({row['measured']})")
    parts = []
    for f in sorted(out.glob("*.csv")):
        parts.append(f"{f.name}:{hashlib.sha256(f.read_bytes()).hexdigest()}")
    return ";".join(parts)


def _cli_task(kind: str, cfg: Path, out: Path, seed: int, tracer) -> Task:
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([kind, "--config", str(cfg), "--out", str(out), "--seed", str(seed)])

    def check(rc) -> str:
        if rc != 0:
            raise CheckFailed(f"{kind}: exit status {rc}")
        if tracer is not None:
            tracer.count("experiments.artifact_bytes", sum(f.stat().st_size for f in out.iterdir()))
        return _check_cli_outputs(kind, out)

    return Task(f"cli/{kind}", run, check, unit=True)


def cli_kinds_tasks(seed: int, round_index: int, small: bool, work: Path, tracer=None) -> list[Task]:
    rng = _rng(seed, round_index, 3)
    rdir = work / f"round{round_index}"
    rdir.mkdir(parents=True, exist_ok=True)
    chain = rdir / "dense6.chain"
    _write_chain(chain, dense_chain(rng, 6))
    tasks = []
    for kind, fname in CLI_CONFIGS.items():
        cfg = rdir / fname
        params = SMALL_PARAMS.get(kind, {}) if small else {}
        materialise_config(CONFIG_DIR / fname, cfg, chain.resolve(), params)
        tasks.append(_cli_task(kind, cfg, rdir / kind, int(rng.integers(2**62)), tracer))
    return tasks


WORKLOADS = {
    "chain-exact": chain_exact_tasks,
    "bm-qsd": bm_qsd_tasks,
    "cli-kinds": cli_kinds_tasks,
}
