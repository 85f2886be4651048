#!/usr/bin/env python3
"""One sha256 per named output of both engines, for bit-for-bit checks.

    python3 scripts/digest_outputs.py [--small] > digests.txt

Run it from two checkouts (it imports `qsd` from the `src` beside this
script) and `diff` the two outputs: equal lines mean bit-for-bit equal
outputs.  It covers every Monte-Carlo estimator on an interval, a 2-d box,
a disc and a 3-d box (constant and Hoelder diagonal fields), with the
bridge correction on and off where the estimator takes it; the
natural-scale exit loop; histogram binning of samples on and one ulp
either side of every edge and outside the grid, on a regular and an
irregular grid; many uneven batches admitted while others step
(a small coordinate cap set inside the script) on a 2-d box, a 3-d ball
and `MatrixField` models, and five exit-loop starts; every exact-engine
criterion on dense chains (n = 5, 40) and killed lazy walks (n = 80, 160,
512), with `chain/past-cap/` cases at n = 520, past the dense-eig cap; and
the bundled configs of `configs/` and `perfbench/configs/` run through the
CLI (every file written, the captured standard output and the exit
status).  An estimator that raises is digested as its exception.
`--small` shrinks the path counts and horizons, keeps the chains at
n <= 40 and runs only the two fast bundled configs, for a smoke run of a
few seconds.
Only numpy is needed.  The script sets `OPENBLAS_NUM_THREADS`,
`OMP_NUM_THREADS` and `MKL_NUM_THREADS` to 1 before it imports numpy, as
`perfbench/run.py` does: some chain digests (the n = 512 and n = 520 lazy
walks) change with the BLAS thread count, so two checkouts digested under
different thread counts would differ without any change in the code.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import os
import struct
import sys
import tempfile
from functools import partial
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS, as perfbench pins it

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qsd import certificates as certs  # noqa: E402
from qsd import chains, particles, scale1d, simulate  # noqa: E402
from qsd.cli import main as qsd_main  # noqa: E402
from qsd.config import ExperimentConfig  # noqa: E402
from qsd.domains import Ball, BallTarget, InnerCompact  # noqa: E402
from qsd.measures import BinGrid, Measure, histogram_from_samples  # noqa: E402
from qsd.models import DiffusionModel, MatrixField, ZeroDrift, build_model  # noqa: E402

MODELS = {
    "interval": ("interval 0 3.141592653589793", "zero", "constant 1.0"),
    "interval-holder": ("interval 0 1", "linear -0.5 0.5", "diagonal_holder 1.0 0.3 0.5 0.2"),
    "box": ("box 0 0 2 2", "linear -0.5 1 1", "diagonal_holder 0.8 0.3 0.5 1 1"),
    "disc": ("ball 0 0 1", "linear -0.5 0 0", "diagonal_holder 0.7 0.2 0.5 0 0"),
    "disc-constant": ("ball 0 0 1", "zero", "constant 0.7"),
    "box3": ("box 0 0 0 1 1.5 2", "zero", "diagonal_holder 0.8 0.4 0.5 0.2 0.9 1.3"),
}


def _feed(h, obj) -> None:
    """Feed a canonical byte form of `obj` to the hash `h`."""
    if isinstance(obj, (np.ndarray, np.generic)):
        a = np.ascontiguousarray(obj)
        h.update(f"a{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif obj is None or isinstance(obj, (bool, int, str, bytes)):
        h.update(repr(obj).encode())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        h.update(b"{%d" % len(obj))
        for k in sorted(obj, key=repr):
            _feed(h, k)
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for v in obj:
            _feed(h, v)
    else:
        h.update(type(obj).__name__.encode())
        _feed(h, vars(obj))


def digest(fn) -> str:
    """sha256 of what `fn()` returns, or of the exception it raises."""
    try:
        out = fn()
    except Exception as exc:  # a raised error is an output too
        out = ("raised", type(exc).__name__, str(exc))
    h = hashlib.sha256()
    _feed(h, out)
    return h.hexdigest()


def _starts(model, g, k):
    """k starts: half uniform in the domain, half within 0.05 of its boundary."""
    pts = model.domain.uniform(g, 20 * k)
    near = pts[model.domain.rho_boundary(pts) < 0.05]
    return np.vstack([pts[: k - k // 2], near[: k // 2]])


def estimator_cases(small: bool):
    """(name, call) for every estimator case, each call a `partial`."""
    n, t = (200, 0.1) if small else (1000, 0.3)
    dt = 2e-3
    cases = []
    for mname, spec in MODELS.items():
        m = build_model(*spec)
        starts = _starts(m, np.random.default_rng(sum(map(ord, mname))), 8)
        x0 = starts[-1]  # near the boundary, where the bridge correction acts
        lo, hi = m.domain.bounds()
        centre = 0.5 * (lo + hi)
        bins = [4] * m.dim
        target = BallTarget(tuple(centre), 0.6 * m.domain.inradius)
        cloud = np.repeat(starts, n // 8, axis=0)
        for bridge in (True, False):
            b = {"bridge": bridge}
            path = simulate.PathConfig(dt=dt, horizon=2 * t, seed=16, bridge_correction=bridge)
            cases += [
                (f"{mname}/bridge={int(bridge)}/{f.func.__name__}", f)
                for f in (
                    partial(simulate.survival_snapshots, m, cloud, [t / 3, t], dt, 11, keep_positions=[t / 3, t], **b),
                    partial(simulate.survival_probability, m, x0, t, n, 12, dt=dt, **b),
                    partial(simulate.hitting_before, m, x0, target, t, n, 13, dt=dt, **b),
                    partial(simulate.tube_probability, m, x0, centre, 0.9 * m.domain.inradius, t / 2, n, 14, dt=dt, **b),
                    partial(
                        simulate.split_survival_profile, m, starts[:4], [0.0, t / 2, 2 * t], n, 15, dt=dt, window=t / 4, **b
                    ),
                    partial(simulate.simulate_path, m, x0, path, target=target),
                    partial(particles.conditioned_law_series, m, x0, [t / 2, t], n, bins, 17, dt=dt, **b),
                    partial(particles.conditional_rejection, m, x0, t, n, bins, 18, dt=dt, **b),
                    partial(particles.fleming_viot_run, m, n, 2 * t, bins, 19, dt=dt, burn_in=t, **b),
                )
            ]
        grid = certs.default_probe_grid(m, [0.2, 0.4], 2 * n, n_bulk=3, seed=20)
        uniform = certs.domain_grid(m, bins)
        nu = Measure(uniform, np.full(uniform.size, 1 / uniform.size))
        cert = certs.ConditionACertificate(t0=t, c1=0.05, nu=nu, c2=0.05)
        collar = InnerCompact(m.domain, 0.25 * m.domain.inradius)
        cases += [
            (f"{mname}/{f.func.__name__}", f)
            for f in (
                partial(certs.certify_condition_A, m, grid, [0.4], [2] * m.dim, 21, dt=dt),
                partial(certs.decay_report_model, m, cert, [(starts[0], starts[1])], [t / 2, t], n, bins, 22, dt=dt),
                partial(certs.gradient_profile, m, [t / 2, t], starts[:4], n, 23, dts=[dt, dt], windows=[0.0, t / 4]),
                partial(certs.boundary_return_constant, m, collar, t / 3, starts[4:], n, 24, dt=dt),
                partial(certs.irreducibility_probe, m, x0, centre, 0.9 * m.domain.inradius, t, n, 25, dt=dt),
                partial(certs.ht_profile, m, t, starts[:4], n, 26, dt=dt, window=t / 4),
            )
        ]
    hz, interval = (0.05 if small else 0.3), build_model(*MODELS["interval-holder"])
    return cases + [
        ("measures/histogram_from_samples", _histograms),
        ("scale1d/_exit_mc", partial(scale1d._exit_mc, 0.5, [0.01, 0.125, 0.25, 0.49], 0.5, hz, 2 * n, range(31, 35), dt=2e-4)),
        ("scale1d/_exit_mc-small-hi", partial(scale1d._exit_mc, 2.0, [0.004, 0.01], 0.02, hz, n, [35, 36], dt=2e-4)),
        ("scale1d/natural_scale_exit_mc", partial(scale1d.natural_scale_exit_mc, 0.0, 0.2, 0.5, hz, n, 37, dt=1e-3)),
        ("scale1d/escape_bounds_check", partial(scale1d.escape_bounds_check, 0.5, 1.0, [0.125, 0.25], n, 38, dt=1e-3)),
        ("scale1d/lemma32_verify", partial(scale1d.lemma32_verify, interval, [0.05, 0.5], n, 39, dt=dt)),
    ]


def _histograms():
    """`histogram_from_samples` on 1-d, 2-d and irregular grids; per axis
    the samples are every edge, one ulp either side of it, points outside
    the closed box (and NaN), then random points in and around the box."""
    g = np.random.default_rng(40)
    grids = (
        BinGrid.regular(0.0, np.pi, 32),
        BinGrid.regular([0.0, -1.0], [1.0, 2.0], [10, 7]),
        BinGrid(((0.0, 0.1, 0.15, 0.5, 3.0), (-1.0, 0.0, 2.0))),
    )
    out = []
    for grid in grids:
        cols = []
        for e in grid.edge_arrays():
            c = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), [e[0] - 1, e[-1] + 1, np.inf, np.nan]])
            cols.append(g.permutation(np.concatenate([c, g.uniform(e[0] - 0.1, e[-1] + 0.1, 500 - c.size)])))
        out.append(histogram_from_samples(grid, np.stack(cols, axis=1)))
    return out


def _tilted(x):
    """A full (n, d, d) field for `MatrixField`: 0.7 I plus a smooth rank-one tilt."""
    return 0.7 * np.eye(x.shape[1]) + 0.15 * np.sin(x)[:, :, None] * np.cos(x)[:, None, :]


def _small_stack(fn, stack):
    """`fn` run with the loops' coordinate cap set to `stack`, so later batches
    are admitted while earlier ones still step."""

    def run():
        old, simulate._STACK = simulate._STACK, stack
        try:
            return fn()
        finally:
            simulate._STACK = old

    return run


def admission_cases(small: bool):
    """(name, call) for the shared stepping loops with many uneven batches
    admitted mid-run, and for a `MatrixField` model stepped by them."""
    (n, t), dt = (120, 0.1) if small else (400, 0.3), 2e-3
    box3 = build_model("box 0 0 0 1 1.5 2", "linear -0.5 0.5 0.7 1", "diagonal_holder 0.8 0.4 0.5 0.2 0.9 1.3")
    tilted = MatrixField(_tilted)
    cases = []
    for mname, m in (
        ("box", build_model(*MODELS["box"])),
        ("ball3", build_model("ball 0 0 0 1", "linear -0.5 0 0 0", "diagonal_holder 0.7 0.2 0.5 0 0 0")),
        ("box3-matrix", DiffusionModel(box3.domain, box3.drift, tilted, 0.2, 1.5, box3.drift_bound)),
        ("disc-matrix", DiffusionModel(Ball((0.0, 0.0), 1.0), ZeroDrift(), tilted, 0.2, 1.5, 0.0)),
    ):
        starts = _starts(m, np.random.default_rng(sum(map(ord, mname))), 10)
        sizes = [(n * (k % 4 + 1)) // 2 + 7 * k for k in range(len(starts))]  # uneven, boundary starts last
        clouds = [np.tile(x, (k, 1)) for x, k in zip(starts, sizes)]
        seeds = [40 + k for k in range(len(clouds))]
        for bridge in (True, False):
            run = partial(simulate._snapshots, m, clouds, [0.0, t / 3, t], dt, seeds, bridge=bridge, keep_positions=[t / 3, t])
            cases.append((f"admission/{mname}/bridge={int(bridge)}/_snapshots", _small_stack(run, 3 * n * m.dim)))
        if mname.endswith("matrix"):
            cases.append((f"admission/{mname}/fleming_viot_run", partial(particles.fleming_viot_run, m, n, t, [3] * m.dim, 50, dt=dt)))
    hz = 0.05 if small else 0.3
    us = [0.01, 0.49, 0.125, 0.02, 0.25]
    run = partial(scale1d._exit_mc, 0.5, us, 0.5, hz, 2 * n, range(51, 56), dt=2e-4)
    return cases + [("admission/scale1d/_exit_mc", _small_stack(run, 5 * n))]


def _band(n):
    """Lazy random walk killed at both ends: slow mixing, Q^t positive from t = n - 1."""
    return 0.995 * (0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1)))


def _dense(n):
    """A random positive chain with row sums 0.9."""
    q = np.random.default_rng(n).uniform(size=(n, n))
    return q * (0.9 / q.sum(axis=1, keepdims=True))


def _certified(fn, chain, t0):
    """`fn(chain, cert)` with the two-sided certificate of `chain` at t0."""
    return lambda: fn(chain, chains.fit_two_sided(chain, t0))


def chain_cases(small: bool):
    """(name, call) for every exact-engine criterion on dense chains (n = 5, 40)
    and killed lazy walks up to the dense-eig cap (n = 80, 160, 512) and past
    it (n = 520).  Each chain is built once, so its cache serves every case.
    Condition (A') runs up to n = 160: its measures are an n^3 tensor."""
    sizes = [("dense", 5), ("dense", 40)] + ([] if small else [("band", 80), ("band", 160), ("band", 512), ("band", 520)])
    cases = []
    for kind, n in sizes:
        chain = chains.FiniteAbsorbedChain(_dense(n) if kind == "dense" else _band(n))
        name = f"chain/{'past-cap/' if n > chains.DENSE_EIG_MAX_N else ''}{kind}{n}"
        t0 = 1 if kind == "dense" else 2 * n  # Q^n of the walk at n = 520 is subnormal in a corner
        laws = np.random.default_rng(n + 1).exponential(size=(2, 2, n))
        laws /= laws.sum(axis=2, keepdims=True)
        K, t1 = (np.arange(n), 1) if kind == "dense" else (np.arange(n // 4, 3 * n // 4), n)
        cases += [
            (f"{name}/qsd_spectral", partial(chains.qsd_spectral, chain)),
            (f"{name}/fit_two_sided", partial(chains.fit_two_sided, chain, t0)),
            (f"{name}/verify_theorem_2_1", _certified(partial(chains.verify_theorem_2_1, n_pairs=2, t_max=50, seed=n), chain, t0)),
            (f"{name}/survival_ratio", partial(chains.survival_ratio, chain, laws[0, 0], 100)),
            (f"{name}/decay_report_chain", _certified(partial(certs.decay_report_chain, pairs=laws, t_max=50), chain, t0)),
        ]
        if n <= 160:
            cases.append((f"{name}/check_condition_A_prime", partial(chains.check_condition_A_prime, chain, K, t1, horizon=100)))
    return cases


def _run_cli(cfg: str):
    """Exit status, captured output and every file written, for one config
    run from the repository root into a fresh directory."""
    kind = ExperimentConfig.from_file(ROOT / cfg).get_str("experiment", "kind")
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as out:
        buf = io.StringIO()
        os.chdir(ROOT)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                rc = qsd_main([kind, "--config", cfg, "--out", out])
        finally:
            os.chdir(cwd)
        return rc, buf.getvalue(), {f.name: f.read_bytes() for f in sorted(Path(out).iterdir())}


def cli_cases(small: bool):
    """(name, call) per config; `--small` keeps the two fast bundled ones."""
    dirs = [ROOT / "configs"] + ([] if small else [ROOT / "perfbench" / "configs"])
    fast = ("finite_verify_sym2.cfg", "simulate_bm.cfg")
    cfgs = [str(c.relative_to(ROOT)) for d in dirs for c in sorted(d.glob("*.cfg")) if not small or c.name in fast]
    return [(f"cli/{cfg}", partial(_run_cli, cfg)) for cfg in cfgs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--small", action="store_true", help="small sizes and the bundled configs only")
    args = parser.parse_args(argv)
    for name, fn in estimator_cases(args.small) + admission_cases(args.small) + chain_cases(args.small) + cli_cases(args.small):
        print(f"{digest(fn)}  {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
