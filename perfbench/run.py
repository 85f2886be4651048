#!/usr/bin/env python3
"""qsdtools benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload {chain-exact,bm-qsd,cli-kinds}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.  The
run pins the BLAS threads, then sets up: import, three warm-up rounds on
small inputs distinct from the timed ones (median taken), and the inputs of
the first timed round.  Timed rounds, each with fresh inputs from
(seed, round index), then run back to back until S seconds have passed.

`--trace 0` reports the end-to-end metrics: set-up time, the workload's
wall time (the sum over task slots of each slot's median round, see
`Runner`), peak RSS, and the median and p90 latency over the unit-task slots
(chain-exact: the 100 five-state chains; bm-qsd: the estimator calls;
cli-kinds: the nine CLI runs).  Times are calibrated to a reference speed
with a fixed kernel timed around every task (see `SpeedProbe`); the details
file keeps the measured ones too.  Per-layer times are as measured.  `--trace 1` alternates untraced rounds with
rounds under the outside-in wrappers of `tracing`, and reports the
per-layer metrics of the traced rounds plus the tracing overhead (traced
minus untraced wall time).  Either way the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`; details
(provenance, per-round walls, failures, output digests) go to
`perfbench/.out/<workload>-seed<N>-trace<T>.json`, and the spans of a
traced run to `perfbench/.out/<workload>.spans.npz`.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
WARMUP_ROUND = 1_000_000  # warm-up round indices start here, far from timed ones
# reference kernel of each workload (see SpeedProbe): the exact engine spends
# its time in small calls, the simulations in steps over arrays of paths
KERNELS = {"chain-exact": "calls", "bm-qsd": "batch", "cli-kinds": "batch"}
WORKLOAD_NAMES = tuple(KERNELS)


def pin_blas_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import `qsd` from this checkout's `src`, or raise FileNotFoundError."""
    src = ROOT / "src"
    if not (src / "qsd" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program to benchmark: {src / 'qsd'} is missing")
    sys.path.insert(0, str(src))
    import qsd

    if Path(qsd.__file__).resolve().parent != (src / "qsd").resolve():
        raise FileNotFoundError(f"imported qsd from {qsd.__file__}, not from {src}")
    return qsd


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(seed: int) -> dict:
    import numpy as np

    h = hashlib.sha256()
    for f in sorted((ROOT / "src" / "qsd").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": _git_commit(),
        "source_sha256": h.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


class SpeedProbe:
    """Times one pass of a fixed reference kernel, to calibrate task times.

    On a shared machine a core runs up to 1.8 times slower for spells of
    seconds to minutes, which no statistic over a 30 s run can remove.  Each
    kernel is frozen code in the benchmark with the operation mix of a
    workload, so it slows down with the program but a change to the program
    cannot move it: `calls` is a small-chain power iteration (interpreter
    work and small numpy calls), `batch` a killed-BM step over 8192 paths
    (Philox draws, ufuncs and compaction).  A task's calibrated time is its
    time times the kernel's reference pass time over the mean of the passes
    timed just before and just after it.
    """

    # seconds one pass takes at the reference speed: its fast-spell time on
    # the 2-core Xeon box the bounds were set on
    REFERENCE_PASS_S = {"calls": 3.0e-4, "batch": 1.8e-3}

    def __init__(self, kernel: str):
        import numpy as np

        self.np = np
        self.kernel = getattr(self, f"_{kernel}")
        self.reference = self.REFERENCE_PASS_S[kernel]
        q = np.random.default_rng(0).random((5, 5))
        self.q = q * (0.9 / q.sum(axis=1, keepdims=True))
        for _ in range(20):
            self()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    def _calls(self) -> None:
        np, q = self.np, self.q
        a = np.full(5, 0.2)
        for _ in range(60):
            nxt = a @ q
            nxt /= nxt.sum()
            float(np.abs(nxt - a).sum())
            a = nxt

    def _batch(self) -> None:
        np, pi = self.np, math.pi
        g = np.random.Generator(np.random.Philox(key=np.array([7, 11], dtype=np.uint64)))
        x = np.full(8192, pi / 2)
        for _ in range(4):
            x1 = x + 0.045 * g.standard_normal(x.size)
            u = g.random(x.size)
            cross = np.exp(-2.0 * np.minimum(x, pi - x) * np.maximum(np.minimum(x1, pi - x1), 0.0) / 0.002)
            x = x1[(x1 > 0) & (x1 < pi) & ~(u < cross)]

    def calibrate(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.reference / (0.5 * (before + after))


class Runner:
    """Runs task lists, timing each call and counting failures.

    Rounds share task slots (the same task names with fresh inputs).  A
    slot's time is the median over rounds of its calibrated task times (see
    `SpeedProbe`); the workload's wall time is the sum of the slot times.
    """

    def __init__(self, probe: SpeedProbe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.times: dict[str, list[float]] = {}  # task slot -> calibrated seconds per round
        self.raw: dict[str, list[float]] = {}  # task slot -> measured seconds per round
        self.unit: set[str] = set()  # slots sampled for the latency percentiles

    def slot_times(self, names=None, raw: bool = False) -> dict[str, float]:
        times = self.raw if raw else self.times
        return {k: statistics.median(v) for k, v in times.items() if v and (names is None or k in names)}

    def wall(self, raw: bool = False) -> float:
        return sum(self.slot_times(raw=raw).values())

    def unit_latencies(self) -> list[float]:
        return sorted(self.slot_times(self.unit).values())

    def _run_task(self, task, k_before: float):
        """Run a task with a reference pass after each of its steps.

        A generator task yields after each call into the program, so every
        call is calibrated by the passes timed right around it.  Returns
        (result, measured s, calibrated s, last pass).
        """
        measured = calibrated = 0.0
        t0 = time.perf_counter()
        out = task.run()
        steps = out if inspect.isgenerator(out) else None
        while True:
            if steps is not None:
                try:
                    next(steps)
                except StopIteration as stop:
                    out, steps = stop.value, None
            dt = time.perf_counter() - t0
            k_after = self.probe()
            measured += dt
            calibrated += self.probe.calibrate(dt, k_before, k_after)
            k_before = k_after
            if steps is None:
                return out, measured, calibrated, k_before
            t0 = time.perf_counter()

    def run_round(self, tasks) -> tuple[float, list[str]]:
        """Run one round; returns its measured task seconds and output digests."""
        digests = []
        wall = 0.0
        k_before = self.probe()
        for task in tasks:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.set_tag(task.tag)
            try:
                res, measured, calibrated, k_before = self._run_task(task, k_before)
            except Exception as exc:  # a raising task is a failed task; keep going
                self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
                k_before = self.probe()
                continue
            wall += measured
            self.raw.setdefault(task.name, []).append(measured)
            self.times.setdefault(task.name, []).append(calibrated)
            if task.unit:
                self.unit.add(task.name)
            try:
                digests.append(f"{task.name}={task.check(res)}")
            except Exception as exc:
                self.failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
        if self.tracer is not None:
            self.tracer.set_tag("")
        return wall, digests


def run(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path, small: bool = False) -> dict:
    """One benchmark run; returns the result line and writes the details file."""
    import numpy as np  # noqa: F401  (imported after pinning, timed as set-up)

    import_program()
    import tracing
    import workloads

    t_import = time.perf_counter() - T_START
    probe = SpeedProbe(KERNELS[workload])
    k_import = statistics.median(probe() for _ in range(5))
    make_tasks = workloads.WORKLOADS[workload]
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{workload}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # set-up phases are calibrated like tasks, by passes timed around them
    warm = Runner(probe)
    prep = []
    for k in range(SETUP_REPS):
        k_before, t0 = probe(), time.perf_counter()
        warm.run_round(make_tasks(seed, WARMUP_ROUND + k, True, work))
        prep.append(probe.calibrate(time.perf_counter() - t0, k_before, probe()))
    k_before, t0 = probe(), time.perf_counter()
    tasks = make_tasks(seed, 0, small, work)
    gen0 = probe.calibrate(time.perf_counter() - t0, k_before, probe())
    setup_s = probe.calibrate(t_import, k_import, k_import) + statistics.median(prep) + gen0

    # a traced run alternates untraced and traced rounds, so the tracing
    # overhead compares rounds taken over the same stretch of the run
    tracer = tracing.Tracer() if trace else None
    untraced, traced = Runner(probe), Runner(probe, tracer)
    walls, digests = [], []
    marks = []  # (span row, counters) at the start and end of each traced round
    t_measure = time.perf_counter()
    r = 0
    while True:
        on = trace and r % 2 == 1
        if on:
            tracer.install()
            marks.append((len(tracer.end), tracer.counts.copy()))
            try:
                wall, dig = traced.run_round(tasks)
            finally:
                tracer.uninstall()
            marks.append((len(tracer.end), tracer.counts.copy()))
        else:
            wall, dig = untraced.run_round(tasks)
        walls.append({"traced": on, "wall_s": wall})
        digests.append(dig)
        r += 1
        if time.perf_counter() - t_measure >= seconds and (not trace or r % 2 == 0):
            break
        tasks = make_tasks(seed, r, small, work, tracer if trace and r % 2 == 1 else None)

    failures = untraced.failures + traced.failures
    details = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "provenance": provenance(seed),
        "setup": {"import_s": t_import, "import_pass_s": k_import, "warmup_rounds_s": prep, "inputs_s": gen0},
        "rounds": walls,
        "measured_wall_s": (traced if trace else untraced).wall(raw=True),
        "slot_times_s": (traced if trace else untraced).slot_times(),
        "warmup_failures": warm.failures,
        "failures": failures,
        "output_digests": digests,
    }
    leaked = tracing.installed_wrappers()
    if leaked:
        raise RuntimeError(f"trace wrappers left installed: {leaked[:5]}")
    if trace:
        tracer.write(out_dir / f"{workload}.spans.npz")
        metrics = tracing.layer_metrics(
            tracer,
            (marks[0][0], marks[-1][0]),
            marks[-1][1] - marks[0][1],
            (marks[0][0], marks[1][0]),
            marks[1][1] - marks[0][1],
        )
        metrics["trace.overhead_s"] = traced.wall() - untraced.wall()
        details["untraced_wall_s"] = untraced.wall()
        units = dict(tracing.per_layer_metrics())
    else:
        lat = untraced.unit_latencies()
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
        metrics = {
            "setup_s": setup_s,
            "wall_s": untraced.wall(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "task_p50_ms": 1e3 * statistics.median(lat),
            "task_p90_ms": 1e3 * p90,
        }
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "task_p50_ms": "ms", "task_p90_ms": "ms"}
    details["metrics"] = metrics
    result = {
        "correct": not failures and not warm.failures,
        "attempted": untraced.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    details["result"] = result
    (out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    pin_blas_threads()
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / ".out")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
