"""Outside-in tracing of the `qsd` layers for the traced benchmark run.

`Tracer.install` replaces, from the benchmark's side only, every public
function of each `qsd` module, the geometry methods of the domains, the
drift and diffusion fields, a few class-level entry points, and the
generators handed out by `qsd.rng` (wrapped in a timing proxy).  Every
module namespace that holds a reference to a wrapped function is patched,
as is the experiment-runner table of the CLI; `Tracer.uninstall` puts every
original back.  Nothing inside `src/qsd` is edited.

Spans are kept in memory as flat integer columns (row id, parent row, name,
chain tag, start and end in ns) and written out when the run ends.  Self
times are computed from the spans: a span's duration minus the durations
of its direct children (calls are synchronous, so children never overlap).
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

CHAIN_TAGS = ("dense5", "dense20", "dense40", "band40", "band80", "band160")
CLI_KINDS = (
    "finite-verify",
    "two-sided-fit",
    "simulate",
    "fleming-viot",
    "certify-A",
    "gradient",
    "boundary-return",
    "scale1d",
    "decay-report",
)

# module -> layer name used as the span prefix
LAYERS = {
    "qsd.rng": "rng",
    "qsd.domains": "domains",
    "qsd.models": "models",
    "qsd.simulate": "simulate",
    "qsd.particles": "particles",
    "qsd.measures": "measures",
    "qsd.chains": "chains",
    "qsd.certificates": "certificates",
    "qsd.scale1d": "scale1d",
    "qsd.experiments": "experiments",
    "qsd.report": "report",
    "qsd.config": "config",
}

# killed-diffusion stepping loops of the simulate layer
SIM_LOOPS = (
    "simulate.simulate_path",
    "simulate.survival_snapshots",
    "simulate.hitting_before",
    "simulate.tube_probability",
    "simulate.split_survival_profile",
)

_CHAIN_TIMED = (
    "chains.is_primitive",
    "chains.qsd_spectral",
    "chains.fit_two_sided",
    "chains.verify_theorem_2_1",
    "chains.check_condition_A_prime",
    "chains.survival_ratio",
    "certificates.decay_report_chain",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [
        ("rng.draw_ns_per_path_step", "ns"),
        ("rng.variates", "count"),
        ("rng.generators", "count"),
        ("models.advance_ns_per_path_step", "ns"),
        ("domains.geometry_ns_per_path_step", "ns"),
        ("simulate.path_steps", "count"),
        ("simulate.ns_per_path_step", "ns"),
        ("simulate.self_ns_per_path_step", "ns"),
        ("simulate.survival_snapshots_s", "s"),
        ("simulate.split_survival_profile_s", "s"),
        ("simulate.hitting_before_s", "s"),
        ("simulate.simulate_path_s", "s"),
        ("particles.fleming_viot_run_s", "s"),
        ("particles.fv_ns_per_particle_step", "ns"),
        ("particles.rebirths", "count"),
        ("particles.conditioned_law_series_s", "s"),
        ("measures.histogram_s", "s"),
        ("measures.tv_distance_s", "s"),
        ("measures.tv_distance_calls", "count"),
        ("measures.lipschitz_constant_s", "s"),
    ]
    for tag in CHAIN_TAGS:
        out += [(f"{name}_s.{tag}", "s") for name in _CHAIN_TIMED]
        out += [
            (f"chains.qsd_spectral_calls.{tag}", "count"),
            (f"chains.power_iterations.{tag}", "count"),
            (f"chains.power_calls.{tag}", "count"),
        ]
    out += [
        ("certificates.certify_condition_A_s", "s"),
        ("certificates.gradient_profile_s", "s"),
        ("certificates.boundary_return_constant_s", "s"),
        ("certificates.decay_report_model_s", "s"),
        ("scale1d.natural_scale_exit_mc_s", "s"),
    ]
    out += [(f"experiments.{kind}_s", "s") for kind in CLI_KINDS]
    out += [
        ("report.write_s", "s"),
        ("config.from_file_s", "s"),
        ("experiments.artifact_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    ]
    return out


class _TimedGenerator:
    """Proxy around a numpy Generator: every method call is a `rng.draw` span."""

    __slots__ = ("_g", "_tracer")

    def __init__(self, g, tracer):
        self._g = g
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._g, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            sid = tracer._open(tracer._draw_id)
            try:
                out = attr(*args, **kwargs)
            finally:
                tracer._close(sid)
            tracer.counts["rng.variates"] += int(np.size(out))
            return out

        return draw


class Tracer:
    """In-memory span recorder plus the patch set that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.tags: list[str] = [""]
        self.tag = 0  # id of the current chain tag ("" = untagged)
        self.parent = array("q")
        self.name = array("q")
        self.tagcol = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._sim_loop_depth = 0
        self.counts: collections.Counter = collections.Counter()
        self._patches: list[tuple[object, str, object, bool]] = []
        self._draw_id = self._nid("rng.draw")

    # --- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.end)
        self.parent.append(self._stack[-1])
        self.name.append(nid)
        self.tagcol.append(self.tag)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(perf_counter_ns())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = perf_counter_ns()
        self._stack.pop()

    def set_tag(self, tag: str) -> None:
        if tag not in self.tags:
            self.tags.append(tag)
        self.tag = self.tags.index(tag)

    def count(self, key: str, value: int) -> None:
        self.counts[key] += int(value)

    def wrap(self, name: str, fn, before=None, after=None, sim_loop: bool = False):
        """Timing wrapper: one span per call, optional counting hooks."""
        nid = self._nid(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            if sim_loop:
                self._sim_loop_depth += 1
            sid = open_(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(sid)
                if sim_loop:
                    self._sim_loop_depth -= 1
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__perfbench_traced__ = True
        return traced

    # --- patching ------------------------------------------------------------

    def _set(self, owner, attr: str, value, is_item: bool = False) -> None:
        old = owner[attr] if is_item else owner.__dict__[attr]
        self._patches.append((owner, attr, old, is_item))
        if is_item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def _replace_everywhere(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "qsd" and not modname.startswith("qsd."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set(mod, attr, wrapper)

    def _hooks(self, name: str):
        """Counting hooks for the span boundaries that carry work counts."""
        if name == "chains.qsd_spectral":
            return None, lambda a, k, out: self.count(
                f"chains.power_iterations.{self.tags[self.tag]}", out.iterations
            )
        if name == "particles.fleming_viot_run":
            sig = inspect.signature(sys.modules["qsd.particles"].fleming_viot_run)

            def after(args, kwargs, out):
                b = sig.bind(*args, **kwargs).arguments
                steps = int(np.ceil(b["horizon"] / b["dt"] - 1e-9))
                self.count("particles.particle_steps", b["n"] * steps)
                self.count("particles.rebirths", out.total_rebirths)

            return None, after
        if name.startswith("models.") and name.endswith(".__call__"):

            def before(args, kwargs):
                rows = args[1].shape[0]
                self.counts["simulate.path_steps"] += rows
                if self._sim_loop_depth:
                    self.counts["simulate.loop_path_steps"] += rows

            return before, None
        return None, None

    def install(self) -> None:
        """Patch every traced entry point of the loaded `qsd` package."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import qsd  # noqa: F401  (loads every submodule)
        from qsd import chains, config, domains, experiments, models, report

        runner_kind = {fn: kind for kind, fn in experiments.RUNNERS.items()}
        for modname, layer in LAYERS.items():
            mod = sys.modules[modname]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != modname:
                    continue
                if fn in runner_kind:
                    name = f"experiments.{runner_kind[fn]}"
                else:
                    name = f"{layer}.{attr}"
                if name in ("rng.step_generator", "rng.stream_generator"):
                    wrapper = self._generator_factory(name, fn)
                else:
                    before, after = self._hooks(name)
                    wrapper = self.wrap(name, fn, before, after, sim_loop=name in SIM_LOOPS)
                self._replace_everywhere(fn, wrapper)
                for kind, runner in list(experiments.RUNNERS.items()):
                    if runner is fn:
                        self._set(experiments.RUNNERS, kind, wrapper, is_item=True)
        geometry = (domains.Interval, domains.Box, domains.Ball, domains.InnerCompact, domains.BallTarget)
        for cls in geometry:
            for meth in ("contains", "rho_boundary", "normal_sigma2"):
                if meth in cls.__dict__:
                    self._wrap_method(cls, meth, f"domains.{cls.__name__}.{meth}")
        for cls in (models.ZeroDrift, models.ConstantDrift, models.LinearDrift, models.CallableDrift):
            self._wrap_method(cls, "__call__", f"models.{cls.__name__}.__call__")
        for cls in (models.ConstantIsotropic, models.DiagonalHolder, models.MatrixField):
            self._wrap_method(cls, "apply", f"models.{cls.__name__}.apply")
        self._wrap_method(chains.FiniteAbsorbedChain, "power", "chains.power")
        self._wrap_method(report.VerificationReport, "write", "report.write")
        from_file = config.ExperimentConfig.__dict__["from_file"]
        wrapper = self.wrap("config.from_file", from_file.__func__)
        self._set(config.ExperimentConfig, "from_file", classmethod(wrapper))

    def _wrap_method(self, cls, meth: str, name: str) -> None:
        before, after = self._hooks(name)
        self._set(cls, meth, self.wrap(name, cls.__dict__[meth], before, after))

    def _generator_factory(self, name: str, fn):
        nid = self._nid(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(nid)
            try:
                g = fn(*args, **kwargs)
            finally:
                self._close(sid)
            self.counts["rng.generators"] += 1
            return _TimedGenerator(g, self)

        traced.__perfbench_traced__ = True
        return traced

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, old, is_item = self._patches.pop()
            if is_item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    # --- results -------------------------------------------------------------

    def span_arrays(self) -> dict[str, np.ndarray]:
        return {
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "tag": np.frombuffer(self.tagcol, dtype=np.int64).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        np.savez(path, names=np.array(self.names), tags=np.array(self.tags), **self.span_arrays())


def installed_wrappers() -> list[str]:
    """Names of traced wrappers currently reachable from the `qsd` package."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "qsd" and not modname.startswith("qsd."):
            continue
        for attr, val in list(vars(mod).items()):
            if getattr(val, "__perfbench_traced__", False):
                found.append(f"{modname}.{attr}")
            if isinstance(val, type):
                for meth, m in vars(val).items():
                    if getattr(getattr(m, "__func__", m), "__perfbench_traced__", False):
                        found.append(f"{modname}.{attr}.{meth}")
            if isinstance(val, dict):
                found += [f"{modname}.{attr}[{k}]" for k, v in val.items() if getattr(v, "__perfbench_traced__", False)]
    return sorted(set(found))


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Span duration minus the summed durations of its direct children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
    return dur - child


def layer_metrics(tracer: Tracer, spans: tuple[int, int], counts, first: tuple[int, int], first_counts) -> dict[str, float]:
    """Per-layer metrics of the traced rounds.

    `spans` is the row range of every traced round and `counts` the
    counters over the same rounds; times are means per call (`_s`) or
    ratios to a work count taken over those rows.  Counts are reported for
    the first traced round alone (`first`, `first_counts`), so they repeat
    exactly for a given seed.
    """
    arr = tracer.span_arrays()
    lo, hi = spans
    name = arr["name"][lo:hi]
    tag = arr["tag"][lo:hi]
    parent = arr["parent"][lo:hi] - lo
    parent = np.where(parent >= 0, parent, -1)
    dur = (arr["end_ns"][lo:hi] - arr["start_ns"][lo:hi]).astype(float)
    selft = self_times(parent, dur)
    has_parent = parent >= 0
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
    layer_of = np.array([n.split(".", 1)[0] for n in tracer.names] + [""])
    layer_root = layer_of[name] != layer_of[parent_name]  # index -1 -> ""

    def ids(pred):
        return [i for i, n in enumerate(tracer.names) if pred(n)]

    def sel(*wanted):
        return np.isin(name, ids(lambda n: n in wanted))

    def mean_s(mask):
        return float(dur[mask].mean() / 1e9) if mask.any() else 0.0

    def per(total_ns, denom):
        return float(total_ns / denom) if denom else 0.0

    def first_calls(fn, tag_id=None):
        a, b = first
        m = arr["name"][a:b] == tracer._name_ids.get(fn, -2)
        if tag_id is not None:
            m &= arr["tag"][a:b] == tag_id
        return int(m.sum())

    steps = counts["simulate.path_steps"]
    advance = np.isin(name, ids(lambda n: n.startswith("models.") and n.endswith((".__call__", ".apply"))))
    geometry = np.isin(name, ids(lambda n: n.startswith("domains.")))
    loops = sel(*SIM_LOOPS)
    loop_root = loops & ~np.isin(parent_name, ids(lambda n: n in SIM_LOOPS))
    out: dict[str, float] = {
        "rng.draw_ns_per_path_step": per(selft[sel("rng.draw")].sum(), steps),
        "rng.variates": first_counts["rng.variates"],
        "rng.generators": first_counts["rng.generators"],
        "models.advance_ns_per_path_step": per(dur[advance & layer_root].sum(), steps),
        "domains.geometry_ns_per_path_step": per(dur[geometry & layer_root].sum(), steps),
        "simulate.path_steps": first_counts["simulate.path_steps"],
        "simulate.ns_per_path_step": per(dur[loop_root].sum(), counts["simulate.loop_path_steps"]),
        "simulate.self_ns_per_path_step": per(selft[loops].sum(), counts["simulate.loop_path_steps"]),
    }
    for fn in ("survival_snapshots", "split_survival_profile", "hitting_before", "simulate_path"):
        out[f"simulate.{fn}_s"] = mean_s(sel(f"simulate.{fn}"))
    fv = sel("particles.fleming_viot_run")
    out["particles.fleming_viot_run_s"] = mean_s(fv)
    out["particles.fv_ns_per_particle_step"] = per(dur[fv].sum(), counts["particles.particle_steps"])
    out["particles.rebirths"] = first_counts["particles.rebirths"]
    out["particles.conditioned_law_series_s"] = mean_s(sel("particles.conditioned_law_series"))
    out["measures.histogram_s"] = mean_s(sel("measures.histogram_from_samples"))
    out["measures.tv_distance_s"] = mean_s(sel("measures.tv_distance"))
    out["measures.tv_distance_calls"] = first_calls("measures.tv_distance")
    out["measures.lipschitz_constant_s"] = mean_s(sel("measures.lipschitz_constant"))
    for t in CHAIN_TAGS:
        tid = tracer.tags.index(t) if t in tracer.tags else -1
        for fn in _CHAIN_TIMED:
            out[f"{fn}_s.{t}"] = mean_s(sel(fn) & (tag == tid))
        out[f"chains.qsd_spectral_calls.{t}"] = first_calls("chains.qsd_spectral", tid)
        out[f"chains.power_iterations.{t}"] = first_counts[f"chains.power_iterations.{t}"]
        out[f"chains.power_calls.{t}"] = first_calls("chains.power", tid)
    for fn in ("certify_condition_A", "gradient_profile", "boundary_return_constant", "decay_report_model"):
        out[f"certificates.{fn}_s"] = mean_s(sel(f"certificates.{fn}"))
    out["scale1d.natural_scale_exit_mc_s"] = mean_s(sel("scale1d.natural_scale_exit_mc"))
    for kind in CLI_KINDS:
        out[f"experiments.{kind}_s"] = mean_s(sel(f"experiments.{kind}"))
    out["report.write_s"] = mean_s(sel("report.write"))
    out["config.from_file_s"] = mean_s(sel("config.from_file"))
    out["experiments.artifact_bytes"] = first_counts["experiments.artifact_bytes"]
    return {k: float(v) for k, v in out.items()}
