"""Independent seeded batches sharing one stepping loop equal their separate runs.

The loop holds one array and takes one `_step` per step, and admits a
queued batch at its own step 0 when the live paths leave room; each batch
draws from its own (seed, step) block in its own slot order, so every output
here must equal, bit for bit, the one-batch public function run per start,
with the same number of generators and variates.  For d >= 2 the loops hold
their paths column-major, which must change no bit either.  Windowed splitting,
hitting and tube probabilities, cases of the same loop, and `simulate_path`,
a batch of one path on its driver, must equal the stand-alone loops of
`oracles` in the same way.
"""

import collections
import dataclasses

import numpy as np
import pytest

import qsd.particles
import qsd.rng
import qsd.scale1d
import qsd.simulate
from qsd.certificates import (
    ConditionACertificate,
    FailedA2Error,
    ProbeGrid,
    boundary_return_constant,
    certify_condition_A,
    decay_report_model,
    estimate_A1,
    estimate_A2,
    gradient_profile,
    ht_profile,
    minorize_laws,
)
from qsd.domains import Ball, BallTarget, Box, DomainError, InnerCompact
from qsd.measures import Measure, histogram_from_samples
from qsd.models import CallableDrift, DiffusionModel, MatrixField, ZeroDrift, build_model
from qsd.particles import conditioned_law_series, domain_grid
from qsd.rng import stream_generator, substream
from qsd.scale1d import escape_bounds_check, green_constants, natural_scale_exit_mc
from qsd.simulate import (
    _STACK,
    NumericalBlowupError,
    PathConfig,
    _admitted,
    _columns,
    _snapshots,
    _step,
    _variates,
    hitting_before,
    simulate_path,
    split_survival_profile,
    survival_snapshots,
    tube_probability,
)

import oracles
from oracles import (
    exit_mc_reference,
    hitting_reference,
    path_reference,
    snapshots_reference,
    split_profile_reference,
    tube_reference,
)

# model, a deep start, a start 1e-4 from the boundary
DOMAINS = {
    "interval": ("interval 0 3", "zero", "constant 1.0", [1.5], [1e-4]),
    "box2": ("box 0 0 2 2", "linear -0.5 1 1", "diagonal_holder 0.8 0.3 0.5 1 1", [1, 1], [1e-4, 1]),
    "disc": ("ball 0 0 1", "linear -0.5 0 0", "diagonal_holder 0.7 0.2 0.5 0 0", [0, 0], [1 - 1e-4, 0]),
    "box3": ("box 0 0 0 2 2 2", "zero", "diagonal_holder 1.0 0.3 0.5 1 1 1", [1, 1, 1], [1e-4, 1, 1]),
}
SIZES = (100, 1003, 4000, 3500, 100)  # the first batch starts at the boundary
MIDS = {"interval": [0.4], "box2": [0.3, 0.5], "disc": [0.5, 0.5], "box3": [0.3, 1, 0.5]}


def model_of(name):
    return build_model(*DOMAINS[name][:3])


class _Counted:
    """Generator proxy that tallies the variates it hands out."""

    def __init__(self, g, tally):
        self._g, self._tally = g, tally

    def __getattr__(self, name):
        method = getattr(self._g, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self._tally["variates"] += int(np.size(out))
            return out

        return draw


def _count_draws(monkeypatch, *modules):
    """Counts of the `step_generator` calls made from `modules` and of the
    variates drawn from them."""
    counts = collections.Counter()
    real = qsd.rng.step_generator

    def counted(*args, **kwargs):
        counts["generators"] += 1
        return _Counted(real(*args, **kwargs), counts)

    for mod in modules:
        monkeypatch.setattr(mod, "step_generator", counted)
    return counts


@pytest.fixture
def tally(monkeypatch):
    """Counts of the package's `step_generator` calls and variates (`scale1d`
    draws through `simulate._batches`)."""
    return _count_draws(monkeypatch, qsd.simulate, qsd.particles)


# --- the stacked snapshot loop ---------------------------------------------------


def test_admission_fills_the_cap_and_an_empty_loop():
    assert _admitted([], 0) == 0
    assert _admitted([100, 1003, 4000, 3500, 100], 0) == 3
    assert _admitted([100, 1003, 4000], 4000) == 2
    assert _admitted([200], _STACK - 200) == 1 and _admitted([201], _STACK - 200) == 0
    # a batch above the cap runs alone; one at the cap fills the loop
    assert _admitted([12000, 300], 0) == 1 and _admitted([300, 12000], 0) == 1
    assert _admitted([_STACK, 1], 0) == 1 and _admitted([1, _STACK - 1, 1], 0) == 2


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_stacked_snapshots_equal_separate_runs(name, bridge, tally):
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    clouds = [np.tile(edge if k == 0 else deep, (n, 1)) for k, n in enumerate(SIZES)]
    seeds = [substream(5, k) for k in range(len(SIZES))]
    assert 1 < _admitted([c.size for c in clouds], 0) < len(clouds)  # some batches wait for admission
    times, keep = [0.05, 0.2, 1.0], [0.2, 1.0]
    stacked = list(_snapshots(model, clouds, times, 1e-2, seeds, bridge=bridge, keep_positions=keep))
    drawn = dict(tally)
    tally.clear()
    for cloud, seed, res in zip(clouds, seeds, stacked):
        ref = survival_snapshots(model, cloud, times, 1e-2, seed, bridge=bridge, keep_positions=keep)
        assert res.n == ref.n
        assert np.array_equal(res.times, ref.times)
        assert np.array_equal(res.counts, ref.counts)
        assert res.positions.keys() == ref.positions.keys()
        for t in ref.positions:
            assert np.array_equal(res.positions[t], ref.positions[t])
    assert drawn == dict(tally)
    if bridge:  # the boundary batch dies out while the one beside it lives on
        assert stacked[0].counts[0] == 0 and stacked[1].counts[-1] > 0


def test_conditioned_law_series_is_the_one_batch_case():
    model = model_of("disc")
    hists, survs = conditioned_law_series(model, [0.2, 0.1], [0.3, 0.1], 500, 4, 9, dt=5e-3)
    grid = domain_grid(model, 4)
    res = survival_snapshots(model, np.tile([0.2, 0.1], (500, 1)), [0.3, 0.1], 5e-3, 9, keep_positions=[0.3, 0.1])
    assert np.array_equal(survs, res.survival())
    for h, t in zip(hists, res.times):
        assert np.array_equal(h.weights, histogram_from_samples(grid, res.positions[t]).weights)


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_conditioned_law_series_equals_the_reference_loop(name, bridge):
    """Kept positions, the last snapshot's too, from a loop that compacts by
    mask; the boundary start dies out with the bridge on."""
    model, n, times = model_of(name), 600, [0.1, 0.3, 0.05]
    grid, survs = domain_grid(model, 4), []
    for start in (MIDS[name], DOMAINS[name][4]):
        hists, surv = conditioned_law_series(model, start, times, n, grid, 18, dt=5e-3, bridge=bridge)
        counts, positions = snapshots_reference(model, np.tile(start, (n, 1)), times, 5e-3, 18, bridge=bridge)
        assert np.array_equal(surv, counts / n)
        assert [h is None for h in hists] == [k == 0 for k in counts]
        for h, pos in zip(hists, positions):
            assert h is None or np.array_equal(h.weights, histogram_from_samples(grid, pos).weights)
        survs.append(surv)
    assert survs[0][-1] > 0 and (survs[1][0] == 0) == bridge


# --- admission: later batches join the loop as earlier paths die ----------------------


@pytest.fixture
def small_stack(monkeypatch):
    """A coordinate cap of 600, and the (live coordinates, batches admitted)
    of every admission decision of the loops."""
    monkeypatch.setattr(qsd.simulate, "_STACK", 600)
    seen, real = [], qsd.simulate._admitted

    def spy(sizes, live):
        seen.append((live, real(sizes, live)))
        return seen[-1][1]

    monkeypatch.setattr(qsd.simulate, "_admitted", spy)  # the exit loop of `scale1d` admits through it too
    return seen


def _admitted_mid_run(seen):
    return any(live and k for live, k in seen)


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_admission_mid_run_equals_separate_runs(name, bridge, small_stack, tally):
    """Uneven batches, one above the cap, boundary batches that die early,
    and batches admitted while others step: each equals its own run, with
    the same generators and variates."""
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    big = 600 // model.dim + 1
    plan = [(deep, 150), (edge, 40), (MIDS[name], 90), (edge, big), (deep, 30), (MIDS[name], 120), (edge, 55)]
    clouds = [np.tile(x, (n, 1)) for x, n in plan]
    seeds = [substream(6, k) for k in range(len(plan))]
    times, keep = [0.0, 0.05, 0.2, 0.3], [0.05, 0.3]
    shared = _snapshots(model, clouds, times, 1e-2, seeds, bridge=bridge, keep_positions=keep)
    drawn = dict(tally)
    tally.clear()
    assert _admitted_mid_run(small_stack)
    for cloud, seed, res in zip(clouds, seeds, shared):
        ref = survival_snapshots(model, cloud, times, 1e-2, seed, bridge=bridge, keep_positions=keep)
        assert res.n == ref.n and np.array_equal(res.counts, ref.counts)
        assert res.positions.keys() == ref.positions.keys()
        for t in ref.positions:
            assert np.array_equal(res.positions[t], ref.positions[t])
    assert drawn == dict(tally)
    if bridge:  # a boundary batch dies out before the last snapshot
        assert shared[1].counts[-1] == 0 and shared[0].counts[-1] > 0


@pytest.mark.parametrize("name", ["box2", "disc", "box3"])
def test_row_and_column_major_starts_give_equal_results(name):
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    clouds = [np.tile(deep, (300, 1)), np.tile(edge, (200, 1))]
    runs = [
        _snapshots(model, [layout(c) for c in clouds], [0.1, 0.2], 1e-2, [3, 4], keep_positions=[0.2])
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    for a, b in zip(*runs):
        assert np.array_equal(a.counts, b.counts) and a.positions.keys() == b.positions.keys()
        assert all(np.array_equal(a.positions[t], b.positions[t]) for t in a.positions)
    assert runs[0][0].counts[-1] > 0
    init = model.domain.uniform(np.random.default_rng(2), 400, margin=0.1)
    fv = [qsd.particles.fleming_viot_run(model, 400, 0.1, 3, 5, dt=1e-2, init=layout(init))
          for layout in (np.ascontiguousarray, np.asfortranarray)]
    assert np.array_equal(fv[0].occupation.weights, fv[1].occupation.weights)
    assert np.array_equal(fv[0].cloud.positions, fv[1].cloud.positions)


@pytest.mark.parametrize("name,drift", [("box2", None), ("disc", None), ("box3", None), ("box2", "constant 0.3 -0.2")])
def test_every_loop_steps_column_major_state(name, drift, small_stack, monkeypatch):
    """For d >= 2 `_step` sees F-contiguous paths and noise in the
    independent, shared-noise and hooked cases of `_snapshots` and in
    Fleming-Viot, after admission, compaction, resampling and rebirth."""
    domain, default_drift, field, deep, edge = DOMAINS[name]
    model = build_model(domain, drift or default_drift, field)
    seen, real = collections.Counter(), qsd.simulate._step

    def spy(m, x, noise, *args):
        seen[x.flags.f_contiguous and noise[0].flags.f_contiguous] += 1
        return real(m, x, noise, *args)

    monkeypatch.setattr(qsd.simulate, "_step", spy)
    monkeypatch.setattr(qsd.particles, "_step", spy)
    calls = (
        lambda: _snapshots(model, [np.tile(x, (100, 1)) for x in (edge, deep, edge, deep)], [0.2], 1e-2, [1, 2, 3, 4]),
        lambda: split_survival_profile(model, np.array([deep, edge]), [0.2], 150, 5, dt=1e-2, window=0.05),
        lambda: hitting_before(model, edge, BallTarget(tuple(deep), 0.3), 0.2, 300, 6, dt=1e-2),
        lambda: tube_probability(model, deep, deep, 0.6, 0.1, 300, 7, dt=1e-2),
        lambda: qsd.particles.fleming_viot_run(model, 300, 0.2, 3, 8, dt=1e-2),
    )
    for call in calls:
        seen.clear()
        call()
        assert seen[True] > 0 and not seen[False]
    assert _admitted_mid_run(small_stack)


@pytest.mark.parametrize("d", [2, 7, 8, 9])
def test_held_layout_steps_like_row_major_paths(d):
    """`_columns` holds paths column-major only up to d = 7, where `_sum_squares`
    adds a row's squares in one order in either layout (numpy sums a wider
    contiguous row pairwise): every output of `_step`, rho included, is that
    of the row-major step."""
    zeros = " 0" * d
    model = build_model(f"ball{zeros} 1", f"linear -0.5{zeros}", f"diagonal_holder 0.7 0.2 0.5{zeros}")
    x = model.domain.uniform(np.random.default_rng(d), 3000)
    z, u = _variates(d, [(qsd.rng.step_generator(4, 0), 3000)])
    held = _step(model, _columns(x), (z, u), 0.02, True, model.domain.rho_boundary(x))
    plain = _step(model, x, (np.ascontiguousarray(z), u), 0.02, True, model.domain.rho_boundary(x))
    for a, b in zip(held, plain):
        assert np.array_equal(a, b)
    assert held[0].flags.f_contiguous == (d <= 7) and not held[1].all()


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("domain", ["box", "ball"])
def test_matrix_field_steps_alike_in_both_layouts(domain, dim):
    """`MatrixField` gives the same bits on column-major paths and noise; einsum
    alone does not (it summed d = 3 products in another order)."""
    dom = Box((0.0,) * dim, (1.0,) * dim) if domain == "box" else Ball((0.0,) * dim, 1.0)

    def tilted(x):
        return 0.7 * np.eye(x.shape[1]) + 0.15 * np.sin(x)[:, :, None] * np.cos(x)[:, None, :]

    model = DiffusionModel(dom, ZeroDrift(), MatrixField(tilted), 0.2, 1.5, 0.0)
    x = dom.uniform(np.random.default_rng(dim), 2000)
    z, u = _variates(dim, [(qsd.rng.step_generator(9, 0), 2000)])
    outs = [
        _step(model, layout(x), (layout(z), u), 0.05, True, dom.rho_boundary(x))
        for layout in (np.ascontiguousarray, np.asfortranarray)
    ]
    assert not outs[0][1].all()  # some paths are killed
    for a, b in zip(*outs):
        assert np.array_equal(a, b)


# --- windowed splitting, hitting and tube probabilities on the one loop -------------


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_split_profile_equals_the_reference_loop(name, bridge, monkeypatch, tally):
    """Bit for bit, with one draw of n variates per step shared by every
    start (common random numbers), at snapshot times on and off window ends
    and at a size above the stack cap."""
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    xs = np.array([deep, edge, MIDS[name]])
    drawn = _count_draws(monkeypatch, oracles)
    cases = ((300, [0.03, 0.1, 0.17, 0.25], 0.05), (150, [0.2, 0.2, 0.4], 0.02), (3000, [0.15, 0.3], 0.1))
    assert 3 * 3000 * model.dim > _STACK
    for n, times, window in cases:
        logp, logse = split_survival_profile(model, xs, times, n, 11, dt=1e-2, window=window, bridge=bridge)
        ref, ref_se = split_profile_reference(model, xs, times, n, 11, dt=1e-2, window=window, bridge=bridge)
        assert np.array_equal(logp, ref) and np.array_equal(logse, ref_se)
        assert np.isfinite(logp[-1, [0, 2]]).all()
        assert dict(tally) == dict(drawn) and tally["generators"] > 0
        if bridge and n == 150:  # the boundary start dies out while the others live
            assert logp[-1, 1] == -np.inf and logse[-1, 1] == np.inf
        tally.clear()
        drawn.clear()


def test_split_profile_of_no_starts_is_empty():
    logp, logse = split_survival_profile(model_of("box2"), np.empty((0, 2)), [0.1, 0.2], 300, 11, dt=1e-2, window=0.05)
    assert logp.shape == logse.shape == (2, 0)


@pytest.mark.parametrize("name", list(DOMAINS))
def test_split_profile_time_zero_is_log_survival_zero(name):
    model = model_of(name)
    xs = np.array([DOMAINS[name][3], MIDS[name]])
    logp, logse = split_survival_profile(model, xs, [0.0, 0.2], 300, 11, dt=1e-2, window=0.05)
    assert np.array_equal(logp[0], [0.0, 0.0]) and np.array_equal(logse[0], [0.0, 0.0])
    alone, alone_se = split_survival_profile(model, xs, [0.2], 300, 11, dt=1e-2, window=0.05)
    assert np.array_equal(logp[1:], alone) and np.array_equal(logse[1:], alone_se)


def test_windowed_gradient_and_ht_profiles_at_time_zero():
    """At t = 0 every survival is 1 with SE 0, windowed or not."""
    model, pts = model_of("box2"), BOX2_POINTS
    plain = gradient_profile(model, [0.0, 0.2], pts, 300, 19, dts=[1e-2] * 2)
    windowed = gradient_profile(model, [0.0, 0.2], pts, 300, 19, dts=[1e-2] * 2, windows=[0.1, 0.1])
    assert windowed.lipschitz[0] == plain.lipschitz[0] > 0
    assert windowed.max_survival[0] == plain.max_survival[0] == 1.0
    assert not windowed.inconclusive[0] and not plain.inconclusive[0]
    prof = ht_profile(model, 0.0, pts, 300, 20, dt=1e-2, window=0.1)
    assert np.array_equal(prof.h, np.ones(len(pts))) and prof.degenerate


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_hitting_and_tube_equal_the_reference_loops(name, bridge, monkeypatch, tally):
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    mid = MIDS[name]
    inner, ball = InnerCompact(model.domain, 0.2), BallTarget(tuple(deep), 0.3)
    drawn = _count_draws(monkeypatch, oracles)
    for x in (deep, edge, mid):
        for t1 in (0.05, 0.3):
            for f, ref, args in (
                (hitting_before, hitting_reference, (x, inner, t1, 700, 13, dict(dt=1e-2))),
                (hitting_before, hitting_reference, (x, ball, t1, 500, 14, dict(dt=5e-3))),
                (tube_probability, tube_reference, (x, deep, 0.6, t1, 800, 15, dict(dt=1e-2))),
                (tube_probability, tube_reference, (x, mid, 0.3, t1, 400, 16, dict(dt=5e-3))),
            ):
                got = f(model, *args[:-1], **args[-1], bridge=bridge)
                assert got == ref(model, *args[:-1], **args[-1], bridge=bridge)
    assert dict(tally) == dict(drawn) and tally["generators"] > 0


def test_inner_compact_hits_read_the_step_rho(monkeypatch):
    """On the `boundary-return` inputs (2-d box, eps = 0.25, t1 = 0.1,
    dt = 2e-3, 2,000 paths), `hitting_before` with an `InnerCompact` of the
    model's own domain reads membership off the rho each `_step` returns:
    one `rho_boundary` call per step plus those of the start (a run with
    t1 = 0).  A target on a copy of the domain takes the `contains` path,
    with a second call per step, and gives the same estimates, bit for bit."""
    model = model_of("box2")
    calls = collections.Counter()
    real_rho, real_step = Box.rho_boundary, qsd.simulate._step

    def rho(self, x):
        calls["rho"] += 1
        return real_rho(self, x)

    def step(*args):
        calls["step"] += 1
        return real_step(*args)

    monkeypatch.setattr(Box, "rho_boundary", rho)
    monkeypatch.setattr(qsd.simulate, "_step", step)
    own, copy = InnerCompact(model.domain, 0.25), InnerCompact(Box(model.domain.lo, model.domain.hi), 0.25)
    assert copy.domain is not model.domain
    start = hitting_before(model, [1.0, 1.0], own, 0.0, 2000, 3, dt=2e-3)
    assert start == (1.0, 0.0) and calls["step"] == 0
    n_start = calls["rho"]
    for k, x in enumerate(([0.05, 1.0], [1.0, 0.1], [1.9, 0.5], [0.2, 0.2])):
        calls.clear()
        got = hitting_before(model, x, own, 0.1, 2000, substream(107, 70, k), dt=2e-3)
        assert calls["step"] > 0 and calls["rho"] == calls["step"] + n_start
        calls.clear()
        assert got == hitting_before(model, x, copy, 0.1, 2000, substream(107, 70, k), dt=2e-3)
        assert calls["rho"] == 2 * calls["step"] + n_start


# --- one path on the batch driver --------------------------------------------------


def _same_path(a, b):
    """Equal times and positions, bit for bit, and equal absorption and hit times."""
    same = [x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in ((a.times, b.times), (a.positions, b.positions))]
    return all(same) and a.absorption_time == b.absorption_time and a.hit_time == b.hit_time


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("name", list(DOMAINS))
def test_simulate_path_equals_the_reference_loop(name, bridge):
    """Paths from the boundary start and the deep one on twelve seeds each:
    every field equals that of the one-path reference loop, bit for bit,
    and among them are paths absorbed early, paths that survive the horizon
    and paths that hit the target late."""
    model = model_of(name)
    deep, edge = DOMAINS[name][3:]
    target = BallTarget((deep[0] + 0.4, *deep[1:]), 0.2)
    seen = collections.Counter()
    for x0 in (edge, deep):
        for seed in range(12):
            cfg = PathConfig(dt=1e-2, horizon=0.4, seed=seed, bridge_correction=bridge)
            got, ref = simulate_path(model, x0, cfg, target), path_reference(model, x0, cfg, target)
            assert _same_path(got, ref)
            assert type(got.hit_time) is float and type(got.absorption_time) is float  # digested as floats
            seen["early"] += got.absorbed and got.absorption_time <= 0.05
            seen["survives"] += not got.absorbed
            seen["late hit"] += got.hit and got.hit_time >= 0.1
            if got.absorbed:  # the same path, absorbed at its last step
                last = dataclasses.replace(cfg, horizon=got.absorption_time)
                again = simulate_path(model, x0, last, target)
                assert _same_path(again, path_reference(model, x0, last, target))
                assert again.absorption_time == got.absorption_time
    assert seen["early"] and seen["survives"] and seen["late hit"], seen


@pytest.mark.parametrize("name", list(DOMAINS))
def test_simulate_path_blows_up_at_the_reference_step(name):
    """A drift that turns NaN 0.1 away from the deep start raises at the
    step the reference loop raises at, some of them past step 0."""
    base, deep = model_of(name), np.asarray(DOMAINS[name][3], dtype=float)
    drift = CallableDrift(lambda x: np.where(np.abs(x - deep) > 0.1, np.nan, 0.0), declared_bound=1.0)
    model = dataclasses.replace(base, drift=drift)
    steps = []
    for bridge in (True, False):
        for seed in range(4):
            cfg = PathConfig(dt=1e-2, horizon=1.0, seed=seed, bridge_correction=bridge)
            with pytest.raises(NumericalBlowupError) as got:
                simulate_path(model, deep, cfg)
            with pytest.raises(NumericalBlowupError) as ref:
                path_reference(model, deep, cfg)
            assert got.value.step == ref.value.step
            steps.append(got.value.step)
    assert max(steps) > 0


# --- the exit loop of scale1d ------------------------------------------------------


@pytest.mark.parametrize("a,u,n", [(0.0, 0.2, 100), (0.5, 0.05, 1003), (2.0, 0.45, 4000), (0.5, 0.25, 9000)])
def test_exit_mc_equals_the_reference_loop(a, u, n, tally):
    state, exit_time = natural_scale_exit_mc(a, u, 0.5, 0.3, n, 19, dt=1e-3)
    drawn = dict(tally)
    ref_state, ref_time = exit_mc_reference(a, u, 0.5, 0.3, n, 19, dt=1e-3)
    assert np.array_equal(state, ref_state)
    assert np.array_equal(exit_time, ref_time)
    assert {1, 2} <= set(state.tolist())
    tally.clear()
    natural_scale_exit_mc(a, u, 0.5, 0.3, n, 19, dt=1e-3)
    assert drawn == dict(tally) and drawn["generators"] > 0


def test_exit_mc_admits_starts_mid_run_like_the_reference(small_stack, tally):
    """Five starts of 160 paths under a cap of 600: the last ones are admitted
    as earlier paths exit, and every state and exit time is that of the start
    run on its own."""
    us, seeds = [0.01, 0.49, 0.125, 0.4, 0.25], [21, 22, 23, 24, 25]
    shared = qsd.scale1d._exit_mc(0.5, us, 0.5, 0.1, 160, seeds, dt=1e-3)
    drawn = dict(tally)
    tally.clear()
    assert _admitted_mid_run(small_stack)
    for u, seed, (state, exit_time) in zip(us, seeds, shared):
        ref_state, ref_time = exit_mc_reference(0.5, u, 0.5, 0.1, 160, seed, dt=1e-3)
        assert np.array_equal(state, ref_state) and np.array_equal(exit_time, ref_time)
        natural_scale_exit_mc(0.5, u, 0.5, 0.1, 160, seed, dt=1e-3)
    assert drawn == dict(tally)
    assert (shared[-1][0] == 3).any() and np.isfinite(shared[-1][1]).any()


@pytest.mark.parametrize("n", [1003, 4000])
def test_escape_check_equals_the_reference_loop(n, tally):
    a, eps1, seed, u_grid = 0.5, 1.0, 20, [0.125, 0.25, 0.375, 0.1, 0.4]
    rep = escape_bounds_check(a, eps1, u_grid, n, seed, dt=1e-3)
    drawn = dict(tally)
    assert _admitted([n] * len(u_grid), 0) > 1  # some u's share their steps
    c_eps, s1 = green_constants(a, eps1)
    escape = [c for c in rep.checks if c.name.startswith("escape")]
    tail = [c for c in rep.checks if c.name.startswith("tail")]
    assert len(escape) == len(tail) == len(u_grid)
    tally.clear()
    for k, u in enumerate(u_grid):
        state, _ = exit_mc_reference(a, u, eps1 / 2, s1, n, seed + 7919 * k, dt=1e-3)
        assert escape[k].measured == float((state == 1).mean())
        assert tail[k].measured == float((state == 3).mean())
        assert escape[k].bound == u / eps1 and tail[k].bound == u * c_eps / s1
        natural_scale_exit_mc(a, u, eps1 / 2, s1, n, seed + 7919 * k, dt=1e-3)
    assert drawn == dict(tally)


# --- certificates against per-point references -------------------------------------


def a1_reference(model, pts, t0, bins, n, seed, dt):
    grid = domain_grid(model, bins)
    hists = [
        conditioned_law_series(model, x, [t0], n, grid, substream(seed, 20, k), dt=dt)[0][0]
        for k, x in enumerate(pts)
    ]
    c1, m = minorize_laws(np.stack([h.weights for h in hists]))
    return c1, m / c1, hists


def a2_reference(model, nu, pts, times, n, seed, dt, z_ci=3.0):
    g = stream_generator(seed, purpose=9)
    idx = g.choice(nu.support.size, size=n, p=nu.weights / nu.weights.sum())
    lo, hi = nu.support.bounds()
    cloud = lo[idx] + g.random((n, nu.support.dim)) * (hi[idx] - lo[idx])
    cloud = cloud[model.domain.contains(cloud)]
    res_nu = survival_snapshots(model, cloud, times, dt, substream(seed, 30))
    grid = [survival_snapshots(model, np.tile(x, (n, 1)), times, dt, substream(seed, 31, k)) for k, x in enumerate(pts)]
    p_z = np.array([r.survival() for r in grid])
    se_z = np.array([r.standard_errors() for r in grid])
    worst, kmax = p_z.max(axis=0), p_z.argmax(axis=0)
    worst_hi = np.minimum(worst + z_ci * se_z[kmax, np.arange(len(times))], 1.0)
    p_nu, se_nu = res_nu.survival(), res_nu.standard_errors()
    c2 = float((p_nu / worst).min())
    return c2, float((np.maximum(p_nu - z_ci * se_nu, 0.0) / worst_hi).min()), worst


BOX2_POINTS = np.array([[1.0, 1.0], [0.1, 1.0], [1.0, 1.9], [0.6, 0.4], [1.5, 1.5], [0.3, 1.7]])


def test_estimate_A1_and_A2_equal_per_point_references():
    model, pts = model_of("box2"), BOX2_POINTS
    a1 = estimate_A1(model, pts, 0.4, 3, 1000, 7, dt=5e-3)
    c1, nu, hists = a1_reference(model, pts, 0.4, 3, 1000, 7, 5e-3)
    assert a1.c1 == c1 and np.array_equal(a1.nu.weights, nu)
    for h, r in zip(a1.per_point, hists):
        assert np.array_equal(h.weights, r.weights)
    times = [0.1, 0.2, 0.4]
    a2 = estimate_A2(model, a1.nu, pts, times, 1000, 8, dt=5e-3)
    c2, c2_cons, worst = a2_reference(model, a1.nu, pts, times, 1000, 8, 5e-3)
    assert (a2.c2, a2.c2_conservative) == (c2, c2_cons)
    assert np.array_equal(a2.worst_point_survival, worst)


def test_estimate_A2_zero_nu_survival_keeps_its_error(tally):
    """The nu cloud and the probe batches share one loop; a nu cloud that
    dies out still raises the one error, and the probes are stepped too."""
    model = model_of("box2")
    grid = domain_grid(model, 3)
    with pytest.raises(FailedA2Error, match="^zero survival from the minorizing measure on the grid$"):
        estimate_A2(model, Measure(grid, np.full(grid.size, 1 / grid.size)), BOX2_POINTS[:2], [6.0], 100, 3, dt=2e-2)
    assert tally["generators"] > 300


def test_certify_condition_A_equals_per_point_references():
    model, pts = model_of("box2"), BOX2_POINTS
    grid = ProbeGrid(points=pts, times=[0.1, 0.2, 0.4], budget=1000)
    cert = certify_condition_A(model, grid, [0.2, 0.4], 3, 5, dt=5e-3)
    best = None
    for j, t0 in enumerate([0.2, 0.4]):
        c1, nu, _ = a1_reference(model, pts, t0, 3, 1000, substream(5, 40, j), 5e-3)
        nu = Measure(domain_grid(model, 3), nu)
        _, c2, _ = a2_reference(model, nu, pts, grid.times, 1000, substream(5, 41, j), 5e-3)
        c2 = min(max(c2, 0.0), 1.0)
        gamma = -np.log(1.0 - min(c1, 1.0) * c2) / t0
        if c2 > 0 and (best is None or gamma > best[0]):
            best = (gamma, t0, min(c1, 1.0), c2, nu.weights)
    assert best is not None
    assert (cert.gamma_hat, cert.t0, cert.c1, cert.c2) == best[:4]
    assert np.array_equal(cert.nu.weights, best[4])


def test_decay_report_model_equals_per_point_references(monkeypatch):
    model = model_of("disc")
    pairs = [(np.array([-0.5, 0.0]), np.array([0.5, 0.0])), (np.array([0.0, 0.9]), np.array([0.1, 0.1]))]
    times, n, seed = [0.1, 0.2, 0.3, 0.4], 1500, 109
    grid = domain_grid(model, 4)
    cert = ConditionACertificate(t0=1.0, c1=0.05, nu=Measure(grid, np.full(grid.size, 1 / grid.size)), c2=0.05)
    seen = []
    real = qsd.certificates._conditioned_laws
    monkeypatch.setattr(qsd.certificates, "_conditioned_laws", lambda *a, **k: seen.append(real(*a, **k)) or seen[-1])
    rep = decay_report_model(model, cert, pairs, times, n, 4, seed, dt=2e-3)
    [laws] = seen
    assert len(laws) == 2 * len(pairs)
    for ip, (x, y) in enumerate(pairs):
        for law, start, j in ((laws[2 * ip], x, 50), (laws[2 * ip + 1], y, 51)):
            hists, survs = conditioned_law_series(model, start, times, n, grid, substream(seed, j, ip), dt=2e-3)
            assert np.array_equal(law[1], survs)
            for h, r in zip(law[0], hists):
                assert (h is None) == (r is None)
                assert h is None or np.array_equal(h.weights, r.weights)
    assert any(c.name.startswith("pair-contraction-margin[pair1]") for c in rep.checks)


def test_ht_profile_equals_per_point_references():
    model, pts = model_of("box2"), BOX2_POINTS
    prof = ht_profile(model, 0.3, pts, 1000, 12, dt=5e-3)
    surv = np.array([
        survival_snapshots(model, np.tile(x, (1000, 1)), [0.3], 5e-3, substream(12, 80, k)).survival()[0]
        for k, x in enumerate(pts)
    ])
    assert np.array_equal(prof.h, surv / surv.max())
    assert prof.z_index == int(np.argmax(surv))


# --- every start is checked before any batch takes a step ---------------------------


def _with_bad_last(pts, bad):
    return np.vstack([pts, [bad]])


@pytest.mark.parametrize(
    "call",
    [
        lambda m, pts: estimate_A1(m, pts, 0.2, 3, 200, 1, dt=1e-2),
        lambda m, pts: estimate_A2(m, Measure(domain_grid(m, 3), np.full(9, 1 / 9)), pts, [0.1], 200, 1, dt=1e-2),
        lambda m, pts: ht_profile(m, 0.1, pts, 200, 1, dt=1e-2),
        lambda m, pts: certify_condition_A(m, ProbeGrid(points=pts, times=[0.1], budget=200), [0.2], 3, 1, dt=1e-2),
        lambda m, pts: decay_report_model(
            m, ConditionACertificate(0.2, 0.5, Measure(domain_grid(m, 3), np.full(9, 1 / 9)), 0.5),
            [(pts[0], pts[1]), (pts[2], pts[-1])], [0.1, 0.2], 200, 3, 1, dt=1e-2,
        ),
    ],
    ids=["estimate_A1", "estimate_A2", "ht_profile", "certify_condition_A", "decay_report_model"],
)
@pytest.mark.parametrize("bad", [[2.5, 1.0], [0.0, 1.0]])
def test_bad_last_start_raises_before_any_step(call, bad, tally):
    with pytest.raises(DomainError):
        call(model_of("box2"), _with_bad_last(BOX2_POINTS, bad))
    assert tally["generators"] == 0


def test_small_budget_raises_before_any_step(tally):
    model = model_of("box2")
    with pytest.raises(ValueError, match="n >= 100"):
        estimate_A1(model, BOX2_POINTS, 0.2, 3, 99, 1, dt=1e-2)
    assert tally["generators"] == 0


@pytest.mark.parametrize("bad", [[2.5, 1.0], [0.0, 1.0]])
def test_boundary_return_bad_last_point_raises_before_any_step(bad, tally):
    model = model_of("box2")
    target = InnerCompact(model.domain, 0.2)
    with pytest.raises(DomainError):
        boundary_return_constant(model, target, 0.1, _with_bad_last(BOX2_POINTS, bad), 1000, 1, dt=1e-3)
    with pytest.raises(ValueError, match="n >= 100"):
        boundary_return_constant(model, target, 0.1, BOX2_POINTS, 99, 1, dt=1e-3)
    assert tally["generators"] == 0


@pytest.mark.parametrize("bad", [0.5, 0.0, -0.1])
def test_escape_check_bad_last_u_raises_before_any_step(bad, tally):
    with pytest.raises(ValueError, match=rf"u={bad} outside \(0, eps1/2\)"):
        escape_bounds_check(0.5, 1.0, [0.125, 0.25, bad], 1000, 3, dt=1e-3)
    assert tally["generators"] == 0
