import numpy as np
import pytest

from qsd.chains import FiniteAbsorbedChain, evolve_conditioned, qsd_spectral
from qsd.measures import BinGrid, _bin_index, histogram_from_samples, tv_distance
from qsd.models import ConstantIsotropic, DiffusionModel, LinearDrift, brownian_interval, build_model
from qsd.domains import Interval
from qsd import particles
from qsd.particles import (
    ExtinctionError,
    conditional_rejection,
    conditioned_law_series,
    fleming_viot_run,
    lambda0_estimate,
)
from qsd.rng import step_generator
from qsd.simulate import ZeroSurvivorError

from oracles import bin_index_reference, fleming_viot_reference, ground_profile_hist, histogram_reference

PI = np.pi


def test_rejection_one_step_concentrates_at_start():
    model = brownian_interval(0, PI)
    dt = 1e-3
    hist, surv = conditional_rejection(model, [PI / 2], dt, 2000, 64, 5, dt=dt)
    # one Euler step of size sqrt(dt): everything stays in the central bins
    centers = hist.support.centers()[:, 0]
    occupied = centers[hist.weights > 0]
    assert np.abs(occupied - PI / 2).max() < 0.2
    assert surv == 1.0


def test_rejection_reproducible_for_fixed_seed():
    model = brownian_interval(0, PI)
    h1, s1 = conditional_rejection(model, [1.0], 0.5, 2000, 32, 9, dt=1e-3)
    h2, s2 = conditional_rejection(model, [1.0], 0.5, 2000, 32, 9, dt=1e-3)
    assert np.array_equal(h1.weights, h2.weights)
    assert s1 == s2


def test_rejection_zero_survivors_raises():
    model = brownian_interval(0, 0.05)  # lambda0 ~ 1974: nothing survives t=1
    with pytest.raises(ZeroSurvivorError):
        conditional_rejection(model, [0.025], 1.0, 200, 8, 3, dt=1e-4)


def test_rejection_converges_to_sin_profile():
    model = brownian_interval(0, PI)
    hist, surv = conditional_rejection(model, [PI / 2], 3.0, 40_000, 32, 11, dt=1e-3)
    oracle = ground_profile_hist(0, PI, 32)
    assert tv_distance(hist.weights, oracle) < 0.08


def test_fv_frozen_drift_flow_never_rebirths():
    # zero diffusion, inward drift: particles follow the flow, no absorption
    model = DiffusionModel(
        domain=Interval(0.0, 1.0),
        drift=LinearDrift(-1.0, (0.5,)),
        diffusion=ConstantIsotropic(0.0),
        sigma_min2=0.0,
        sigma_max2=0.0,
        drift_bound=0.5,
    )
    init = np.array([[0.3], [0.8]])
    res = fleming_viot_run(model, 2, 1.0, 16, 21, dt=1e-2, init=init)
    assert res.total_rebirths == 0
    # the flow contracts toward 0.5
    assert np.abs(res.cloud.positions - 0.5).max() < np.abs(init - 0.5).max()


def test_fv_extinction_error():
    model = brownian_interval(0, 0.02)
    init = np.full((4, 1), 0.01)
    with pytest.raises(ExtinctionError):
        fleming_viot_run(model, 4, 1.0, 8, 2, dt=0.5, init=init)


@pytest.mark.parametrize(
    "horizon,dt,burn_in",
    [(1.0, 0.02, 1.0), (1.0, 0.02, 0.99), (1.0, 0.02, 2.0), (1.0, 2.0, None), (0.02, 0.02, None)],
)
def test_fv_burn_in_without_a_step_to_accumulate_raises_before_any_step(monkeypatch, horizon, dt, burn_in):
    # each used to return NaN occupation weights: no step was accumulated
    stepped = []
    monkeypatch.setattr(particles, "_step", lambda *a: stepped.append(1))
    with pytest.raises(ValueError, match="burn_in .* leaves none of the"):
        fleming_viot_run(brownian_interval(0, PI), 50, horizon, 8, 3, dt=dt, burn_in=burn_in)
    assert not stepped


def test_fv_burn_in_at_the_last_step_accumulates_it():
    res = fleming_viot_run(brownian_interval(0, PI), 50, 1.0, 8, 3, dt=0.02, burn_in=0.98)
    assert res.occupation.is_distribution
    assert np.array_equal(res.occupation.weights, res.final_histogram.weights)


def test_fv_occupation_close_to_sin_profile_small_run():
    model = brownian_interval(0, PI)
    res = fleming_viot_run(model, 2000, 4.0, 32, 31, dt=1e-3, burn_in=2.0)
    oracle = ground_profile_hist(0, PI, 32)
    assert tv_distance(res.occupation.weights, oracle) < 0.08
    fit = lambda0_estimate(res.rebirth_times, res.rebirth_rates, kind="rebirth", window=(2.0, 4.0))
    assert fit.lambda0 == pytest.approx(0.5, rel=0.2)


def test_fv_exchangeability_under_stream_permutation():
    # permuting the seed-indexed streams = running with another seed; the
    # binned occupation aggregate keeps the same distribution
    model = brownian_interval(0, PI)
    r1 = fleming_viot_run(model, 1500, 3.0, 16, 41, dt=2e-3, burn_in=1.5)
    r2 = fleming_viot_run(model, 1500, 3.0, 16, 42, dt=2e-3, burn_in=1.5)
    assert tv_distance(r1.occupation, r2.occupation) < 0.1


def test_rejection_and_fv_agree():
    model = brownian_interval(0, PI)
    hist, _ = conditional_rejection(model, [PI / 2], 3.0, 40_000, 16, 51, dt=1e-3)
    fv = fleming_viot_run(model, 2000, 4.0, 16, 52, dt=1e-3, burn_in=2.0)
    assert tv_distance(hist, fv.occupation) < 0.1


def test_conditioned_tv_decays_along_geometric_grid():
    model = brownian_interval(0, PI)
    times = [0.25, 0.5, 1.0, 2.0]
    hx, _ = conditioned_law_series(model, [PI / 4], times, 40_000, 16, 61, dt=1e-3)
    hy, _ = conditioned_law_series(model, [3 * PI / 4], times, 40_000, 16, 62, dt=1e-3)
    tvs = [tv_distance(a, b) for a, b in zip(hx, hy)]
    assert all(a > b for a, b in zip(tvs, tvs[1:]))


def test_lambda0_exact_exponential_series():
    t = np.linspace(0.1, 3.0, 10)
    fit = lambda0_estimate(t, np.exp(-0.5 * t))
    assert fit.lambda0 == pytest.approx(0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_lambda0_chain_survival_is_spectral_identity():
    chain = FiniteAbsorbedChain(np.array([[0.4, 0.2], [0.2, 0.4]]))
    spec = qsd_spectral(chain)
    ts = np.arange(1, 11, dtype=float)
    survs = np.array([evolve_conditioned(chain, spec.alpha, int(t))[1] for t in ts])
    fit = lambda0_estimate(ts, survs)
    assert fit.lambda0 == pytest.approx(spec.lambda0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_lambda0_rejects_bad_input():
    with pytest.raises(ValueError):
        lambda0_estimate(np.arange(5.0), np.array([1.0, 0.5, 0.0, 0.2, 0.1]))
    with pytest.raises(ValueError):
        lambda0_estimate(np.arange(3.0), np.exp(-np.arange(3.0)))


def test_lambda0_bm_unit_interval():
    model = brownian_interval(0, 1)
    times = np.linspace(0.1, 0.8, 8)
    hists, survs = conditioned_law_series(model, [0.5], times, 40_000, 8, 71, dt=5e-4)
    fit = lambda0_estimate(times, survs, window=(0.2, 0.8))
    oracle = PI**2 / 2
    assert fit.lambda0 == pytest.approx(oracle, rel=0.05)


def test_coarsened_rejection_histogram_nests():
    model = brownian_interval(0, PI)
    hist, _ = conditional_rejection(model, [1.0], 1.0, 20_000, 32, 81, dt=1e-3)
    coarse, _ = conditional_rejection(model, [1.0], 1.0, 20_000, 16, 81, dt=1e-3)  # the same paths
    assert coarse.support.size == 16
    assert np.allclose(coarse.weights, hist.weights.reshape(16, 2).sum(axis=1), rtol=0, atol=1e-15)


# --- Fleming-Viot kernels against their sequential references -----------------------


FV_CASES = [
    (("interval 0 1", "zero", "constant 1.0"), 8),
    (
        ("box 0 0 1 2", "linear -0.5 0.5 1", "diagonal_holder 1.0 0.3 0.5 0.5 1.0"),
        BinGrid(((0.0, 0.1, 0.15, 0.5, 1.0), (0.0, 1.5, 2.0))),
    ),
    (("ball 0 0 1", "zero", "constant 1.0"), 6),
]


def test_fv_equals_sequential_rebirth_reference():
    chained = 0
    for k, (specs, bins) in enumerate(FV_CASES):
        model = build_model(*specs)
        n, dt, n_steps = 60, 0.02, 50
        init = model.domain.uniform(np.random.default_rng(k), n)
        res = fleming_viot_run(
            model, n, n_steps * dt, bins, 21 + k, dt=dt, burn_in=0.5, init=init, rate_bins=n_steps
        )
        edges = res.occupation.support.edge_arrays()
        occ, rebirths, pos, c = fleming_viot_reference(
            model, init.copy(), n_steps, edges, 21 + k, dt=dt, burn_steps=25
        )
        assert np.array_equal(res.occupation.weights, occ / occ.sum())
        assert np.array_equal(res.rebirth_rates, rebirths / (n * dt))
        assert res.total_rebirths == rebirths.sum()
        assert np.array_equal(res.cloud.positions, pos)
        chained += c
    assert chained > 0  # some donors were themselves reborn in the same step


@pytest.mark.parametrize(
    "grid",
    [
        BinGrid.regular(0.0, PI, 32),
        BinGrid.regular([0.0, -1.0], [1.0, 2.0], [10, 7]),
        BinGrid(((0.0, 0.1, 0.15, 0.5, 3.0), (-1.0, 0.0, 2.0))),
        BinGrid.regular([0.0, 0.0, 0.0], [1.0, 1.5, 2.0], [3, 4, 2]),
    ],
)
def test_bin_index_equals_clipped_searchsorted(grid):
    """Both binning kernels, bit for bit against their references:
    `_bin_index` against a clipped searchsorted per axis, and
    `histogram_from_samples`, which drops the samples outside the closed
    box and counts those on the last edge in the last bin, against
    `np.histogramdd`."""
    g = np.random.default_rng(4)
    edges = grid.edge_arrays()
    cols = []
    for e in edges:
        # every edge and its neighbours one ulp away, points outside, then random points
        c = np.concatenate(
            [e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf), [e[0] - 1, e[-1] + 1e6, -np.inf, np.inf, np.nan]]
        )
        cols.append(np.concatenate([c, g.uniform(e[0] - 0.1, e[-1] + 0.1, 3000 - c.size)]))
    pts = np.stack([g.permutation(c) for c in cols], axis=1)
    assert np.array_equal(_bin_index(edges, pts), bin_index_reference(edges, pts))
    assert np.array_equal(histogram_from_samples(grid, pts).weights, histogram_reference(grid, pts))
    last = np.tile([e[-1] for e in edges], (5, 1))  # exactly on the last edge of every axis
    assert np.array_equal(histogram_from_samples(grid, last).weights, histogram_reference(grid, last))
    assert histogram_from_samples(grid, last).weights[-1] == 1.0


@pytest.mark.parametrize("a,d", [(1, 1), (3, 40), (4999, 7), (2**32 - 3, 6)])
def test_integers_array_high_equals_sequential_scalar_calls(a, d):
    """The batched donor draw of fleming_viot_run relies on this."""
    g1, g2 = step_generator(11, a), step_generator(11, a)
    g1.standard_normal(3)
    g2.standard_normal(3)
    batch = g1.integers(0, a + np.arange(d))
    assert batch.tolist() == [int(g2.integers(0, a + j)) for j in range(d)]
    assert g1.random() == g2.random()
