"""Contract details not covered by the main module tests."""

import numpy as np
import pytest

from qsd.certificates import ConditionACertificate, estimate_A2_chain
from qsd.chains import FiniteAbsorbedChain, qsd_spectral
from qsd.measures import BinGrid, FiniteStateSpace, Measure, lipschitz_constant, CEMETERY
from qsd.models import brownian_interval, build_model
from qsd.simulate import PathConfig, simulate_path, survival_probability

from oracles import brute_force_survival_ratio, reflection_survival


def test_metric_axioms_on_sampled_triples():
    rng = np.random.default_rng(0)
    sp = FiniteStateSpace(5, embedding=rng.normal(size=(5, 2)))
    for _ in range(50):
        i, j, k = rng.integers(0, 5, size=3)
        assert sp.metric(i, j) == sp.metric(j, i)
        assert (sp.metric(i, j) == 0) == (i == j)
        assert sp.metric(i, j) <= sp.metric(i, k) + sp.metric(k, j) + 1e-12
    assert sp.metric(CEMETERY, CEMETERY) == 0.0


def test_lipschitz_rejects_zero_distance_pairs():
    with pytest.raises(ValueError):
        lipschitz_constant([0.0, 0.0], [1.0, 2.0], lambda a, b: abs(a - b))


def test_second_modulus_absent_beyond_dense_cap():
    rng = np.random.default_rng(1)
    n = 520
    q = rng.uniform(size=(n, n))
    q *= 0.9 / q.sum(axis=1, keepdims=True)
    spec = qsd_spectral(FiniteAbsorbedChain(q))
    assert spec.second_modulus is None
    assert spec.iterations > 0  # beyond the cap the power-iteration fallback runs
    assert spec.perron == pytest.approx(0.9, abs=1e-9)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt=0.0, horizon=1.0, seed=1)
    with pytest.raises(ValueError):
        PathConfig(dt=2.0, horizon=1.0, seed=1)


def test_2d_box_survival_matches_product_oracle():
    # killed BM on (0,1)^2 factorizes: survival = (1-d survival)^2
    model = build_model("box 0 0 1 1", "zero", "constant 1.0")
    t = 0.1
    est, se = survival_probability(model, [0.5, 0.5], t, 40_000, 11, dt=5e-4)
    oracle = reflection_survival(0.5, t, 0.0, 1.0) ** 2
    assert abs(est - oracle) <= 3.5 * se


def test_ball_paths_stay_inside_and_reproduce():
    model = build_model("ball 0 0 1", "zero", "constant 1.0")
    cfg = PathConfig(dt=1e-3, horizon=0.5, seed=2)
    p1 = simulate_path(model, [0.0, 0.0], cfg)
    p2 = simulate_path(model, [0.0, 0.0], cfg)
    assert np.array_equal(p1.positions, p2.positions)
    assert (np.linalg.norm(p1.positions, axis=1) < 1.0).all()


def test_estimate_A2_chain_matches_brute_force():
    rng = np.random.default_rng(3)
    q = rng.uniform(size=(4, 4))
    q *= rng.uniform(0.4, 0.9, size=(4, 1)) / q.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    nu = np.array([0.1, 0.2, 0.3, 0.4])
    got = estimate_A2_chain(chain, nu, 500)
    want = brute_force_survival_ratio(q, nu, 500)
    spec = qsd_spectral(chain)
    want = min(want, float(nu @ spec.eta) / float(spec.eta.max()))
    assert got == pytest.approx(want, abs=1e-12)


def test_condition_a_certificate_validation():
    grid = BinGrid.regular(0.0, 1.0, 4)
    nu = Measure(grid, np.full(4, 0.25))
    ConditionACertificate(t0=1.0, c1=0.5, nu=nu, c2=0.5)
    with pytest.raises(ValueError):
        ConditionACertificate(t0=1.0, c1=0.0, nu=nu, c2=0.5)
    with pytest.raises(ValueError):
        ConditionACertificate(t0=1.0, c1=0.5, nu=nu, c2=1.5)
    with pytest.raises(ValueError):
        ConditionACertificate(t0=1.0, c1=0.5, nu=Measure(grid, np.full(4, 0.3)), c2=0.5)


def test_gamma_hat_formula():
    grid = BinGrid.regular(0.0, 1.0, 2)
    cert = ConditionACertificate(
        t0=2.0, c1=0.5, nu=Measure(grid, np.array([0.5, 0.5])), c2=0.4
    )
    assert cert.gamma_hat == pytest.approx(-np.log(1 - 0.2) / 2.0)


def test_histogram_csv_layout(tmp_path):
    from qsd.measures import histogram_from_samples, write_histogram_csv

    rng = np.random.default_rng(4)
    h1 = histogram_from_samples(BinGrid.regular(0.0, 1.0, 4), rng.random(100))
    p1 = tmp_path / "h1.csv"
    write_histogram_csv(p1, h1)
    lines = p1.read_text().splitlines()
    assert lines[0] == "bin_lo0,bin_hi0,weight"
    assert len(lines) == 5
    h2 = histogram_from_samples(
        BinGrid.regular([0.0, 0.0], [1.0, 1.0], 2), rng.random((100, 2))
    )
    p2 = tmp_path / "h2.csv"
    write_histogram_csv(p2, h2)
    assert p2.read_text().splitlines()[0] == "bin_lo0,bin_lo1,bin_hi0,bin_hi1,weight"


def test_conditional_rejection_requires_positive_time():
    from qsd.particles import conditional_rejection

    model = brownian_interval(0.0, 1.0)
    with pytest.raises(ValueError):
        conditional_rejection(model, [0.5], 0.0, 200, 8, 1, dt=1e-3)


def test_decay_report_cli_model_variant(tmp_path):
    from qsd.cli import main

    cfg = tmp_path / "dm.cfg"
    cfg.write_text(
        """
[experiment]
kind = decay-report
seed = 77

[model]
domain = interval 0 3.141592653589793
diffusion = constant 1.0

[certificate]
t0 = 1.0
c1 = 0.5
c2 = 0.5

[params]
dt = 2e-3
times = 0.5 1.0 1.5
x = 0.7853981633974483
y = 2.356194490192345
n = 20000
bins = 8
"""
    )
    out = tmp_path / "o"
    assert main(["decay-report", "--config", str(cfg), "--out", str(out)]) == 0
    text = (out / "report.txt").read_text()
    assert "gamma-emp" in text
    assert "c-mu-surrogate" in text
