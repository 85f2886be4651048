import warnings

import numpy as np
import pytest

from qsd.certificates import (
    ConditionACertificate,
    NoMinorizationError,
    boundary_return_constant,
    decay_report_chain,
    decay_report_model,
    estimate_A1,
    estimate_A1_chain,
    estimate_A2,
    estimate_A2_chain,
    gradient_profile,
    gradient_profile_chain,
    ht_profile,
    ht_profile_chain,
    irreducibility_probe,
    minorize_laws,
)
from qsd.chains import FiniteAbsorbedChain, fit_two_sided
from qsd.domains import Ball, InnerCompact, Interval
from qsd.measures import BinGrid, Measure, coarsen_histogram
from qsd.models import ConstantIsotropic, DiffusionModel, ZeroDrift, brownian_interval
from qsd.report import VerificationReport
from qsd.simulate import ZeroSurvivorError

from oracles import random_positive_chain

PI = np.pi
SYM2 = np.array([[0.4, 0.2], [0.2, 0.4]])


def frozen_model(domain=Interval(0.0, 1.0)):
    return DiffusionModel(
        domain=domain,
        drift=ZeroDrift(),
        diffusion=ConstantIsotropic(0.0),
        sigma_min2=0.0,
        sigma_max2=0.0,
        drift_bound=0.0,
        name="frozen",
    )


# --- A1 ---------------------------------------------------------------------------


def test_minorize_identical_laws_gives_full_mass():
    laws = np.tile(np.array([0.25, 0.5, 0.25]), (4, 1))
    c1, m = minorize_laws(laws)
    assert c1 == pytest.approx(1.0)
    assert np.allclose(m, laws[0])


def test_minorize_disjoint_laws_gives_zero():
    laws = np.array([[1.0, 0.0], [0.0, 1.0]])
    c1, _ = minorize_laws(laws)
    assert c1 == 0.0
    q = np.array([[0.9, 0.0], [0.0, 0.9]])
    with pytest.raises(NoMinorizationError):
        estimate_A1_chain(FiniteAbsorbedChain(q), 1)


def test_chain_a1_matches_exact_elementwise_min():
    rng = np.random.default_rng(5)
    q = random_positive_chain(rng, 5, 0.9)
    chain = FiniteAbsorbedChain(q)
    c1, nu = estimate_A1_chain(chain, 2)
    p = np.linalg.matrix_power(q, 2)
    rows = p / p.sum(axis=1, keepdims=True)
    m = rows.min(axis=0)
    assert c1 == pytest.approx(m.sum(), abs=1e-12)
    assert np.abs(nu.weights - m / m.sum()).max() < 1e-12


def test_diffusion_a1_positive_minorization():
    model = brownian_interval(0, PI)
    pts = np.array([[0.7], [PI / 2], [2.5]])
    a1 = estimate_A1(model, pts, 1.0, 8, 4000, 7, dt=2e-3)
    assert 0 < a1.c1 <= 1.0
    assert a1.nu.is_distribution
    assert len(a1.per_point) == 3


def test_a1_monotone_under_bin_refinement():
    # common samples, nested grids: finer bins shrink the common part
    model = brownian_interval(0, PI)
    pts = np.array([[0.7], [PI / 2], [2.5]])
    a1_fine = estimate_A1(model, pts, 1.0, 32, 4000, 9, dt=2e-3)
    laws_coarse = np.stack(
        [coarsen_histogram(h, 4).weights for h in a1_fine.per_point]
    )
    c1_coarse, _ = minorize_laws(laws_coarse)
    assert a1_fine.c1 <= c1_coarse + 1e-12


# --- A2 ---------------------------------------------------------------------------


def test_chain_a2_exact_ratio():
    chain = FiniteAbsorbedChain(SYM2)
    c2 = estimate_A2_chain(chain, np.array([0.5, 0.5]), 50)
    assert c2 == pytest.approx(1.0, abs=1e-12)  # equal survival from both states


def test_a2_self_ratio_is_one():
    model = frozen_model()  # no absorption: all survivals are 1
    grid = BinGrid.regular(0.0, 1.0, 4)
    nu = Measure(grid, np.array([0.0, 1.0, 0.0, 0.0]))
    a2 = estimate_A2(model, nu, np.array([[0.4]]), [0.5, 1.0], 500, 3, dt=1e-2)
    assert a2.c2 == pytest.approx(1.0)


def test_a2_diffusion_sane_and_stable():
    model = brownian_interval(0, PI)
    pts = np.array([[0.7], [PI / 2], [2.5]])
    a1 = estimate_A1(model, pts, 1.0, 8, 4000, 11, dt=2e-3)
    a2a = estimate_A2(model, a1.nu, pts, [0.5, 1.5], 4000, 13, dt=2e-3)
    a2b = estimate_A2(model, a1.nu, pts, [0.5, 1.5], 8000, 17, dt=2e-3)
    assert 0 < a2a.c2 <= 1 + 0.05
    assert a2a.c2 == pytest.approx(a2b.c2, rel=0.2)
    assert a2a.c2_conservative <= a2a.c2


# --- decay reports -----------------------------------------------------------------


def test_decay_report_chain_sym2_all_bounds_hold():
    chain = FiniteAbsorbedChain(SYM2)
    cert = fit_two_sided(chain, 1)
    pairs = [(np.array([1.0, 0.0]), np.array([0.0, 1.0]))]
    rep = decay_report_chain(chain, cert, pairs, 40)
    assert rep.passed, rep.to_text()
    gamma_emp = next(c.measured for c in rep.checks if c.name == "gamma-emp")
    assert gamma_emp == pytest.approx(np.log(3.0), abs=1e-5)  # TV contracts by 1/3


def test_decay_report_chain_rejects_empty_pairs():
    # with no pairs both margins are empty minima, +inf, a vacuous pass
    chain = FiniteAbsorbedChain(SYM2)
    with pytest.raises(ValueError):
        decay_report_chain(chain, fit_two_sided(chain, 1), [], 40)


def test_decay_report_random_chains_rate_dominates():
    rng = np.random.default_rng(100)
    for trial in range(20):
        chain = FiniteAbsorbedChain(random_positive_chain(rng, 5, 0.9))
        cert = fit_two_sided(chain, 1)
        pairs = []
        for _ in range(2):
            p1 = rng.exponential(size=5)
            p2 = rng.exponential(size=5)
            pairs.append((p1 / p1.sum(), p2 / p2.sum()))
        rep = decay_report_chain(chain, cert, pairs, 50)
        assert rep.passed, f"trial {trial}:\n{rep.to_text()}"


def test_decay_report_model_bm():
    model = brownian_interval(0, PI)
    grid = BinGrid.regular(0.0, PI, 8)
    cert = ConditionACertificate(
        t0=1.0, c1=0.5, nu=Measure(grid, np.full(8, 1 / 8)), c2=0.5
    )
    rep = decay_report_model(
        model,
        cert,
        [([PI / 4], [3 * PI / 4])],
        [0.5, 1.0, 1.5, 2.0],
        30_000,
        8,
        19,
        dt=1e-3,
    )
    assert rep.passed, rep.to_text()


def test_decay_report_model_pair_without_survivors_raises(monkeypatch):
    grid = BinGrid.regular(0.0, 1.0, 8)
    cert = ConditionACertificate(t0=1.0, c1=0.5, nu=Measure(grid, np.full(8, 1 / 8)), c2=0.5)
    recorded = []
    add = VerificationReport.add
    monkeypatch.setattr(
        VerificationReport, "add", lambda self, check: recorded.append(check.name) or add(self, check)
    )
    # survival from 0.5 at t = 5 is about 2e-11: every path of both starts dies
    with pytest.raises(ZeroSurvivorError, match=r"pair0 \(x=\[0\.5\], y=\[0\.3\]\)"):
        decay_report_model(brownian_interval(0, 1), cert, [(0.5, 0.3)], [5, 6, 7], 100, 8, 4, dt=1e-2)
    assert recorded == ["gamma-hat"]  # no check of pair0 was recorded


# --- gradient profile ----------------------------------------------------------------


def test_gradient_frozen_model_is_zero():
    model = frozen_model()
    prof = gradient_profile(
        model,
        [0.5],
        np.array([[0.3], [0.5], [0.7]]),
        500,
        3,
        dts=[1e-2],
        include_boundary=False,
    )
    assert prof.lipschitz[0] == 0.0
    assert prof.max_survival[0] == 1.0


@pytest.mark.parametrize(
    "domain,points",
    [
        (Interval(0.0, 1.0), [[0.3], [0.5], [0.93]]),
        (Ball((0.0, 0.0), 1.0), [[0.0, 0.0], [0.4, -0.2], [0.0, 0.85]]),
    ],
)
def test_gradient_cemetery_enters_through_boundary_distance(domain, points):
    # nothing moves or dies: every survival is 1, so the only nonzero
    # quotients are the cemetery pairs, 1 / rho_boundary(x)
    model = frozen_model(domain)
    pts = np.array(points)
    prof = gradient_profile(model, [0.5], pts, 200, 5, dts=[1e-2], include_boundary=True)
    assert prof.max_survival[0] == 1.0
    assert prof.lipschitz[0] == 1.0 / domain.rho_boundary(pts).min()
    margin = next(c for c in prof.report.checks if c.name == "survival-below-L-rho-margin")
    assert margin.passed


def test_gradient_chain_discrete_metric_is_range():
    rng = np.random.default_rng(21)
    q = rng.uniform(size=(4, 4))
    q *= rng.uniform(0.4, 0.9, size=(4, 1)) / q.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    for t in (1, 3):
        L, surv = gradient_profile_chain(chain, t)
        assert L == pytest.approx(surv.max() - surv.min(), abs=1e-15)


def test_gradient_windowed_point_without_survivors_is_inconclusive():
    # every particle started at 0.0005 dies within the window
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prof = gradient_profile(
            brownian_interval(0, 1), [0.5], [[0.0005], [0.5]], 100, 3, dts=[1e-2], windows=[0.5]
        )
    assert prof.inconclusive[0]
    for c in prof.report.checks:
        assert not np.isnan([c.bound, c.measured, c.se, c.tolerance]).any(), c.line()


def test_gradient_time_without_survivors_raises(monkeypatch):
    recorded = []
    add = VerificationReport.add
    monkeypatch.setattr(
        VerificationReport, "add", lambda self, check: recorded.append(check.name) or add(self, check)
    )
    # survival from 0.5 at t = 5 is about 2e-11: every path of both points dies
    with pytest.raises(ZeroSurvivorError, match=r"no survivors at t=5 .* out of 100 paths each"):
        gradient_profile(brownian_interval(0, 1), [5.0], [[0.5], [0.3]], 100, 3, dts=[1e-2])
    assert recorded == []


def test_gradient_bm_shape_small_times():
    model = brownian_interval(0, 1)
    times = [1e-2, 1e-1]
    pts = np.array([[0.01], [0.02], [0.05], [0.1], [0.3], [0.5]])
    prof = gradient_profile(
        model, times, pts, 20_000, 23, dts=[1e-4, 1e-3], shape_factor=2.0
    )
    assert prof.report.passed, prof.report.to_text()
    shaped = prof.lipschitz * np.sqrt(times)
    assert shaped.max() / shaped.min() < 1.5


# --- boundary return and irreducibility ----------------------------------------------


def test_boundary_return_positive_and_below_C():
    model = brownian_interval(0, 1)
    pts = np.array([[0.02], [0.05], [0.1]])
    res = boundary_return_constant(
        model,
        InnerCompact(model.domain, 0.25),
        0.1,
        pts,
        20_000,
        29,
        dt=2e-4,
        gradient_C=None,
    )
    assert res.report.passed, res.report.to_text()
    assert res.c_prime > 0
    # survival Lipschitz constant at t1 dominates C' (event inclusion)
    prof = gradient_profile(model, [0.1], np.vstack([pts, [[0.3], [0.5]]]), 20_000, 31, dts=[2e-4])
    res2 = boundary_return_constant(
        model,
        InnerCompact(model.domain, 0.25),
        0.1,
        pts,
        20_000,
        29,
        dt=2e-4,
        gradient_C=float(prof.lipschitz[0]),
    )
    assert res2.report.passed, res2.report.to_text()


def test_irreducibility_probe_positive_for_bm():
    model = brownian_interval(0, 1)
    est, se, upper = irreducibility_probe(model, [0.3], [0.7], 0.2, 0.05, 20_000, 37, dt=1e-4)
    assert est > 0
    est2, _, _ = irreducibility_probe(model, [0.3], [0.7], 0.2, 0.05, 40_000, 41, dt=1e-4)
    assert est == pytest.approx(est2, rel=0.2)


def test_irreducibility_probe_whole_domain_ball_is_survival():
    model = brownian_interval(0, 1)
    t1 = 0.05
    est, _, _ = irreducibility_probe(model, [0.3], [0.5], 10.0, t1, 20_000, 43, dt=1e-3)
    from qsd.simulate import survival_probability

    surv, se = survival_probability(model, [0.3], 2 * t1, 20_000, 43, dt=1e-3)
    assert est == pytest.approx(surv, abs=1e-12)  # same seed, same paths


def test_irreducibility_zero_successes_inconclusive():
    model = frozen_model()  # nothing moves: far ball is never reached
    est, se, upper = irreducibility_probe(model, [0.2], [0.8], 0.05, 0.1, 200, 47, dt=1e-3)
    assert est == 0.0
    assert upper > 0


# --- h_t profile ----------------------------------------------------------------------


def test_ht_chain_sym2_degenerate():
    prof = ht_profile_chain(FiniteAbsorbedChain(SYM2), 3)
    assert prof.degenerate
    assert prof.z_index == 0  # tie resolves to the smallest index
    assert prof.c_lipschitz == 0.0
    assert prof.k_prime_threshold is None


def test_ht_chain_heterogeneous():
    rng = np.random.default_rng(51)
    q = rng.uniform(size=(4, 4))
    q *= rng.uniform(0.4, 0.9, size=(4, 1)) / q.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    prof = ht_profile_chain(chain, 4)
    assert not prof.degenerate
    assert prof.report.passed, prof.report.to_text()
    assert prof.h[prof.z_index] == 1.0


def test_ht_bm_profile_close_to_sin():
    model = brownian_interval(0, PI)
    pts = np.linspace(0.35, PI - 0.35, 9)[:, None]
    prof = ht_profile(model, 5.0, pts, 4000, 53, dt=2e-3, window=0.5)
    assert not prof.degenerate
    assert prof.report.passed, prof.report.to_text()
    assert abs(prof.z_point[0] - PI / 2) < 0.45
    want = np.sin(pts[:, 0])
    want = want / want.max()
    assert np.abs(prof.h - want).sum() / len(pts) < 0.06
    assert float(model.domain.rho_boundary(prof.z_point[None, :])[0]) >= 1.0 / prof.c_lipschitz
