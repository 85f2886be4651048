import numpy as np
import pytest

from qsd.chains import (
    FiniteAbsorbedChain,
    evolve_conditioned,
    fit_two_sided,
    qsd_spectral,
    survival_ratio,
    verify_theorem_2_1,
)
from qsd.measures import tv_distance

from oracles import random_positive_chain

SYM2 = np.array([[0.4, 0.2], [0.2, 0.4]])


def test_sym2_sandwich_hand_values():
    chain = FiniteAbsorbedChain(SYM2)
    cert = fit_two_sided(chain, 1)
    spec = qsd_spectral(chain)
    # c = sqrt(2): c^-2 mu = (0.25, 0.25) <= alpha = (0.5, 0.5) <= c^2 mu = (1, 1)
    assert np.allclose(cert.c**-2 * cert.mu, [0.25, 0.25])
    assert np.allclose(spec.alpha, [0.5, 0.5])
    assert np.allclose(cert.c**2 * cert.mu, [1.0, 1.0])
    rep = verify_theorem_2_1(chain, cert)
    assert rep.passed, rep.to_text()


def test_rank_one_chain_contracts_in_one_step():
    row = np.array([0.25, 0.5, 0.15])
    chain = FiniteAbsorbedChain(np.tile(row, (3, 1)))
    cert = fit_two_sided(chain, 1)
    assert cert.contraction_factor == pytest.approx(1 - row.sum(), abs=1e-12)
    d1, _ = evolve_conditioned(chain, np.array([1.0, 0.0, 0.0]), 1)
    d2, _ = evolve_conditioned(chain, np.array([0.0, 0.0, 1.0]), 1)
    assert tv_distance(d1, d2) == 0.0
    assert np.allclose(d1, row / row.sum())
    assert verify_theorem_2_1(chain, cert).passed


def test_random_chains_no_violations():
    rng = np.random.default_rng(314)
    for trial in range(20):
        chain = FiniteAbsorbedChain(random_positive_chain(rng, 5, 0.9))
        cert = fit_two_sided(chain, 1)
        rep = verify_theorem_2_1(chain, cert, n_pairs=4, t_max=30, seed=trial)
        assert rep.passed, rep.to_text()


def test_verify_reports_failures_instead_of_raising():
    chain = FiniteAbsorbedChain(SYM2)
    cert = fit_two_sided(chain, 1)
    # a deliberately invalid certificate: c too small for the kernel
    bad = type(cert)(t0=1, c=1.01, f=cert.f, mu=cert.mu)
    rep = verify_theorem_2_1(chain, bad)
    assert not rep.passed
    assert any(not c.passed for c in rep.checks)


def test_max_survival_ratio_improvement_on_asymmetric_chain():
    # heterogeneous row sums make survival start-dependent, so the
    # c(pi1) v c(pi2) denominator genuinely improves on the minimum
    rng = np.random.default_rng(2718)
    found_strict = False
    for _ in range(10):
        q = rng.uniform(size=(5, 5))
        q *= rng.uniform(0.4, 0.95, size=(5, 1)) / q.sum(axis=1, keepdims=True)
        chain = FiniteAbsorbedChain(q)
        cert = fit_two_sided(chain, 1)
        c1c2 = cert.c1 * cert.c2
        for _ in range(3):
            p1 = rng.exponential(size=5)
            p1 /= p1.sum()
            p2 = rng.exponential(size=5)
            p2 /= p2.sum()
            c_1 = survival_ratio(chain, p1, 200).c
            c_2 = survival_ratio(chain, p2, 200).c
            if abs(c_1 - c_2) > 1e-6:
                found_strict = True
            d1, d2 = p1, p2
            for t in range(0, 60):
                lhs = tv_distance(d1, d2)
                rhs = (1 - c1c2) ** (t // cert.t0) * tv_distance(p1, p2) / max(c_1, c_2)
                assert lhs <= rhs + 1e-10
                d1 = d1 @ chain.kernel
                d1 /= d1.sum()
                d2 = d2 @ chain.kernel
                d2 /= d2.sum()
    assert found_strict


def test_no_pairs_is_an_error():
    # with no pairs the TV-contraction margin is an empty minimum, +inf, a vacuous pass
    chain = FiniteAbsorbedChain(SYM2)
    cert = fit_two_sided(chain, 1)
    for n_pairs in (0, -3):
        with pytest.raises(ValueError):
            verify_theorem_2_1(chain, cert, n_pairs=n_pairs)
