import numpy as np
import pytest

from qsd.chains import (
    EmptyOverlapError,
    FiniteAbsorbedChain,
    PrimitivityError,
    check_condition_A_prime,
    evolve_conditioned,
)
from qsd.measures import tv_distance

from oracles import condition_A_prime_brute, nu_xy_brute, random_positive_chain

SYM2 = np.array([[0.4, 0.2], [0.2, 0.4]])


def test_sym2_A_is_one_when_K_is_everything():
    res = check_condition_A_prime(FiniteAbsorbedChain(SYM2), np.array([0, 1]), 1)
    assert res.A == pytest.approx(1.0, abs=1e-12)
    assert res.t0 == 4
    assert res.report.passed, res.report.to_text()


def test_sym2_tv_contracts_by_exact_thirds():
    # the delta-start difference lies along the second eigenvector
    # (eigenvalue 0.2), so the conditioned laws contract by 0.2/0.6 = 1/3
    # per step: TV(t) = 2 * 3^-t, strictly below the certified bound
    chain = FiniteAbsorbedChain(SYM2)
    for t in (1, 2, 5):
        d1, _ = evolve_conditioned(chain, np.array([1.0, 0.0]), t)
        d2, _ = evolve_conditioned(chain, np.array([0.0, 1.0]), t)
        assert tv_distance(d1, d2) == pytest.approx(2.0 * 3.0**-t, abs=1e-14)
    res = check_condition_A_prime(chain, np.array([0, 1]), 1)
    assert res.contraction_factor < 1.0
    assert res.report.passed


def test_random_chains_decay_bound_holds():
    rng = np.random.default_rng(99)
    for trial in range(10):
        chain = FiniteAbsorbedChain(random_positive_chain(rng, 5, 0.9))
        res = check_condition_A_prime(chain, np.arange(5), 1, horizon=100)
        assert res.report.passed, res.report.to_text()
        assert 0 < res.c1 <= 1 + 1e-12
        assert 0 < res.c2 <= 1 + 1e-12


def test_mass_bound_eq_3_12():
    rng = np.random.default_rng(7)
    q = random_positive_chain(rng, 4, 0.8)
    chain = FiniteAbsorbedChain(q)
    K = np.array([1, 2])
    p2 = chain.power(2)
    cond = p2 / p2.sum(axis=1, keepdims=True)
    A = cond[:, K].sum(axis=1).min()
    inf_mass = min(
        np.minimum(p2[u], p2[v]).sum() for u in K for v in K
    )
    masses = [nu_xy_brute(q, K, 1, x, y, np.ones(4))[1] for x in range(4) for y in range(4)]
    margin = min(masses) - A**2 * inf_mass
    check = next(c for c in check_condition_A_prime(chain, K, 1).report.checks if c.name == "mass-lower-bound-margin")
    assert check.passed
    assert check.measured == pytest.approx(margin, abs=1e-12)
    assert check.measured >= -1e-12


@pytest.mark.parametrize("t1", [1, 2])
@pytest.mark.parametrize("K", [None, [0, 2, 3]], ids=["K=E", "K-subset"])
def test_constants_match_double_loop_oracle(t1, K):
    rng = np.random.default_rng(1000 + t1)
    for _ in range(3):
        q = random_positive_chain(rng, 6, float(rng.uniform(0.6, 0.95)))
        k = np.arange(6) if K is None else np.array(K)
        res = check_condition_A_prime(FiniteAbsorbedChain(q), k, t1, horizon=60)
        c1, c2, A = condition_A_prime_brute(q, k, t1, 60)
        assert res.c1 == pytest.approx(c1, rel=1e-12)
        assert res.c2 == pytest.approx(c2, rel=1e-12)
        assert res.A == pytest.approx(A, rel=1e-12)


def test_c1_is_min_of_nu_xy_masses():
    rng = np.random.default_rng(31)
    chain = FiniteAbsorbedChain(random_positive_chain(rng, 5, 0.85))
    K = np.array([1, 3, 4])
    res = check_condition_A_prime(chain, K, 1, horizon=30)
    q = chain.kernel
    masses = [nu_xy_brute(q, K, 1, x, y, np.ones(5))[1] for x in range(5) for y in range(5)]
    assert min(masses) == pytest.approx(res.c1, rel=1e-12)


def test_subset_K_still_certifies():
    rng = np.random.default_rng(55)
    chain = FiniteAbsorbedChain(random_positive_chain(rng, 5, 0.9))
    res = check_condition_A_prime(chain, np.array([0, 3]), 1, horizon=60)
    assert res.A < 1.0
    assert res.report.passed, res.report.to_text()


def test_reducible_chain_raises():
    q = np.array([[0.0, 0.9], [0.9, 0.0]])
    with pytest.raises(PrimitivityError):
        check_condition_A_prime(FiniteAbsorbedChain(q), np.array([0, 1]), 1)


def test_disjoint_supports_empty_overlap():
    # a 5-cycle with one chord: primitive, but at t1 = 1 the two-step laws
    # from 0 and 1 sit on states 2 and 3, whose own two-step laws are disjoint
    q = np.zeros((5, 5))
    q[[0, 1, 2, 3], [1, 2, 3, 4]] = 0.9
    q[4, :2] = 0.45
    with pytest.raises(EmptyOverlapError, match=r"nu_\(0,1\) has zero mass"):
        check_condition_A_prime(FiniteAbsorbedChain(q), np.arange(5), 1)


def test_zero_horizon_is_an_error():
    # at horizon 0 only t = 0 is checked, where 2 >= TV holds trivially
    chain = FiniteAbsorbedChain(SYM2)
    for horizon in (0, -1):
        with pytest.raises(ValueError, match="horizon"):
            check_condition_A_prime(chain, np.arange(2), 1, horizon=horizon)
    assert check_condition_A_prime(chain, np.arange(2), 1, horizon=1).report.passed
