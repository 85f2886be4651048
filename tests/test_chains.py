import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd.chains import (
    POWER_MAX_ITER,
    POWER_TOL,
    ChainFormatError,
    FiniteAbsorbedChain,
    NoCertificateError,
    PrimitivityError,
    _conditioned_tv,
    _power_iteration,
    _survival_ratios,
    build_nu_xy,
    evolve_conditioned,
    fit_two_sided,
    infimum_measure,
    is_primitive,
    parse_chain_text,
    qsd_spectral,
    survival_ratio,
)
from qsd.measures import tv_distance

from oracles import (
    brute_force_survival_ratio,
    conditioned_tv_series,
    dense_left_perron,
    dense_right_perron,
    minimal_c_for_mu,
    nu_xy_brute,
    random_positive_chain,
    survival_ratio_series,
)

SYM2 = np.array([[0.4, 0.2], [0.2, 0.4]])


@pytest.fixture
def sym2():
    return FiniteAbsorbedChain(SYM2)


def chains_strategy(n_max=5):
    return st.tuples(
        st.integers(2, n_max), st.integers(0, 2**32 - 1), st.floats(0.3, 0.99)
    ).map(
        lambda args: FiniteAbsorbedChain(
            random_positive_chain(np.random.default_rng(args[1]), args[0], args[2])
        )
    )


# --- construction and parsing ---------------------------------------------------


def test_chain_validation():
    with pytest.raises(ValueError):
        FiniteAbsorbedChain(np.array([[0.5, 0.6], [0.2, 0.2]]))  # row sum > 1
    with pytest.raises(ValueError):
        FiniteAbsorbedChain(np.array([[0.5, -0.1], [0.2, 0.2]]))
    with pytest.raises(ValueError):
        FiniteAbsorbedChain(np.array([[0.0, 0.0], [0.2, 0.2]]))  # dead row


def test_parse_round_trip(sym2):
    text = "2\n0.4 0.2\n0.2 0.4\n"
    chain = parse_chain_text(text)
    assert np.array_equal(chain.kernel, sym2.kernel)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("x\n", "line 1"),
        ("2\n0.4 0.2\n", "expected 2 rows"),
        ("2\n0.4 0.2 0.1\n0.1 0.1\n", "line 2"),
        ("2\n0.9 0.2\n0.1 0.1\n", "row sum"),
        ("2\n0.4 bad\n0.1 0.1\n", "line 2"),
        ("", "empty"),
    ],
)
def test_parse_errors_carry_line_numbers(text, fragment):
    with pytest.raises(ChainFormatError) as err:
        parse_chain_text(text)
    assert fragment in str(err.value)


# --- conditioned evolution -------------------------------------------------------


def test_evolve_sym2_one_step(sym2):
    d, s = evolve_conditioned(sym2, np.array([0.5, 0.5]), 1)
    assert np.allclose(d, [0.5, 0.5])
    assert s == pytest.approx(0.6)


def test_evolve_t0_is_identity(sym2):
    d, s = evolve_conditioned(sym2, np.array([0.3, 0.7]), 0)
    assert np.allclose(d, [0.3, 0.7])
    assert s == 1.0


def test_evolve_two_steps_hand_computed(sym2):
    # delta_0 Q^2 = (0.4^2 + 0.2^2, 2 * 0.4 * 0.2) = (0.2, 0.16): survival 0.36
    d, s = evolve_conditioned(sym2, np.array([1.0, 0.0]), 2)
    assert s == pytest.approx(0.36, abs=1e-14)
    assert np.allclose(d, [5.0 / 9.0, 4.0 / 9.0], atol=1e-14)


def test_survival_non_increasing(sym2):
    survs = [evolve_conditioned(sym2, np.array([1.0, 0.0]), t)[1] for t in range(12)]
    assert all(a >= b for a, b in zip(survs, survs[1:]))


def test_evolve_no_underflow_far_past_double_range(sym2):
    d, s = evolve_conditioned(sym2, np.array([1.0, 0.0]), 3000)
    assert np.allclose(d, [0.5, 0.5], atol=1e-12)
    assert s == 0.0  # 0.6^3000 truly underflows the return type; evolution stays exact


# --- spectral data ----------------------------------------------------------------


def test_qsd_spectral_sym2(sym2):
    spec = qsd_spectral(sym2)
    assert np.allclose(spec.alpha, [0.5, 0.5], atol=1e-12)
    assert spec.perron == pytest.approx(0.6, abs=1e-12)
    assert spec.lambda0 == pytest.approx(-np.log(0.6), abs=1e-12)
    assert np.allclose(spec.eta, [1.0, 1.0], atol=1e-12)
    assert spec.second_modulus == pytest.approx(0.2, abs=1e-10)


def test_qsd_spectral_scalar():
    spec = qsd_spectral(FiniteAbsorbedChain(np.array([[0.5]])))
    assert spec.alpha[0] == 1.0
    assert spec.perron == pytest.approx(0.5)
    assert spec.eta[0] == 1.0


def test_qsd_matches_dense_eigensolver():
    rng = np.random.default_rng(42)
    for _ in range(5):
        q = random_positive_chain(rng, 5, row_sum=float(rng.uniform(0.5, 0.95)))
        chain = FiniteAbsorbedChain(q)
        spec = qsd_spectral(chain)
        alpha_oracle, perron_oracle = dense_left_perron(q)
        assert tv_distance(spec.alpha, alpha_oracle) < 1e-9
        assert spec.perron == pytest.approx(perron_oracle, abs=1e-11)
        # eigen relations
        assert np.abs(spec.alpha @ q - spec.perron * spec.alpha).max() < 1e-10
        assert np.abs(q @ spec.eta - spec.perron * spec.eta).max() < 1e-10
        assert spec.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert spec.eta.max() == pytest.approx(1.0, abs=1e-12)
        assert (spec.eta > 0).all()


def test_dense_256_chain_with_one_zero_entry_is_primitive():
    # Q^2 > 0, but 256 positive paths wrap a uint8 pattern product to zero
    q = random_positive_chain(np.random.default_rng(256), 256)
    q[0, 1] = 0.0
    chain = FiniteAbsorbedChain(q)
    assert is_primitive(chain)
    spec = qsd_spectral(chain)
    alpha_oracle, perron_oracle = dense_left_perron(q)
    assert tv_distance(spec.alpha, alpha_oracle) < 1e-9
    assert spec.perron == pytest.approx(perron_oracle, abs=1e-11)
    assert np.abs(spec.eta - dense_right_perron(q)).max() < 1e-9


def test_non_primitive_raises():
    q = np.array([[0.0, 0.9], [0.9, 0.0]])  # period 2
    chain = FiniteAbsorbedChain(q)
    assert not is_primitive(chain)
    for _ in range(2):  # the error is raised on every call, never cached away
        with pytest.raises(PrimitivityError):
            qsd_spectral(chain)


def _band(n):
    """Lazy random walk killed at both ends: slow mixing, many power iterations."""
    return 0.995 * (0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1)))


@pytest.mark.parametrize(
    "q",
    [
        random_positive_chain(np.random.default_rng(5), 5),
        random_positive_chain(np.random.default_rng(40), 40),
        _band(80),
    ],
    ids=["dense5", "dense40", "band80"],
)
def test_dense_path_agrees_with_power_iteration(q):
    spec = qsd_spectral(FiniteAbsorbedChain(q))
    assert spec.iterations == 0
    alpha, eta, iterations = _power_iteration(q, POWER_TOL, POWER_MAX_ITER)
    assert iterations > 0
    assert np.abs(spec.alpha - alpha).max() < 1e-10
    assert np.abs(spec.eta - eta).max() < 1e-10
    assert np.abs(spec.alpha @ q - spec.perron * spec.alpha).max() <= 1e-13
    assert np.abs(q @ spec.eta - spec.perron * spec.eta).max() <= 1e-13


def test_spectral_data_and_powers_are_cached_per_chain():
    q = random_positive_chain(np.random.default_rng(8), 6)
    chain = FiniteAbsorbedChain(q)
    assert qsd_spectral(chain) is qsd_spectral(chain)
    p = chain.power(3)
    assert chain.power(3) is p
    assert np.array_equal(p, np.linalg.matrix_power(q, 3))
    assert not p.flags.writeable
    with pytest.raises(ValueError):
        p[0, 0] = 1.0
    # a fresh chain on the same kernel starts with an empty cache
    assert qsd_spectral(FiniteAbsorbedChain(q)) is not qsd_spectral(chain)


def test_qsd_fixed_point_and_survival_identity(sym2):
    rng = np.random.default_rng(3)
    for q in (SYM2, random_positive_chain(rng, 4)):
        chain = FiniteAbsorbedChain(q)
        spec = qsd_spectral(chain)
        for t in (1, 7, 100):
            d, s = evolve_conditioned(chain, spec.alpha, t)
            assert tv_distance(d, spec.alpha) < 1e-10
            assert s == pytest.approx(spec.perron**t, rel=1e-10)


# --- two-sided certificates --------------------------------------------------------


def test_fit_sym2_matches_hand_values(sym2):
    cert = fit_two_sided(sym2, 1)
    assert np.allclose(cert.mu, [0.5, 0.5])
    assert cert.c == pytest.approx(np.sqrt(2.0), abs=1e-14)
    assert np.allclose(cert.f, np.sqrt(0.32))
    assert cert.c1 == pytest.approx(0.5, abs=1e-14)
    assert cert.c2 == pytest.approx(0.2, abs=1e-14)
    # minimality of c for this mu against a grid-search oracle
    grid = np.linspace(1.0, 2.0, 2001)
    c_star = minimal_c_for_mu(sym2.power(1), cert.mu, grid)
    assert cert.c <= c_star + 1e-3


def test_fit_rank_one_kernel_has_c_equal_one():
    row = np.array([0.3, 0.45, 0.15])
    chain = FiniteAbsorbedChain(np.tile(row, (3, 1)))
    cert = fit_two_sided(chain, 1)
    assert cert.c == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(cert.mu, row / row.sum())
    assert np.allclose(cert.f, row.sum())
    assert cert.contraction_factor == pytest.approx(1 - row.sum(), abs=1e-12)


def test_fit_requires_positive_power():
    q = np.array([[0.0, 0.9], [0.45, 0.45]])
    with pytest.raises(NoCertificateError):
        fit_two_sided(FiniteAbsorbedChain(q), 1)
    fit_two_sided(FiniteAbsorbedChain(q), 2)  # Q^2 > 0


@settings(max_examples=30, deadline=None)
@given(chains_strategy())
def test_certificate_sandwich_and_normalization(chain):
    for t0 in (1, 2):
        cert = fit_two_sided(chain, t0)
        p = chain.power(t0)
        lo, hi = cert.kernel_bounds()
        assert ((p - lo) >= -1e-10 * np.maximum(p, 1e-30)).all()
        assert ((hi - p) >= -1e-10 * np.maximum(p, 1e-30)).all()
        assert cert.mu.sum() == pytest.approx(1.0, abs=1e-12)
        assert cert.mu_f <= cert.f.max() + 1e-12
        assert cert.f.max() <= cert.c + 1e-12
        assert 0 < cert.c1 * cert.c2 <= 1 + 1e-12
        assert cert.c1 * cert.c2 == pytest.approx(cert.c**-5 * cert.mu_f, rel=1e-12)


# --- survival ratio -----------------------------------------------------------------


def test_survival_ratio_sym2_is_one(sym2):
    res = survival_ratio(sym2, np.array([0.2, 0.8]), 50)
    assert res.c == pytest.approx(1.0, abs=1e-12)
    assert res.limit == pytest.approx(1.0, abs=1e-12)


def test_survival_ratio_alpha_at_most_one():
    rng = np.random.default_rng(11)
    q = rng.uniform(size=(4, 4))
    q *= rng.uniform(0.5, 0.95, size=(4, 1)) / q.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    spec = qsd_spectral(chain)
    res = survival_ratio(chain, spec.alpha, 100)
    assert res.c <= 1.0 + 1e-12


def test_survival_ratio_matches_brute_force():
    rng = np.random.default_rng(17)
    q = rng.uniform(size=(4, 4))
    q *= rng.uniform(0.4, 0.9, size=(4, 1)) / q.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    for x in range(4):
        pi = np.zeros(4)
        pi[x] = 1.0
        res = survival_ratio(chain, pi, 10_000)
        assert res.grid_min == pytest.approx(
            brute_force_survival_ratio(q, pi, 10_000), abs=1e-12
        )
        assert res.c == min(res.grid_min, res.limit)


def test_batched_survival_ratios_match_per_law_loop():
    rng = np.random.default_rng(19)
    q = random_positive_chain(rng, 6, 0.8)
    chain = FiniteAbsorbedChain(q)
    laws = rng.exponential(size=(4, 6))
    laws /= laws.sum(axis=1, keepdims=True)
    vals, limits = _survival_ratios(chain, laws, 80)
    assert vals.shape == (4, 81)
    eta = dense_right_perron(q)
    for pi, row, lim in zip(laws, vals, limits):
        assert np.allclose(row, survival_ratio_series(q, pi, 80), rtol=1e-13, atol=0)
        assert lim == pytest.approx(float(pi @ eta) / eta.max(), abs=1e-12)
    periodic = FiniteAbsorbedChain(np.array([[0.0, 0.9], [0.9, 0.0]]))
    assert _survival_ratios(periodic, np.eye(2), 5)[1] is None


def test_batched_conditioned_tv_matches_per_pair_loop():
    rng = np.random.default_rng(21)
    q = random_positive_chain(rng, 6, 0.85)
    laws = rng.exponential(size=(4, 6))
    laws /= laws.sum(axis=1, keepdims=True)
    pairs = np.array([[0, 1], [2, 3], [3, 0], [1, 1]])
    tvs = _conditioned_tv(FiniteAbsorbedChain(q), laws, pairs, 40)
    assert tvs.shape == (4, 41)
    for (i, j), row in zip(pairs, tvs):
        assert np.allclose(row, conditioned_tv_series(q, laws[i], laws[j], 40), rtol=0, atol=1e-15)


def test_survival_ratio_non_primitive_flag():
    q = np.array([[0.0, 0.9], [0.9, 0.0]])
    res = survival_ratio(FiniteAbsorbedChain(q), np.array([1.0, 0.0]), 10)
    assert res.limit_unavailable
    assert res.c == res.grid_min


# --- infimum measures and nu_{x,y} ---------------------------------------------------


def test_infimum_measure_self_is_row(sym2):
    m = infimum_measure(sym2, 1, 1, 1)
    assert np.allclose(m.weights, [0.2, 0.4])


def test_infimum_measure_sym2(sym2):
    m = infimum_measure(sym2, 0, 1, 1)
    assert np.allclose(m.weights, [0.2, 0.2])
    assert m.mass == pytest.approx(0.4)


def test_infimum_measure_disjoint_rows():
    q = np.array([[0.0, 0.9], [0.45, 0.45]])
    m = infimum_measure(FiniteAbsorbedChain(q), 0, 1, 1)
    assert m.weights[0] == 0.0
    assert m.mass == pytest.approx(min(0.9, 0.45))


def test_nu_xy_single_state():
    # m is the mass of the two-step infimum law: here P_0(2 < tau) = 0.7^2
    chain = FiniteAbsorbedChain(np.array([[0.7]]))
    nu, m = build_nu_xy(chain, np.array([0]), 1, 0, 0)
    assert nu.weights[0] == pytest.approx(1.0)
    assert m == pytest.approx(0.49, abs=1e-15)


def test_nu_xy_sym2_uniform(sym2):
    nu, m = build_nu_xy(sym2, np.array([0, 1]), 1, 0, 1)
    assert np.allclose(nu.weights, [0.5, 0.5], atol=1e-14)


def test_nu_xy_matches_double_sum_oracle():
    rng = np.random.default_rng(23)
    q = random_positive_chain(rng, 4, 0.85)
    chain = FiniteAbsorbedChain(q)
    K = np.array([0, 2, 3])
    nu, m = build_nu_xy(chain, K, 1, 1, 3)
    for _ in range(10):
        f = rng.uniform(size=4)
        want, m_want = nu_xy_brute(q, K, 1, 1, 3, f)
        assert float(nu.weights @ f) == pytest.approx(want, abs=1e-12)
        assert m == pytest.approx(m_want, abs=1e-12)
