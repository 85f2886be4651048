import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd import chains
from qsd.chains import (
    ChainFormatError,
    FiniteAbsorbedChain,
    IterationLimitError,
    NoCertificateError,
    PrimitivityError,
    _conditioned_tv,
    _green_iteration,
    _orbit,
    _pair_nu_raw,
    _survival_ratios,
    _survival_vectors,
    check_condition_A_prime,
    evolve_conditioned,
    fit_two_sided,
    is_primitive,
    parse_chain_text,
    qsd_spectral,
    survival_ratio,
)
from qsd.measures import tv_distance

from oracles import (
    brute_force_survival_ratio,
    conditioned_tv_reference,
    conditioned_tv_series,
    dense_left_perron,
    dense_right_perron,
    minimal_c_for_mu,
    nu_xy_brute,
    random_positive_chain,
    survival_ratio_series,
    survival_ratios_reference,
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
    alpha, eta, iterations = _green_iteration(q)
    assert iterations > 0
    assert np.abs(spec.alpha - alpha).max() < 1e-10
    assert np.abs(spec.eta - eta).max() < 1e-10
    assert np.abs(spec.alpha @ q - spec.perron * spec.alpha).max() <= 1e-13
    assert np.abs(q @ spec.eta - spec.perron * spec.eta).max() <= 1e-13


def test_green_iteration_past_dense_cap_matches_sine_vector():
    # the killed lazy walk's Perron vectors are exactly eta_k ~ sin(k pi / (n + 1));
    # dense eig is itself about 1.6e-10 off in eta at this size, so it is no reference
    n = 520
    spec = qsd_spectral(FiniteAbsorbedChain(_band(n)))
    s = np.sin(np.arange(1, n + 1) * np.pi / (n + 1))
    assert spec.second_modulus is None
    assert 0 < spec.iterations < 50  # power iteration on Q itself took 348,009
    assert np.abs(spec.alpha - s / s.sum()).max() < 1e-12
    assert np.abs(spec.eta - s / s.max()).max() < 1e-12
    assert spec.perron == pytest.approx(0.995 * (0.5 + 0.5 * np.cos(np.pi / (n + 1))), rel=1e-13)


def test_green_iteration_past_dense_cap_without_killing():
    # sigma = 1 would make sigma I - Q singular on this chain
    n = 600
    q = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    q[0, 0] = q[-1, -1] = 0.75  # reflecting ends: every row sums to 1
    spec = qsd_spectral(FiniteAbsorbedChain(q))
    assert spec.iterations > 0
    assert np.abs(spec.alpha - 1.0 / n).max() < 1e-14
    assert np.abs(spec.eta - 1.0).max() < 1e-10
    assert spec.perron == pytest.approx(1.0, abs=1e-12)


def test_green_iteration_raises_past_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(chains, "DENSE_EIG_MAX_N", 10)
    monkeypatch.setattr(chains, "POWER_MAX_ITER", 2)  # read at call time
    chain = FiniteAbsorbedChain(_band(80))
    for _ in range(2):  # the error is raised on every call, never cached away
        with pytest.raises(IterationLimitError, match="no convergence in 2 steps"):
            qsd_spectral(chain)
    monkeypatch.setattr(chains, "POWER_MAX_ITER", 10**6)
    assert qsd_spectral(chain).iterations > 2


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
    v = _survival_vectors(chain, 40)
    assert np.shares_memory(_survival_vectors(chain, 40), v)
    assert np.shares_memory(_survival_vectors(chain, 10), v)
    assert not v.flags.writeable
    # a fresh chain on the same kernel starts with an empty cache
    assert qsd_spectral(FiniteAbsorbedChain(q)) is not qsd_spectral(chain)
    assert not np.shares_memory(_survival_vectors(FiniteAbsorbedChain(q), 40), v)


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


def test_survival_ratios_equal_the_step_loop_bit_for_bit():
    rng = np.random.default_rng(23)
    for n, horizon in ((1, 5), (3, 1), (5, 100), (20, 37), (40, 12)):
        q = random_positive_chain(rng, n, 0.85)
        laws = rng.exponential(size=(7, n))
        laws /= laws.sum(axis=1, keepdims=True)
        vals, _ = _survival_ratios(FiniteAbsorbedChain(q), laws, horizon)
        assert np.array_equal(vals, survival_ratios_reference(q, laws, horizon))


@pytest.mark.parametrize("n", [1, 5, 6, 20, 40, 160])
def test_stacked_survival_products_equal_the_step_loop_bit_for_bit(n):
    """The one stacked matmul over every t rounds as the per-t products do,
    for 1 to 820 laws."""
    rng = np.random.default_rng(41 + n)
    chain = FiniteAbsorbedChain(random_positive_chain(rng, n, 0.9))
    for m in (1, 2, 7, 15, 820):
        laws = rng.exponential(size=(m, n))
        laws /= laws.sum(axis=1, keepdims=True)
        vals, _ = _survival_ratios(chain, laws, 100)
        assert np.array_equal(vals, survival_ratios_reference(chain.kernel, laws, 100))


def test_survival_sequence_cache_across_horizons():
    # one chain asked for 50, then 100 (a rebuild), then 60 (a slice) answers
    # as a fresh chain does at each horizon
    rng = np.random.default_rng(29)
    q = random_positive_chain(rng, 6, 0.8)
    laws = rng.exponential(size=(3, 6))
    laws /= laws.sum(axis=1, keepdims=True)
    chain = FiniteAbsorbedChain(q)
    for horizon in (50, 100, 60):
        vals, limits = _survival_ratios(chain, laws, horizon)
        fresh_vals, fresh_limits = _survival_ratios(FiniteAbsorbedChain(q), laws, horizon)
        assert np.array_equal(vals, fresh_vals)
        assert np.array_equal(limits, fresh_limits)
        v = _survival_vectors(chain, horizon)
        assert v.shape == (horizon + 1, 6)
        assert not v.flags.writeable
        with pytest.raises(ValueError):
            v[0, 0] = 2.0
    assert len(chain._cache["survival"]) == 101
    assert (_survival_vectors(chain, 100).max(axis=1) == 1.0).all()


@pytest.mark.parametrize(
    "n, pairs, t_max, block_floats",
    [
        (5, [[0, 1], [2, 3]], 50, None),  # one block
        (5, [[0, 1], [2, 3]], 50, 7 * 2 * 5),  # blocks of 7 times: 51 = 7 * 7 + 2
        (6, [[0, 1], [2, 3], [3, 0], [1, 1]], 40, 4 * 4 * 6),  # blocks of 4: 41 = 4 * 10 + 1
        (4, [[0, 3], [0, 3], [2, 2], [3, 0], [1, 2]], 23, 5 * 3),  # below one gather: blocks of 1
        (5, [[1, 0]], 1, None),  # t_max = 1
        (5, [[1, 0], [4, 2], [1, 0]], 1, 3 * 5),  # t_max = 1 in blocks of 1
        (20, [[0, 1]], 100, None),  # m = 6 laws, one pair
    ],
)
def test_conditioned_tv_equals_the_step_loop_bit_for_bit(monkeypatch, n, pairs, t_max, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(chains, "_TV_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(n * 1000 + t_max)
    q = random_positive_chain(rng, n, 0.85)
    laws = rng.exponential(size=(6, n))
    laws /= laws.sum(axis=1, keepdims=True)
    pairs = np.array(pairs)
    tvs = _conditioned_tv(FiniteAbsorbedChain(q), laws, pairs, t_max)
    assert tvs.shape == (len(pairs), t_max + 1)
    assert np.array_equal(tvs, conditioned_tv_reference(q, laws, pairs, t_max))


# --- orbit truncation at the first bitwise repeat ---------------------------------

P = chains._CYCLE_LAG


def _lasso(lead, period):
    """An `_orbit` step on states (k, -k): k climbs to `lead`, then cycles
    with `period`; returns the step and the list that counts its calls."""
    calls = []

    def step(x, out):
        calls.append(None)
        k = x[0] + 1 if x[0] < lead else lead + (x[0] + 1 - lead) % period
        out[:] = k, 0.0 - k  # +0.0 at k = 0, so x_0 recurs bit for bit

    return step, calls


def _step_loop(step, first, t_max):
    """Every state x_0..x_t_max of `step`, one step after another."""
    xs = [np.array(first, dtype=float)]
    for _ in range(t_max):
        xs.append(np.empty_like(xs[0]))
        step(xs[-2], xs[-1])
    return np.array(xs)


def _count_orbit_steps(monkeypatch):
    """Per `_orbit` call, the number of steps it takes."""
    counts = []
    real = chains._orbit

    def counted(step, *args):
        counts.append(0)

        def counting(x, out):
            counts[-1] += 1
            step(x, out)

        return real(counting, *args)

    monkeypatch.setattr(chains, "_orbit", counted)
    return counts


@pytest.mark.parametrize("lead", [0, 3, 13])
@pytest.mark.parametrize("period", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16])
def test_orbit_stops_at_the_first_test_after_a_repeat(lead, period):
    """A repeat x_{lead + period} = x_lead with period <= P stops the loop
    at the next multiple of P; a longer period runs all t_max steps.  The
    ring plus the returned source times give the whole orbit."""
    t_max = 60
    step, calls = _lasso(lead, period)
    ring, rest = _orbit(step, np.zeros(2), t_max)
    stop = -(-(lead + period) // P) * P if period <= P else t_max
    assert len(calls) == stop and len(rest) == t_max - stop
    full = _step_loop(_lasso(lead, period)[0], np.zeros(2), t_max)
    assert np.array_equal(np.concatenate([ring[: stop + 1], ring[rest]]), full)
    if period <= P:  # the shortest period
        assert (rest[:period] == np.arange(stop + 1 - period, stop + 1)).all()


@pytest.mark.parametrize("block", [1, 2, 5, 9, 12])
@pytest.mark.parametrize("lead, period", [(13, 3), (10, 7), (0, 1), (20, 8), (2, 9)])
def test_orbit_visits_runs_of_block_states_across_ring_wraps(block, lead, period):
    """The ring holds max(block, P + 1) states; `visit` sees every state up
    to the stop once, in order, in runs of at most `block` that do not wrap."""
    t_max = 45
    step, calls = _lasso(lead, period)
    seen, times = [], []

    def visit(t, states):
        assert 1 <= len(states) <= block
        times.extend(range(t + 1 - len(states), t + 1))
        seen.extend(states.copy())

    ring, rest = _orbit(step, np.zeros(2), t_max, block, visit)
    assert len(ring) == max(block, P + 1)
    assert times == list(range(len(calls) + 1)) and len(rest) == t_max - len(calls)
    full = _step_loop(_lasso(lead, period)[0], np.zeros(2), t_max)
    assert np.array_equal(np.array(seen), full[: len(calls) + 1])
    assert np.array_equal(full[len(calls) + 1 :], full[rest])


@pytest.mark.parametrize("t_max", [0, 1, 5, P - 1])
def test_orbit_below_one_test_runs_every_step(t_max):
    step, calls = _lasso(0, 1)  # a fixed point from t = 1 on
    ring, rest = _orbit(step, np.zeros(2), t_max)
    assert len(calls) == t_max and len(rest) == 0 and len(ring) == t_max + 1
    assert np.array_equal(ring, _step_loop(_lasso(0, 1)[0], np.zeros(2), t_max))


def test_orbit_compares_whole_states_as_bits():
    """x -> -x from (0, nan) has period 2 in bits, though 0.0 == -0.0 and
    nan != nan as floats; the orbit repeats the signed zeros in turn.  A
    state whose first float repeats but whose rest does not never stops."""

    def flip(x, out):
        np.negative(x, out=out)

    ring, rest = _orbit(flip, np.array([0.0, np.nan]), 20)
    assert len(rest) == 20 - P
    states = np.concatenate([ring[: P + 1], ring[rest]])
    assert np.array_equal(states.view(np.uint64), _step_loop(flip, [0.0, np.nan], 20).view(np.uint64))

    def count(x, out):
        out[:] = x[0], x[1] + 1

    ring, rest = _orbit(count, np.array([1.0, 0.0]), 20)
    assert len(rest) == 0 and (ring[:, 1] == np.arange(21)).all()


def test_conditioned_tv_finds_a_cycle_across_a_ring_wrap(monkeypatch):
    """A small _TV_BLOCK_FLOATS gives blocks of 2 times in a ring of P + 1;
    the 20 laws of a dense 5-state chain repeat before t_max, and the TVs
    equal the step loop's, bit for bit."""
    monkeypatch.setattr(chains, "_TV_BLOCK_FLOATS", 2 * 10 * 5)
    steps = _count_orbit_steps(monkeypatch)
    rng = np.random.default_rng(31)
    q = random_positive_chain(rng, 5, 0.9)
    laws = rng.exponential(size=(20, 5))
    laws /= laws.sum(axis=1, keepdims=True)
    pairs = np.arange(20).reshape(-1, 2)
    tvs = _conditioned_tv(FiniteAbsorbedChain(q), laws, pairs, 100)
    assert np.array_equal(tvs, conditioned_tv_reference(q, laws, pairs, 100))
    [taken] = steps
    assert P + 1 < taken < 100 and taken % (P + 1) < P  # the test at the stop reads across the wrap


def test_orbits_without_a_short_cycle_run_every_step(monkeypatch):
    """The slow-mixing killed lazy walk finds no repeat within 100 steps."""
    steps = _count_orbit_steps(monkeypatch)
    n = 40
    q = 0.5 * np.eye(n) + 0.25 * (np.eye(n, k=1) + np.eye(n, k=-1))
    laws = np.eye(n)[[0, n // 2, 3, n - 1]]
    _survival_vectors(FiniteAbsorbedChain(q), 100)
    _conditioned_tv(FiniteAbsorbedChain(q), laws, np.array([[0, 1], [2, 3]]), 100)
    assert steps == [100, 100]
    assert np.array_equal(_survival_ratios(FiniteAbsorbedChain(q), laws, 100)[0], survival_ratios_reference(q, laws, 100))


def test_one_state_chain_repeats_from_the_first_step(monkeypatch):
    steps = _count_orbit_steps(monkeypatch)
    chain = FiniteAbsorbedChain(np.array([[0.5]]))
    assert (_survival_vectors(chain, 100) == 1.0).all()
    assert (_conditioned_tv(chain, np.ones((2, 1)), np.array([[0, 1]]), 100) == 0.0).all()
    assert steps == [P, P]


def test_dense_survival_sequence_stops_within_two_tests(monkeypatch):
    """On dense 5-state chains at horizon 100 the survival sequence repeats
    by t = 16, and the truncated rows equal the step loop's, bit for bit."""
    steps = _count_orbit_steps(monkeypatch)
    rng = np.random.default_rng(37)
    for _ in range(20):
        q = random_positive_chain(rng, 5, 0.9)
        v = _survival_vectors(FiniteAbsorbedChain(q), 100)
        assert steps[-1] <= 2 * P
        full = np.ones((101, 5))
        for prev, row in zip(full, full[1:]):
            row[:] = q @ prev
            row /= row.max()
        assert np.array_equal(v, full)


def test_survival_ratio_non_primitive_flag():
    q = np.array([[0.0, 0.9], [0.9, 0.0]])
    res = survival_ratio(FiniteAbsorbedChain(q), np.array([1.0, 0.0]), 10)
    assert res.limit is None
    assert res.c == res.grid_min


# --- infimum measures and nu_{x,y} ---------------------------------------------------


def _infimum(chain, x, y, t):
    """min(delta_x Q^t, delta_y Q^t): the pair kernel with unit weight on u = x and v = y."""
    return _pair_nu_raw(chain.power(t)[[x, y]], np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]))[0, 0]


def _nu_xy(chain, K, t1, x, y):
    """(nu_{x,y}, m_{x,y}) as `check_condition_A_prime` builds them."""
    p2 = chain.power(2 * t1)
    w = (p2 / p2.sum(axis=1, keepdims=True))[:, K]
    raw = _pair_nu_raw(p2[K], w[[x]], w[[y]])[0, 0]
    return raw / raw.sum(), raw.sum()


def test_infimum_measure_self_is_row(sym2):
    assert np.allclose(_infimum(sym2, 1, 1, 1), [0.2, 0.4])


def test_infimum_measure_sym2(sym2):
    m = _infimum(sym2, 0, 1, 1)
    assert np.allclose(m, [0.2, 0.2])
    assert m.sum() == pytest.approx(0.4)


def test_infimum_measure_disjoint_rows():
    q = np.array([[0.0, 0.9], [0.45, 0.45]])
    m = _infimum(FiniteAbsorbedChain(q), 0, 1, 1)
    assert m[0] == 0.0
    assert m.sum() == pytest.approx(min(0.9, 0.45))


def test_nu_xy_single_state():
    # m is the mass of the two-step infimum law: here P_0(2 < tau) = 0.7^2
    chain = FiniteAbsorbedChain(np.array([[0.7]]))
    nu, m = _nu_xy(chain, np.array([0]), 1, 0, 0)
    assert nu[0] == pytest.approx(1.0)
    assert m == pytest.approx(0.49, abs=1e-15)
    assert check_condition_A_prime(chain, np.array([0]), 1).c1 == m


def test_nu_xy_sym2_uniform(sym2):
    nu, m = _nu_xy(sym2, np.array([0, 1]), 1, 0, 1)
    assert np.allclose(nu, [0.5, 0.5], atol=1e-14)


def test_nu_xy_matches_double_sum_oracle():
    rng = np.random.default_rng(23)
    q = random_positive_chain(rng, 4, 0.85)
    chain = FiniteAbsorbedChain(q)
    K = np.array([0, 2, 3])
    nu, m = _nu_xy(chain, K, 1, 1, 3)
    for _ in range(10):
        f = rng.uniform(size=4)
        want, m_want = nu_xy_brute(q, K, 1, 1, 3, f)
        assert float(nu @ f) == pytest.approx(want, abs=1e-12)
        assert m == pytest.approx(m_want, abs=1e-12)
