import numpy as np
import pytest

from qsd.domains import Ball, BallTarget, Box, DomainError, InnerCompact, Interval
from qsd.models import (
    ConstantIsotropic,
    DiffusionModel,
    ZeroDrift,
    brownian_interval,
    build_model,
    validate_model,
)
from qsd.rng import step_generator
from qsd.simulate import (
    _BAND,
    PathConfig,
    _step,
    hitting_before,
    simulate_path,
    split_survival_profile,
    survival_probability,
    survival_snapshots,
)

from oracles import reflection_survival, step_reference, survival_series


def frozen_model(domain=Interval(0.0, 1.0)):
    """Zero drift, zero diffusion: nothing ever moves or dies."""
    return DiffusionModel(
        domain=domain,
        drift=ZeroDrift(),
        diffusion=ConstantIsotropic(0.0),
        sigma_min2=0.0,
        sigma_max2=0.0,
        drift_bound=0.0,
        name="frozen",
    )


# --- domains --------------------------------------------------------------------


def test_domain_boundary_distances():
    iv = Interval(0.0, 2.0)
    assert iv.rho_boundary(np.array([[0.5]]))[0] == pytest.approx(0.5)
    assert iv.rho_boundary(np.array([[1.5]]))[0] == pytest.approx(0.5)
    box = Box((0.0, 0.0), (2.0, 4.0))
    assert box.rho_boundary(np.array([[1.0, 2.0]]))[0] == pytest.approx(1.0)
    ball = Ball((0.0, 0.0), 2.0)
    assert ball.rho_boundary(np.array([[1.0, 0.0]]))[0] == pytest.approx(1.0)
    assert not ball.contains(np.array([[2.5, 0.0]]))[0]


def test_domain_rho_is_1_lipschitz():
    g = np.random.default_rng(0)
    for dom in (Interval(0, 1), Box((0, 0), (1, 2)), Ball((0, 0), 1.5)):
        x = dom.uniform(g, 64)
        y = dom.uniform(g, 64)
        lhs = np.abs(dom.rho_boundary(x) - dom.rho_boundary(y))
        rhs = np.linalg.norm(x - y, axis=1)
        assert (lhs <= rhs + 1e-12).all()


def test_inner_compact():
    mep = InnerCompact(Interval(0, 1), 0.25)
    assert mep.contains(np.array([[0.5]]))[0]
    assert not mep.contains(np.array([[0.1]]))[0]
    with pytest.raises(ValueError):
        InnerCompact(Interval(0, 1), 0.6)


# --- models ----------------------------------------------------------------------


def test_registry_and_validation():
    m = build_model("interval 0 1", "linear -0.5 0.5", "diagonal_holder 1.0 0.3 0.5 0.5")
    assert validate_model(m).passed
    assert m.drift(np.array([[0.25]]))[0, 0] == pytest.approx(0.125)
    with pytest.raises(ValueError):
        build_model("interval 0 1", "constant 1 2", "constant 1.0")  # wrong dims
    with pytest.raises(ValueError):
        build_model("pentagon 0 1", "zero", "constant 1.0")


# --- paths -----------------------------------------------------------------------


def test_frozen_dynamics_never_absorbs():
    model = frozen_model()
    cfg = PathConfig(dt=0.01, horizon=1.0, seed=5)
    inside = BallTarget((0.5,), 0.01)
    path = simulate_path(model, [0.5], cfg, target=inside)
    assert not path.absorbed
    assert path.hit_time == 0.0  # starts in the target
    assert np.allclose(path.positions, 0.5)
    far = BallTarget((0.9,), 0.01)
    path2 = simulate_path(model, [0.5], cfg, target=far)
    assert not path2.hit


def test_path_start_outside_domain_rejected():
    with pytest.raises(DomainError):
        simulate_path(brownian_interval(0, 1), [1.5], PathConfig(dt=0.01, horizon=1.0, seed=0))


def test_paths_bit_reproducible():
    model = brownian_interval(0, 1)
    cfg = PathConfig(dt=1e-3, horizon=0.5, seed=77)
    p1 = simulate_path(model, [0.3], cfg)
    p2 = simulate_path(model, [0.3], cfg)
    assert np.array_equal(p1.positions, p2.positions)
    assert p1.absorption_time == p2.absorption_time
    p3 = simulate_path(model, [0.3], PathConfig(dt=1e-3, horizon=0.5, seed=78))
    assert not np.array_equal(p1.positions, p3.positions)


def test_positions_stay_inside_until_absorption():
    model = brownian_interval(0, 1)
    path = simulate_path(model, [0.1], PathConfig(dt=1e-3, horizon=2.0, seed=3))
    assert model.domain.contains(path.positions).all()
    assert path.absorbed  # lambda0 ~ 4.9: survival to t=2 is ~e^-10


def test_survival_matches_eigen_series_oracle():
    model = brownian_interval(0, 1)
    est, se = survival_probability(model, [0.5], 0.5, 40_000, 17, dt=1e-3)
    oracle = survival_series(0.5, [0.5], 0.0, 1.0)[0]
    assert abs(est - oracle) <= 3 * se


def test_survival_zero_time_and_monotone_nesting():
    model = brownian_interval(0, 1)
    est, se = survival_probability(model, [0.5], 0.0, 1000, 1, dt=1e-3)
    assert (est, se) == (1.0, 0.0)
    # nested events on common paths: same seed, increasing horizons
    res = survival_snapshots(model, np.full((5000, 1), 0.5), [0.25, 0.5, 1.0], 1e-3, 23)
    assert res.counts[0] >= res.counts[1] >= res.counts[2]


def test_bridge_correction_only_adds_absorption():
    model = brownian_interval(0, 1)
    starts = np.full((20_000, 1), 0.5)
    with_bridge = survival_snapshots(model, starts, [0.3], 1e-3, 9, bridge=True)
    without = survival_snapshots(model, starts, [0.3], 1e-3, 9, bridge=False)
    assert with_bridge.counts[0] <= without.counts[0]
    # and the corrected estimate is the accurate one
    oracle = survival_series(0.5, [0.3], 0.0, 1.0)[0]
    p_b = with_bridge.counts[0] / 20_000
    p_n = without.counts[0] / 20_000
    assert abs(p_b - oracle) < abs(p_n - oracle)


def test_dt_refinement_stays_within_mc_error():
    model = brownian_interval(0, 1)
    n = 20_000
    e1, s1 = survival_probability(model, [0.5], 0.25, n, 31, dt=2e-3)
    e2, s2 = survival_probability(model, [0.5], 0.25, n, 32, dt=1e-3)
    assert abs(e1 - e2) <= 3 * np.hypot(s1, s2)


def test_near_boundary_survival_vanishes_linearly():
    # P_x(t1 < tau) <= C rho(x): the ratio stays bounded as rho -> 0
    model = brownian_interval(0, 1)
    t1 = 0.1
    ratios = []
    for k, x in enumerate((0.02, 0.05, 0.1)):
        est, _ = survival_probability(model, [x], t1, 20_000, 40 + k, dt=2e-4)
        ratios.append(est / x)
    oracle = reflection_survival(0.05, t1, 0, 1) / 0.05
    assert max(ratios) < 2 * oracle
    assert min(ratios) > 0


# --- hitting ----------------------------------------------------------------------


def test_hitting_from_inside_target_reduces_to_survival():
    model = brownian_interval(0, 1)
    K = InnerCompact(model.domain, 0.25)
    n = 20_000
    est, se = hitting_before(model, [0.5], K, 0.1, n, 53, dt=1e-3)
    surv, sse = survival_probability(model, [0.5], 0.1, n, 53, dt=1e-3)
    assert est == pytest.approx(surv, abs=1e-12)  # T_K = 0, same paths, same noise


def test_hitting_dominated_by_survival():
    model = brownian_interval(0, 1)
    K = InnerCompact(model.domain, 0.4)
    est, _ = hitting_before(model, [0.1], K, 0.1, 10_000, 57, dt=1e-3)
    surv, _ = survival_probability(model, [0.1], 0.1, 10_000, 57, dt=1e-3)
    assert est <= surv + 1e-12


def test_hitting_ratio_bounded_below_near_boundary():
    model = brownian_interval(0, 1)
    K = InnerCompact(model.domain, 0.25)
    lows = []
    for k, x in enumerate((0.02, 0.06, 0.1)):
        est, se = hitting_before(model, [x], K, 0.1, 20_000, 61 + k, dt=2e-4)
        lows.append((est - 3 * se) / x)
    assert min(lows) > 0


# --- splitting estimator ------------------------------------------------------------


def test_split_profile_matches_plain_mc_at_moderate_t():
    model = brownian_interval(0, 1)
    xs = np.array([[0.3], [0.5]])
    logp, logse = split_survival_profile(model, xs, [0.5], 10_000, 71, dt=1e-3, window=0.25)
    plain, se = survival_probability(model, [0.5], 0.5, 40_000, 72, dt=1e-3)
    assert abs(np.exp(logp[0, 1]) - plain) <= 4 * (np.exp(logp[0, 1]) * logse[0, 1] + se)
    # starts share the step noise: the first start alone gives the same column
    one, one_se = split_survival_profile(model, xs[:1], [0.5], 10_000, 71, dt=1e-3, window=0.25)
    assert np.array_equal(one[:, 0], logp[:, 0])
    assert np.array_equal(one_se[:, 0], logse[:, 0])


def test_split_profile_reaches_deep_tails():
    model = brownian_interval(0, 1)
    xs = np.array([[0.5]])
    logp, _ = split_survival_profile(model, xs, [2.0], 4_000, 73, dt=2e-3, window=0.25)
    oracle = np.log(survival_series(0.5, [2.0], 0.0, 1.0)[0])  # ~ -9.6
    assert abs(logp[0, 0] - oracle) < 0.35


def test_blowup_detection():
    from qsd.models import CallableDrift
    from qsd.simulate import NumericalBlowupError

    bad = DiffusionModel(
        domain=Interval(0, 1),
        drift=CallableDrift(lambda x: np.full_like(x, np.nan), declared_bound=1.0),
        diffusion=ConstantIsotropic(1.0),
        sigma_min2=1.0,
        sigma_max2=1.0,
        drift_bound=1.0,
    )
    with pytest.raises(NumericalBlowupError):
        simulate_path(bad, [0.5], PathConfig(dt=1e-2, horizon=0.1, seed=1))


# --- step kernel --------------------------------------------------------------------


STEP_SPECS = [
    ("interval 0 3.141592653589793", "zero", "constant 1.0"),
    ("box 0 0 1 2", "linear -0.5 0.5 1", "diagonal_holder 1.0 0.3 0.5 0.5 1.0"),
    ("ball 0 0 1", "zero", "constant 1.0"),
]


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("specs", STEP_SPECS)
def test_step_stack_equals_separate_calls(specs, bridge):
    model = build_model(*specs)
    xs = model.domain.uniform(np.random.default_rng(5), 3 * 40).reshape(3, 40, model.dim)
    xs[1, 7] = np.nan  # a dead row, as split_survival_profile keeps them
    x_new, alive, _ = _step(model, xs, step_generator(9, 4), 0.01, bridge)
    assert alive.shape == (3, 40)
    assert alive.any() and not alive.all()
    for i in range(3):
        xi, ai, _ = _step(model, xs[i], step_generator(9, 4), 0.01, bridge)
        assert np.array_equal(x_new[i], xi, equal_nan=True)
        assert np.array_equal(alive[i], ai)


@pytest.mark.parametrize(
    "domain,points",
    [
        (Interval(0.0, 1.0), [[0.0], [1.0], [0.5], [5e-324], [-0.1], [1.2], [np.nan], [np.inf], [-np.inf]]),
        (
            Box((0.0, 0.0), (1.0, 2.0)),
            [[0.0, 1.0], [1.0, 2.0], [0.5, 2.0], [0.5, 1.0], [1.5, 1.0], [np.nan, 1.0], [0.5, np.inf]],
        ),
        (
            Ball((0.0, 0.0), 1.0),
            [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8], [0.0, 0.0], [2.0, 0.0], [np.nan, 0.0], [-np.inf, 0.0]],
        ),
    ],
)
def test_step_alive_is_open_domain_membership(domain, points):
    x = np.array(points)
    x_new, alive, _ = _step(frozen_model(domain), x, step_generator(1, 0), 0.01, False)
    assert np.array_equal(x_new, x, equal_nan=True)  # boundary points stay on the boundary
    assert np.array_equal(alive, domain.contains(x_new))
    assert alive.any() and not alive.all()


@pytest.mark.parametrize("bridge", [True, False])
@pytest.mark.parametrize("specs", STEP_SPECS)
def test_step_equals_reference_near_the_boundary(specs, bridge):
    model = build_model(*specs)
    dt = 1e-3
    cand = model.domain.uniform(np.random.default_rng(3), 40_000)
    rho = model.domain.rho_boundary(cand)
    # 2000 starts within 4 sqrt(dt) of the boundary, 500 deeper inside
    x = np.vstack([cand[rho < 4 * np.sqrt(dt)][:2000], cand[rho >= 4 * np.sqrt(dt)][:500]])
    assert x.shape[0] == 2500
    bridge_kills = 0
    for step in range(5):
        ref_x, ref_alive = step_reference(model, x, step_generator(7, step), dt, bridge)
        rho = model.domain.rho_boundary(x)
        new_x, alive, rho_new = _step(model, x, step_generator(7, step), dt, bridge, rho)
        assert np.array_equal(new_x, ref_x)
        assert np.array_equal(alive, ref_alive)
        assert np.array_equal(rho_new, model.domain.rho_boundary(new_x))
        _, alive_no_rho, _ = _step(model, x, step_generator(7, step), dt, bridge)
        assert np.array_equal(alive_no_rho, ref_alive)
        bridge_kills += int((model.domain.contains(new_x) & ~alive).sum())
        x = new_x[alive]
    assert (bridge_kills > 0) == bridge


def test_step_uniforms_are_multiples_of_2_pow_minus_53():
    """The bridge band of `_step` is exact only on this grain."""
    u = step_generator(5, 9).random(100_000)
    k = u * 2.0**53
    assert np.array_equal(k, np.floor(k)) and k.max() < 2.0**53


class _FixedNoise:
    """Generator stand-in: zero normals and one fixed uniform for every path."""

    def __init__(self, u):
        self.u = u

    def standard_normal(self, shape):
        return np.zeros(shape)

    def random(self, k):
        return np.full(k, self.u)


@pytest.mark.parametrize("u", [0.0, 2.0**-53, 1e-14, 1e-9, 0.3])
def test_step_fixed_uniform_equals_reference_across_the_band_edge(u):
    model = brownian_interval(0.0, 1.0)
    dt = 2e-4
    # paths standing still with 2 rho^2 / dt = q: p = exp(-q), the band
    # edge is at q = 2 _BAND = 38, and p underflows to 0 at q = 5000
    q = np.array([1.0, 10.0, 30.0, 36.0, 37.9, 38.1, 50.0, 100.0, 5000.0])
    x = np.sqrt(q * dt / 2)[:, None]
    assert np.array_equal(model.domain.rho_boundary(x) ** 2 >= _BAND * dt, q >= 2 * _BAND)
    _, alive, _ = _step(model, x, _FixedNoise(u), dt, True)
    _, ref_alive = step_reference(model, x, _FixedNoise(u), dt, True)
    assert np.array_equal(alive, ref_alive)
    if u == 0.0:  # out-of-band paths are still killed wherever p > 0
        assert alive.tolist() == [False] * 8 + [True]
