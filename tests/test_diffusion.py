import numpy as np
import pytest

from qsd import simulate
from qsd.domains import Ball, BallTarget, Box, DomainError, InnerCompact, Interval, _sum_squares
from qsd.models import (
    ConstantIsotropic,
    DiffusionModel,
    MatrixField,
    ZeroDrift,
    brownian_interval,
    build_model,
    validate_model,
)
from qsd.rng import _loop_generator, step_generator
from qsd.simulate import (
    _BAND,
    PathConfig,
    _step,
    _variates,
    hitting_before,
    simulate_path,
    split_survival_profile,
    survival_probability,
    survival_snapshots,
    tube_probability,
)

from oracles import (
    contains_reference,
    diagonal_field_reference,
    normal_sigma2_reference,
    reflection_survival,
    rho_reference,
    step_reference,
    survival_series,
)


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


NORMAL_SPECS = [
    ("interval 0 1", "constant 0.7"),
    ("interval 0 1", "diagonal_holder 1.0 0.3 0.5 0.2"),
    ("box 0 0 1 2", "constant 0.7"),
    ("box 0 0 1 2", "diagonal_holder 1.0 0.3 0.5 0.5 1.0"),
    ("box 0 0 0 1 1.5 2", "constant 0.7"),
    ("box 0 0 0 1 1.5 2", "diagonal_holder 0.8 0.4 0.5 0.2 0.9 1.3"),
    ("ball 0 0 1", "constant 0.7"),
    ("ball 0 0 1", "diagonal_holder 0.7 0.2 0.5 0.1 -0.2"),
]

# points with exactly equal gaps to two faces (of different axes on a box),
# and the ball centre (also as an offset whose norm underflows to 0)
TIES = {
    "interval 0 1": [[0.5]],
    "box 0 0 1 2": [[0.25, 0.25], [0.5, 0.5], [0.75, 1.75], [0.0, 0.0]],
    "box 0 0 0 1 1.5 2": [[0.75, 0.25, 0.25], [0.25, 1.25, 1.0], [0.5, 0.75, 0.5], [0.5, 1.0, 1.5]],
    "ball 0 0 1": [[0.0, 0.0], [1e-200, 0.0], [0.0, -1e-200]],
}


@pytest.mark.parametrize("domain_spec,diffusion_spec", NORMAL_SPECS)
def test_normal_sigma2_equals_per_domain_encoding(domain_spec, diffusion_spec):
    model = build_model(domain_spec, "zero", diffusion_spec)
    x = np.vstack([model.domain.uniform(np.random.default_rng(2), 2000), TIES[domain_spec]])
    assert np.array_equal(model.normal_sigma2(x), normal_sigma2_reference(model, x))
    if model.dim > 1 and "holder" in diffusion_spec:
        # at these points the tied axes carry different variances
        s = model.diffusion.at(x[2000:])
        assert (s[:, 0] != s[:, 1]).all()


@pytest.mark.parametrize(
    "domain,points",
    [
        (Interval(0.0, 1.0), [[0.0], [1.0], [5e-324], [np.nextafter(1.0, 0.0)], [-0.0], [np.nan], [np.inf], [-np.inf]]),
        (
            Box((0.0, -1.0), (1.0, 2.0)),
            [
                [0.0, 1.0], [1.0, 2.0], [0.0, -1.0], [0.5, 2.0], [5e-324, 1.0], [0.5, np.nextafter(2.0, 0.0)],
                [np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)], [np.nan, 1.0], [0.5, np.nan],
                [0.5, np.inf], [-np.inf, 1.0], [np.inf, np.inf],
            ],
        ),
        (
            Ball((0.5, -0.25), 0.75),
            [
                [1.25, -0.25], [0.5, -1.0], [np.nextafter(1.25, 0.0), -0.25], [0.5, np.nextafter(0.5, 0.0)],
                [0.5, -0.25], [np.nan, 0.0], [0.0, np.nan], [np.inf, 0.0], [0.0, -np.inf],
            ],
        ),
    ],
)
def test_contains_equals_per_domain_inequalities(domain, points):
    x = np.array(points)
    inside = domain.contains(x)
    assert np.array_equal(inside, contains_reference(domain, x))
    assert np.array_equal(inside, domain.rho_boundary(x) > 0)
    assert inside.any() and not inside.all()


def test_square_matrix_field_steps_like_the_constant_field():
    box = Box((0.0, 0.0), (1.0, 2.0))
    const = DiffusionModel(box, ZeroDrift(), ConstantIsotropic(0.8), 0.64, 0.64, 0.0)
    eye = MatrixField(lambda x: np.broadcast_to(0.8 * np.eye(2), (x.shape[0], 2, 2)))
    matrix = DiffusionModel(box, ZeroDrift(), eye, 0.64, 0.64, 0.0)
    x = box.uniform(np.random.default_rng(4), 500)
    assert np.array_equal(matrix.normal_sigma2(x), const.normal_sigma2(x))
    a = _step(const, x, _variates(2, [(step_generator(3, 0), 500)]), 0.01, True, box.rho_boundary(x))
    b = _step(matrix, x, _variates(2, [(step_generator(3, 0), 500)]), 0.01, True, box.rho_boundary(x))
    for u, v in zip(a, b):
        assert np.array_equal(u, v)
    # on a disc the normal is no longer an axis: s = 0.8 R, R a rotation
    c, s = np.cos(0.3), np.sin(0.3)
    rot = MatrixField(lambda x: np.broadcast_to(0.8 * np.array([[c, -s], [s, c]]), (x.shape[0], 2, 2)))
    disc = DiffusionModel(Ball((0.0, 0.0), 1.0), ZeroDrift(), rot, 0.64, 0.64, 0.0)
    y = disc.domain.uniform(np.random.default_rng(5), 500)
    assert np.allclose(disc.normal_sigma2(y), 0.64, rtol=1e-14, atol=0)


# domains of dimension 1 to 3, each with its special points: the TIES above
# (face-gap ties between axes on a box, the exact centre of a ball), and
# points within 1e-3 of the boundary
FIELD_ONCE_DOMAINS = {
    "interval 0 1": [*TIES["interval 0 1"], [0.0005], [0.9999]],
    "box -1 1": [[0.0], [0.9999]],
    "box 0 0 1 2": [*TIES["box 0 0 1 2"], [0.9995, 1.0], [0.5, 1e-4]],
    "box 0 0 0 1 1.5 2": [*TIES["box 0 0 0 1 1.5 2"], [1e-4, 0.7, 1.0]],
    "ball 0.5 0.75": [[0.5], [0.5 + 1e-200], [1.2499]],
    "ball 0 0 1": [*TIES["ball 0 0 1"], [0.6, -0.7998]],
    "ball 0.1 -0.2 0.3 1": [[0.1, -0.2, 0.3], [0.1, -0.2, 0.3 + 1e-200], [0.1, 0.7999, 0.3]],
}
# per dimension, the centre of the Hoelder fields: it differs on each axis,
# so tied axes carry different variances
FIELD_CENTRES = {1: "0.3", 2: "0.1 0.7", 3: "0.2 0.9 1.3"}
FIELD_KINDS = ["constant", "holder", "holder-amp0"]


def field_once_model(domain_spec, kind, drift="zero"):
    d = len(FIELD_ONCE_DOMAINS[domain_spec][0])
    diffusion = {
        "constant": "constant 0.7",
        "holder": f"diagonal_holder 0.8 0.4 0.5 {FIELD_CENTRES[d]}",
        "holder-amp0": f"diagonal_holder 0.8 0 0.5 {FIELD_CENTRES[d]}",
    }[kind]
    if drift == "linear":
        drift = f"linear -0.5 {FIELD_CENTRES[d]}"
    return build_model(domain_spec, drift, diffusion)


def non_finite_rows(d):
    """A NaN row (a dead path kept in place), a NaN and an infinity in each
    coordinate of an otherwise central point."""
    rows = [np.full(d, np.nan)]
    for k in range(d):
        for v in (np.nan, np.inf, -np.inf):
            r = np.full(d, 0.5)
            r[k] = v
            rows.append(r)
    return np.array(rows)


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("domain_spec", list(FIELD_ONCE_DOMAINS))
def test_field_once_geometry_equals_oracles(domain_spec, kind):
    """The one-field-evaluation path and the column-wise geometry agree with
    the reference encodings bit for bit, non-finite rows included."""
    model = field_once_model(domain_spec, kind)
    d, f = model.dim, model.diffusion
    g = np.random.default_rng(8)
    special = np.array(FIELD_ONCE_DOMAINS[domain_spec])
    x = np.vstack([model.domain.uniform(g, 2000), special, non_finite_rows(d)])
    z = g.standard_normal(x.shape)
    with np.errstate(invalid="ignore"):
        s = f.at(x)
        ref = normal_sigma2_reference(model, x)
        assert np.array_equal(model.normal_sigma2(x), ref, equal_nan=True)
        assert np.array_equal(model.normal_sigma2(x, s), ref, equal_nan=True)
        ref_apply = diagonal_field_reference(f, x) * z
        assert np.array_equal(f.apply(x, z, s), ref_apply, equal_nan=True)
        assert np.array_equal(f.apply(x, z), ref_apply, equal_nan=True)
        assert np.array_equal(model.domain.rho_boundary(x), rho_reference(model.domain, x), equal_nan=True)
    if d > 1 and kind == "holder" and domain_spec.startswith("box"):
        assert (s[2000:2003, 0] != s[2000:2003, 1]).all()


@pytest.mark.parametrize("d", range(1, 10))
def test_sum_squares_equals_numpy_row_sums(d):
    """`_sum_squares` is numpy's `(a * a).sum(axis=1)`, and its root numpy's
    `norm(axis=1)`, bit for bit, for any row count and memory layout."""
    g = np.random.default_rng(d)
    for n in (1, 2, 3, 7, 8, 9, 33, 1000):
        a = g.standard_normal((n, 2 * d)) * 10.0 ** g.integers(-8, 8, size=(n, 2 * d))
        for view in (a[:, :d], np.asfortranarray(a[:, :d]), a[::-1, 1::2]):
            assert np.array_equal(_sum_squares(view), (view * view).sum(axis=1))
            assert np.array_equal(np.sqrt(_sum_squares(view)), np.linalg.norm(view, axis=1))


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


BAD_GRIDS = {
    "negative-time": dict(times=[-0.1, 0.5], dt=1e-3),  # used to read count 0 at t = -0.1
    "only-negative-times": dict(times=[-0.2, -0.1], dt=1e-3),  # used to step until every path died
    "zero-dt": dict(times=[0.5], dt=0.0),  # used to raise ZeroDivisionError
    "negative-dt": dict(times=[0.5], dt=-1e-3),
}


@pytest.mark.parametrize("grid", list(BAD_GRIDS.values()), ids=list(BAD_GRIDS))
def test_batch_loop_rejects_negative_times_and_nonpositive_dt(monkeypatch, grid):
    def no_step(*args):
        raise AssertionError("stepped before rejecting the time grid")

    monkeypatch.setattr(simulate, "_step", no_step)
    model, times, dt = brownian_interval(0, 1), grid["times"], grid["dt"]
    for call in (
        lambda: survival_snapshots(model, np.full((100, 1), 0.5), times, dt, 1),
        lambda: hitting_before(model, [0.5], BallTarget((0.5,), 0.1), times[0], 100, 1, dt=dt),
        lambda: tube_probability(model, [0.5], [0.5], 0.3, times[0], 100, 1, dt=dt),
        lambda: split_survival_profile(model, [[0.5]], times, 100, 1, dt=dt, window=0.05),
    ):
        with pytest.raises(ValueError, match="dt must be positive and every time at least 0"):
            call()


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


def test_split_profile_rejects_starts_outside_the_open_domain():
    model = brownian_interval(0, 1)
    for bad in ([[2.0], [0.5]], [[0.5], [1.0]], [[np.nan]]):
        with pytest.raises(DomainError):
            split_survival_profile(model, bad, [0.1], 100, 1, dt=1e-2, window=0.05)


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
    x_new, alive, _ = _step(frozen_model(domain), x, _variates(domain.dim, [(step_generator(1, 0), len(x))]), 0.01, False, domain.rho_boundary(x))
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
        new_x, alive, rho_new = _step(model, x, _variates(model.dim, [(step_generator(7, step), len(x))]), dt, bridge, rho)
        assert np.array_equal(new_x, ref_x)
        assert np.array_equal(alive, ref_alive)
        assert np.array_equal(rho_new, model.domain.rho_boundary(new_x))
        _, alive_no_rho, _ = _step(
            model, x, _variates(model.dim, [(step_generator(7, step), len(x))]), dt, bridge, model.domain.rho_boundary(x)
        )
        assert np.array_equal(alive_no_rho, ref_alive)
        bridge_kills += int((model.domain.contains(new_x) & ~alive).sum())
        x = new_x[alive]
    assert (bridge_kills > 0) == bridge


@pytest.mark.parametrize("kind", FIELD_KINDS)
@pytest.mark.parametrize("domain_spec", list(FIELD_ONCE_DOMAINS))
def test_field_once_step_equals_reference(domain_spec, kind):
    """`_step`, with its one field evaluation and a re-keyed loop generator,
    equals the reference step; non-finite rows are never alive."""
    model = field_once_model(domain_spec, kind, drift="linear")
    dt = 1e-3
    cand = model.domain.uniform(np.random.default_rng(6), 20_000)
    near = cand[model.domain.rho_boundary(cand) < 4 * np.sqrt(dt)][:800]
    x = np.vstack([near, cand[:200], FIELD_ONCE_DOMAINS[domain_spec], non_finite_rows(model.dim)])
    dead = ~np.isfinite(x).all(axis=1)
    own = _loop_generator()
    with np.errstate(invalid="ignore", over="ignore"):
        rho = model.domain.rho_boundary(x)
        for step in range(4):
            ref_x, ref_alive = step_reference(model, x, step_generator(5, step), dt, True)
            new_x, alive, rho_new = _step(model, x, _variates(model.dim, [(step_generator(5, step, own), len(x))]), dt, True, rho)
            assert np.array_equal(new_x, ref_x, equal_nan=True)
            assert np.array_equal(alive, ref_alive)
            assert not alive[dead | ~np.isfinite(new_x).all(axis=1)].any()
            # dead rows stay in place as NaN and are stepped again
            x = np.where(alive[:, None], new_x, np.nan)
            rho = np.where(alive, rho_new, np.nan)
            dead = ~alive
    assert alive.any() and dead.sum() > non_finite_rows(model.dim).shape[0]


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
    _, alive, _ = _step(model, x, _variates(1, [(_FixedNoise(u), len(x))]), dt, True, model.domain.rho_boundary(x))
    _, ref_alive = step_reference(model, x, _FixedNoise(u), dt, True)
    assert np.array_equal(alive, ref_alive)
    if u == 0.0:  # out-of-band paths are still killed wherever p > 0
        assert alive.tolist() == [False] * 8 + [True]
