"""The bridge tests evaluate their crossing probabilities only in their bands.

`_step` builds the normal and sigma_n^2 only on rows whose field bound puts
them in the band, and `scale1d._exit_mc` evaluates p_hi and p_lo only where
a gap product is small.  Every test here compares with the plain loops of
`oracles`, which evaluate the probabilities on every path, bit for bit, or
checks the bound the banding rests on.
"""

import numpy as np
import pytest

import oracles
import qsd.simulate
from qsd.domains import Ball, Box, Interval
from qsd.models import (
    ConstantIsotropic,
    DiagonalHolder,
    DiffusionModel,
    MatrixField,
    ZeroDrift,
    build_model,
)
from qsd.rng import step_generator
from qsd.scale1d import _exit_mc
from qsd.simulate import _BAND, _step, _variates

from oracles import exit_mc_reference, step_reference

DOMAINS = {
    "interval 0 1": [0.3],
    "box 0 0 1 2": [0.1, 0.7],
    "ball 0 0 1": [0.1, 0.7],
    "box 0 0 0 1 1.5 2": [0.2, 0.9, 1.3],
}


def model_of(domain_spec, kind):
    centre = " ".join(map(str, DOMAINS[domain_spec]))
    diffusion = {
        "constant": "constant 0.7",
        "holder": f"diagonal_holder 0.8 0.4 0.5 {centre}",
        "zero": "constant 0.0",
        "zero-holder": f"diagonal_holder 0 0 0.5 {centre}",
    }[kind]
    return build_model(domain_spec, "zero", diffusion)


class _FixedNoise:
    """Generator stand-in: zero normals and one fixed uniform for every path."""

    def __init__(self, u):
        self.u = u

    def standard_normal(self, shape):
        return np.zeros(shape)

    def random(self, k):
        return np.full(k, self.u)


def _flip(cond, lo, hi):
    """Adjacent floats a < b in [lo, hi] with cond(a) and not cond(b), by
    bisection on the bit patterns of nonnegative floats."""
    ia, ib = np.float64(lo).view(np.int64), np.float64(hi).view(np.int64)
    assert cond(lo) and not cond(hi)
    while ib - ia > 1:
        mid = (ia + ib) // 2
        if cond(float(np.int64(mid).view(np.float64))):
            ia = mid
        else:
            ib = mid
    return [float(np.int64(i).view(np.float64)) for i in (ia, ib)]


def _line(model):
    """Points at inward distance t from the boundary, on one line per domain."""
    dom = model.domain
    if isinstance(dom, Ball):
        e = np.array([np.cos(0.7), np.sin(0.7)])
        return lambda t: (dom.radius - t) * e[None, :]
    lo, hi = dom.bounds()
    mid = 0.5 * (lo + hi)
    return lambda t: np.concatenate([[lo[0] + t], mid[1:]])[None, :]


def edge_rows(model, dt):
    """Rows one ulp either side of the candidate edge of `_step` and of the
    exact band edge, for paths that stand still (zero drift and noise)."""
    at = _line(model)

    def cand(t):
        x = at(t)
        rho = model.domain.rho_boundary(x)
        return bool((rho * rho < model.sigma2_bound(rho, model.diffusion.at(x)) * (_BAND * dt))[0])

    def band(t):
        x = at(t)
        rho = model.domain.rho_boundary(x)
        return bool((rho * rho < model.normal_sigma2(x) * (_BAND * dt))[0])

    half = model.domain.inradius * 0.999
    ts = _flip(cand, 1e-9, half) + _flip(band, 1e-9, half)
    return np.vstack([at(t) for t in ts])


def non_finite_rows(d):
    rows = [np.full(d, np.nan)]
    for v in (np.nan, np.inf, -np.inf):
        r = np.full(d, 0.5)
        r[-1] = v
        rows.append(r)
    return np.array(rows)


def _compare(model, x, g_new, g_ref, dt):
    with np.errstate(invalid="ignore", over="ignore"):
        rho = model.domain.rho_boundary(x)
        new_x, alive, rho_new = _step(model, x, _variates(model.dim, [(g_new, len(x))]), dt, True, rho)
        ref_x, ref_alive = step_reference(model, x, g_ref, dt, True)
        assert np.array_equal(rho_new, model.domain.rho_boundary(new_x), equal_nan=True)
    assert np.array_equal(new_x, ref_x, equal_nan=True)
    assert np.array_equal(alive, ref_alive)
    return alive


# --- _step ------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["constant", "holder"])
@pytest.mark.parametrize("domain_spec", list(DOMAINS))
def test_banded_step_equals_the_reference_at_the_edges(domain_spec, kind):
    model = model_of(domain_spec, kind)
    dt = 1e-3
    x = np.vstack([edge_rows(model, dt), non_finite_rows(model.dim)])
    if kind == "holder" and model.dim > 1:  # the bound is looser than sigma_n^2: two distinct edges
        assert not np.array_equal(x[:2], x[2:4])
    for u in (0.0, 2.0**-53, 1e-9, 0.5):
        alive = _compare(model, x, _FixedNoise(u), _FixedNoise(u), dt)
        assert (alive[:4] == (u > 0)).all()  # p > 0 at every edge row; only u = 0 fires there
        assert not alive[4:].any()


@pytest.mark.parametrize("kind", ["constant", "holder", "zero", "zero-holder"])
@pytest.mark.parametrize("domain_spec", list(DOMAINS))
def test_banded_step_equals_the_reference_on_clouds(domain_spec, kind):
    model = model_of(domain_spec, kind)
    dt = 2e-3
    g = np.random.default_rng(11)
    cloud = model.domain.uniform(g, 3000)
    near = cloud[model.domain.rho_boundary(cloud) < 0.2][:1500]
    x = np.vstack([near, cloud[:500], edge_rows(model_of(domain_spec, "holder"), dt), non_finite_rows(model.dim)])
    for step in range(3):
        alive = _compare(model, x, step_generator(9, step), step_generator(9, step), dt)
    if kind.startswith("zero"):  # sigma_n^2 = 0: nothing moves, nothing is killed inside
        assert alive[: -len(non_finite_rows(model.dim))].all()
    else:
        assert not alive[: len(near)].all()
    # a forced zero uniform on every row: wherever p > 0, the path dies
    _compare(model, x, _FixedNoise(0.0), _FixedNoise(0.0), dt)


@pytest.mark.parametrize("kind", ["constant", "holder"])
@pytest.mark.parametrize("domain_spec", list(DOMAINS))
def test_cloud_without_candidates_builds_no_normal(domain_spec, kind, monkeypatch):
    model = model_of(domain_spec, kind)
    dt = 1e-5
    cloud = model.domain.uniform(np.random.default_rng(12), 2000)
    x = cloud[model.domain.rho_boundary(cloud) > 0.1]
    calls = []
    domain_type = type(model.domain)
    orig = domain_type.normal_sigma2
    monkeypatch.setattr(domain_type, "normal_sigma2", lambda self, *a: calls.append(1) or orig(self, *a))
    alive = _compare(model, x, step_generator(3, 0), step_generator(3, 0), dt)
    assert alive.all() and not calls
    _compare(model, x, _FixedNoise(0.0), _FixedNoise(0.0), dt)  # u = 0 rows are candidates
    assert len(calls) == 1


# --- the bound ----------------------------------------------------------------------


def _matrix_field(d):
    """A position-dependent, non-symmetric square field."""
    g = np.random.default_rng(d)
    a, b = g.standard_normal((d, d)), g.standard_normal((d, d))
    return MatrixField(lambda x: a[None] * (1 + np.sin(x.sum(axis=1)))[:, None, None] + b[None])


FIELDS = {
    "constant": lambda d: ConstantIsotropic(0.7),
    "holder": lambda d: DiagonalHolder(0.8, 0.4, 0.5, (0.2, 0.9, 1.3)[:d]),
    "holder-offcentre": lambda d: DiagonalHolder(0.05, 3.0, 0.5, (2.5, -1.0, 0.4)[:d]),
    "holder-zero-axis": lambda d: DiagonalHolder(0.0, 1.0, 1.0, (0.0, 0.0, 0.0)[:d]),
    # equal diagonal entries: sigma_n^2 = 0.64 sum nu_i^2 rounds above 0.64 on about half the rows of a ball
    "holder-amp0": lambda d: DiagonalHolder(0.8, 0.0, 0.5, (0.2, 0.9, 1.3)[:d]),
    "matrix": _matrix_field,
}
BOUND_DOMAINS = {
    "interval": Interval(0.0, 1.0),
    "box": Box((0.0, 0.0), (1.0, 2.0)),
    "box3": Box((0.0, 0.0, 0.0), (1.0, 1.5, 2.0)),
    "disc": Ball((0.0, 0.0), 1.0),
    "ball3": Ball((0.1, -0.2, 0.3), 1.0),
    "tiny-disc": Ball((0.0, 0.0), 1e-150),
}
# face-gap ties between axes of a box
BOX_TIES = {
    "box": [[0.25, 0.25], [0.5, 0.5], [0.75, 1.75], [0.0, 0.0]],
    "box3": [[0.75, 0.25, 0.25], [0.25, 1.25, 1.0], [0.5, 0.75, 0.5], [0.5, 1.0, 1.5]],
}


def near_centre(dom, g):
    """The centre, and offsets from it whose squared norm is subnormal or
    near the subnormal range, so that |nu_i| can round above 1."""
    d = dom.dim
    c = np.asarray(dom.center)
    root_u = 2.0**-537  # sqrt(2**-1074)
    crafted = [np.zeros(d), np.r_[np.sqrt(1.49) * root_u, np.sqrt(0.49) * root_u, np.zeros(d)][:d]]
    crafted += [np.r_[np.sqrt(k) * root_u, np.zeros(d - 1)] for k in (1.4, 2.45, 3.49, 1e4 + 0.49)]
    dirs = g.standard_normal((300, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 10.0 ** g.uniform(-163, -150, size=(300, 1))
    return c + np.vstack([np.array(crafted), dirs * radii])


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("domain", list(BOUND_DOMAINS))
def test_the_bound_holds_on_every_row(domain, field):
    dom = BOUND_DOMAINS[domain]
    f = FIELDS[field](dom.dim)
    model = DiffusionModel(dom, ZeroDrift(), f, 0.0, 1.0, 0.0)
    g = np.random.default_rng(13)
    rows = [dom.uniform(g, 3000)]
    if isinstance(dom, Ball):
        c = np.asarray(dom.center)
        rows += [near_centre(dom, g), c + (dom.boundary_points() - c) * (1 - 1e-12)]
    else:
        rows += [np.array(BOX_TIES.get(domain, [[0.5]]))]
    x = np.vstack(rows)
    s = f.at(x)
    rho = dom.rho_boundary(x)
    sig2 = model.normal_sigma2(x, s)
    bound = model.sigma2_bound(rho, s)
    assert np.ndim(bound) == 0 and (bound >= sig2).all()
    # one call without the ball's centre: a finite bound, which holds row by row
    for k in range(len(rows[0])):
        r = slice(k, k + 1)
        assert f.sigma2_bound(s[r] if np.ndim(s) else s) >= sig2[k]
    if isinstance(dom, Ball):  # the guard: a row within 2**-511 of the centre in the call
        k = len(rows[0])
        assert bound == np.inf and np.isfinite(model.sigma2_bound(rho[:k], s[:k] if np.ndim(s) else s))


def test_the_ball_guard_is_needed_near_the_centre():
    """At an offset whose squared norm rounds down to one subnormal, nu_1^2 is
    1.49: sigma_n^2 exceeds the field's own bound, and the ball's guard
    makes the row a candidate."""
    dom = Ball((0.0, 0.0), 1.0)
    f = DiagonalHolder(0.5, 1.0, 1.0, (-1.0, 0.0))  # s_11 = 1.5 > s_22 = 0.5 at the centre
    model = DiffusionModel(dom, ZeroDrift(), f, 0.0, 9.0, 0.0)
    x = np.array([[np.sqrt(1.49), np.sqrt(0.49)]]) * 2.0**-537  # |x|^2 = 1.98 * 2**-1074 rounds to 2**-1074
    s = f.at(x)
    assert model.normal_sigma2(x, s)[0] > f.sigma2_bound(s)
    assert model.sigma2_bound(dom.rho_boundary(x), s) == np.inf


# --- the exit loop ----------------------------------------------------------------------


def _exit_pair(a, us, hi, horizon, n, seeds, dt):
    got = _exit_mc(a, us, hi, horizon, n, seeds, dt=dt)
    for (state, time), u, seed in zip(got, us, seeds):
        ref_state, ref_time = exit_mc_reference(a, u, hi, horizon, n, seed, dt=dt)
        assert np.array_equal(state, ref_state)
        assert np.array_equal(time, ref_time)
    return got


@pytest.mark.parametrize("a", [0.0, 0.5, 3.0])
def test_banded_exit_loop_equals_the_reference_near_both_barriers(a):
    hi = 0.5
    us = [1e-3, 5e-4, 1e-6, hi - 1e-3, hi - 5e-4, hi - 1e-6, 0.25]
    got = _exit_pair(a, us, hi, 0.05, 500, list(range(40, 47)), 2e-4)
    states = np.concatenate([s for s, _ in got])
    assert {1, 2, 3} <= set(states.tolist())


def test_banded_exit_loop_equals_the_reference_with_a_small_hi():
    """hi = 0.02 at dt = 2e-4: the band covers most rows."""
    hi, dt = 0.02, 2e-4
    assert 0.5 * hi < np.sqrt(_BAND * dt)
    got = _exit_pair(1.0, [0.004, 0.01, 0.017], hi, 0.01, 3000, [50, 51, 52], dt)
    assert all({1, 2} <= set(s.tolist()) for s, _ in got)


@pytest.mark.parametrize("u_fixed", [0.0, 2.0**-53, 0.3])
def test_banded_exit_loop_equals_the_reference_at_the_band_edges(u_fixed, monkeypatch):
    """Paths standing still (zero noise) one ulp either side of each
    barrier's band edge, with one fixed uniform."""
    a, hi, dt = 0.5, 0.5, 1e-3

    def near_lo(x):  # the band tests of `_exit_mc` for a path standing still at x
        sig = 1.0 + 2.0 * a * x
        return x * x < _BAND * (sig * sig * dt)

    def off_hi(x):
        sig = 1.0 + 2.0 * a * x
        return not (hi - x) * (hi - x) < _BAND * (sig * sig * dt)

    us = _flip(near_lo, 1e-9, 0.25) + _flip(off_hi, 0.25, hi - 1e-9)
    fixed = lambda *args, **kw: _FixedNoise(u_fixed)  # noqa: E731
    monkeypatch.setattr(qsd.simulate, "step_generator", fixed)  # where `_exit_mc`'s noise is drawn
    monkeypatch.setattr(oracles, "step_generator", fixed)
    got = _exit_pair(a, us, hi, 5 * dt, 7, list(range(len(us))), dt)
    # p > 0 at every edge row: a zero uniform takes each path out at the first step
    for state, time in got:
        assert (time == dt).all() if u_fixed == 0.0 else (state == 3).all()
