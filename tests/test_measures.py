import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsd.measures import (
    BinGrid,
    Measure,
    SupportMismatchError,
    _norms,
    histogram_from_samples,
    lipschitz_constant,
    tv_distance,
)

from oracles import lipschitz_reference

NO_CEMETERY = np.inf  # rho = inf leaves the cemetery out

probs = st.lists(st.floats(0.01, 10.0), min_size=2, max_size=6).map(
    lambda w: np.array(w) / np.sum(w)
)


def test_tv_identical_measures_is_zero():
    assert tv_distance(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0


def test_tv_mutually_singular_is_two():
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 2.0


def test_tv_direct_summation():
    # |0.4-0.5| + |0.6-0.5|
    assert tv_distance(np.array([0.4, 0.6]), np.array([0.5, 0.5])) == pytest.approx(0.2, abs=1e-15)


def test_tv_support_mismatch():
    a = Measure(BinGrid.regular(0.0, 1.0, 2), np.array([0.5, 0.5]))
    b = Measure(BinGrid.regular(0.0, 2.0, 2), np.array([0.5, 0.5]))  # same size, other bins
    with pytest.raises(SupportMismatchError):
        tv_distance(a, b)
    grid = BinGrid.regular(0.0, 1.0, 4)
    other = BinGrid.regular(0.0, 1.0, 8)
    with pytest.raises(SupportMismatchError):
        tv_distance(Measure(grid, np.ones(4) / 4), Measure(other, np.ones(8) / 8))


@settings(max_examples=50, deadline=None)
@given(probs, probs, probs)
def test_tv_triangle_and_range(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n] / a[:n].sum(), b[:n] / b[:n].sum(), c[:n] / c[:n].sum()
    tab = tv_distance(a, b)
    assert tab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12
    assert -1e-12 <= tab <= 2 + 1e-12
    assert tab == pytest.approx(tv_distance(b, a))


def test_measure_validation():
    grid = BinGrid.regular(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        Measure(grid, np.array([0.5, -0.1]))
    with pytest.raises(ValueError):
        Measure(grid, np.array([0.2, 0.3, 0.5]))
    m = Measure(grid, np.array([0.2, 0.3]))
    assert m.mass == pytest.approx(0.5)
    assert not m.is_distribution


def test_lipschitz_constant_function_is_zero():
    pts = [0.0, 0.3, 1.0]
    assert lipschitz_constant(pts, [2.0, 2.0, 2.0], np.full(3, NO_CEMETERY)) == 0.0


def test_lipschitz_single_pair():
    assert lipschitz_constant([0.0, 1.0], [0.0, 3.0], np.full(2, NO_CEMETERY)) == 3.0


def test_lipschitz_enumerates_pairs():
    # pairs: (0,0.5)->0.5, (0,1)->1, (0.5,1)->1.5
    got = lipschitz_constant([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], np.full(3, NO_CEMETERY))
    assert got == pytest.approx(1.5, abs=1e-15)
    # the cemetery, where the function is 0, at distance 0.25 from x = 1
    got = lipschitz_constant([0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.5, 1.0, 0.25])
    assert got == 4.0


def test_lipschitz_single_point_meets_the_cemetery():
    assert lipschitz_constant([[0.5, 0.5]], [2.0], [0.25]) == 8.0
    assert lipschitz_constant([[0.5, 0.5]], [2.0], [NO_CEMETERY]) == 0.0
    with pytest.raises(ValueError):
        lipschitz_constant([[0.5, 0.5]], [2.0], [0.0])


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(-500, 500), min_size=2, max_size=6, unique=True),
    st.floats(-10, 10),
)
def test_lipschitz_shift_invariance(ks, shift):
    # coarse grid keeps the shifted differences away from float cancellation
    xs = [k / 100.0 for k in ks]
    vals = [np.sin(3 * x) for x in xs]
    rho = np.full(len(xs), NO_CEMETERY)
    base = lipschitz_constant(xs, vals, rho)
    shifted = lipschitz_constant(xs, [v + shift for v in vals], rho)
    assert shifted == pytest.approx(base, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lipschitz_constant_equals_pairwise_reference(dim):
    """Bit for bit the pairwise loop over the points and the cemetery,
    with one `np.linalg.norm` per pair, on random grids and boundary
    distances; rho = inf on some points, or on all of them.  Its pair
    distances round as `np.linalg.norm` does; a sum of squares would not.
    Equal points raise on both sides."""
    g = np.random.default_rng(dim)
    for trial in range(60):
        m = int(g.integers(2, 25))
        pts = g.normal(scale=10.0 ** g.uniform(-3, 2), size=(m, dim))
        vals = g.uniform(size=m) * 10.0 ** g.uniform(-5, 0)
        rho = g.uniform(1e-3, 2.0, size=m)
        rho[g.random(m) < 0.3] = np.inf
        if trial % 10 == 0:
            rho[:] = np.inf
        got = lipschitz_constant(pts[:, 0] if dim == 1 and trial % 2 else pts, vals, rho)
        assert isinstance(got, np.float64)
        want = lipschitz_reference(pts, vals, rho)
        assert got == want, (trial, got, want)
        diff = (pts[:, None] - pts[None]).reshape(-1, dim)
        assert np.array_equal(_norms(diff), [np.linalg.norm(r) for r in diff])
    pts[-1] = pts[0]  # two equal points: both raise
    for fn in (lipschitz_constant, lipschitz_reference):
        with pytest.raises(ValueError):
            fn(pts, vals, rho)


def test_histogram_and_coarsen():
    grid = BinGrid.regular(0.0, 1.0, 8)
    g = np.random.default_rng(0)
    samples = g.random(1000)
    h = histogram_from_samples(grid, samples)
    assert h.is_distribution
    # the histogram on the nested grid of 4 bins is the bin-pairwise sum
    coarse = histogram_from_samples(BinGrid.regular(0.0, 1.0, 4), samples)
    assert np.allclose(coarse.weights, h.weights.reshape(4, 2).sum(axis=1), rtol=0, atol=1e-15)


def test_bin_grid_2d():
    grid = BinGrid.regular([0.0, 0.0], [1.0, 2.0], [4, 5])
    assert grid.size == 20
    lo, hi = grid.bounds()
    assert lo.shape == (20, 2)
    assert hi[-1][1] == pytest.approx(2.0)
    pts = np.array([[0.1, 0.1], [0.9, 1.9]])
    h = histogram_from_samples(grid, pts)
    assert h.weights.sum() == pytest.approx(1.0)


def test_histogram_from_samples_rejects_empty_and_outside():
    grid = BinGrid.regular([0.0, 0.0], [1.0, 1.0], 2)
    with pytest.raises(ValueError, match="no samples"):
        histogram_from_samples(grid, np.empty((0, 2)))
    with pytest.raises(ValueError, match="outside"):
        histogram_from_samples(grid, [[0.5, 1.5], [np.nextafter(0.0, -1.0), 0.5]])
    with pytest.raises(ValueError):
        histogram_from_samples(grid, np.full((3, 3), 0.5))
