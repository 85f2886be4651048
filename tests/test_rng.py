"""The step and stream generators of `qsd.rng` against fresh Philox streams."""

import numpy as np
import pytest

import qsd.rng
from qsd.rng import _key, _loop_generator, step_generator, stream_generator


def fresh(seed, step):
    return np.random.Generator(np.random.Philox(key=np.array([seed, step], dtype=np.uint64)))


def draws(g):
    """Normals, uniforms, 32-bit integers and array-`high` integers, in one sequence."""
    return [
        g.standard_normal((5, 2)),
        g.random(7),
        g.integers(0, 10, size=3, dtype=np.uint32),
        g.integers(0, 3 + np.arange(6)),
        g.integers(0, 2**32 + 5 + np.arange(4)),
        g.random(dtype=np.float32),
    ]


def assert_same_draws(g, h):
    for a, b in zip(draws(g), draws(h)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("seed,step", [(0, 0), (11, 3), (2**64 - 1, (1 << 62) + 5)])
@pytest.mark.parametrize("used", [0, 1, 3])
def test_rekeyed_generator_equals_a_fresh_philox(seed, step, used):
    """Re-keyed after `used` 32-bit draws (an odd count leaves half a 64-bit
    word buffered) and a normal, the loop's generator is a fresh one."""
    own = _loop_generator()
    step_generator(1, 2, own).standard_normal(3)
    own.integers(0, 10, size=used, dtype=np.uint32)
    assert own.bit_generator.state["has_uint32"] == used % 2
    g = step_generator(seed, step, own)
    assert g is own
    state, want = g.bit_generator.state, fresh(seed, step).bit_generator.state
    assert state["state"]["key"].tolist() == want["state"]["key"].tolist()
    assert state["state"]["counter"].tolist() == want["state"]["counter"].tolist()
    assert (state["buffer_pos"], state["has_uint32"]) == (want["buffer_pos"], want["has_uint32"])
    assert_same_draws(g, fresh(seed, step))


def test_rekeys_in_turn_from_one_template_equal_fresh_philox():
    """One generator re-keyed again and again, each time right after an odd
    number of 32-bit draws (half a 64-bit word left buffered), draws as a
    fresh `Philox(key=_key(seed, step))`; re-keying a second generator in
    between leaves the first one's stream alone."""
    own, other = _loop_generator(), _loop_generator()
    for seed in (0, 2**63 + 5, 2**64 - 1, 0):
        for step in (0, 1, 2**64 - 1):
            g = step_generator(seed, step, own)
            step_generator(seed + 1, step ^ 1, other).standard_normal(2)
            want = np.random.Generator(np.random.Philox(key=_key(seed, step)))
            assert_same_draws(g, want)
            tail = [g.integers(0, 2**32, dtype=np.uint32)]  # one 32-bit draw each
            while g.bit_generator.state["has_uint32"] == 0:
                tail.append(g.integers(0, 2**32, dtype=np.uint32))
            assert tail == [want.integers(0, 2**32, dtype=np.uint32) for _ in tail]


def test_new_step_generator_equals_a_fresh_philox():
    assert_same_draws(step_generator(7, 9), fresh(7, 9))
    assert_same_draws(step_generator(-1, 2**64 + 9), fresh(2**64 - 1, 9))


def test_loop_generators_do_not_share_state():
    a, b = _loop_generator(), _loop_generator()
    assert a.bit_generator is not b.bit_generator
    step_generator(3, 0, a)
    step_generator(3, 1, b)
    first = a.standard_normal(4)
    b.standard_normal(100)  # draws of the other loop do not move this one
    assert np.array_equal(np.concatenate([first, a.standard_normal(4)]), fresh(3, 0).standard_normal(8))


def test_stream_generator_is_keyed_on_its_own(monkeypatch):
    """A stream generator is built without a call to `step_generator`, so a
    wrapper around that function does not see (or count) it."""
    calls = []
    monkeypatch.setattr(qsd.rng, "step_generator", lambda *a: calls.append(a))
    g = stream_generator(5, purpose=12)
    assert calls == []
    assert_same_draws(g, fresh(5, (1 << 62) + 12))
