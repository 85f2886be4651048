"""Counter-based random streams.

Every Monte-Carlo routine derives its noise from Philox streams keyed by
(seed, step index).  Inside a step block, variates are handed out in slot
order, one slot per path passed to the step.  Estimators that compact
absorbed paths away pass only the survivors, so there the variate a path
uses at step k is a function of (seed, k, alive slot), not of its original
index: it depends on which paths died earlier, and splitting a batch
changes the realisations.  Keying the noise by path id is item 1 of
ROADMAP.md.

Probe-level seeds are derived from the master seed with `substream`, so
independent probes never share a stream.

A stepping loop owns one generator per batch, held by no other code, and
re-keys it for each step to the state of a fresh `Philox(key=(seed, step))`:
that skips the OS-entropy seeding a new Philox does before its key
overwrites it.  Batches that share a stepping loop each keep their own step
and draw from their own (seed, step) block in their own slot order, so
sharing changes no variate.  Normals are drawn row-major, held column-major.
"""

from __future__ import annotations

import numpy as np

_U64 = np.uint64


def substream(master_seed: int, *ids: int) -> int:
    """Derive a 64-bit sub-seed from a master seed and probe identifiers."""
    ss = np.random.SeedSequence(entropy=int(master_seed) & (2**64 - 1), spawn_key=tuple(int(i) for i in ids))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _key(seed: int, step: int) -> np.ndarray:
    return np.array([int(seed) & (2**64 - 1), int(step) & (2**64 - 1)], dtype=_U64)


def _loop_generator() -> np.random.Generator:
    """A generator for one stepping loop to own and re-key with `step_generator`."""
    return np.random.Generator(np.random.Philox(key=0))


# the state of a fresh Philox with the key left to fill in: the setter copies
# every field, so one template serves every re-key (of one thread at a time)
_ZERO = np.zeros(4, dtype=_U64)
_STEP_KEY = np.zeros(2, dtype=_U64)
_FRESH = {"bit_generator": "Philox", "state": {"counter": _ZERO, "key": _STEP_KEY},
          "buffer": _ZERO, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def step_generator(seed: int, step: int, g: np.random.Generator | None = None) -> np.random.Generator:
    """Generator for step `step`: the loop's own `g`, or a new one, as a fresh Philox keyed (seed, step)."""
    g = _loop_generator() if g is None else g
    _STEP_KEY[0], _STEP_KEY[1] = int(seed) & (2**64 - 1), int(step) & (2**64 - 1)
    g.bit_generator.state = _FRESH
    return g


def stream_generator(seed: int, purpose: int = 0) -> np.random.Generator:
    """Sequential generator for non-stepwise draws (initial clouds, grids)."""
    return np.random.Generator(np.random.Philox(key=_key(seed, (1 << 62) + int(purpose))))
