import numpy as np
import pytest

from nlts import substream


@pytest.mark.parametrize("seed", [0, 7, 2**31 + 5])
def test_spawned_children_draw_as_substreams(seed):
    """SeedSequence(seed).spawn(k) child i seeds the same PCG64 stream as
    substream(seed, i), so a caller may spawn k children in one call instead
    of building k seed sequences."""
    children = np.random.SeedSequence(seed).spawn(20)
    for i, child in enumerate(children):
        spawned = np.random.Generator(np.random.PCG64(child))
        expected = substream(seed, i)
        assert spawned.normal(size=16).tobytes() == expected.normal(size=16).tobytes()
        ints = spawned.integers(0, 2**63, size=4)
        assert ints.tolist() == expected.integers(0, 2**63, size=4).tolist()
