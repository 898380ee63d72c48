import numpy as np
import pytest

from qetsim.pcg64 import RandomSource

# small seeds, the word boundaries of SeedSequence's 32-bit entropy
# split, and seeds of more words than its 4-word pool
SEEDS = [0, 1, 2, 5, 99, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
         2 ** 64 + 5, 2 ** 100 + 17, 3 ** 120]


@pytest.mark.parametrize("seed", SEEDS)
def test_same_doubles_as_numpy_default_rng(seed):
    reference = np.random.default_rng(seed)
    ours = RandomSource(seed)
    assert [ours.random() for _ in range(2000)] == reference.random(2000).tolist()


def test_negative_seed_rejected_like_numpy():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        RandomSource(-1)
