"""The package's seed hash against numpy's own SeedSequence and PCG64.

``derive_seed`` is numpy's own SeedSequence; its test is the public
contract that every stream seed is numpy's. The batched copy of numpy's
hash seeds only the group-sampling streams: the harness derives every
group-sampling target's seed, and that seed's PCG64 state, with it, and
numpy is its oracle here. Every batched call runs with RuntimeWarning as
an error, so a numpy scalar overflow in the uint32 arithmetic fails the
test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith.experiments import (
    _derived_seed_words,
    _pcg64_states,
    _seeded_permutations,
    derive_seed,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

# one word, two words, the 2**64 boundary, and three or more words
ENTROPY_VALUES = st.one_of(
    st.integers(0, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**100),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
)


def _numpy_seed(entropy) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1, np.uint64)[0])


def _words(seeds) -> np.ndarray:
    return np.array([[s & 0xFFFFFFFF, s >> 32] for s in seeds], dtype=np.uint32)


@settings(max_examples=300, deadline=None)
@given(st.lists(ENTROPY_VALUES, min_size=1, max_size=8))
def test_derive_seed_matches_seed_sequence(entropy):
    # more than 4 words also runs the hash of the words beyond the pool
    assert derive_seed(*entropy) == _numpy_seed(entropy)


@settings(max_examples=50, deadline=None)
@given(st.lists(ENTROPY_VALUES, min_size=0, max_size=4), st.integers(1, 40))
def test_batched_seeds_match_one_seed_per_target(prefix, n):
    words = _derived_seed_words(prefix, n)
    got = [int(lo) | int(hi) << 32 for lo, hi in words]
    assert got == [_numpy_seed([*prefix, t]) for t in range(n)]


def test_negative_entropy_rejected():
    with pytest.raises(ValueError, match="non-negative, got -1"):
        derive_seed(3, -1)


SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1)), min_size=1, max_size=20))
def test_pcg64_states_match_numpy(seeds):
    for (state, inc), s in zip(_pcg64_states(_words(seeds)), seeds):
        assert np.random.PCG64(s).state["state"] == {"state": state, "inc": inc}, s


def test_reused_generator_draws_default_rng_permutations():
    seeds = SEEDS + [derive_seed(5, 3, 2, 4, t) for t in range(20)]
    for n in (1, 2, 17, 600):
        draw = _seeded_permutations(_words(seeds), n)
        # out of order, and twice: each draw starts from its own seed's state
        for t in [*reversed(range(len(seeds))), 0, 3]:
            np.testing.assert_array_equal(draw(t), np.random.default_rng(seeds[t]).permutation(n))
