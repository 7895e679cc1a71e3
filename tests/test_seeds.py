"""The package's seed hash against numpy's own SeedSequence and PCG64.

``derive_seed`` is numpy's own SeedSequence; its test is the public
contract that every stream seed is numpy's. The batched copy of numpy's
hash seeds only the group-sampling streams: the harness derives every
group-sampling target's seed, and the words that seed's PCG64 seeds
itself from, with it, and numpy is its oracle here. Every batched call
runs with RuntimeWarning as an error, so a numpy scalar overflow in the
uint32 arithmetic fails the test.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ciarith.experiments import (
    _derived_seed_words,
    _HashedSeed,
    _seed_state,
    _seeded_generators,
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
    with pytest.raises(ValueError, match=r"^seed entropy must be >= 0, got -1$"):
        derive_seed(3, -1)


@pytest.mark.parametrize("x", [1.5, 2.0, True])
def test_non_integer_entropy_rejected_by_name(x):
    with pytest.raises(ValueError, match=rf"^seed entropy: {x!r} is not an integer$"):
        derive_seed(3, x)
    with pytest.raises(ValueError, match=rf"^seed entropy: {x!r} is not an integer$"):
        _derived_seed_words([3, x], 2)


SEEDS = [0, 1, 7, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 2, 2**64 - 1]


def _hashed_seeds(seeds) -> list[_HashedSeed]:
    """The harness's seed sequence for each seed: its 8 output words as 4 uint64."""
    words = np.ascontiguousarray(_seed_state(_words(seeds), 8), dtype="<u4")
    return [_HashedSeed(w) for w in words.view("<u8")]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(SEEDS), st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**64 - 1)), min_size=1, max_size=20))
def test_pcg64_states_match_numpy(seeds):
    # a seed below 2**32 is numpy's one-word entropy, which derived seeds rarely are
    for hashed, s in zip(_hashed_seeds(seeds), seeds):
        numpy_seq = np.random.SeedSequence(s)
        for n_words, dtype in ((8, np.uint32), (4, np.uint64), (3, np.uint32), (1, np.uint64)):
            got = hashed.generate_state(n_words, dtype)
            assert got.dtype == dtype
            np.testing.assert_array_equal(got, numpy_seq.generate_state(n_words, dtype))
        assert np.random.PCG64(hashed).state == np.random.PCG64(s).state, s


@pytest.mark.parametrize("n_words, dtype, held", [(9, np.uint32, 8), (5, np.uint64, 4)])
def test_hashed_seed_refuses_more_words_than_it_holds(n_words, dtype, held):
    (hashed,) = _hashed_seeds([7])
    with pytest.raises(ValueError, match=f"^{n_words} words requested, {held} held$"):
        hashed.generate_state(n_words, dtype)


@settings(max_examples=50, deadline=None)
@given(st.lists(ENTROPY_VALUES, min_size=0, max_size=4), st.integers(1, 12),
       st.sampled_from([1, 2, 17, 600]))
def test_seeded_generators_are_default_rng_of_derived_seeds(prefix, n, n_draw):
    rngs = _seeded_generators(prefix, n)
    assert len(rngs) == n
    for t, rng in enumerate(rngs):
        want = np.random.default_rng(derive_seed(*prefix, t))
        assert rng.bit_generator.state == want.bit_generator.state, t
        np.testing.assert_array_equal(rng.permutation(n_draw), want.permutation(n_draw))
