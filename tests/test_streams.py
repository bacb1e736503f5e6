import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.streams import KeyedStream


def numpy_stream(seed, prefix, key, shape):
    """The oracle: numpy's own SeedSequence -> PCG64 -> Generator chain."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=prefix + (key,))
    return np.random.default_rng(ss).random(shape)


def filled(stream, key, shape):
    out = np.empty(shape)
    assert stream.fill(key, out) is out
    return out


SEEDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1),
                  st.integers(0, 2**128 - 1), st.sampled_from([0, 2**64 - 1, 2**128 - 1]))
PREFIXES = st.one_of(st.just((11,)),
                     st.tuples(st.just(32), st.one_of(st.integers(0, 100),
                                                      st.integers(0, 2**32 + 5))))
KEYS = st.one_of(st.integers(0, 10**6), st.sampled_from([0, 63, 64, 2**32 - 1, 2**32 + 3]))
SHAPES = st.one_of(st.integers(0, 400).map(lambda n: (n,)),
                   st.integers(2, 20).map(lambda m: (m, m - 1)))


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, prefix=PREFIXES, keys=st.lists(KEYS, min_size=1, max_size=4), shape=SHAPES)
def test_bit_equal_to_numpy_chain(seed, prefix, keys, shape):
    stream = KeyedStream(seed, prefix)
    for key in keys:
        assert filled(stream, key, shape).tobytes() == \
            numpy_stream(seed, prefix, key, shape).tobytes()


@pytest.mark.parametrize("prefix", [(11,), (32, 4), (32, 2**32 + 5)])
def test_random_access_order(prefix):
    stream = KeyedStream(2**64 - 1, prefix)
    for key in (70, 3, 69, 64, 63, 70):
        assert filled(stream, key, (6, 5)).tobytes() == \
            numpy_stream(2**64 - 1, prefix, key, (6, 5)).tobytes()


@pytest.mark.parametrize("key", [2**32 - 64, 2**32 - 1, 2**32, 2**32 + 3, 2**64 + 1])
def test_keys_at_and_past_one_word(key):
    # from 2**32 a key takes two words and is drawn on numpy's own chain
    stream = KeyedStream(7, (32, 1))
    for k in (key, 5, key):
        assert filled(stream, k, (30,)).tobytes() == numpy_stream(7, (32, 1), k, (30,)).tobytes()


def test_empty_prefix_rejected():
    with pytest.raises(ValueError, match="prefix"):
        KeyedStream(0, ())
