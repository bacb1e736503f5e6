import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.streams import _PASS_DRAWS, STREAMS, KeyedStream


def numpy_stream(seed, prefix, key, shape):
    """The oracle: numpy's own SeedSequence -> PCG64 -> Generator chain."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=prefix + (key,))
    return np.random.default_rng(ss).random(shape)


def filled(stream, key, shape):
    """Stream `key` drawn as a span of one key."""
    out = np.empty((1,) + shape)
    assert stream.fill_span(key, out) is out
    return out[0]


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


# `fill_span(k0, out)` draws keys k0 .. k0+n-1 into out's rows: keys of at most
# `_PASS_DRAWS` draws from the block's vectorized pass, the others one
# generator each, and keys from 2**32 on numpy's own chain. Spans cross the
# 64-key blocks and 2**32, with draw counts on both sides of the crossover.
DRAWS = st.sampled_from([(1,), (9,), (30,), (6, 5), (2256,), (48, 47)])
SPAN_STARTS = st.one_of(st.integers(0, 300),
                        st.builds(lambda q, back: 64 * q - back, st.integers(1, 10**6),
                                  st.integers(1, 40)),
                        st.integers(2**32 - 70, 2**32 + 3))


def spanned(seed, prefix, k0, n, draws):
    return np.stack([numpy_stream(seed, prefix, k0 + i, draws) for i in range(n)]) \
        if n else np.empty((0,) + draws)


@settings(max_examples=150, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
       prefix=PREFIXES, k0=SPAN_STARTS, n=st.integers(0, 80), draws=DRAWS)
def test_span_bit_equal_to_numpy_chain(seed, prefix, k0, n, draws):
    stream = KeyedStream(seed, prefix)
    out = np.empty((n,) + draws)
    assert stream.fill_span(k0, out) is out
    assert out.tobytes() == spanned(seed, prefix, k0, n, draws).tobytes()


@pytest.mark.parametrize("draws", [(1,), (9,), (30,), (_PASS_DRAWS,), (_PASS_DRAWS + 1,),
                                   (2256,)])
def test_span_into_strided_rows_and_again_from_the_cache(draws):
    """Rows of a wider array, as a batch's (rounds, trials, m, n) draws: each row
    is contiguous, the span is not. Asking again, or for a sub-span, reads the
    cached block."""
    seed, prefix = 2**64 - 1, (32, 2**32 + 5)
    stream = KeyedStream(seed, prefix)
    want = spanned(seed, prefix, 60, 70, draws)
    for k0, n in ((60, 70), (60, 70), (64, 3), (127, 3), (60, 4)):
        batch = np.zeros((n, 3) + draws)
        stream.fill_span(k0, batch[:, 1])
        assert batch[:, 1].tobytes() == want[k0 - 60:k0 - 60 + n].tobytes()
        assert not batch[:, 0].any() and not batch[:, 2].any()


def test_stream_labels_are_distinct():
    labels = list(STREAMS.values())
    assert len(set(labels)) == len(labels)
    assert sorted(labels) == [11, 12, 21, 22, 31, 32, 41, 51]  # every digest reads these
