"""Keyed uniform streams, numpy's own bit for bit, derived many keys at a time.

`KeyedStream(seed, prefix).fill(key, out)` fills `out` exactly as

    np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=prefix + (key,))).random(out.shape)

would, without building a `SeedSequence`, a `PCG64` and a `Generator` per
key. Both algorithms are public: `SeedSequence` is O'Neill's `seed_seq`
hash on uint32 words, and `PCG64` is a 128-bit LCG with XSL-RR output
(O'Neill, "PCG", HMC-CS-2014-0905). The seed and prefix words are mixed
into the four-word pool once; every key then adds one word, hashed with
constants that depend only on its position. So a block of consecutive keys
is hashed as uint32 vectors, each key's PCG64 (state, inc) is set up in
128-bit Python ints, and the draws come from one reused `PCG64` in C.
"""
from __future__ import annotations

import math
import numbers

import numpy as np

# numpy's SeedSequence hash constants (bit_generator.pyx) and PCG64's multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = 2**32 - 1, 2**128 - 1
_POOL = 4
BLOCK = 64  # keys derived together; a multiple of 64 never straddles 2**32


def _words(n: int) -> int:
    """Number of uint32 words `SeedSequence` reads from the integer n."""
    return max(1, -(-int(n).bit_length() // 32))


def _consts(init, mult, count):
    """(xor, multiply) constants of `count` consecutive hash steps from `init`, as
    (count, 1) uint32 columns: a step xors with the constant, then advances it and
    multiplies by the advanced one."""
    xs = [init]
    for _ in range(count):
        xs.append(xs[-1] * mult & _M32)
    c = np.array(xs, dtype=np.uint32)[:, None]
    return c[:-1], c[1:]


def _shift_xor(v):
    return v ^ (v >> np.uint32(16))


# generate_state(4, uint64) reads the pool words 0..3 twice with these constants
_STATE_XOR, _STATE_MUL = _consts(_INIT_B, _MULT_B, 2 * _POOL)


def check_seed(name: str, value):
    """`value` as an int if it is a non-negative whole number (not a bool), else a
    ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative whole number, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """`value` as a float if it is a positive, finite real number (not a bool), else
    a ValueError naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class KeyedStream:
    """The uniform streams keyed (seed, *prefix, key) for every key >= 0.

    `seed` and each entry of the non-empty `prefix` must be non-negative
    integers (`check_seed`). The (state, inc) pairs of the last block of
    keys asked for are cached, so keys may come in any order and a run of
    consecutive keys hashes once per block.
    """

    def __init__(self, seed: int, prefix: tuple):
        if not prefix:
            raise ValueError("a keyed stream needs a non-empty prefix")
        self.seed, self.prefix = seed, tuple(prefix)
        # With a spawn key the assembled entropy is the seed padded to the pool
        # size, the prefix words and the key word, so the key word is hashed
        # after all the others, with constants fixed by their count.
        before = max(_words(seed), _POOL) + sum(_words(p) for p in self.prefix)
        steps = _POOL * _POOL + _POOL * (before - _POOL)
        self._pool = np.random.SeedSequence(entropy=seed, spawn_key=self.prefix).pool[:, None]
        self._key_xor, self._key_mul = _consts(_INIT_A * pow(_MULT_A, steps, 2**32) & _M32,
                                               _MULT_A, _POOL)
        self._start, self._pairs = None, []
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)

    def _derive(self, start):
        """PCG64 (state, inc) of the keys start .. start + BLOCK - 1."""
        keys = np.arange(start, start + BLOCK, dtype=np.uint32)
        pool = self._pool * np.uint32(_MIX_L) - _shift_xor(
            (keys ^ self._key_xor) * self._key_mul) * np.uint32(_MIX_R)
        words = _shift_xor((_shift_xor(pool)[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_XOR) * _STATE_MUL)
        lo, hi = words[0::2].astype(np.uint64), words[1::2].astype(np.uint64)
        pairs = []
        for s_hi, s_lo, q_hi, q_lo in zip(*(lo | (hi << np.uint64(32))).tolist()):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _M128
            pairs.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _M128, inc))
        return pairs

    def fill(self, key: int, out: np.ndarray) -> np.ndarray:
        """Fill the float64 C-contiguous `out` with the uniforms of stream `key`."""
        if key > _M32:  # two key words: numpy's own chain
            ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.prefix + (key,))
            return np.random.default_rng(ss).random(out=out)
        start = key - key % BLOCK
        if start != self._start:
            self._start, self._pairs = start, self._derive(start)
        state, inc = self._pairs[key - start]
        self._bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
        return self._gen.random(out=out)
