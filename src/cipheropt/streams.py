"""Keyed uniform streams, numpy's own bit for bit, derived many keys at a time;
the labels of every random stream a seed feeds; the checks of input numbers;
and the line reader and writer of the description files.

`KeyedStream(seed, prefix).fill_span(k0, out)` fills row i of `out` exactly as

    keyed_rng(seed, *prefix, k0 + i).random(out[i].shape)

would, without building a `SeedSequence`, a `PCG64` and a `Generator` per
key. Both algorithms are public: `SeedSequence` is O'Neill's `seed_seq` hash
on uint32 words, and `PCG64` is a 128-bit LCG with XSL-RR output (O'Neill,
"PCG", HMC-CS-2014-0905). The seed and prefix words are
mixed into the four-word pool once; every key then adds one word, hashed
with constants that depend only on its position. So a block of 64
consecutive keys is hashed as uint32 vectors, and each key's PCG64 seeding
numbers are set up as uint64 word pairs, two per 128-bit number.

A key with few draws needs no generator at all: an LCG's j-th state is
A_j·state + C_j·inc mod 2^128, with A_j = M^j and C_j = 1 + M + ... +
M^(j-1) fixed by the multiplier M, so every draw of a block of keys comes
from one vectorized pass of 128-bit products on uint64 words, then the
XSL-RR output and (x >> 11)·2^-53, as counter-based generators do (Salmon
et al., "Parallel random numbers: as easy as 1, 2, 3", SC 2011). The pass
is cached per block. A key with many draws is drawn by one reused `PCG64`
in C, its state set from the block's words.
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
_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_POOL = 4
BLOCK = 64  # keys derived together; a multiple of 64 never straddles 2**32
# Keys with at most this many draws are drawn by the block's vectorized pass,
# the rest one `Generator.random` each. Per key of a 64-key block, hash
# included (the table in CHANGES.md), the pass took 2.5 µs at 1 draw, 4.4 at
# 64, 6.6 at 128 and 12.5 at 288, the generator 5.7 to 6.4 µs up to 128 draws
# and 7.4 at 288. They cross between 96 and 128 draws; at 64 the pass won in
# every run. It keeps m = 6 (9 masks, 30 weights a key) on the pass and m = 48
# (288 masks, 2256 weights) off it.
_PASS_DRAWS = 64

_U64 = np.uint64
_LO32, _32 = _U64(_M32), _U64(32)


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


def _mul128(ah, al, bh, bl):
    """(hi, lo) words of a·b mod 2^128 from the uint64 words of a and b; every
    product wraps mod 2^64, and the high word of al·bl comes from 32-bit halves
    (Knuth, TAOCP vol. 2, 4.3.1), none of whose sums can carry out of 64 bits."""
    a0, a1, b0, b1 = al & _LO32, al >> _32, bl & _LO32, bl >> _32
    cross = a1 * b0
    mid = (a0 * b0 >> _32) + (cross & _LO32) + a0 * b1
    return a1 * b1 + (cross >> _32) + (mid >> _32) + ah * bl + al * bh, al * bl


def _jumps(count) -> np.ndarray:
    """(2, 2, count) uint64 words [hi, lo][A, C] of (A_j, C_j), j = 2 .. count+1:
    numpy seeds a PCG64 one step past t = s + inc, so draw i of a key is the
    output of state A_{i+2}·t + C_{i+2}·inc, with A_j = M^j and C_j = 1 + ... + M^(j-1)."""
    a, c = [1], [0]  # A_0, C_0
    while len(a) < count + 2:  # A_{j+1} = M·A_j, C_{j+1} = C_j + A_j
        a, c = a + [a[-1] * _PCG_MULT & _M128], c + [c[-1] + a[-1] & _M128]
    return np.array([[[v >> 64 for v in a[2:]], [v >> 64 for v in c[2:]]],
                     [[v & _M64 for v in a[2:]], [v & _M64 for v in c[2:]]]], dtype=_U64)


_JUMPS = _jumps(_PASS_DRAWS)

# The label of each random stream a seed feeds, the first word of its spawn key after
# the seed: (seed, label, *key). Distinct, so no two uses of one seed share draws.
STREAMS = {"activation": 11, "activation_seed": 12, "instance": 21, "noise": 22, "start": 31,
           "weights": 32, "sampler": 41, "probes": 51}


def keyed_rng(seed: int, *key) -> np.random.Generator:
    """numpy's generator of the stream keyed (seed, *key)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def read_lines(path) -> list:
    """The lines of the UTF-8 description file `path` that are neither blank nor a
    `#` comment, each as (its words, "path:line")."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(parts, f"{path}:{n}") for n, parts in enumerate(map(str.split, fh), 1)
                if parts and not parts[0].startswith("#")]


def put_once(table: dict, key, value, where: str):
    """table[key] = (value, where) for the line at `where`; a ValueError naming both
    lines if an earlier one set `key`."""
    if key in table:
        raise ValueError(f"{where}: repeated {key!r} line, first at {table[key][1]}")
    table[key] = (value, where)


def write_lines(path, lines):
    """Write `lines` to the UTF-8 description file `path`, one a line."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_seed(name: str, value):
    """`value` as an int if it is a non-negative whole number (not a bool), else a
    ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative whole number, got {value!r}")
    return int(value)


def check_count(name: str, value) -> int:
    """`value` as an int if it is a whole number of at least 1 (not a bool), else a
    ValueError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a whole number of at least 1, got {value!r}")
    return int(value)


def check_positive(name: str, value) -> float:
    """`value` as a float if it is a positive, finite real number (not a bool), else
    a ValueError naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value > 0)):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


def check_width(name: str, value) -> float:
    """`value` as a float if it is positive and [-value, value] has a finite width
    (`check_positive`, and 2 * value finite), else a ValueError naming `name`."""
    value = check_positive(name, value)
    if not math.isfinite(2.0 * value):
        raise ValueError(f"{name} must leave [-{name}, {name}] a finite width, got {value!r}")
    return value


def check_non_negative(name: str, value) -> float:
    """`value` as a float if it is a non-negative, finite real number (not a bool),
    else a ValueError naming `name`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (math.isfinite(value) and value >= 0)):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return float(value)


class KeyedStream:
    """The uniform streams keyed (seed, *prefix, key) for every key >= 0.

    `seed` and each entry of the non-empty `prefix` must be non-negative
    integers (`check_seed`). The PCG64 words of the last block of keys asked
    for are cached, and so is the last block's pass, so keys may come in any
    order and a run of consecutive keys hashes, and draws by the pass, once
    per block.
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
        self._start, self._block_words = None, None  # the cached block's words
        self._ints = None, None  # (start, the words as Python ints) for per-key draws
        self._drawn = None, 0, None  # (start, draws, uniforms) of the cached pass
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)

    def _words_of(self, start) -> np.ndarray:
        """The keys start .. start + BLOCK - 1 as a (2, 2, BLOCK) uint64 array of
        words [hi, lo][t, inc]: each key's PCG64 inc = 2q + 1 and t = s + inc, the
        state numpy's seeding steps once (state = t·M + inc)."""
        if start != self._start:
            keys = np.arange(start, start + BLOCK, dtype=np.uint32)
            pool = self._pool * np.uint32(_MIX_L) - _shift_xor(
                (keys ^ self._key_xor) * self._key_mul) * np.uint32(_MIX_R)
            words = _shift_xor((_shift_xor(pool)[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _STATE_XOR)
                               * _STATE_MUL)
            s_hi, s_lo, q_hi, q_lo = words[0::2].astype(_U64) | (words[1::2].astype(_U64) << _32)
            i_hi, i_lo = (q_hi << _U64(1)) | (q_lo >> _U64(63)), (q_lo << _U64(1)) | _U64(1)
            t_lo = s_lo + i_lo
            t_hi = s_hi + i_hi + (t_lo < s_lo)
            self._start, self._block_words = start, np.array([[t_hi, i_hi], [t_lo, i_lo]])
        return self._block_words

    def _pass(self, start, draws) -> np.ndarray:
        """The (BLOCK, draws) uniforms of the keys start .. start + BLOCK - 1."""
        # both products A·t and C·inc at once, on (2, BLOCK, draws) words
        hi, lo = _mul128(*_JUMPS[:, :, None, :draws], *self._words_of(start)[..., None])
        lo, lo_c = lo
        lo += lo_c
        hi = hi[0] + hi[1] + (lo < lo_c)
        v, rot = hi ^ lo, hi >> _U64(58)  # XSL-RR: xor the halves, rotate by the top 6 bits
        x = (v >> rot) | (v << ((_U64(64) - rot) & _U64(63)))
        return (x >> _U64(11)) * 2.0**-53

    def fill_span(self, k0: int, out: np.ndarray) -> np.ndarray:
        """Fill row i of the float64 `out` with the uniforms of stream k0 + i.

        Each row `out[i]` must be C-contiguous; `out` itself need not be."""
        if not len(out):
            return out
        draws, end, key = out.size // len(out), k0 + len(out), k0
        while key < end and key <= _M32:
            start = key - key % BLOCK
            stop = min(start + BLOCK, end)
            if draws <= _PASS_DRAWS:
                if self._drawn[:2] != (start, draws):
                    self._drawn = start, draws, self._pass(start, draws)
                rows = self._drawn[2][key - start:stop - start]
                out[key - k0:stop - k0] = rows.reshape((stop - key,) + out.shape[1:])
            else:
                if self._ints[0] != start:
                    self._ints = start, self._words_of(start).tolist()
                (t_hi, i_hi), (t_lo, i_lo) = self._ints[1]
                for j in range(key - start, stop - start):
                    inc = i_hi[j] << 64 | i_lo[j]
                    state = ((t_hi[j] << 64 | t_lo[j]) * _PCG_MULT + inc) & _M128
                    self._bits.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                        "state": {"state": state, "inc": inc}}
                    self._gen.random(out=out[start + j - k0, ...])
            key = stop
        for key in range(key, end):  # two key words: numpy's own chain
            keyed_rng(self.seed, *self.prefix, key).random(out=out[key - k0, ...])
        return out
