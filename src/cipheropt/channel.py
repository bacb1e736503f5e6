"""Authenticated encryption and framing for the weighted messages.

Every message an agent sends is one of three payload kinds: a weighted state
vector (Y), a weighted tracker vector (S), or a weighted scalar mass (W).
Payloads are framed into a canonical byte layout, then sealed with
AES-256-GCM under a pre-shared 256-bit key. The clear header travels as
associated data, so any tampering with routing or iteration fields breaks
authentication even though they are not secret.

Wire layout of a framed payload (all integers little-endian):

    magic "PPDO" | version u8 | sender u32 | receiver u32 | k u32
    | kind u8 | count u16 | count * f64

An envelope on the wire is that header in clear, with count 0, then nonce
(12 bytes), then ciphertext || 16-byte tag.

Payloads and envelopes are `bytes`: a record is exactly those bytes and
reads its fields from them, so frames packed a block at once are sealed and
opened as they are, without being parsed or packed again. `wrap` makes a
record of a copy of the bytes it is given, unchecked; the constructors check.

A played block of rounds is packed at once (`pack_frames`): every header
set and every value written before the first round is sealed; each round's
frames are then cut from it (`cut_frames`).

Nonces are 8-byte counter || 4-byte sender, and trial t's counters run from
t * 2^32. Each counter is fixed once a block's messages are known, so every
nonce of a block, over every trial of a batch, is laid out at once by
`BlockNonces` over the batch's (trial, sender) counters and taken a round
at a time; `encrypt` seals a frame under the nonce it is given, and
`open_envelopes` opens a round's envelopes in one pass.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache, partial
from operator import itemgetter

import numpy as np
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

MAGIC = b"PPDO"
VERSION = 1

KIND_Y = "Y"
KIND_S = "S"
KIND_W = "W"
_KIND_BYTES = {KIND_Y: 0x59, KIND_S: 0x53, KIND_W: 0x57}
_BYTE_KINDS = {v: k for k, v in _KIND_BYTES.items()}

# the clear header's fields, in wire order: every frame starts with one such record
_FRAME_HEADER = [("magic", "S4"), ("version", "u1"), ("sender", "<u4"), ("receiver", "<u4"),
                 ("k", "<u4"), ("kind", "u1"), ("count", "<u2")]
_HEADER = np.dtype(_FRAME_HEADER)
HEADER_SIZE = _HEADER.itemsize
_ROUTE_SIZE = HEADER_SIZE - 2  # the header up to the count: magic .. kind
NONCE_SIZE = 12
TAG_SIZE = 16
_U32 = 0xFFFFFFFF
_PER_TRIAL = 2**32  # nonces of one sender in one trial
_NONCE = struct.Struct("<QI")  # counter, sender


class TamperError(ValueError):
    """Authentication failed: wrong key, altered ciphertext, or altered header."""


class DecodeError(ValueError):
    """Bytes do not parse as a framed payload."""


@dataclass(frozen=True)
class SharedKey:
    """A 256-bit AES key provisioned to every agent before iteration 0."""

    key: bytes

    def __post_init__(self):
        if len(self.key) != 32:
            raise ValueError(f"key must be exactly 32 bytes, got {len(self.key)}")

    @classmethod
    def from_seed(cls, seed: int) -> "SharedKey":
        """Deterministic key for reproducible simulations (not for production use)."""
        material = hashlib.sha256(b"cipheropt-shared-key:" + str(int(seed)).encode()).digest()
        return cls(material)

    @classmethod
    def generate(cls) -> "SharedKey":
        return cls(AESGCM.generate_key(bit_length=256))


class _Record(bytes):
    """An immutable record that is its bytes; sender, receiver, k and kind are
    read from the header they start with."""

    __slots__ = ()

    @classmethod
    def wrap(cls, wire: bytes):
        """The record whose bytes are a copy of `wire`, taken as they are: unchecked."""
        return bytes.__new__(cls, wire)

    sender = property(lambda self: _read_header(self)[0])
    receiver = property(lambda self: _read_header(self)[1])
    k = property(lambda self: _read_header(self)[2])
    kind = property(lambda self: _read_header(self)[3])

    def __setattr__(self, name, value=None):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce_ex__(self, protocol):
        return type(self).wrap, (bytes(self),)


class PlainPayload(_Record):
    """One weighted message: who, when, which kind, and the scaled numbers.

    It is its frame, `frame`; `data` is the tuple of floats read from it.
    """

    __slots__ = ()

    def __new__(cls, sender: int, receiver: int, k: int, kind: str, data):
        if kind not in _KIND_BYTES:
            raise ValueError(f"kind must be one of Y, S, W, got {kind!r}")
        if kind == KIND_W and len(data) != 1:
            raise ValueError("a W payload carries exactly one entry")
        if len(data) == 0:
            raise ValueError("payload data must be non-empty")
        if len(data) > 0xFFFF:
            raise ValueError(f"payload too long: {len(data)} entries")
        values = np.array([float(v) for v in data], dtype="<f8")
        return cls.wrap(_header(sender, receiver, k, kind, len(values)) + values.tobytes())

    frame = property(bytes)
    data = property(lambda self: tuple(np.frombuffer(self, "<f8", offset=HEADER_SIZE).tolist()))


_NONCE_AT = itemgetter(slice(HEADER_SIZE, HEADER_SIZE + NONCE_SIZE))
_SEALED_AT = itemgetter(slice(HEADER_SIZE + NONCE_SIZE, None))
_HEADER_AT = itemgetter(slice(HEADER_SIZE))


class CipherEnvelope(_Record):
    """Clear header, unique nonce, and AESGCM ciphertext (tag appended).

    It is its wire bytes; the header they start with is the associated
    data the ciphertext was sealed under.
    """

    __slots__ = ()

    def __new__(cls, sender: int, receiver: int, k: int, kind: str, nonce: bytes,
                ciphertext: bytes):
        header = _header(sender, receiver, k, kind)
        if len(nonce) != NONCE_SIZE:
            raise ValueError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        if len(ciphertext) < TAG_SIZE:
            raise ValueError(f"ciphertext must hold at least the {TAG_SIZE}-byte tag, "
                             f"got {len(ciphertext)} bytes")
        return cls.wrap(header + bytes(nonce) + bytes(ciphertext))

    nonce = property(_NONCE_AT)
    ciphertext = property(_SEALED_AT)

    def to_bytes(self) -> bytes:
        return bytes(self)

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipherEnvelope":
        _read_header(raw)
        if len(raw) < HEADER_SIZE + NONCE_SIZE + TAG_SIZE:
            raise DecodeError(f"short envelope: {len(raw)} bytes, a header, nonce and tag "
                              f"take {HEADER_SIZE + NONCE_SIZE + TAG_SIZE}")
        return cls.wrap(b"".join((raw[:_ROUTE_SIZE], b"\0\0", raw[HEADER_SIZE:])))


def nonce_trials(trials) -> np.ndarray:
    """`trials` as the array `BlockNonces` takes; ValueError if one lies outside
    0..2^32-1, where it would own no counter range."""
    for trial in trials:
        if not 0 <= trial <= _U32:
            raise ValueError(f"trial must lie in 0..{_U32} to own its nonces, got {trial}")
    return np.array(trials, dtype=np.int64)


def _exhausted(sender, trial) -> OverflowError:
    return OverflowError(f"nonce counter of sender {sender} exhausted: 2^32 messages "
                         f"in trial {trial}")


class NonceCounter:
    """Per-sender nonce source: 8-byte message counter || 4-byte sender id.

    Each sender owns its counter, and in trial t it counts from t * 2^32, so
    the trials of a seed, which share its key, never repeat a nonce either:
    sender ids are distinct and a sender has 2^32 messages to a trial.
    `used`, a one-cell int64 array, holds how many of them it has taken. It
    is the per-frame reference for `BlockNonces`.
    """

    def __init__(self, sender: int, trial: int = 0, used=None):
        self.sender = int(sender)
        self.trial = int(nonce_trials([trial])[0])
        self.used = np.zeros(1, np.int64) if used is None else used

    start = property(lambda self: self.trial << 32)
    end = property(lambda self: self.start + _PER_TRIAL)

    @property
    def count(self) -> int:
        """The counter the next nonce carries."""
        return self.start + int(self.used[0])

    @count.setter
    def count(self, value: int):
        self.used[0] = value - self.start

    def next(self) -> bytes:
        used = int(self.used[0])
        if used == _PER_TRIAL:
            raise _exhausted(self.sender, self.trial)
        self.used[0] = used + 1
        return _NONCE.pack(self.start + used, self.sender)


class BlockNonces:
    """Nonce source of a block of rounds' frames over a batch of trials.

    `used[b, i-1]` counts the nonces sender i has taken in trials[b], the
    trial of batch row b, as its `NonceCounter` counts them. Message t of
    the block is `per_message` frames from sender senders[t] of batch row
    rows[t] in round at[t]; `bounds[r]:bounds[r+1]` are round r's messages.
    Every counter of the block is fixed here, in one pass over the block's
    messages: each (row, sender) counts its frames up from its `used`, in
    the order they come, so they are the nonces a `next()` per frame would
    give (the deterministic construction of NIST SP 800-38D, 8.2.1).

    `round(r)` moves `used` on by round r's frames only and returns their
    nonces in frame order. The round in which a (row, sender) would leave
    its trial's range raises OverflowError from `round`, before its counters
    move or any of its frames is sealed.
    """

    __slots__ = ("used", "_taken", "_bounds", "_nonces", "_crossing")

    def __init__(self, used, trials, at, rows, senders, per_message: int, bounds):
        nt, m = used.shape
        rounds = len(bounds) - 1
        cells = rows * m + senders - 1  # each message's (row, sender)
        taken = np.bincount(at * (nt * m) + cells, minlength=rounds * nt * m)
        self._taken = per_message * taken.reshape(rounds, nt, m)
        sent = np.add.reduce(taken.reshape(rounds, nt * m))
        # a message's place among its cell's messages: its place among the messages
        # sorted by cell, less the messages of the cells before
        place = np.empty(len(cells), np.int64)
        place[cells.argsort(kind="stable")] = np.arange(len(cells))
        first = (used.reshape(-1) - per_message * (sent.cumsum() - sent))[cells] + \
            per_message * place  # the counter of each message's first frame
        played, self._crossing = rounds, None
        if (over := first + per_message > _PER_TRIAL).any():
            t = int(over.argmax())
            played = int(at[t])
            self._crossing = played, _exhausted(int(senders[t]), int(trials[rows[t]]))
        self.used, self._bounds = used, [per_message * b for b in bounds]
        n = bounds[played]  # the messages of the rounds before the crossing one
        # a nonce's bytes as three <u4: the little-endian counter trial * 2^32 + used
        # is the used count, then the trial; then the sender
        nonces = np.empty((n, per_message, 3), "<u4")
        nonces[..., 0] = first[:n, None] + np.arange(per_message)
        nonces[..., 1] = trials[rows[:n], None]
        nonces[..., 2] = senders[:n, None]
        self._nonces = nonces.view(f"V{NONCE_SIZE}").reshape(-1)

    def round(self, r: int) -> list:
        """Round r's nonces, one bytes per frame, its counters taken."""
        if self._crossing is not None and self._crossing[0] == r:
            raise self._crossing[1]
        self.used += self._taken[r]
        return self._nonces[self._bounds[r] : self._bounds[r + 1]].tolist()


def _header(sender, receiver, k, kind, count=0) -> bytes:
    """The clear header; count 0 outside a framed payload."""
    for name, value in (("sender", sender), ("receiver", receiver), ("k", k)):
        if not 0 <= value <= _U32:
            raise ValueError(f"{name} must lie in 0..{_U32}, got {value}")
    return np.array((MAGIC, VERSION, sender, receiver, k, _KIND_BYTES[kind], count),
                    _HEADER).tobytes()


def _read_header(raw: bytes):
    """(sender, receiver, k, kind, count) of a header; DecodeError if it is not one."""
    if len(raw) < HEADER_SIZE:
        raise DecodeError(f"short header: {len(raw)} bytes")
    magic, version, sender, receiver, k, kind_byte, n = np.frombuffer(raw, _HEADER, 1)[0].item()
    if magic != MAGIC:
        raise DecodeError("bad magic")
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}")
    if kind_byte not in _BYTE_KINDS:
        raise DecodeError(f"unknown kind byte {kind_byte:#x}")
    return sender, receiver, k, _BYTE_KINDS[kind_byte], n


def pack_frames(k, senders, receivers, widths) -> np.ndarray:
    """Frames of message t from senders[t] to receivers[t] in round k[t], one
    for each (kind, count) in `widths`, packed in one pass: every header field
    set, the `count` data entries left for the sender to fill.

    Returns one record per message, a field per kind in `widths` order, so the
    record array's bytes are message t's frames back to back.
    """
    layout, blank = _blank_frame(tuple(widths))
    frames = np.empty(len(senders), layout)
    frames.view(np.uint8).reshape(len(senders), layout.itemsize)[...] = blank
    for kind, _ in widths:
        f = frames[kind]
        f["sender"], f["receiver"], f["k"] = senders, receivers, k
    return frames


@lru_cache(maxsize=8)
def _blank_frame(widths) -> tuple:
    """The layout of `pack_frames`' records, and the bytes of one with the fields
    every message shares set (magic, version, kind, count), as a uint8 array."""
    blank = np.zeros((), [(kind, _FRAME_HEADER + [("data", "<f8", (count,))])
                          for kind, count in widths])
    for kind, count in widths:
        f = blank[kind]
        f["magic"], f["version"], f["kind"], f["count"] = MAGIC, VERSION, _KIND_BYTES[kind], count
    raw = np.frombuffer(blank.tobytes(), np.uint8)  # read-only
    return blank.dtype, raw


def cut_frames(frames) -> list:
    """The frames of `pack_frames`' records, one bytes each, in frame order: cut
    a kind at a time, each kind's frames read as one array of fixed-size bytes."""
    kinds = frames.dtype.names
    out = [None] * (len(frames) * len(kinds))
    for j, kind in enumerate(kinds):
        out[j :: len(kinds)] = frames[kind].view(f"V{frames.dtype[kind].itemsize}").tolist()
    return out


def encode_payload(p: PlainPayload) -> bytes:
    """Canonical self-delimiting bytes for a payload; exact float round trip."""
    return p.frame


def decode_payload(raw: bytes) -> PlainPayload:
    _, _, _, kind, n = _read_header(raw)
    if len(raw) != HEADER_SIZE + 8 * n:
        raise DecodeError(f"length mismatch: header promises {n} entries")
    if n == 0 or (kind == KIND_W and n != 1):
        raise DecodeError(f"a {kind} payload cannot carry {n} entries")
    return PlainPayload.wrap(raw)


@lru_cache(maxsize=8)
def _aead(key_bytes: bytes) -> AESGCM:
    return AESGCM(key_bytes)


_envelope = partial(bytes.__new__, CipherEnvelope)  # unchecked, as `CipherEnvelope.wrap`


def encrypt(key: SharedKey, p: PlainPayload, nonce: bytes) -> CipherEnvelope:
    """Seal a payload under `nonce`, which no other payload may take under `key`
    (a `NonceCounter.next()` or a `BlockNonces.round` entry). The clear header
    is bound as associated data."""
    header = p[:_ROUTE_SIZE] + b"\0\0"
    return _envelope(header + nonce + _aead(key.key).encrypt(nonce, p, header))


def wrap_payloads(frames) -> list:
    """`PlainPayload.wrap` of each of `frames`, in one pass."""
    return list(map(partial(bytes.__new__, PlainPayload), frames))


def open_envelopes(key: SharedKey, envelopes) -> list:
    """The frames sealed in `envelopes` (a list of envelopes or of their bytes),
    opened in one pass, as bytes, unparsed; TamperError if any fails authentication."""
    try:
        return list(map(_aead(key.key).decrypt, map(_NONCE_AT, envelopes),
                        map(_SEALED_AT, envelopes), map(_HEADER_AT, envelopes)))
    except InvalidTag as exc:
        raise TamperError("envelope failed authentication") from exc


def decrypt(key: SharedKey, e: CipherEnvelope) -> PlainPayload:
    """Open an envelope; TamperError on any authentication failure."""
    raw = open_envelopes(key, [e])[0]
    p = decode_payload(raw)
    if raw[:_ROUTE_SIZE] != e[:_ROUTE_SIZE]:
        raise TamperError("header does not match sealed payload")
    return p


def hex_dump_pair(plain: bytes, cipher: bytes, width=16) -> str:
    """Side-by-side hex of one message's plaintext and ciphertext."""
    rows = []
    n = max(len(plain), len(cipher))
    for off in range(0, n, width):
        left = plain[off : off + width].hex(" ")
        right = cipher[off : off + width].hex(" ")
        rows.append(f"{off:04x}  {left:<{width * 3 - 1}}  |  {right}")
    return "\n".join(rows)
