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

Payloads and envelopes are immutable records that hold exactly those bytes
and read their fields from them, so frames packed a round at once are sealed
and opened without being parsed or packed again.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

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

_HEADER = struct.Struct("<4sBIIIBH")  # magic, version, sender, receiver, k, kind, count
_FRAME_HEADER = [("magic", "S4"), ("version", "u1"), ("sender", "<u4"), ("receiver", "<u4"),
                 ("k", "<u4"), ("kind", "u1"), ("count", "<u2")]  # the same, as numpy fields
HEADER_SIZE = _HEADER.size
_ROUTE_SIZE = HEADER_SIZE - 2  # the header up to the count: magic .. kind
NONCE_SIZE = 12
TAG_SIZE = 16
_U32 = 0xFFFFFFFF
_NONCE = struct.Struct("<QI")


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


@dataclass(frozen=True, init=False)
class _Record:
    """An immutable record that is its bytes, `_wire`; sender, receiver, k and
    kind are read from the header those bytes start with."""

    __slots__ = ("_wire",)
    _wire: bytes

    @classmethod
    def wrap(cls, wire: bytes):
        """The record whose bytes are `wire`, taken as they are: unchecked, uncopied."""
        rec = object.__new__(cls)
        _set_wire(rec, wire)
        return rec

    sender = property(lambda self: _read_header(self._wire)[0])
    receiver = property(lambda self: _read_header(self._wire)[1])
    k = property(lambda self: _read_header(self._wire)[2])
    kind = property(lambda self: _read_header(self._wire)[3])

    def __reduce__(self):
        return type(self).wrap, (self._wire,)


_set_wire = _Record._wire.__set__  # the one way to give a record its bytes


@dataclass(frozen=True, init=False)
class PlainPayload(_Record):
    """One weighted message: who, when, which kind, and the scaled numbers.

    It is its frame, `frame`; `data` is the tuple of floats read from it.
    """

    __slots__ = ()

    def __init__(self, sender: int, receiver: int, k: int, kind: str, data):
        if kind not in _KIND_BYTES:
            raise ValueError(f"kind must be one of Y, S, W, got {kind!r}")
        if kind == KIND_W and len(data) != 1:
            raise ValueError("a W payload carries exactly one entry")
        if len(data) == 0:
            raise ValueError("payload data must be non-empty")
        if len(data) > 0xFFFF:
            raise ValueError(f"payload too long: {len(data)} entries")
        values = np.array([float(v) for v in data], dtype="<f8")
        _set_wire(self, _header(sender, receiver, k, kind, len(values)) + values.tobytes())

    frame = property(lambda self: self._wire)
    data = property(lambda self: tuple(np.frombuffer(self._wire, "<f8", offset=HEADER_SIZE).tolist()))


@dataclass(frozen=True, init=False)
class CipherEnvelope(_Record):
    """Clear header, unique nonce, and AESGCM ciphertext (tag appended).

    It is its wire bytes; the header they start with is the associated
    data the ciphertext was sealed under.
    """

    __slots__ = ()

    def __init__(self, sender: int, receiver: int, k: int, kind: str, nonce: bytes,
                 ciphertext: bytes):
        _set_wire(self, _header(sender, receiver, k, kind) + bytes(nonce) + bytes(ciphertext))

    nonce = property(lambda self: self._wire[HEADER_SIZE : HEADER_SIZE + NONCE_SIZE])
    ciphertext = property(lambda self: self._wire[HEADER_SIZE + NONCE_SIZE :])

    def to_bytes(self) -> bytes:
        return self._wire

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipherEnvelope":
        _read_header(raw)
        if len(raw) < HEADER_SIZE + NONCE_SIZE + TAG_SIZE:
            raise DecodeError(f"short envelope: {len(raw)} bytes, a header, nonce and tag "
                              f"take {HEADER_SIZE + NONCE_SIZE + TAG_SIZE}")
        return cls.wrap(b"".join((raw[:_ROUTE_SIZE], b"\0\0", raw[HEADER_SIZE:])))


class NonceCounter:
    """Per-sender nonce source: 8-byte message counter || 4-byte sender id.

    Each sender owns its counter, so nonces never repeat under the shared key
    as long as sender ids are distinct and counters are not reset mid-run.
    """

    def __init__(self, sender: int):
        self.sender = int(sender)
        self.count = 0

    def next(self) -> bytes:
        if self.count >= 2**64:
            raise OverflowError("nonce counter exhausted")
        nonce = _NONCE.pack(self.count, self.sender)
        self.count += 1
        return nonce


def _header(sender, receiver, k, kind, count=0) -> bytes:
    """The clear header; count 0 outside a framed payload."""
    for name, value in (("sender", sender), ("receiver", receiver), ("k", k)):
        if not 0 <= value <= _U32:
            raise ValueError(f"{name} must lie in 0..{_U32}, got {value}")
    return _HEADER.pack(MAGIC, VERSION, sender, receiver, k, _KIND_BYTES[kind], count)


def _read_header(raw: bytes):
    """(sender, receiver, k, kind, count) of a header; DecodeError if it is not one."""
    if len(raw) < HEADER_SIZE:
        raise DecodeError(f"short header: {len(raw)} bytes")
    magic, version, sender, receiver, k, kind_byte, n = _HEADER.unpack_from(raw, 0)
    if magic != MAGIC:
        raise DecodeError("bad magic")
    if version != VERSION:
        raise DecodeError(f"unsupported version {version}")
    if kind_byte not in _BYTE_KINDS:
        raise DecodeError(f"unknown kind byte {kind_byte:#x}")
    return sender, receiver, k, _BYTE_KINDS[kind_byte], n


def pack_frames(k, senders, receivers, parts):
    """Frames of round k, for each t and each (kind, values) in `parts`:
    values[t] from senders[t] to receivers[t], packed in one pass.

    Returns the bytes (message t's frames back to back, in `parts` order),
    the length of one message's frames, and each frame's (kind, start, end).
    """
    layout = np.dtype([(kind, _FRAME_HEADER + [("data", "<f8", values.shape[1:])])
                       for kind, values in parts])
    frames = np.zeros(len(senders), layout)
    for kind, values in parts:
        f = frames[kind]
        f["magic"], f["version"], f["k"], f["kind"] = MAGIC, VERSION, k, _KIND_BYTES[kind]
        f["sender"], f["receiver"] = senders, receivers
        f["count"], f["data"] = values.shape[1], values
    offsets = [(kind, layout.fields[kind][1], layout.fields[kind][1] + layout[kind].itemsize)
               for kind, _ in parts]
    return frames.tobytes(), layout.itemsize, offsets


def encode_payload(p: PlainPayload) -> bytes:
    """Canonical self-delimiting bytes for a payload; exact float round trip."""
    return p.frame


def decode_payload(raw: bytes) -> PlainPayload:
    _, _, _, kind, n = _read_header(raw)
    if len(raw) != HEADER_SIZE + 8 * n:
        raise DecodeError(f"length mismatch: header promises {n} entries")
    if n == 0 or (kind == KIND_W and n != 1):
        raise DecodeError(f"a {kind} payload cannot carry {n} entries")
    return PlainPayload.wrap(bytes(raw))


@lru_cache(maxsize=8)
def _aead(key_bytes: bytes) -> AESGCM:
    return AESGCM(key_bytes)


def encrypt(key: SharedKey, p: PlainPayload, nonce_source: NonceCounter) -> CipherEnvelope:
    """Seal a payload. The clear header is bound as associated data."""
    nonce = nonce_source.next()
    frame = p._wire
    header = frame[:_ROUTE_SIZE] + b"\0\0"
    return CipherEnvelope.wrap(header + nonce + _aead(key.key).encrypt(nonce, frame, header))


def decrypt(key: SharedKey, e: CipherEnvelope) -> PlainPayload:
    """Open an envelope; TamperError on any authentication failure."""
    wire = e._wire
    try:
        raw = _aead(key.key).decrypt(wire[HEADER_SIZE : HEADER_SIZE + NONCE_SIZE],
                                     wire[HEADER_SIZE + NONCE_SIZE :], wire[:HEADER_SIZE])
    except InvalidTag as exc:
        raise TamperError("envelope failed authentication") from exc
    p = decode_payload(raw)
    if raw[:_ROUTE_SIZE] != wire[:_ROUTE_SIZE]:
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
