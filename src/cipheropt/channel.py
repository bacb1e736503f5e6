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

An envelope on the wire is that header in clear, then nonce (12 bytes),
then ciphertext || 16-byte tag.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache

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
HEADER_SIZE = _HEADER.size
NONCE_SIZE = 12


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


@dataclass(frozen=True)
class PlainPayload:
    """One weighted message: who, when, which kind, and the scaled numbers."""

    sender: int
    receiver: int
    k: int
    kind: str
    data: tuple

    def __post_init__(self):
        if self.kind not in _KIND_BYTES:
            raise ValueError(f"kind must be one of Y, S, W, got {self.kind!r}")
        if self.kind == KIND_W and len(self.data) != 1:
            raise ValueError("a W payload carries exactly one entry")
        if len(self.data) == 0:
            raise ValueError("payload data must be non-empty")
        object.__setattr__(self, "data", tuple(float(v) for v in self.data))


@dataclass(frozen=True)
class CipherEnvelope:
    """Clear header, unique nonce, and AESGCM ciphertext (tag appended)."""

    sender: int
    receiver: int
    k: int
    kind: str
    nonce: bytes
    ciphertext: bytes

    def to_bytes(self) -> bytes:
        return _header(self) + self.nonce + self.ciphertext

    @classmethod
    def from_bytes(cls, raw: bytes) -> "CipherEnvelope":
        sender, receiver, k, kind, _ = _read_header(raw)
        nonce = raw[HEADER_SIZE : HEADER_SIZE + NONCE_SIZE]
        return cls(sender, receiver, k, kind, nonce, raw[HEADER_SIZE + NONCE_SIZE :])


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
        nonce = struct.pack("<QI", self.count, self.sender)
        self.count += 1
        return nonce


def _header(p_or_e, count=0) -> bytes:
    """The clear header of a payload or envelope; count 0 outside a framed payload."""
    return _HEADER.pack(MAGIC, VERSION, p_or_e.sender, p_or_e.receiver, p_or_e.k,
                        _KIND_BYTES[p_or_e.kind], count)


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


def encode_payload(p: PlainPayload) -> bytes:
    """Canonical self-delimiting bytes for a payload; exact float round trip."""
    n = len(p.data)
    if n > 0xFFFF:
        raise ValueError(f"payload too long: {n} entries")
    return _header(p, n) + struct.pack(f"<{n}d", *p.data)


def decode_payload(raw: bytes) -> PlainPayload:
    sender, receiver, k, kind, n = _read_header(raw)
    if len(raw) != HEADER_SIZE + 8 * n:
        raise DecodeError(f"length mismatch: header promises {n} entries")
    data = struct.unpack_from(f"<{n}d", raw, HEADER_SIZE)
    return PlainPayload(sender=sender, receiver=receiver, k=k, kind=kind, data=data)


@lru_cache(maxsize=8)
def _aead(key_bytes: bytes) -> AESGCM:
    return AESGCM(key_bytes)


def encrypt(key: SharedKey, p: PlainPayload, nonce_source: NonceCounter) -> CipherEnvelope:
    """Seal a payload. The clear header is bound as associated data."""
    nonce = nonce_source.next()
    sealed = _aead(key.key).encrypt(nonce, encode_payload(p), _header(p))
    return CipherEnvelope(
        sender=p.sender, receiver=p.receiver, k=p.k, kind=p.kind,
        nonce=nonce, ciphertext=sealed,
    )


def decrypt(key: SharedKey, e: CipherEnvelope) -> PlainPayload:
    """Open an envelope; TamperError on any authentication failure."""
    try:
        raw = _aead(key.key).decrypt(e.nonce, e.ciphertext, _header(e))
    except InvalidTag as exc:
        raise TamperError("envelope failed authentication") from exc
    p = decode_payload(raw)
    if (p.sender, p.receiver, p.k, p.kind) != (e.sender, e.receiver, e.k, e.kind):
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
