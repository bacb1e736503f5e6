import dataclasses
import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.channel import (
    HEADER_SIZE,
    KIND_S,
    KIND_W,
    KIND_Y,
    NONCE_SIZE,
    TAG_SIZE,
    CipherEnvelope,
    DecodeError,
    NonceCounter,
    PlainPayload,
    SharedKey,
    TamperError,
    decode_payload,
    decrypt,
    encode_payload,
    encrypt,
    hex_dump_pair,
)

KEY = SharedKey.from_seed(0)


def payload(kind=KIND_Y, data=(1.5, -2.25), sender=1, receiver=2, k=3):
    if kind == KIND_W:
        data = data[:1]
    return PlainPayload(sender=sender, receiver=receiver, k=k, kind=kind, data=data)


class TestFraming:
    def test_header_is_twenty_bytes(self):
        assert HEADER_SIZE == 20

    def test_w_frame_is_twenty_eight_bytes(self):
        raw = encode_payload(payload(kind=KIND_W))
        assert len(raw) == 28

    def test_round_trip_exact(self):
        p = payload(data=(0.1, -1e300, 5e-324, math.pi))
        assert decode_payload(encode_payload(p)) == p

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=40))
    def test_round_trip_any_finite_floats(self, values):
        p = PlainPayload(sender=9, receiver=4, k=100, kind=KIND_S, data=tuple(values))
        back = decode_payload(encode_payload(p))
        assert back.data == p.data  # bit-exact, not approx

    def test_magic_checked(self):
        raw = bytearray(encode_payload(payload()))
        raw[0] ^= 0xFF
        with pytest.raises(DecodeError, match="magic"):
            decode_payload(bytes(raw))

    def test_version_checked(self):
        raw = bytearray(encode_payload(payload()))
        raw[4] = 200
        with pytest.raises(DecodeError, match="version"):
            decode_payload(bytes(raw))

    def test_kind_byte_checked(self):
        raw = bytearray(encode_payload(payload()))
        raw[17] = 0x7A
        with pytest.raises(DecodeError, match="kind"):
            decode_payload(bytes(raw))

    def test_truncated_data_rejected(self):
        raw = encode_payload(payload())
        with pytest.raises(DecodeError, match="length"):
            decode_payload(raw[:-3])

    def test_short_buffer_rejected(self):
        with pytest.raises(DecodeError, match="short"):
            decode_payload(b"PPDO")

    def test_w_payload_must_be_scalar(self):
        with pytest.raises(ValueError):
            PlainPayload(sender=1, receiver=2, k=0, kind=KIND_W, data=(1.0, 2.0))

    def test_empty_payload_rejected(self):
        with pytest.raises(ValueError):
            PlainPayload(sender=1, receiver=2, k=0, kind=KIND_Y, data=())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PlainPayload(sender=1, receiver=2, k=0, kind="Q", data=(1.0,))


class TestKeys:
    def test_from_seed_deterministic(self):
        assert SharedKey.from_seed(7).key == SharedKey.from_seed(7).key
        assert SharedKey.from_seed(7).key != SharedKey.from_seed(8).key

    def test_generate_produces_distinct_keys(self):
        assert SharedKey.generate().key != SharedKey.generate().key

    def test_key_length_enforced(self):
        with pytest.raises(ValueError):
            SharedKey(b"short")


class TestNonces:
    def test_monotone_and_unique(self):
        counter = NonceCounter(sender=3)
        seen = {counter.next() for _ in range(500)}
        assert len(seen) == 500

    def test_disjoint_across_senders(self):
        a = {NonceCounter(sender=1).next() for _ in range(1)}
        b = {NonceCounter(sender=2).next() for _ in range(1)}
        assert a.isdisjoint(b)

    def test_layout(self):
        counter = NonceCounter(sender=7)
        counter.next()
        assert counter.next() == struct.pack("<QI", 1, 7)


class TestEncryption:
    def test_seal_and_open(self):
        counter = NonceCounter(sender=1)
        p = payload()
        assert decrypt(KEY, encrypt(KEY, p, counter)) == p

    def test_wire_round_trip(self):
        counter = NonceCounter(sender=1)
        env = encrypt(KEY, payload(), counter)
        again = CipherEnvelope.from_bytes(env.to_bytes())
        assert again == env
        assert decrypt(KEY, again) == payload()

    def test_envelope_size(self):
        env = encrypt(KEY, payload(kind=KIND_W), NonceCounter(1))
        # clear header + nonce + sealed frame + 16-byte tag
        assert len(env.to_bytes()) == HEADER_SIZE + NONCE_SIZE + 28 + 16

    def test_bit_flip_in_ciphertext_rejected(self):
        env = encrypt(KEY, payload(), NonceCounter(1))
        body = bytearray(env.ciphertext)
        body[5] ^= 0x01
        tampered = CipherEnvelope(env.sender, env.receiver, env.k, env.kind,
                                  env.nonce, bytes(body))
        with pytest.raises(TamperError):
            decrypt(KEY, tampered)

    def test_header_tampering_rejected(self):
        env = encrypt(KEY, payload(), NonceCounter(1))
        rerouted = CipherEnvelope(env.sender, 5, env.k, env.kind,
                                  env.nonce, env.ciphertext)
        with pytest.raises(TamperError):
            decrypt(KEY, rerouted)

    def test_kind_swap_rejected(self):
        env = encrypt(KEY, payload(kind=KIND_S), NonceCounter(1))
        relabeled = CipherEnvelope(env.sender, env.receiver, env.k, KIND_Y,
                                   env.nonce, env.ciphertext)
        with pytest.raises(TamperError):
            decrypt(KEY, relabeled)

    def test_wrong_key_rejected(self):
        env = encrypt(KEY, payload(), NonceCounter(1))
        with pytest.raises(TamperError):
            decrypt(SharedKey.from_seed(1), env)

    def test_identical_payloads_distinct_ciphertexts(self):
        counter = NonceCounter(sender=1)
        p = payload()
        seen = {encrypt(KEY, p, counter).ciphertext for _ in range(50)}
        assert len(seen) == 50

    def test_mangled_envelope_bytes_rejected(self):
        with pytest.raises(DecodeError):
            CipherEnvelope.from_bytes(b"\x00" * 64)

    def test_envelope_header_count_is_ignored(self):
        raw = bytearray(encrypt(KEY, payload(), NonceCounter(1)).to_bytes())
        raw[18:20] = struct.pack("<H", 2)
        env = CipherEnvelope.from_bytes(bytes(raw))
        assert env.to_bytes()[18:20] == b"\0\0"
        assert decrypt(KEY, env) == payload()

    @pytest.mark.parametrize("n", [0, 4, HEADER_SIZE - 1, HEADER_SIZE, 25,
                                   HEADER_SIZE + NONCE_SIZE + TAG_SIZE - 1])
    def test_short_envelope_bytes_rejected(self, n):
        raw = encrypt(KEY, payload(), NonceCounter(1)).to_bytes()
        with pytest.raises(DecodeError, match="short"):
            CipherEnvelope.from_bytes(raw[:n])


class TestRecords:
    @pytest.mark.parametrize("field", ["sender", "receiver", "k", "kind", "data", "frame"])
    def test_payload_rejects_assignment(self, field):
        p = payload()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, field, 1)
        with pytest.raises(AttributeError):
            p.extra = 1
        assert p == payload()

    @pytest.mark.parametrize("field", ["sender", "receiver", "k", "kind", "nonce", "ciphertext"])
    def test_envelope_rejects_assignment(self, field):
        env = encrypt(KEY, payload(), NonceCounter(1))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(env, field, 1)
        with pytest.raises(AttributeError):
            del env.nonce

    def test_fields_read_back(self):
        p = PlainPayload(4, 9, 2**32 - 1, KIND_S, [1, -0.0, 2.5])
        assert (p.sender, p.receiver, p.k, p.kind) == (4, 9, 2**32 - 1, KIND_S)
        assert p.data == (1.0, -0.0, 2.5) and all(type(v) is float for v in p.data)
        env = encrypt(KEY, p, NonceCounter(4))
        assert (env.sender, env.receiver, env.k, env.kind) == (4, 9, 2**32 - 1, KIND_S)
        assert env.nonce == struct.pack("<QI", 0, 4)
        assert env == CipherEnvelope(4, 9, 2**32 - 1, KIND_S, env.nonce, env.ciphertext)

    def test_round_trips_compare_and_hash_equal(self):
        p = payload(data=(float("nan"), -0.0, 5e-324))
        env = encrypt(KEY, p, NonceCounter(1))
        again = CipherEnvelope.from_bytes(env.to_bytes())
        opened = decrypt(KEY, again)
        assert again == env and hash(again) == hash(env)
        assert opened == p and hash(opened) == hash(p)
        assert decode_payload(encode_payload(p)) == p
        assert pickle.loads(pickle.dumps(p)) == p
        assert pickle.loads(pickle.dumps(env)) == env
        assert p != payload(data=(float("nan"), 0.0, 5e-324))
        assert p != env

    @pytest.mark.parametrize("field,value", [("sender", -1), ("receiver", 2**32), ("k", -5),
                                             ("k", 2**32)])
    def test_header_field_outside_u32_rejected(self, field, value):
        fields = {"sender": 1, "receiver": 2, "k": 3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must lie in 0..4294967295, got {value}$"):
            PlainPayload(kind=KIND_Y, data=(1.0,), **fields)
        with pytest.raises(ValueError, match=f"^{field} must lie in 0..4294967295, got {value}$"):
            CipherEnvelope(kind=KIND_Y, nonce=bytes(NONCE_SIZE), ciphertext=bytes(TAG_SIZE),
                           **fields)

    def test_oversized_payload_rejected(self):
        with pytest.raises(ValueError, match="too long"):
            PlainPayload(1, 2, 0, KIND_Y, [0.0] * 0x10000)

    @pytest.mark.parametrize("kind,n", [(KIND_Y, 0), (KIND_W, 2)])
    def test_decode_rejects_impossible_counts(self, kind, n):
        raw = bytearray(encode_payload(payload(kind=KIND_Y, data=(1.0, 2.0))))
        raw[17] = {KIND_Y: 0x59, KIND_W: 0x57}[kind]
        raw[18:20] = struct.pack("<H", n)
        with pytest.raises(DecodeError, match="cannot carry"):
            decode_payload(bytes(raw[:HEADER_SIZE + 8 * n]))


class TestHexDump:
    def test_rows_cover_longest_side(self):
        env = encrypt(KEY, payload(), NonceCounter(1))
        plain = encode_payload(payload())
        dump = hex_dump_pair(plain, env.to_bytes())
        assert len(dump.splitlines()) == -(-len(env.to_bytes()) // 16)
        assert "|" in dump
