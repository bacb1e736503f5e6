"""The transport frames each round at once; these pin its bytes and its checks."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cipheropt import engine
from cipheropt.channel import (
    HEADER_SIZE,
    KIND_S,
    KIND_W,
    KIND_Y,
    PlainPayload,
    SharedKey,
    TamperError,
    encode_payload,
)
from cipheropt.engine import Transport

KEY = SharedKey.from_seed(3)

# every float64 class a share can hold, the awkward ones spelled out
FLOATS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.1e-308, float("nan"), float("-nan"),
                     float("inf"), float("-inf")]),
)


def wire_pairs(edges):
    """(senders, receivers) of the (receiver, sender) edges, in wire order."""
    pairs = np.array(sorted((i, l) for (l, i) in edges), dtype=np.intp).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


@st.composite
def rounds(draw):
    m = draw(st.integers(1, 5))
    d = draw(st.integers(1, 3))
    pairs = [(l, i) for l in range(1, m + 1) for i in range(1, m + 1) if l != i]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    jy = draw(arrays(np.float64, (m, m, d), elements=FLOATS))
    js = draw(arrays(np.float64, (m, m, d), elements=FLOATS))
    jw = draw(arrays(np.float64, (m, m), elements=FLOATS))
    return m, edges, jy, js, jw, draw(st.integers(0, 2**32 - 1))


def expected_messages(m, edges, jy, js, jw, k):
    """Per-message framing in wire order: sender, then receiver, then Y, S, W."""
    out = []
    for i in range(1, m + 1):
        for r in sorted(l for (l, j) in edges if j == i):
            for kind, values in ((KIND_Y, jy[r - 1, i - 1]), (KIND_S, js[r - 1, i - 1]),
                                 (KIND_W, jw[r - 1, i - 1 : i])):
                p = PlainPayload(sender=i, receiver=r, k=k, kind=kind, data=values.tolist())
                out.append((i, r, kind, encode_payload(p)))
    return out


class TestRoundFraming:
    @settings(max_examples=150, deadline=None)
    @given(rounds())
    def test_bulk_frames_match_per_message_framing(self, case):
        m, edges, jy, js, jw, k = case
        log = []
        Transport(m, None, log).send(k, *wire_pairs(edges), jy, js, jw)
        assert [(rec.sender, rec.receiver, rec.kind, rec.plain) for rec in log] == \
            expected_messages(m, edges, jy, js, jw, k)

    @settings(max_examples=40, deadline=None)
    @given(rounds())
    def test_sealed_round_opens_to_the_same_bits(self, case):
        m, edges, jy, js, jw, k = case
        log = []
        Transport(m, KEY, log).send(k, *wire_pairs(edges), jy, js, jw)
        expected = expected_messages(m, edges, jy, js, jw, k)
        assert [rec.plain for rec in log] == [frame for *_, frame in expected]
        assert all(rec.cipher is not None for rec in log)

    def test_round_without_an_active_edge_sends_nothing(self):
        log = []
        z = np.zeros((3, 3, 2))
        Transport(3, KEY, log).send(0, *wire_pairs([]), z, z, z[:, :, 0])
        assert log == []


def _flip_data_bit(p):
    frame = bytearray(p.frame)
    frame[HEADER_SIZE] ^= 0x01
    return PlainPayload.wrap(bytes(frame))


def _reroute(p):
    return PlainPayload(sender=p.sender, receiver=p.receiver % 3 + 1, k=p.k, kind=p.kind,
                        data=p.data)


class TestOpenedFrameCheck:
    @pytest.mark.parametrize("forge", [_flip_data_bit, _reroute], ids=["bit-flip", "reroute"])
    @pytest.mark.parametrize("victim", [0, 4], ids=["Y-1to2", "S-1to3"])
    def test_forged_opening_fails_the_round(self, monkeypatch, forge, victim):
        opened = []
        real = engine.decrypt

        def forged_decrypt(key, env):
            p = real(key, env)
            opened.append(p)
            return forge(p) if len(opened) - 1 == victim else p

        monkeypatch.setattr(engine, "decrypt", forged_decrypt)
        y = np.arange(18.0).reshape(3, 3, 2)
        message = {0: r"k=7 Y message 1->2", 4: r"k=7 S message 1->3"}[victim]
        with pytest.raises(TamperError, match=message):
            Transport(3, KEY, None).send(7, *wire_pairs([(2, 1), (3, 1), (1, 2)]),
                                         y, -y, y[:, :, 0])
        assert len(opened) == victim + 1
