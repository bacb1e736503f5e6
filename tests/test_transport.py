"""The transport frames each played block at once; these pin its bytes and its checks."""
import struct

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
    NONCE_SIZE,
    CipherEnvelope,
    NonceCounter,
    PlainPayload,
    SharedKey,
    TamperError,
    encode_payload,
    open_envelopes,
)
from cipheropt.engine import MessageRecord, Transport
from cipheropt.graphs import DirectedGraph, RandomActivationSchedule, StaticSchedule
from cipheropt.mixing import MixingParams
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance

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
        Transport(m, None, [log]).send(k, *wire_pairs(edges), jy, js, jw)
        assert [(rec.sender, rec.receiver, rec.kind, rec.plain) for rec in log] == \
            expected_messages(m, edges, jy, js, jw, k)

    @settings(max_examples=40, deadline=None)
    @given(rounds())
    def test_sealed_round_opens_to_the_same_bits(self, case):
        m, edges, jy, js, jw, k = case
        log = []
        Transport(m, KEY, [log]).send(k, *wire_pairs(edges), jy, js, jw)
        expected = expected_messages(m, edges, jy, js, jw, k)
        assert [rec.plain for rec in log] == [frame for *_, frame in expected]
        assert all(rec.cipher is not None for rec in log)

    def test_round_without_an_active_edge_sends_nothing(self):
        log = []
        z = np.zeros((3, 3, 2))
        Transport(3, KEY, log).send(0, *wire_pairs([]), z, z, z[:, :, 0])
        assert log == []


def _flip_data_bit(frame):
    forged = bytearray(frame)
    forged[HEADER_SIZE] ^= 0x01
    return bytes(forged)


def _reroute(frame):
    p = PlainPayload.wrap(frame)
    return PlainPayload(sender=p.sender, receiver=p.receiver % 3 + 1, k=p.k, kind=p.kind,
                        data=p.data).frame


# frames of the round below: 0-2 are 1->2 Y, S, W; 3-5 are 1->3; 6-8 are 2->1
EDGES = [(2, 1), (3, 1), (1, 2)]
NAMED = {0: r"k=7 Y message 1->2", 4: r"k=7 S message 1->3", 8: r"k=7 W message 2->1"}


def _send_round(transport=None):
    y = np.arange(18.0).reshape(3, 3, 2)
    (transport or Transport(3, KEY, None)).send(7, *wire_pairs(EDGES), y, -y, y[:, :, 0])


def _forge_at_open(monkeypatch, forge, victims):
    """Forge the frames at positions `victims` where the round's envelopes are opened."""
    real = engine.open_envelopes

    def forged_open(key, envelopes):
        return [forge(f) if t in victims else f for t, f in enumerate(real(key, envelopes))]

    monkeypatch.setattr(engine, "open_envelopes", forged_open)


class TestOpenedFrameCheck:
    @pytest.mark.parametrize("forge", [_flip_data_bit, _reroute], ids=["bit-flip", "reroute"])
    @pytest.mark.parametrize("victim", [0, 4], ids=["Y-1to2", "S-1to3"])
    def test_forged_opening_fails_the_round(self, monkeypatch, forge, victim):
        _forge_at_open(monkeypatch, forge, {victim})
        with pytest.raises(TamperError, match=NAMED[victim] + " opened to other bytes"):
            _send_round()

    @pytest.mark.parametrize("forge", [_flip_data_bit, _reroute], ids=["bit-flip", "reroute"])
    def test_the_earlier_of_two_forged_frames_is_named(self, monkeypatch, forge):
        _forge_at_open(monkeypatch, forge, {4, 8})
        with pytest.raises(TamperError, match=NAMED[4]):
            _send_round()

    @pytest.mark.parametrize("at", [HEADER_SIZE + NONCE_SIZE, -1], ids=["ciphertext", "tag"])
    @pytest.mark.parametrize("victim", [0, 4, 8])
    def test_envelope_altered_between_seal_and_open_is_named(self, monkeypatch, at, victim):
        real = engine.encrypt
        sealed = []

        def altering_encrypt(key, p, nonces):
            env = real(key, p, nonces)
            sealed.append(env)
            if len(sealed) - 1 != victim:
                return env
            wire = bytearray(env.to_bytes())
            wire[at] ^= 0x01
            return CipherEnvelope.wrap(bytes(wire))

        monkeypatch.setattr(engine, "encrypt", altering_encrypt)
        with pytest.raises(TamperError, match=NAMED[victim] + " failed authentication"):
            _send_round()
        assert len(sealed) == 9


def _nonces(log):
    return [rec.cipher[HEADER_SIZE : HEADER_SIZE + NONCE_SIZE] for rec in log]


class TestRoundNonces:
    # senders with one, two and three messages, and a round where sender 1 is silent
    ROUNDS = [[(2, 1), (3, 1), (1, 2), (4, 3), (1, 3), (2, 3)],
              [(1, 2), (3, 2), (4, 2), (1, 4)],
              [(2, 1), (1, 2), (1, 3), (1, 4), (2, 4)]]

    @pytest.mark.parametrize("trial", [0, 2**31 + 3, 2**32 - 1])
    def test_round_nonces_are_the_per_message_counters(self, trial):
        log = []
        transport = Transport(4, KEY, [log], [trial])
        z = np.zeros((4, 4, 2))
        for k, edges in enumerate(self.ROUNDS):
            transport.send(k, *wire_pairs(edges), z, z, z[:, :, 0])
        counters = {i: NonceCounter(i, trial) for i in range(1, 5)}
        replay = [counters[rec.sender].next() for rec in log]
        assert _nonces(log) == replay
        assert len(set(replay)) == len(log) == 3 * sum(map(len, self.ROUNDS))

    @pytest.mark.parametrize("trial", [0, 2**32 - 1])
    @pytest.mark.parametrize("room", [2, 3], ids=["crosses", "fits"])
    def test_a_round_past_the_trial_range_seals_nothing(self, monkeypatch, trial, room):
        real = engine.encrypt
        sealed = []

        def counting_encrypt(key, p, nonces):
            sealed.append(p)
            return real(key, p, nonces)

        monkeypatch.setattr(engine, "encrypt", counting_encrypt)
        log = []
        transport = Transport(3, KEY, [log], [trial])
        transport.used[0, 1] = 2**32 - room  # sender 2 sends one message: 3 frames
        if room == 3:
            _send_round(transport)
            assert transport.used[0, 1] == 2**32  # sender 2's range in this trial is used up
            assert _nonces(log)[-1] == struct.pack("<QI", (trial << 32) + 2**32 - 1, 2)
        else:
            with pytest.raises(OverflowError, match="sender 2 exhausted"):
                _send_round(transport)
            assert sealed == []


# a batch of three trials; row 1 holds trial 1 and sends the EDGES round, frames 9-17
BATCH_TRIALS = [4, 1, 2**32 - 1]
BATCH_EDGES = [[(2, 1), (3, 2)], EDGES, [(1, 3)]]


def _batch_adjacency(edges_per_row, m=3):
    adj = np.zeros((len(edges_per_row), m, m), dtype=bool)
    for b, edges in enumerate(edges_per_row):
        for l, i in edges:
            adj[b, l - 1, i - 1] = True
    return adj


def ship_rounds(wire, k0, adj, y, rows=None):
    """Rounds k0 .. k0+len(adj)-1 of batch rows `rows` (all of them if None) in one
    `ship` call, from per-round dense shares: in round k0+r, over each edge
    adj[r, b, l-1, i-1], sender i sends receiver l Y = y[r, b, l-1, i-1], S = -Y
    and W = Y[0]."""
    at, b, i, l = np.nonzero(adj.transpose(0, 1, 3, 2))  # wire order
    shares = y[at, b, l, i]
    wire.ship(k0, at, b if rows is None else rows[b], i + 1, l + 1,
              np.concatenate((shares, -shares, shares[:, :1]), axis=1))


def _send_batch_round(wire, rows=None):
    y = np.arange(54.0).reshape(3, 3, 3, 2)
    adj = _batch_adjacency(BATCH_EDGES)
    if rows is not None:
        adj, y = adj[rows], y[rows]
    ship_rounds(wire, 7, adj[None], y[None], rows)


class TestBatchWire:
    @pytest.mark.parametrize("rows", [None, np.array([1, 2])], ids=["all-rows", "row-0-left"])
    @pytest.mark.parametrize("forge", [_flip_data_bit, _reroute], ids=["bit-flip", "reroute"])
    def test_forged_frame_names_its_trial(self, monkeypatch, forge, rows):
        # trial 1's S frame 1->3 is frame 4 of its run, after trial 4's 6 frames if it plays
        _forge_at_open(monkeypatch, forge, {(6 if rows is None else 0) + 4})
        with pytest.raises(TamperError,
                           match=r"^trial 1 k=7 S message 1->3 opened to other bytes$"):
            _send_batch_round(Transport(3, KEY, None, BATCH_TRIALS), rows)

    def test_altered_envelope_names_its_trial(self, monkeypatch):
        real = engine.encrypt
        sealed = []

        def altering_encrypt(key, p, nonces):
            env = real(key, p, nonces)
            sealed.append(env)
            if len(sealed) - 1 != 6 + 8:  # trial 1's W frame 2->1
                return env
            wire = bytearray(env.to_bytes())
            wire[-1] ^= 0x01
            return CipherEnvelope.wrap(bytes(wire))

        monkeypatch.setattr(engine, "encrypt", altering_encrypt)
        with pytest.raises(TamperError,
                           match=r"^trial 1 k=7 W message 2->1 failed authentication$"):
            _send_batch_round(Transport(3, KEY, None, BATCH_TRIALS))
        assert len(sealed) == 18

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_each_trial_sends_what_it_sends_alone(self, data):
        """Every trial's log, nonces included, is its one-trial wire's, whichever trials
        share the rounds: for each (trial, sender), the nonces `NonceCounter(sender,
        trial).next()` gives, in order; a trial that left the batch takes none after."""
        m = data.draw(st.integers(2, 4))
        trials = data.draw(st.lists(st.sampled_from([0, 1, 5, 2**31, 2**32 - 1]), min_size=1,
                                    max_size=3, unique=True))
        rounds = data.draw(st.integers(1, 4))
        leaves = [data.draw(st.integers(1, rounds)) for _ in trials]  # rounds each trial plays
        adj = data.draw(arrays(np.bool_, (rounds, len(trials), m, m)))
        adj &= ~np.eye(m, dtype=bool)
        y = data.draw(arrays(np.float64, (rounds, len(trials), m, m, 2), elements=FLOATS))
        logs = [[] for _ in trials]
        wire = Transport(m, KEY, logs, trials)
        alone = [[] for _ in trials]
        alone_wires = [Transport(m, KEY, [log], [t]) for log, t in zip(alone, trials)]
        for k in range(rounds):
            rows = np.flatnonzero(np.array(leaves) > k)
            ship_rounds(wire, k, adj[k, rows][None], y[k, rows][None], rows)
            for b in rows:
                alone_wires[b].send(k, *wire_pairs((np.argwhere(adj[k, b]) + 1).tolist()),
                                    y[k, b], -y[k, b], y[k, b, ..., 0])
        for b, trial in enumerate(trials):
            assert [(r.k, r.sender, r.receiver, r.kind, r.plain, r.cipher) for r in logs[b]] == \
                [(r.k, r.sender, r.receiver, r.kind, r.plain, r.cipher) for r in alone[b]]
            counters = {i: NonceCounter(i, trial) for i in range(1, m + 1)}
            assert _nonces(logs[b]) == [counters[r.sender].next() for r in logs[b]]
            assert wire.used[b].tolist() == [c.count - c.start for c in counters.values()]
        every = [n for log in logs for n in _nonces(log)]
        assert len(set(every)) == len(every)

    @pytest.mark.parametrize("room", [2, 3], ids=["crosses", "fits"])
    def test_a_round_past_a_trial_range_seals_nothing(self, monkeypatch, room):
        real = engine.encrypt
        sealed = []

        def counting_encrypt(key, p, nonces):
            sealed.append(p)
            return real(key, p, nonces)

        monkeypatch.setattr(engine, "encrypt", counting_encrypt)
        logs = [[], [], []]
        wire = Transport(3, KEY, logs, BATCH_TRIALS)
        wire.used[1, 1] = 2**32 - room  # trial 1's sender 2 sends one message: 3 frames
        before = wire.used.copy()
        if room == 3:
            _send_batch_round(wire)
            assert wire.used[1, 1] == 2**32
            assert _nonces(logs[1])[-1] == struct.pack("<QI", (1 << 32) + 2**32 - 1, 2)
        else:
            with pytest.raises(OverflowError,
                               match=r"sender 2 exhausted: 2\^32 messages in trial 1$"):
                _send_batch_round(wire)
            assert sealed == [] and logs == [[], [], []]
            assert (wire.used == before).all()  # no counter moved, in any trial


def _fields(rec):
    """A logged message field by field, its data as bits (NaN equals itself)."""
    return (rec.k, rec.sender, rec.receiver, rec.kind, np.array(rec.data).tobytes(), rec.plain,
            rec.cipher)


class TestBlockWire:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_block_ships_what_its_rounds_ship_one_by_one(self, data):
        """A block of R rounds, or its first rounds, shipped in one call logs, seals
        and counts what as many blocks of one round do."""
        m = data.draw(st.integers(2, 4))
        trials = data.draw(st.lists(st.sampled_from([0, 1, 5, 2**31, 2**32 - 1]), min_size=1,
                                    max_size=3, unique=True))
        rows = np.array(sorted(data.draw(st.sets(st.integers(0, len(trials) - 1), min_size=1))))
        rounds = data.draw(st.integers(1, 4))
        played = data.draw(st.integers(1, rounds))
        key = data.draw(st.sampled_from([KEY, None]))
        k0 = data.draw(st.integers(0, 2**20))
        adj = data.draw(arrays(np.bool_, (rounds, len(rows), m, m)))
        adj &= ~np.eye(m, dtype=bool)
        y = data.draw(arrays(np.float64, (rounds, len(rows), m, m, 2), elements=FLOATS))
        used = data.draw(arrays(np.int64, (len(trials), m), elements=st.integers(0, 2**20)))
        block_logs, round_logs = [[] for _ in trials], [[] for _ in trials]
        blockwise = Transport(m, key, block_logs, trials)
        by_round = Transport(m, key, round_logs, trials)
        blockwise.used[...] = by_round.used[...] = used
        ship_rounds(blockwise, k0, adj[:played], y[:played], rows)
        for r in range(played):
            ship_rounds(by_round, k0 + r, adj[r][None], y[r][None], rows)
        assert [list(map(_fields, log)) for log in block_logs] == \
            [list(map(_fields, log)) for log in round_logs]
        assert (blockwise.used == by_round.used).all()
        if key is not None:
            for b, trial in enumerate(trials):
                counters = {i: NonceCounter(i, trial) for i in range(1, m + 1)}
                for i, c in counters.items():
                    c.count = c.start + int(used[b, i - 1])
                assert _nonces(block_logs[b]) == [counters[r.sender].next()
                                                  for r in block_logs[b]]

    @pytest.mark.parametrize("rows", [None, np.array([1, 2])], ids=["all-rows", "row-0-left"])
    def test_a_block_crossing_a_trial_range_stops_at_the_crossing_round(self, monkeypatch, rows):
        """Trial 1's sender 2 sends 3 frames a round and has room for 7: shipped in one
        call, rounds 0 and 1 are sealed, logged and counted; round 2 raises and leaves
        no trace."""
        real = engine.encrypt
        sealed = []

        def counting_encrypt(key, p, nonces):
            sealed.append(p.k)
            return real(key, p, nonces)

        adj = np.stack([_batch_adjacency(BATCH_EDGES)] * 3)
        y = np.arange(3 * 54.0).reshape(3, 3, 3, 3, 2)
        if rows is not None:
            adj, y = adj[:, rows], y[:, rows]
        logs, alone = [[], [], []], [[], [], []]
        wire = Transport(3, KEY, logs, BATCH_TRIALS)
        by_round = Transport(3, KEY, alone, BATCH_TRIALS)
        wire.used[1, 1] = by_round.used[1, 1] = 2**32 - 7
        for r in range(2):
            ship_rounds(by_round, 7 + r, adj[r][None], y[r][None], rows)
        monkeypatch.setattr(engine, "encrypt", counting_encrypt)
        with pytest.raises(OverflowError, match=r"^nonce counter of sender 2 exhausted: 2\^32 "
                                                r"messages in trial 1$"):
            ship_rounds(wire, 7, adj, y, rows)
        shipped = 2 * 3 * int(adj[0].sum())  # rounds 7 and 8: a Y, an S and a W frame a message
        assert sealed[:shipped] == [7] * (shipped // 2) + [8] * (shipped // 2)
        assert len(sealed) == shipped  # nothing of round 2 was sealed
        assert [list(map(_fields, log)) for log in logs] == \
            [list(map(_fields, log)) for log in alone]  # rounds 7 and 8 only
        assert {rec.k for log in logs for rec in log} == {7, 8}
        assert (wire.used == by_round.used).all() and wire.used[1, 1] == 2**32 - 1


def test_sealed_trials_stopping_inside_a_block_log_their_own_counters():
    """Trials of a sealed stop-rule batch leave at different rounds inside 64-round
    blocks: each logs the rounds it played, under its `NonceCounter` replay, and no
    nonce repeats across the batch."""
    m = 6
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=2, omega=0.01, seed=891))
    complete = DirectedGraph(m, frozenset((l, i) for l in range(1, m + 1)
                                          for i in range(1, m + 1) if l != i))
    trials = [0, 1, 2, 3]
    schedules = [RandomActivationSchedule(complete, 0.5, seed=t) for t in trials]
    config = engine.RunConfig(step_size=1.1e-3, horizon=400, stop_residual=1e-3, seed=2,
                              record_messages=True)
    trajs = engine.run_trials([problem] * len(trials), schedules, MixingParams(c0=0.5 / m),
                              config, trials)
    stops = [traj.stopped_at for traj in trajs]
    assert None not in stops and len(set(stops)) > 1
    assert any(stop % 64 for stop in stops), stops  # some trial leaves inside a block
    every = []
    for trial, traj in zip(trials, trajs):
        assert max(rec.k for rec in traj.messages) == traj.stopped_at - 1
        counters = {i: NonceCounter(i, trial) for i in range(1, m + 1)}
        assert _nonces(traj.messages) == [counters[r.sender].next() for r in traj.messages]
        every += _nonces(traj.messages)
    assert len(set(every)) == len(every)


def test_a_logged_envelope_opens_as_logged():
    """A sealed run logs each envelope as its wire bytes, exact `bytes`, and those
    bytes open to the frames logged beside them."""
    problem = problem_from_instance(generate_sensor_fusion(m=3, s=2, d=2, omega=0.01, seed=5))
    ring = StaticSchedule(DirectedGraph(3, frozenset({(2, 1), (3, 2), (1, 3)})))
    config = engine.RunConfig(step_size=1e-3, horizon=5, seed=3, record_messages=True)
    messages = engine.run(problem, ring, MixingParams(c0=0.3), config).messages
    assert len(messages) == 45 and {type(rec.cipher) for rec in messages} == {bytes}
    assert open_envelopes(SharedKey.from_seed(3), [rec.cipher for rec in messages]) == \
        [rec.plain for rec in messages]


def test_a_logged_message_is_an_immutable_positional_record():
    log = []
    Transport(3, KEY, [log]).send(7, *wire_pairs([(2, 1)]), *(np.ones((3, 3, 2)),) * 2,
                                  np.ones((3, 3)))
    rec = log[-1]
    assert type(rec) is MessageRecord
    again = MessageRecord(rec.k, rec.sender, rec.receiver, rec.kind, rec.data, rec.plain,
                          rec.cipher)
    assert rec == again and (rec.k, rec.sender, rec.receiver, rec.kind, rec.data) == \
        (7, 1, 2, KIND_W, (1.0,))
    assert rec != MessageRecord(8, *again[1:])
    with pytest.raises(AttributeError):
        rec.k = 8
