"""Synchronous simulation engine for push-sum gradient tracking over AES channels.

The private algorithm is a matrix recursion on row-stacked arrays: y, s
(m-by-d) and the mass w (m,). `run_trials` advances any number of trials
in lockstep as (T, m, d) arrays, and `run` is its one-trial case. Each
round every trial's schedule gives an edge mask over its sorted base
edges, and the trial's drawn weight columns fill its A(k); both are
numpy's keyed uniform streams, and `streams.KeyedStream` fills each
trial's stream for a whole block of rounds in one call: at fig5b's 9
masks and 30 weights a key from one vectorized PCG64 pass per 64 keys,
at 48 agents from one generator per key. Sender i owes receiver l the
shares A[l, i] * (y_i, s_i, w_i), and every receiver sums the shares it is
owed, its own diagonal share included, in ascending sender order with
numpy's own reductions, so the bits match a per-agent message loop
whichever trials share the batch: one padded gather and one reduction
sum every receiver (`_receive`). Masks and weights do not depend on the
state, so the run derives them a block of rounds at a time: every running
trial's adjacency up to the last multiple of 64 rounds a cell budget
reaches (1024 rounds at 2 agents, 256 at 4, 64 at 6, fewer for wide trials
or a large batch), one index plan (ranks, gather) over all of them and
every A(k) of the block, from one weight call (under a stopping rule, to
the next multiple of 64 at most). One loop body (`_push_sum`) plays every
push-sum round in place, over views built once per block, and `iterate` is
a block of one round: each round reduces into its row of the block's
[y | s | w] buffer and divides its estimates into the block's x buffer, and the
weight call's A(k) array is the recorded one; between blocks a run is the
last row it played, its [y | s | w], estimates and gradients. The mass is
forced back to one when round 0's results land, which erases the random
initial masses from the trajectory; every other round guards its division
by the mass, with one reduction for a round whose masses all lie above the
guard. Each round's local gradients come from one batched call. A run
without a stopping rule takes all residuals of a block from one reduction
once the block is played; a run with one takes them each round and ends the
block where a trial meets its rule. The start is a block of one row, so a
trial leaves the batch by one path at round 0 or later.

Those per-edge shares are also what goes on the wire, but the kernel ships
nothing: the run puts each played block on the batch's one `Transport` as
per-edge values, A(k)[l, i] times the [y | s | w] sender i mixed that round,
the kernel's own product (`_ship`). The transport packs the block's frames
and lays out its nonces once; then, a round at a time, it seals each frame
and opens all under AES-GCM, checks that every opened frame is byte for byte
the frame sent, and logs each trial's traffic when asked. The trajectory
never reads from the transport, so sealed and plain runs are the same
computation.

The fixed-weight baseline (`push-diging`) is the same kernel with uniform
columns, so an eavesdropper or a curious neighbor sees exactly the traffic
that algorithm would emit. The two dense baselines go through the same run
loop, blocks of rounds and stopping rule, but mix every trial with batched
matrix products and send nothing.
"""
from __future__ import annotations

import math
import reprlib
import time
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .channel import (
    KIND_S,
    KIND_W,
    KIND_Y,
    BlockNonces,
    SharedKey,
    TamperError,
    cut_frames,
    decrypt,  # noqa: F401  (kept as engine.decrypt for perfbench's tracer)
    encode_payload,  # noqa: F401  (kept as engine.encode_payload for perfbench's tracer)
    encrypt,
    nonce_trials,
    open_envelopes,
    pack_frames,
    record_bytes,
    wrap_payloads,
)
from .graphs import graph_at  # noqa: F401  (kept as engine.graph_at for perfbench's tracer)
from .mixing import MixingParams, WeightColumn, assemble_weight_matrix, generate_weight_column
from .objectives import GlobalProblem, optimal_solution
from .streams import (BLOCK, STREAMS, KeyedStream, check_count, check_non_negative,
                      check_positive, check_seed, keyed_rng)

W_EPS = 1e-12
# A block of rounds covers at most `_BLOCK_CELLS` cells of each trial's (rounds,
# m, m) adjacency, and as many of its A(k), and at most `_BATCH_CELLS` over the
# whole batch; always at least one round. Short of the horizon a block ends at
# the last multiple of `BLOCK` the budgets reach (the next one under a stopping
# rule, whose stop would throw the rest of a longer plan away), so each keyed
# stream passes each 64-key block once, in order. A 2-agent run plays 1024-round
# blocks, a 4-agent one 256, a batch of up to 113 6-agent trials 64 (1000 trials
# play 7 rounds a block), and a sealed 48-agent trial one, with the peak memory
# of a round at a time.
_BLOCK_CELLS = 2**12
_BATCH_CELLS = 2**18

class DegenerateStateError(ArithmeticError):
    """A mass coordinate collapsed below the division guard."""


@dataclass
class RunConfig:
    step_size: float
    horizon: int
    stop_residual: float | None = None
    encryption: bool = True
    seed: int = 0
    trial: int = 0
    mass_reset: bool = True
    record_states: bool = False
    record_weights: bool = False
    record_messages: bool = False
    x0: np.ndarray | None = None
    w0: np.ndarray | None = None

    def __post_init__(self):
        self.seed = check_seed("seed", self.seed)
        self.trial = check_seed("trial", self.trial)
        self.horizon = check_count("horizon", self.horizon)
        self.step_size = check_positive("step size", self.step_size)
        if self.stop_residual is not None:
            self.stop_residual = check_non_negative("stop residual", self.stop_residual)
        for name in ("encryption", "mass_reset", "record_states", "record_weights",
                     "record_messages"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be True or False, got {getattr(self, name)!r}")
        for name in ("x0", "w0"):
            if getattr(self, name) is None:
                continue
            start = _numbers(name, getattr(self, name))
            if not np.isfinite(start).all():
                at = tuple(np.argwhere(~np.isfinite(start))[0].tolist())
                raise ValueError(f"{name} must be finite, but entry {at} is {start[at]}")


_NOT_NUMBERS = {"U": "text", "S": "bytes", "b": "booleans"}  # by numpy dtype kind


def _numbers(name, value) -> np.ndarray:
    """`value` as a float array; a ragged or non-numeric one, text and booleans
    included, is refused with a `ValueError` that names the field `name`."""
    try:
        given = np.asarray(value)
        start = given.astype(float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be a rectangular array of numbers, but "
                         f"{reprlib.repr(value)} is not: {exc}") from None
    if given.dtype.kind in _NOT_NUMBERS:
        raise ValueError(f"{name} must be an array of numbers, but {reprlib.repr(value)} "
                         f"holds {_NOT_NUMBERS[given.dtype.kind]}")
    return start


class MessageRecord(NamedTuple):
    """One wire message: values as sent plus the exact bytes that moved."""

    k: int
    sender: int
    receiver: int
    kind: str
    data: tuple
    plain: bytes
    cipher: bytes | None


@dataclass
class Trajectory:
    """One trial's run of K = `iterations` rounds: `residuals` (K+1,), and as
    `config` asks, `x_series`, `y_series` and `s_series` (K+1, m, d) and
    `w_series` (K+1, m), row 0 the start; `weight_matrices` (K, m, m), row k
    the A(k) of round k; `messages` in wire order. A series that was not
    recorded is a length-0 array.
    """

    algorithm: str
    residuals: np.ndarray
    iterations: int
    x_star: np.ndarray
    config: RunConfig
    stopped_at: int | None = None
    elapsed: float = 0.0
    x_series: np.ndarray = field(default_factory=lambda: np.empty(0))
    y_series: np.ndarray = field(default_factory=lambda: np.empty(0))
    w_series: np.ndarray = field(default_factory=lambda: np.empty(0))
    s_series: np.ndarray = field(default_factory=lambda: np.empty(0))
    weight_matrices: np.ndarray = field(default_factory=lambda: np.empty(0))
    messages: list = field(default_factory=list)


def _squared_distance(x, x_star):
    """sum((x - x_star)^2) over the last two (agent, coordinate) axes, one per
    leading batch row; each row sums as `np.sum` sums it alone."""
    sq = (np.asarray(x) - x_star) ** 2
    return np.add.reduce(sq.reshape(sq.shape[:-2] + (-1,)), axis=-1)


def relative_residual(x, x_init, x_star, *, den=None):
    """Squared distance of the stacked estimates to the optimum, relative to start.

    `den`, the start's squared distance, is computed from `x_init` unless given.
    An (m, d) estimate gives a float; a (T, m, d) batch, with `x_star` and
    `den` broadcast per trial, gives one residual per trial.
    """
    num = _squared_distance(x, x_star)
    den = _squared_distance(x_init, x_star) if den is None else np.asarray(den)
    if den.all():
        res = num / den
    else:  # a start at the optimum: 0 while the estimate stays there, inf once it leaves
        with np.errstate(divide="ignore", invalid="ignore"):
            res = np.where(den == 0.0, np.where(num == 0.0, 0.0, np.inf), num / den)
    return res if res.ndim else float(res)


def _initial_positions(problem: GlobalProblem, config: RunConfig):
    rng = keyed_rng(config.seed, STREAMS["start"], config.trial)
    x0 = rng.standard_normal((problem.m, problem.d))
    w0 = rng.uniform(-1.0, 1.0, problem.m)
    if config.x0 is not None:
        x0 = _given_start("x0", config.x0, (problem.m, problem.d), "m*d")
    if config.w0 is not None:
        w0 = _given_start("w0", config.w0, (problem.m,), "m")
    return x0, w0


def _given_start(name, value, shape, size):
    """A start given in the config, as a float array of `shape`; any array of as
    many entries will do."""
    start = np.array(value, dtype=float)
    if start.size != math.prod(shape):
        raise ValueError(f"{name} has {start.size} entries, need {size} = {math.prod(shape)}")
    return start.reshape(shape)


def _initial_state(problem: GlobalProblem, config: RunConfig) -> tuple:
    """State at k=0 as (z, x, g), z = [y | s | w]: y = x, and s holds the gradients g."""
    x0, w0 = _initial_positions(problem, config)
    g = problem.gradients(x0)
    return np.concatenate((x0, g, w0[:, None]), axis=1), x0, g


def draw_weight_columns(graph, params: MixingParams, seed, trial, k) -> dict:
    """All agents' columns for round k, from one keyed uniform block.

    Row i-1 of the block belongs to agent i alone, so the draws stay
    independent across agents even though one generator fills the block.
    The round kernel draws the same weights on arrays (`_drawn_weights`);
    this per-agent form, on numpy's own `SeedSequence` chain, is the
    reference it is tested against.
    """
    m = graph.m
    block = keyed_rng(seed, STREAMS["weights"], trial, k).random((m, _draws_per_agent(m)))
    return {
        i: generate_weight_column(i, graph.out_neighbors(i), k, params, block[i - 1])
        for i in range(1, m + 1)
    }


def uniform_out_columns(graph, k: int) -> dict:
    """Fixed 1/(out-degree+1) columns of the push-diging baseline, per agent
    (the round kernel builds them on arrays, `_uniform_matrix`)."""
    cols = {}
    for i in range(1, graph.m + 1):
        share = 1.0 / (graph.out_degree(i) + 1)
        entries = {l: share for l in graph.out_neighbors(i)}
        entries[i] = share
        cols[i] = WeightColumn(owner=i, k=k, entries=entries)
    return cols


_KINDS = (KIND_Y, KIND_S, KIND_W)
_record = partial(tuple.__new__, MessageRecord)


class Transport:
    """The wire under a batch of trials: per-edge values in, framed (and sealed)
    messages out, a played block of rounds at a time.

    `Transport(m, key, logs, trials)` is the wire of m agents in trials[b] at
    batch row b (trial 0 alone by default); logs[b], if `logs` is not None, gets
    trials[b]'s messages in wire order. A round's messages go out batch row by
    batch row, and within a row sender ascending, then receiver ascending, then
    Y, S, W, so nonces and bytes are reproducible and each trial's frames are
    the ones it sends alone. With a key, each trial takes its nonces in its own
    range of the wire's (trial, sender) counters `used`. The opened frames of a
    round, joined, must be byte for byte the round's frames: if not, or if an
    envelope fails authentication, the round fails with a TamperError that
    names the trial and the first message at fault. Without a key messages are
    only framed, for the logs. `send` ships one round of batch row 0.
    """

    def __init__(self, m: int, key: SharedKey | None, logs: list | None, trials=(0,)):
        self.key, self.logs = key, logs
        self.trials = nonce_trials(trials)
        self.used = np.zeros((len(self.trials), m), np.int64)

    def ship(self, k0, at, rows, senders, receivers, values):
        """Ship a played block: message t, in round k0 + at[t] (`at` ascending, a round's
        messages in wire order), goes from senders[t] to receivers[t] of batch row rows[t]
        and carries values[t] = [Y (d) | S (d) | W]. The block's frames are packed and
        filled (`pack_frames`), and with a key its nonces laid out (`BlockNonces`), once;
        then each round in turn takes its counters, is sealed frame by frame by `encrypt`
        and opened in one pass, and is logged in one pass."""
        d = values.shape[-1] // 2
        bounds = [0] + np.cumsum(np.bincount(at)).tolist()
        packed = pack_frames(k0 + at, senders, receivers, ((KIND_Y, d), (KIND_S, d), (KIND_W, 1)))
        parts = values[:, :d], values[:, d : 2 * d], values[:, 2 * d :]
        for kind, part in zip(_KINDS, parts):
            packed[kind]["data"] = part
        nonces = None if self.key is None else BlockNonces(
            self.used, self.trials, at, rows, senders, len(_KINDS), bounds)
        if self.logs is not None:  # each frame's route and log, in frame order
            routes = [np.repeat(part, len(_KINDS)).tolist()
                      for part in (k0 + at, senders, receivers)] + [list(_KINDS) * len(at)]
            logs = list(map(self.logs.__getitem__, np.repeat(rows, len(_KINDS)).tolist()))
        for r, (s, e) in enumerate(zip(bounds, bounds[1:])):
            frames = cut_frames(packed[s:e])
            envelopes = None
            if nonces is not None:
                envelopes = list(map(encrypt, repeat(self.key), wrap_payloads(frames),
                                     nonces.round(r)))
                try:
                    opened = open_envelopes(self.key, envelopes)
                    intact = b"".join(opened) == packed[s:e].tobytes()
                except TamperError:
                    opened, intact = [None] * len(envelopes), False
                if not intact:
                    self._reject(k0 + r, zip(rows[s:e].tolist(), senders[s:e].tolist(),
                                             receivers[s:e].tolist()), frames, envelopes, opened)
            if self.logs is not None:
                datas = [None] * len(frames)
                for j, part in enumerate(parts):
                    datas[j :: len(_KINDS)] = map(tuple, part[s:e].tolist())
                ciphers = repeat(None) if envelopes is None else map(record_bytes, envelopes)
                s, e = s * len(_KINDS), e * len(_KINDS)
                records = map(_record, zip(*(part[s:e] for part in routes), datas, frames,
                                           ciphers))
                deque(map(list.append, logs[s:e], records), maxlen=0)

    def send(self, k, senders, receivers, jy, js, jw):
        """Ship round k of batch row 0: one message from each senders[t] to
        receivers[t] (agents, in wire order); jy[r-1, i-1] (and js, jw) is what
        sender i owes receiver r."""
        at, to = np.zeros(len(senders), np.intp), (receivers - 1, senders - 1)
        self.ship(k, at, at, senders, receivers,
                  np.concatenate((jy[to], js[to], jw[to][:, None]), axis=1))

    def _reject(self, k, messages, frames, envelopes, opened):
        """Raise the TamperError that names the trial and the first frame of round k
        that did not open to the bytes sent; `messages` gives each message's (batch
        row, sender, receiver), and an entry of `opened` is None where the round's
        open failed."""
        routes = [(b, i, l, kind) for b, i, l in messages for kind in _KINDS]
        for (b, i, l, kind), frame, env, got in zip(routes, frames, envelopes, opened):
            where = f"trial {self.trials[b]} k={k} {kind} message {i}->{l}"
            if got is None:
                try:
                    got = open_envelopes(self.key, [env])[0]
                except TamperError as exc:
                    raise TamperError(f"{where} failed authentication") from exc
            if got != frame:
                raise TamperError(f"{where} opened to other bytes")
        raise TamperError(f"k={k} round opened to other bytes")


class _RoundPlan:
    """Index plan of a block of rounds over a batch of trials.

    `adj[b, l, i]` is edge (l+1, i+1) of batch row b; rows are ordered
    (round, trial), `rounds` rounds of equally many trials. The plan derives
    each sender's out-degree; where each active edge's weight goes in A(k)
    (`edges`, ascending flat positions), whose row of per-sender values it
    takes (`edge_senders`) and which draw of that sender's uniform block it
    takes (`edge_draws`, by the receiver's rank among the sender's
    receivers); and how `_receive` sums a round of `width`-column shares.
    Round r writes what sender i owes receiver j (row b*m + l of the round)
    to row j*m + i of `shares`, whose extra last row is -0.0; `gather[r, j]`
    lists j's rows, senders ascending, own share included, padded with the
    -0.0 row; `groups[r]` has (rows, their share rows) per part count of 8+.
    """

    def __init__(self, adj, rounds, width):
        nb, m, _ = adj.shape
        self.out_degree = adj.sum(axis=1)
        self.edges = np.flatnonzero(adj)
        b, _, i = np.unravel_index(self.edges, adj.shape)
        self.edge_senders = b * m + i
        rank = np.cumsum(adj, axis=1).reshape(-1)[self.edges] - 1
        self.edge_draws = self.edge_senders * _draws_per_agent(m) + rank
        span = nb * m // rounds  # receivers per round
        self.shares = np.empty((span * m + 1, width))
        self.shares[-1] = -0.0
        parts = (adj | np.eye(m, dtype=bool)).reshape(nb * m, m)
        counts = parts.sum(axis=1)
        rows, senders = np.nonzero(parts)
        widest = counts.max()
        gather = np.full((nb * m, widest), span * m)
        gather[rows, np.cumsum(parts, axis=1)[rows, senders] - 1] = rows % span * m + senders
        self.gather = gather.reshape(rounds, span, widest)
        self.groups = [[] for _ in range(rounds)]
        if widest >= 8:
            for r, row in enumerate(counts.reshape(rounds, span)):
                for count in (np.flatnonzero(np.bincount(row)[8:]) + 8).tolist():
                    rows = np.flatnonzero(row == count)
                    self.groups[r].append((rows, self.gather[r, rows, :count]))


def _draws_per_agent(m: int) -> int:
    return max(m - 1, 1)


def _drawn_weights(params: MixingParams, seed):
    """The private algorithm's A(k) per batch row: `draw_weight_columns`, on arrays.

    `weights(adj, plan, trials, k0)` gives A(k0) .. A(k0+rounds-1) of the
    trials over a block's adjacencies, rows ordered as its plan's. Each trial
    fills its (seed, trial, k) uniform blocks of the block's rounds from its
    own `KeyedStream` in one `fill_span` call, the blocks numpy's
    `SeedSequence` chain gives; a sender's first out-degree draws become its
    out-weights in receiver order, and the diagonal is one minus their
    sequential sum, so every weight has the bits `generate_weight_column`
    gives it.
    """
    streams = {}  # by trial

    def weights(adj, plan, trials, k0):
        rounds = len(adj)
        nb, m = plan.out_degree.shape
        n = _draws_per_agent(m)
        u = np.empty((rounds, len(trials), m, n))
        for b, trial in enumerate(trials):
            if (stream := streams.get(trial)) is None:
                stream = streams[trial] = KeyedStream(seed, (STREAMS["weights"], trial))
            stream.fill_span(k0, u[:, b])
        drawn = u.reshape(-1)[plan.edge_draws]
        # c0 < 1/m, checked by `run_trials`, leaves every column room for c0 floors
        lo = params.c0
        w = lo + drawn * ((1.0 - lo) / plan.out_degree.reshape(-1)[plan.edge_senders] - lo)
        if k0 == 0:  # round 0's edges come first
            first = np.searchsorted(plan.edges, nb // rounds * m * m)
            r = params.k0_range
            w[:first] = drawn[:first] * (2.0 * r) - r
        ranked = np.zeros(nb * m * n)  # each sender's out-weights by rank, zero-padded
        ranked[plan.edge_draws] = w
        total = ranked.reshape(nb, m, n).cumsum(axis=2)[..., -1]
        a = np.zeros((nb, m, m))
        a.reshape(-1)[plan.edges] = w
        a.reshape(nb, m * m)[:, :: m + 1] = 1.0 - total
        return a

    return weights


def _receive(shares, gather, groups, d, out=None):
    """Row j: `np.sum` over the senders of receiver j, ascending, of its rows of
    `shares` (2d+1 wide), by a round's `gather` and `groups` of a `_RoundPlan`.

    One gather takes every receiver's rows, padded to the widest receiver with
    the -0.0 row, and one reduction sums them. numpy reduces a stack of rows
    sequentially, in index order, and x + (-0.0) is x for every x (NaN, +-inf
    and -0.0 included), so the pad moves no bit however numpy starts a sum. A
    single column numpy sums pairwise once it has 8 or more parts: receivers
    with that many (`groups`) sum theirs (w, and y and s when d == 1) again.
    """
    out = np.add.reduce(shares.take(gather, axis=0), axis=1, out=out)
    for rows, parts in groups:
        for c in range(3) if d == 1 else (2 * d,):
            out[rows, c] = np.add.reduce(shares[parts, c], axis=1)
    return out


def _cut(z):
    """The y, s and w of z = [y | s | w], as views of z."""
    d = z.shape[-1] // 2
    return z[..., :d], z[..., d : 2 * d], z[..., 2 * d]


def iterate(state, columns, problem: GlobalProblem, step, k, *, reset_mass=False,
            transport: Transport | None = None) -> tuple:
    """One synchronous round of one trial, its (z, x, g) at k+1 from those at k:
    a block of one round of the push-sum kernel under the `WeightColumn` that
    `columns` maps each agent to. As in a run, `reset_mass` forces the mass to
    one only at k = 0; a degenerate mass names the transport's trial (0 if none).
    """
    z, x, g = state
    m, d = x.shape
    adj = np.zeros((1, 1, m, m), dtype=bool)
    for i, col in columns.items():
        for l in col.entries:
            adj[0, 0, l - 1, i - 1] = l != i
    weights = assemble_weight_matrix(columns.values(), m)
    trials = [0] if transport is None else transport.trials
    x_next, z_next = np.empty((1, 1, m, d)), np.empty((1, 1, m, 2 * d + 1))
    config = RunConfig(step, 1, mass_reset=reset_mass)
    _, g, a = _push_sum(lambda *_: weights)((z[None], x[None], g[None]), adj, trials, k,
                                            problem.gradients, config, x_next, z_next, None)
    if transport is not None:
        _ship(transport, k, adj, a, z[None, None], np.zeros(1, np.intp))
    return z_next[0, 0], x_next[0, 0], g[0]


def _ship(transport, k0, adj, a, prev, rows):
    """Put a played block on the wire: in round k0 + r, over each edge adj[r, b, l, i],
    sender i+1 of batch row rows[b] sends receiver l+1 the share a[r, b, l, i] *
    prev[r, b, i] of the [y | s | w] the round mixed, the kernel's own product."""
    at, b, i, l = np.nonzero(adj.transpose(0, 1, 3, 2))  # wire order: sender, then receiver
    transport.ship(k0, at, rows[b], i + 1, l + 1, a[at, b, l, i, None] * prev[at, b, i])


def _push_sum(weights):
    """The kernel of the private algorithm and push-diging, under the A(k) that
    `weights(adj, plan, trials, k0)` gives a block of rounds: the one body of a
    push-sum round, zipped over per-round views built once per block (the A(k)
    columns, the plan's gather rows and groups, z's receiver rows and its y, s
    and w cuts, the x rows), with one shares buffer."""

    def rounds_of(state, adj, trials, k0, gradients, config, x, z, landed):
        rounds, nt, m, _ = adj.shape
        width, d = z.shape[-1], z.shape[-1] // 2
        plan = _RoundPlan(adj.reshape(rounds * nt, m, m), rounds, width)
        a = weights(adj, plan, trials, k0).reshape(adj.shape)
        shares = plan.shares[:-1].reshape(nt, m, m, width)
        jy, js, _ = _cut(shares)
        step, reset = config.step_size, k0 == 0 and config.mass_reset
        prev, _, g = state
        views = zip(a[..., None], plan.gather, plan.groups, z.reshape(rounds, nt * m, width),
                    *_cut(z), x, z)
        for r, (cols, gather, groups, sums, y, s, w, xr, zr) in enumerate(views):
            np.multiply(cols, prev[:, None], out=shares)
            jy -= step * js
            _receive(plan.shares, gather, groups, d, sums)
            if reset:  # round 0 of a run
                w[...], reset = 1.0, False
            # one reduction clears an all-positive round; a NaN is never low (fmin skips it)
            elif not np.fmin.reduce(w, axis=None) >= W_EPS and (low := np.abs(w) < W_EPS).any():
                b, j = np.argwhere(low)[0]
                raise DegenerateStateError(f"trial {trials[b]} agent {j + 1} mass {w[b, j]:.3e} "
                                           f"at k={k0 + r + 1} is inside the division guard")
            np.divide(y, w[..., None], out=xr)
            g_next = gradients(xr)
            s += g_next
            s -= g
            g, prev = g_next, zr
            if landed is not None and landed(r):
                break
        return r + 1, g, a

    return rounds_of


def _uniform_matrix(adj, axis) -> np.ndarray:
    """Equal shares for each agent and its neighbours, from a block of adjacencies
    (..., m, m): column-stochastic over out-neighbours for axis -2 (push-diging's
    1/(out-degree+1)), row-stochastic over in-neighbours for axis -1."""
    a = (adj | np.eye(adj.shape[-1], dtype=bool)).astype(float)
    return a / a.sum(axis=axis, keepdims=True)


def _subgradient_push(state, adj, trials, k0, gradients, config, x, z, landed):
    """Diminishing-step push-sum consensus plus a local (sub)gradient step:
    y is the pushed state, w the mass and x = (A y) / (A w) the estimate."""
    a = _uniform_matrix(adj, -2)
    y, _, w = (part.copy() for part in _cut(state[0]))  # C-contiguous, for stable product bits
    for r in range(len(adj)):
        y = a[r] @ y
        w = (a[r] @ w[..., None])[..., 0]
        np.divide(y, w[..., None], out=x[r])
        g = gradients(x[r])
        y -= 1.0 / (k0 + r + 3000) * g
        if landed is not None and landed(r):
            break
    z[r, ..., : y.shape[-1]], z[r, ..., -1] = y, w
    return r + 1, g, None


def _ab_push_pull(state, adj, trials, k0, gradients, config, x, z, landed):
    """Row-stochastic pull on the estimates x, column-stochastic push on the
    tracker s of the local gradients g."""
    rows, cols = _uniform_matrix(adj, -1), _uniform_matrix(adj, -2)
    _, prev, g = state
    s = _cut(state[0])[1].copy()  # C-contiguous, for stable product bits
    for r in range(len(adj)):
        np.matmul(rows[r], prev - config.step_size * s, out=x[r])
        g_next = gradients(x[r])
        prev, s, g = x[r], cols[r] @ s + g_next - g, g_next
        if landed is not None and landed(r):
            break
    _cut(z[r])[1][...] = s
    return r + 1, g, None


_BASELINE_KERNELS = {"push-diging": _push_sum(lambda adj, *_: _uniform_matrix(adj, -2)),
                     "subgradient-push": _subgradient_push, "ab-push-pull": _ab_push_pull}
BASELINES = tuple(_BASELINE_KERNELS)

# A block's buffers, as `Trajectory` fields: residuals, x, the y, s and w of z, A(k)
_SERIES = ("residuals", "x_series", "y_series", "s_series", "w_series", "weight_matrices")


def _run_lockstep(problems, schedules, config: RunConfig, trials, rounds_of,
                  algorithm) -> list:
    """Trials `trials` through a round kernel together, one Trajectory each.

    Trial trials[j] solves problems[j] on schedules[j] under `config` with
    its trial number. `running` indexes the trials still in the batch, and
    each block reads their trial numbers, optima and residual scales, and
    their rows of the batch's one `Transport`, through it. A block ends at
    the horizon or the last round every schedule can play, so no schedule is
    asked for a round the run cannot reach, where `_BLOCK_CELLS` per trial
    and `_BATCH_CELLS` per batch reach it; else at the last multiple of
    `BLOCK` they reach (under a stopping rule, the next one), or at the
    budget when that falls short of the next.

    The state is the last row played, (z, x, g): the running trials' [y | s |
    w] (nt, m, 2d+1), estimates and gradients at them. The kernel
    `rounds_of(state, adj, trials, k0, gradients, config, x, z, landed)` plays
    a block from `state` over adjacencies adj[r, b] and only does arithmetic;
    for push-sum it is `_push_sum`'s one round body over views built once per
    block, which `iterate` plays as a block of one round. It writes round r's
    estimates to the block's buffer x[r] and its [y | s | w] to z[r] (a dense
    kernel only what it carries, to the last row). Under a stopping rule,
    `landed(r)` takes round r's residuals and says if a trial met the rule, and
    the kernel ends the block there; without one (`landed` None) the block's
    residuals come from x in one call. The kernel returns the rounds played,
    the gradients after the last and the block's A(k) (None for the dense
    kernels). With encryption or a message log on, the run then ships the
    played rounds over the running rows (`_ship`): round r mixed the block's
    start if r is 0, else z[r-1]. The start is a block of one row, round 0,
    with no A(k), shipping nothing. After every block each running trial keeps
    its slice of every recorded buffer, and the trials that met the rule stop
    at the block's last round and leave the batch; each trial joins its slices
    once, at the end.
    """
    configs = [config if t == config.trial else replace(config, trial=t) for t in trials]
    state = tuple(map(np.stack, zip(*(_initial_state(p, c) for p, c in zip(problems, configs)))))
    key = SharedKey.from_seed(config.seed) if config.encryption else None
    logs = [[] for _ in trials] if config.record_messages else None
    transport = (Transport(problems[0].m, key, logs, trials)
                 if config.encryption or config.record_messages else None)
    trajs = [Trajectory(algorithm=algorithm, residuals=np.empty(0), iterations=0,
                        x_star=optimal_solution(p), config=c) for p, c in zip(problems, configs)]
    x_star = np.stack([traj.x_star for traj in trajs])[:, None]
    den = _squared_distance(state[1], x_star)  # fixed for the run
    m, d = problems[0].m, problems[0].d
    recorded = [name for name in _SERIES if name == "residuals" or (
        config.record_weights if name == "weight_matrices" else config.record_states)]
    slices = [{name: [] for name in recorded} for _ in trials]
    stop = config.stop_residual
    running = np.arange(len(trials))
    if all(p is problems[0] for p in problems):
        gradients = problems[0].gradients
    else:
        def gradients(x):
            return np.stack([problems[j].gradients(xb) for j, xb in zip(running, x)])

    res = relative_residual(state[1], None, x_star, den=den)[None]
    x, z = state[1][None], state[0][None]
    a = np.empty((0, len(trials), m, m))  # no A(k) before round 1
    started = time.perf_counter()
    k = r = 0
    while True:
        block = dict(zip(_SERIES, (res, x, *_cut(z), a)))
        for b, j in enumerate(running):
            for name in recorded:
                slices[j][name].append(block[name][: r + 1, b])
        if stop is not None and (stopped := res[r] <= stop).any():
            elapsed = time.perf_counter() - started if k else 0.0
            for j in running[stopped]:
                trajs[j].stopped_at, trajs[j].elapsed = k, elapsed
            running = running[~stopped]
            state = tuple(part[~stopped] for part in state)
        if not (nt := len(running)) or k == config.horizon:
            break
        ends = [schedules[j].length - k for j in running if schedules[j].length is not None]
        budget = min(_BLOCK_CELLS // (m * m), _BATCH_CELLS // (nt * m * m))
        if stop is not None:  # a stop may end the block at any round
            budget = min(budget, BLOCK - k % BLOCK)
        grid = (k + budget) // BLOCK * BLOCK - k  # to the last multiple of BLOCK in budget
        rounds = max(1, min(grid if grid > 0 else budget, config.horizon - k, *ends))
        adj = np.empty((rounds, nt, m, m), dtype=bool)
        for b, j in enumerate(running):
            adj[:, b] = schedules[j].adjacencies(k, rounds)
        xs, scale = x_star[running], den[running]
        res, x = np.empty((rounds, nt)), np.empty((rounds, nt, m, d))
        z = np.empty((rounds, nt, m, 2 * d + 1))
        landed = None
        if stop is not None:
            def landed(r, res=res, x=x, xs=xs, scale=scale):
                res[r] = relative_residual(x[r], None, xs, den=scale)
                return (res[r] <= stop).any()
        played, g, a = rounds_of(state, adj, [trials[j] for j in running], k, gradients,
                                 config, x, z, landed)
        if transport is not None:
            _ship(transport, k, adj[:played], a,
                  np.concatenate((state[0][None], z[: played - 1])), running)
        r, k = played - 1, k + played
        state = z[r], x[r], g
        if stop is None:
            res = relative_residual(x, None, xs, den=scale)
    for j in running:
        trajs[j].elapsed = time.perf_counter() - started
    for j, (traj, parts) in enumerate(zip(trajs, slices)):
        for name, pieces in parts.items():
            setattr(traj, name, np.concatenate(pieces))
        traj.iterations = len(traj.residuals) - 1
        if logs is not None:
            traj.messages = logs[j]
    return trajs


def _check_batch(problems, schedules, trials):
    if not len(problems) == len(schedules) == len(trials) > 0:
        raise ValueError(f"need one problem and one schedule per trial, got {len(problems)} "
                         f"and {len(schedules)} for {len(trials)} trials")
    if len(set(trials)) < len(trials):
        repeated = next(t for j, t in enumerate(trials) if t in trials[:j])
        raise ValueError(f"trial {repeated} appears twice in the batch: a trial's number fixes "
                         f"its nonces, so two copies would seal under the same nonces")
    m, d = problems[0].m, problems[0].d
    for problem, schedule in zip(problems, schedules):
        if (problem.m, problem.d) != (m, d):
            raise ValueError(f"every trial of a batch needs the same agent count and dimension: "
                             f"the first problem has m={m}, d={d}, another m={problem.m}, "
                             f"d={problem.d}")
        if schedule.m != problem.m:
            raise ValueError(
                f"schedule is over {schedule.m} agents but the problem has {problem.m}"
            )


def run_trials(problems, schedules, params: MixingParams, config: RunConfig, trials) -> list:
    """Run the private optimizer for every trial in `trials` in lockstep.

    Trial trials[j] solves problems[j] on schedules[j] with `config`, its
    `trial` field set to trials[j]. Returns one Trajectory per trial, each
    bit for bit the one `run` gives for that trial alone; its `elapsed` is
    the batch's wall time until the trial stopped.
    """
    trials = list(trials)
    _check_batch(problems, schedules, trials)
    for problem in problems:
        params.validate_for(problem.m)
    return _run_lockstep(problems, schedules, config, trials,
                         _push_sum(_drawn_weights(params, config.seed)), "private-push-sum")


def run(problem: GlobalProblem, schedule, params: MixingParams, config: RunConfig) -> Trajectory:
    """Run the private optimizer with freshly drawn weights every round."""
    return run_trials([problem], [schedule], params, config, [config.trial])[0]


def run_baseline_trials(problems, schedules, config: RunConfig, algorithm: str, trials) -> list:
    """`run_baseline` for every trial in `trials`, in lockstep as `run_trials` runs
    the private optimizer: each Trajectory is bit for bit the trial's single run,
    and its `elapsed` is the batch's wall time until the trial stopped.
    """
    trials = list(trials)
    _check_batch(problems, schedules, trials)
    if algorithm not in _BASELINE_KERNELS:
        raise ValueError(f"unknown baseline {algorithm!r}; expected one of {BASELINES}")
    cfg = replace(config, mass_reset=False, w0=np.ones(problems[0].m))
    if algorithm != "push-diging":
        cfg = replace(cfg, encryption=False, record_states=False, record_weights=False,
                      record_messages=False)
    return _run_lockstep(problems, schedules, cfg, trials, _BASELINE_KERNELS[algorithm],
                         algorithm)


def run_baseline(problem: GlobalProblem, schedule, config: RunConfig, algorithm: str) -> Trajectory:
    """Run one of the reference algorithms under the same instance and schedule.

    Every baseline starts from the run's initial positions with mass one
    everywhere, never reset. `push-diging` goes through the push-sum round
    kernel (and therefore through the channel when encryption is on). The
    other two are dense references: they model algorithms whose traffic we
    never inspect, so they mix with plain matrix products, send nothing and
    record no series, weights or messages whatever `config` asks; their
    trajectory's `config` says so.
    """
    return run_baseline_trials([problem], [schedule], config, algorithm, [config.trial])[0]
