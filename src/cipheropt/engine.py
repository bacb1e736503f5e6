"""Synchronous simulation engine for push-sum gradient tracking over AES channels.

The private algorithm is a matrix recursion on row-stacked arrays: y, s
(m-by-d) and the mass w (m,). `run_trials` advances any number of trials
in lockstep as (T, m, d) arrays, and `run` is its one-trial case. Each
round every trial's schedule gives an edge mask over its sorted base
edges, and the trial's drawn weight columns fill its A(k); both are
numpy's keyed uniform streams, derived a block of rounds at a time by
`streams.KeyedStream`. Sender i owes receiver l the shares
A[l, i] * (y_i, s_i, w_i), and every receiver sums the shares it is
owed, its own diagonal share included, in ascending sender order with
numpy's own reductions, so the bits match a per-agent message loop
whichever trials share the batch: one padded gather and one reduction
sum every receiver (`_receive`). Masks and weights do not depend on the
state, so the run derives them a block of rounds at a time: every running
trial's adjacency for up to 64 rounds (fewer for wide trials or a large
batch), one index plan (ranks, gather) over all of them and every A(k) of
the block, from one weight call. The mass is forced back to one when the
first round's results land, which erases the random initial masses from
the trajectory. Each round's local gradients come from one batched call.
A run without a stopping rule takes all residuals of a block from one
reduction once the block is played; a run with one takes them each
round, and a trial that meets its rule leaves the batch.

Those per-edge shares are also what goes on the wire: each trial's
`Transport` packs all of a round's frames at once, in a fixed order,
seals and opens each under AES-GCM when encryption is on, checks that
every opened frame is byte for byte the frame sent, and logs the traffic
when asked. The trajectory never reads from the transport, so sealed and
plain runs are the same computation.

The fixed-weight baseline (`push-diging`) is the same kernel with uniform
columns, so an eavesdropper or a curious neighbor sees exactly the traffic
that algorithm would emit. The two dense baselines go through the same run
loop, blocks of rounds and stopping rule, but mix every trial with batched
matrix products and send nothing.
"""
from __future__ import annotations

import math
import numbers
import reprlib
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (
    KIND_S,
    KIND_W,
    KIND_Y,
    NonceCounter,
    PlainPayload,
    RoundNonces,
    SharedKey,
    TamperError,
    decrypt,  # noqa: F401  (kept as engine.decrypt for perfbench's tracer)
    encode_payload,
    encrypt,
    open_envelopes,
    pack_frames,
)
from .graphs import graph_at  # noqa: F401  (kept as engine.graph_at for perfbench's tracer)
from .mixing import MixingParams, WeightColumn, assemble_weight_matrix, generate_weight_column
from .objectives import GlobalProblem, optimal_solution
from .streams import BLOCK, KeyedStream, check_seed

_INIT_STREAM = 31
_WEIGHT_STREAM = 32

W_EPS = 1e-12
# A block of rounds covers at most `_BLOCK_CELLS` cells of each trial's (rounds,
# m, m) adjacency, and as many of its A(k), and at most `_BATCH_CELLS` over the
# whole batch; always at least one round. Blocks never straddle a multiple of
# `BLOCK`, so each keyed stream derives once per block. A batch of up to 113
# 6-agent trials plays full 64-round blocks (1000 trials play 7 rounds a
# block), while a sealed 48-agent trial plays one and keeps the peak memory of
# a round at a time.
_BLOCK_CELLS = 2**12
_BATCH_CELLS = 2**18

BASELINES = ("push-diging", "subgradient-push", "ab-push-pull")


class DegenerateStateError(ArithmeticError):
    """A mass coordinate collapsed below the division guard."""


@dataclass
class RoundState:
    """All agents' variables after one round, row i-1 for agent i.

    Inside the round kernel every field has a leading batch axis, one row per trial.
    """

    y: np.ndarray  # running state, m-by-d
    s: np.ndarray  # gradient tracker, m-by-d
    w: np.ndarray  # mass, (m,)
    x: np.ndarray  # estimate y / w, m-by-d
    g: np.ndarray  # local gradients at x, m-by-d


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
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral):
            raise ValueError(f"horizon must be a whole number of rounds, got {self.horizon!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step size must be positive and finite, got {self.step_size}")
        if self.stop_residual is not None and not (
                math.isfinite(self.stop_residual) and self.stop_residual >= 0):
            raise ValueError(
                f"stop residual must be finite and non-negative, got {self.stop_residual}")
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


@dataclass(frozen=True)
class MessageRecord:
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
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(_INIT_STREAM, config.trial))
    rng = np.random.default_rng(ss)
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


def _initial_state(problem: GlobalProblem, config: RunConfig) -> RoundState:
    """State at k=0: estimate and running state coincide, tracker holds the gradient."""
    x0, w0 = _initial_positions(problem, config)
    g = problem.gradients(x0)
    return RoundState(y=x0.copy(), s=g, w=w0, x=x0, g=g.copy())


def draw_weight_columns(graph, params: MixingParams, seed, trial, k) -> dict:
    """All agents' columns for round k, from one keyed uniform block.

    Row i-1 of the block belongs to agent i alone, so the draws stay
    independent across agents even though one generator fills the block.
    The round kernel draws the same weights on arrays (`_drawn_weights`);
    this per-agent form, on numpy's own `SeedSequence` chain, is the
    reference it is tested against.
    """
    m = graph.m
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_WEIGHT_STREAM, trial, k))
    block = np.random.default_rng(ss).random((m, _draws_per_agent(m)))
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


class Transport:
    """The wire under a run: per-edge values in, framed (and sealed) messages out.

    Messages go out sender ascending, then receiver ascending, then Y, S,
    W, so nonces and bytes are reproducible. Every frame of a round is
    packed at once. With a key, the round's nonces come as one array
    (`RoundNonces`), every sender reserving its round's block of its own
    counter, in trial `trial`'s range; each frame is sealed under its
    nonce, and every envelope of the round is opened in one pass. The
    opened frames, joined, must be byte for byte the round's packed
    frames: if not, or if an envelope fails authentication, the round
    fails with a TamperError that names the first message at fault.
    Without a key messages are only framed, for the log.
    """

    def __init__(self, m: int, key: SharedKey | None, log: list | None, trial: int = 0):
        self.key = key
        if key is not None:
            self.counters = {i: NonceCounter(i, trial) for i in range(1, m + 1)}
        self.log = log

    def send(self, k, senders, receivers, jy, js, jw):
        """Ship round k: one message from each senders[t] to receivers[t] (agents,
        in wire order); jy[r-1, i-1] (and js, jw) is what sender i owes receiver r."""
        if not len(senders):
            return
        at_edges = (receivers - 1, senders - 1)
        raw, step, offsets = pack_frames(k, senders, receivers, (
            (KIND_Y, jy[at_edges]), (KIND_S, js[at_edges]), (KIND_W, jw[at_edges][:, None])))
        envelopes = None
        if self.key is not None:
            nonces = RoundNonces(self.counters, senders, len(offsets))
            envelopes = [encrypt(self.key, PlainPayload.wrap(f), nonces)
                         for f in _frames(raw, step, offsets)]
            try:
                opened = open_envelopes(self.key, envelopes)
                intact = b"".join(opened) == raw
            except TamperError:
                opened, intact = [None] * len(envelopes), False
            if not intact:
                self._reject(k, _routes(senders, receivers, offsets), _frames(raw, step, offsets),
                             envelopes, opened)
        if self.log is not None:
            for t, ((i, r, kind), frame) in enumerate(zip(_routes(senders, receivers, offsets),
                                                          _frames(raw, step, offsets))):
                p = PlainPayload.wrap(frame)
                cipher = None if envelopes is None else envelopes[t].to_bytes()
                self.log.append(MessageRecord(k, i, r, kind, p.data, encode_payload(p), cipher))

    def _reject(self, k, routes, frames, envelopes, opened):
        """Raise the TamperError that names the first frame that did not open to
        the bytes sent; an entry of `opened` is None where the round's open failed."""
        for (i, r, kind), frame, env, got in zip(routes, frames, envelopes, opened):
            if got is None:
                try:
                    got = open_envelopes(self.key, [env])[0]
                except TamperError as exc:
                    raise TamperError(
                        f"k={k} {kind} message {i}->{r} failed authentication") from exc
            if got != frame:
                raise TamperError(f"k={k} {kind} message {i}->{r} opened to other bytes")
        raise TamperError(f"k={k} round opened to other bytes")


def _frames(raw, step, offsets):
    """The frames of a round packed by `pack_frames`, one by one, in frame order."""
    return (raw[at + lo : at + hi] for at in range(0, len(raw), step) for _, lo, hi in offsets)


def _routes(senders, receivers, offsets) -> list:
    """(sender, receiver, kind) of each frame of a round, in frame order."""
    return [(i, r, kind) for i, r in zip(senders.tolist(), receivers.tolist())
            for kind, _, _ in offsets]


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


def _wire_order(adj):
    """The 1-based (senders, receivers) of one round's messages in wire order."""
    return tuple(ix + 1 for ix in np.nonzero(adj.T))


def _draws_per_agent(m: int) -> int:
    return max(m - 1, 1)


def _drawn_weights(params: MixingParams, seed):
    """The private algorithm's A(k) per batch row: `draw_weight_columns`, on arrays.

    `weights(adj, plan, trials, k0)` gives A(k0) .. A(k0+rounds-1) of the
    trials over a block's adjacencies, rows ordered as its plan's. Each trial
    fills its (seed, trial, k) uniform blocks from its own `KeyedStream`, the
    blocks numpy's `SeedSequence` chain gives; a sender's first out-degree
    draws become its out-weights in receiver order, and the diagonal is one
    minus their sequential sum, so every weight has the bits
    `generate_weight_column` gives it.
    """
    streams = {}  # by trial

    def weights(adj, plan, trials, k0):
        rounds = len(adj)
        nb, m = plan.out_degree.shape
        n = _draws_per_agent(m)
        u = np.empty((rounds, len(trials), m, n))
        for b, trial in enumerate(trials):
            if (stream := streams.get(trial)) is None:
                stream = streams[trial] = KeyedStream(seed, (_WEIGHT_STREAM, trial))
            for r in range(rounds):
                stream.fill(k0 + r, u[r, b])
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


def _receive(shares, gather, groups, d):
    """Row j: `np.sum` over the senders of receiver j, ascending, of its rows of
    `shares` (2d+1 wide), by a round's `gather` and `groups` of a `_RoundPlan`.

    One gather takes every receiver's rows, padded to the widest receiver with
    the -0.0 row, and one reduction sums them. numpy reduces a stack of rows
    sequentially, in index order, and x + (-0.0) is x for every x (NaN, +-inf
    and -0.0 included), so the pad moves no bit however numpy starts a sum. A
    single column numpy sums pairwise once it has 8 or more parts: receivers
    with that many (`groups`) sum theirs (w, and y and s when d == 1) again.
    """
    out = np.add.reduce(shares.take(gather, axis=0), axis=1)
    for rows, parts in groups:
        for c in range(3) if d == 1 else (2 * d,):
            out[rows, c] = np.add.reduce(shares[parts, c], axis=1)
    return out


def _advance(z, g, a, plan, r, adj, step, k, gradients, *, reset_mass, transports,
             trials=None):
    """One synchronous round of every batch row b of z = [y | s | w] (nb, m, 2d+1), with
    gradients g at its estimates, under A(k) a[b] over edges adj[b], summed by round r
    of `plan`. Returns z at k+1 and its RoundState, whose y, s and w are views of z."""
    nb, m, width = z.shape
    d = width // 2
    shares = plan.shares[:-1].reshape(nb, m, m, width)
    np.multiply(a[..., None], z[:, None], out=shares)
    jy, js = shares[..., :d], shares[..., d : 2 * d]
    for b, transport in enumerate(transports):
        if transport is not None:
            transport.send(k, *_wire_order(adj[b]), jy[b], js[b], shares[b, ..., 2 * d])
    jy -= step * js
    z = _receive(plan.shares, plan.gather[r], plan.groups[r], d).reshape(nb, m, width)
    y, s, w = z[..., :d], z[..., d : 2 * d], z[..., 2 * d]
    if reset_mass:
        w[...] = 1.0
    elif np.fmin.reduce(np.abs(w), axis=None) < W_EPS:  # fmin skips NaN: no NaN is "low"
        b, j = np.argwhere(np.abs(w) < W_EPS)[0]
        where = "" if trials is None else f"trial {trials[b]} "
        raise DegenerateStateError(
            f"{where}agent {j + 1} mass {w[b, j]:.3e} at k={k + 1} is inside the division guard"
        )
    x = y / w[..., None]
    g_next = gradients(x)
    s += g_next
    s -= g
    return z, RoundState(y=y, s=s, w=w, x=x, g=g_next)


def iterate(state: RoundState, columns, problem: GlobalProblem, step, k, *,
            reset_mass=False, transport: Transport | None = None) -> RoundState:
    """One synchronous round of one trial. Returns the state at k+1.

    `columns` maps each agent to the `WeightColumn` it drew for round k.
    """
    m, d = state.y.shape
    adj = np.zeros((1, m, m), dtype=bool)
    for i, col in columns.items():
        for l in col.entries:
            adj[0, l - 1, i - 1] = l != i
    a = assemble_weight_matrix(columns.values(), m)
    z = np.concatenate((state.y, state.s, state.w[:, None]), axis=1)[None]
    _, out = _advance(z, state.g[None], a[None], _RoundPlan(adj, 1, 2 * d + 1), 0, adj, step,
                      k, problem.gradients, reset_mass=reset_mass, transports=[transport])
    return _batch_rows(out, 0)


def _batch_rows(st: RoundState, rows) -> RoundState:
    """The batch rows `rows` of every field (an int drops the batch axis)."""
    return RoundState(y=st.y[rows], s=st.s[rows], w=st.w[rows], x=st.x[rows], g=st.g[rows])


def _trial_config(config: RunConfig, trial) -> RunConfig:
    return config if trial == config.trial else replace(config, trial=trial)


def _push_sum(weights):
    """The kernel of the private algorithm and push-diging: `_advance` under the A(k)
    that `weights(adj, plan, trials, k0)` gives a block of rounds."""

    def rounds_of(state, adj, trials, k0, gradients, transports, config):
        rounds, nt, m, _ = adj.shape
        z = np.concatenate((state.y, state.s, state.w[..., None]), axis=2)
        plan = _RoundPlan(adj.reshape(rounds * nt, m, m), rounds, z.shape[-1])
        a = weights(adj, plan, trials, k0).reshape(adj.shape)
        for r in range(rounds):
            k = k0 + r
            z, state = _advance(z, state.g, a[r], plan, r, adj[r], config.step_size, k, gradients,
                                reset_mass=(config.mass_reset and k == 0), transports=transports,
                                trials=trials)
            yield state, a[r]

    return rounds_of


def _uniform_matrix(adj, axis) -> np.ndarray:
    """Equal shares for each agent and its neighbours, from a block of adjacencies
    (..., m, m): column-stochastic over out-neighbours for axis -2 (push-diging's
    1/(out-degree+1)), row-stochastic over in-neighbours for axis -1."""
    a = (adj | np.eye(adj.shape[-1], dtype=bool)).astype(float)
    return a / a.sum(axis=axis, keepdims=True)


def _subgradient_push(state, adj, trials, k0, gradients, transports, config):
    """Diminishing-step push-sum consensus plus a local (sub)gradient step:
    y is the pushed state, w the mass and x = (A y) / (A w) the estimate."""
    a = _uniform_matrix(adj, -2)
    for r in range(len(adj)):
        y = a[r] @ state.y
        w = (a[r] @ state.w[..., None])[..., 0]
        x = y / w[..., None]
        g = gradients(x)
        eta = 1.0 / (k0 + r + 3000)
        state = RoundState(y=y - eta * g, s=state.s, w=w, x=x, g=g)
        yield state, None


def _ab_push_pull(state, adj, trials, k0, gradients, transports, config):
    """Row-stochastic pull on the estimates x, column-stochastic push on the
    tracker s of the local gradients g."""
    rows, cols = _uniform_matrix(adj, -1), _uniform_matrix(adj, -2)
    for r in range(len(adj)):
        x = rows[r] @ (state.x - config.step_size * state.s)
        g = gradients(x)
        state = RoundState(y=x, s=cols[r] @ state.s + g - state.g, w=state.w, x=x, g=g)
        yield state, None


def _run_lockstep(problems, schedules, config: RunConfig, trials, rounds_of,
                  algorithm) -> list:
    """Trials `trials` through a round kernel together, one Trajectory each.

    Trial trials[j] solves problems[j] on schedules[j] under `config` with
    its trial number. The kernel `rounds_of(state, adj, trials, k0,
    gradients, transports, config)` plays the running trials through a
    block of rounds over their adjacencies adj[r, b], yielding the state
    and A(k) (None for the dense kernels) after each round. A block ends at
    the next multiple of `BLOCK`, within `_BLOCK_CELLS` per trial and
    `_BATCH_CELLS` per batch, the horizon and the last round every schedule
    can play, so no schedule is asked for a round the run cannot reach.

    Round r of a block writes row r of the block's buffers: the estimates,
    and the other states and A(k) when recorded. A run without a stopping
    rule takes the block's residuals from its estimates in one call once
    the block is played. A run with one takes each round's residuals as it
    lands: a trial leaves the batch once it meets its rule, and the others
    go on in a new block. Each trial keeps its slice of every block and
    joins its slices once, at the end of the run.
    """
    def kept(state, a=None):
        """A round's values with a leading batch axis: its estimates, and what
        `config` records."""
        row = {"x_series": state.x}
        if config.record_states:
            row.update(y_series=state.y, w_series=state.w, s_series=state.s)
        if config.record_weights and a is not None:
            row["weight_matrices"] = a
        return row

    configs = [_trial_config(config, t) for t in trials]
    starts = [_initial_state(p, c) for p, c in zip(problems, configs)]
    state = RoundState(*(np.stack([getattr(st, f.name) for st in starts])
                         for f in fields(RoundState)))
    key = SharedKey.from_seed(config.seed) if config.encryption else None
    transports = [Transport(p.m, key, [] if config.record_messages else None, t)
                  if config.encryption or config.record_messages else None
                  for p, t in zip(problems, trials)]
    trajs = [Trajectory(algorithm=algorithm, residuals=np.empty(0), iterations=0,
                        x_star=optimal_solution(p), config=c) for p, c in zip(problems, configs)]
    x_star = np.stack([traj.x_star for traj in trajs])[:, None]
    den = _squared_distance(state.x, x_star)  # fixed for the run
    first = relative_residual(state.x, None, x_star, den=den)
    m = problems[0].m
    block = {"residuals": first[None], **{name: v[None] for name, v in kept(state).items()}}
    if config.record_weights:
        block["weight_matrices"] = np.empty((0, len(trials), m, m))  # no A(k) before round 1
    recorded = [name for name in block if config.record_states or name != "x_series"]
    slices = [{name: [block[name][:, j]] for name in recorded} for j in range(len(trials))]
    stop = config.stop_residual
    running = []
    for j, traj in enumerate(trajs):
        if stop is not None and first[j] <= stop:
            traj.stopped_at = 0
        else:
            running.append(j)
    state = _batch_rows(state, running)
    x_star, den = x_star[running], den[running]
    if all(p is problems[0] for p in problems):
        gradients = problems[0].gradients
    else:
        def gradients(x):
            return np.stack([problems[j].gradients(xb) for j, xb in zip(running, x)])

    batch_trials = [trials[j] for j in running]
    batch_transports = [transports[j] for j in running]
    started = time.perf_counter()
    k = 0
    while running and k < config.horizon:
        nt = len(running)
        ends = [schedules[j].length - k for j in running if schedules[j].length is not None]
        rounds = max(1, min(BLOCK - k % BLOCK, config.horizon - k, _BLOCK_CELLS // (m * m),
                            _BATCH_CELLS // (nt * m * m), *ends))
        adj = np.empty((rounds, nt, m, m), dtype=bool)
        for b, j in enumerate(running):
            adj[:, b] = schedules[j].adjacencies(k, rounds)
        block = {name: np.empty((rounds, nt) + v.shape[2:]) for name, v in block.items()}
        played = rounds_of(state, adj, batch_trials, k, gradients, batch_transports, config)
        for r, (state, a) in enumerate(played):
            k += 1
            for name, v in kept(state, a).items():
                block[name][r] = v
            if stop is not None:
                block["residuals"][r] = relative_residual(state.x, None, x_star, den=den)
                if (stopped := block["residuals"][r] <= stop).any():
                    break
        else:
            stopped = None
        if stop is None:
            block["residuals"] = relative_residual(block["x_series"], None, x_star, den=den)
        for b, j in enumerate(running):
            for name in recorded:
                slices[j][name].append(block[name][: r + 1, b])
        if stopped is not None:
            elapsed = time.perf_counter() - started
            for b in np.flatnonzero(stopped).tolist():
                trajs[running[b]].stopped_at = k
                trajs[running[b]].elapsed = elapsed
            keep = np.flatnonzero(~stopped).tolist()
            running = [running[b] for b in keep]
            batch_trials = [batch_trials[b] for b in keep]
            batch_transports = [batch_transports[b] for b in keep]
            state = _batch_rows(state, keep)
            x_star, den = x_star[keep], den[keep]
    for j in running:
        trajs[j].elapsed = time.perf_counter() - started
    for traj, parts, transport in zip(trajs, slices, transports):
        for name, pieces in parts.items():
            setattr(traj, name, np.concatenate(pieces))
        traj.iterations = len(traj.residuals) - 1
        if config.record_messages:
            traj.messages = transport.log
    return trajs


def _check_batch(problems, schedules, trials):
    if not len(problems) == len(schedules) == len(trials) > 0:
        raise ValueError(f"need one problem and one schedule per trial, got {len(problems)} "
                         f"and {len(schedules)} for {len(trials)} trials")
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
    kernels = {"push-diging": _push_sum(lambda adj, plan, trials, k0: _uniform_matrix(adj, -2)),
               "subgradient-push": _subgradient_push, "ab-push-pull": _ab_push_pull}
    if algorithm not in kernels:
        raise ValueError(f"unknown baseline {algorithm!r}; expected one of {BASELINES}")
    cfg = replace(config, mass_reset=False, w0=np.ones(problems[0].m))
    if algorithm != "push-diging":
        cfg = replace(cfg, encryption=False, record_states=False, record_weights=False,
                      record_messages=False)
    return _run_lockstep(problems, schedules, cfg, trials, kernels[algorithm], algorithm)


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
