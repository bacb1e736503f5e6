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
whichever trials share the batch. Masks and weights do not depend on the
state, so the run derives them a block of rounds at a time: every running
trial's adjacency for up to 64 rounds, one index plan (ranks, receiver
groups) over all of them and every A(k) of the block, from one weight
call. The mass is forced back to one when the first round's results land,
which erases the random initial masses from the trajectory. All local
gradients then come from one batched call, all residuals from one
reduction, and a trial that meets its stopping rule leaves the batch.

Those per-edge shares are also what goes on the wire: each trial's
`Transport` packs all of a round's frames at once, in a fixed order,
seals and opens each under AES-GCM when encryption is on, checks that
every opened frame is byte for byte the frame sent, and logs the traffic
when asked. The trajectory never reads from the transport, so sealed and
plain runs are the same computation.

The fixed-weight baseline (`push-diging`) is the same kernel with uniform
columns, so an eavesdropper or a curious neighbor sees exactly the traffic
that algorithm would emit. The two fully dense baselines run trial by
trial on their own loop and mix with plain matrix products.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .channel import (
    KIND_S,
    KIND_W,
    KIND_Y,
    NonceCounter,
    PlainPayload,
    SharedKey,
    TamperError,
    decrypt,
    encode_payload,
    encrypt,
    pack_frames,
)
from .graphs import graph_at  # noqa: F401  (kept as engine.graph_at for perfbench's tracer)
from .mixing import MixingParams, WeightColumn, assemble_weight_matrix, generate_weight_column
from .objectives import GlobalProblem, optimal_solution
from .streams import BLOCK, KeyedStream, check_seed

_INIT_STREAM = 31
_WEIGHT_STREAM = 32

W_EPS = 1e-12
# A block of rounds covers at most this many cells of its (rounds, trials, m,
# m) adjacency, and as many of its A(k); always at least one round. Blocks
# never straddle a multiple of `BLOCK`, so each keyed stream derives once per
# block. Two 6-agent trials take up to 56 rounds at once, while a sealed
# 48-agent trial takes one and keeps the peak memory of a round at a time.
_BLOCK_CELLS = 2**12

BASELINES = ("push-diging", "subgradient-push", "ab-push-pull")


class DegenerateStateError(ArithmeticError):
    """A mass coordinate collapsed below the division guard."""


@dataclass
class AgentState:
    """One agent's row of a `RoundState`."""

    agent: int
    y: np.ndarray
    w: float
    x: np.ndarray
    s: np.ndarray
    prev_grad: np.ndarray


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
    algorithm: str
    residuals: np.ndarray
    iterations: int
    x_star: np.ndarray
    config: RunConfig
    stopped_at: int | None = None
    elapsed: float = 0.0
    x_series: list = field(default_factory=list)
    y_series: list = field(default_factory=list)
    w_series: list = field(default_factory=list)
    s_series: list = field(default_factory=list)
    weight_matrices: list = field(default_factory=list)
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
        x0 = np.array(config.x0, dtype=float).reshape(problem.m, problem.d)
    if config.w0 is not None:
        w0 = np.array(config.w0, dtype=float).reshape(problem.m)
    return x0, w0


def _initial_state(problem: GlobalProblem, config: RunConfig) -> RoundState:
    """State at k=0: estimate and running state coincide, tracker holds the gradient."""
    x0, w0 = _initial_positions(problem, config)
    g = problem.gradients(x0)
    return RoundState(y=x0.copy(), s=g, w=w0, x=x0, g=g.copy())


def init_agents(problem: GlobalProblem, config: RunConfig) -> list:
    """The k=0 state, one `AgentState` per agent."""
    st = _initial_state(problem, config)
    return [AgentState(agent=i, y=st.y[i - 1], w=float(st.w[i - 1]), x=st.x[i - 1],
                       s=st.s[i - 1], prev_grad=st.g[i - 1])
            for i in range(1, problem.m + 1)]


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
    (the round kernel builds them on arrays, `_uniform_weights`)."""
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
    packed at once; with a key each frame is then sealed and opened again,
    and a message that does not open to exactly the bytes sent fails the
    round. Without a key messages are only framed, for the log.
    """

    def __init__(self, m: int, key: SharedKey | None, log: list | None):
        self.key = key
        self.counters = {i: NonceCounter(i) for i in range(1, m + 1)}
        self.log = log

    def send(self, k, senders, receivers, jy, js, jw):
        """Ship round k: one message from each senders[t] to receivers[t] (agents,
        in wire order); jy[r-1, i-1] (and js, jw) is what sender i owes receiver r."""
        if not len(senders):
            return
        at_edges = (receivers - 1, senders - 1)
        raw, step, offsets = pack_frames(k, senders, receivers, (
            (KIND_Y, jy[at_edges]), (KIND_S, js[at_edges]), (KIND_W, jw[at_edges][:, None])))
        for at, i, r in zip(range(0, len(raw), step), senders.tolist(), receivers.tolist()):
            for kind, lo, hi in offsets:
                frame = raw[at + lo : at + hi]
                p = PlainPayload.wrap(frame)
                cipher = None
                if self.key is not None:
                    env = encrypt(self.key, p, self.counters[i])
                    if decrypt(self.key, env).frame != frame:
                        raise TamperError(f"k={k} {kind} message {i}->{r} opened to other bytes")
                    if self.log is not None:
                        cipher = env.to_bytes()
                if self.log is not None:
                    self.log.append(
                        MessageRecord(k, i, r, kind, p.data, encode_payload(p), cipher))


class _RoundPlan:
    """Index plan of a block of rounds over a batch of trials.

    `adj[b, l, i]` is edge (l+1, i+1) of batch row b; rows are ordered
    (round, trial), `rounds` rounds of equally many trials. The plan derives
    each sender's out-degree; where each active edge's weight goes in A(k)
    (`edges`, ascending flat positions), whose row of per-sender values it
    takes (`edge_senders`) and which draw of that sender's uniform block it
    takes (`edge_draws`, by the receiver's rank among the sender's
    receivers); and, per round r, the receiver groups `_receive` sums by
    (`groups[r]`, over that round's rows).
    """

    def __init__(self, adj, rounds=1):
        nb, m, _ = adj.shape
        self.out_degree = adj.sum(axis=1)
        self.edges = np.flatnonzero(adj)
        b, _, i = np.unravel_index(self.edges, adj.shape)
        self.edge_senders = b * m + i
        rank = np.cumsum(adj, axis=1).reshape(-1)[self.edges] - 1
        self.edge_draws = self.edge_senders * _draws_per_agent(m) + rank
        # receivers (batch rows b*m + l) by their number of parts, own share
        # included; a group's rows ascend, so each round's rows are a run of them
        parts = (adj | np.eye(m, dtype=bool)).reshape(nb * m, m)
        counts = parts.sum(axis=1)
        order = np.argsort(counts, kind="stable")
        senders = np.nonzero(parts[order])[1]
        span = nb * m // rounds  # receiver rows per round
        bounds = np.arange(rounds + 1) * span
        self.groups = [[] for _ in range(rounds)]
        row = part = 0
        for count, size in enumerate(np.bincount(counts).tolist()):
            if size:
                rows = order[row : row + size]
                group = senders[part : part + size * count].reshape(size, count)
                if rounds == 1:  # nothing to cut: one round costs what it did alone
                    self.groups[0].append((rows, group))
                else:
                    cuts = np.searchsorted(rows, bounds).tolist()
                    rows = rows % span
                    for r, lo, hi in zip(range(rounds), cuts, cuts[1:]):
                        if lo < hi:
                            self.groups[r].append((rows[lo:hi], group[lo:hi]))
                row, part = row + size, part + size * count


def _wire_order(adj):
    """The 1-based (senders, receivers) of one round's messages in wire order."""
    return tuple(ix + 1 for ix in np.nonzero(adj.T))


def _draws_per_agent(m: int) -> int:
    return max(m - 1, 1)


def _weight_matrices(plan, edge_weights, diagonal):
    """A(k) of every batch row from the active edges' weights, in plan order, and the diagonal."""
    nb, m = plan.out_degree.shape
    a = np.zeros((nb, m, m))
    a.reshape(-1)[plan.edges] = edge_weights
    a.reshape(nb, m * m)[:, :: m + 1] = diagonal
    return a


def _drawn_weights(params: MixingParams, seed):
    """The private algorithm's A(k) per batch row: `draw_weight_columns`, on arrays.

    `weights(plan, trials, k0, rounds)` gives A(k0) .. A(k0+rounds-1) of the
    trials, rows ordered as the plan's. Each trial fills its (seed, trial, k)
    uniform blocks from its own `KeyedStream`, the blocks numpy's
    `SeedSequence` chain gives; a sender's first out-degree draws become its
    out-weights in receiver order, and the diagonal is one minus their
    sequential sum, so every weight has the bits `generate_weight_column`
    gives it.
    """
    streams = {}  # by trial

    def weights(plan, trials, k0, rounds):
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
        return _weight_matrices(plan, w, 1.0 - total)

    return weights


def _uniform_weights(plan, trials, k0, rounds):
    """push-diging's fixed 1/(out-degree+1) shares per batch row, as `uniform_out_columns`."""
    share = 1.0 / (plan.out_degree + 1)
    return _weight_matrices(plan, share.reshape(-1)[plan.edge_senders], share)


def _receive(parts, groups, spans):
    """Row j: `np.sum` over the senders of j, ascending, of parts[j, i, span], per span.

    Receivers with the same number of senders are summed in one call, across
    every trial of the batch; numpy reduces each row of that block exactly as
    it reduces the parts of that receiver alone: a stack of rows
    sequentially, a single column pairwise once it has 8 or more parts.
    """
    out = np.empty((parts.shape[0], parts.shape[2]))
    for rows, senders in groups:
        block = parts[rows[:, None], senders]
        for span in spans:
            out[rows, span] = np.add.reduce(block[:, :, span], axis=1)
    return out


def _advance(state: RoundState, a, groups, adj, step, k, gradients, *, reset_mass,
             transports, trials=None) -> RoundState:
    """One synchronous round of every batch row of `state` (arrays with a leading
    batch axis) under its A(k), a[b], over its edges adj[b], with the round's
    receiver `groups` of a `_RoundPlan`. Returns the states at k+1."""
    nb, m, d = state.y.shape
    jy = a[..., None] * state.y[:, None]
    js = a[..., None] * state.s[:, None]
    jw = a * state.w[:, None]
    for b, transport in enumerate(transports):
        if transport is not None:
            transport.send(k, *_wire_order(adj[b]), jy[b], js[b], jw[b])
    # y and s side by side are still a stack of rows; w, and y and s when
    # d == 1, are single columns and are summed on their own
    spans = (slice(0, 2 * d), slice(2 * d, None)) if d > 1 else (
        slice(0, 1), slice(1, 2), slice(2, None))
    parts = np.concatenate((jy - step * js, js, jw[..., None]), axis=3)
    sums = _receive(parts.reshape(nb * m, m, -1), groups, spans).reshape(nb, m, -1)
    y, s_mix = sums[..., :d], sums[..., d : 2 * d]
    w = np.ones((nb, m)) if reset_mass else sums[..., 2 * d]
    low = np.abs(w) < W_EPS
    if low.any():
        b, j = np.argwhere(low)[0]
        where = "" if trials is None else f"trial {trials[b]} "
        raise DegenerateStateError(
            f"{where}agent {j + 1} mass {w[b, j]:.3e} at k={k + 1} is inside the division guard"
        )
    x = y / w[..., None]
    g = gradients(x)
    return RoundState(y=y, s=s_mix + g - state.g, w=w, x=x, g=g)


def iterate(state: RoundState, columns, problem: GlobalProblem, step, k, *,
            reset_mass=False, transport: Transport | None = None) -> RoundState:
    """One synchronous round of one trial. Returns the state at k+1.

    `columns` maps each agent to the `WeightColumn` it drew for round k.
    """
    m = state.y.shape[0]
    adj = np.zeros((1, m, m), dtype=bool)
    for i, col in columns.items():
        for l in col.entries:
            adj[0, l - 1, i - 1] = l != i
    a = assemble_weight_matrix(columns.values(), m)
    out = _advance(_batch_rows(state, None), a[None], _RoundPlan(adj).groups[0], adj, step, k,
                   problem.gradients, reset_mass=reset_mass, transports=[transport])
    return _batch_rows(out, 0)


def _batch_rows(st: RoundState, rows) -> RoundState:
    """The batch rows `rows` of every field (None adds a batch axis, an int drops it)."""
    return RoundState(y=st.y[rows], s=st.s[rows], w=st.w[rows], x=st.x[rows], g=st.g[rows])


def _record_states(traj: Trajectory, state: RoundState, row):
    # copies: a view of one row would keep the whole batch's arrays alive
    traj.x_series.append(state.x[row].copy())
    traj.y_series.append(state.y[row].copy())
    traj.w_series.append(state.w[row].copy())
    traj.s_series.append(state.s[row].copy())


def _trial_config(config: RunConfig, trial) -> RunConfig:
    return config if trial == config.trial else replace(config, trial=trial)


def _run_lockstep(problems, schedules, config: RunConfig, trials, weights,
                  algorithm) -> list:
    """Trials `trials` through the round kernel together, one Trajectory each.

    Trial trials[j] solves problems[j] on schedules[j] under `config` with
    its trial number; `weights(plan, trials, k0, rounds)` gives the running
    trials' A(k) for a block of rounds. A block ends at the next multiple of
    `BLOCK`, within `_BLOCK_CELLS`, the horizon and the last round every
    schedule can play, so no schedule is asked for a round the run cannot
    reach. A trial leaves the batch once it meets its stopping rule, and the
    others go on in a new block.
    """
    configs = [_trial_config(config, t) for t in trials]
    starts = [_initial_state(p, c) for p, c in zip(problems, configs)]
    state = RoundState(*(np.stack([getattr(st, f.name) for st in starts])
                         for f in fields(RoundState)))
    key = SharedKey.from_seed(config.seed) if config.encryption else None
    transports = [Transport(p.m, key, [] if config.record_messages else None)
                  if config.encryption or config.record_messages else None for p in problems]
    trajs = [Trajectory(algorithm=algorithm, residuals=np.empty(0), iterations=0,
                        x_star=optimal_solution(p), config=c) for p, c in zip(problems, configs)]
    x_star = np.stack([traj.x_star for traj in trajs])[:, None]
    den = _squared_distance(state.x, x_star)  # fixed for the run
    first = relative_residual(state.x, None, x_star, den=den)
    residuals = [[first[j : j + 1]] for j in range(len(trials))]  # blocks, per trial
    stop = config.stop_residual
    running = []
    for j, traj in enumerate(trajs):
        if config.record_states:
            _record_states(traj, state, j)
        if stop is not None and first[j] <= stop:
            traj.stopped_at = 0
        else:
            running.append(j)
    state = _batch_rows(state, running)
    x_star, den = x_star[running], den[running]
    m = problems[0].m
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
        rounds = max(1, min(BLOCK - k % BLOCK, config.horizon - k,
                            _BLOCK_CELLS // (nt * m * m), *ends))
        adj = np.empty((rounds, nt, m, m), dtype=bool)
        for b, j in enumerate(running):
            adj[:, b] = schedules[j].adjacencies(k, rounds)
        plan = _RoundPlan(adj.reshape(rounds * nt, m, m), rounds)
        a = weights(plan, batch_trials, k, rounds).reshape(rounds, nt, m, m)
        res = np.empty((rounds, nt))
        for r in range(rounds):
            if config.record_weights:
                for j, ab in zip(running, a[r]):
                    trajs[j].weight_matrices.append(ab.copy())
            state = _advance(state, a[r], plan.groups[r], adj[r], config.step_size, k,
                             gradients, reset_mass=(config.mass_reset and k == 0),
                             transports=batch_transports, trials=batch_trials)
            k += 1
            res[r] = relative_residual(state.x, None, x_star, den=den)
            if config.record_states:
                for b, j in enumerate(running):
                    _record_states(trajs[j], state, b)
            if stop is not None and (stopped := res[r] <= stop).any():
                break
        else:
            stopped = None
        for b, j in enumerate(running):
            residuals[j].append(res[: r + 1, b])
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
    for traj, res, transport in zip(trajs, residuals, transports):
        traj.residuals = np.concatenate(res)
        traj.iterations = len(traj.residuals) - 1
        if config.record_messages:
            traj.messages = transport.log
    return trajs


def _run_rounds(problem, config: RunConfig, algorithm, x_init, state, advance, estimate
                ) -> Trajectory:
    """The loop of the dense baselines: advance, residual, stop."""
    x_star = optimal_solution(problem)
    traj = Trajectory(algorithm=algorithm, residuals=np.empty(0), iterations=0,
                      x_star=x_star, config=config)
    den = _squared_distance(x_init, x_star)  # fixed for the run
    residuals = [relative_residual(estimate(state), x_init, x_star, den=den)]
    if config.stop_residual is not None and residuals[0] <= config.stop_residual:
        traj.residuals = np.array(residuals)
        traj.stopped_at = 0
        return traj

    started = time.perf_counter()
    for k in range(config.horizon):
        state = advance(state, k)
        res = relative_residual(estimate(state), x_init, x_star, den=den)
        residuals.append(res)
        if config.stop_residual is not None and res <= config.stop_residual:
            traj.stopped_at = k + 1
            break
    traj.elapsed = time.perf_counter() - started
    traj.iterations = len(residuals) - 1
    traj.residuals = np.array(residuals)
    return traj


def _check_batch(problems, schedules, trials):
    if not len(problems) == len(schedules) == len(trials) > 0:
        raise ValueError(f"need one problem and one schedule per trial, got {len(problems)} "
                         f"and {len(schedules)} for {len(trials)} trials")
    for problem, schedule in zip(problems, schedules):
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
                         _drawn_weights(params, config.seed), "private-push-sum")


def run(problem: GlobalProblem, schedule, params: MixingParams, config: RunConfig) -> Trajectory:
    """Run the private optimizer with freshly drawn weights every round."""
    return run_trials([problem], [schedule], params, config, [config.trial])[0]


def run_baseline_trials(problems, schedules, config: RunConfig, algorithm: str, trials) -> list:
    """`run_baseline` for every trial in `trials`, as `run_trials` runs the private optimizer.

    `push-diging` runs the trials in lockstep; the dense references run them
    one after another.
    """
    trials = list(trials)
    _check_batch(problems, schedules, trials)
    if algorithm == "push-diging":
        cfg = replace(config, mass_reset=False, w0=np.ones(problems[0].m))
        return _run_lockstep(problems, schedules, cfg, trials, _uniform_weights, algorithm)
    dense = {"subgradient-push": _run_subgradient_push, "ab-push-pull": _run_ab_push_pull}
    if algorithm not in dense:
        raise ValueError(f"unknown baseline {algorithm!r}; expected one of {BASELINES}")
    return [dense[algorithm](p, s, _trial_config(config, t))
            for p, s, t in zip(problems, schedules, trials)]


def run_baseline(problem: GlobalProblem, schedule, config: RunConfig, algorithm: str) -> Trajectory:
    """Run one of the reference algorithms under the same instance and schedule.

    `push-diging` goes through the round kernel (and therefore through the
    channel when encryption is on); its mass starts at one everywhere and
    is never reset. The other two are dense references: they model
    algorithms whose traffic we never inspect, so plain matrix products
    are enough.
    """
    return run_baseline_trials([problem], [schedule], config, algorithm, [config.trial])[0]


def _uniform_matrix(adj, axis) -> np.ndarray:
    """Equal shares for each agent and its neighbours, from the round's adjacency:
    column-stochastic over out-neighbours for axis 0, row-stochastic over
    in-neighbours for axis 1."""
    a = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    return a / a.sum(axis=axis, keepdims=True)


def _run_subgradient_push(problem, schedule, config):
    """Diminishing-step push-sum consensus plus a local (sub)gradient step.

    State: (x, mass, z), with z = x / mass the estimate.
    """
    x0, _ = _initial_positions(problem, config)

    def advance(st, k):
        x, mass, _ = st
        a = _uniform_matrix(schedule.adjacency(k), 0)
        mixed = a @ x
        mass = a @ mass
        z = mixed / mass[:, None]
        eta = 1.0 / (k + 3000)
        return mixed - eta * problem.gradients(z), mass, z

    return _run_rounds(problem, config, "subgradient-push", x0,
                       (x0.copy(), np.ones(problem.m), x0.copy()), advance, lambda st: st[2])


def _run_ab_push_pull(problem, schedule, config):
    """Row-stochastic pull on the estimates, column-stochastic push on the tracker.

    State: (x, y, g), with x the estimate, y the tracker and g the local gradients.
    """
    x0, _ = _initial_positions(problem, config)

    def advance(st, k):
        x, y, g = st
        adj = schedule.adjacency(k)
        r = _uniform_matrix(adj, 1)
        c = _uniform_matrix(adj, 0)
        x_new = r @ (x - config.step_size * y)
        g_new = problem.gradients(x_new)
        return x_new, c @ y + g_new - g, g_new

    g0 = problem.gradients(x0)
    return _run_rounds(problem, config, "ab-push-pull", x0, (x0.copy(), g0.copy(), g0), advance,
                       lambda st: st[0])
