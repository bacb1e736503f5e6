"""Synchronous simulation engine for push-sum gradient tracking over AES channels.

The private algorithm is a matrix recursion on row-stacked arrays: y, s
(m-by-d) and the mass w (m,). Each round the drawn weight columns form
A(k); sender i owes receiver l the shares A[l, i] * (y_i, s_i, w_i), and
every receiver sums the shares it is owed, its own diagonal share
included, in ascending sender order with numpy's own reductions, so the
bits match a per-agent message loop. The mass is forced back to one when
the first round's results land, which erases the random initial masses
from the trajectory. All local gradients then come from one batched call.

Those per-edge shares are also what goes on the wire: a `Transport`
packs all of a round's frames at once, in a fixed order, seals and opens
each under AES-GCM when encryption is on, checks that every opened frame
is byte for byte the frame sent, and logs the traffic when asked. The
trajectory never reads from the transport, so sealed and plain runs are
the same computation.

The fixed-weight baseline (`push-diging`) is the same kernel with uniform
columns, so an eavesdropper or a curious neighbor sees exactly the traffic
that algorithm would emit. The two fully dense baselines share the run
loop but mix with plain matrix products.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace

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
from .graphs import graph_at
from .mixing import MixingParams, WeightColumn, assemble_weight_matrix, generate_weight_column
from .objectives import GlobalProblem, optimal_solution

_INIT_STREAM = 31
_WEIGHT_STREAM = 32

W_EPS = 1e-12

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
    """All agents' variables after one round, row i-1 for agent i."""

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


def _squared_distance(x, x_star) -> float:
    return float(np.sum((np.asarray(x) - x_star) ** 2))


def relative_residual(x, x_init, x_star, *, den=None) -> float:
    """Squared distance of the stacked estimates to the optimum, relative to start.

    `den`, the start's squared distance, is computed from `x_init` unless given.
    """
    num = _squared_distance(x, x_star)
    if den is None:
        den = _squared_distance(x_init, x_star)
    if den == 0.0:
        return 0.0 if num == 0.0 else float("inf")
    return num / den


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
    """
    m = graph.m
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_WEIGHT_STREAM, trial, k))
    block = np.random.default_rng(ss).random((m, max(m - 1, 1)))
    return {
        i: generate_weight_column(i, graph.out_neighbors(i), k, params, block[i - 1])
        for i in range(1, m + 1)
    }


def uniform_out_columns(graph, k: int) -> dict:
    """Fixed 1/(out-degree+1) columns used by the push-diging baseline."""
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

    def send(self, k, columns, jy, js, jw):
        """Ship round k: jy[r-1, i-1] (and js, jw) is what sender i owes receiver r."""
        pairs = [(i, r) for i in sorted(columns) for r in sorted(columns[i].entries) if r != i]
        if not pairs:
            return
        snd, rcv = np.array(pairs).T
        raw, step, offsets = pack_frames(k, snd, rcv, (
            (KIND_Y, jy[rcv - 1, snd - 1]), (KIND_S, js[rcv - 1, snd - 1]),
            (KIND_W, jw[rcv - 1, snd - 1, None])))
        for at, (i, r) in zip(range(0, len(raw), step), pairs):
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


def _mixing_matrix(columns, m: int):
    """A(k), plus each receiver's senders grouped by their number.

    A group (rows, senders) lists receivers rows[t] (0-based) whose senders,
    ascending and the receiver itself included, are senders[t].
    """
    a = np.zeros((m, m))
    inbound = [[] for _ in range(m)]
    for i in sorted(columns):
        for l, w in columns[i].entries.items():
            a[l - 1, i - 1] = w
            inbound[l - 1].append(i - 1)
    by_count = {}
    for j, senders in enumerate(inbound):
        by_count.setdefault(len(senders), []).append(j)
    groups = [(np.array(rows), np.array([inbound[j] for j in rows]))
              for rows in by_count.values()]
    return a, groups


def _receive(parts, groups, spans):
    """Row j: `np.sum` over the senders of j, ascending, of parts[j, i, span], per span.

    Receivers with the same number of senders are summed in one call; numpy
    reduces each row of that block exactly as it reduces the parts of that
    receiver alone: a stack of rows sequentially, a single column pairwise
    once it has 8 or more parts.
    """
    out = np.empty((parts.shape[0], parts.shape[2]))
    for rows, senders in groups:
        block = parts[rows[:, None], senders]
        for span in spans:
            out[rows, span] = np.add.reduce(block[:, :, span], axis=1)
    return out


def iterate(state: RoundState, columns, problem: GlobalProblem, step, k, *,
            reset_mass=False, transport: Transport | None = None) -> RoundState:
    """One synchronous round. Returns the state at k+1.

    `columns` maps each agent to the `WeightColumn` it drew for round k.
    """
    m, d = state.y.shape
    a, groups = _mixing_matrix(columns, m)
    jy = a[:, :, None] * state.y
    js = a[:, :, None] * state.s
    jw = a * state.w
    if transport is not None:
        transport.send(k, columns, jy, js, jw)
    # y and s side by side are still a stack of rows; w, and y and s when
    # d == 1, are single columns and are summed on their own
    spans = (slice(0, 2 * d), slice(2 * d, None)) if d > 1 else (
        slice(0, 1), slice(1, 2), slice(2, None))
    sums = _receive(np.concatenate((jy - step * js, js, jw[:, :, None]), axis=2), groups, spans)
    y, s_mix = sums[:, :d], sums[:, d : 2 * d]
    w = np.ones(m) if reset_mass else sums[:, 2 * d]
    low = np.flatnonzero(np.abs(w) < W_EPS)
    if low.size:
        j = int(low[0])
        raise DegenerateStateError(
            f"agent {j + 1} mass {w[j]:.3e} at k={k + 1} is inside the division guard"
        )
    x = y / w[:, None]
    g = problem.gradients(x)
    return RoundState(y=y, s=s_mix + g - state.g, w=w, x=x, g=g)


def _run_rounds(problem, config: RunConfig, algorithm, x_init, state, advance, estimate,
                record=None) -> Trajectory:
    """The loop every algorithm shares: advance, record, residual, stop."""
    x_star = optimal_solution(problem)
    traj = Trajectory(algorithm=algorithm, residuals=np.empty(0), iterations=0,
                      x_star=x_star, config=config)
    den = _squared_distance(x_init, x_star)  # fixed for the run
    residuals = [relative_residual(estimate(state), x_init, x_star, den=den)]
    if record is not None:
        record(traj, state)
    if config.stop_residual is not None and residuals[0] <= config.stop_residual:
        traj.residuals = np.array(residuals)
        traj.stopped_at = 0
        return traj

    started = time.perf_counter()
    for k in range(config.horizon):
        state = advance(state, k)
        if record is not None:
            record(traj, state)
        res = relative_residual(estimate(state), x_init, x_star, den=den)
        residuals.append(res)
        if config.stop_residual is not None and res <= config.stop_residual:
            traj.stopped_at = k + 1
            break
    traj.elapsed = time.perf_counter() - started
    traj.iterations = len(residuals) - 1
    traj.residuals = np.array(residuals)
    return traj


def _record_states(traj: Trajectory, state: RoundState):
    traj.x_series.append(state.x)
    traj.y_series.append(state.y)
    traj.w_series.append(state.w)
    traj.s_series.append(state.s)


def _run_kernel(problem, schedule, config: RunConfig, column_fn, algorithm) -> Trajectory:
    """The private algorithm or push-diging: the array round kernel plus transport."""
    m = problem.m
    state = _initial_state(problem, config)
    transport = None
    if config.encryption or config.record_messages:
        key = SharedKey.from_seed(config.seed) if config.encryption else None
        transport = Transport(m, key, [] if config.record_messages else None)
    weight_matrices = []

    def advance(st, k):
        columns = column_fn(graph_at(schedule, k), k)
        if config.record_weights:
            weight_matrices.append(assemble_weight_matrix(columns.values(), m))
        return iterate(st, columns, problem, config.step_size, k,
                       reset_mass=(config.mass_reset and k == 0), transport=transport)

    traj = _run_rounds(problem, config, algorithm, state.x, state, advance, lambda st: st.x,
                       _record_states if config.record_states else None)
    traj.weight_matrices = weight_matrices
    if config.record_messages:
        traj.messages = transport.log
    return traj


def _check_agent_count(problem, schedule):
    if schedule.m != problem.m:
        raise ValueError(
            f"schedule is over {schedule.m} agents but the problem has {problem.m}"
        )


def run(problem: GlobalProblem, schedule, params: MixingParams, config: RunConfig) -> Trajectory:
    """Run the private optimizer with freshly drawn weights every round."""
    _check_agent_count(problem, schedule)
    params.validate_for(problem.m)

    def column_fn(graph, k):
        return draw_weight_columns(graph, params, config.seed, config.trial, k)

    return _run_kernel(problem, schedule, config, column_fn, "private-push-sum")


def run_baseline(problem: GlobalProblem, schedule, config: RunConfig, algorithm: str) -> Trajectory:
    """Run one of the reference algorithms under the same instance and schedule.

    `push-diging` goes through the round kernel (and therefore through the
    channel when encryption is on); its mass starts at one everywhere and
    is never reset. The other two are dense references: they model
    algorithms whose traffic we never inspect, so plain matrix products
    are enough.
    """
    _check_agent_count(problem, schedule)
    if algorithm == "push-diging":
        cfg = replace(config, mass_reset=False, w0=np.ones(problem.m))
        return _run_kernel(problem, schedule, cfg, uniform_out_columns, algorithm)
    if algorithm == "subgradient-push":
        return _run_subgradient_push(problem, schedule, config)
    if algorithm == "ab-push-pull":
        return _run_ab_push_pull(problem, schedule, config)
    raise ValueError(f"unknown baseline {algorithm!r}; expected one of {BASELINES}")


def _uniform_matrix(graph, axis) -> np.ndarray:
    """Equal shares for each agent and its neighbours: column-stochastic over
    out-neighbours for axis 0, row-stochastic over in-neighbours for axis 1."""
    a = np.eye(graph.m)
    for (l, i) in graph.edges:
        a[l - 1, i - 1] = 1.0
    return a / a.sum(axis=axis, keepdims=True)


def _run_subgradient_push(problem, schedule, config):
    """Diminishing-step push-sum consensus plus a local (sub)gradient step.

    State: (x, mass, z), with z = x / mass the estimate.
    """
    x0, _ = _initial_positions(problem, config)

    def advance(st, k):
        x, mass, _ = st
        a = _uniform_matrix(graph_at(schedule, k), 0)
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
        graph = graph_at(schedule, k)
        r = _uniform_matrix(graph, 1)
        c = _uniform_matrix(graph, 0)
        x_new = r @ (x - config.step_size * y)
        g_new = problem.gradients(x_new)
        return x_new, c @ y + g_new - g, g_new

    g0 = problem.gradients(x0)
    return _run_rounds(problem, config, "ab-push-pull", x0, (x0.copy(), g0.copy(), g0), advance,
                       lambda st: st[0])
