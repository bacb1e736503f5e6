"""Time-varying directed communication graphs and connectivity certification.

Agents are numbered 1..m. An edge is an ordered pair (receiver, sender):
(l, i) means agent l can receive information from agent i. Self-loops are
never stored; every agent implicitly keeps a self-weight.

A graph's edges have one array form, the m-by-m boolean matrix that is True
at [l-1, i-1] for edge (l, i) (`DirectedGraph.matrix`). A schedule gives a
block of rounds as an (n, m, m) stack of these (`adjacencies(k, n)`), which
the round kernel and the connectivity certificate read; `graph_at(schedule,
k)` gives one round as a `DirectedGraph`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .streams import (STREAMS, KeyedStream, check_count, check_seed, put_once, read_lines,
                      write_lines)


class ScheduleExhausted(RuntimeError):
    """A scripted schedule without repetition was asked past its last graph."""


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on agents 1..m with (receiver, sender) edges."""

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "m", check_count("m", self.m))
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (l, i) in self.edges:
            if l == i:
                raise ValueError(f"self-loop ({l}, {i}) is implicit and must not be stored")
            if not (1 <= l <= self.m and 1 <= i <= self.m):
                raise ValueError(f"edge ({l}, {i}) outside 1..{self.m}")

    @cached_property
    def matrix(self) -> np.ndarray:
        """Read-only m-by-m boolean matrix, True at [l-1, i-1] for each edge (l, i)."""
        a = np.zeros((self.m, self.m), dtype=bool)
        for (l, i) in self.edges:
            a[l - 1, i - 1] = True
        a.flags.writeable = False
        return a

    def in_neighbors(self, l):
        """Agents that l receives from."""
        return (np.flatnonzero(self.matrix[l - 1]) + 1).tolist()

    def out_neighbors(self, i):
        """Agents that receive from i."""
        return (np.flatnonzero(self.matrix[:, i - 1]) + 1).tolist()

    def out_degree(self, i):
        return int(np.count_nonzero(self.matrix[:, i - 1]))

    def sorted_edges(self):
        """Canonical edge order used for activation draws and file output."""
        return sorted(self.edges)


def _strongly_connected(a: np.ndarray) -> np.ndarray:
    """Whether each adjacency of the stack `a` (..., m, m), True at [..., l, i] when l
    receives from i, joins every ordered pair of distinct agents by a directed path.

    Two sweeps from agent 1 over every graph, run as one: along out-edges (1
    reaches all) and along in-edges (all reach 1), until no graph reaches a new agent.
    """
    steps = np.stack((a, np.swapaxes(a, -1, -2)))  # [..., u, v] True: a step from v to u
    seen = np.zeros(steps.shape[:-1] + (1,), dtype=bool)
    seen[..., 0, 0] = True
    while (new := steps @ seen & ~seen).any():
        seen |= new
    return seen.all(axis=(0, -2, -1))


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

class ScriptedSchedule:
    """A fixed list of graphs played back by iteration index.

    mode "once"  : k past the list raises ScheduleExhausted
    mode "cycle" : the list repeats forever
    mode "hold"  : the last graph persists forever
    """

    def __init__(self, graphs, mode="once"):
        if not graphs:
            raise ValueError("scripted schedule needs at least one graph")
        ms = {g.m for g in graphs}
        if len(ms) != 1:
            raise ValueError("all scripted graphs must share the same agent count")
        if mode not in ("once", "cycle", "hold"):
            raise ValueError(f"unknown mode {mode!r}")
        self.graphs = list(graphs)
        self.mode = mode
        self.m = ms.pop()
        self.length = len(self.graphs) if mode == "once" else None
        self._matrices = np.stack([g.matrix for g in self.graphs])

    def _positions(self, k: int, n: int) -> np.ndarray:
        """Which graph plays at each of the iterations k .. k+n-1."""
        count = len(self.graphs)
        ks = np.arange(k, k + n)
        if self.mode == "cycle":
            return ks % count
        if self.mode == "hold":
            return np.minimum(ks, count - 1)
        if k + n > count:
            raise ScheduleExhausted(
                f"scripted schedule has {count} graphs, asked for k={max(k, count)}")
        return ks

    def adjacencies(self, k: int, n: int) -> np.ndarray:
        """The graphs at iterations k .. k+n-1 as an (n, m, m) boolean array, True at
        [r, l-1, i-1] for edge (l, i) at iteration k+r; callers only read it. k and n
        must be non-negative whole numbers (`check_seed`)."""
        return self._matrices[self._positions(check_seed("k", k), check_seed("n", n))]


class StaticSchedule(ScriptedSchedule):
    """The same graph at every iteration: the script of one graph, held."""

    def __init__(self, graph: DirectedGraph):
        super().__init__([graph], mode="hold")
        self.graph = graph


class RandomActivationSchedule:
    """Each base edge is kept independently with probability p at every k.

    The draw for iteration k is numpy's uniform stream keyed (seed, 11, k),
    one uniform per edge of the base graph in canonical sorted order, so
    the schedule is replayable and order-independent across calls. The masks of
    iterations k .. k+n-1 come from one `streams.KeyedStream.fill_span` call,
    bit for bit the uniforms a `SeedSequence` per iteration would give: with
    up to 64 base edges, from one vectorized PCG64 pass per 64 iterations,
    kept until the next block is asked for; with more, one generator each.
    """

    length = None  # it plays forever

    def __init__(self, base: DirectedGraph, p: float, seed: int):
        if not (0.0 < p <= 1.0):
            raise ValueError("activation probability must lie in (0, 1]")
        self.base = base
        self.p = float(p)
        self.seed = check_seed("activation seed", seed)
        self.m = base.m
        self._flat = np.flatnonzero(base.matrix)  # row-major: the sorted base edges
        self._stream = KeyedStream(self.seed, (STREAMS["activation"],))

    def edge_masks(self, k: int, n: int) -> np.ndarray:
        """Row r: which of the sorted base edges are active at iteration k+r; k and n
        as `ScriptedSchedule.adjacencies` takes them."""
        k, n = check_seed("k", k), check_seed("n", n)
        return self._stream.fill_span(k, np.empty((n, len(self._flat)))) < self.p

    def adjacencies(self, k: int, n: int) -> np.ndarray:
        """`ScriptedSchedule.adjacencies` of the graphs at iterations k .. k+n-1, from
        their edge masks."""
        masks = self.edge_masks(k, n)
        a = np.zeros((len(masks), self.m * self.m), dtype=bool)
        a[:, self._flat] = masks
        return a.reshape(len(masks), self.m, self.m)


def graph_at(schedule, k: int) -> DirectedGraph:
    """Graph of the schedule at iteration k, read from its adjacency."""
    edges = np.argwhere(schedule.adjacencies(k, 1)[0]) + 1
    return DirectedGraph(m=schedule.m, edges=frozenset(map(tuple, edges.tolist())))


# ---------------------------------------------------------------------------
# Connectivity certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityCertificate:
    """Result of an empirical uniform-connectivity check over a horizon.

    b_tilde is the smallest window length whose window-unions are all
    strongly connected within the horizon, or None if no window up to the
    horizon works. b = 2*b_tilde - 1 is the derived path-mixing constant.
    For randomly activated schedules the certificate is probabilistic: it
    covers the inspected horizon only.
    """

    b_tilde: int | None
    horizon: int
    probabilistic: bool = False

    @property
    def b(self) -> int | None:
        return None if self.b_tilde is None else 2 * self.b_tilde - 1


def certify_uniform_connectivity(schedule, horizon=200) -> ConnectivityCertificate:
    """Smallest window B such that every length-B union graph over the horizon
    is strongly connected.

    Windows are aligned: for window b the unions of E(t*b) .. E(t*b + b - 1)
    are checked for every t with t*b + b - 1 < horizon.
    """
    horizon = check_count("horizon", horizon)
    adj = schedule.adjacencies(0, horizon)
    m = schedule.m
    probabilistic = isinstance(schedule, RandomActivationSchedule)
    for b in range(1, horizon + 1):
        windows = adj[: horizon // b * b].reshape(-1, b, m, m)
        if _strongly_connected(windows.any(axis=1)).all():
            return ConnectivityCertificate(b_tilde=b, horizon=horizon, probabilistic=probabilistic)
    return ConnectivityCertificate(b_tilde=None, horizon=horizon, probabilistic=probabilistic)


# ---------------------------------------------------------------------------
# Graph description files
# ---------------------------------------------------------------------------

def save_graph_file(schedule, path):
    """Write a schedule to a line-based description file."""
    lines = [f"m {schedule.m}"]
    if isinstance(schedule, StaticSchedule):
        lines.append("schedule static")
        lines += [f"edge {l} {i}" for (l, i) in schedule.graph.sorted_edges()]
    elif isinstance(schedule, ScriptedSchedule):
        lines += ["schedule scripted", f"mode {schedule.mode}"]
        for g in schedule.graphs:
            lines.append("begin graph")
            lines += [f"edge {l} {i}" for (l, i) in g.sorted_edges()]
            lines.append("end graph")
    elif isinstance(schedule, RandomActivationSchedule):
        lines += ["schedule random_activation", f"p {schedule.p!r}", f"seed {schedule.seed}"]
        lines += [f"edge {l} {i}" for (l, i) in schedule.base.sorted_edges()]
    else:
        raise TypeError(f"cannot serialize schedule of type {type(schedule).__name__}")
    write_lines(path, lines)


# the lines each schedule kind reads besides m and schedule ("edge": outside a graph)
_KIND_READS = {"static": ("edge",), "scripted": ("mode", "begin"),
               "random_activation": ("p", "seed", "edge")}


def load_graph_file(path, seed=None):
    """Read a schedule from a description file.

    seed overrides the file's activation seed when given, though a seed line is
    still checked; it is required if a random_activation file carries none. A
    malformed line, an unknown key, a repeated key line or a line the file's
    schedule kind does not read raises ValueError naming `path:line`.
    """
    keys = {}  # name -> (text, "path:line")
    edges = {}  # (receiver, sender) -> "path:line"
    graphs = []
    given = []  # (head, "path:line", text) of each line that only some kinds read
    current = None
    for parts, where in read_lines(path):
        head = parts[0]
        if head in ("mode", "begin", "p", "seed") or head == "edge" and current is None:
            given.append((head, where, " ".join(parts)))
        if head == "edge":
            try:
                l, i = map(int, parts[1:])
            except ValueError:
                raise ValueError(f"{where}: expected 'edge <receiver> <sender>'") from None
            (current if current is not None else edges)[l, i] = where
        elif head in ("begin", "end"):
            # "begin graph" only outside a graph, "end graph" only inside one
            if parts[1:] != ["graph"] or (head == "begin") != (current is None):
                raise ValueError(f"{where}: unexpected {' '.join(parts)!r}")
            if head == "begin":
                current = {}
            else:
                graphs.append(current)
                current = None
        elif head not in ("m", "schedule", "mode", "p", "seed"):
            raise ValueError(f"{where}: unknown key {head!r}")
        elif len(parts) == 1:
            raise ValueError(f"{where}: {head!r} needs a value")
        else:
            put_once(keys, head, " ".join(parts[1:]), where)
    if current is not None:
        raise ValueError(f"{path}: 'begin graph' without 'end graph'")

    def value(name, convert=str, default=None):
        """`convert` of the `name` line's text, or of `default` if there is no such
        line; a ValueError it raises names the line."""
        text, where = keys.get(name, (default, path))
        if text is None:
            raise ValueError(f"{path}: missing {name!r} line")
        try:
            return convert(text)
        except ValueError as exc:
            raise ValueError(f"{where}: bad {name} {text!r}: {exc}") from None

    m = value("m", lambda text: DirectedGraph(int(text)).m)

    def graph(lines):
        """The graph of `lines`, {edge: "path:line"}; a bad edge names its line."""
        for edge, where in lines.items():
            try:
                DirectedGraph(m, {edge})
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return DirectedGraph(m, frozenset(lines))

    kind = value("schedule", default="static")
    if kind not in _KIND_READS:  # the default is known, so a schedule line named it
        raise ValueError(f"{keys['schedule'][1]}: unknown schedule kind {kind!r}")
    for head, where, text in given:
        if head not in _KIND_READS[kind]:
            outside = " outside a graph block" if head == "edge" else ""
            raise ValueError(f"{where}: a {kind} schedule does not read {text!r}{outside}")
    if kind == "static":
        return StaticSchedule(graph(edges))
    if kind == "scripted":
        if not graphs:
            raise ValueError(f"{path}: scripted schedule needs a 'begin graph' block")
        gs = [graph(g) for g in graphs]
        return value("mode", lambda mode: ScriptedSchedule(gs, mode=mode), default="once")
    if seed is None or "seed" in keys:  # the kind left: random_activation
        line_seed = value("seed", lambda text: check_seed("seed", int(text)))
        seed = line_seed if seed is None else seed
    base = graph(edges)
    return value("p", lambda p: RandomActivationSchedule(base, p=float(p), seed=seed))
