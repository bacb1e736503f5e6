"""Time-varying directed communication graphs and connectivity certification.

Agents are numbered 1..m. An edge is an ordered pair (receiver, sender):
(l, i) means agent l can receive information from agent i. Self-loops are
never stored; every agent implicitly keeps a self-weight.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# stream label for activation draws, keeps them disjoint from other uses of a seed
_ACTIVATION_STREAM = 11


class ScheduleExhausted(RuntimeError):
    """A scripted schedule without repetition was asked past its last graph."""


@dataclass(frozen=True)
class DirectedGraph:
    """A directed graph on agents 1..m with (receiver, sender) edges."""

    m: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("agent count must be >= 1")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for (l, i) in self.edges:
            if l == i:
                raise ValueError(f"self-loop ({l}, {i}) is implicit and must not be stored")
            if not (1 <= l <= self.m and 1 <= i <= self.m):
                raise ValueError(f"edge ({l}, {i}) outside 1..{self.m}")

    @cached_property
    def _adjacency(self):
        """Sorted (in-neighbours, out-neighbours) of every agent, built once."""
        ins = {v: [] for v in range(1, self.m + 1)}
        outs = {v: [] for v in range(1, self.m + 1)}
        for (l, i) in sorted(self.edges):
            ins[l].append(i)
            outs[i].append(l)
        return ins, outs

    def in_neighbors(self, l):
        """Agents that l receives from."""
        return list(self._adjacency[0].get(l, ()))

    def out_neighbors(self, i):
        """Agents that receive from i."""
        return list(self._adjacency[1].get(i, ()))

    def out_degree(self, i):
        return len(self._adjacency[1].get(i, ()))

    def sorted_edges(self):
        """Canonical edge order used for activation draws and file output."""
        return sorted(self.edges)


def union_graph(graphs):
    """Union of edge sets over a list of graphs sharing the same m."""
    ms = {g.m for g in graphs}
    if len(ms) != 1:
        raise ValueError("graphs must share the same agent count")
    edges = frozenset().union(*(g.edges for g in graphs))
    return DirectedGraph(m=ms.pop(), edges=edges)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every ordered pair of distinct agents is joined by a directed path.

    Two breadth-first sweeps from agent 1: one along out-edges (1 reaches all)
    and one along in-edges (all reach 1).
    """
    if g.m == 1:
        return True
    ins, outs = g._adjacency
    for adj in (outs, ins):
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        if len(seen) != g.m:
            return False
    return True


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------

def _edge_matrix(m, edges) -> np.ndarray:
    """Read-only m-by-m boolean matrix, True at [l-1, i-1] for each edge (l, i)."""
    a = np.zeros((m, m), dtype=bool)
    for (l, i) in edges:
        a[l - 1, i - 1] = True
    a.flags.writeable = False
    return a


def _check_index(k):
    if k < 0:
        raise ValueError("iteration index must be >= 0")


class StaticSchedule:
    """The same graph at every iteration."""

    def __init__(self, graph: DirectedGraph):
        self.graph = graph
        self.m = graph.m
        self._matrix = _edge_matrix(graph.m, graph.edges)

    def graph_at(self, k: int) -> DirectedGraph:
        _check_index(k)
        return self.graph

    def adjacency(self, k: int) -> np.ndarray:
        """The graph at iteration k as a read-only m-by-m boolean matrix, [l-1, i-1]
        for edge (l, i)."""
        _check_index(k)
        return self._matrix


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
        self._matrices = [_edge_matrix(self.m, g.edges) for g in self.graphs]

    def _position(self, k: int) -> int:
        _check_index(k)
        n = len(self.graphs)
        if self.mode == "cycle":
            return k % n
        if self.mode == "hold":
            return min(k, n - 1)
        if k >= n:
            raise ScheduleExhausted(f"scripted schedule has {n} graphs, asked for k={k}")
        return k

    def graph_at(self, k: int) -> DirectedGraph:
        return self.graphs[self._position(k)]

    def adjacency(self, k: int) -> np.ndarray:
        """`StaticSchedule.adjacency` of the graph played at iteration k."""
        return self._matrices[self._position(k)]


class RandomActivationSchedule:
    """Each base edge is kept independently with probability p at every k.

    The draw for iteration k is re-derived from (seed, k) over the base
    graph's canonically sorted edges, so graph_at is replayable and
    order-independent across calls.
    """

    def __init__(self, base: DirectedGraph, p: float, seed: int):
        if not (0.0 < p <= 1.0):
            raise ValueError("activation probability must lie in (0, 1]")
        self.base = base
        self.p = float(p)
        self.seed = int(seed)
        self.m = base.m
        self._edges = base.sorted_edges()
        self._flat = np.array([(l - 1) * self.m + i - 1 for (l, i) in self._edges],
                              dtype=np.intp)

    def edge_mask(self, k: int) -> np.ndarray:
        """Which of the sorted base edges are active at iteration k."""
        _check_index(k)
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed, spawn_key=(_ACTIVATION_STREAM, k))
        )
        return rng.random(len(self._edges)) < self.p

    def graph_at(self, k: int) -> DirectedGraph:
        kept = [e for e, keep in zip(self._edges, self.edge_mask(k)) if keep]
        return DirectedGraph(m=self.m, edges=frozenset(kept))

    def adjacency(self, k: int) -> np.ndarray:
        """`StaticSchedule.adjacency` of the graph at iteration k, from its edge mask."""
        a = np.zeros(self.m * self.m, dtype=bool)
        a[self._flat[self.edge_mask(k)]] = True
        return a.reshape(self.m, self.m)


def graph_at(schedule, k: int) -> DirectedGraph:
    """Graph of the schedule at iteration k."""
    return schedule.graph_at(k)


# ---------------------------------------------------------------------------
# Connectivity certification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConnectivityCertificate:
    """Result of an empirical uniform-connectivity check over a horizon.

    b_tilde is the smallest window length whose window-unions are all
    strongly connected within the horizon, or None if no window up to
    max_window works. b = 2*b_tilde - 1 is the derived path-mixing constant.
    For randomly activated schedules the certificate is probabilistic: it
    covers the inspected horizon only.
    """

    b_tilde: int | None
    horizon: int
    b: int | None = None
    probabilistic: bool = False

    def __post_init__(self):
        if self.b_tilde is not None:
            object.__setattr__(self, "b", 2 * self.b_tilde - 1)


def certify_uniform_connectivity(schedule, horizon=200, max_window=None) -> ConnectivityCertificate:
    """Smallest window B such that every length-B union graph over the horizon
    is strongly connected.

    Windows are aligned: for window b the unions of E(t*b) .. E(t*b + b - 1)
    are checked for every t with t*b + b - 1 < horizon.
    """
    if max_window is None:
        max_window = horizon
    if not (horizon >= max_window >= 1):
        raise ValueError("need horizon >= max_window >= 1")
    graphs = [schedule.graph_at(k) for k in range(horizon)]
    probabilistic = isinstance(schedule, RandomActivationSchedule)
    for b in range(1, max_window + 1):
        ok = True
        for t in range(0, (horizon - b) // b + 1):
            window = graphs[t * b : t * b + b]
            if not is_strongly_connected(union_graph(window)):
                ok = False
                break
        if ok:
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
        lines.append("schedule scripted")
        lines.append(f"mode {schedule.mode}")
        for g in schedule.graphs:
            lines.append("begin graph")
            lines += [f"edge {l} {i}" for (l, i) in g.sorted_edges()]
            lines.append("end graph")
    elif isinstance(schedule, RandomActivationSchedule):
        lines.append("schedule random_activation")
        lines.append(f"p {schedule.p!r}")
        lines.append(f"seed {schedule.seed}")
        lines += [f"edge {l} {i}" for (l, i) in schedule.base.sorted_edges()]
    else:
        raise TypeError(f"cannot serialize schedule of type {type(schedule).__name__}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph_file(path, seed=None):
    """Read a schedule from a description file.

    seed overrides the file's activation seed when given; required if a
    random_activation file carries none. A malformed line raises ValueError
    naming `path:line`.
    """
    keys = {}  # name -> (text, "path:line")
    edges = []
    graphs = []
    current = None
    with open(path, "r", encoding="utf-8") as fh:
        for n, raw in enumerate(fh, 1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            head, where = parts[0], f"{path}:{n}"
            if head == "edge":
                try:
                    l, i = map(int, parts[1:])
                except ValueError:
                    raise ValueError(f"{where}: expected 'edge <receiver> <sender>'") from None
                (current if current is not None else edges).append((l, i))
            elif head in ("begin", "end"):
                # "begin graph" only outside a graph, "end graph" only inside one
                if parts[1:] != ["graph"] or (head == "begin") != (current is None):
                    raise ValueError(f"{where}: unexpected {' '.join(parts)!r}")
                if head == "begin":
                    current = []
                else:
                    graphs.append(current)
                    current = None
            elif len(parts) == 1:
                raise ValueError(f"{where}: {head!r} needs a value")
            else:
                keys[head] = (" ".join(parts[1:]), where)
    if current is not None:
        raise ValueError(f"{path}: 'begin graph' without 'end graph'")

    def value(name, convert=str, default=None):
        if name not in keys:
            if default is not None:
                return default
            raise ValueError(f"{path}: missing {name!r} line")
        text, where = keys[name]
        try:
            return convert(text)
        except ValueError:
            raise ValueError(f"{where}: bad {name} {text!r}") from None

    m = value("m", int)
    kind = value("schedule", default="static")
    if kind == "static":
        return StaticSchedule(DirectedGraph(m=m, edges=frozenset(edges)))
    if kind == "scripted":
        mode = value("mode", default="once")
        gs = [DirectedGraph(m=m, edges=frozenset(g)) for g in graphs]
        return ScriptedSchedule(gs, mode=mode)
    if kind == "random_activation":
        p = value("p", float)
        if seed is None:
            if "seed" not in keys:
                raise ValueError(f"{path}: random_activation file needs a seed")
            seed = value("seed", int)
        base = DirectedGraph(m=m, edges=frozenset(edges))
        return RandomActivationSchedule(base, p=p, seed=seed)
    raise ValueError(f"{path}: unknown schedule kind {kind!r}")
