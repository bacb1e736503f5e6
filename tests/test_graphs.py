import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt import cli, graphs
from cipheropt.graphs import (
    ConnectivityCertificate,
    DirectedGraph,
    RandomActivationSchedule,
    ScheduleExhausted,
    ScriptedSchedule,
    StaticSchedule,
    certify_uniform_connectivity,
    _strongly_connected,
    graph_at,
    load_graph_file,
    save_graph_file,
)


def ring(m):
    return DirectedGraph(m, frozenset((i % m + 1, i) for i in range(1, m + 1)))


def exponential(m):
    """Sender i sends to i + 2^j mod m for every 2^j < m."""
    hops = [2**j for j in range(m.bit_length()) if 2**j < m]
    return DirectedGraph(m, frozenset(((i - 1 + h) % m + 1, i)
                                      for i in range(1, m + 1) for h in hops))


# The edge-set reference the array code is tested against: the per-schedule
# graph definitions, the union of a window's graphs and the breadth-first
# sweeps the certificate once ran on.

def union_graph(graphs):
    """Union of edge sets over a list of graphs sharing the same m."""
    ms = {g.m for g in graphs}
    if len(ms) != 1:
        raise ValueError("graphs must share the same agent count")
    edges = frozenset().union(*(g.edges for g in graphs))
    return DirectedGraph(m=ms.pop(), edges=edges)


def oracle_strongly_connected(g):
    """Breadth-first sweeps from agent 1 along out-edges and along in-edges."""
    if g.m == 1:
        return True
    ins = {v: [] for v in range(1, g.m + 1)}
    outs = {v: [] for v in range(1, g.m + 1)}
    for (l, i) in sorted(g.edges):
        ins[l].append(i)
        outs[i].append(l)
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


def oracle_graph_at(schedule, k):
    """The graph each schedule class gives at iteration k, from its edges."""
    if isinstance(schedule, StaticSchedule):
        if k < 0:
            raise ValueError("iteration index must be >= 0")
        return schedule.graph
    if isinstance(schedule, ScriptedSchedule):
        return schedule.graphs[schedule._positions(k, 1)[0]]
    edges = schedule.base.sorted_edges()
    kept = [e for e, keep in zip(edges, schedule.edge_masks(k, 1)[0]) if keep]
    return DirectedGraph(m=schedule.m, edges=frozenset(kept))


def oracle_certificate(schedule, horizon, max_window):
    """(b_tilde, b, probabilistic), window unions of graphs checked one by one."""
    graphs = [oracle_graph_at(schedule, k) for k in range(horizon)]
    probabilistic = isinstance(schedule, RandomActivationSchedule)
    for b in range(1, max_window + 1):
        if all(oracle_strongly_connected(union_graph(graphs[t * b: t * b + b]))
               for t in range((horizon - b) // b + 1)):
            return b, 2 * b - 1, probabilistic
    return None, None, probabilistic


@st.composite
def graphs_on(draw, m):
    """A digraph on m agents, from sparse (often cut) to dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random((m, m)) < draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    return DirectedGraph(m, frozenset((l + 1, i + 1) for l, i in np.argwhere(keep).tolist()
                                      if l != i))


@st.composite
def schedules_on(draw, m, horizon):
    """Static, scripted (a `once` script plays at least `horizon` rounds) or random."""
    kind = draw(st.sampled_from(["static", "cycle", "hold", "once", "random"]))
    if kind == "static":
        return StaticSchedule(draw(graphs_on(m)))
    if kind == "random":
        return RandomActivationSchedule(draw(graphs_on(m)), draw(st.floats(0.05, 1.0)),
                                        seed=draw(st.integers(0, 2**32)))
    pool = draw(st.lists(graphs_on(m), min_size=1, max_size=4))
    count = draw(st.integers(horizon, horizon + 3) if kind == "once" else st.integers(1, 6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=count, max_size=count))
    return ScriptedSchedule([pool[j] for j in picks], mode=kind)


class TestDirectedGraph:
    @pytest.mark.parametrize("m", [0, -1, 2.5, True, "3", None])
    def test_agent_count_is_a_whole_number_of_at_least_one(self, m):
        with pytest.raises(ValueError, match=r"^m must be a whole number of at least 1, got "):
            DirectedGraph(m)

    def test_a_numpy_agent_count_is_an_int(self):
        g = DirectedGraph(np.int64(3), frozenset({(2, 1)}))
        assert type(g.m) is int and g == DirectedGraph(3, frozenset({(2, 1)}))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, frozenset({(1, 1)}))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            DirectedGraph(2, frozenset({(3, 1)}))

    def test_neighbor_queries(self):
        g = DirectedGraph(3, frozenset({(2, 1), (3, 1), (1, 3)}))
        assert g.out_neighbors(1) == [2, 3]
        assert g.in_neighbors(1) == [3]
        assert g.out_degree(1) == 2
        assert g.out_degree(2) == 0

    def test_single_agent_graph(self):
        g = DirectedGraph(1)
        assert _strongly_connected(g.matrix)


class TestStrongConnectivity:
    def test_ring_is_strongly_connected(self):
        assert _strongly_connected(ring(6).matrix)

    def test_broken_ring_is_not(self):
        g = DirectedGraph(3, frozenset({(2, 1), (3, 2)}))
        assert not _strongly_connected(g.matrix)

    def test_two_cycles_joined_one_way_only(self):
        # 1<->2 and 3<->4 with a bridge 3<-2 but nothing back
        edges = {(2, 1), (1, 2), (4, 3), (3, 4), (3, 2)}
        assert not _strongly_connected(DirectedGraph(4, frozenset(edges)).matrix)

    def test_union_restores_connectivity(self):
        m = 4
        half1 = DirectedGraph(m, frozenset({(2, 1), (3, 2)}))
        half2 = DirectedGraph(m, frozenset({(4, 3), (1, 4)}))
        assert not _strongly_connected(half1.matrix)
        assert _strongly_connected(union_graph([half1, half2]).matrix)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12))
    def test_sweeps_are_the_oracle_bfs(self, data, m):
        g = data.draw(graphs_on(m))
        assert _strongly_connected(g.matrix) == oracle_strongly_connected(g)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 10),
           lead=st.one_of(st.tuples(st.integers(1, 6)),
                          st.tuples(st.integers(1, 3), st.integers(1, 3))))
    def test_stack_sweeps_are_the_oracle_graph_by_graph(self, data, m, lead):
        gs = [data.draw(graphs_on(m)) for _ in range(int(np.prod(lead)))]
        stack = np.stack([g.matrix for g in gs]).reshape(*lead, m, m)
        got = graphs._strongly_connected(stack)
        assert got.shape == lead
        assert got.reshape(-1).tolist() == [oracle_strongly_connected(g) for g in gs]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 12))
    def test_neighbor_queries_are_the_edge_set_definitions(self, data, m):
        g = data.draw(graphs_on(m))
        for v in range(1, m + 1):
            assert g.in_neighbors(v) == sorted(i for (l, i) in g.edges if l == v)
            assert g.out_neighbors(v) == sorted(l for (l, i) in g.edges if i == v)
            assert g.out_degree(v) == sum(1 for (_, i) in g.edges if i == v)


class TestSchedules:
    def test_static_schedule_constant(self):
        s = StaticSchedule(ring(3))
        assert graph_at(s, 0) == graph_at(s, 10**6)
        # it plays the script of its one graph, held
        held = ScriptedSchedule([ring(3)], "hold")
        for k, n in ((0, 1), (7, 300), (10**6, 3)):
            assert np.array_equal(s.adjacencies(k, n), held.adjacencies(k, n))
        assert s.length is None

    def test_scripted_once_exhausts(self):
        s = ScriptedSchedule([ring(3)], mode="once")
        graph_at(s, 0)
        with pytest.raises(ScheduleExhausted):
            graph_at(s, 1)

    def test_scripted_cycle_repeats(self):
        a, b = ring(3), DirectedGraph(3, frozenset({(2, 1), (1, 2), (3, 1), (1, 3)}))
        s = ScriptedSchedule([a, b], mode="cycle")
        assert graph_at(s, 4) == a
        assert graph_at(s, 7) == b

    def test_scripted_hold_keeps_last(self):
        a, b = ring(3), DirectedGraph(3, frozenset({(2, 1)}))
        s = ScriptedSchedule([a, b], mode="hold")
        assert graph_at(s, 0) == a
        assert graph_at(s, 1) == b
        assert graph_at(s, 500) == b

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            graph_at(StaticSchedule(ring(3)), -1)

    def test_random_activation_replayable(self):
        s = RandomActivationSchedule(ring(5), 0.6, seed=42)
        first = [graph_at(s, k) for k in range(20)]
        second = [graph_at(s, k) for k in range(20)]
        assert first == second

    def test_random_activation_order_independent(self):
        s = RandomActivationSchedule(ring(5), 0.6, seed=42)
        g7 = graph_at(s, 7)
        s2 = RandomActivationSchedule(ring(5), 0.6, seed=42)
        for k in (3, 11, 0):
            graph_at(s2, k)
        assert graph_at(s2, 7) == g7

    def test_random_activation_p_one_keeps_everything(self):
        base = ring(4)
        s = RandomActivationSchedule(base, 1.0, seed=0)
        assert graph_at(s, 13) == base

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 10),
           ks=st.lists(st.integers(0, 200), min_size=1, max_size=5))
    def test_graph_at_is_the_per_schedule_definition(self, data, m, ks):
        schedule = data.draw(schedules_on(m, data.draw(st.integers(1, 40))))
        for k in ks:
            try:
                expected = oracle_graph_at(schedule, k)
            except ScheduleExhausted as exc:
                with pytest.raises(ScheduleExhausted, match=f"^{re.escape(str(exc))}$"):
                    graph_at(schedule, k)
            else:
                assert graph_at(schedule, k) == expected

    @pytest.mark.parametrize("k, n", [(0, 1), (60, 10), (0, 130), (2**32 - 5, 10)])
    @pytest.mark.parametrize("base", ["fig5b", "exponential-48"])
    def test_edge_masks_are_the_numpy_chain_at_p(self, base, k, n):
        """Row r is numpy's (seed, 11, k+r) uniforms, one per sorted base edge,
        below p: on fig5b's 9 edges (drawn by the block pass) and on the
        288-edge exponential base (one generator per key), across a 64-key
        block edge and across 2**32, under a one- and a two-word seed."""
        fig5b = cli._load_schedule({"schedule": "fig5b", "activation": None, "schedule_seed": 0}, 3)
        base = fig5b.base if base == "fig5b" else exponential(48)
        for seed, p in ((7, 0.5), (fig5b.seed, 0.9)):
            schedule = RandomActivationSchedule(base, p, seed)
            edges = len(base.sorted_edges())
            want = np.array([np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(11, k + r))).random(edges) for r in range(n)]) < p
            assert schedule.edge_masks(k, n).tobytes() == want.tobytes()

    def test_random_activation_rejects_bad_p(self):
        with pytest.raises(ValueError):
            RandomActivationSchedule(ring(3), 0.0, seed=0)


    @settings(max_examples=60, deadline=None)
    @given(seed=st.one_of(st.integers(max_value=-1), st.floats(), st.booleans()))
    def test_random_activation_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^activation seed must be a non-negative whole"):
            RandomActivationSchedule(ring(3), 0.5, seed)

class TestCertification:
    def test_static_strongly_connected_gives_window_one(self):
        cert = certify_uniform_connectivity(StaticSchedule(ring(4)), horizon=40)
        assert cert.b_tilde == 1
        assert cert.b == 1
        assert not cert.probabilistic

    def test_alternating_halves_need_window_two(self):
        m = 4
        half1 = DirectedGraph(m, frozenset({(2, 1), (3, 2)}))
        half2 = DirectedGraph(m, frozenset({(4, 3), (1, 4)}))
        s = ScriptedSchedule([half1, half2], mode="cycle")
        cert = certify_uniform_connectivity(s, horizon=40)
        assert cert.b_tilde == 2
        assert cert.b == 3

    def test_uncertifiable_schedule_returns_none(self):
        s = StaticSchedule(DirectedGraph(3, frozenset({(2, 1)})))
        cert = certify_uniform_connectivity(s, horizon=30)
        assert cert.b_tilde is None
        assert cert.b is None

    def test_random_activation_flagged_probabilistic(self):
        s = RandomActivationSchedule(ring(4), 0.95, seed=1)
        cert = certify_uniform_connectivity(s, horizon=60)
        assert cert.probabilistic

    def test_derived_b_matches_window(self):
        assert ConnectivityCertificate(b_tilde=3, horizon=10).b == 5

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), m=st.integers(1, 10), horizon=st.integers(1, 40))
    def test_certificate_is_the_oracle(self, data, m, horizon):
        schedule = data.draw(schedules_on(m, horizon))
        cert = certify_uniform_connectivity(schedule, horizon=horizon)
        assert (cert.b_tilde, cert.b, cert.probabilistic) == oracle_certificate(
            schedule, horizon, horizon)
        assert cert.horizon == horizon

    @pytest.mark.parametrize("horizon", [10, 11, 40, 41])
    def test_last_whole_window_is_checked(self, horizon):
        # only the last round is cut, so b=1 fails (at 40 and 41 in the stack after
        # its first unions); at an odd horizon that round is a partial 2-window,
        # which is not checked, and b=2 passes as at the even one
        cut = DirectedGraph(3, frozenset({(2, 1)}))
        s = ScriptedSchedule([ring(3)] * (horizon - 1) + [cut], mode="once")
        cert = certify_uniform_connectivity(s, horizon=horizon)
        assert cert.b_tilde == oracle_certificate(s, horizon, horizon)[0] == 2

    def test_certification_reads_one_adjacency_block(self, monkeypatch):
        m = 4
        half1 = DirectedGraph(m, frozenset({(2, 1), (3, 2)}))
        half2 = DirectedGraph(m, frozenset({(4, 3), (1, 4)}))
        s = ScriptedSchedule([half1, half2], mode="cycle")
        asked = []
        adjacencies = s.adjacencies
        monkeypatch.setattr(s, "adjacencies", lambda k, n: asked.append((k, n)) or adjacencies(k, n))

        def no_graphs(self):
            raise AssertionError("certification built a DirectedGraph")

        monkeypatch.setattr(DirectedGraph, "__post_init__", no_graphs)
        assert certify_uniform_connectivity(s, horizon=40).b_tilde == 2
        assert asked == [(0, 40)]

    def test_short_once_schedule_is_exhausted_at_its_length(self):
        s = ScriptedSchedule([ring(3)] * 5, mode="once")
        with pytest.raises(ScheduleExhausted, match=r"^scripted schedule has 5 graphs, asked for k=5$"):
            certify_uniform_connectivity(s, horizon=8)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError, match=r"^need a horizon of at least 1, got 0$"):
            certify_uniform_connectivity(StaticSchedule(ring(3)), horizon=0)


class TestGraphFiles:
    def test_static_round_trip(self, tmp_path):
        s = StaticSchedule(ring(5))
        path = tmp_path / "ring.graph"
        save_graph_file(s, path)
        loaded = load_graph_file(path)
        assert isinstance(loaded, StaticSchedule)
        assert loaded.graph == s.graph

    def test_scripted_round_trip(self, tmp_path):
        a, b = ring(3), DirectedGraph(3, frozenset({(2, 1)}))
        s = ScriptedSchedule([a, b], mode="hold")
        path = tmp_path / "script.graph"
        save_graph_file(s, path)
        loaded = load_graph_file(path)
        assert loaded.mode == "hold"
        assert loaded.graphs == [a, b]

    def test_random_round_trip_preserves_draws(self, tmp_path):
        s = RandomActivationSchedule(ring(4), 0.7, seed=9)
        path = tmp_path / "rand.graph"
        save_graph_file(s, path)
        loaded = load_graph_file(path)
        assert [graph_at(loaded, k) for k in range(10)] == [graph_at(s, k) for k in range(10)]

    def test_seed_override(self, tmp_path):
        s = RandomActivationSchedule(ring(4), 0.7, seed=9)
        path = tmp_path / "rand.graph"
        save_graph_file(s, path)
        loaded = load_graph_file(path, seed=10)
        assert loaded.seed == 10

    def test_seedless_random_file_loads_only_with_a_seed(self, tmp_path):
        path = tmp_path / "noseed.graph"
        path.write_text("m 3\nschedule random_activation\np 0.5\nedge 2 1\nedge 3 2\n")
        assert load_graph_file(path, seed=4).seed == 4
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing 'seed' line$"):
            load_graph_file(path)

    @pytest.mark.parametrize("line", ["seed -1", "seed 2.5"])
    def test_bad_seed_line_is_refused_though_overridden(self, tmp_path, line):
        path = tmp_path / "bad.graph"
        path.write_text(f"m 2\nschedule random_activation\np 0.5\n{line}\nedge 2 1\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: bad seed "):
            load_graph_file(path, seed=4)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("# a comment\n\nm 2\nschedule static\nedge 2 1\nedge 1 2\n")
        loaded = load_graph_file(path)
        assert loaded.graph == DirectedGraph(2, frozenset({(2, 1), (1, 2)}))

    @pytest.mark.parametrize("body, where", [
        ("m 2\nbegin\nedge 1 2\nend graph\n", ":2: "),        # bare begin
        ("m 2\nedge 1\n", ":2: "),                              # edge missing its sender
        ("m 2\nedge 1 x\n", ":2: "),                            # non-integer agent
        ("schedule static\nedge 1 2\n", ": missing 'm'"),       # no m line
        ("m two\n", ":1: "),                                      # m not an integer
        ("m 2\nend graph\n", ":2: "),                           # end without begin
        ("m 2\nschedule scripted\nbegin graph\nedge 1 2\n", ": 'begin graph'"),
        ("m 2\nschedule random_activation\np high\nseed 1\n", ":3: "),
        ("m 2\nschedule random_activation\np 0.5\nseed -1\n", ":4: "),
        ("m 2\nschedule random_activation\np 0.5\nseed 2.5\n", ":4: "),
        ("m 3\nedge 1 4\n", ":2: "),                           # agent outside 1..m
        ("m 3\nedge 2 2\n", ":2: "),                           # self-loop
        ("m 0\n", ":1: "),                                      # no agents
        ("m 2\nschedule random_activation\np 1.5\nseed 1\n", ":3: "),
        ("m 2\nschedule random_activation\np nan\nseed 1\n", ":3: "),
        ("m 2\nschedule scripted\nmode bogus\nbegin graph\nedge 1 2\nend graph\n", ":3: "),
        ("m 2\nschedule scripted\nmode cycle\n", ": scripted schedule needs"),  # no graph
        ("m 2\nschedule scripted\nmod cycle\nbegin graph\nedge 1 2\nend graph\nbegin graph\n"
         "edge 2 1\nend graph\n", ":3: unknown key 'mod'"),
        ("m 2\nschedul random_activation\np 0.5\nseed 1\nedge 2 1\n", ":2: unknown key"),
        ("m 3\nschedule static\nedge 2 1\nm 2\n", ":4: repeated 'm' line, first at "),
        ("m 2\nschedule random_activation\np 0.5\nseed 1\np 0.9\n", ":5: repeated 'p'"),
        # a line the file's schedule kind does not read
        ("m 2\np 0.5\nseed 4\nedge 2 1\n", ":2: a static schedule does not read 'p 0.5'"),
        ("m 2\nbegin graph\nedge 2 1\nend graph\n",
         ":2: a static schedule does not read 'begin graph'"),
        ("m 3\nschedule random_activation\np 0.5\nseed 1\nmode cycle\nedge 2 1\nbegin graph\n"
         "edge 3 2\nend graph\n", ":5: a random_activation schedule does not read 'mode cycle'"),
        ("m 2\nschedule scripted\nedge 1 2\nbegin graph\nedge 2 1\nend graph\n",
         ":3: a scripted schedule does not read 'edge 1 2' outside a graph block"),
        ("m 2\nschedule scripted\nbegin graph\nedge 2 1\nend graph\nseed 3\n",
         ":6: a scripted schedule does not read 'seed 3'"),
        ("m 2\nschedule static\nmode cycle\nmod once\n", ":4: unknown key 'mod'"),
        ("m 2\nschedule static\nmode cycle\nmode once\n", ":4: repeated 'mode' line"),
        ("m 2\nmode cycle\nschedule mystery\n", ":3: unknown schedule kind 'mystery'"),
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, body, where):
        path = tmp_path / "bad.graph"
        path.write_text(body)
        with pytest.raises(ValueError) as exc:
            load_graph_file(path)
        assert str(exc.value).startswith(f"{path}{where}")

    def test_a_repeated_key_names_both_lines_and_a_repeated_edge_is_one_edge(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("m 2\nedge 2 1\nedge 2 1\nschedule static\nschedule static\n")
        with pytest.raises(ValueError) as exc:
            load_graph_file(path)
        assert str(exc.value) == f"{path}:5: repeated 'schedule' line, first at {path}:4"
        path.write_text("m 2\nedge 2 1\nedge 2 1\n")
        assert load_graph_file(path).graph == DirectedGraph(2, frozenset({(2, 1)}))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("m 2\nschedule mystery\n")
        with pytest.raises(ValueError):
            load_graph_file(path)
