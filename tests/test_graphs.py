import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.graphs import (
    ConnectivityCertificate,
    DirectedGraph,
    RandomActivationSchedule,
    ScheduleExhausted,
    ScriptedSchedule,
    StaticSchedule,
    certify_uniform_connectivity,
    graph_at,
    is_strongly_connected,
    load_graph_file,
    save_graph_file,
    union_graph,
)


def ring(m):
    return DirectedGraph(m, frozenset((i % m + 1, i) for i in range(1, m + 1)))


class TestDirectedGraph:
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
        assert is_strongly_connected(g)


class TestStrongConnectivity:
    def test_ring_is_strongly_connected(self):
        assert is_strongly_connected(ring(6))

    def test_broken_ring_is_not(self):
        g = DirectedGraph(3, frozenset({(2, 1), (3, 2)}))
        assert not is_strongly_connected(g)

    def test_two_cycles_joined_one_way_only(self):
        # 1<->2 and 3<->4 with a bridge 3<-2 but nothing back
        edges = {(2, 1), (1, 2), (4, 3), (3, 4), (3, 2)}
        assert not is_strongly_connected(DirectedGraph(4, frozenset(edges)))

    def test_union_restores_connectivity(self):
        m = 4
        half1 = DirectedGraph(m, frozenset({(2, 1), (3, 2)}))
        half2 = DirectedGraph(m, frozenset({(4, 3), (1, 4)}))
        assert not is_strongly_connected(half1)
        assert is_strongly_connected(union_graph([half1, half2]))

    def test_union_requires_matching_m(self):
        with pytest.raises(ValueError):
            union_graph([ring(3), ring(4)])


class TestSchedules:
    def test_static_schedule_constant(self):
        s = StaticSchedule(ring(3))
        assert graph_at(s, 0) == graph_at(s, 10**6)

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

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            certify_uniform_connectivity(StaticSchedule(ring(3)), horizon=5, max_window=9)


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
    ])
    def test_malformed_file_names_path_and_line(self, tmp_path, body, where):
        path = tmp_path / "bad.graph"
        path.write_text(body)
        with pytest.raises(ValueError) as exc:
            load_graph_file(path)
        assert str(exc.value).startswith(f"{path}{where}")

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "g.graph"
        path.write_text("m 2\nschedule mystery\n")
        with pytest.raises(ValueError):
            load_graph_file(path)
