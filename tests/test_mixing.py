import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.engine import draw_weight_columns
from cipheropt.graphs import DirectedGraph
from cipheropt.mixing import (
    MixingParams,
    assemble_weight_matrix,
    generate_weight_column,
)

PARAMS = MixingParams(c0=0.1, k0_range=1.0)


def column_sum(col):
    return sum(col.entries.values())


class TestParams:
    def test_rejects_nonpositive_c0(self):
        with pytest.raises(ValueError):
            MixingParams(c0=0.0)

    def test_rejects_c0_at_one_over_m(self):
        with pytest.raises(ValueError):
            MixingParams(c0=0.25).validate_for(4)

    def test_accepts_c0_below_one_over_m(self):
        MixingParams(c0=0.24).validate_for(4)

    @settings(max_examples=40, deadline=None)
    @given(r=st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                       st.floats(max_value=0.0)))
    def test_rejects_nonfinite_or_nonpositive_k0_range(self, r):
        with pytest.raises(ValueError, match="k0_range"):
            MixingParams(c0=0.1, k0_range=r)

    @pytest.mark.parametrize("r", [1e308, 9e307, float(np.finfo(float).max)])
    def test_rejects_k0_range_whose_width_overflows(self, r):
        """Round 0 draws u * (2R) - R: an infinite 2R would run to NaN weights."""
        with pytest.raises(ValueError, match="^k0_range must leave .* a finite width"):
            MixingParams(c0=0.1, k0_range=r)
        assert MixingParams(c0=0.1, k0_range=r / 4).k0_range == r / 4

    @pytest.mark.parametrize("c0", [float("nan"), float("inf")])
    def test_rejects_nonfinite_c0(self, c0):
        with pytest.raises(ValueError, match="c0"):
            MixingParams(c0=c0)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["c0", "k0_range"]),
           value=st.one_of(st.booleans(), st.text(), st.sampled_from(["0.1", b"1", [0.1]])))
    def test_rejects_bool_or_text_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite, got "):
            MixingParams(**{"c0": 0.1, field: value})


class TestSingleColumn:
    def test_isolated_agent_keeps_everything(self):
        col = generate_weight_column(2, [], 5, PARAMS, np.random.default_rng(0))
        assert col.entries == {2: 1.0}

    def test_column_sums_to_one_exactly(self):
        col = generate_weight_column(1, [2, 3, 4], 1, PARAMS, np.random.default_rng(0))
        assert column_sum(col) == pytest.approx(1.0, abs=1e-15)

    def test_entries_floored_at_c0_for_later_iterations(self):
        rng = np.random.default_rng(1)
        for k in (1, 2, 17):
            col = generate_weight_column(1, [2, 3], k, PARAMS, rng)
            for w in col.entries.values():
                assert w >= PARAMS.c0 - 1e-15

    def test_iteration_zero_weights_span_signed_range(self):
        rng = np.random.default_rng(2)
        lo = hi = 0.0
        for _ in range(400):
            col = generate_weight_column(1, [2], 0, PARAMS, rng)
            w = col.entries.get(2, 0.0)
            assert -1.0 <= w <= 1.0
            lo, hi = min(lo, w), max(hi, w)
        assert lo < -0.5 and hi > 0.5  # actually exercises both halves

    def test_out_weight_upper_bound(self):
        rng = np.random.default_rng(3)
        d_out = 3
        for _ in range(200):
            col = generate_weight_column(1, [2, 3, 4], 2, PARAMS, rng)
            for l in (2, 3, 4):
                assert col.entries.get(l, 0.0) <= (1.0 - PARAMS.c0) / d_out + 1e-15

    def test_prefers_predrawn_row(self):
        row = np.array([0.5, 0.5])
        col = generate_weight_column(1, [2, 3], 1, PARAMS, row)
        expected = PARAMS.c0 + 0.5 * ((1.0 - PARAMS.c0) / 2 - PARAMS.c0)
        assert col.entries.get(2, 0.0) == pytest.approx(expected)

    def test_short_predrawn_row_rejected(self):
        with pytest.raises(ValueError):
            generate_weight_column(1, [2, 3], 1, PARAMS, np.array([0.5]))

    def test_self_neighbor_rejected(self):
        with pytest.raises(ValueError):
            generate_weight_column(1, [1, 2], 1, PARAMS, np.random.default_rng(0))

    def test_crowded_column_rejected(self):
        # 0.3 * (3 neighbors + diagonal) > 1: no room at the floor
        with pytest.raises(ValueError):
            generate_weight_column(1, [2, 3, 4], 1, MixingParams(c0=0.3),
                                   np.random.default_rng(0))


@st.composite
def graph_and_iteration(draw):
    m = draw(st.integers(min_value=2, max_value=8))
    edges = set()
    for receiver in range(1, m + 1):
        for sender in range(1, m + 1):
            if receiver != sender and draw(st.booleans()):
                edges.add((receiver, sender))
    k = draw(st.integers(min_value=0, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    return DirectedGraph(m, frozenset(edges)), k, seed


class TestMatrixProperties:
    @settings(max_examples=150, deadline=None)
    @given(graph_and_iteration())
    def test_columns_stochastic_and_floored(self, case):
        graph, k, seed = case
        params = MixingParams(c0=0.9 / graph.m)
        cols = draw_weight_columns(graph, params, seed=seed, trial=0, k=k)
        a = assemble_weight_matrix(cols.values(), graph.m)
        ones = np.ones(graph.m)
        assert np.max(np.abs(ones @ a - ones)) <= 1e-12
        if k >= 1:
            assert np.all(a[a != 0.0] >= params.c0 - 1e-15)

    def test_thousand_random_columns_meet_the_floor(self):
        # volume check behind the matrix property: at least 1000 fresh columns
        rng = np.random.default_rng(2024)
        checked = 0
        for _ in range(1100):
            d_out = int(rng.integers(1, 6))
            receivers = list(range(2, 2 + d_out))
            col = generate_weight_column(1, receivers, int(rng.integers(1, 50)),
                                         PARAMS, rng)
            assert column_sum(col) == pytest.approx(1.0, abs=1e-12)
            assert all(w >= PARAMS.c0 - 1e-15 for w in col.entries.values())
            checked += 1
        assert checked >= 1000

    def test_draws_are_reproducible(self):
        g = DirectedGraph(4, frozenset({(2, 1), (3, 2), (4, 3), (1, 4)}))
        a1 = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 7, 3, 11).values(), 4)
        a2 = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 7, 3, 11).values(), 4)
        assert np.array_equal(a1, a2)

    def test_draws_differ_across_iterations_and_trials(self):
        g = DirectedGraph(4, frozenset({(2, 1), (3, 2), (4, 3), (1, 4)}))
        a = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 7, 0, 1).values(), 4)
        b = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 7, 0, 2).values(), 4)
        c = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 7, 1, 1).values(), 4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_zero_pattern_matches_graph(self):
        g = DirectedGraph(3, frozenset({(2, 1), (3, 1)}))
        a = assemble_weight_matrix(draw_weight_columns(g, PARAMS, 0, 0, 4).values(), 3)
        assert a[0, 1] == 0.0 and a[1, 2] == 0.0 and a[2, 1] == 0.0
        assert a[1, 0] != 0.0 and a[2, 0] != 0.0


class TestAssembly:
    def test_duplicate_owner_rejected(self):
        cols = [generate_weight_column(1, [], 0, PARAMS, np.random.default_rng(0))] * 2
        with pytest.raises(ValueError):
            assemble_weight_matrix(cols, 2)

    def test_missing_agent_rejected(self):
        cols = [generate_weight_column(1, [], 0, PARAMS, np.random.default_rng(0))]
        with pytest.raises(ValueError, match="missing"):
            assemble_weight_matrix(cols, 2)

    def test_mixed_iterations_rejected(self):
        rng = np.random.default_rng(0)
        cols = [
            generate_weight_column(1, [], 0, PARAMS, rng),
            generate_weight_column(2, [], 1, PARAMS, rng),
        ]
        with pytest.raises(ValueError, match="iterations"):
            assemble_weight_matrix(cols, 2)
