import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.engine import (
    BASELINES,
    DegenerateStateError,
    RunConfig,
    _initial_positions,
    _initial_state,
    draw_weight_columns,
    relative_residual,
    run,
    run_baseline,
    run_trials,
    uniform_out_columns,
)
from cipheropt.graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    StaticSchedule,
    graph_at,
)
from cipheropt.mixing import MixingParams, assemble_weight_matrix
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance

PARAMS = MixingParams(c0=0.15, k0_range=1.0)
# not a seed: negative, fractional, non-finite or bool
BAD_SEEDS = st.one_of(st.integers(max_value=-1), st.floats(), st.booleans())


def ring(m):
    return DirectedGraph(m, frozenset((i % m + 1, i) for i in range(1, m + 1)))


def make_problem(m=5, s=2, d=2, seed=13):
    return problem_from_instance(generate_sensor_fusion(m=m, s=s, d=d, omega=0.01, seed=seed))


def dense_reference(problem, schedule, params, config):
    """Matrix-form replay of the private algorithm: the oracle the message
    loop is checked against. Everything is m-by-d row-stacked."""
    x0, w0 = np.random.default_rng(0).standard_normal((problem.m, problem.d)), None
    # reuse the engine's own initial draw so both sides start identically
    x0, w0 = _initial_positions(problem, config)
    y = x0.copy()
    w = w0.copy()
    grads = np.stack([problem.gradient(i, x0[i - 1]) for i in range(1, problem.m + 1)])
    s = grads.copy()
    xs = [x0.copy()]
    for k in range(config.horizon):
        graph = graph_at(schedule, k)
        cols = draw_weight_columns(graph, params, config.seed, config.trial, k)
        a = assemble_weight_matrix(cols.values(), problem.m)
        y = a @ (y - config.step_size * s)
        w = a @ w
        if config.mass_reset and k == 0:
            w = np.ones(problem.m)
        x = y / w[:, None]
        new_grads = np.stack([problem.gradient(i, x[i - 1]) for i in range(1, problem.m + 1)])
        s = a @ s + new_grads - grads
        grads = new_grads
        xs.append(x.copy())
    return xs


class TestMessageLoopAgainstDenseOracle:
    @pytest.mark.parametrize("encryption", [False, True])
    def test_states_match_matrix_form(self, encryption):
        problem = make_problem()
        schedule = RandomActivationSchedule(ring(5), 0.8, seed=3)
        config = RunConfig(step_size=2e-3, horizon=60, encryption=encryption,
                           seed=5, trial=1, record_states=True)
        traj = run(problem, schedule, PARAMS, config)
        expected = dense_reference(problem, schedule, PARAMS, config)
        assert len(traj.x_series) == 61
        for k, (got, want) in enumerate(zip(traj.x_series, expected)):
            assert np.max(np.abs(got - want)) <= 1e-10, f"diverged at k={k}"

    def test_single_agent_is_plain_gradient_descent(self):
        problem = make_problem(m=1, s=3, d=2, seed=2)
        schedule = StaticSchedule(DirectedGraph(1))
        config = RunConfig(step_size=1e-3, horizon=40, encryption=False,
                           record_states=True)
        traj = run(problem, schedule, PARAMS, config)
        x = traj.x_series[0][0].copy()
        g = problem.gradient(1, x)
        s = g.copy()
        for k in range(40):
            x = x - config.step_size * s
            g_new = problem.gradient(1, x)
            s = (s + g_new) - g  # same association as the agent update
            g = g_new
            assert np.array_equal(traj.x_series[k + 1][0], x)
            # the tracker never drifts from the plain gradient
            assert np.max(np.abs(s - g)) <= 1e-12 * (1.0 + np.max(np.abs(g)))


@pytest.fixture(scope="module")
def recorded():
    problem = make_problem(m=6, s=3, d=2, seed=7)
    schedule = RandomActivationSchedule(ring(6), 0.9, seed=1)
    config = RunConfig(step_size=1.1e-3, horizon=200, encryption=False,
                       record_states=True)
    return problem, run(problem, schedule, PARAMS, config)


@pytest.fixture(scope="module")
def ring_setup():
    problem = make_problem(m=4, s=3, d=2, seed=21)
    return problem, StaticSchedule(ring(4))


class TestInvariants:
    def test_mass_sums_to_agent_count(self, recorded):
        problem, traj = recorded
        for k in range(1, len(traj.w_series)):
            assert abs(float(np.sum(traj.w_series[k])) - problem.m) <= 1e-9

    def test_tracker_sums_to_gradient_sum(self, recorded):
        problem, traj = recorded
        for k, (xk, sk) in enumerate(zip(traj.x_series, traj.s_series)):
            g = sum(problem.gradient(i, xk[i - 1]) for i in range(1, problem.m + 1))
            assert np.max(np.abs(np.sum(sk, axis=0) - g)) <= 1e-9, f"k={k}"

    def test_mean_state_follows_mean_tracker(self, recorded):
        problem, traj = recorded
        eta = traj.config.step_size
        for k in range(len(traj.y_series) - 1):
            lhs = traj.y_series[k + 1].mean(axis=0)
            rhs = traj.y_series[k].mean(axis=0) - eta * traj.s_series[k].mean(axis=0)
            assert np.max(np.abs(lhs - rhs)) <= 1e-9

    def test_mass_reset_pins_first_round_to_one(self, recorded):
        _, traj = recorded
        assert np.array_equal(traj.w_series[1], np.ones(6))

    def test_masses_stay_positive_after_reset(self, recorded):
        _, traj = recorded
        for k in range(1, len(traj.w_series)):
            assert np.all(traj.w_series[k] > 0)


class TestDeterminismAndTransparency:
    def test_same_config_same_run(self):
        problem = make_problem()
        schedule = RandomActivationSchedule(ring(5), 0.8, seed=3)
        config = RunConfig(step_size=1e-3, horizon=50, encryption=False)
        a = run(problem, schedule, PARAMS, config)
        b = run(problem, schedule, PARAMS, config)
        assert np.array_equal(a.residuals, b.residuals)

    def test_trials_differ(self):
        problem = make_problem()
        schedule = RandomActivationSchedule(ring(5), 0.8, seed=3)
        a = run(problem, schedule, PARAMS, RunConfig(step_size=1e-3, horizon=30, trial=0, encryption=False))
        b = run(problem, schedule, PARAMS, RunConfig(step_size=1e-3, horizon=30, trial=1, encryption=False))
        assert not np.array_equal(a.residuals, b.residuals)

    def test_encrypted_run_is_bit_identical_to_plain(self):
        problem = make_problem()
        schedule = RandomActivationSchedule(ring(5), 0.8, seed=3)
        on = RunConfig(step_size=1e-3, horizon=60, encryption=True, record_states=True)
        off = RunConfig(step_size=1e-3, horizon=60, encryption=False, record_states=True)
        ta = run(problem, schedule, PARAMS, on)
        tb = run(problem, schedule, PARAMS, off)
        assert np.array_equal(ta.residuals, tb.residuals)
        for xa, xb in zip(ta.x_series, tb.x_series):
            assert np.array_equal(xa, xb)

    def test_explicit_initial_conditions_respected(self):
        problem = make_problem(m=3, s=2, d=2)
        x0 = np.arange(6, dtype=float).reshape(3, 2)
        w0 = np.array([0.5, -0.25, 1.0])
        config = RunConfig(step_size=1e-3, horizon=2, encryption=False,
                           record_states=True, x0=x0, w0=w0)
        traj = run(problem, StaticSchedule(ring(3)), PARAMS, config)
        assert np.array_equal(traj.x_series[0], x0)
        assert np.array_equal(traj.w_series[0], w0)


class TestStopping:
    def test_threshold_already_met_stops_immediately(self):
        problem = make_problem()
        config = RunConfig(step_size=1e-3, horizon=100, stop_residual=1.0, encryption=False)
        traj = run(problem, StaticSchedule(ring(5)), PARAMS, config)
        assert traj.stopped_at == 0
        assert traj.residuals.tolist() == [1.0]

    def test_stops_when_threshold_crossed(self):
        problem = make_problem()
        config = RunConfig(step_size=5e-4, horizon=2000, stop_residual=1e-3, encryption=False)
        traj = run(problem, StaticSchedule(ring(5)), PARAMS, config)
        assert traj.stopped_at is not None and traj.stopped_at > 0
        assert traj.residuals[-1] <= 1e-3
        assert np.all(traj.residuals[:-1] > 1e-3)
        assert len(traj.residuals) == traj.stopped_at + 1

    def test_horizon_without_stop_runs_to_the_end(self):
        problem = make_problem()
        config = RunConfig(step_size=1e-3, horizon=25, encryption=False)
        traj = run(problem, StaticSchedule(ring(5)), PARAMS, config)
        assert traj.stopped_at is None
        assert traj.iterations == 25


class TestGuards:
    def test_vanishing_mass_raises(self):
        problem = make_problem(m=2, s=2, d=2)
        lonely = StaticSchedule(DirectedGraph(2))  # no edges: masses never mix
        config = RunConfig(step_size=1e-3, horizon=5, encryption=False,
                           mass_reset=False, w0=np.array([1e-13, 1.0]))
        with pytest.raises(DegenerateStateError):
            run(problem, lonely, PARAMS, config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(step_size=1e-3, horizon=0)
        with pytest.raises(ValueError):
            RunConfig(step_size=0.0, horizon=10)

    @settings(max_examples=40, deadline=None)
    @given(step=st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                          st.floats(max_value=0.0)))
    def test_rejects_nonfinite_or_nonpositive_step(self, step):
        with pytest.raises(ValueError, match="step size"):
            RunConfig(step_size=step, horizon=10)

    @settings(max_examples=40, deadline=None)
    @given(stop=st.one_of(st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                          st.floats(max_value=-1e-300)))
    def test_rejects_nonfinite_or_negative_stop_residual(self, stop):
        with pytest.raises(ValueError, match="stop residual"):
            RunConfig(step_size=1e-3, horizon=10, stop_residual=stop)

    @settings(max_examples=40, deadline=None)
    @given(horizon=st.one_of(st.floats(min_value=1.0, max_value=1e6), st.just(float("nan")),
                             st.just(True)))
    def test_rejects_non_integer_horizon(self, horizon):
        with pytest.raises(ValueError, match="whole number"):
            RunConfig(step_size=1e-3, horizon=horizon)

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["seed", "trial"]), value=BAD_SEEDS)
    def test_rejects_negative_fractional_or_bool_seed_and_trial(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a non-negative whole number"):
            RunConfig(step_size=1e-3, horizon=10, **{field: value})

    @settings(max_examples=60, deadline=None)
    @given(field=st.sampled_from(["x0", "w0"]), m=st.integers(1, 4), data=st.data())
    def test_rejects_nonfinite_start_by_field_and_entry(self, field, m, data):
        start = np.zeros((m, 2) if field == "x0" else (m,))
        at = data.draw(st.sampled_from([tuple(i) for i in np.ndindex(start.shape)]))
        start[at] = data.draw(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
        with pytest.raises(ValueError, match=rf"^{field} must be finite, but entry "
                                             rf"\({at[0]},.*\) is -?(nan|inf)$"):
            RunConfig(step_size=1e-3, horizon=2, **{field: start.tolist()})

    @pytest.mark.parametrize("field", ["x0", "w0"])
    @pytest.mark.parametrize("value, what", [
        ([[1, 2], [3]], r"a rectangular array of numbers, but \[\[1, 2\], \[3\]\] is not: "),
        ("ab", r"a rectangular array of numbers, but 'ab' is not: could not convert"),
        ({"a": 1}, r"a rectangular array of numbers, but \{'a': 1\} is not: "),
        (["1", "2"], r"an array of numbers, but \['1', '2'\] holds text$"),
        ([b"1"], r"an array of numbers, but \[b'1'\] holds bytes$"),
        ([True, False], r"an array of numbers, but \[True, False\] holds booleans$"),
    ], ids=["ragged", "text", "mapping", "numeric-text", "bytes", "booleans"])
    def test_rejects_ragged_or_non_numeric_start_by_field(self, field, value, what):
        with pytest.raises(ValueError, match=rf"^{field} must be {what}"):
            RunConfig(step_size=1e-3, horizon=2, **{field: value})

    @settings(max_examples=40, deadline=None)
    @given(field=st.sampled_from(["x0", "w0"]), m=st.integers(2, 4), size=st.integers(0, 12))
    def test_rejects_start_of_the_wrong_size_by_field_and_sizes(self, field, m, size):
        problem = make_problem(m=m, s=2, d=2)
        need, name = (2 * m, r"m\*d") if field == "x0" else (m, "m")
        config = RunConfig(step_size=1e-3, horizon=2, **{field: np.ones(size)})
        if size == need:  # any array of as many entries is taken
            assert _initial_positions(problem, config)[field == "w0"].size == need
            return
        with pytest.raises(ValueError, match=rf"^{field} has {size} entries, need {name} = {need}"):
            run(problem, StaticSchedule(ring(m)), PARAMS, config)

    def test_bad_trial_in_a_batch_is_named_before_any_round(self):
        config = RunConfig(step_size=1e-3, horizon=5, encryption=False)
        with pytest.raises(ValueError, match="^trial must"):
            run_trials([make_problem()], [StaticSchedule(ring(5))], PARAMS, config, [-2])

    def test_accepts_numpy_integer_horizon_and_zero_stop(self):
        cfg = RunConfig(step_size=1e-3, horizon=np.int64(5), stop_residual=0.0)
        assert cfg.horizon == 5

    def test_schedule_problem_size_mismatch(self):
        problem = make_problem(m=3)
        config = RunConfig(step_size=1e-3, horizon=5, encryption=False)
        with pytest.raises(ValueError, match="3"):
            run(problem, StaticSchedule(ring(5)), PARAMS, config)
        with pytest.raises(ValueError, match="3"):
            run_baseline(problem, StaticSchedule(ring(5)), config, "push-diging")

    def test_relative_residual_degenerate_cases(self):
        x = np.ones((2, 2))
        assert relative_residual(x, x, x) == 0.0
        assert relative_residual(x + 1, x, x) == float("inf")

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**16))
    def test_relative_residual_with_given_denominator_is_identical(self, seed):
        x, x_init, x_star = np.random.default_rng(seed).standard_normal((3, 4, 2))
        den = float(np.sum((x_init - x_star) ** 2))
        assert relative_residual(x, x_init, x_star, den=den) == \
            relative_residual(x, x_init, x_star)
        assert relative_residual(x, None, x_star, den=den) == \
            relative_residual(x, x_init, x_star)


class TestMessageLog:
    def test_log_shape_and_kinds(self):
        problem = make_problem(m=3, s=2, d=2)
        schedule = StaticSchedule(ring(3))
        config = RunConfig(step_size=1e-3, horizon=4, encryption=True,
                           record_messages=True)
        traj = run(problem, schedule, PARAMS, config)
        # 3 edges, 3 payload kinds each, 4 rounds
        assert len(traj.messages) == 3 * 3 * 4
        assert {m.kind for m in traj.messages} == {"Y", "S", "W"}
        assert all(m.cipher is not None for m in traj.messages)
        assert all(m.plain is not None for m in traj.messages)

    def test_plain_run_logs_without_ciphertext(self):
        problem = make_problem(m=3, s=2, d=2)
        config = RunConfig(step_size=1e-3, horizon=2, encryption=False,
                           record_messages=True)
        traj = run(problem, StaticSchedule(ring(3)), PARAMS, config)
        assert traj.messages and all(m.cipher is None for m in traj.messages)

    def test_self_shares_never_logged(self):
        problem = make_problem(m=3, s=2, d=2)
        config = RunConfig(step_size=1e-3, horizon=3, encryption=True,
                           record_messages=True)
        traj = run(problem, StaticSchedule(ring(3)), PARAMS, config)
        assert all(m.sender != m.receiver for m in traj.messages)


class TestBaselines:
    def test_names(self):
        assert BASELINES == ("push-diging", "subgradient-push", "ab-push-pull")

    def test_unknown_name_rejected(self, ring_setup):
        problem, sched = ring_setup
        with pytest.raises(ValueError, match="unknown baseline"):
            run_baseline(problem, sched, RunConfig(step_size=1e-3, horizon=5), "nope")

    def test_push_diging_converges_without_mass_reset(self, ring_setup):
        problem, sched = ring_setup
        config = RunConfig(step_size=1.2e-3, horizon=400, encryption=False,
                           record_states=True)
        traj = run_baseline(problem, sched, config, "push-diging")
        assert traj.residuals[-1] < 1e-4
        # fixed uniform columns on a ring keep every mass at exactly one
        assert all(np.allclose(w, 1.0) for w in traj.w_series)

    def test_push_diging_uses_the_wire(self, ring_setup):
        problem, sched = ring_setup
        config = RunConfig(step_size=1.2e-3, horizon=3, encryption=True,
                           record_messages=True)
        traj = run_baseline(problem, sched, config, "push-diging")
        assert traj.messages and all(m.cipher is not None for m in traj.messages)

    def test_subgradient_push_is_slower(self, ring_setup):
        problem, sched = ring_setup
        config = RunConfig(step_size=1.1e-3, horizon=400, encryption=False)
        fast = run(problem, sched, PARAMS, config)
        slow = run_baseline(problem, sched, config, "subgradient-push")
        assert slow.residuals[-1] > 100 * fast.residuals[-1]

    def test_ab_push_pull_converges(self, ring_setup):
        problem, sched = ring_setup
        config = RunConfig(step_size=1.2e-3, horizon=400, encryption=False)
        traj = run_baseline(problem, sched, config, "ab-push-pull")
        assert traj.residuals[-1] < 1e-4

    def test_uniform_columns_share_evenly(self):
        g = DirectedGraph(3, frozenset({(2, 1), (3, 1)}))
        cols = uniform_out_columns(g, 0)
        assert cols[1].entries == {1: 1 / 3, 2: 1 / 3, 3: 1 / 3}
        assert cols[2].entries == {2: 1.0}


class TestInitialization:
    def test_tracker_starts_at_local_gradient(self):
        problem = make_problem(m=3, s=2, d=2)
        state = _initial_state(problem, RunConfig(step_size=1e-3, horizon=1))
        for i in range(1, problem.m + 1):
            assert np.array_equal(state.s[i - 1], problem.gradient(i, state.x[i - 1]))
            assert np.array_equal(state.y[i - 1], state.x[i - 1])

    def test_initial_masses_in_signed_unit_range(self):
        problem = make_problem(m=20, s=2, d=2)
        ws = _initial_state(problem, RunConfig(step_size=1e-3, horizon=1)).w
        assert np.all(ws >= -1.0) and np.all(ws <= 1.0)
        assert ws.min() < 0 < ws.max()
