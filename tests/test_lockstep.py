"""Trials run in lockstep reproduce each trial run alone, bit for bit.

`run_trials` and `run_baseline_trials` advance a batch of trials through one
round kernel; trial t of a batch must give exactly what `run(..., trial=t)`
gives: residuals, state series, weight matrices, stopping round and, on a
sealed run, every plaintext and ciphertext byte. The kernel's array-drawn
weights must also be the per-agent columns bit for bit.
"""
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cipheropt.channel import SharedKey
from cipheropt.engine import (
    DegenerateStateError,
    RunConfig,
    Transport,
    _initial_state,
    draw_weight_columns,
    iterate,
    run,
    run_baseline,
    run_baseline_trials,
    run_trials,
    uniform_out_columns,
)
from cipheropt.graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    ScriptedSchedule,
    StaticSchedule,
)
from cipheropt.mixing import MixingParams, assemble_weight_matrix
from cipheropt.objectives import (
    GlobalProblem,
    QuadraticSensorObjective,
    generate_sensor_fusion,
    problem_from_instance,
)

SERIES = ("x_series", "y_series", "w_series", "s_series", "weight_matrices")


def complete(m):
    return DirectedGraph(m, frozenset((l, i) for l in range(1, m + 1)
                                      for i in range(1, m + 1) if l != i))


@st.composite
def graphs_on(draw, m):
    """A digraph on m agents: complete, or each ordered pair an edge at random."""
    if draw(st.booleans()):
        return complete(m)
    pairs = [(l, i) for l in range(1, m + 1) for i in range(1, m + 1) if l != i]
    return DirectedGraph(m, frozenset(p for p in pairs if draw(st.booleans())))


@st.composite
def schedules_on(draw, m):
    kind = draw(st.sampled_from(["static", "scripted", "random"]))
    if kind == "static":
        return StaticSchedule(draw(graphs_on(m)))
    if kind == "scripted":
        graphs = draw(st.lists(graphs_on(m), min_size=1, max_size=3))
        return ScriptedSchedule(graphs, mode=draw(st.sampled_from(["cycle", "hold"])))
    return RandomActivationSchedule(draw(graphs_on(m)), draw(st.sampled_from([0.5, 0.9, 1.0])),
                                    seed=draw(st.integers(0, 2**32 - 1)))


@st.composite
def batches(draw):
    m = draw(st.integers(1, 12))
    d = draw(st.sampled_from([1, 2]))
    trials = draw(st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True))
    return dict(
        m=m, d=d, trials=trials,
        schedules=[draw(schedules_on(m)) for _ in trials],
        algorithm=draw(st.sampled_from(["private", "push-diging"])),
        sealed=draw(st.booleans()),
        stop_quantile=draw(st.sampled_from([None, 0.3, 0.6])),
        seed=draw(st.integers(0, 2**16)),
        instance=draw(st.integers(0, 2**16)),
    )


def runners(case, config):
    """The batch call of a case, and the single run of one of its trials."""
    problem = problem_from_instance(generate_sensor_fusion(
        m=case["m"], s=2, d=case["d"], omega=0.01, seed=case["instance"]))
    params = MixingParams(c0=0.5 / case["m"])
    private = case["algorithm"] == "private"

    def batch():
        args = ([problem] * len(case["trials"]), case["schedules"])
        if private:
            return run_trials(*args, params, config, case["trials"])
        return run_baseline_trials(*args, config, "push-diging", case["trials"])

    def single(schedule, trial):
        cfg = replace(config, trial=trial)
        if private:
            return run(problem, schedule, params, cfg)
        return run_baseline(problem, schedule, cfg, "push-diging")

    return batch, single


def assert_bit_identical(got, want):
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert (got.stopped_at, got.iterations) == (want.stopped_at, want.iterations)
    assert got.config.trial == want.config.trial
    for name in SERIES:
        a, b = getattr(got, name), getattr(want, name)
        assert [v.tobytes() for v in a] == [v.tobytes() for v in b], name
    assert [(r.plain, r.cipher) for r in got.messages] == \
        [(r.plain, r.cipher) for r in want.messages]


COMPLETE_12 = dict(m=12, d=1, trials=[0, 3, 7], algorithm="private", sealed=False,
                   stop_quantile=0.6, seed=7, instance=891,
                   schedules=[StaticSchedule(complete(12)),
                              RandomActivationSchedule(complete(12), 0.9, seed=4),
                              ScriptedSchedule([complete(12), DirectedGraph(12)], mode="cycle")])


@settings(max_examples=60, deadline=None)
@given(batches())
@example(COMPLETE_12)
@example({**COMPLETE_12, "d": 2, "algorithm": "push-diging", "sealed": True})
def test_trial_of_a_batch_is_its_single_run(case):
    horizon = 12
    config = RunConfig(step_size=2e-3, horizon=horizon, encryption=case["sealed"],
                       seed=case["seed"], record_states=True, record_weights=True,
                       record_messages=case["sealed"])
    if case["stop_quantile"] is not None:
        # a threshold one trial reaches part way: the others stop elsewhere or never
        _, single = runners(case, config)
        try:
            first = single(case["schedules"][0], case["trials"][0])
        except DegenerateStateError:
            first = None
        if first is not None and np.isfinite(first.residuals).all():
            level = float(first.residuals[int(case["stop_quantile"] * horizon)])
            config = replace(config, stop_residual=level)
    batch, single = runners(case, config)
    wants = []
    for schedule, trial in zip(case["schedules"], case["trials"]):
        try:
            wants.append(single(schedule, trial))
        except DegenerateStateError:
            wants.append(None)
    if None in wants:
        failing = [t for t, w in zip(case["trials"], wants) if w is None]
        with pytest.raises(DegenerateStateError, match="|".join(f"trial {t} " for t in failing)):
            batch()
        return
    gots = batch()
    assert len(gots) == len(wants)
    for got, want in zip(gots, wants):
        assert_bit_identical(got, want)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 12), trial=st.integers(0, 50), seed=st.integers(0, 2**16),
       algorithm=st.sampled_from(["private", "push-diging"]), data=st.data())
def test_kernel_weights_are_the_per_agent_columns(m, trial, seed, algorithm, data):
    schedule = data.draw(schedules_on(m))
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=1, omega=0.01, seed=1))
    params = MixingParams(c0=0.5 / m)
    config = RunConfig(step_size=1e-3, horizon=4, encryption=False, seed=seed, trial=trial,
                       record_weights=True)
    if algorithm == "private":
        traj = run(problem, schedule, params, config)
    else:
        traj = run_baseline(problem, schedule, config, algorithm)
    for k, a in enumerate(traj.weight_matrices):
        graph = schedule.graph_at(k)
        columns = (draw_weight_columns(graph, params, seed, trial, k) if algorithm == "private"
                   else uniform_out_columns(graph, k))
        assert a.tobytes() == assemble_weight_matrix(columns.values(), m).tobytes(), k


def test_trials_stop_at_different_rounds_and_leave_the_batch():
    m = 6
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=2, omega=0.01, seed=891))
    base = complete(m)
    trials = [0, 1, 2, 3]
    schedules = [RandomActivationSchedule(base, 0.5, seed=t) for t in trials]
    params = MixingParams(c0=0.5 / m)
    config = RunConfig(step_size=1.1e-3, horizon=400, stop_residual=1e-3, encryption=False,
                       seed=2)
    gots = run_trials([problem] * len(trials), schedules, params, config, trials)
    stops = [traj.stopped_at for traj in gots]
    assert None not in stops and len(set(stops)) > 1
    for traj, schedule, trial in zip(gots, schedules, trials):
        want = run(problem, schedule, params, replace(config, trial=trial))
        assert_bit_identical(traj, want)
        assert len(traj.residuals) == traj.stopped_at + 1


def mixed_shapes(seed):
    """Three agents with one, two and three measurements: no stacked gradient form."""
    rng = np.random.default_rng(seed)
    return GlobalProblem([QuadraticSensorObjective(rng.uniform(0.0, 10.0, (s, 2)),
                                                   rng.standard_normal(s), 0.01)
                          for s in (1, 2, 3)])


@pytest.mark.parametrize("problems", [
    [problem_from_instance(generate_sensor_fusion(m=3, s=2, d=2, omega=0.01, seed=s))
     for s in (5, 6)],
    [mixed_shapes(0)] * 2,
    [mixed_shapes(0), mixed_shapes(1)],
], ids=["own-instances", "mixed-shapes-shared", "mixed-shapes-own"])
def test_batch_trials_take_their_own_problems(problems):
    schedule = StaticSchedule(complete(3))
    params = MixingParams(c0=0.1)
    config = RunConfig(step_size=1e-3, horizon=30, encryption=False, record_states=True)
    gots = run_trials(problems, [schedule] * 2, params, config, [0, 1])
    for problem, trial, got in zip(problems, [0, 1], gots):
        want = run(problem, schedule, params, replace(config, trial=trial))
        assert_bit_identical(got, want)


def test_one_round_at_a_time_is_the_run():
    """`iterate`, one round of one trial from its columns, walks the same path as `run`."""
    problem = problem_from_instance(generate_sensor_fusion(m=5, s=2, d=2, omega=0.01, seed=1))
    schedule = RandomActivationSchedule(complete(5), 0.7, seed=3)
    params = MixingParams(c0=0.1)
    config = RunConfig(step_size=1e-3, horizon=4, encryption=True, record_states=True,
                       record_messages=True, seed=2, trial=1)
    traj = run(problem, schedule, params, config)
    state = _initial_state(problem, config)
    transport = Transport(5, SharedKey.from_seed(2), [])
    for k in range(config.horizon):
        columns = draw_weight_columns(schedule.graph_at(k), params, 2, 1, k)
        state = iterate(state, columns, problem, config.step_size, k, reset_mass=k == 0,
                        transport=transport)
        assert state.x.tobytes() == traj.x_series[k + 1].tobytes()
    assert [r.cipher for r in transport.log] == [r.cipher for r in traj.messages]


def test_degenerate_mass_names_trial_agent_and_round():
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    mixing = StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)})))
    lonely = StaticSchedule(DirectedGraph(2))  # no edges: agent 1's mass never grows
    config = RunConfig(step_size=1e-3, horizon=5, encryption=False, mass_reset=False,
                       w0=np.array([1e-13, 1.0]))
    with pytest.raises(DegenerateStateError, match=r"^trial 5 agent 1 mass 1\.000e-13 at k=1 "):
        run_trials([problem] * 2, [mixing, lonely], MixingParams(c0=0.3), config, [3, 5])


def test_batch_shape_is_checked():
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    schedule = StaticSchedule(complete(2))
    config = RunConfig(step_size=1e-3, horizon=5)
    with pytest.raises(ValueError, match="one problem and one schedule per trial"):
        run_trials([problem], [schedule, schedule], MixingParams(c0=0.3), config, [0, 1])
    with pytest.raises(ValueError, match="one problem and one schedule per trial"):
        run_baseline_trials([], [], config, "push-diging", [])
    with pytest.raises(ValueError, match="schedule is over 3 agents"):
        run_trials([problem], [StaticSchedule(complete(3))], MixingParams(c0=0.3), config, [0])
