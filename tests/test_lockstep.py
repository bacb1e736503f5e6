"""Trials run in lockstep reproduce each trial run alone, bit for bit.

`run_trials` and `run_baseline_trials` advance a batch of trials through one
round kernel; trial t of a batch must give exactly what `run(..., trial=t)`
gives: residuals, state series, weight matrices, stopping round and, on a
sealed run, every plaintext and ciphertext byte. The kernel's array-drawn
weights must also be the per-agent columns bit for bit. Both derive their
masks and weights a block of rounds at a time, and a run without a stopping
rule takes a block's residuals in one call, so the tests cross the block
edges (at 64 rounds for 6 agents, 256 for 4, 1024 for 2), stop trials
inside a block, play every block as one round against the default blocks,
count the rounds a schedule is asked for at once and count the keyed
streams' block passes (`streams.KeyedStream`). The dense baselines must
also match a plain per-trial loop of matrix products (`dense_oracle`).
"""
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cipheropt import cli, engine
from cipheropt.channel import SharedKey
from cipheropt.engine import (
    W_EPS,
    DegenerateStateError,
    RunConfig,
    Transport,
    _initial_positions,
    _initial_state,
    _receive,
    _RoundPlan,
    draw_weight_columns,
    iterate,
    relative_residual,
    run,
    run_baseline,
    run_baseline_trials,
    run_trials,
    uniform_out_columns,
)
from cipheropt.graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    ScheduleExhausted,
    ScriptedSchedule,
    StaticSchedule,
    graph_at,
)
from cipheropt.mixing import MixingParams, assemble_weight_matrix
from cipheropt.objectives import (
    GlobalProblem,
    QuadraticSensorObjective,
    generate_sensor_fusion,
    optimal_solution,
    problem_from_instance,
)
from cipheropt.streams import BLOCK, KeyedStream

SERIES = ("x_series", "y_series", "w_series", "s_series", "weight_matrices")
DENSE = ("subgradient-push", "ab-push-pull")


def _uniform(adj, axis):
    a = (adj | np.eye(len(adj), dtype=bool)).astype(float)
    return a / a.sum(axis=axis, keepdims=True)


def dense_oracle(problem, schedule, config, algorithm):
    """A dense baseline trial by trial, one matrix product per round: the
    (residuals, stopped_at) the batched kernels must give bit for bit."""
    x0, _ = _initial_positions(problem, config)
    x_star = optimal_solution(problem)

    def subgradient_push(st, k):
        x, mass, _ = st
        a = _uniform(schedule.adjacencies(k, 1)[0], 0)
        mixed = a @ x
        mass = a @ mass
        z = mixed / mass[:, None]
        eta = 1.0 / (k + 3000)
        return mixed - eta * problem.gradients(z), mass, z

    def ab_push_pull(st, k):
        x, y, g = st
        adj = schedule.adjacencies(k, 1)[0]
        x_new = _uniform(adj, 1) @ (x - config.step_size * y)
        g_new = problem.gradients(x_new)
        return x_new, _uniform(adj, 0) @ y + g_new - g, g_new

    if algorithm == "subgradient-push":
        state, advance, estimate = (x0.copy(), np.ones(problem.m), x0.copy()), \
            subgradient_push, lambda st: st[2]
    else:
        g0 = problem.gradients(x0)
        state, advance, estimate = (x0.copy(), g0.copy(), g0), ab_push_pull, lambda st: st[0]
    stop = config.stop_residual
    residuals = [relative_residual(estimate(state), x0, x_star)]
    if stop is not None and residuals[0] <= stop:
        return np.array(residuals), 0
    for k in range(config.horizon):
        state = advance(state, k)
        residuals.append(relative_residual(estimate(state), x0, x_star))
        if stop is not None and residuals[-1] <= stop:
            return np.array(residuals), k + 1
    return np.array(residuals), None


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
    algorithm = case["algorithm"]

    def batch():
        args = ([problem] * len(case["trials"]), case["schedules"])
        if algorithm == "private":
            return run_trials(*args, params, config, case["trials"])
        return run_baseline_trials(*args, config, algorithm, case["trials"])

    def single(schedule, trial):
        cfg = replace(config, trial=trial)
        if algorithm == "private":
            return run(problem, schedule, params, cfg)
        return run_baseline(problem, schedule, cfg, algorithm)

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
@given(case=batches(), algorithm=st.sampled_from(DENSE), own_problems=st.booleans())
def test_dense_trial_of_a_batch_is_the_per_trial_loop(case, algorithm, own_problems):
    horizon = 12
    problems = [problem_from_instance(generate_sensor_fusion(
        m=case["m"], s=2, d=case["d"], omega=0.01, seed=case["instance"] + own_problems * j))
        for j in range(len(case["trials"]))]
    config = RunConfig(step_size=2e-3, horizon=horizon, encryption=False, seed=case["seed"])

    def oracle(j, cfg):
        return dense_oracle(problems[j], case["schedules"][j],
                            replace(cfg, trial=case["trials"][j]), algorithm)

    if case["stop_quantile"] is not None:
        # a level the first trial meets part way: the others meet it elsewhere or never
        first, _ = oracle(0, config)
        config = replace(config,
                         stop_residual=float(first[int(case["stop_quantile"] * horizon)]))
    gots = run_baseline_trials(problems, case["schedules"], config, algorithm, case["trials"])
    assert len(gots) == len(case["trials"])
    for j, got in enumerate(gots):
        residuals, stopped_at = oracle(j, config)
        assert got.residuals.tobytes() == residuals.tobytes()
        assert (got.stopped_at, got.iterations) == (stopped_at, len(residuals) - 1)
        assert got.config.trial == case["trials"][j]


@pytest.mark.parametrize("algorithm", DENSE)
def test_dense_trials_stop_at_different_rounds_and_leave_the_batch(algorithm):
    m = 6
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=2, omega=0.01, seed=891))
    trials = [0, 1, 2, 3]
    schedules = [RandomActivationSchedule(complete(m), 0.5, seed=t) for t in trials]
    config = RunConfig(step_size=1.1e-3, horizon=200, encryption=False, seed=2)
    # the median of the trials' round-100 residuals: some stop before, some after
    level = float(np.median([dense_oracle(problem, schedule, replace(config, trial=t),
                                          algorithm)[0][100]
                             for schedule, t in zip(schedules, trials)]))
    config = replace(config, stop_residual=level)
    gots = run_baseline_trials([problem] * len(trials), schedules, config, algorithm, trials)
    assert len({traj.stopped_at for traj in gots}) > 1
    for traj, schedule, trial in zip(gots, schedules, trials):
        residuals, stopped_at = dense_oracle(problem, schedule, replace(config, trial=trial),
                                             algorithm)
        assert traj.residuals.tobytes() == residuals.tobytes()
        assert traj.stopped_at == stopped_at


@pytest.mark.parametrize("algorithm", DENSE)
def test_dense_baselines_record_and_send_nothing(algorithm):
    """Whatever the config asks, a dense run keeps no series, weights or messages."""
    m = 4
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=5))
    config = RunConfig(step_size=1e-3, horizon=5, encryption=True, seed=3, record_states=True,
                       record_weights=True, record_messages=True)
    gots = run_baseline_trials([problem] * 2, [StaticSchedule(complete(m))] * 2, config,
                               algorithm, [0, 1])
    for traj in gots:
        assert traj.iterations == 5
        assert all(len(getattr(traj, name)) == 0 for name in SERIES + ("messages",))


def test_recorded_series_are_one_array_each():
    """Trials of a batch that stop at different rounds each keep one array per
    series, of the rounds they played, bit for bit their own runs; a series
    not recorded, and every series of a dense baseline, is a length-0 array."""
    m, d = 6, 2
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=d, omega=0.01, seed=891))
    params = MixingParams(c0=0.5 / m)
    trials = [0, 1, 2, 3]
    schedules = [RandomActivationSchedule(complete(m), 0.5, seed=t) for t in trials]
    config = RunConfig(step_size=1.1e-3, horizon=200, encryption=False, seed=2,
                       record_states=True, record_weights=True)
    # the median of the trials' round-100 residuals: some stop before, some after
    level = float(np.median([run(problem, schedule, params, replace(config, trial=t)).residuals[100]
                             for schedule, t in zip(schedules, trials)]))
    config = replace(config, stop_residual=level)
    gots = run_trials([problem] * len(trials), schedules, params, config, trials)
    assert len({traj.iterations for traj in gots}) > 1
    for traj, schedule, trial in zip(gots, schedules, trials):
        K = traj.iterations
        shapes = {"x_series": (K + 1, m, d), "y_series": (K + 1, m, d), "s_series": (K + 1, m, d),
                  "w_series": (K + 1, m), "weight_matrices": (K, m, m)}
        for name, shape in shapes.items():
            series = getattr(traj, name)
            assert type(series) is np.ndarray and series.dtype == float, name
            assert series.shape == shape, name
        assert_bit_identical(traj, run(problem, schedule, params, replace(config, trial=trial)))
    bare = replace(config, record_states=False, record_weights=False)
    for traj in (run_trials([problem] * 2, schedules[:2], params, bare, trials[:2])
                 + run_baseline_trials([problem] * 2, schedules[:2], config, "ab-push-pull",
                                       trials[:2])):
        for name in SERIES:
            assert type(getattr(traj, name)) is np.ndarray and len(getattr(traj, name)) == 0


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
        graph = graph_at(schedule, k)
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


def test_a_trial_that_stops_at_round_0_leaves_a_mixed_batch():
    """Trial 0 starts at its own optimum and meets the rule at round 0; trial 1
    starts off its optimum and goes on. Each is its own single run, sealed."""
    m = 4
    problems = [problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=s))
                for s in (5, 6)]
    schedules = [StaticSchedule(complete(m)), RandomActivationSchedule(complete(m), 0.7, seed=2)]
    params = MixingParams(c0=0.1)
    config = RunConfig(step_size=2e-3, horizon=70, stop_residual=1e-3, encryption=True, seed=3,
                       x0=np.tile(optimal_solution(problems[0]), (m, 1)), record_states=True,
                       record_weights=True, record_messages=True)
    gots = run_trials(problems, schedules, params, config, [0, 1])
    at_once, going_on = gots
    assert (at_once.stopped_at, at_once.elapsed, at_once.iterations) == (0, 0.0, 0)
    assert len(at_once.x_series) == 1 and at_once.messages == []
    assert going_on.stopped_at != 0 and going_on.iterations > 0 and going_on.messages
    for got, problem, schedule, trial in zip(gots, problems, schedules, [0, 1]):
        assert_bit_identical(got, run(problem, schedule, params, replace(config, trial=trial)))
    # when every trial stops at round 0, no schedule is asked for a round
    counted = [CountingSchedule(schedule) for schedule in schedules]
    gots = run_trials(problems, counted, params, replace(config, stop_residual=1.0), [0, 1])
    assert [traj.stopped_at for traj in gots] == [0, 0]
    assert [schedule.asked for schedule in counted] == [[], []]


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


@st.composite
def one_trial_runs(draw):
    m = draw(st.integers(1, 8))
    return dict(m=m, schedule=draw(schedules_on(m)),
                algorithm=draw(st.sampled_from(["private", "push-diging"])),
                sealed=draw(st.booleans()), seed=draw(st.integers(0, 2**16)),
                trial=draw(st.integers(0, 50)))


@settings(max_examples=60, deadline=None)
@given(one_trial_runs())
@example(dict(m=5, schedule=RandomActivationSchedule(complete(5), 0.7, seed=3),
              algorithm="private", sealed=True, seed=2, trial=1))
def test_one_round_at_a_time_is_the_run(case):
    """`iterate`, one round of one trial from its columns, walks the same path as `run`
    (the private algorithm's drawn columns) or `run_baseline` (push-diging's uniform
    ones), sealed or plain, and sends the same messages."""
    m, schedule, seed, trial = case["m"], case["schedule"], case["seed"], case["trial"]
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=1))
    params = MixingParams(c0=0.5 / m)
    config = RunConfig(step_size=1e-3, horizon=4, encryption=case["sealed"], record_states=True,
                       record_messages=True, seed=seed, trial=trial)
    private = case["algorithm"] == "private"
    if private:
        traj = run(problem, schedule, params, config)
    else:
        traj = run_baseline(problem, schedule, config, "push-diging")
        config = replace(config, mass_reset=False, w0=np.ones(m))
    state = _initial_state(problem, config)
    log = []
    key = SharedKey.from_seed(seed) if case["sealed"] else None
    transport = Transport(m, key, [log], trials=[trial])
    for k in range(config.horizon):
        graph = graph_at(schedule, k)
        columns = (draw_weight_columns(graph, params, seed, trial, k) if private
                   else uniform_out_columns(graph, k))
        state = iterate(state, columns, problem, config.step_size, k,
                        reset_mass=config.mass_reset and k == 0, transport=transport)
        _, x, _ = state
        assert x.tobytes() == traj.x_series[k + 1].tobytes()
    assert [(r.plain, r.cipher) for r in log] == [(r.plain, r.cipher) for r in traj.messages]


def test_degenerate_mass_names_trial_agent_and_round():
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    mixing = StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)})))
    lonely = StaticSchedule(DirectedGraph(2))  # no edges: agent 1's mass never grows
    config = RunConfig(step_size=1e-3, horizon=5, encryption=False, mass_reset=False,
                       w0=np.array([1e-13, 1.0]))
    with pytest.raises(DegenerateStateError, match=r"^trial 5 agent 1 mass 1\.000e-13 at k=1 "):
        run_trials([problem] * 2, [mixing, lonely], MixingParams(c0=0.3), config, [3, 5])


# starting masses: negative, inside the guard (+-1e-13, 0), just outside it, and any
MASSES = st.one_of(st.sampled_from([-1.0, -0.5, 2.0, 1e-13, -1e-13, 0.0, 2e-12, -2e-12]),
                   st.floats(-2.0, 2.0))
GUARD = r"trial (\d+) agent (\d+) mass (\S+) at k=(\d+) is inside the division guard"


def next_masses(schedule, params, config, trial, k, w):
    """w after round k of `trial`: each receiver's shares of the masses, summed by
    senders ascending, its own share included, from the per-agent columns."""
    a = assemble_weight_matrix(
        draw_weight_columns(graph_at(schedule, k), params, config.seed, trial, k).values(), len(w))
    parts = schedule.adjacencies(k, 1)[0] | np.eye(len(w), dtype=bool)
    return np.array([np.add.reduce(a[l, parts[l]] * w[parts[l]]) for l in range(len(w))])


def low_masses(traj):
    return (np.abs(traj.w_series[1:]) < W_EPS).any()


@settings(max_examples=60, deadline=None)
@given(w0=st.lists(MASSES, min_size=2, max_size=3), edges=st.booleans(),
       trials=st.lists(st.integers(0, 20), min_size=1, max_size=3, unique=True))
@example(w0=[3e-12, -3e-12], edges=True, trials=[5, 3])  # the second trial's mass, k=1
@example(w0=[5e-12, -5e-12], edges=True, trials=[0, 1, 2])  # k=2
@example(w0=[1e-11, -1e-11], edges=True, trials=[7])  # k=4
@example(w0=[2e-12, -1e-12, -1e-12], edges=True, trials=[5, 3])  # agent 3
@example(w0=[1.0, -1.0], edges=True, trials=[0, 1, 2])  # runs to the horizon
def test_the_mass_guard_raises_at_the_first_mass_inside_it(w0, edges, trials):
    """Without the reset, a run fails exactly when some |w| falls under W_EPS, and
    names the first round, then trial (batch order), then agent where it does;
    the masses come from the per-agent columns and a recorded run to the round
    before."""
    m = len(w0)
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=3))
    schedule = StaticSchedule(complete(m) if edges else DirectedGraph(m))
    params = MixingParams(c0=0.1)
    config = RunConfig(step_size=1e-3, horizon=4, encryption=False, mass_reset=False, w0=w0,
                       seed=5, record_states=True)
    batch = [problem] * len(trials), [schedule] * len(trials), params

    try:
        trajs = run_trials(*batch, config, trials)
    except DegenerateStateError as exc:
        trial, agent, mass, k = re.fullmatch(GUARD, str(exc)).groups()
        trial, agent, k = int(trial), int(agent), int(k)
    else:
        assert not any(low_masses(traj) for traj in trajs)
        return
    if k == 1:
        before = [np.array(w0, dtype=float)] * len(trials)
    else:
        earlier = run_trials(*batch, replace(config, horizon=k - 1), trials)
        assert not any(low_masses(traj) for traj in earlier)
        before = [traj.w_series[-1] for traj in earlier]
    faults = []  # (trial, agent, mass) inside the guard at round k, in batch and agent order
    for t, w in zip(trials, before):
        w = next_masses(schedule, params, config, t, k - 1, w)
        faults += [(t, l + 1, f"{w[l]:.3e}") for l in np.flatnonzero(np.abs(w) < W_EPS)]
    assert faults and faults[0] == (trial, agent, mass)


@pytest.mark.parametrize("T", [1, 2, 3])
def test_a_negative_mass_outside_the_guard_runs(T):
    """[-1, 2] has its minimum under W_EPS, but no |w| inside the guard: the
    one-reduction test fails and the |w| test passes it."""
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    config = RunConfig(step_size=1e-3, horizon=5, encryption=False, mass_reset=False,
                       w0=[-1, 2], record_states=True)
    trajs = run_trials([problem] * T, [StaticSchedule(DirectedGraph(2))] * T,
                       MixingParams(c0=0.3), config, range(T))
    for traj in trajs:
        assert traj.iterations == 5
        assert traj.w_series.tobytes() == np.tile([-1.0, 2.0], (6, 1)).tobytes()


def test_recorded_series_own_their_memory():
    """A sealed batch whose trials stop in different blocks: no series of one
    trial shares memory with another trial's or a later run's, and writing into
    one trial's series moves no other trial's and no rerun's bytes. A block
    buffer or A(k) array kept across blocks or trials would fail this."""
    m = 6
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=2, omega=0.01, seed=891))
    batch = ([problem] * 3, [StaticSchedule(complete(m))] * 3, MixingParams(c0=0.5 / m),
             RunConfig(step_size=2e-3, horizon=150, encryption=True, seed=3, stop_residual=2e-3,
                       record_states=True, record_weights=True), [0, 1, 2])
    gots = run_trials(*batch)
    assert len({traj.stopped_at // BLOCK for traj in gots}) > 1

    def owned(traj):
        return [traj.residuals] + [getattr(traj, name) for name in SERIES]

    def digest(traj):
        return [a.tobytes() for a in owned(traj)]

    want = [digest(traj) for traj in gots]
    later = run_trials(*batch)
    for i, traj in enumerate(gots):
        others = [a for j, t in enumerate(gots + later) if j != i for a in owned(t)]
        assert not any(np.shares_memory(a, b) for a in owned(traj) for b in others)
    for a in owned(gots[0]):
        a[...] = np.nan
    assert [digest(traj) for traj in gots[1:]] == want[1:]
    assert [digest(traj) for traj in later] == want
    assert [digest(traj) for traj in run_trials(*batch)] == want


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
    # a trial's number fixes its nonce range: a repeated trial would reuse every nonce
    with pytest.raises(ValueError, match="trial 0 appears twice"):
        run_trials([problem] * 2, [schedule] * 2, MixingParams(c0=0.3), config, [0, 0])
    for algorithm in ("push-diging", *DENSE):
        with pytest.raises(ValueError, match="trial 0 appears twice"):
            run_baseline_trials([problem] * 2, [schedule] * 2, config, algorithm, [0, 0])
    # every trial of a batch has the first one's agent count and dimension
    for shapes, message in [([(3, 2), (4, 2)], "m=3, d=2, another m=4, d=2"),
                            ([(3, 2), (3, 2), (3, 1)], "m=3, d=2, another m=3, d=1")]:
        problems = [problem_from_instance(generate_sensor_fusion(m=m, s=2, d=d, omega=0.01,
                                                                 seed=3)) for m, d in shapes]
        schedules = [StaticSchedule(complete(m)) for m, _ in shapes]
        trials = range(len(shapes))
        match = f"same agent count and dimension: .*{message}"
        with pytest.raises(ValueError, match=match):
            run_trials(problems, schedules, MixingParams(c0=0.1), config, trials)
        for algorithm in ("push-diging", *DENSE):
            with pytest.raises(ValueError, match=match):
                run_baseline_trials(problems, schedules, config, algorithm, trials)


@pytest.mark.parametrize("stop", [False, True], ids=["to-horizon", "stop-mid-block"])
@pytest.mark.parametrize("sealed", [False, True], ids=["plain", "sealed"])
@pytest.mark.parametrize("algorithm", ["private", "push-diging", *DENSE])
@pytest.mark.parametrize("horizon", [63, 64, 65, 130, 257])
def test_blocks_of_rounds_are_the_single_runs(horizon, algorithm, sealed, stop):
    """Four agents, three trials: blocks of up to 256 rounds (64 under a stopping
    rule), cut short where a trial stops, so the next block starts off the
    64-round grid."""
    m = 4
    ring = DirectedGraph(m, frozenset((i % m + 1, i) for i in range(1, m + 1)))
    case = dict(m=m, d=2, trials=[0, 1, 2], algorithm=algorithm, seed=3, instance=5,
                schedules=[StaticSchedule(complete(m)),
                           ScriptedSchedule([complete(m), ring, DirectedGraph(m)], mode="cycle"),
                           RandomActivationSchedule(complete(m), 0.6, seed=5)])
    config = RunConfig(step_size=2e-3, horizon=horizon, encryption=sealed, seed=3,
                       record_states=True, record_weights=True, record_messages=sealed)
    _, single = runners(case, config)
    if stop:  # a level the random trial first reaches about a third of the way in
        level = single(case["schedules"][2], 2).residuals[horizon // 3 + 5]
        config = replace(config, stop_residual=float(level))
    batch, single = runners(case, config)
    gots = batch()
    if stop:
        assert gots[2].stopped_at is not None and gots[2].stopped_at % 64
    for got, schedule, trial in zip(gots, case["schedules"], case["trials"]):
        assert_bit_identical(got, single(schedule, trial))


def test_a_run_asks_its_schedule_for_no_round_it_does_not_reach():
    """A three-graph schedule played once serves a run that stops at round 2,
    although its horizon is 10; a run that goes on fails at round 3."""
    m = 3
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=5))
    schedule = ScriptedSchedule([complete(m)] * 3, mode="once")
    params = MixingParams(c0=0.1)
    config = RunConfig(step_size=1e-3, horizon=10, encryption=False)
    level = run(problem, schedule, params, replace(config, horizon=3)).residuals[2]
    assert run(problem, schedule, params, replace(config, stop_residual=level)).stopped_at == 2
    random = RandomActivationSchedule(complete(m), 0.9, seed=1)
    gots = run_trials([problem] * 2, [schedule, random], params,
                      replace(config, stop_residual=level), [0, 1])
    assert gots[0].stopped_at == 2
    with pytest.raises(ScheduleExhausted, match="asked for k=3"):
        run(problem, schedule, params, config)


@pytest.mark.parametrize("algorithm", ["push-diging", *DENSE])
def test_a_baseline_asks_its_schedule_for_no_round_it_does_not_reach(algorithm):
    """`test_a_run_asks_its_schedule_for_no_round_it_does_not_reach`, for the baselines."""
    m = 3
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=5))
    schedule = ScriptedSchedule([complete(m)] * 3, mode="once")
    config = RunConfig(step_size=1e-3, horizon=10, encryption=False)
    level = run_baseline(problem, schedule, replace(config, horizon=3), algorithm).residuals[2]
    config_stop = replace(config, stop_residual=level)
    assert run_baseline(problem, schedule, config_stop, algorithm).stopped_at == 2
    random = RandomActivationSchedule(complete(m), 0.9, seed=1)
    gots = run_baseline_trials([problem] * 2, [schedule, random], config_stop, algorithm, [0, 1])
    assert gots[0].stopped_at == 2
    with pytest.raises(ScheduleExhausted, match="asked for k=3"):
        run_baseline(problem, schedule, config, algorithm)


def test_a_sealed_wide_run_keeps_its_memory():
    """A sealed 48-agent run plans a round at a time: its traced peak stays
    under twice the 0.31 MiB such a run took when every round built its own
    plan."""
    m = 48
    hops = [2**j for j in range(6)]
    base = DirectedGraph(m, frozenset(((i - 1 + h) % m + 1, i)
                                      for i in range(1, m + 1) for h in hops))
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=3, d=2, omega=0.01, seed=891))
    schedule = RandomActivationSchedule(base, 0.9, seed=5)
    params = MixingParams(c0=0.5 / m)
    run(problem, schedule, params, RunConfig(step_size=1e-3, horizon=2))  # warm the caches
    tracemalloc.start()
    try:
        run(problem, schedule, params, RunConfig(step_size=1e-3, horizon=20))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 0.31 * 2**20


# Every receiver's sum in a round is one padded gather and one reduction
# (`_receive`). These pin it against each receiver's own `np.sum` and against
# a per-count reference, on values where a reordered sum or a lost NaN, inf
# or -0.0 would show.
SUM_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=False))


def own_sums(adj, shares, d):
    """Each receiver's y, s and w summed as a per-agent loop sums them: `np.sum`
    over its own parts alone, senders ascending, its own share included."""
    m = adj.shape[-1]
    out = []
    for l in range(m):
        parts = shares[l * m + np.flatnonzero(adj[l] | (np.arange(m) == l))]
        y, s, w = parts[:, :d], parts[:, d : 2 * d], parts[:, 2 * d]
        out.append(np.concatenate((np.sum(y, axis=0), np.sum(s, axis=0), [np.sum(w)])))
    return np.array(out)


def padded_sums(adj, shares, d):
    plan = _RoundPlan(adj[None], 1, 2 * d + 1)
    plan.shares[:-1] = shares
    return _receive(plan.shares, plan.gather[0], plan.groups[0], d)


def per_count_sums(adj, shares, d):
    """Per-count reference: receivers grouped by their number of parts, each
    group's block reduced in one call, y and s side by side when d > 1 and
    every single column on its own."""
    m = adj.shape[-1]
    parts = (adj | np.eye(m, dtype=bool))
    counts = parts.sum(axis=1)
    block = shares.reshape(m, m, 2 * d + 1)
    spans = (slice(0, 2 * d), slice(2 * d, None)) if d > 1 else (
        slice(0, 1), slice(1, 2), slice(2, None))
    out = np.empty((m, 2 * d + 1))
    for count in np.flatnonzero(np.bincount(counts)).tolist():
        rows = np.flatnonzero(counts == count)
        group = block[rows[:, None], np.nonzero(parts[rows])[1].reshape(len(rows), count)]
        for span in spans:
            out[rows, span] = np.add.reduce(group[:, :, span], axis=1)
    return out


@st.composite
def receivers(draw, m=12):
    """A round's adjacency on m agents in which receiver l has counts[l] parts
    (its own share among them), 1 to m, so counts straddle 8."""
    adj = np.zeros((m, m), dtype=bool)
    for l in range(m):
        count = draw(st.integers(1, m))
        others = draw(st.permutations([i for i in range(m) if i != l]))[: count - 1]
        adj[l, others] = True
    return adj


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(adj=receivers(), d=st.sampled_from([1, 2]), data=st.data())
def test_padded_sum_is_each_receivers_own_sum(adj, d, data):
    shares = data.draw(arrays(float, (adj.size, 2 * d + 1), elements=SUM_VALUES))
    got = padded_sums(adj, shares, d)
    assert got.tobytes() == own_sums(adj, shares, d).tobytes()
    assert got.tobytes() == per_count_sums(adj, shares, d).tobytes()


@pytest.mark.parametrize("d", [1, 2])
def test_a_sum_of_negative_zeros_is_each_receivers_own_sum(d):
    """Receivers with 1 to 12 parts, every part -0.0. x + (-0.0) is x, so the
    pad row leaves each sum what the receiver's own parts give: -0.0 where
    numpy starts a reduction from its first part, +0.0 where it starts from
    the identity +0.0, as numpy 2.x does; a +0.0 pad breaks the former."""
    m = 12
    adj = np.zeros((m, m), dtype=bool)
    for l in range(m):
        adj[l, [i for i in range(m) if i != l][:l]] = True  # receiver l has l + 1 parts
    shares = np.full((m * m, 2 * d + 1), -0.0)
    got = padded_sums(adj, shares, d)
    assert not got.any()
    assert got.tobytes() == own_sums(adj, shares, d).tobytes()
    assert got.tobytes() == per_count_sums(adj, shares, d).tobytes()


def exponential(m):
    hops = [2**j for j in range(m.bit_length()) if 2**j < m]
    return DirectedGraph(m, frozenset(((i - 1 + h) % m + 1, i)
                                      for i in range(1, m + 1) for h in hops))


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
@pytest.mark.parametrize("base", [complete(12), exponential(48)], ids=["complete-12", "exp-48"])
@pytest.mark.parametrize("d", [1, 2])
def test_padded_sum_is_the_per_count_sum_on_real_rounds(base, d):
    """Rounds of a randomly activated complete 12-agent digraph (2 to 12 parts
    a receiver) and 48-agent exponential digraph, with special values mixed in."""
    schedule = RandomActivationSchedule(base, 0.7, seed=11)
    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324])
    for k, adj in enumerate(schedule.adjacencies(0, 20)):
        shares = rng.standard_normal((adj.size, 2 * d + 1)) * 10.0 ** rng.integers(-8, 9)
        if k % 2:
            at = rng.random(shares.shape) < 0.1
            shares[at] = rng.choice(special, at.sum())
        got = padded_sums(adj, shares, d)
        assert got.tobytes() == per_count_sums(adj, shares, d).tobytes()
        assert got.tobytes() == own_sums(adj, shares, d).tobytes()


# A run without a stopping rule takes a block's residuals in one call over
# its (rounds, trials, m, d) estimates, a run with one takes each round's as
# it lands. Either way every residual must be the one a round's own call
# gives, NaN and inf included.
def own_residuals(traj):
    """Each recorded round's residual from its own `relative_residual` call."""
    return np.array([relative_residual(x, traj.x_series[0], traj.x_star)
                     for x in traj.x_series])


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 12), data=st.data(), horizon=st.integers(65, 200),
       algorithm=st.sampled_from(["private", "push-diging"]),
       stop=st.sampled_from([None, 1e-3]), seed=st.integers(0, 2**16))
def test_block_residuals_are_each_rounds_own(m, data, horizon, algorithm, stop, seed):
    trials = data.draw(st.lists(st.integers(0, 50), min_size=1, max_size=4, unique=True))
    # complete digraphs, all or part activated: every mass stays clear of the guard
    mixing = st.one_of(st.just(StaticSchedule(complete(m))), st.builds(
        lambda p, draw_seed: RandomActivationSchedule(complete(m), p, seed=draw_seed),
        st.sampled_from([0.5, 0.9]), st.integers(0, 2**32 - 1)))
    case = dict(m=m, d=data.draw(st.sampled_from([1, 2])), trials=trials, algorithm=algorithm,
                instance=seed, schedules=[data.draw(mixing) for _ in trials])
    config = RunConfig(step_size=2e-3, horizon=horizon, stop_residual=stop, encryption=False,
                       seed=seed, record_states=True)
    batch, _ = runners(case, config)
    for traj in batch():
        assert traj.residuals.tobytes() == own_residuals(traj).tobytes()


def flagship_problem():
    return problem_from_instance(generate_sensor_fusion(m=6, s=3, d=2, omega=0.01, seed=7))


def fig5b(trial):
    return cli._load_schedule({"schedule": "fig5b", "activation": None, "schedule_seed": 0},
                              trial)


def test_block_residuals_of_a_start_at_the_optimum():
    """A start at the optimum has residual 0, and inf once the estimate leaves it."""
    problem = flagship_problem()
    x0 = np.tile(optimal_solution(problem), (problem.m, 1))
    config = RunConfig(step_size=1.1e-3, horizon=130, encryption=False, x0=x0,
                       record_states=True)
    for traj in run_trials([problem] * 2, [fig5b(0), fig5b(1)], MixingParams(c0=0.1), config,
                           [0, 1]):
        assert traj.residuals[0] == 0.0 and np.isinf(traj.residuals[1:]).all()
        assert traj.residuals.tobytes() == own_residuals(traj).tobytes()


@pytest.mark.filterwarnings("ignore:(invalid value|overflow) encountered:RuntimeWarning")
def test_block_residuals_of_a_diverging_run():
    """Step 0.5 on fig5b overflows to inf and then NaN: those residuals match too."""
    config = RunConfig(step_size=0.5, horizon=400, encryption=False, record_states=True)
    for traj in run_trials([flagship_problem()] * 2, [fig5b(0), fig5b(1)],
                           MixingParams(c0=0.1), config, [0, 1]):
        assert np.isnan(traj.residuals).any() and np.isinf(traj.residuals).any()
        assert traj.residuals.tobytes() == own_residuals(traj).tobytes()


class CountingSchedule:
    """A schedule that records the (k, n) of every `adjacencies(k, n)` call."""

    def __init__(self, schedule):
        self.schedule, self.asked = schedule, []

    def __getattr__(self, name):
        return getattr(self.schedule, name)

    def adjacencies(self, k, n):
        self.asked.append((k, n))
        return self.schedule.adjacencies(k, n)


def test_a_batch_of_six_agent_trials_plays_full_blocks():
    """The block budget is per trial: 100 fig5b trials play 64 rounds a block,
    on the `BLOCK` grid; the batch cap leaves 1000 trials 7 rounds a block."""
    config = RunConfig(step_size=1.1e-3, horizon=130, encryption=False)
    schedules = [CountingSchedule(fig5b(t)) for t in range(100)]
    run_trials([flagship_problem()] * 100, schedules, MixingParams(c0=0.1), config, range(100))
    for schedule in schedules:
        assert schedule.asked == [(0, BLOCK), (BLOCK, BLOCK), (2 * BLOCK, 130 - 2 * BLOCK)]
    shared = CountingSchedule(fig5b(0))
    run_trials([flagship_problem()] * 1000, [shared] * 1000, MixingParams(c0=0.1),
               replace(config, horizon=10), range(1000))
    assert shared.asked == [(0, 7)] * 1000 + [(7, 3)] * 1000


def test_a_48_agent_trial_plays_one_round_a_block():
    schedule = CountingSchedule(RandomActivationSchedule(exponential(48), 0.9, seed=5))
    problem = problem_from_instance(generate_sensor_fusion(m=48, s=3, d=2, omega=0.01, seed=891))
    run(problem, schedule, MixingParams(c0=0.5 / 48),
        RunConfig(step_size=1e-3, horizon=5, encryption=False))
    assert schedule.asked == [(k, 1) for k in range(5)]


class CountedDraws:
    """Logs each `KeyedStream` block pass as (seed, prefix, start, draws) and each
    per-key generator draw as its size."""

    def __init__(self, monkeypatch):
        self.passes, self.keys = [], []
        real_pass, real_init = KeyedStream._pass, KeyedStream.__init__
        log = self

        class Generator:
            def __init__(self, gen):
                self.gen = gen

            def random(self, out):
                log.keys.append(out.size)
                return self.gen.random(out=out)

        def counted_pass(stream, start, draws):
            log.passes.append((stream.seed, stream.prefix, start, draws))
            return real_pass(stream, start, draws)

        def counted_init(stream, seed, prefix):
            real_init(stream, seed, prefix)
            stream._gen = Generator(stream._gen)

        monkeypatch.setattr(KeyedStream, "_pass", counted_pass)
        monkeypatch.setattr(KeyedStream, "__init__", counted_init)


def test_a_batch_draws_each_stream_once_a_block(monkeypatch):
    """100 fig5b trials of 130 rounds make one pass per stream and 64-key
    block, masks (9 draws a key) and weights (30), not one draw per trial and
    round: 600 passes for the 26000 keys."""
    draws = CountedDraws(monkeypatch)
    config = RunConfig(step_size=1.1e-3, horizon=130, encryption=False)
    run_trials([flagship_problem()] * 100, [fig5b(t) for t in range(100)], MixingParams(c0=0.1),
               config, range(100))
    assert draws.keys == []
    assert len(draws.passes) == 600
    streams = {}
    for seed, prefix, start, n in draws.passes:
        streams.setdefault((seed, prefix, n), []).append(start)
    assert sorted((prefix[0], n) for _, prefix, n in streams) == [(11, 9)] * 100 + [(32, 30)] * 100
    assert all(starts == [0, BLOCK, 2 * BLOCK] for starts in streams.values())


def test_a_48_agent_trial_draws_its_keys_one_by_one(monkeypatch):
    """288 masks and 2256 weights a key are past the pass's crossover: one
    generator draw per key and stream, and no pass."""
    draws = CountedDraws(monkeypatch)
    schedule = RandomActivationSchedule(exponential(48), 0.9, seed=5)
    problem = problem_from_instance(generate_sensor_fusion(m=48, s=3, d=2, omega=0.01, seed=891))
    run(problem, schedule, MixingParams(c0=0.5 / 48),
        RunConfig(step_size=1e-3, horizon=5, encryption=False))
    assert draws.passes == []
    assert draws.keys == [288, 2256] * 5


# Small networks play long blocks: without a stopping rule a block ends at the
# last multiple of `BLOCK` its cell budget reaches, 1024 rounds at 2 agents and
# 256 at 4. The length of a block must move no bit of a run.
TWO_CYCLE = DirectedGraph(2, frozenset({(1, 2), (2, 1)}))


def desk_problem():
    """The README's two-cycle certificate instance."""
    return problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))


DESK = RunConfig(step_size=1e-3, horizon=1100, encryption=False, record_states=True,
                 record_weights=True)


def desk_run():
    return [desk_problem()], [StaticSchedule(TWO_CYCLE)], MixingParams(c0=0.49), DESK, [0]


def sealed_pair_run():
    config = replace(DESK, encryption=True, record_messages=True, seed=4)
    return ([desk_problem()], [RandomActivationSchedule(TWO_CYCLE, 0.8, seed=6)],
            MixingParams(c0=0.49), config, [0])


def sealed_stop_batch():
    """Four sealed 4-agent trials that leave at rounds 145, 29, 73 and 94, so
    blocks start off the 64-round grid."""
    m = 4
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=5))
    config = RunConfig(step_size=2e-3, horizon=300, stop_residual=1e-4, seed=3,
                       record_states=True, record_weights=True, record_messages=True)
    return ([problem] * 4, [RandomActivationSchedule(complete(m), 0.5, seed=t) for t in range(4)],
            MixingParams(c0=0.1), config, [0, 1, 2, 3])


def assert_same_run(got, want):
    """`assert_bit_identical`, and the optimum and every MessageRecord field."""
    assert_bit_identical(got, want)
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.messages == want.messages


@pytest.mark.parametrize("case, blocks", [
    (desk_run, [[(0, 1024), (1024, 76)]]),
    (sealed_pair_run, [[(0, 1024), (1024, 76)]]),
    (sealed_stop_batch, [[(0, 64), (29, 35), (64, 64), (73, 55), (94, 34), (128, 64)][:n]
                         for n in (6, 1, 3, 4)]),
], ids=["desk", "sealed-pair", "sealed-stop-batch"])
def test_one_round_blocks_are_the_long_block_runs(monkeypatch, case, blocks):
    """With cell budgets that leave every block one round, each Trajectory is the
    default one field by field."""
    problems, schedules, params, config, trials = case()
    counted = [CountingSchedule(schedule) for schedule in schedules]
    wants = run_trials(problems, counted, params, config, trials)
    assert [schedule.asked for schedule in counted] == blocks
    if config.stop_residual is not None:
        assert [want.stopped_at for want in wants] == [145, 29, 73, 94]
    monkeypatch.setattr(engine, "_BLOCK_CELLS", 1)
    monkeypatch.setattr(engine, "_BATCH_CELLS", 1)
    counted = [CountingSchedule(schedule) for schedule in schedules]
    gots = run_trials(problems, counted, params, config, trials)
    for schedule, want in zip(counted, wants):
        assert schedule.asked == [(k, 1) for k in range(want.iterations)]
    for got, want in zip(gots, wants):
        assert_same_run(got, want)
    if config.record_messages:
        assert all(want.messages for want in wants)


def test_every_logged_message_is_its_weight_times_its_senders_recorded_state():
    """Each message i -> l of round k of a sealed stop-rule batch carries A(k)[l-1, i-1]
    times sender i's recorded y, s and w at row k, bit for bit, in every trial."""
    problems, schedules, params, config, trials = sealed_stop_batch()
    trajs = run_trials(problems, schedules, params, config, trials)
    assert [traj.stopped_at for traj in trajs] == [145, 29, 73, 94]
    for traj in trajs:
        series = {"Y": traj.y_series, "S": traj.s_series, "W": traj.w_series[..., None]}
        assert {rec.k for rec in traj.messages} <= set(range(traj.iterations))
        assert {rec.kind for rec in traj.messages} == set(series)
        for rec in traj.messages:
            share = traj.weight_matrices[rec.k, rec.receiver - 1, rec.sender - 1]
            want = share * series[rec.kind][rec.k, rec.sender - 1]
            assert np.array(rec.data).tobytes() == want.tobytes(), rec


def test_a_two_agent_run_plays_1024_round_blocks():
    """The desk run of B0 + 60 = 4327 rounds plays 5 blocks, on the `BLOCK` grid;
    under a stopping rule, which may end a block at any round, a block ends by the
    next multiple of `BLOCK`."""
    schedule = CountingSchedule(StaticSchedule(TWO_CYCLE))
    run(desk_problem(), schedule, MixingParams(c0=0.49), replace(DESK, horizon=4327))
    assert schedule.asked == [(0, 1024), (1024, 1024), (2048, 1024), (3072, 1024), (4096, 231)]
    schedule = CountingSchedule(StaticSchedule(TWO_CYCLE))
    traj = run(desk_problem(), schedule, MixingParams(c0=0.49),
               replace(DESK, horizon=4327, stop_residual=1e-6))
    assert traj.stopped_at == 101
    assert schedule.asked == [(0, BLOCK), (BLOCK, BLOCK)]


def test_a_batch_of_four_agent_trials_plays_256_round_blocks():
    m = 4
    problem = problem_from_instance(generate_sensor_fusion(m=m, s=2, d=2, omega=0.01, seed=5))
    schedules = [CountingSchedule(RandomActivationSchedule(complete(m), 0.5, seed=t))
                 for t in range(2)]
    run_trials([problem] * 2, schedules, MixingParams(c0=0.1),
               RunConfig(step_size=2e-3, horizon=600, encryption=False), [0, 1])
    for schedule in schedules:
        assert schedule.asked == [(0, 256), (256, 256), (512, 88)]


def test_a_two_agent_run_passes_each_weight_block_once_in_order(monkeypatch):
    """A 1024-round block walks its 16 64-key blocks in order: the desk run's
    weight stream makes one pass at each of keys 0, 64, ..., 4288."""
    draws = CountedDraws(monkeypatch)
    run(desk_problem(), StaticSchedule(TWO_CYCLE), MixingParams(c0=0.49),
        replace(DESK, horizon=4327))
    assert draws.keys == []
    assert draws.passes == [(0, (32, 0), start, 2) for start in range(0, 4327, BLOCK)]
