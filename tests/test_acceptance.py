"""Acceptance checks: one test per shipped guarantee.

Each test states a user-facing property of the package at its stated
tolerance. The heavyweight fixtures (hundred-trial mean curves) are shared
session-wide so the whole file stays in the low minutes.
"""
import math
import time

import numpy as np
import pytest

from cipheropt import adversary, cli, theory
from cipheropt.channel import CipherEnvelope, SharedKey, TamperError, decrypt
from cipheropt.engine import RunConfig, run, run_baseline, run_baseline_trials, run_trials
from cipheropt.graphs import (
    DirectedGraph,
    StaticSchedule,
    certify_uniform_connectivity,
    graph_at,
)
from cipheropt.mixing import MixingParams, assemble_weight_matrix, generate_weight_column
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance

# The flagship setup: six agents on the randomly activated ring-with-chords
# graph, three 2-d measurements each. The instance seed is chosen (documented
# in the repo notes) so the strong-convexity floor lands where a 2000-round
# run neither stalls above 1e-6 nor bottoms out on float rounding.
FLAGSHIP_SEED = 891
FLAGSHIP = dict(m=6, s=3, d=2, omega=0.01)
MIX = MixingParams(c0=0.1, k0_range=1.0)
TRIALS = 100
HORIZON = 2000


def flagship_problem(instance_seed=FLAGSHIP_SEED):
    return problem_from_instance(generate_sensor_fusion(seed=instance_seed, **FLAGSHIP))


def flagship_schedule(trial):
    return cli._load_schedule({"schedule": "fig5b", "activation": None, "schedule_seed": 0}, trial)


def mean_curve(problem, algorithm, step, trials=TRIALS):
    rc = RunConfig(step_size=step, horizon=HORIZON, encryption=False, seed=0)
    problems = [problem] * trials
    schedules = [flagship_schedule(trial) for trial in range(trials)]
    if algorithm == "algorithm1":
        trajs = run_trials(problems, schedules, MIX, rc, range(trials))
    else:
        trajs = run_baseline_trials(problems, schedules, rc, algorithm, range(trials))
    total = np.zeros(HORIZON + 1)
    for traj in trajs:
        total += traj.residuals
    return total / trials


def log_linear_fit(curve, start, stop):
    ys = np.log10(curve[start:stop])
    xs = np.arange(ys.size, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    r2 = 1.0 - np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2)
    return slope, r2


@pytest.fixture(scope="session")
def flagship_curves():
    problem = flagship_problem()
    t0 = time.perf_counter()
    main_curve = mean_curve(problem, "algorithm1", 1.1e-3)
    main_elapsed = time.perf_counter() - t0
    diging = mean_curve(problem, "push-diging", 1.2e-3)
    subgrad = mean_curve(problem, "subgradient-push", 1.0)  # fixed diminishing schedule
    return {
        "algorithm1": main_curve,
        "push-diging": diging,
        "subgradient-push": subgrad,
        "algorithm1_elapsed": main_elapsed,
    }


@pytest.fixture(scope="session")
def desk():
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    schedule = StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)})))
    conn = certify_uniform_connectivity(schedule, horizon=10)
    consts = theory.build_constants(
        c0=0.49, m=2, b_tilde=conn.b_tilde,
        l_hat=problem.l_hat, l_bar=problem.l_bar,
        mu_hat=problem.mu_hat, mu_bar=problem.mu_bar,
    )
    config = RunConfig(step_size=1e-3, horizon=consts.b0 + 60, encryption=False,
                       record_states=True, record_weights=True)
    traj = run(problem, schedule, MixingParams(c0=0.49), config)
    return problem, consts, traj


@pytest.fixture(scope="session")
def leaky_window_reports():
    """The worst-case single-neighbor window: inference plus sampled solutions
    at two sampling box sizes a decade apart."""
    problem = problem_from_instance(generate_sensor_fusion(m=3, s=1, d=1, omega=0.01, seed=23))
    sched = cli._load_schedule({"schedule": "fig5a", "activation": None, "schedule_seed": 0}, 0)
    rc = RunConfig(step_size=5e-3, horizon=12, encryption=True, seed=0, trial=0,
                   record_states=True, record_messages=True)
    traj = run(problem, sched, MixingParams(c0=0.3), rc)
    K = 11
    view = adversary.capture_view(traj.messages, adversary=2, target=1)
    truth = adversary.gradient_ground_truth(traj.x_series, problem, 1, range(1, K + 1))

    reports = {}
    for bound in (10.0, 100.0, 1000.0):
        report = adversary.infer_states_scenario_b(view, K)
        adversary.sample_gradient_solutions(report, n=1000, bound=bound, seed=0,
                                            truth=truth.reshape(-1))
        reports[bound] = report
    return reports


def test_01_linear_convergence_to_deep_accuracy(flagship_curves):
    curve = flagship_curves["algorithm1"]
    slope, r2 = log_linear_fit(curve, HORIZON // 2, HORIZON + 1)
    assert slope < 0
    assert r2 >= 0.95
    assert curve.min() <= 1e-6
    # a hundred 2000-round trials must stay interactive, not batch-scale
    assert flagship_curves["algorithm1_elapsed"] < 240.0


def test_02_stopping_iteration_counts_in_expected_band():
    problem = flagship_problem(instance_seed=7)
    reached = []
    for criterion in (0.01, 0.001, 0.0005):
        rc = RunConfig(step_size=1.1e-3, horizon=10000, stop_residual=criterion,
                       encryption=False, seed=0, trial=0)
        traj = run(problem, flagship_schedule(0), MIX, rc)
        assert traj.stopped_at is not None, f"never reached {criterion}"
        reached.append(traj.stopped_at)
    for count in reached:
        assert 10 <= count <= 300
    assert reached[0] <= reached[1] <= reached[2]


def test_03_encrypted_and_plain_runs_bit_identical():
    problem = flagship_problem()
    kwargs = dict(step_size=1.1e-3, horizon=150, seed=0, trial=0, record_states=True)
    sealed = run(problem, flagship_schedule(0), MIX, RunConfig(encryption=True, **kwargs))
    plain = run(problem, flagship_schedule(0), MIX, RunConfig(encryption=False, **kwargs))
    assert np.array_equal(sealed.residuals, plain.residuals)
    for series in ("x_series", "y_series", "w_series", "s_series"):
        for a, b in zip(getattr(sealed, series), getattr(plain, series)):
            assert np.array_equal(a, b), series


def test_04_conservation_invariants(desk):
    problem = flagship_problem()
    rc = RunConfig(step_size=1.1e-3, horizon=300, encryption=False, seed=0,
                   trial=0, record_states=True)
    traj = run(problem, flagship_schedule(0), MIX, rc)
    eta = rc.step_size
    for k in range(len(traj.x_series)):
        if k >= 1:
            assert abs(float(np.sum(traj.w_series[k])) - problem.m) <= 1e-9
        g = sum(problem.gradient(i, traj.x_series[k][i - 1]) for i in range(1, problem.m + 1))
        assert np.max(np.abs(np.sum(traj.s_series[k], axis=0) - g)) <= 1e-9
        if k >= 1:
            drift = traj.y_series[k].mean(axis=0) - (
                traj.y_series[k - 1].mean(axis=0) - eta * traj.s_series[k - 1].mean(axis=0)
            )
            assert np.max(np.abs(drift)) <= 1e-9

    # the mass floor needs a certified window; the static two-cycle has one
    _, consts, desk_traj = desk
    floor = 0.49 ** (consts.m * consts.b)
    for k in range(1, len(desk_traj.w_series)):
        assert np.min(desk_traj.w_series[k]) >= floor


def test_05_columns_stay_stochastic_and_floored():
    rng_graphs = [
        DirectedGraph(4, frozenset({(2, 1), (3, 1), (4, 2), (1, 3), (2, 4)})),
        DirectedGraph(6, frozenset((i % 6 + 1, i) for i in range(1, 7))),
        graph_at(flagship_schedule(0), 0),
    ]
    params = MixingParams(c0=0.1, k0_range=1.0)
    checked = 0
    for graph in rng_graphs:
        for trial in range(4):
            for k in range(30):
                cols = {
                    i: generate_weight_column(
                        i, graph.out_neighbors(i), k, params,
                        np.random.default_rng((trial, k, i)),
                    )
                    for i in range(1, graph.m + 1)
                }
                a = assemble_weight_matrix(cols.values(), graph.m)
                assert np.max(np.abs(a.sum(axis=0) - 1.0)) <= 1e-12
                if k >= 1:
                    nz = a[np.abs(a) > 0]
                    assert np.min(nz) >= params.c0
                checked += graph.m
    assert checked >= 1000


def test_06_mixing_window_contracts_disagreement(desk):
    _, consts, traj = desk
    t0 = time.perf_counter()
    report = theory.verify_contraction(traj, consts.b0, consts.varepsilon, trials=100)
    elapsed = time.perf_counter() - t0
    assert report.trials == 100
    assert report.max_ratio <= float(consts.varepsilon)
    assert report.consensus_residual <= 1e-9
    assert elapsed < 1.0


def test_07_small_gain_certificate_feasible_and_matched_by_runs(desk):
    problem, consts, traj = desk
    cert = theory.theorem1_certificate(consts)
    import mpmath as mp

    assert consts.varepsilon < 1
    lower_root = consts.varepsilon ** (mp.mpf(1) / consts.b0)
    assert lower_root < cert.theta0 < 1
    lo, hi = cert.interval_at_theta0
    assert float(lo) <= float(hi) * (1 + 1e-6)
    assert cert.gains is not None and float(cert.gains.product) < 1
    assert cert.feasible

    report = theory.verify_lemma_inequalities(traj, problem, consts, cert.theta_used)
    assert len(report.checks) == 4
    assert not any(c.skipped for c in report.checks)
    assert report.all_hold


def test_08_single_neighbor_window_keeps_gradients_unidentifiable(leaky_window_reports):
    near = leaky_window_reports[10.0]
    assert near.dof == near.dim == 1
    assert near.distances.shape == (1000,)
    assert near.distance_stats["min"] > 0.1

    # candidate gradients get arbitrarily wrong as the sampling box widens:
    # past the fixed offset of the box-10 regime, the worst case scales with
    # the box, so a decade of box buys well over 5x of maximum distance
    maxima = {b: leaky_window_reports[b].distance_stats["max"] for b in (10.0, 100.0, 1000.0)}
    assert maxima[10.0] < maxima[100.0] < maxima[1000.0]
    assert maxima[1000.0] >= 5 * maxima[100.0]


def test_09_failure_topologies_reproduce_gradients_exactly():
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=1, d=1, omega=0.01, seed=23))
    schedule = StaticSchedule(DirectedGraph(2, frozenset({(2, 1)})))
    K = 11
    kwargs = dict(step_size=5e-3, horizon=12, encryption=True, seed=0, trial=0,
                  record_states=True, record_messages=True)

    traj = run(problem, schedule, MixingParams(c0=0.3), RunConfig(**kwargs))
    view = adversary.capture_view(traj.messages, 2, 1)
    report = adversary.infer_scenario_c(view, K)
    truth = adversary.gradient_ground_truth(traj.x_series, problem, 1, range(1, K + 1))
    err = cli._recovery_error(report.recovered_series("g"), truth, range(1, K + 1))
    assert err <= 1e-8

    base = run_baseline(problem, schedule, RunConfig(**kwargs), "push-diging")
    view = adversary.capture_view(base.messages, 2, 1)
    report = adversary.attack_fixed_weight_baseline(view, out_degree=1, K=K)
    truth = adversary.gradient_ground_truth(base.x_series, problem, 1, range(K + 1))
    err = cli._recovery_error(report.recovered_series("g"), truth, range(K + 1))
    assert err <= 1e-8


def test_10_wiretapped_traffic_reveals_nothing():
    problem = flagship_problem()
    rc = RunConfig(step_size=1.1e-3, horizon=50, encryption=True, seed=0,
                   trial=0, record_messages=True)
    traj = run(problem, flagship_schedule(0), MIX, rc)
    assert len(traj.messages) >= 1000

    report = adversary.eavesdropper_report(traj.messages)
    assert report.substring_hits == 0
    assert report.windows_checked > 10000

    # identical payloads sealed twice never repeat on the wire
    from cipheropt.channel import NonceCounter, PlainPayload, encrypt

    key = SharedKey.from_seed(0)
    ctr = NonceCounter(3)
    payload = PlainPayload(sender=3, receiver=1, k=9, kind="W", data=(0.125,))
    first = encrypt(key, payload, ctr).to_bytes()
    second = encrypt(key, payload, ctr).to_bytes()
    assert first != second
    assert decrypt(key, CipherEnvelope.from_bytes(first)).data == payload.data
    assert decrypt(key, CipherEnvelope.from_bytes(second)).data == payload.data

    # a flipped ciphertext bit and a rewritten routing header both fail closed
    wire = bytearray(traj.messages[0].cipher)
    wire[-5] ^= 0x10
    with pytest.raises(TamperError):
        decrypt(key, CipherEnvelope.from_bytes(bytes(wire)))
    rerouted = bytearray(traj.messages[0].cipher)
    rerouted[9] ^= 0x01  # receiver field of the clear header
    with pytest.raises(TamperError):
        decrypt(key, CipherEnvelope.from_bytes(bytes(rerouted)))


def test_11_baselines_bracket_the_algorithm(flagship_curves):
    diging = flagship_curves["push-diging"]
    slope, r2 = log_linear_fit(diging, HORIZON // 2, HORIZON + 1)
    assert slope < 0 and r2 >= 0.95

    ratio = flagship_curves["subgradient-push"][-1] / flagship_curves["algorithm1"][-1]
    assert ratio >= 100.0

    # sealing the channel may cost time but never iterations
    problem = flagship_problem(instance_seed=7)
    counts = {}
    elapsed = {}
    for enc in (True, False):
        rc = RunConfig(step_size=1.1e-3, horizon=10000, stop_residual=0.01,
                       encryption=enc, seed=0, trial=0)
        traj = run(problem, flagship_schedule(0), MIX, rc)
        counts[enc] = traj.stopped_at
        elapsed[enc] = traj.elapsed
    assert counts[True] == counts[False] is not None
    per_iteration_overhead = (elapsed[True] - elapsed[False]) / counts[True]
    assert math.isfinite(per_iteration_overhead)
    assert elapsed[True] > 0 and elapsed[False] > 0


def test_12_geometric_sum_bound_has_no_violations():
    rng = np.random.default_rng(12)
    thetas = rng.uniform(1e-9, 1.0 - 1e-12, size=10_000)
    windows = rng.integers(1, 10**6, size=10_000)
    violations = sum(
        0 if theory.check_theta_b0(float(t), int(b)) else 1
        for t, b in zip(thetas, windows)
    )
    assert violations == 0
