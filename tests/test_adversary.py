import hashlib
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt.adversary import (
    AdversaryView,
    EavesdropperReport,
    ScenarioMismatchError,
    attack_fixed_weight_baseline,
    capture_view,
    eavesdropper_report,
    gradient_ground_truth,
    infer_scenario_a,
    infer_scenario_c,
    infer_states_scenario_b,
    report_to_text,
    sample_gradient_solutions,
)
from cipheropt.channel import (
    HEADER_SIZE,
    NONCE_SIZE,
    NonceCounter,
    PlainPayload,
    SharedKey,
    encode_payload,
    encrypt,
)
from cipheropt.cli import main
from cipheropt.engine import MessageRecord, RunConfig, run, run_baseline
from cipheropt.graphs import DirectedGraph, ScriptedSchedule, StaticSchedule
from cipheropt.mixing import MixingParams
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance

PARAMS = MixingParams(c0=0.3, k0_range=1.0)

# Agent 1 talks to agent 2 in every round; its only other contact (an
# incoming edge from 3) exists in round 0 alone. From round 1 on, agent 2
# sees a peer whose mass it can peel off round by round.
ISOLATING = ScriptedSchedule(
    [
        DirectedGraph(3, frozenset({(1, 3), (2, 1)})),
        DirectedGraph(3, frozenset({(2, 1)})),
    ],
    mode="hold",
)

# Same, but the outside contact persists through round 1.
LINGERING = ScriptedSchedule(
    [
        DirectedGraph(3, frozenset({(1, 3), (2, 1)})),
        DirectedGraph(3, frozenset({(1, 3), (2, 1)})),
        DirectedGraph(3, frozenset({(2, 1)})),
    ],
    mode="hold",
)


def make_problem(m=3, s=1, d=1, seed=23):
    return problem_from_instance(generate_sensor_fusion(m=m, s=s, d=d, omega=0.01, seed=seed))


def recorded_run(problem, schedule, horizon=12, encryption=True):
    config = RunConfig(step_size=5e-3, horizon=horizon, encryption=encryption,
                       record_states=True, record_weights=True, record_messages=True)
    return run(problem, schedule, PARAMS, config)


@pytest.fixture(scope="module")
def isolated_run():
    problem = make_problem()
    return problem, recorded_run(problem, ISOLATING)


class TestCaptureView:
    def test_collects_complete_rounds_only(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        assert np.flatnonzero(view.held).tolist() == list(range(12))
        assert view.j_y.shape == view.j_s.shape == (12, 1) and view.j_w.shape == (12,)

    def test_silent_target_gives_empty_view(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=1, target=2)
        assert np.flatnonzero(view.held).tolist() == []
        with pytest.raises(ScenarioMismatchError):
            view.require(0)

    def test_triples_are_the_scaled_sends(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        for k in (0, 1, 5):
            a = traj.weight_matrices[k][1, 0]  # weight 2 applies to 1's share
            assert view.j_w[k] == pytest.approx(a * traj.w_series[k][0], abs=0)
            assert view.j_y[k] == pytest.approx(a * traj.y_series[k][0], abs=0)


class TestScenarioB:
    K = 5

    def test_intermediate_quantities_recovered_exactly(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, self.K)
        assert report.rounds == tuple(range(1, self.K + 1))
        for row, k in enumerate(report.rounds):
            assert report.recovered["w"][row] == pytest.approx(traj.w_series[k][0], rel=1e-12)
            assert report.recovered["a"][row] == pytest.approx(traj.weight_matrices[k][1, 0], rel=1e-12)
            assert report.recovered["y"][row] == pytest.approx(traj.y_series[k][0], rel=1e-12)
            assert report.recovered["s"][row] == pytest.approx(traj.s_series[k][0], rel=1e-12)

    def test_gradient_system_is_one_short_per_dimension(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, self.K)
        assert report.gradient_matrix.shape == ((self.K - 1), self.K)
        assert report.rank == self.K - 1
        assert report.dof == 1

    def test_true_gradients_satisfy_the_system(self, isolated_run):
        problem, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, self.K)
        truth = gradient_ground_truth(traj.x_series, problem, 1, range(1, self.K + 1))
        resid = report.gradient_matrix @ truth.reshape(-1) - report.gradient_rhs
        assert np.max(np.abs(resid)) <= 1e-8

    def test_dof_scales_with_dimension(self):
        problem = make_problem(s=2, d=2)
        traj = recorded_run(problem, ISOLATING)
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, self.K)
        assert report.dim == 2
        assert report.dof == 2

    def test_short_horizon_rejected(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        with pytest.raises(ValueError):
            infer_states_scenario_b(view, 1)

    def test_missing_rounds_rejected(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        view.held[3] = False
        with pytest.raises(ScenarioMismatchError, match=r"\b3\b"):
            infer_states_scenario_b(view, self.K)


class TestScenarioA:
    def test_only_first_estimate_leaks(self):
        problem = make_problem()
        traj = recorded_run(problem, LINGERING)
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_scenario_a(view, 5)
        assert set(report.recovered) == {"x"} and report.rounds == (1,)
        assert report.recovered["x"][0] == pytest.approx(traj.x_series[1][0], rel=1e-12)

    def test_system_swamped_by_unknowns(self):
        problem = make_problem()
        traj = recorded_run(problem, LINGERING)
        view = capture_view(traj.messages, adversary=2, target=1)
        K = 5
        report = infer_scenario_a(view, K)
        assert report.gradient_matrix.shape == ((K - 1), 2 * K)
        assert report.dof == K + 1


@pytest.fixture(scope="module")
def pair_run():
    problem = make_problem(m=2, s=1, d=1, seed=5)
    schedule = StaticSchedule(DirectedGraph(2, frozenset({(2, 1)})))
    traj = recorded_run(problem, schedule, horizon=10)
    return problem, traj


@pytest.fixture(scope="module")
def baseline_run():
    problem = make_problem(m=2, s=1, d=1, seed=5)
    schedule = StaticSchedule(DirectedGraph(2, frozenset({(2, 1)})))
    config = RunConfig(step_size=5e-3, horizon=10, encryption=True,
                       record_states=True, record_messages=True)
    traj = run_baseline(problem, schedule, config, "push-diging")
    return problem, traj


@pytest.fixture(scope="module")
def sampled_report(isolated_run):
    problem, traj = isolated_run
    view = capture_view(traj.messages, adversary=2, target=1)
    report = infer_states_scenario_b(view, 5)
    truth = gradient_ground_truth(traj.x_series, problem, 1, range(1, 6))
    return report, truth


class TestScenarioC:
    def test_every_gradient_recovered(self, pair_run):
        problem, traj = pair_run
        view = capture_view(traj.messages, adversary=2, target=1)
        K = 8
        report = infer_scenario_c(view, K)
        assert report.dof == 0
        truth = gradient_ground_truth(traj.x_series, problem, 1, range(1, K + 1))
        assert report.rounds == tuple(range(1, K + 1))
        for row in range(K):
            err = np.abs(report.recovered["g"][row] - truth[row])
            assert np.max(err) <= 1e-8 * (1.0 + np.max(np.abs(truth[row])))

    def test_single_round_variant(self, pair_run):
        _, traj = pair_run
        view = capture_view(traj.messages, adversary=2, target=1)
        full = infer_scenario_c(view, 4)
        short = infer_scenario_c(view, 1)
        assert set(short.recovered) == set(full.recovered)
        assert short.rounds == (1,)
        for name, values in short.recovered.items():
            assert len(values) == 1, name
            assert values[0].tobytes() == full.recovered[name][0].tobytes()


# The round-by-round loops over Python floats that the sliced and cumsummed
# attacks replaced, kept as the oracle they must equal bit for bit.
def loop_unit_mass(view, K):
    w = {1: 1.0}
    for k in range(1, K):
        w[k + 1] = w[k] - float(view.j_w[k])
    a = {k: float(view.j_w[k]) / w[k] for k in range(1, K + 1)}
    y = {k: view.j_y[k] / a[k] for k in range(1, K + 1)}
    s = {k: view.j_s[k] / a[k] for k in range(1, K + 1)}
    c = {k: s[k + 1] - s[k] + view.j_s[k] for k in range(1, K)}
    g = {1: s[1] + view.j_s[0]}
    for k in range(1, K):
        g[k + 1] = g[k] + c[k]
    return {"w": w, "a": a, "y": y, "s": s, "g": g}, c


def loop_fixed_weight(view, share, K):
    got = {name: {k: getattr(view, f"j_{name}")[k] / share for k in range(K + 1)}
           for name in ("w", "y", "s")}
    w, s = got["w"], got["s"]
    residual = abs(w[0] - 1.0)
    for k in range(K):
        residual = max(residual, abs(w[k + 1] - (w[k] - float(view.j_w[k]))))
    got["g"] = {0: s[0]}
    for k in range(K):
        got["g"][k + 1] = got["g"][k] + s[k + 1] - s[k] + view.j_s[k]
    return got, residual


def same_bits(report, loops):
    for name, series in report.recovered.items():
        want = np.array([loops[name][k] for k in report.rounds])
        assert series.tobytes() == want.tobytes(), name


class TestAttacksEqualTheLoops:
    @pytest.mark.parametrize("K", [2, 5, 11])
    def test_scenario_b(self, isolated_run, K):
        view = capture_view(isolated_run[1].messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, K)
        loops, c = loop_unit_mass(view, K)
        same_bits(report, loops)
        assert report.gradient_rhs.tobytes() == np.concatenate([c[k] for k in range(1, K)]).tobytes()

    @pytest.mark.parametrize("K", [1, 4, 9])
    def test_scenario_c(self, pair_run, K):
        view = capture_view(pair_run[1].messages, adversary=2, target=1)
        same_bits(infer_scenario_c(view, K), loop_unit_mass(view, K)[0])

    @pytest.mark.parametrize("out_degree, K", [(1, 0), (1, 9), (2, 7)])
    def test_fixed_weight(self, baseline_run, out_degree, K):
        view = capture_view(baseline_run[1].messages, adversary=2, target=1)
        report = attack_fixed_weight_baseline(view, out_degree, K)
        loops, residual = loop_fixed_weight(view, 1.0 / (out_degree + 1), K)
        same_bits(report, loops)
        assert report.consistency_residual == residual


def test_a_zero_recovered_mass_warns():
    # the target ships all its mass in round 1, so round 2's weight divides by zero
    ones = np.ones((3, 1))
    view = AdversaryView(2, 1, ones, ones, np.array([0.5, 1.0, 0.5]), np.ones(3, dtype=bool))
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        report = infer_scenario_c(view, 2)
    assert report.recovered["w"].tolist() == [1.0, 0.0] and report.recovered["a"][1] == np.inf


class TestFixedWeightAttack:
    def test_published_weights_leak_everything(self, baseline_run):
        problem, traj = baseline_run
        view = capture_view(traj.messages, adversary=2, target=1)
        K = 8
        report = attack_fixed_weight_baseline(view, out_degree=1, K=K)
        assert report.consistency_residual <= 1e-10
        truth = gradient_ground_truth(traj.x_series, problem, 1, range(K + 1))
        for k in range(K + 1):
            err = np.abs(report.recovered["g"][k] - truth[k])
            assert np.max(err) <= 1e-8 * (1.0 + np.max(np.abs(truth[k])))

    def test_wrong_weight_guess_flagged(self, baseline_run):
        _, traj = baseline_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = attack_fixed_weight_baseline(view, out_degree=2, K=8)
        assert report.consistency_residual > 0.1

    def test_a_nan_mass_is_no_consistent_guess(self):
        # halving masses with one NaN after round 0: a max over Python floats drops the
        # NaN and reads 0.0, the residual of a perfect weight guess
        ones = np.ones((4, 1))
        view = AdversaryView(2, 1, ones, ones, np.array([0.5, 0.25, np.nan, 0.1]),
                             np.ones(4, dtype=bool))
        report = attack_fixed_weight_baseline(view, out_degree=1, K=3)
        assert math.isnan(report.consistency_residual)

    def test_random_weight_run_fails_consistency(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = attack_fixed_weight_baseline(view, out_degree=1, K=8)
        assert report.consistency_residual > 0.1


class TestSolutionSampling:
    def test_samples_solve_the_system(self, sampled_report):
        report, _ = sampled_report
        sample_gradient_solutions(report, 200, bound=10.0, seed=1)
        resid = report.samples @ report.gradient_matrix.T - report.gradient_rhs[None, :]
        assert np.max(np.abs(resid)) <= 1e-8

    @pytest.mark.parametrize("n", [0, -3, 2.5, True])
    def test_no_samples_rejected(self, sampled_report, n):
        report, _ = sampled_report
        with pytest.raises(ValueError, match=rf"^n must be a whole number of at least 1, got {n}$"):
            sample_gradient_solutions(report, n, bound=10.0, seed=1)

    def test_sample_spread_spans_the_free_direction(self, sampled_report):
        report, _ = sampled_report
        sample_gradient_solutions(report, 200, bound=10.0, seed=1)
        spread = report.samples - report.samples[0]
        # with one degree of freedom every difference is a constant shift
        for row in spread[1:]:
            assert np.max(np.abs(row - row[0])) <= 1e-9

    def test_distances_reported_against_truth(self, sampled_report):
        report, truth = sampled_report
        sample_gradient_solutions(report, 500, bound=10.0, seed=1, truth=truth)
        assert report.distances.shape == (500,)
        assert set(report.distance_stats) == {"min", "max", "mean", "var"}
        assert report.distance_stats["min"] >= 0.0
        assert report.distance_stats["max"] >= report.distance_stats["mean"]

    def test_wider_box_reaches_farther(self, sampled_report):
        report, truth = sampled_report
        near = sample_gradient_solutions(report, 500, bound=10.0, seed=1, truth=truth)
        far_max = sample_gradient_solutions(report, 500, bound=100.0, seed=1, truth=truth)
        assert far_max.distance_stats["max"] > 5 * near.distance_stats["max"] or \
            far_max.distance_stats["max"] == near.distance_stats["max"]

    def test_sampling_deterministic_in_seed(self, sampled_report):
        report, _ = sampled_report
        a = sample_gradient_solutions(report, 50, bound=10.0, seed=7).samples.copy()
        b = sample_gradient_solutions(report, 50, bound=10.0, seed=7).samples
        assert np.array_equal(a, b)

    def test_unique_system_rejected(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_scenario_c(view, 4)
        with pytest.raises(ValueError):
            sample_gradient_solutions(report, 10)

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_box_bound_must_be_positive_and_finite(self, sampled_report, bound):
        report, _ = sampled_report
        with pytest.raises(ValueError, match="^bound must be positive and finite"):
            sample_gradient_solutions(report, 10, bound=bound)

    def test_box_must_have_a_finite_width(self, sampled_report):
        report, _ = sampled_report
        with pytest.raises(ValueError, match=r"^bound must leave \[-bound, bound\] a finite width"):
            sample_gradient_solutions(report, 10, bound=1e308)
        widest = sample_gradient_solutions(report, 10, bound=np.finfo(float).max / 2)
        assert np.abs(widest.samples).max() > 1e300

    def test_truth_length_checked(self, sampled_report):
        report, _ = sampled_report
        with pytest.raises(ValueError, match="truth"):
            sample_gradient_solutions(report, 10, truth=np.zeros(3))


class TestEavesdropper:
    def test_plain_run_rejected(self):
        problem = make_problem(m=2, s=1, d=1, seed=5)
        schedule = StaticSchedule(DirectedGraph(2, frozenset({(2, 1)})))
        traj = recorded_run(problem, schedule, horizon=2, encryption=False)
        with pytest.raises(ValueError, match="encryption was off"):
            eavesdropper_report(traj.messages)

    def test_no_plaintext_window_survives(self, isolated_run):
        _, traj = isolated_run
        report = eavesdropper_report(traj.messages)
        assert isinstance(report, EavesdropperReport)
        assert report.messages == len(traj.messages)
        assert report.windows_checked > 0
        assert report.substring_hits == 0

    def test_repeated_payload_gets_fresh_ciphertext(self):
        key = SharedKey.from_seed(9)
        ctr = NonceCounter(1)
        payload = PlainPayload(sender=1, receiver=2, k=0, kind="W", data=(0.25,))
        records = []
        for _ in range(3):
            env = encrypt(key, payload, ctr.next())
            records.append(MessageRecord(0, 1, 2, "W", payload.data,
                                         encode_payload(payload), env.to_bytes()))
        report = eavesdropper_report(records)
        assert report.repeated_payloads == 1
        assert report.repeated_with_distinct_ciphertext == 1

    @settings(max_examples=100, deadline=None)
    @given(sent=st.lists(st.tuples(st.sampled_from([b"a", b"b", b"c"]),
                                   st.sampled_from([b"x", b"y", b"z"])), min_size=1, max_size=10))
    def test_repeat_counts_are_the_count_and_set_oracle(self, sent):
        """Payloads and sealed blobs from three values each, so payloads repeat and
        some repeats reuse a blob."""
        messages = [MessageRecord(0, 1, 2, "Y", (), bytes(HEADER_SIZE) + payload,
                                  bytes(HEADER_SIZE + NONCE_SIZE) + blob) for payload, blob in sent]
        counts = Counter(payload for payload, _ in sent)
        blobs = {payload: {blob for p, blob in sent if p == payload} for payload in counts}
        repeated = [payload for payload, n in counts.items() if n >= 2]
        report = eavesdropper_report(messages)
        assert report.repeated_payloads == len(repeated)
        assert report.repeated_with_distinct_ciphertext == sum(
            len(blobs[payload]) == counts[payload] for payload in repeated)

    def test_hex_dump_present(self, isolated_run):
        _, traj = isolated_run
        report = eavesdropper_report(traj.messages)
        assert "k=0" in report.hex_dump
        assert report.hex_dump.count("->") == 3

    def test_empty_capture_rejected(self):
        with pytest.raises(ValueError):
            eavesdropper_report([])

    def test_scan_of_a_capture_is_the_window_set_scan(self, isolated_run):
        _, traj = isolated_run
        report = eavesdropper_report(traj.messages)
        assert (report.windows_checked, report.substring_hits) == set_scan(traj.messages)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), sizes=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)),
                                          min_size=1, max_size=12))
    def test_scan_counts_planted_windows_as_the_window_set_scan(self, data, sizes):
        """Plaintexts and sealed blobs of 0 to 24 bytes, some of them holding an
        8-byte window of a plaintext; windows must not run across two blobs."""
        records = []
        for n_plain, n_blob in sizes:
            plain = data.draw(st.binary(min_size=n_plain, max_size=n_plain))
            blob = data.draw(st.binary(min_size=n_blob, max_size=n_blob))
            records.append([plain, blob])
        for _ in range(data.draw(st.integers(0, 3))):
            source = data.draw(st.sampled_from(records))[0]
            target = data.draw(st.sampled_from(records))
            if len(source) >= 8 and len(target[1]) >= 8:
                at = data.draw(st.integers(0, len(source) - 8))
                to = data.draw(st.integers(0, len(target[1]) - 8))
                target[1] = target[1][:to] + source[at : at + 8] + target[1][to + 8 :]
        frame = bytes(HEADER_SIZE + NONCE_SIZE)
        messages = [MessageRecord(0, 1, 2, "Y", (), plain, frame + blob)
                    for plain, blob in records]
        report = eavesdropper_report(messages)
        assert (report.windows_checked, report.substring_hits) == set_scan(messages)


def set_scan(messages):
    """(windows checked, hits) of the scan over a set of every ciphertext window."""
    cipher_windows = set()
    for rec in messages:
        blob = rec.cipher[HEADER_SIZE + NONCE_SIZE :]
        cipher_windows.update(blob[off : off + 8] for off in range(len(blob) - 7))
    checked = hits = 0
    for rec in messages:
        for off in range(len(rec.plain) - 7):
            checked += 1
            hits += rec.plain[off : off + 8] in cipher_windows
    return checked, hits


class TestReportText:
    def test_text_export_lists_recovered_series(self, isolated_run):
        _, traj = isolated_run
        view = capture_view(traj.messages, adversary=2, target=1)
        report = infer_states_scenario_b(view, 3)
        text = report_to_text(report)
        assert "scenario: b" in text
        assert "dof: 1" in text
        assert "recovered w 1 1.0" in text


# The benchmark's committed digests of its audit pass; this file is only read.
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def test_privacy_artifacts_are_the_benchmark_reference(tmp_path):
    full = json.loads(REFERENCE.read_text())["full"]
    want = {key.split("/")[1]: digest for key, digest in full.items()
            if key.startswith("audit/privacy_")}
    assert len(want) == 5
    assert main(["privacy", "--seed", "0", "--out", str(tmp_path)]) == 0
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in want}
    assert got == want
