import dataclasses
import hashlib
import json
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt import adversary, theory
from cipheropt.cli import main
from cipheropt.engine import RunConfig, run
from cipheropt.graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    ScriptedSchedule,
    StaticSchedule,
    certify_uniform_connectivity,
    save_graph_file,
)
from cipheropt.mixing import MixingParams
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance
from cipheropt.theory import (
    ConstantsError,
    build_constants,
    check_theta_b0,
    contraction_params,
    eta_interval,
    format_certificate,
    format_lemma_report,
    gain_precondition_failures,
    r_weighted_norm,
    theorem1_certificate,
    trajectory_series,
    verify_contraction,
    verify_lemma_inequalities,
    working_precision,
)

TWO_CYCLE = StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)})))


# The decay ladder and the theta-weighted norms written one formula and one
# sequence per function, apart from `contraction_params` and `_theta_weighted`:
# the oracle those are checked against.

def _sigma(c0: mp.mpf, m: int, b: int) -> mp.mpf:
    return c0 ** (2 + m * b)


def _epsilon(sigma: mp.mpf, m: int, b: int) -> mp.mpf:
    smb = sigma ** (m * b)
    return 2 * m * (1 + 1 / smb) / (1 - smb)


def _varepsilon(epsilon: mp.mpf, sigma: mp.mpf, m: int, b: int, b0) -> mp.mpf:
    smb = sigma ** (m * b)
    return epsilon * (1 - smb) ** (mp.mpf(b0 - 1) / (m * b))


def required_b0(c0, m: int, b: int) -> int:
    """Smallest window count whose contraction factor drops below one."""
    if not 0 < c0 < 1.0 / m:
        raise ConstantsError(f"c0={c0} outside (0, 1/m) for m={m}")
    with mp.workdps(working_precision(float(c0), m, b)):
        sigma = _sigma(mp.mpf(c0), m, b)
        epsilon = _epsilon(sigma, m, b)
        smb = sigma ** (m * b)
        threshold = 1 + m * b * mp.log(epsilon) / (-mp.log(1 - smb))
        b0 = max(b, int(mp.floor(threshold)) + 1)
        while _varepsilon(epsilon, sigma, m, b, b0) >= 1:
            b0 += 1
        while b0 > b and _varepsilon(epsilon, sigma, m, b, b0 - 1) < 1:
            b0 -= 1
        return b0


def _theta_max(norms: np.ndarray, theta: mp.mpf, K: int) -> mp.mpf:
    best = mp.mpf(0)
    acc = mp.mpf(1)
    inv = 1 / theta
    for k in range(1, K + 1):
        acc *= inv
        term = acc * mp.mpf(float(norms[k]))
        if term > best:
            best = term
    return best


def _theta_prefix_sum(norms: np.ndarray, theta: mp.mpf, b0: int) -> mp.mpf:
    total = mp.mpf(0)
    acc = mp.mpf(1)
    inv = 1 / theta
    for i in range(1, b0 + 1):
        acc *= inv
        total += acc * mp.mpf(float(norms[i]))
    return total


@pytest.fixture(scope="module")
def desk():
    """A two-agent problem small enough that every bound can be evaluated
    and a full contraction window fits in a one-second run."""
    problem = problem_from_instance(generate_sensor_fusion(m=2, s=2, d=2, omega=0.01, seed=3))
    conn = certify_uniform_connectivity(TWO_CYCLE, horizon=10)
    consts = build_constants(
        c0=0.49, m=2, b_tilde=conn.b_tilde,
        l_hat=problem.l_hat, l_bar=problem.l_bar,
        mu_hat=problem.mu_hat, mu_bar=problem.mu_bar,
    )
    return problem, consts


@pytest.fixture(scope="module")
def desk_run(desk):
    problem, consts = desk
    config = RunConfig(step_size=1e-3, horizon=consts.b0 + 60, encryption=False,
                       record_states=True, record_weights=True)
    return run(problem, TWO_CYCLE, MixingParams(c0=0.49), config)


class TestDecayLadder:
    def test_sigma_and_epsilon_match_exact_rationals(self):
        # c0 = 1/4, m = 3, B = 1: every quantity is rational
        _, sigma, epsilon, _ = contraction_params(0.25, 3, 1)
        assert float(sigma) == 0.25**5
        q = 2**30  # 1/sigma^3
        exact = Fraction(6 * (q + 1) * q, q - 1)  # 2m(1 + 1/sigma^3)/(1 - sigma^3)
        assert float(epsilon) == pytest.approx(float(exact), rel=1e-12)

    def test_contraction_factor_shrinks_with_more_windows(self):
        *_, v1 = contraction_params(0.49, 2, 1, 4267)
        *_, v2 = contraction_params(0.49, 2, 1, 8000)
        assert float(v2) < float(v1) < 1

    def test_required_b0_sits_on_the_boundary(self):
        b0 = contraction_params(0.49, 2, 1)[0]
        assert contraction_params(0.49, 2, 1, b0)[3] < 1
        with pytest.raises(ConstantsError, match="B0 too small"):
            contraction_params(0.49, 2, 1, b0 - 1)

    def test_parameter_validation(self):
        with pytest.raises(ConstantsError):
            contraction_params(0.6, 2, 1, 100)  # c0 >= 1/m
        with pytest.raises(ConstantsError):
            contraction_params(0.2, 2, 1, 0)  # b0 < b
        with pytest.raises(ConstantsError):
            contraction_params(1.5, 2, 1)
        with pytest.raises(ConstantsError, match="b >= 1"):
            contraction_params(0.2, 2, 0)

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 4), b=st.integers(1, 3), data=st.data())
    def test_ladder_equals_the_oracle(self, m, b, data):
        c0 = data.draw(st.floats(min_value=0.02, max_value=1.0 / m, exclude_max=True))
        extra = data.draw(st.none() | st.integers(-3, 10**4))
        b0 = required_b0(c0, m, b) + (extra or 0)
        with mp.workdps(working_precision(c0, m, b)):
            sigma = _sigma(mp.mpf(c0), m, b)
            epsilon = _epsilon(sigma, m, b)
            want = (b0, sigma, epsilon, _varepsilon(epsilon, sigma, m, b, b0))
        if b0 < b or want[3] >= 1:
            # past the oracle's smallest B0 the factor can round back to one
            # once B0 has more digits than the working precision resolves
            with pytest.raises(ConstantsError):
                contraction_params(c0, m, b, b0)
        else:
            assert contraction_params(c0, m, b, None if extra is None else b0) == want

    def test_working_precision_grows_with_scale(self):
        assert working_precision(0.49, 2, 1) >= 60
        assert working_precision(0.05, 6, 7) > working_precision(0.05, 6, 1)


class TestConstants:
    def test_window_length_derived_from_tilde(self, desk):
        _, consts = desk
        assert consts.b == 2 * consts.b_tilde - 1
        assert consts.b0 == contraction_params(0.49, 2, consts.b)[0]

    def test_explicit_window_count_respected(self, desk):
        problem, consts = desk
        bigger = build_constants(
            c0=0.49, m=2, b_tilde=1,
            l_hat=problem.l_hat, l_bar=problem.l_bar,
            mu_hat=problem.mu_hat, mu_bar=problem.mu_bar,
            b0=consts.b0 + 500,
        )
        assert bigger.b0 == consts.b0 + 500
        assert float(bigger.varepsilon) < float(consts.varepsilon)

    def test_aggregates(self, desk):
        problem, consts = desk
        assert float(consts.kappa) == pytest.approx(problem.l_hat / problem.mu_bar, rel=1e-12)
        assert float(consts.w_inv_max_bound) == pytest.approx(0.49 ** -2, rel=1e-12)

    def test_curvature_validation(self, desk):
        problem, _ = desk
        with pytest.raises(ConstantsError):
            build_constants(0.49, 2, 1, problem.l_hat, problem.l_bar, problem.mu_hat, 0.0)
        with pytest.raises(ConstantsError):
            build_constants(0.49, 2, 1, problem.l_hat, problem.l_bar,
                            problem.mu_hat, problem.mu_bar, alpha=-1.0)

    @pytest.mark.parametrize("weights", [
        {"alpha": float("nan")}, {"beta": float("nan")}, {"alpha": float("inf")},
        {"beta": -float("inf")},
        *({name: value} for name in ("l_hat", "l_bar", "mu_hat", "mu_bar")
          for value in (float("nan"), float("inf"), -float("inf"), 0.0, -1.0)),
        *({name: value} for name in ("m", "b_tilde") for value in (1.5, True, 0)),
        {"b0": 2.5}])
    def test_non_finite_alpha_or_beta_rejected(self, desk, weights):
        problem, _ = desk
        ((name, value),) = weights.items()
        counts = ("m", "b_tilde", "b0")
        kind = "a whole number of at least 1" if name in counts else "positive and finite"
        given = {"c0": 0.49, "m": 2, "b_tilde": 1, "l_hat": problem.l_hat, "l_bar": problem.l_bar,
                 "mu_hat": problem.mu_hat, "mu_bar": problem.mu_bar, **weights}
        with pytest.raises(ConstantsError, match=rf"^{name} must be {kind}, got {value!r}$"):
            build_constants(**given)


class TestCertificate:
    def test_all_preconditions_pass(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        assert cert.feasible
        assert cert.preconditions["gain product below one"]
        assert cert.notes == []
        assert float(cert.gains.product) < 1

    def test_critical_rate_sits_below_one_by_a_computable_margin(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        gap = 1 - cert.theta0
        assert gap > 0
        assert float(mp.log10(gap)) == pytest.approx(-27.4, abs=1.0)

    def test_interval_is_tangent_at_the_critical_rate(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        lo, hi = cert.interval_at_theta0
        assert abs(float(lo / hi) - 1) < 1e-6
        assert cert.eta_star <= cert.eta_upper

    def test_formatted_report_carries_the_checks(self, desk):
        _, consts = desk
        text = format_certificate(theorem1_certificate(consts))
        assert text.count("check [pass]") == 6
        assert "FAIL" not in text
        assert "one minus theta0:" in text
        assert "C2:" in text

    def test_step_ceiling_is_conservative(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        assert float(cert.eta_upper) < 1e-20  # far below any usable step


RING3 = StaticSchedule(DirectedGraph(3, frozenset({(1, 2), (2, 3), (3, 1)})))
HALVES3 = ScriptedSchedule([DirectedGraph(3, frozenset({(1, 2), (2, 3)})),
                            DirectedGraph(3, frozenset({(3, 1)}))], mode="cycle")


class TestCertificateBytes:
    """Certificate text pinned byte for byte: the constants behind it must
    not move a digit when their derivation is restructured."""

    def test_readme_two_cycle(self, tmp_path):
        save_graph_file(TWO_CYCLE, tmp_path / "twocycle.graph")
        cfg = tmp_path / "theory.json"
        cfg.write_text(json.dumps({"problem": {"m": 2, "s": 2, "d": 2, "instance_seed": 3},
                                   "schedule": str(tmp_path / "twocycle.graph"),
                                   "c0": 0.49, "horizon": 300}))
        assert main(["theory", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "theory_certificate.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "fbfba9af2884d222a29984ab532b681c51abebac2c98a86bc14ce842efbd5bc5")

    def test_default_config(self, tmp_path):
        # fig5b, m=6, b_tilde=3: B0 has 965 digits and C2 is about 7e+3885, so
        # the powers of theta are taken at about a thousand digits
        assert main(["theory", "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "theory_certificate.txt").read_bytes()
        assert hashlib.sha256(text).hexdigest() == (
            "908c6e401d9c53a3d59993a82cceb200a51d37df85ea41e08158cf7dbd605ae0")

    @pytest.mark.parametrize("schedule, seed, b_tilde, digest", [
        (RING3, 23, 1, "d8d072912f37fdeba1a594c5493b31887a40fa3e6f99d3b1a83733d1b6ad7152"),
        (HALVES3, 5, 2, "9265c27bc4646afc8fc011242b0c6b7ec2d3cc6979bb7dfb5a4ce4cd76b07f38"),
    ], ids=["ring", "cycling-halves"])
    def test_three_agents(self, schedule, seed, b_tilde, digest):
        problem = problem_from_instance(generate_sensor_fusion(m=3, s=2, d=2, omega=0.01,
                                                               seed=seed))
        conn = certify_uniform_connectivity(schedule, horizon=12)
        assert conn.b_tilde == b_tilde
        consts = build_constants(c0=0.3, m=3, b_tilde=b_tilde, l_hat=problem.l_hat,
                                 l_bar=problem.l_bar, mu_hat=problem.mu_hat,
                                 mu_bar=problem.mu_bar)
        text = format_certificate(theorem1_certificate(consts))
        assert "FAIL" not in text
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGains:
    def test_violations_are_itemized(self, desk):
        _, consts = desk
        # 0.99^4267 is far below the contraction factor
        failures = gain_precondition_failures(consts, 0.99, 1e-3)
        assert any("does not exceed the contraction" in f for f in failures)

    def test_oversized_step_flagged(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        failures = gain_precondition_failures(consts, cert.theta_used, 1e6)
        assert any("exceeds" in f for f in failures)

    def test_gains_positive_at_the_critical_point(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        g = cert.gains
        for val in (g.gamma1, g.gamma2, g.gamma3, g.gamma4):
            assert float(val) > 0

    def test_interval_orientation(self, desk):
        _, consts = desk
        cert = theorem1_certificate(consts)
        lo, hi = eta_interval(consts, cert.c2, cert.theta_used)
        assert float(lo) > 0


class TestGeometricBound:
    def test_hand_value(self):
        # (1 - 0.9^10) / (1 - 0.9) = 6.513... <= 10
        assert check_theta_b0(0.9, 10)

    def test_grid(self):
        rng = np.random.default_rng(3)
        for theta in rng.uniform(1e-6, 1 - 1e-9, size=500):
            b0 = int(rng.integers(1, 10**4))
            assert check_theta_b0(float(theta), b0)

    def test_near_one_edge(self):
        assert check_theta_b0(1 - 1e-12, 10**6)

    def test_validation(self):
        with pytest.raises(ValueError):
            check_theta_b0(0.0, 5)
        with pytest.raises(ValueError):
            check_theta_b0(1.0, 5)
        for b0 in (0, 2.5):
            with pytest.raises(ValueError, match=rf"^b0 must be a whole number of at least 1, "
                                                 rf"got {b0}$"):
                check_theta_b0(0.5, b0)


class TestCenteredNorm:
    def test_antisymmetric_pair(self):
        assert r_weighted_norm(np.array([[1.0], [-1.0]])) == pytest.approx(np.sqrt(2))

    def test_consensus_is_invisible(self):
        a = np.ones((4, 3)) * 2.5
        assert r_weighted_norm(a) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((5, 2))
        shifted = a + rng.standard_normal((1, 2))
        assert r_weighted_norm(a) == pytest.approx(r_weighted_norm(shifted), rel=1e-12)


class TestContractionOnRecordedRuns:
    def test_window_contracts_disagreement(self, desk, desk_run):
        _, consts = desk
        report = verify_contraction(desk_run, consts.b0, consts.varepsilon, trials=20)
        assert report.holds
        assert report.max_ratio < 1e-10  # the bound is astronomically loose
        assert report.consensus_residual < 1e-9

    def test_explicit_rounds(self, desk, desk_run):
        _, consts = desk
        report = verify_contraction(desk_run, consts.b0, consts.varepsilon,
                                    trials=5, rounds=[consts.b0])
        assert report.rounds == [consts.b0]
        assert report.holds

    def test_explicit_rounds_reach_both_ends_of_the_run(self, desk, desk_run):
        _, consts = desk
        ends = [consts.b0 - 1, len(desk_run.weight_matrices) - 1]
        report = verify_contraction(desk_run, consts.b0, consts.varepsilon,
                                    trials=5, rounds=ends)
        assert report.rounds == ends
        assert report.holds

    @pytest.mark.parametrize("end", [-1, 1, 3, "last+1"])
    def test_rounds_ending_no_whole_window_rejected(self, desk_run, end):
        # with b0 = 5 a window ends no earlier than round 4: round 1 would
        # take its first maps from the end of the run by negative indexing
        k_max = len(desk_run.weight_matrices) - 1
        end = k_max + 1 if end == "last+1" else end
        with pytest.raises(ValueError, match=rf"^round {end} ends no window of 5 recorded "
                                             rf"rounds \(need 4 <= round <= {k_max}\)$"):
            verify_contraction(desk_run, 5, 0.9, trials=1, rounds=[end])

    @pytest.mark.parametrize("given", [{"b0": 0}, {"b0": True}, {"b0": 2.5}, {"trials": 0},
                                       {"trials": 2.5}])
    def test_bad_window_or_trial_count_rejected(self, desk_run, given):
        ((name, value),) = given.items()
        with pytest.raises(ValueError, match=rf"^{name} must be a whole number of at least 1, "
                                             rf"got {value}$"):
            verify_contraction(desk_run, **{"b0": 5, "varepsilon": 0.9, **given})

    def test_short_runs_rejected(self, desk, desk_run):
        _, consts = desk
        with pytest.raises(ValueError, match="too short"):
            verify_contraction(desk_run, len(desk_run.weight_matrices) + 5, 0.9)

    def test_unrecorded_runs_rejected(self, desk):
        problem, _ = desk
        bare = run(problem, TWO_CYCLE, MixingParams(c0=0.49),
                   RunConfig(step_size=1e-3, horizon=5, encryption=False))
        with pytest.raises(ValueError, match="recorded"):
            verify_contraction(bare, 2, 0.9)

    @pytest.mark.parametrize("field", ["weight_matrices", "w_series"])
    def test_non_finite_weights_or_masses_in_a_window_rejected(self, desk, desk_run, field):
        # max() drops a NaN ratio, so a NaN weight used to pass as a contraction
        _, consts = desk
        k = consts.b0 + 10
        values = list(getattr(desk_run, field))
        values[k] = np.full_like(values[k], np.nan)
        broken = dataclasses.replace(desk_run, **{field: values})
        with pytest.raises(ValueError, match=rf"^recorded weights or masses of round {k} are "
                                             rf"not finite$"):
            verify_contraction(broken, consts.b0, consts.varepsilon, trials=5)
        # a window that ends before round k - 1 reads neither
        assert verify_contraction(broken, consts.b0, consts.varepsilon, trials=5,
                                  rounds=[k - 2]).holds


def test_zero_round_runs_rejected_with_the_rounds_held_and_needed(desk):
    # a run that meets its stopping rule at round 0 records one state and no A(k)
    problem, consts = desk
    still = run(problem, TWO_CYCLE, MixingParams(c0=0.49),
                RunConfig(step_size=1e-3, horizon=5, encryption=False, stop_residual=2.0,
                          record_states=True, record_weights=True))
    assert (still.stopped_at, len(still.x_series), len(still.weight_matrices)) == (0, 1, 0)
    with pytest.raises(ValueError, match=rf"^trajectory too short: it holds 0 recorded rounds, "
                                         rf"need at least {consts.b0 + 1}$"):
        verify_contraction(still, consts.b0, consts.varepsilon)
    with pytest.raises(ValueError, match=r"^trajectory holds 0 recorded rounds, need at least 1$"):
        trajectory_series(still, problem)
    with pytest.raises(ValueError, match=rf"^need at least B0={consts.b0} recorded rounds for the "
                                         rf"offset sums, got K=0 of the 0 the trajectory holds$"):
        verify_lemma_inequalities(still, problem, consts, 0.99)


class TestTrajectorySeries:
    def test_distance_norms_square_to_residuals(self, desk, desk_run):
        problem, _ = desk
        r_norm = trajectory_series(desk_run, problem)[0]
        ratio = r_norm**2 / r_norm[0] ** 2
        assert np.allclose(ratio, desk_run.residuals, rtol=1e-10, atol=1e-300)

    def test_round_zero_has_no_increment(self, desk, desk_run):
        problem, _ = desk
        series = trajectory_series(desk_run, problem)
        assert series[1, 0] == 0.0
        assert series[1, 1] > 0.0
        assert series.shape == (4, desk_run.iterations + 1)

    def test_unrecorded_rejected(self, desk):
        problem, _ = desk
        bare = run(problem, TWO_CYCLE, MixingParams(c0=0.49),
                   RunConfig(step_size=1e-3, horizon=3, encryption=False))
        with pytest.raises(ValueError):
            trajectory_series(bare, problem)


# Today's round-by-round loops, kept as the oracle the stacked passes of
# `trajectory_series`, `verify_contraction` and `gradient_ground_truth` must
# equal bit for bit.
def loop_r_norm(a) -> float:
    return float(np.linalg.norm(a - a.mean(axis=0, keepdims=True)))


def loop_series(traj, problem) -> np.ndarray:
    xs, ws, ss, x_star = traj.x_series, traj.w_series, traj.s_series, traj.x_star
    grads = [problem.gradients(x) for x in xs]
    out = np.zeros((4, len(xs)))
    for k in range(len(xs)):
        out[0, k] = np.linalg.norm(xs[k] - x_star[None, :])
        if k >= 1:
            out[1, k] = np.linalg.norm(grads[k] - grads[k - 1])
            out[2, k] = loop_r_norm(ss[k] / ws[k][:, None])
            out[3, k] = loop_r_norm(xs[k])
    return out


def loop_contraction(traj, b0: int, trials: int, rounds) -> tuple:
    mats, w = traj.weight_matrices, traj.w_series
    m = mats[0].shape[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(51,)))
    max_ratio = consensus = 0.0
    for end in rounds:
        prod = np.eye(m)
        for j in range(end - b0 + 1, end + 1):
            prod = ((mats[j] * w[j][None, :]) / w[j + 1][:, None]) @ prod
        for _ in range(trials):
            d = rng.standard_normal((m, 3))
            max_ratio = max(max_ratio, loop_r_norm(prod @ d) / loop_r_norm(d))
        consensus = max(consensus, loop_r_norm(prod @ (np.ones((m, 1)) @ rng.standard_normal((1, 3)))))
    return max_ratio, consensus


M12 = DirectedGraph(12, frozenset((l, i) for l in range(1, 13) for i in range(1, 13) if l != i))


@pytest.fixture(scope="module", params=["desk", "m12-d1", "m12-d2"])
def recorded(request, desk, desk_run):
    """(problem, run, b0): the desk run, and 40 rounds of 12 agents, where
    every mean and sum has 8 or more parts, at d = 1 and d = 2."""
    if request.param == "desk":
        return desk[0], desk_run, desk[1].b0
    d = int(request.param[-1])
    problem = problem_from_instance(generate_sensor_fusion(m=12, s=3, d=d, omega=0.01, seed=891))
    config = RunConfig(step_size=1e-3, horizon=40, encryption=False, seed=7,
                       record_states=True, record_weights=True)
    return problem, run(problem, RandomActivationSchedule(M12, 0.9, seed=4),
                        MixingParams(c0=0.5 / 12), config), 3


class TestStackedPassesEqualTheLoops:
    def test_trajectory_series(self, recorded, desk):
        problem, traj, b0 = recorded
        want = loop_series(traj, problem)
        assert np.array_equal(trajectory_series(traj, problem), want)
        # the lemma's offsets b1 = v(1)/theta and b4 = 2 sqrt(m) |y_bar(1) - x*|
        consts = dataclasses.replace(desk[1], m=problem.m, b0=b0)
        report = verify_lemma_inequalities(traj, problem, consts, 1 - 1e-9)
        with mp.workdps(consts.dps):
            theta = mp.mpf(1 - 1e-9)
            y_gap = np.linalg.norm(traj.y_series[1].mean(axis=0) - traj.x_star)
            b1 = mp.mpf(float(want[1, 1])) / theta
            b4 = 2 * mp.sqrt(problem.m) * mp.mpf(float(y_gap))
        assert (report.checks[0].offset, report.checks[3].offset) == (b1, b4)

    @pytest.mark.parametrize("both_ends", [False, True], ids=["default-rounds", "both-ends"])
    def test_verify_contraction(self, recorded, both_ends):
        _, traj, b0 = recorded
        k_max = len(traj.weight_matrices) - 1
        picks = np.linspace(b0, k_max, num=min(5, k_max - b0 + 1), dtype=int)
        ends = [b0 - 1, k_max] if both_ends else sorted(set(int(v) for v in picks))
        report = verify_contraction(traj, b0, 0.5, trials=20, rounds=ends if both_ends else None)
        assert report.rounds == ends
        assert (report.max_ratio, report.consensus_residual) == loop_contraction(traj, b0, 20, ends)

    @pytest.mark.parametrize("first", [0, 1])
    def test_gradient_ground_truth(self, recorded, first):
        problem, traj, _ = recorded
        rounds = range(first, len(traj.x_series))
        for agent in range(1, problem.m + 1):
            want = np.stack([problem.gradient(agent, traj.x_series[k][agent - 1]) for k in rounds])
            assert np.array_equal(adversary.gradient_ground_truth(traj.x_series, problem, agent,
                                                                  rounds), want)


# a norm: zero, a value from a small pool (ties), near the ends of the float
# range, or any finite non-negative float
NORMS = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, 2.5, 1e-3, 5e-324, 1e-300, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=0, max_value=1e-290) | st.floats(min_value=1e290, allow_infinity=False),
    st.floats(min_value=0, allow_infinity=False),
)


@st.composite
def theta_weighted_cases(draw):
    """(norms, theta as a function of the context, K, b0, dps)."""
    K = draw(st.integers(1, 80))
    b0 = draw(st.integers(1, K))
    dps = draw(st.integers(20, 120))
    shape = draw(st.sampled_from(["any", "zeros", "geometric", "flat"]))
    if shape == "zeros":
        norms = [0.0] * (K + 1)
    elif shape == "geometric":  # with theta = 1/2, terms tie or differ in their last bits
        scale = draw(st.floats(1e-300, 1e300))
        norms = [scale * 0.5**k * (1 + draw(st.integers(-2, 2)) * 2.0**-52) for k in range(K + 1)]
    elif shape == "flat":  # terms that grow by less than a float can tell
        norms = [draw(st.floats(1e-300, 1e300))] * (K + 1)
    else:
        norms = draw(st.lists(NORMS, min_size=K + 1, max_size=K + 1))
    theta = draw(st.one_of(
        st.floats(1e-300, 1e-3).map(lambda t: lambda: mp.mpf(t)),            # near 0
        st.integers(1, 18).map(lambda j: lambda: 1 - mp.mpf(10) ** -j),       # near 1
        st.floats(690, 710).map(lambda e: lambda: mp.exp(-mp.mpf(e) / K)),  # K |log theta| near 700
        st.floats(0.01, 0.99).map(lambda t: lambda: mp.mpf(t)),
        st.just(lambda: mp.mpf(0.5)),
    ))
    if shape in ("geometric", "flat"):
        theta = draw(st.sampled_from([lambda: mp.mpf(0.5), lambda: 1 - mp.mpf(10) ** -(dps - 5)]))
    return np.array(norms), theta, K, b0, dps


class TestThetaWeighted:
    @settings(max_examples=300, deadline=None)
    @given(case=theta_weighted_cases())
    def test_screened_pass_equals_the_loops(self, case):
        norms, theta, K, b0, dps = case
        with mp.workdps(dps):
            theta = theta()
            (sup,), (total,) = theory._theta_weighted([norms], [norms], theta, K, b0)
            assert sup._mpf_ == _theta_max(norms, theta, K)._mpf_
            assert total._mpf_ == _theta_prefix_sum(norms, theta, b0)._mpf_


class TestLemmaInequalities:
    def test_all_four_hold_on_the_desk_run(self, desk, desk_run):
        problem, consts = desk
        cert = theorem1_certificate(consts)
        report = verify_lemma_inequalities(desk_run, problem, consts, cert.theta_used)
        assert len(report.checks) == 4
        assert not any(c.skipped for c in report.checks)
        assert report.all_hold

    @pytest.mark.parametrize("halfway", [False, True], ids=["theta-used", "halfway-to-one"])
    def test_norms_and_offsets_equal_the_oracle(self, desk, desk_run, halfway):
        problem, consts = desk
        theta = theorem1_certificate(consts).theta_used
        if halfway:
            with mp.workdps(2 * consts.dps):
                theta = (1 + theta) / 2
        report = verify_lemma_inequalities(desk_run, problem, consts, theta)
        series = trajectory_series(desk_run, problem)
        with mp.workdps(consts.dps):
            theta = mp.mpf(theta)
            tb0 = theta ** consts.b0
            scale = tb0 / (tb0 - consts.varepsilon)
            norms = {name: _theta_max(row, theta, series.shape[1] - 1)
                     for name, row in zip(("r", "v", "u_check", "x_check"), series)}
            offsets = [scale * _theta_prefix_sum(series[2], theta, consts.b0),
                       scale * _theta_prefix_sum(series[3], theta, consts.b0)]
        assert report.theta == theta
        assert report.norms == norms
        assert [chk.offset for chk in report.checks[1:3]] == offsets

    def test_mass_floor_respects_the_bound(self, desk, desk_run):
        problem, consts = desk
        cert = theorem1_certificate(consts)
        report = verify_lemma_inequalities(desk_run, problem, consts, cert.theta_used)
        assert report.w_inv_actual <= float(report.w_inv_bound)

    def test_aggressive_step_skips_the_floor_check(self, desk, desk_run):
        problem, consts = desk
        cert = theorem1_certificate(consts)
        cap = 1 / ((1 + float(consts.beta)) * float(consts.l_bar))
        report = verify_lemma_inequalities(desk_run, problem, consts,
                                           cert.theta_used, eta=2 * cap)
        last = report.checks[3]
        assert last.skipped and last.holds
        assert "floor condition" in last.reason

    def test_decay_rate_must_beat_contraction(self, desk, desk_run):
        problem, consts = desk
        with pytest.raises(ConstantsError, match="contraction"):
            verify_lemma_inequalities(desk_run, problem, consts, 0.5)

    @pytest.mark.parametrize("theta", [0, -0.5])
    def test_decay_rate_must_be_positive(self, desk, desk_run, theta):
        problem, consts = desk
        with pytest.raises(ConstantsError, match="^a decay rate must be positive"):
            verify_lemma_inequalities(desk_run, problem, consts, theta)
        with pytest.raises(ConstantsError, match="^a decay rate must be positive"):
            eta_interval(consts, 1, theta)

    def test_non_finite_state_rejected(self, desk, desk_run):
        # `term > best` is False for NaN, so a NaN state used to pass all four checks
        problem, consts = desk
        k = consts.b0 + 30
        xs = list(desk_run.x_series)
        xs[k] = np.full_like(xs[k], np.nan)
        broken = dataclasses.replace(desk_run, x_series=xs)
        cert = theorem1_certificate(consts)
        with pytest.raises(ValueError, match=rf"^the r norm of round {k} is not finite$"):
            verify_lemma_inequalities(broken, problem, consts, cert.theta_used)

    def test_window_shorter_than_b0_rejected(self, desk):
        problem, consts = desk
        short = run(problem, TWO_CYCLE, MixingParams(c0=0.49),
                    RunConfig(step_size=1e-3, horizon=10, encryption=False,
                              record_states=True, record_weights=True))
        cert = theorem1_certificate(consts)
        with pytest.raises(ValueError, match="B0"):
            verify_lemma_inequalities(short, problem, consts, cert.theta_used)

    def test_formatted_report_survives_huge_mantissas(self):
        # a constant carried at thousands of digits must not go through a
        # full-mantissa decimal conversion (Python caps those at 4300 digits)
        with mp.workdps(6000):
            huge = mp.mpf(7) * mp.mpf(10) ** 3885 / 3
        report = theory.LemmaReport(
            theta=huge, eta=mp.mpf("1e-3"), horizon=1, checks=[], norms={"r": huge},
            w_inv_actual=1.0, w_inv_bound=huge, gains=None, c3=huge, r_bounded_by_c3=True,
        )
        text = format_lemma_report(report)
        assert "norm r: 2.33333333333e+3885" in text
        assert "trajectory bound constant: 2.33333333333e+3885" in text

    def test_formatted_report(self, desk, desk_run):
        problem, consts = desk
        cert = theorem1_certificate(consts)
        text = format_lemma_report(
            verify_lemma_inequalities(desk_run, problem, consts, cert.theta_used)
        )
        assert text.count("lemma [pass]") == 4
        assert "norm r:" in text
        assert "mass inverse:" in text
