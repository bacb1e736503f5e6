"""Bit-level determinism contract of the round kernel.

Every digest below hashes a whole run (residuals, masses, or the exact
bytes on the wire). They were recorded once and must never be re-recorded
to make a change pass: a speedup that moves one bit of a trajectory is a
bug. The 12-agent complete digraph gives every receiver 12 parts, past the
8 from which numpy's `np.sum` switches from a sequential to a pairwise
reduction, so a kernel that sums in any other order drifts here first.
"""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cipheropt import cli
from cipheropt.channel import HEADER_SIZE, NONCE_SIZE
from cipheropt.engine import RunConfig, run, run_baseline, run_trials
from cipheropt.graphs import DirectedGraph, RandomActivationSchedule, StaticSchedule
from cipheropt.mixing import MixingParams
from cipheropt.objectives import generate_sensor_fusion, problem_from_instance

M = 12
HORIZON = 40
PARAMS = MixingParams(c0=0.5 / M)
COMPLETE = DirectedGraph(M, frozenset((l, i) for l in range(1, M + 1)
                                      for i in range(1, M + 1) if l != i))
SCHEDULES = {
    "static": StaticSchedule(COMPLETE),
    "random": RandomActivationSchedule(COMPLETE, 0.9, seed=4),
}


def problem(d):
    return problem_from_instance(generate_sensor_fusion(m=M, s=3, d=d, omega=0.01, seed=891))


def config(encryption, **kw):
    return RunConfig(step_size=1e-3, horizon=HORIZON, encryption=encryption, seed=7, trial=2,
                     record_states=True, **kw)


def digest(traj) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.residuals).tobytes())
    for w in traj.w_series:
        h.update(np.ascontiguousarray(w).tobytes())
    h.update(f"stopped_at={traj.stopped_at}".encode())
    return h.hexdigest()


def wire_digest(traj) -> str:
    h = hashlib.sha256()
    for rec in traj.messages:
        h.update(rec.plain)
        h.update(rec.cipher or b"")
    return h.hexdigest()


# (schedule, d) -> digest of the private algorithm; d=1 pins the pairwise
# sum numpy applies to a column of 8 or more parts.
ALGORITHM1 = {
    ("static", 2): "decedc728ab0e99eaffd12d1f674b71fe0bd8d0523f638460f6de279184bf2d4",
    ("random", 2): "20b5934f61b32792e073f619397b482bdae328906835283ba16052f3c9a6173a",
    ("static", 1): "f58e62159e91a0b426659d79959a8b8ba629c70870792987884cc894d68ef8d4",
    ("random", 1): "fff13297ff6f53b45b69d842ef3eabe827a5cfd2db81e51714125e51901a908b",
}
# (algorithm, schedule) -> digest, d=2
BASELINE = {
    ("push-diging", "static"):
        "c72bf9634e88e72c64ed9ae380be54d59958923d7eb72227e132a5061deb55d6",
    ("push-diging", "random"):
        "3be243e4c25fea030b1afec79d8e394922deaee2e75529211ed2d1e58dec4df5",
    ("subgradient-push", "static"):
        "552d6bc9bf950df70c55253ad151f26a65e95ea8d04bb3f0e55bf8a191b8b07e",
    ("subgradient-push", "random"):
        "00e3c01d064c0576071dc28feb870f874bb16b8c582ea53c5f026e7d141a1111",
    ("ab-push-pull", "static"):
        "a0108a5558878d0a88c2fb8450ee5c37c4f55f9e0ac7333d4f8a0861d7b3869a",
    ("ab-push-pull", "random"):
        "4e99471c888dce0fa5335f6c804610e8f4adff03208e26c42875e4985c4d7e4a",
}
# the wire bytes of trial 2 and of trial 0. Trial t's nonces count from
# t * 2^32, so trial 0 keeps the bytes of counters that start every trial at 0.
WIRE = "c76b179b84b27eceff8b51e119d70d0db24258cfbddbe81a535a9f5608bdd09a"
WIRE_TRIAL_0 = "3c238341e3f1fb95d68c3643ea4b86743b26edfe73662152aee1d8d2b1290ddd"
# step 3.0 on the random schedule: overflows to inf and then NaN within
# 120 rounds, which pins how non-finite values spread through the sums
DIVERGING = "e6df2d8abe2c66e1fcd57893e5969d516682e931c02511a160412d3f30a041ae"
# three trials on their own random schedules, 150 rounds: trials 0 and 2 stop
# at rounds 122 and 137, inside a batch's blocks of rounds, and trial 1 runs on
BATCH = "bec687615f699e5e14bf60e0938359974a658faaffad7c773a140ea6ba057502"
# `converge_algorithm1.csv` of a plain 100-trial, 130-round fig5b `converge`,
# whose batch plays blocks of 64, 64 and 2 rounds
CONVERGE_100 = "68a8eb7621d5362cdadd286aa8780d8cce127537f8012c05cb8e152c53af216d"


@pytest.mark.parametrize("encryption", [False, True], ids=["plain", "sealed"])
@pytest.mark.parametrize("key", sorted(ALGORITHM1), ids=lambda k: f"{k[0]}-d{k[1]}")
def test_private_algorithm_digest(key, encryption):
    name, d = key
    traj = run(problem(d), SCHEDULES[name], PARAMS, config(encryption))
    assert digest(traj) == ALGORITHM1[key]


@pytest.mark.parametrize("encryption", [False, True], ids=["plain", "sealed"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_push_diging_digest(schedule, encryption):
    traj = run_baseline(problem(2), SCHEDULES[schedule], config(encryption), "push-diging")
    assert digest(traj) == BASELINE[("push-diging", schedule)]


@pytest.mark.parametrize("algorithm", ["subgradient-push", "ab-push-pull"])
@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
def test_dense_baseline_digest(schedule, algorithm):
    traj = run_baseline(problem(2), SCHEDULES[schedule], config(False), algorithm)
    assert digest(traj) == BASELINE[(algorithm, schedule)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("encryption", [False, True], ids=["plain", "sealed"])
def test_diverging_run_digest(encryption):
    cfg = RunConfig(step_size=3.0, horizon=120, encryption=encryption, seed=7, trial=2,
                    record_states=True)
    traj = run(problem(2), SCHEDULES["random"], PARAMS, cfg)
    assert np.isnan(traj.residuals).any() and np.isinf(traj.residuals).any()
    assert digest(traj) == DIVERGING


@pytest.mark.parametrize("encryption", [False, True], ids=["plain", "sealed"])
def test_batch_with_trials_stopping_mid_run_digest(encryption):
    schedules = [RandomActivationSchedule(COMPLETE, 0.9, seed=4 + t) for t in range(3)]
    cfg = RunConfig(step_size=1e-3, horizon=150, stop_residual=2e-4, encryption=encryption,
                    seed=7, record_states=True)
    trajs = run_trials([problem(2)] * 3, schedules, PARAMS, cfg, [0, 1, 2])
    assert [traj.stopped_at for traj in trajs] == [122, None, 137]
    assert hashlib.sha256("".join(map(digest, trajs)).encode()).hexdigest() == BATCH


def test_hundred_trial_converge_csv_digest(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"trials": 100, "horizon": 130, "encryption": "off"}))
    assert cli.main(["converge", "--config", str(path), "--out", str(tmp_path)]) == 0
    csv = (tmp_path / "converge_algorithm1.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == CONVERGE_100


def nonces(traj) -> list:
    return [rec.cipher[HEADER_SIZE:HEADER_SIZE + NONCE_SIZE] for rec in traj.messages]


def wire_of_trial(trial):
    cfg = RunConfig(step_size=1e-3, horizon=3, encryption=True, seed=7, trial=trial,
                    record_messages=True)
    traj = run(problem(2), SCHEDULES["random"], PARAMS, cfg)
    assert len(traj.messages) == len(set(nonces(traj))) == 1065
    return wire_digest(traj)


def test_recorded_wire_bytes_digest():
    assert wire_of_trial(2) == WIRE


def test_trial_zero_wire_bytes_digest():
    assert wire_of_trial(0) == WIRE_TRIAL_0


def test_no_nonce_repeats_across_the_trials_of_a_batch():
    # the trials of a seed share its key: a repeated nonce under it would
    # leak the XOR of two plaintexts and the GHASH key (NIST SP 800-38D, 8)
    cfg = RunConfig(step_size=1e-3, horizon=3, encryption=True, seed=7, record_messages=True)
    trajs = run_trials([problem(2)] * 4, [SCHEDULES["random"]] * 4, PARAMS, cfg, range(4))
    seen = [nonce for traj in trajs for nonce in nonces(traj)]
    assert len(set(seen)) == len(seen) == 4 * 1065


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 7), s=st.integers(1, 4), d=st.integers(1, 4),
       seed=st.integers(0, 2**16), scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_batched_gradients_match_per_agent(m, s, d, seed, scale):
    prob = problem_from_instance(generate_sensor_fusion(m=m, s=s, d=d, omega=0.01, seed=seed))
    x = np.random.default_rng(seed).standard_normal((m, d)) * scale
    per_agent = np.stack([prob.gradient(i, x[i - 1]) for i in range(1, m + 1)])
    assert np.array_equal(prob.gradients(x), per_agent)
