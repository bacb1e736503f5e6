"""The three benchmark workloads: flagship, sealed_wide and audit.

Each workload builds its fixed inputs in its constructor (the set-up that
`setup_s` times), runs one pass of timed operations in `run_pass`, checks
the outputs of a pass in `check` and reports its timings in `pass_metrics`,
one number per metric, taken only from operations that did not fail;
`wall_samples` gives the per-pass samples of `wall_s`. An
operation is one CLI call, one engine run, one eavesdropper scan or one
verification; it fails if it raises or if an output check on it does not
hold. Failed operations are counted and never retried.

The benchmark seed drives the run seed (weights, initial states, key) and
the activation seeds. Instance seeds are fixed: flagship 891, privacy 23
(the `cipheropt privacy` default), desk 3.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from cipheropt import adversary, cli, engine, graphs, objectives, theory
from cipheropt.mixing import MixingParams

FLAGSHIP_INSTANCE = 891
DESK_INSTANCE = 3


class WallClock:
    """Raw wall time, speed factor 1."""

    @staticmethod
    def begin():
        return time.perf_counter()

    @staticmethod
    def end(start) -> tuple:
        return time.perf_counter() - start, 1.0


# Times every operation; during timed passes the harness swaps in the
# host-speed calibration (calibration.py), whose times are at reference speed.
clock = WallClock()


@dataclass
class Op:
    """One timed operation and everything checked about it.

    `seconds` is at reference speed when `speed` (the factor applied) is
    not 1; see calibration.py.
    """

    name: str
    trial: int = 0
    seconds: float = 0.0
    speed: float = 1.0
    result: object = None
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def expect(self, ok: bool, what: str):
        if not ok:
            self.problems.append(what)


def timed(name: str, fn, *args, trial: int = 0, **kwargs) -> Op:
    op = Op(name, trial)
    mark = clock.begin()
    try:
        op.result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        op.problems.append(f"raised {type(exc).__name__}: {exc}")
    op.seconds, op.speed = clock.end(mark)
    return op


def activation_seed(seed: int, trial: int) -> int:
    """Per-trial activation seed, derived the way `cipheropt converge` derives it."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(12, trial)).generate_state(
        1, dtype=np.uint64)
    return int(state[0])


def trajectory_digest(traj) -> str:
    h = hashlib.sha256(np.ascontiguousarray(traj.residuals, dtype=np.float64).tobytes())
    h.update(f"stopped_at={traj.stopped_at}".encode())
    return h.hexdigest()


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def call_cli(argv) -> tuple:
    """Run one `cipheropt` command in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def cli_exit_ok(op: Op) -> bool:
    """True when the CLI call neither raised nor exited non-zero."""
    if not op.problems:
        op.expect(op.result[0] == 0, f"exit code {op.result[0]}")
    return not op.problems


def pass_walls(passes) -> list:
    """The wall time of each timed pass, as `wall_s` samples."""
    return [wall for _, wall, _ in passes]


def fig5b_base() -> graphs.DirectedGraph:
    source = resources.files("cipheropt").joinpath("data/fig5b.graph")
    with resources.as_file(source) as path:
        return graphs.load_graph_file(path).base


class Flagship:
    """`cipheropt converge` once per algorithm on the fig5b schedule, encryption off."""

    name = "flagship"
    ALGORITHMS = ("algorithm1", "push_diging", "subgradient_push", "ab_pushpull")

    def __init__(self, seed: int, size: str, work: Path):
        trials, horizon = (2, 1000) if size == "full" else (1, 40)
        self.rounds = trials * horizon
        self.out = work / "flagship"
        self.config = self._write_config(work / "flagship.json", seed, trials, horizon)
        warm = self._write_config(work / "flagship_warm.json", seed, 1, 3)
        for algorithm in self.ALGORITHMS:
            call_cli(["converge", "--config", warm, "--algorithm", algorithm,
                      "--out", work / "warm"])

    @staticmethod
    def _write_config(path: Path, seed, trials, horizon) -> Path:
        path.write_text(json.dumps({
            "problem": {"instance_seed": FLAGSHIP_INSTANCE},
            "seed": seed, "schedule_seed": seed,
            "trials": trials, "horizon": horizon, "encryption": "off",
        }))
        return path

    def run_pass(self, index: int) -> list:
        return [
            timed(f"converge {a}", call_cli,
                  ["converge", "--config", self.config, "--algorithm", a, "--out", self.out])
            for a in self.ALGORITHMS
        ]

    def check(self, ops):
        for algorithm, op in zip(self.ALGORITHMS, ops):
            if cli_exit_ok(op):
                name = f"converge_{algorithm}.csv"
                op.digests[f"flagship/{name}"] = file_digest(self.out / name)

    def pass_metrics(self, ops) -> dict:
        return {f"rounds_per_s.{a}": self.rounds / op.seconds
                for a, op in zip(self.ALGORITHMS, ops) if not op.problems}

    wall_samples = staticmethod(pass_walls)

    def verification(self) -> list:
        return []


class SealedWide:
    """Sealed `run()` of the private algorithm until residual <= 1e-8 on a wide digraph.

    m agents on a randomly activated (p=0.9) exponential digraph: sender i
    sends to i + 2^j mod m for every 2^j < m. At m=48 that is j = 0..5, 288 edges.
    A pass is one sealed run; pass k runs trial k mod `trials`, so a run
    covers the same trials whatever its length.
    """

    name = "sealed_wide"

    def __init__(self, seed: int, size: str, work: Path):
        m, self.trials, self.tol = (48, 5, 1e-8) if size == "full" else (12, 1, 1e-4)
        self.seed = seed
        self.problem = objectives.problem_from_instance(objectives.generate_sensor_fusion(
            m=m, s=3, d=2, omega=0.01, seed=FLAGSHIP_INSTANCE))
        self.params = MixingParams(c0=0.5 / m)
        base = exponential_digraph(m)
        self.schedules = [graphs.RandomActivationSchedule(base, 0.9, activation_seed(seed, t))
                          for t in range(self.trials)]
        # warms the cipher and key caches and every code path of a sealed round
        engine.run(self.problem, self.schedules[0], self.params,
                   engine.RunConfig(step_size=1e-3, horizon=2, seed=seed))

    def _run(self, encryption: bool, t: int) -> Op:
        return timed(f"{'sealed' if encryption else 'plain'} run trial {t}", engine.run,
                     self.problem, self.schedules[t], self.params, engine.RunConfig(
                         step_size=1e-3, horizon=1000, stop_residual=self.tol,
                         encryption=encryption, seed=self.seed, trial=t), trial=t)

    def run_pass(self, index: int) -> list:
        return [self._run(True, index % self.trials)]

    def check(self, ops):
        for op in ops:
            if op.problems:
                continue
            op.expect(op.result.stopped_at is not None, f"tolerance {self.tol:g} not reached")
            op.digests[f"sealed_wide/trial{op.trial}"] = trajectory_digest(op.result)

    def pass_metrics(self, ops) -> dict:
        (op,) = ops
        if op.problems:
            return {}
        return {"rounds_per_s.algorithm1": op.result.iterations / op.seconds,
                "time_to_tol_s": op.seconds}

    def wall_samples(self, passes) -> list:
        """Per-run wall times, each scaled to the mean stopping round of the trials.

        Trials stop at different rounds (116 to 196 at m=48 over seeds 0-9),
        so unscaled the typical pass would depend on which trials the seed
        makes short. Needs `verification` to have run: the plain runs give
        every trial's stopping round.
        """
        if not self.mean_rounds:
            return []
        return [self.mean_rounds / m["rounds_per_s.algorithm1"] for _, _, m in passes if m]

    def verification(self) -> list:
        """Untimed plain runs of every trial: sealed runs must reproduce them bit for bit."""
        ops = [self._run(False, t) for t in range(self.trials)]
        self.check(ops)
        rounds = [op.result.iterations for op in ops if not op.problems]
        self.mean_rounds = sum(rounds) / len(rounds) if rounds else 0.0
        return ops


def exponential_digraph(m: int) -> graphs.DirectedGraph:
    hops = [2**j for j in range(m.bit_length()) if 2**j < m]
    return graphs.DirectedGraph(m, frozenset(
        ((i - 1 + h) % m + 1, i) for i in range(1, m + 1) for h in hops))


class Audit:
    """The claim-checking path: privacy attacks, wiretap scan, certificate, desk checks."""

    name = "audit"
    PRIVACY_ARTIFACTS = ("privacy_scenario_b.txt", "privacy_distances.csv",
                         "privacy_scenario_c.txt", "privacy_addopt.txt", "privacy_hexdump.txt")

    def __init__(self, seed: int, size: str, work: Path):
        self.seed = seed
        self.capture_rounds = 150 if size == "full" else 20
        self.privacy_out = work / "privacy"
        self.theory_out = work / "theory"
        self.capture_problem = objectives.problem_from_instance(objectives.generate_sensor_fusion(
            m=6, s=3, d=2, omega=0.01, seed=FLAGSHIP_INSTANCE))
        self.capture_schedule = graphs.RandomActivationSchedule(
            fig5b_base(), 0.9, activation_seed(seed, 0))
        # the README's two-cycle certificate example; see NOTES.md for why not fig5b
        self.two_cycle = graphs.StaticSchedule(graphs.DirectedGraph(2, frozenset({(1, 2), (2, 1)})))
        graphs.save_graph_file(self.two_cycle, work / "twocycle.graph")
        self.theory_config = work / "theory.json"
        self.theory_config.write_text(json.dumps({
            "problem": {"m": 2, "s": 2, "d": 2, "instance_seed": DESK_INSTANCE},
            "schedule": str(work / "twocycle.graph"), "c0": 0.49, "horizon": 300,
        }))
        self.desk_problem = objectives.problem_from_instance(objectives.generate_sensor_fusion(
            m=2, s=2, d=2, omega=0.01, seed=DESK_INSTANCE))
        self.b_tilde = graphs.certify_uniform_connectivity(self.two_cycle, horizon=10).b_tilde
        warm = self._capture(5)
        adversary.eavesdropper_report(warm.messages)
        self._constants()

    def _capture(self, horizon):
        return engine.run(self.capture_problem, self.capture_schedule, MixingParams(c0=0.1),
                          engine.RunConfig(step_size=1.1e-3, horizon=horizon, encryption=True,
                                           seed=self.seed, trial=0, record_messages=True))

    def _constants(self):
        p = self.desk_problem
        return theory.build_constants(c0=0.49, m=2, b_tilde=self.b_tilde, l_hat=p.l_hat,
                                      l_bar=p.l_bar, mu_hat=p.mu_hat, mu_bar=p.mu_bar)

    def _desk_run(self):
        consts = self._constants()
        traj = engine.run(self.desk_problem, self.two_cycle, MixingParams(c0=0.49),
                          engine.RunConfig(step_size=1e-3, horizon=consts.b0 + 60,
                                           encryption=False, seed=self.seed,
                                           record_states=True, record_weights=True))
        return consts, traj

    @staticmethod
    def _contraction(desk):
        consts, traj = desk
        return theory.verify_contraction(traj, consts.b0, consts.varepsilon, trials=100)

    def _lemma(self, desk):
        consts, traj = desk
        cert = theory.theorem1_certificate(consts)
        return cert, theory.verify_lemma_inequalities(traj, self.desk_problem, consts,
                                                      cert.theta_used)

    def run_pass(self, index: int) -> list:
        privacy = timed("privacy cli", call_cli,
                        ["privacy", "--seed", self.seed, "--out", self.privacy_out])
        capture = timed("capture run", self._capture, self.capture_rounds)
        wiretap = timed("eavesdropper scan", lambda: adversary.eavesdropper_report(
            capture.result.messages))
        certificate = timed("theory cli", call_cli,
                            ["theory", "--config", self.theory_config, "--out", self.theory_out])
        desk = timed("desk run", self._desk_run)
        contraction = timed("contraction verification", self._contraction, desk.result)
        lemma = timed("lemma verification", self._lemma, desk.result)
        return [privacy, capture, wiretap, certificate, desk, contraction, lemma]

    def check(self, ops):
        privacy, capture, wiretap, certificate, desk, contraction, lemma = ops
        if cli_exit_ok(privacy):
            for name in self.PRIVACY_ARTIFACTS:
                privacy.digests[f"audit/{name}"] = file_digest(self.privacy_out / name)
        if not capture.problems:
            capture.digests["audit/capture"] = trajectory_digest(capture.result)
        if not wiretap.problems:
            eav = wiretap.result
            wiretap.expect(eav.messages == len(capture.result.messages), "message count differs")
            wiretap.expect(eav.substring_hits == 0, f"{eav.substring_hits} plaintext windows leak")
            wiretap.expect(eav.repeated_with_distinct_ciphertext == eav.repeated_payloads,
                           "a repeated payload reused a ciphertext")
        if cli_exit_ok(certificate):
            summary = json.loads(certificate.result[1].splitlines()[-1])
            certificate.expect(summary.get("feasible") is True, "certificate not feasible")
            path = self.theory_out / "theory_certificate.txt"
            certificate.expect("FAIL" not in path.read_text(), "certificate check failed")
            certificate.digests["audit/theory_certificate.txt"] = file_digest(path)
        if not desk.problems:
            desk.digests["audit/desk"] = trajectory_digest(desk.result[1])
        if not contraction.problems:
            report = contraction.result
            contraction.expect(report.holds, f"contraction ratio {report.max_ratio:.3e} too large")
            contraction.expect(report.consensus_residual <= 1e-9, "consensus not preserved")
        if not lemma.problems:
            cert, report = lemma.result
            lemma.expect(cert.feasible, "certificate not feasible")
            lemma.expect(report.all_hold and not any(c.skipped for c in report.checks),
                         "a lemma inequality failed or was skipped")

    wall_samples = staticmethod(pass_walls)

    def pass_metrics(self, ops) -> dict:
        privacy, capture, wiretap, certificate, desk, contraction, lemma = ops
        out = {}
        if not (privacy.problems or capture.problems or wiretap.problems):
            out["privacy_s"] = privacy.seconds + capture.seconds + wiretap.seconds
        if not (certificate.problems or desk.problems or contraction.problems or lemma.problems):
            out["certify_s"] = (certificate.seconds + desk.seconds + contraction.seconds
                                + lemma.seconds)
        if not (capture.problems or desk.problems):
            out["rounds_per_s.algorithm1"] = (
                (capture.result.iterations + desk.result[1].iterations)
                / (capture.seconds + desk.seconds))
        return out

    def verification(self) -> list:
        return []


WORKLOADS = {w.name: w for w in (Flagship, SealedWide, Audit)}
