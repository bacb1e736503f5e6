"""Experiment harness: converge / privacy / stoptime / theory subcommands.

Configuration comes from a JSON file plus a handful of flag overrides; every
artifact lands in the configured output directory as CSV or plain text.
Exit codes: 0 on success, 1 for configuration problems, 2 for runtime
failures.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import adversary, engine, graphs, objectives, theory
from .mixing import MixingParams


class ConfigError(ValueError):
    pass


ALGORITHM_NAMES = {
    "algorithm1": None,
    "push_diging": "push-diging",
    "subgradient_push": "subgradient-push",
    "ab_pushpull": "ab-push-pull",
}

# Step sizes used when the config does not pin one explicitly.
DEFAULT_STEPS = {
    "algorithm1": 1.1e-3,
    "push_diging": 1.2e-3,
    "subgradient_push": None,  # fixed diminishing schedule, step ignored
    "ab_pushpull": 1.2e-3,
}

PRIVACY_SCENARIOS = ("b", "c", "addopt")  # "all" runs each

_COMMON_DEFAULTS = {
    "problem": {"m": 6, "s": 3, "d": 2, "omega": 0.01, "instance_seed": 7},
    "schedule": "fig5b",
    "activation": None,
    "schedule_seed": 0,
    "algorithm": "algorithm1",
    "step_size": None,
    "c0": 0.1,
    "k0_range": 1.0,
    "trials": 100,
    "horizon": 2000,
    "stop": [0.01, 0.001, 0.0005],
    "seed": 0,
    "encryption": "on",
    "capture": False,
    "redraw_noise": False,
    "out": "out",
    "alpha": 1.0,
    "beta": 1.0,
    "certify_horizon": 200,
    "scenario": "all",
    "samples": 1000,
    "box": 10.0,
    "adversary": 2,
    "target": 1,
}

_SUBCOMMAND_DEFAULTS = {
    "converge": {},
    "privacy": {
        "problem": {"m": 3, "s": 1, "d": 1, "omega": 0.01, "instance_seed": 23},
        "schedule": "fig5a",
        "step_size": 5e-3,
        "c0": 0.3,
        "horizon": 12,
        "trials": 1,
        "capture": True,
    },
    "stoptime": {"horizon": 10000, "trials": 1},
    "theory": {},
}


@dataclass
class ExperimentResult:
    artifacts: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _merge(base: dict, extra: dict, origin: str) -> dict:
    out = dict(base)
    for key, value in extra.items():
        if key not in base:
            raise ConfigError(f"{origin}: unknown key {key!r}")
        if key == "problem":
            if not isinstance(value, dict):
                raise ConfigError(f"{origin}: 'problem' must be a table of keys")
            sub = dict(out["problem"])
            for pk, pv in value.items():
                if pk not in sub:
                    raise ConfigError(f"{origin}: unknown problem key {pk!r}")
                sub[pk] = pv
            out["problem"] = sub
        else:
            out[key] = value
    return out


def resolve_config(command: str, args) -> dict:
    config = _merge(_COMMON_DEFAULTS, _SUBCOMMAND_DEFAULTS[command], "defaults")
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from None
        if not isinstance(loaded, dict):
            raise ConfigError(f"{path}: top level must be an object")
        config = _merge(config, loaded, str(path))

    overrides = {key: value for key in ("seed", "trials", "out", "encryption", "algorithm")
                 if (value := getattr(args, key, None)) is not None}
    if getattr(args, "stop", None):
        try:
            overrides["stop"] = [float(v) for chunk in args.stop for v in chunk.split(",") if v]
        except ValueError as exc:
            raise ConfigError(f"--stop: {exc}") from None
    config = _merge(config, overrides, "flags")

    if config["trials"] < 1:
        raise ConfigError("trials must be at least 1")
    if config["encryption"] not in ("on", "off"):
        raise ConfigError("encryption must be 'on' or 'off'")
    if config["algorithm"] not in ALGORITHM_NAMES and config["algorithm"] != "all":
        raise ConfigError(f"unknown algorithm {config['algorithm']!r}")
    if config["scenario"] not in ("all", *PRIVACY_SCENARIOS):
        raise ConfigError(f"scenario must be 'all', 'b', 'c' or 'addopt', "
                          f"got {config['scenario']!r}")
    return config


def _resolve_step(config: dict, algorithm: str) -> float:
    if config["step_size"] is not None:
        return float(config["step_size"])
    step = DEFAULT_STEPS[algorithm]
    return 1.0 if step is None else step


def _load_schedule(config: dict, trial: int):
    name = config["schedule"]
    if name in ("fig5a", "fig5b"):
        source = resources.files("cipheropt").joinpath(f"data/{name}.graph")
        with resources.as_file(source) as path:
            sched = graphs.load_graph_file(path)
    else:
        path = Path(name)
        if not path.is_file():
            raise ConfigError(f"schedule file not found: {path}")
        try:
            sched = graphs.load_graph_file(path)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if isinstance(sched, graphs.RandomActivationSchedule):
        p = sched.p if config["activation"] is None else float(config["activation"])
        # distinct integer activation seed per trial, stable across runs
        entropy = np.random.SeedSequence(
            entropy=int(config["schedule_seed"]), spawn_key=(12, trial)
        ).generate_state(1, dtype=np.uint64)[0]
        sched = graphs.RandomActivationSchedule(sched.base, p, seed=int(entropy))
    return sched


def _instance(config: dict):
    p = config["problem"]
    return objectives.generate_sensor_fusion(
        m=p["m"], s=p["s"], d=p["d"], omega=p["omega"], seed=p["instance_seed"]
    )


def _trial_problem(config: dict, base, trial: int):
    inst = objectives.with_noise(base, seed=trial) if config["redraw_noise"] else base
    return objectives.problem_from_instance(inst)


def _mixing(config: dict) -> MixingParams:
    return MixingParams(c0=float(config["c0"]), k0_range=float(config["k0_range"]))


def _run_trials(config, problems, schedules, algorithm, run_config, trials):
    """Every trial of `trials` at once, in lockstep where the algorithm allows."""
    if algorithm == "algorithm1":
        return engine.run_trials(problems, schedules, _mixing(config), run_config, trials)
    return engine.run_baseline_trials(problems, schedules, run_config,
                                      ALGORITHM_NAMES[algorithm], trials)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def cmd_converge(config: dict) -> ExperimentResult:
    algorithms = list(ALGORITHM_NAMES) if config["algorithm"] == "all" else [config["algorithm"]]
    base = _instance(config)
    horizon = int(config["horizon"])
    out_dir = Path(config["out"])
    result = ExperimentResult()

    trials = range(int(config["trials"]))
    # one problem object unless trials redraw the noise: the kernel then
    # takes every trial's gradients in one call
    problems = ([_trial_problem(config, base, t) for t in trials] if config["redraw_noise"]
                else [_trial_problem(config, base, 0)] * len(trials))
    schedules = [_load_schedule(config, t) for t in trials]

    for algorithm in algorithms:
        rc = engine.RunConfig(
            step_size=_resolve_step(config, algorithm), horizon=horizon,
            encryption=config["encryption"] == "on", seed=int(config["seed"]),
        )
        total = np.zeros(horizon + 1)
        for traj in _run_trials(config, problems, schedules, algorithm, rc, trials):
            total += traj.residuals
        mean = total / config["trials"]
        path = out_dir / f"converge_{algorithm}.csv"
        _write_csv(path, ["iteration", "mean_residual"],
                   [(k, float(mean[k])) for k in range(horizon + 1)])
        result.artifacts.append(str(path))
        result.summary[algorithm] = float(mean[-1])
    return result


def cmd_stoptime(config: dict) -> ExperimentResult:
    if not config["stop"]:
        raise ConfigError("stoptime needs a non-empty stop criteria list")
    base = _instance(config)
    problem = _trial_problem(config, base, 0)
    algorithm = config["algorithm"] if config["algorithm"] != "all" else "algorithm1"
    step = _resolve_step(config, algorithm)
    out_dir = Path(config["out"])

    rows = []
    timing = []
    for criterion in config["stop"]:
        for enc in ("on", "off"):
            sched = _load_schedule(config, 0)
            rc = engine.RunConfig(
                step_size=step, horizon=int(config["horizon"]),
                stop_residual=float(criterion), encryption=enc == "on",
                seed=int(config["seed"]), trial=0,
            )
            (traj,) = _run_trials(config, [problem], [sched], algorithm, rc, [0])
            reached = traj.stopped_at is not None
            iterations = traj.stopped_at if reached else traj.iterations
            rows.append((float(criterion), enc, iterations, int(reached)))
            timing.append((float(criterion), enc, iterations, traj.elapsed))

    csv_path = out_dir / "stoptime.csv"
    _write_csv(csv_path, ["criterion", "encryption", "iterations", "reached"], rows)
    # Wall time is inherently run-to-run noise, so it lives outside the
    # deterministic CSV contract.
    timing_path = out_dir / "stoptime_timing.txt"
    timing_path.parent.mkdir(parents=True, exist_ok=True)
    with open(timing_path, "w") as fh:
        fh.write("criterion encryption iterations wall_seconds seconds_per_iteration\n")
        for criterion, enc, iterations, elapsed in timing:
            per = elapsed / iterations if iterations else 0.0
            fh.write(f"{criterion!r} {enc} {iterations} {elapsed:.6f} {per:.9f}\n")
    return ExperimentResult(
        artifacts=[str(csv_path), str(timing_path)],
        summary={f"{c:g}/{e}": i for c, e, i, _ in rows},
    )


def _scenario_c_schedule():
    return graphs.StaticSchedule(graphs.DirectedGraph(2, frozenset({(2, 1)})))


def cmd_privacy(config: dict) -> ExperimentResult:
    if not config["capture"]:
        raise ConfigError("privacy analysis requires capture: true")
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult()
    scenarios = PRIVACY_SCENARIOS if config["scenario"] == "all" else (config["scenario"],)
    encryption = config["encryption"] == "on"
    step = _resolve_step(config, "algorithm1")
    horizon = int(config["horizon"])
    K = horizon - 1
    adv = int(config["adversary"])
    target = int(config["target"])
    rc = engine.RunConfig(
        step_size=step, horizon=horizon, encryption=encryption,
        seed=int(config["seed"]), trial=0,
        record_states=True, record_messages=True,
    )

    if "b" in scenarios:
        base = _instance(config)
        problem = _trial_problem(config, base, 0)
        sched = _load_schedule(config, 0)
        traj = engine.run(problem, sched, _mixing(config), rc)
        view = adversary.capture_view(traj.messages, adv, target)
        report = adversary.infer_states_scenario_b(view, K)
        truth = adversary.gradient_ground_truth(traj.x_series, problem, target, range(1, K + 1))
        adversary.sample_gradient_solutions(
            report, n=int(config["samples"]), bound=float(config["box"]),
            seed=int(config["seed"]), truth=truth.reshape(-1),
        )
        path = out_dir / "privacy_scenario_b.txt"
        path.write_text(adversary.report_to_text(report))
        result.artifacts.append(str(path))
        result.summary["scenario_b_dof"] = report.dof
        result.summary["scenario_b_min_distance"] = report.distance_stats.get("min")
        dist_path = out_dir / "privacy_distances.csv"
        _write_csv(dist_path, ["sample", "distance"],
                   list(enumerate(float(v) for v in report.distances)))
        result.artifacts.append(str(dist_path))

        if encryption:
            eav = adversary.eavesdropper_report(traj.messages)
            dump = out_dir / "privacy_hexdump.txt"
            with open(dump, "w") as fh:
                fh.write(
                    f"messages: {eav.messages}\n"
                    f"plaintext windows checked: {eav.windows_checked}\n"
                    f"windows found in ciphertext: {eav.substring_hits}\n"
                    f"repeated payloads: {eav.repeated_payloads}\n"
                    f"repeats with all-distinct ciphertexts: {eav.repeated_with_distinct_ciphertext}\n\n"
                )
                fh.write(eav.hex_dump + "\n")
            result.artifacts.append(str(dump))
            result.summary["substring_hits"] = eav.substring_hits

    if "c" in scenarios or "addopt" in scenarios:
        c_config = _merge(config, {"problem": {"m": 2}}, "scenario-c")
        base = _instance(c_config)
        problem = _trial_problem(c_config, base, 0)

    if "c" in scenarios:
        traj = engine.run(problem, _scenario_c_schedule(), _mixing(c_config), rc)
        view = adversary.capture_view(traj.messages, 2, 1)
        report = adversary.infer_scenario_c(view, K)
        truth = adversary.gradient_ground_truth(traj.x_series, problem, 1, range(1, K + 1))
        err = _recovery_error(report.recovered_series("g"), truth, range(1, K + 1))
        path = out_dir / "privacy_scenario_c.txt"
        path.write_text(adversary.report_to_text(report) + f"max_relative_error: {err!r}\n")
        result.artifacts.append(str(path))
        result.summary["scenario_c_error"] = err

    if "addopt" in scenarios:
        traj = engine.run_baseline(problem, _scenario_c_schedule(), rc, "push-diging")
        view = adversary.capture_view(traj.messages, 2, 1)
        report = adversary.attack_fixed_weight_baseline(view, out_degree=1, K=K)
        truth = adversary.gradient_ground_truth(traj.x_series, problem, 1, range(0, K + 1))
        err = _recovery_error(report.recovered_series("g"), truth, range(0, K + 1))
        path = out_dir / "privacy_addopt.txt"
        path.write_text(adversary.report_to_text(report) + f"max_relative_error: {err!r}\n")
        result.artifacts.append(str(path))
        result.summary["addopt_error"] = err

    return result


def _recovery_error(recovered: dict, truth: np.ndarray, rounds) -> float:
    worst = 0.0
    for row, k in enumerate(rounds):
        true = truth[row]
        got = np.atleast_1d(np.asarray(recovered[k], dtype=float))
        scale = max(float(np.linalg.norm(true)), 1e-30)
        worst = max(worst, float(np.linalg.norm(got - true)) / scale)
    return worst


def cmd_theory(config: dict) -> ExperimentResult:
    base = _instance(config)
    problem = _trial_problem(config, base, 0)
    sched = _load_schedule(config, 0)
    connectivity = graphs.certify_uniform_connectivity(
        sched, horizon=int(config["certify_horizon"])
    )
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "theory_certificate.txt"

    if connectivity.b_tilde is None:
        path.write_text(
            "certificate: none\n"
            f"reason: no window up to {connectivity.horizon} rounds has all "
            "strongly connected unions\n"
        )
        return ExperimentResult(artifacts=[str(path)], summary={"certificate": "none"})

    consts = theory.build_constants(
        c0=float(config["c0"]), m=problem.m, b_tilde=connectivity.b_tilde,
        l_hat=problem.l_hat, l_bar=problem.l_bar,
        mu_hat=problem.mu_hat, mu_bar=problem.mu_bar,
        alpha=float(config["alpha"]), beta=float(config["beta"]),
    )
    cert = theory.theorem1_certificate(consts)
    text = theory.format_certificate(cert)
    step = _resolve_step(config, "algorithm1")
    if cert.eta_upper < step:
        text += (
            f"note: theoretical step ceiling is far below the empirical step "
            f"{step:g}; the analysis is conservative\n"
        )
    if connectivity.probabilistic:
        text += (
            f"note: window certificate is empirical over {connectivity.horizon} "
            "rounds of a randomly activated schedule\n"
        )
    path.write_text(text)
    return ExperimentResult(
        artifacts=[str(path)],
        summary={"b_tilde": connectivity.b_tilde, "feasible": cert.feasible},
    )


COMMANDS = {
    "converge": cmd_converge,
    "privacy": cmd_privacy,
    "stoptime": cmd_stoptime,
    "theory": cmd_theory,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # config problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cipheropt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="master seed")
        p.add_argument("--trials", type=int, help="number of seeded trials")
        p.add_argument("--out", help="output directory")
        p.add_argument("--encryption", choices=("on", "off"))
        p.add_argument("--algorithm",
                       choices=tuple(ALGORITHM_NAMES) + ("all",))
        p.add_argument("--stop", action="append",
                       help="stopping criterion (repeatable or comma-separated)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args.command, args)
        result = COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    for path in result.artifacts:
        print(f"wrote {path}")
    if result.summary:
        print(json.dumps(result.summary, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
