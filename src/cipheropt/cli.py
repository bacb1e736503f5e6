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
import math
import numbers
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from . import adversary, engine, graphs, objectives, theory
from .mixing import MixingParams
from .streams import STREAMS, check_positive, check_seed, check_width


class ConfigError(ValueError):
    pass


# each algorithm's baseline engine name (None: the private algorithm) and the step
# size it runs when the config does not pin one
ALGORITHMS = {
    "algorithm1": (None, 1.1e-3),
    "push_diging": ("push-diging", 1.2e-3),
    "subgradient_push": ("subgradient-push", 1.0),  # unread: its kernel takes its own steps
    "ab_pushpull": ("ab-push-pull", 1.2e-3),
}

# each privacy scenario ("all" runs each) and the shortest horizon its attack takes:
# it reads rounds 0..K, K = horizon - 1, and scenario b needs K >= 2, scenario c K >= 1
PRIVACY_SCENARIOS = {"b": 3, "c": 2, "addopt": 1}

# keys that count something: trials, rounds, samples or an agent
_COUNT_KEYS = ("trials", "horizon", "certify_horizon", "samples", "adversary", "target")

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


def _real(value) -> float:
    """A config number as a float: JSON true and false are not numbers."""
    if isinstance(value, bool):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


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

    counts = {name: config[name] for name in _COUNT_KEYS}
    counts.update({f"problem.{name}": config["problem"][name] for name in ("m", "s", "d")})
    for name, value in counts.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be a whole number, got {value!r}")
    for name in ("trials", "horizon", "certify_horizon", "samples"):
        if config[name] < 1:
            raise ConfigError(f"{name} must be at least 1")
    for name in ("seed", "schedule_seed"):
        try:
            config[name] = check_seed(name, config[name])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    for name, kind in (("capture", bool), ("redraw_noise", bool), ("schedule", str), ("out", str)):
        if not isinstance(config[name], kind):
            what = "text" if kind is str else "true or false"
            raise ConfigError(f"{name} must be {what}, got {config[name]!r}")
    if config["encryption"] not in ("on", "off"):
        raise ConfigError("encryption must be 'on' or 'off'")
    if config["algorithm"] not in (*ALGORITHMS, "all"):
        raise ConfigError(f"unknown algorithm {config['algorithm']!r}")
    if config["scenario"] not in ("all", *PRIVACY_SCENARIOS):
        raise ConfigError(f"scenario must be 'all', 'b', 'c' or 'addopt', "
                          f"got {config['scenario']!r}")
    # the numbers the runs take, put to the checks of the code that takes them; each
    # check hands back the value that code accepted, which replaces the config's own
    checks = {
        "problem": lambda v: objectives.problem_from_instance(_instance(config)) and v,  # as is
        "activation": lambda v: None if v is None else graphs.RandomActivationSchedule(
            graphs.DirectedGraph(1), _real(v), seed=0).p,
        "step_size": lambda v: None if v is None else engine.RunConfig(
            step_size=_real(v), horizon=1).step_size,
        "c0": lambda v: MixingParams(c0=_real(v)).c0,
        "k0_range": lambda v: MixingParams(c0=1.0, k0_range=_real(v)).k0_range,
        "stop": lambda v: [engine.RunConfig(step_size=1.0, horizon=1,
                                            stop_residual=_real(c)).stop_residual for c in v],
        "box": lambda v: check_width("bound", _real(v)),
        "alpha": lambda v: check_positive("alpha", _real(v)),
        "beta": lambda v: check_positive("beta", _real(v)),
    }
    for name, check in checks.items():
        try:
            config[name] = check(config[name])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{name}: {exc}") from None
    return config


def _resolve_step(config: dict, algorithm: str) -> float:
    step = config["step_size"]
    return ALGORITHMS[algorithm][1] if step is None else step


def _load_schedule(config: dict, trial: int):
    """The schedule of `trial`; a random_activation one draws from the trial's own
    seed, derived from schedule_seed, and at p = `activation` when that is set."""
    # distinct integer activation seed per trial, stable across runs
    seed = int(np.random.SeedSequence(entropy=config["schedule_seed"], spawn_key=(
        STREAMS["activation_seed"], trial)).generate_state(1, dtype=np.uint64)[0])
    name = config["schedule"]
    packaged = name in ("fig5a", "fig5b")
    source = resources.files("cipheropt") / f"data/{name}.graph" if packaged else Path(name)
    if not source.is_file():
        raise ConfigError(f"schedule file not found: {source}")
    with resources.as_file(source) as path:
        try:
            sched = graphs.load_graph_file(path, seed=seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    if config["activation"] is None:
        return sched
    if not isinstance(sched, graphs.RandomActivationSchedule):
        raise ConfigError(f"activation: applies only to a random_activation schedule, "
                          f"and {name} is not one")
    return graphs.RandomActivationSchedule(sched.base, config["activation"], seed=seed)


def _schedule(config: dict, trial: int, rounds: str | None = None):
    """`_load_schedule`, or a ConfigError if the schedule is not over the problem's agents
    or, given the key `rounds`, plays fewer graphs than config[rounds] rounds."""
    sched, m = _load_schedule(config, trial), config["problem"]["m"]
    if sched.m != m:
        raise ConfigError(f"schedule is over {sched.m} agents but the problem has {m}")
    if rounds and sched.length is not None and sched.length < config[rounds]:
        raise ConfigError(f"{rounds} must be at most {sched.length}, the rounds the schedule "
                          f"plays, got {config[rounds]}")
    return sched


def _instance(config: dict):
    p = config["problem"]
    return objectives.generate_sensor_fusion(
        m=p["m"], s=p["s"], d=p["d"], omega=p["omega"], seed=p["instance_seed"]
    )


def _trial_problem(config: dict, base, trial: int):
    inst = objectives.with_noise(base, seed=trial) if config["redraw_noise"] else base
    return objectives.problem_from_instance(inst)


def _mixing(config: dict, m: int) -> MixingParams:
    """The weights' parameters for m agents, taken before anything is written; a
    ConfigError unless c0 < 1/m."""
    params = MixingParams(c0=config["c0"], k0_range=config["k0_range"])
    try:
        params.validate_for(m)
    except ValueError as exc:
        raise ConfigError(f"c0: {exc}") from None
    return params


def _run_trials(config, problems, schedules, algorithm, run_config, trials):
    """Every trial of `trials` at once, in lockstep where the algorithm allows."""
    if algorithm == "algorithm1":
        return engine.run_trials(problems, schedules, _mixing(config, problems[0].m),
                                 run_config, trials)
    return engine.run_baseline_trials(problems, schedules, run_config,
                                      ALGORITHMS[algorithm][0], trials)


def _write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def cmd_converge(config: dict) -> ExperimentResult:
    algorithms = list(ALGORITHMS) if config["algorithm"] == "all" else [config["algorithm"]]
    base = _instance(config)
    horizon = config["horizon"]
    out_dir = Path(config["out"])
    result = ExperimentResult()

    trials = range(config["trials"])
    # one problem object unless trials redraw the noise: the kernel then
    # takes every trial's gradients in one call
    problems = ([_trial_problem(config, base, t) for t in trials] if config["redraw_noise"]
                else [_trial_problem(config, base, 0)] * len(trials))
    schedules = [_schedule(config, t, "horizon") for t in trials]

    for algorithm in algorithms:
        rc = engine.RunConfig(
            step_size=_resolve_step(config, algorithm), horizon=horizon,
            encryption=config["encryption"] == "on", seed=config["seed"],
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
    problem = _trial_problem(config, _instance(config), 0)
    algorithm = config["algorithm"] if config["algorithm"] != "all" else "algorithm1"
    step = _resolve_step(config, algorithm)
    out_dir = Path(config["out"])

    sched = _schedule(config, 0)
    # a once schedule ends the runs it is shorter than, which then miss their criterion
    horizon = config["horizon"] if sched.length is None else min(config["horizon"], sched.length)
    rows = []
    timing = []
    for criterion in config["stop"]:
        for enc in ("on", "off"):
            rc = engine.RunConfig(
                step_size=step, horizon=horizon,
                stop_residual=criterion, encryption=enc == "on", seed=config["seed"], trial=0,
            )
            (traj,) = _run_trials(config, [problem], [sched], algorithm, rc, [0])
            reached = traj.stopped_at is not None
            iterations = traj.stopped_at if reached else traj.iterations
            rows.append((criterion, enc, iterations, int(reached)))
            timing.append((criterion, enc, iterations, traj.elapsed))

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


def cmd_privacy(config: dict) -> ExperimentResult:
    if not config["capture"]:
        raise ConfigError("privacy analysis requires capture: true")
    scenarios = PRIVACY_SCENARIOS if config["scenario"] == "all" else (config["scenario"],)
    adv, target, m = config["adversary"], config["target"], config["problem"]["m"]
    horizon = config["horizon"]
    K = horizon - 1
    for scenario in scenarios:
        if horizon < PRIVACY_SCENARIOS[scenario]:
            raise ConfigError(f"horizon must be at least {PRIVACY_SCENARIOS[scenario]} "
                              f"for scenario {scenario}, got {horizon}")
    if "b" in scenarios:
        if not (1 <= adv <= m and 1 <= target <= m and adv != target):
            raise ConfigError(f"adversary and target must be two different agents of 1..{m}, "
                              f"got {adv} and {target}")
        sched = _schedule(config, 0)
        playable = horizon if sched.length is None else min(horizon, sched.length)
        sent = sched.adjacencies(0, playable)[:, adv - 1, target - 1].tolist()
        unlinked = [k for k in range(horizon) if k >= playable or not sent[k]]
        if unlinked:
            raise ConfigError(
                f"the schedule does not connect target {target} to adversary {adv} in "
                f"rounds {unlinked}: scenario b needs a message from {target} to {adv} "
                f"in every round 0..{K}")
    mixing = {name: _mixing(config, agents) for name, agents in (("b", m), ("c", 2))
              if name in scenarios}
    out_dir = Path(config["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    result = ExperimentResult()
    encryption = config["encryption"] == "on"
    step = _resolve_step(config, "algorithm1")
    rc = engine.RunConfig(
        step_size=step, horizon=horizon, encryption=encryption,
        seed=config["seed"], trial=0, record_states=True, record_messages=True,
    )

    if "b" in scenarios:
        problem = _trial_problem(config, _instance(config), 0)
        traj = engine.run(problem, sched, mixing["b"], rc)
        view = adversary.capture_view(traj.messages, adv, target)
        report = adversary.infer_states_scenario_b(view, K)
        truth = adversary.gradient_ground_truth(traj.x_series, problem, target, range(1, K + 1))
        adversary.sample_gradient_solutions(
            report, n=config["samples"], bound=config["box"], seed=config["seed"],
            truth=truth.reshape(-1),
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
        problem = _trial_problem(c_config, _instance(c_config), 0)
        pair = graphs.StaticSchedule(graphs.DirectedGraph(2, frozenset({(2, 1)})))
    # agent 2 hears agent 1 alone, and recovers its gradients from round `first` on
    for name, stem, first in (("c", "scenario_c", 1), ("addopt", "addopt", 0)):
        if name not in scenarios:
            continue
        if name == "c":  # the private algorithm
            traj = engine.run(problem, pair, mixing["c"], rc)
            report = adversary.infer_scenario_c(adversary.capture_view(traj.messages, 2, 1), K)
        else:  # push-DIGing, whose weights are published
            traj = engine.run_baseline(problem, pair, rc, "push-diging")
            report = adversary.attack_fixed_weight_baseline(
                adversary.capture_view(traj.messages, 2, 1), out_degree=1, K=K)
        truth = adversary.gradient_ground_truth(traj.x_series, problem, 1, range(first, K + 1))
        err = _recovery_error(report.recovered_series("g"), truth, range(first, K + 1))
        path = out_dir / f"privacy_{stem}.txt"
        path.write_text(adversary.report_to_text(report) + f"max_relative_error: {err!r}\n")
        result.artifacts.append(str(path))
        result.summary[f"{stem}_error"] = err
    return result


def _recovery_error(recovered: dict, truth: np.ndarray, rounds) -> float:
    """Largest relative error of the recovered gradients over `rounds`; NaN if any is."""
    errors = [0.0]
    for row, k in enumerate(rounds):
        true = truth[row]
        got = np.atleast_1d(np.asarray(recovered[k], dtype=float))
        scale = max(float(np.linalg.norm(true)), 1e-30)
        errors.append(float(np.linalg.norm(got - true)) / scale)
    return float(np.max(errors))


def cmd_theory(config: dict) -> ExperimentResult:
    problem = _trial_problem(config, _instance(config), 0)
    sched = _schedule(config, 0, "certify_horizon")
    connectivity = graphs.certify_uniform_connectivity(
        sched, horizon=config["certify_horizon"]
    )
    if connectivity.b_tilde is not None:  # the certificate reads c0
        _mixing(config, problem.m)
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
        c0=config["c0"], m=problem.m, b_tilde=connectivity.b_tilde,
        l_hat=problem.l_hat, l_bar=problem.l_bar,
        mu_hat=problem.mu_hat, mu_bar=problem.mu_bar,
        alpha=config["alpha"], beta=config["beta"],
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
        p.add_argument("--algorithm", choices=(*ALGORITHMS, "all"))
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
        # strict JSON: a diverged run's non-finite numbers print as null
        summary = {key: None if isinstance(value, float) and not math.isfinite(value) else value
                   for key, value in result.summary.items()}
        print(json.dumps(summary, default=str, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
