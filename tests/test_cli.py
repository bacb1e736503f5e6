import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cipheropt import cli
from cipheropt.cli import ConfigError, main, resolve_config
from cipheropt.graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    StaticSchedule,
    save_graph_file,
)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse(command, *argv):
    return cli.build_parser().parse_args([command, *argv])


SMALL = {
    "problem": {"m": 3, "s": 1, "d": 1, "instance_seed": 23},
    "schedule": "fig5a",
    "step_size": 5e-3,
    "c0": 0.3,
    "horizon": 8,
    "trials": 2,
}


# two graphs of the two-cycle, played once: a run can read rounds 0 and 1 of them
ONCE = "m 2\nschedule scripted\nmode once\n" + "begin graph\nedge 1 2\nedge 2 1\nend graph\n" * 2

# every top-level key, and every key of the problem table as "problem.<key>"
CONFIG_KEYS = [key for key in cli._COMMON_DEFAULTS if key != "problem"] + [
    f"problem.{key}" for key in cli._COMMON_DEFAULTS["problem"]]
# a JSON value of every kind; no large whole number, which is a valid long run
ANY_JSON = [None, True, "x", [], {}, -1, 0, 2.5, 1e308, [0.1, "x"], "nan"]


def tiny_config(command):
    """A config of a few rounds of one trial; theory certifies the README's two-cycle,
    written to the working directory (fig5b's certificate takes seconds)."""
    config = {"horizon": 4, "trials": 1, "samples": 5, "certify_horizon": 10, "out": "out"}
    if command == "theory":
        Path("twocycle.graph").write_text("m 2\nschedule static\nedge 1 2\nedge 2 1\n")
        config.update(problem={"m": 2, "s": 2, "d": 2, "instance_seed": 3},
                      schedule="twocycle.graph", c0=0.49)
    return config


class TestConfigResolution:
    def test_defaults_by_command(self):
        converge = resolve_config("converge", parse("converge"))
        privacy = resolve_config("privacy", parse("privacy"))
        assert converge["problem"]["m"] == 6
        assert converge["horizon"] == 2000
        assert privacy["problem"]["m"] == 3
        assert privacy["schedule"] == "fig5a"
        assert privacy["capture"] is True

    def test_file_then_flags_layering(self, tmp_path):
        cfg = write_config(tmp_path, {"trials": 7, "seed": 3})
        args = parse("converge", "--config", cfg, "--trials", "9")
        config = resolve_config("converge", args)
        assert config["trials"] == 9  # flag wins
        assert config["seed"] == 3

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"stepsize": 1e-3})
        with pytest.raises(ConfigError, match="unknown key 'stepsize'"):
            resolve_config("converge", parse("converge", "--config", cfg))

    def test_unknown_problem_key_rejected(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"agents": 4}})
        with pytest.raises(ConfigError, match="unknown problem key"):
            resolve_config("converge", parse("converge", "--config", cfg))

    def test_problem_must_be_a_table(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": 6})
        with pytest.raises(ConfigError, match="table"):
            resolve_config("converge", parse("converge", "--config", cfg))

    def test_problem_keys_merge_not_replace(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"m": 4}})
        config = resolve_config("converge", parse("converge", "--config", cfg))
        assert config["problem"]["m"] == 4
        assert config["problem"]["s"] == 3  # untouched default

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config("converge", parse("converge", "--config", "/no/such.json"))

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "trials": ,\n}')
        with pytest.raises(ConfigError, match="bad.json:2"):
            resolve_config("converge", parse("converge", "--config", str(path)))

    def test_top_level_must_be_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            resolve_config("converge", parse("converge", "--config", str(path)))

    def test_stop_flag_comma_and_repeat(self):
        args = parse("stoptime", "--stop", "0.01,0.001", "--stop", "0.0005")
        config = resolve_config("stoptime", args)
        assert config["stop"] == [0.01, 0.001, 0.0005]

    def test_stop_flag_bad_float(self):
        with pytest.raises(ConfigError, match="--stop"):
            resolve_config("stoptime", parse("stoptime", "--stop", "lots"))

    def test_trials_floor(self):
        with pytest.raises(ConfigError, match="trials"):
            resolve_config("converge", parse("converge", "--trials", "0"))

    def test_bad_encryption_value_in_file(self, tmp_path):
        cfg = write_config(tmp_path, {"encryption": "maybe"})
        with pytest.raises(ConfigError, match="encryption"):
            resolve_config("converge", parse("converge", "--config", cfg))

    def test_bad_algorithm_in_file(self, tmp_path):
        cfg = write_config(tmp_path, {"algorithm": "adam"})
        with pytest.raises(ConfigError, match="unknown algorithm"):
            resolve_config("converge", parse("converge", "--config", cfg))


    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["seed", "schedule_seed"]),
           value=st.one_of(st.integers(max_value=-1), st.floats(allow_nan=False),
                           st.booleans(), st.text(max_size=3), st.none()))
    def test_bad_seed_in_file(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be a non-negative whole number"):
            resolve_config("converge", parse("converge", "--config", cfg))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["trials", "horizon", "certify_horizon", "samples",
                                  "adversary", "target"]),
           value=st.one_of(st.floats().filter(lambda v: not v.is_integer()),
                           st.integers(1, 9).map(float), st.booleans(),
                           st.text(max_size=3), st.none()))
    def test_fractional_or_bool_count_in_file(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be a whole number"):
            resolve_config("converge", parse("converge", "--config", cfg))

    @pytest.mark.parametrize("field", ["trials", "horizon"])
    def test_fractional_count_exits_1_and_writes_nothing(self, tmp_path, capsys, field):
        cfg = write_config(tmp_path, {**SMALL, field: 2.5})
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
        assert (f"config error: {field} must be a whole number of at least 1, got 2.5"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_negative_seed_flag_exits_1_naming_the_field(self, tmp_path, capsys):
        assert main(["converge", "--seed", "-1", "--out", str(tmp_path)]) == 1
        assert "config error: seed must be a non-negative whole number" in capsys.readouterr().err

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["step_size", "c0", "k0_range"]),
           value=st.one_of(st.floats(max_value=0.0),
                           st.sampled_from([math.nan, math.inf, "nan", "inf", "-1", "x",
                                            [0.1], {}])))
    def test_bad_number_in_file(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{field}: "):
            resolve_config("converge", parse("converge", "--config", cfg))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(good=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=3),
           bad=st.one_of(st.floats(max_value=-math.ulp(0.0)),  # below zero, -0.0 excluded
                         st.sampled_from([math.nan, math.inf, "nan", "x", None])),
           data=st.data())
    def test_bad_stop_entry_in_file(self, tmp_path, good, bad, data):
        stop = list(good)
        stop.insert(data.draw(st.integers(0, len(good))), bad)
        cfg = write_config(tmp_path, {"stop": stop})
        with pytest.raises(ConfigError, match="^stop: "):
            resolve_config("stoptime", parse("stoptime", "--config", cfg))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["step_size", "c0", "k0_range"]),
           value=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
           stop=st.lists(st.floats(min_value=0.0, allow_infinity=False), max_size=3))
    def test_good_numbers_in_file_pass(self, tmp_path, field, value, stop):
        # a k0_range whose width 2R overflows is refused (test_mixing.py)
        assume(field != "k0_range" or math.isfinite(2.0 * value))
        cfg = write_config(tmp_path, {field: value, "stop": stop})
        config = resolve_config("stoptime", parse("stoptime", "--config", cfg))
        assert (config[field], config["stop"]) == (value, stop)

    def test_checked_numbers_come_back_as_floats(self, tmp_path):
        # no whole number is a valid c0, which must lie below 1/m
        payload = {"step_size": 1, "k0_range": 2, "box": 3, "alpha": 2, "beta": 4,
                   "activation": 1, "stop": [0, 1]}
        config = resolve_config("privacy", parse("privacy", "--config",
                                                 write_config(tmp_path, payload)))
        for key, value in payload.items():
            assert config[key] == value
            assert {type(v) for v in (config[key] if key == "stop" else [config[key]])} == {float}

    @pytest.mark.parametrize("command, payload, argv, message", [
        ("converge", {"step_size": -1}, [],
         "step_size: step size must be positive and finite, got -1.0"),
        ("converge", {"c0": "nan"}, [], "c0: c0 must be positive and finite, got nan"),
        ("converge", {"k0_range": 0}, [], "k0_range: k0_range must be positive and finite"),
        ("stoptime", {}, ["--stop", "nan"],
         "stop: stop residual must be finite and non-negative, got nan"),
        ("stoptime", {}, ["--stop", "0.1,-1"], "stop: stop residual must be finite"),
        ("converge", {"step_size": True}, [], "step_size: must be a number, got True"),
        ("theory", {"alpha": True}, [], "alpha: must be a number, got True"),
    ], ids=["step", "c0", "k0-range", "stop-nan", "stop-negative", "step-bool", "alpha-bool"])
    def test_bad_number_exits_1_and_writes_nothing(self, tmp_path, capsys, command, payload,
                                                   argv, message):
        cfg = write_config(tmp_path, {**SMALL, **payload})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), *argv]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, value", [
        ("converge", "step_size", True), ("converge", "c0", True), ("converge", "k0_range", False),
        ("converge", "activation", True), ("privacy", "box", True), ("theory", "alpha", True),
        ("theory", "beta", False), ("stoptime", "stop", [0.1, True]),
    ])
    def test_bool_is_not_a_number(self, tmp_path, command, field, value):
        # float() would take JSON true as 1.0
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=rf"^{field}: must be a number, got (True|False)$"):
            resolve_config(command, parse(command, "--config", cfg))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["m", "s", "d"]),
           value=st.one_of(st.floats().filter(lambda v: not v.is_integer()),
                           st.integers(1, 9).map(float), st.booleans(),
                           st.text(max_size=3), st.none()))
    def test_fractional_or_bool_problem_count_in_file(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {"problem": {field: value}})
        with pytest.raises(ConfigError, match=f"^problem: {field} must be a whole number"):
            resolve_config("converge", parse("converge", "--config", cfg))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(problem=st.one_of(
        st.builds(lambda field, value: {field: value}, st.sampled_from(["m", "s", "d"]),
                  st.integers(max_value=0)),
        st.builds(lambda value: {"omega": value},
                  st.one_of(st.floats(max_value=0.0),
                            st.sampled_from([math.nan, math.inf, "nan", "0.01", "x", [0.1],
                                             True]))),
        st.builds(lambda value: {"instance_seed": value},
                  st.one_of(st.integers(max_value=-1), st.floats(), st.booleans(), st.none()))))
    def test_bad_problem_in_file(self, tmp_path, problem):
        cfg = write_config(tmp_path, {"problem": problem})
        with pytest.raises(ConfigError, match="^problem: "):
            resolve_config("converge", parse("converge", "--config", cfg))

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["activation", "box", "alpha", "beta"]),
           value=st.one_of(st.floats(max_value=0.0),
                           st.sampled_from([math.nan, math.inf, "nan", "inf", "-1", "x",
                                            [0.1], {}])),
           command=st.sampled_from(["converge", "privacy", "theory"]))
    def test_bad_probability_box_or_gain_weight_in_file(self, tmp_path, field, value, command):
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{field}: "):
            resolve_config(command, parse(command, "--config", cfg))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=st.floats(min_value=1.0, exclude_min=True))
    def test_activation_above_one_rejected(self, tmp_path, value):
        cfg = write_config(tmp_path, {"activation": value})
        with pytest.raises(ConfigError, match="^activation: activation probability"):
            resolve_config("converge", parse("converge", "--config", cfg))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(["capture", "redraw_noise"]),
           value=st.one_of(st.sampled_from(["no", "yes", "false", "", 0, 1, 0.0]),
                           st.none(), st.lists(st.booleans(), max_size=1)))
    def test_flags_must_be_booleans(self, tmp_path, field, value):
        cfg = write_config(tmp_path, {field: value})
        with pytest.raises(ConfigError, match=f"^{field} must be true or false"):
            resolve_config("privacy", parse("privacy", "--config", cfg))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(activation=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0,
                                                      exclude_min=True)),
           # a box whose width 2 * box is finite, and an omega small enough to keep
           # the curvature finite and large enough to outweigh rounding in M'M's
           # smallest eigenvalue, so the problem stays strongly convex
           positive=st.fixed_dictionaries({
               "box": st.floats(min_value=0.0, exclude_min=True, max_value=sys.float_info.max / 2),
               **{name: st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
                  for name in ("alpha", "beta")}}),
           problem=st.fixed_dictionaries({
               "m": st.integers(1, 8), "s": st.integers(1, 3), "d": st.integers(1, 3),
               "omega": st.floats(min_value=1e-9, max_value=1e300),
               "instance_seed": st.integers(0, 2**32)}),
           flags=st.fixed_dictionaries({"capture": st.booleans(),
                                        "redraw_noise": st.booleans()}))
    def test_good_problem_and_numbers_pass(self, tmp_path, activation, positive, problem, flags):
        payload = {"activation": activation, **positive, "problem": problem, **flags}
        config = resolve_config("privacy", parse("privacy", "--config",
                                                 write_config(tmp_path, payload)))
        assert {key: config[key] for key in payload} == payload

    @pytest.mark.parametrize("command, payload, message", [
        ("converge", {"activation": 2}, "activation: activation probability must lie in (0, 1]"),
        ("converge", {"problem": {"omega": -1}},
         "problem: omega must be positive and finite, got -1"),
        ("converge", {"problem": {"m": 2.5}},
         "problem: m must be a whole number of at least 1, got 2.5"),
        ("converge", {"problem": {"m": 0}},
         "problem: m must be a whole number of at least 1, got 0"),
        ("converge", {"problem": {"instance_seed": -1}},
         "problem: instance_seed must be a non-negative whole number, got -1"),
        ("privacy", {"box": -1}, "box: bound must be positive and finite, got -1.0"),
        ("privacy", {"box": "nan"}, "box: bound must be positive and finite, got nan"),
        ("privacy", {"capture": "no"}, "capture must be true or false, got 'no'"),
        ("theory", {"alpha": -1}, "alpha: alpha must be positive and finite, got -1.0"),
        ("privacy", {"box": 1e308},
         "box: bound must leave [-bound, bound] a finite width, got 1e+308"),
        ("theory", {"problem": {"omega": 1e308}},
         "problem: the aggregate curvature must be finite, got L = inf and mu = inf"),
        ("converge", {"c0": 0.4}, "c0: c0=0.4 must be < 1/m = 0.3333333333333333"),
        ("stoptime", {"c0": 0.4, "algorithm": "all"},
         "c0: c0=0.4 must be < 1/m = 0.3333333333333333"),
        ("theory", {"c0": 0.2, "schedule": "fig5b", "problem": {"m": 6}},
         "c0: c0=0.2 must be < 1/m = 0.16666666666666666"),
        ("privacy", {"c0": 0.4, "scenario": "b"}, "c0: c0=0.4 must be < 1/m = 0.3333333333333333"),
        ("privacy", {"c0": 0.5, "scenario": "c"}, "c0: c0=0.5 must be < 1/m = 0.5"),
        ("converge", {"schedule": 5}, "schedule must be text, got 5"),
        ("stoptime", {"algorithm": []}, "unknown algorithm []"),
        ("converge", {"k0_range": 1e308},
         "k0_range: k0_range must leave [-k0_range, k0_range] a finite width, got 1e+308"),
        ("converge", {"schedule": "fig5b"}, "schedule is over 6 agents but the problem has 3"),
        ("stoptime", {"schedule": "fig5b"}, "schedule is over 6 agents but the problem has 3"),
        ("theory", {"schedule": "fig5b"}, "schedule is over 6 agents but the problem has 3"),
        ("converge", {"schedule": "once.graph", "problem": {"m": 2}, "horizon": 3},
         "horizon must be at most 2, the rounds the schedule plays, got 3"),
        ("theory", {"schedule": "once.graph", "problem": {"m": 2}, "certify_horizon": 3},
         "certify_horizon must be at most 2, the rounds the schedule plays, got 3"),
        ("converge", {"activation": 0.5},
         "activation: applies only to a random_activation schedule, and fig5a is not one"),
    ], ids=["activation", "omega", "m-fractional", "m-zero", "instance-seed", "box-negative",
            "box-nan", "capture-string", "alpha-negative", "box-huge", "omega-huge",
            "converge-c0", "stoptime-c0", "theory-c0", "privacy-b-c0", "privacy-c-c0",
            "schedule-number", "algorithm-list", "k0-range-huge", "converge-schedule-agents",
            "stoptime-schedule-agents", "theory-schedule-agents", "converge-once-short",
            "theory-once-short", "activation-not-random"])
    def test_bad_problem_or_number_exits_1_and_writes_nothing(self, tmp_path, monkeypatch,
                                                               capsys, command, payload, message):
        monkeypatch.chdir(tmp_path)  # where a case's relative schedule file is written
        Path("once.graph").write_text(ONCE)
        cfg = write_config(tmp_path, {**SMALL, **payload,
                                      "problem": {**SMALL["problem"], **payload.get("problem", {})}})
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, payload", [
        ("converge", {"horizon": 2}), ("theory", {"certify_horizon": 2}),
        ("stoptime", {"horizon": 3, "stop": [1.0]}),  # its stop rule ends the run at round 0
    ])
    def test_once_schedule_as_long_as_the_run_reads_runs(self, tmp_path, monkeypatch, command,
                                                         payload):
        monkeypatch.chdir(tmp_path)
        Path("once.graph").write_text(ONCE)
        cfg = write_config(tmp_path, {**SMALL, "schedule": "once.graph",
                                      "problem": {"m": 2, "s": 1, "d": 1}, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_stoptime_stops_at_the_end_of_a_short_once_schedule(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("once.graph").write_text(ONCE)
        cfg = write_config(tmp_path, {**SMALL, "schedule": "once.graph", "horizon": 3,
                                      "problem": {"m": 2, "s": 1, "d": 1}})
        assert main(["stoptime", "--config", cfg, "--out", "out"]) == 0
        rows = Path("out/stoptime.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2:] for row in rows] == [["2", "0"]] * 6

    @pytest.mark.parametrize("scenario", ["x", "B", "", None, ["b"]])
    def test_bad_scenario_rejected(self, tmp_path, scenario):
        cfg = write_config(tmp_path, {"scenario": scenario})
        with pytest.raises(ConfigError, match="scenario"):
            resolve_config("privacy", parse("privacy", "--config", cfg))

    @pytest.mark.parametrize("scenario", ["all", "b", "c", "addopt"])
    def test_known_scenarios_accepted(self, tmp_path, scenario):
        cfg = write_config(tmp_path, {"scenario": scenario})
        assert resolve_config("privacy", parse("privacy", "--config", cfg))["scenario"] == scenario


class TestScheduleLoading:
    def test_packaged_schedules(self):
        config = resolve_config("converge", parse("converge"))
        sched = cli._load_schedule(config, 0)
        assert isinstance(sched, RandomActivationSchedule)
        assert sched.m == 6
        config["schedule"] = "fig5a"
        assert cli._load_schedule(config, 0).m == 3

    def test_random_schedule_reseeded_per_trial(self):
        config = resolve_config("converge", parse("converge"))
        s0 = cli._load_schedule(config, 0)
        s1 = cli._load_schedule(config, 1)
        again = cli._load_schedule(config, 0)
        assert s0.seed != s1.seed
        assert s0.seed == again.seed

    def test_custom_schedule_file(self, tmp_path):
        path = tmp_path / "pair.graph"
        save_graph_file(StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)}))), path)
        config = resolve_config("converge", parse("converge"))
        config["schedule"] = str(path)
        assert cli._load_schedule(config, 0).m == 2

    def test_seedless_random_file_is_seeded_per_trial(self, tmp_path):
        path = tmp_path / "noseed.graph"
        path.write_text("m 3\nschedule random_activation\np 0.5\nedge 2 1\nedge 3 2\n")
        config = resolve_config("converge", parse("converge"))
        config["schedule"] = str(path)
        sched = cli._load_schedule(config, 1)
        assert isinstance(sched, RandomActivationSchedule)
        assert (sched.p, sched.seed) == (0.5, cli._load_schedule({**config, "schedule": "fig5b"},
                                                                 1).seed)

    def test_missing_schedule_file(self):
        config = resolve_config("converge", parse("converge"))
        config["schedule"] = "/no/such.graph"
        with pytest.raises(ConfigError, match="schedule file"):
            cli._load_schedule(config, 0)

    @pytest.mark.parametrize("body", ["m 2\nbegin\n", "m 2\nedge 1\n", "edge 1 2\n"])
    def test_malformed_schedule_file_is_config_error(self, tmp_path, body):
        path = tmp_path / "bad.graph"
        path.write_text(body)
        config = resolve_config("converge", parse("converge"))
        config["schedule"] = str(path)
        with pytest.raises(ConfigError, match="bad.graph"):
            cli._load_schedule(config, 0)


class TestExitCodes:
    def test_success(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL, "horizon": 4, "trials": 1})
        code = main(["converge", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    def test_diverged_summary_is_strict_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"step_size": 1e308, "horizon": 4, "trials": 1})
        with pytest.warns(RuntimeWarning):
            assert main(["converge", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

        def refuse(name):
            raise AssertionError(f"summary holds {name}")

        line = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(line, parse_constant=refuse) == {"algorithm1": None}

    def test_config_problem_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"no_such": 1})
        code = main(["converge", "--config", cfg])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_runtime_problem_exits_two(self, tmp_path, capsys):
        # the config is good, but its output directory cannot be made
        cfg = write_config(tmp_path, {"horizon": 5, "trials": 1})
        (tmp_path / "file").write_text("")
        code = main(["converge", "--config", cfg, "--out", str(tmp_path / "file" / "out")])
        assert code == 2
        assert "error: NotADirectoryError" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload", [
        ("converge", {"algorithm": "push_diging"}),
        ("converge", {"algorithm": "ab_pushpull"}),
        ("stoptime", {"algorithm": "subgradient_push"}),
        ("privacy", {"scenario": "addopt"}),
        ("theory", {"schedule": "fig5a", "problem": {"m": 3, "s": 1, "d": 1},
                    "certify_horizon": 40}),  # no certificate: nothing reads c0
    ])
    def test_c0_of_a_run_that_never_reads_it_is_not_checked(self, tmp_path, command, payload):
        cfg = write_config(tmp_path, {"c0": 0.45, "horizon": 5, "trials": 1, **payload})
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    def test_malformed_schedule_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.graph"
        path.write_text("m 2\nbegin\n")
        cfg = write_config(tmp_path, {"schedule": str(path)})
        assert main(["theory", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert f"config error: {path}:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, payload, message", [
        ("privacy", {"horizon": 0}, "horizon must be a whole number of at least 1, got 0"),
        ("converge", {"horizon": 0}, "horizon must be a whole number of at least 1, got 0"),
        ("theory", {"certify_horizon": 0},
         "certify_horizon must be a whole number of at least 1, got 0"),
        ("privacy", {"samples": 0}, "samples must be a whole number of at least 1, got 0"),
        ("privacy", {"target": 9},
         "adversary and target must be two different agents of 1..3, got 2 and 9"),
        ("privacy", {"adversary": 1, "target": 1},
         "adversary and target must be two different agents of 1..3, got 1 and 1"),
    ], ids=["privacy-horizon", "converge-horizon", "certify-horizon", "samples", "target",
            "adversary-is-target"])
    def test_count_out_of_range_exits_1_and_writes_nothing(self, tmp_path, capsys, command,
                                                           payload, message):
        # each of these used to fail inside the run, with exit 2
        out = tmp_path / "out"
        assert main([command, "--config", write_config(tmp_path, payload), "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--frobnicate"])
        assert exc.value.code == 1

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(sorted(cli.COMMANDS)), key=st.sampled_from(CONFIG_KEYS),
           value=st.sampled_from(ANY_JSON))
    @example(command="converge", key="schedule", value=2.5)
    @example(command="theory", key="out", value=None)
    @example(command="stoptime", key="algorithm", value=[])
    @example(command="converge", key="c0", value=2.5)
    @example(command="privacy", key="c0", value=2.5)
    @example(command="theory", key="c0", value=1e308)
    @example(command="privacy", key="box", value=1e308)
    @example(command="theory", key="problem.omega", value=1e308)
    def test_any_value_of_any_key_runs_or_exits_1_naming_it(self, tmp_path, monkeypatch, capsys,
                                                           command, key, value):
        monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))  # a text "out" lands here
        config = tiny_config(command)
        top, _, sub = key.partition(".")
        if sub:
            config["problem"] = {**config.get("problem", {}), sub: value}
        else:
            config[top] = value
        code = main([command, "--config", write_config(Path.cwd(), config)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and "config error:" in err and top in err), err


class TestConvergeCommand:
    def test_artifact_schema(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        out = tmp_path / "out"
        assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
        path = out / "converge_algorithm1.csv"
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,mean_residual"
        assert lines[1] == "0,1.0"
        assert len(lines) == 1 + 8 + 1  # header + horizon + round zero

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["converge", "--config", cfg, "--out", str(a)])
        main(["converge", "--config", cfg, "--out", str(b)])
        name = "converge_algorithm1.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_all_algorithms(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL, "trials": 1, "horizon": 4})
        out = tmp_path / "out"
        code = main(["converge", "--config", cfg, "--out", str(out),
                     "--algorithm", "all"])
        assert code == 0
        for name in ("algorithm1", "push_diging", "subgradient_push", "ab_pushpull"):
            assert (out / f"converge_{name}.csv").is_file()

    def test_encryption_flag_does_not_change_results(self, tmp_path):
        cfg = write_config(tmp_path, {**SMALL, "trials": 1})
        a, b = tmp_path / "on", tmp_path / "off"
        main(["converge", "--config", cfg, "--out", str(a), "--encryption", "on"])
        main(["converge", "--config", cfg, "--out", str(b), "--encryption", "off"])
        name = "converge_algorithm1.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()


class TestStoptimeCommand:
    def test_trivial_criterion_stops_at_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL, "trials": 1, "horizon": 50})
        out = tmp_path / "out"
        code = main(["stoptime", "--config", cfg, "--out", str(out), "--stop", "1.0"])
        assert code == 0
        lines = (out / "stoptime.csv").read_text().splitlines()
        assert lines[0] == "criterion,encryption,iterations,reached"
        assert lines[1] == "1.0,on,0,1"
        assert lines[2] == "1.0,off,0,1"
        timing = (out / "stoptime_timing.txt").read_text().splitlines()
        assert timing[0].startswith("criterion encryption iterations")
        assert len(timing) == 3

    def test_encryption_does_not_change_iteration_counts(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"m": 6, "s": 3, "d": 2, "instance_seed": 7},
            "horizon": 100, "trials": 1, "stop": [0.01],
        })
        out = tmp_path / "out"
        assert main(["stoptime", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "stoptime.csv").read_text().splitlines()[1:]
        on = [r for r in rows if ",on," in r]
        off = [r for r in rows if ",off," in r]
        assert len(on) == len(off) == 1
        assert on[0].split(",")[2] == off[0].split(",")[2]
        assert on[0].endswith(",1")  # the run reached the criterion

    def test_empty_stop_list_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**SMALL, "stop": []})
        assert main(["stoptime", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


class TestPrivacyCommand:
    def test_default_scenarios_and_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"samples": 40})
        out = tmp_path / "out"
        code = main(["privacy", "--config", cfg, "--out", str(out)])
        assert code == 0
        for name in ("privacy_scenario_b.txt", "privacy_distances.csv",
                     "privacy_hexdump.txt", "privacy_scenario_c.txt",
                     "privacy_addopt.txt"):
            assert (out / name).is_file(), name
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["scenario_b_dof"] == 1
        assert summary["substring_hits"] == 0
        assert summary["scenario_c_error"] <= 1e-8
        assert summary["addopt_error"] <= 1e-8
        assert summary["scenario_b_min_distance"] > 0

    def test_single_scenario_selection(self, tmp_path):
        cfg = write_config(tmp_path, {"samples": 10, "scenario": "b"})
        out = tmp_path / "out"
        assert main(["privacy", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "privacy_scenario_b.txt").is_file()
        assert not (out / "privacy_scenario_c.txt").exists()
        assert not (out / "privacy_addopt.txt").exists()

    def test_plain_run_skips_the_hexdump(self, tmp_path):
        cfg = write_config(tmp_path, {"samples": 10, "scenario": "b"})
        out = tmp_path / "out"
        code = main(["privacy", "--config", cfg, "--out", str(out),
                     "--encryption", "off"])
        assert code == 0
        assert not (out / "privacy_hexdump.txt").exists()

    def test_unknown_scenario_exits_one_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"scenario": "x"})
        out = tmp_path / "out"
        assert main(["privacy", "--config", cfg, "--out", str(out)]) == 1
        assert "scenario" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, horizon, need", [
        ("all", 1, 3), ("all", 2, 3), ("b", 1, 3), ("b", 2, 3), ("c", 1, 2)])
    def test_horizon_too_short_for_the_scenario_exits_1_and_writes_nothing(
            self, tmp_path, capsys, scenario, horizon, need):
        # these used to create the output directory and exit 2 inside the attack
        cfg = write_config(tmp_path, {"scenario": scenario, "horizon": horizon})
        out = tmp_path / "out"
        assert main(["privacy", "--config", cfg, "--out", str(out)]) == 1
        assert f"config error: horizon must be at least {need} for scenario" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scenario, horizon", [("b", 3), ("c", 2), ("addopt", 1)])
    def test_shortest_horizon_of_each_scenario_runs(self, tmp_path, scenario, horizon):
        cfg = write_config(tmp_path, {"scenario": scenario, "horizon": horizon, "samples": 5})
        assert main(["privacy", "--config", cfg, "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("adversary, target, rounds", [
        (3, 1, list(range(12))), (1, 3, list(range(1, 12)))], ids=["never", "round-0-only"])
    def test_pair_the_schedule_does_not_connect_exits_1_and_writes_nothing(
            self, tmp_path, capsys, adversary, target, rounds):
        # fig5a sends 3 -> 1 at round 0 alone and 1 -> 3 never; these used to exit 2
        # with a bare ScenarioMismatchError after the run
        cfg = write_config(tmp_path, {"scenario": "b", "adversary": adversary,
                                      "target": target})
        out = tmp_path / "out"
        assert main(["privacy", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert (f"config error: the schedule does not connect target {target} to adversary "
                f"{adversary} in rounds {rounds}: scenario b needs") in err
        assert not out.exists()

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pair=st.permutations([1, 2, 3]), horizon=st.integers(1, 12),
           scenario=st.sampled_from(["all", "b", "c", "addopt"]))
    def test_a_privacy_run_either_runs_or_exits_1_writing_nothing(self, tmp_path, pair,
                                                                  horizon, scenario):
        out = tmp_path / f"out-{pair[0]}-{pair[1]}-{horizon}-{scenario}"
        cfg = write_config(tmp_path, {"adversary": pair[0], "target": pair[1],
                                      "horizon": horizon, "scenario": scenario, "samples": 5})
        code = main(["privacy", "--config", cfg, "--out", str(out)])
        assert code in (0, 1)
        assert out.exists() == (code == 0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_run_that_fails_writes_nothing(self, tmp_path, capsys):
        # push-DIGing's two-agent run hits the mass guard at k=40, after scenarios b
        # and c have their artifacts: this used to write those four and exit 2
        out = tmp_path / "out"
        cfg = write_config(tmp_path, {"horizon": 40})
        assert main(["privacy", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error: DegenerateStateError:" in captured.err
        assert "at k=40 " in captured.err
        assert "wrote" not in captured.out
        assert not out.exists()

    def test_capture_required(self, tmp_path):
        cfg = write_config(tmp_path, {"capture": False})
        assert main(["privacy", "--config", cfg, "--out", str(tmp_path / "o")]) == 1

    def test_distances_csv_schema(self, tmp_path):
        cfg = write_config(tmp_path, {"samples": 25, "scenario": "b"})
        out = tmp_path / "out"
        main(["privacy", "--config", cfg, "--out", str(out)])
        lines = (out / "privacy_distances.csv").read_text().splitlines()
        assert lines[0] == "sample,distance"
        assert len(lines) == 26

    @pytest.mark.parametrize("recovered, truth", [
        ({0: [math.nan, math.nan]}, [[1.0, 2.0]]),
        ({0: [1.0, 2.5], 1: [math.nan, 1.0], 2: [3.0, 3.0]}, [[1.0, 2.0], [1.0, 1.0], [3.0, 3.0]]),
    ], ids=["only-round", "later-round"])
    def test_a_nan_recovery_is_no_perfect_one(self, recovered, truth):
        # max(worst, nan) kept worst, so these read 0.0 and 0.25: exact recoveries
        assert math.isnan(cli._recovery_error(recovered, np.array(truth), list(recovered)))


class TestTheoryCommand:
    def test_unconnected_schedule_yields_no_certificate(self, tmp_path, capsys):
        # the privacy playback graph stops being strongly connected after
        # its first round, so no window length can certify it
        cfg = write_config(tmp_path, {
            "problem": {"m": 3, "s": 1, "d": 1, "instance_seed": 23},
            "schedule": "fig5a", "certify_horizon": 40,
        })
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "theory_certificate.txt").read_text()
        assert text.startswith("certificate: none")
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["certificate"] == "none"

    def test_static_two_cycle_certifies(self, tmp_path, capsys):
        sched_path = tmp_path / "pair.graph"
        save_graph_file(StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)}))),
                        sched_path)
        cfg = write_config(tmp_path, {
            "problem": {"m": 2, "s": 2, "d": 2, "instance_seed": 3},
            "schedule": str(sched_path), "c0": 0.49, "certify_horizon": 10,
        })
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "theory_certificate.txt").read_text()
        assert "check [pass]" in text and "FAIL" not in text
        assert "theta0:" in text
        assert "analysis is conservative" in text  # ceiling sits below 1.1e-3
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["b_tilde"] == 1
        assert summary["feasible"] is True

    @pytest.mark.parametrize("weights", [{"alpha": "nan"}, {"beta": "nan"}, {"alpha": math.inf}])
    def test_non_finite_gain_weight_exits_1_and_writes_nothing(self, tmp_path, capsys, weights):
        # before these were checked, a NaN alpha wrote a certificate of NaNs and exited 0
        sched_path = tmp_path / "pair.graph"
        save_graph_file(StaticSchedule(DirectedGraph(2, frozenset({(1, 2), (2, 1)}))),
                        sched_path)
        cfg = write_config(tmp_path, {
            "problem": {"m": 2, "s": 2, "d": 2, "instance_seed": 3},
            "schedule": str(sched_path), "c0": 0.49, "certify_horizon": 10, **weights,
        })
        out = tmp_path / "out"
        assert main(["theory", "--config", cfg, "--out", str(out)]) == 1
        (name,) = weights
        assert f"config error: {name}: {name} must be positive and finite" in capsys.readouterr().err
        assert not out.exists()
