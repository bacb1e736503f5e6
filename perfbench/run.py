"""Benchmark harness for cipheropt.

    python3 perfbench/run.py --workload flagship --seed 0 --seconds 30 --trace 0

Run from the root of a checkout. The package is imported from `src/` of
that checkout, never from an installed copy. Load model: closed loop, one
process with one thread (BLAS/OpenMP pinned to 1 below) bound to one CPU;
each operation starts when the previous one returns.

Every time and rate is measured raw and reported at reference speed:
scaled by the host-speed calibration that runs during the timed passes
(calibration.py), so that the CPU speed regimes of a shared host mostly
cancel out.

With `--trace 0` the last stdout line is one JSON object whose metrics are
the end-to-end metrics listed in BENCHMARK.json; with `--trace 1` they are
the per-layer metrics of a separate traced run. The lines before it report
every metric of the workload with its unit and sample count.
`--workload all` runs each workload in turn, in its own process.
See perfbench/NOTES.md for the workloads, metrics and known defects.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
NAMES = ("flagship", "sealed_wide", "audit")
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120

# Every end-to-end metric the harness reports, with its unit. Only those
# listed in BENCHMARK.json go into the JSON result line; the rest exist on
# one workload only and are reported on the lines above it.
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "rounds_per_s.algorithm1": "rounds/s",
    "rounds_per_s.push_diging": "rounds/s",
    "rounds_per_s.subgradient_push": "rounds/s",
    "rounds_per_s.ab_pushpull": "rounds/s",
    "time_to_tol_s": "s",
    "privacy_s": "s",
    "certify_s": "s",
    "peak_rss_mb": "MiB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke shrinks every workload to a few seconds")
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's verified digests as the reference")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put the checkout's src/ first on the path and import the harness modules.

    Returns the workloads, tracing and calibration modules.
    """
    src = ROOT / "src"
    if not (src / "cipheropt").is_dir():
        sys.exit(f"error: no package source at {src / 'cipheropt'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cipheropt
    if Path(cipheropt.__file__).resolve().parent != (src / "cipheropt").resolve():
        sys.exit(f"error: imported cipheropt from {cipheropt.__file__}, not {src}")
    import calibration
    import tracing
    import workloads
    return workloads, tracing, calibration


def setup(name, seed, size, work):
    """Imports, inputs, configs, keys and cache warm-up.

    Returns (workload, harness modules, raw seconds).
    """
    start = time.perf_counter()
    modules = import_package()
    workload = modules[0].WORKLOADS[name](seed, size, work)
    return workload, modules, time.perf_counter() - start


def at_reference_speed(seconds, calibration) -> float:
    """`seconds` of raw time just measured, at reference speed."""
    return seconds * calibration.after(seconds)


def probe_setup_times(args, calibration) -> list:
    """Set-up time of fresh processes, one after another, at reference speed."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--probe-setup"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(at_reference_speed(float(proc.stdout.split()[-1]), calibration))
    return times


def run_pass(workload, index):
    """Timed pass number `index`; returns (ops, wall seconds, pass metrics).

    The pass's wall time is the sum of its operations' times; like them it
    is at reference speed.
    """
    ops = workload.run_pass(index)
    wall = sum(op.seconds for op in ops)
    workload.check(ops)
    metrics = workload.pass_metrics(ops)
    for op in ops:  # keep peak RSS to one pass, whatever the pass count
        op.result = None
    return ops, wall, metrics


def run_passes(workload, seconds) -> list:
    """Passes until `seconds` have elapsed, at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes)))
        if time.perf_counter() - start >= seconds:
            return passes


def expected_digests(args, workload, passes, verification) -> dict:
    """What every pass must reproduce.

    At the reference seed the committed digests; otherwise the untimed
    verification runs, and for outputs without one, the first pass that
    produced the output.
    """
    reference = json.loads(REFERENCE.read_text())
    prefix = workload.name + "/"
    if args.seed == reference["seed"] and not args.write_reference:
        committed = {k: v for k, v in reference.get(args.size, {}).items()
                     if k.startswith(prefix)}
        if committed:
            return committed
    expected = {}
    for op in verification:
        expected.update(op.digests)
    for ops, _, _ in passes:
        for op in ops:
            for key, value in op.digests.items():
                expected.setdefault(key, value)
    if args.write_reference:
        if args.seed != reference["seed"]:
            sys.exit(f"error: the reference is recorded at seed {reference['seed']}")
        if any(op.problems for op in verification):
            sys.exit("error: verification failed; not writing a reference")
        table = reference.setdefault(args.size, {})
        for key in [k for k in table if k.startswith(prefix)]:
            del table[key]
        table.update(expected)
        reference[args.size] = dict(sorted(table.items()))
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return expected


def check_digests(ops, expected):
    for op in ops:
        for key, value in op.digests.items():
            if key not in expected:
                op.problems.append(f"no reference digest for {key}")
            elif value != expected[key]:
                op.problems.append(f"digest of {key} differs from the reference")


def summarize(samples: list) -> dict:
    """The median of the samples, with n, min, median and max."""
    return {"value": statistics.median(samples), "n": len(samples), "min": min(samples),
            "median": statistics.median(samples), "max": max(samples)}


def end_to_end(workload, passes, setup_times, peak_rss_mb) -> dict:
    """Run-level end-to-end metrics: medians of the set-up times and per-pass samples."""
    out = {"setup_s": summarize(setup_times), "peak_rss_mb": summarize([peak_rss_mb])}
    samples = {"wall_s": workload.wall_samples(passes)}
    for _, _, metrics in passes:
        for key, value in metrics.items():
            samples.setdefault(key, []).append(value)
    for key, values in samples.items():
        if values:
            out[key] = summarize(values)
    return out


def report(name, metrics, units, attempted, failed, failures, spec_names, trace, speeds):
    """Human-readable lines, then the JSON result line."""
    print(f"# workload {name}, trace {trace}")
    print(f"# host speed factor (raw times are scaled by it to reference speed): "
          f"median {statistics.median(speeds):.4g} min {min(speeds):.4g} "
          f"max {max(speeds):.4g} n={len(speeds)}")
    for key, m in metrics.items():
        print(f"{name:12s} {key:40s} {m['value']:14.6g} {units[key]:14s} "
              f"n={m['n']} min={m['min']:.6g} median={m['median']:.6g} max={m['max']:.6g}")
    print(f"{name:12s} {'error_rate':40s} {failed / attempted:14.6g} {'failed/attempted':14s} "
          f"{failed} of {attempted}")
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    missing = [k for k in spec_names if k not in metrics]
    for key in missing:
        print(f"FAILED no samples for {key}: every operation it is taken from failed",
              file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k]["value"] if k in metrics else 0.0,
                        "unit": units[k]} for k in spec_names},
    }))


def pin_to_one_cpu():
    """Bind this process (and the set-up probes it starts) to its highest-numbered CPU.

    Left free to migrate, a single-threaded run on a small shared VM picks up
    bursts of millisecond stalls that come and go with load elsewhere and
    dominate run-to-run spread; bound to one CPU they mostly disappear.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_workload(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = HERE / "_out"
    work = out / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload, (workloads, tracing, calibrations), own_setup = setup(
            args.workload, args.seed, args.size, work)
        if args.probe_setup:
            print(own_setup)
            return
        calibration = calibrations.Calibration()
        setup_times = [at_reference_speed(own_setup, calibration)]
        if args.trace == 0:
            setup_times += probe_setup_times(args, calibration)

        workloads.clock = calibration
        calibration.start()
        try:
            if args.trace == 0:
                passes = run_passes(workload, args.seconds)
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            else:
                untraced = run_passes(workload, args.seconds / 2)
                # chunks run inside traced operations would show in their spans
                calibration.stop()
                tracer = tracing.Tracer()
                tracer.install()
                traced, per_pass = [], []
                try:
                    for index in range(len(untraced)):
                        tracer.run_id += 1
                        traced.append(run_pass(workload, index))
                        per_pass.append(tracer.collect())
                finally:
                    tracer.uninstall()
                tracer.save(out / f"trace-{args.workload}-seed{args.seed}.npz")
                passes = untraced + traced
        finally:
            calibration.stop()
            workloads.clock = workloads.WallClock()

        verification = workload.verification()
        expected = expected_digests(args, workload, passes, verification)
        all_ops = [op for ops, _, _ in passes for op in ops] + verification
        check_digests(all_ops, expected)
        failures = [f"{op.name}: {'; '.join(op.problems)}" for op in all_ops if op.problems]

        if args.trace == 0:
            metrics = end_to_end(workload, passes, setup_times, peak_rss_mb)
            units = UNITS
            names = [m["name"] for m in spec["end_to_end"]]
        else:
            metrics = {k: summarize([p[k] for p in per_pass]) for k in per_pass[0]}
            # traced pass k repeats the work of untraced pass k
            metrics["trace.overhead_ratio"] = summarize(
                [t[1] / u[1] for t, u in zip(traced, untraced)])
            units = tracing.per_layer_units()
            names = [m["name"] for m in spec["per_layer"]]
        report(args.workload, metrics, units, len(all_ops), len(failures), failures, names,
               args.trace, [op.speed for ops, _, _ in passes for op in ops])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args):
    """Each workload in its own process, so peak RSS and set-up stay per workload."""
    results = {}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))


def main(argv=None):
    args = parse_args(argv)
    pin_to_one_cpu()
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
