"""Smoke test of the benchmark harness.

    python3 perfbench/smoke.py

Runs every workload at minimal size, untraced and traced, and checks that
each named metric is printed with its unit and that the result line
follows BENCHMARK.json. It also checks that a wrong reference digest is
counted as a failed operation, and that the harness refuses to run without
the package source. Exits non-zero on the first broken expectation.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

# Metrics each workload reports beyond those every workload reports.
OWN_METRICS = {
    "flagship": ["rounds_per_s.push_diging", "rounds_per_s.subgradient_push",
                 "rounds_per_s.ab_pushpull"],
    "sealed_wide": ["time_to_tol_s"],
    "audit": ["privacy_s", "certify_s"],
}
COMMON = ["setup_s", "wall_s", "rounds_per_s.algorithm1", "peak_rss_mb"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--size", "smoke",
                           "--seconds", "1", *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def expect(ok, what):
    if not ok:
        sys.exit(f"smoke: {what}")


def result_of(proc, label):
    expect(proc.returncode == 0, f"{label} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, spec_key, label):
    names = {m["name"]: m["unit"] for m in SPEC[spec_key]}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    expect(set(result["metrics"]) == set(names), f"{label}: metric names")
    for name, m in result["metrics"].items():
        expect(m["unit"] == names[name], f"{label}: unit of {name}")


def copy_tree(dest: Path, with_source: bool) -> Path:
    """A checkout-like copy of the benchmark, with or without the package source."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("_out", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)
    return dest


def main():
    for name, own in OWN_METRICS.items():
        lines, result = result_of(bench("--workload", name), name)
        check_result(result, "end_to_end", name)
        expect(result["correct"] and result["failed"] == 0, f"{name}: outputs not correct")
        printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith(name)}
        for metric in COMMON + own:
            expect(printed.get(metric) == run.UNITS[metric], f"{name}: {metric} not printed")
        expect(printed.get("error_rate") == "failed/attempted", f"{name}: error_rate")

        lines, result = result_of(bench("--workload", name, "--trace", "1"), f"{name} traced")
        check_result(result, "per_layer", f"{name} traced")
        expect(result["correct"], f"{name}: traced digests differ from untraced")
        seals = result["metrics"]["channel.seal.calls"]["value"]
        expect((seals == 0) == (name == "flagship"), f"{name}: channel.seal.calls is {seals}")
        print(f"smoke: {name} ok")

    out = HERE / "_out"
    planted = copy_tree(out / "wrong-reference", with_source=True)
    path = planted / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    reference["smoke"]["flagship/converge_algorithm1.csv"] = "0" * 64
    path.write_text(json.dumps(reference))
    proc = bench("--workload", "flagship", cwd=planted)
    shutil.rmtree(planted)
    _, result = result_of(proc, "wrong digest")
    expect(not result["correct"] and result["failed"] >= 1,
           "a wrong reference digest was not counted as a failed operation")
    print("smoke: wrong reference digest counted as failed")

    bare = copy_tree(out / "bare", with_source=False)
    proc = bench("--workload", "flagship", cwd=bare)
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "the harness ran without the package source")
    print("smoke: refuses to run without src/")


if __name__ == "__main__":
    main()
