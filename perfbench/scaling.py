"""On-demand m-scaling report; not one of the gated workloads.

    python3 perfbench/scaling.py

Times sealed and plain runs of the private algorithm on the randomly
activated exponential digraph of the `sealed_wide` workload at
m = 6, 24, 48 and 96, for a short fixed round count with no stopping
rule, and prints ms/round (median of the repeats) beside the machine and
package facts. perfbench/scaling_report.txt holds one recorded output.
"""
from __future__ import annotations

import os
import platform
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads, finds the checkout's src/)

AGENTS = (6, 24, 48, 96)
ROUNDS = 30
REPEATS = 3
SEED = 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    run.pin_to_one_cpu()
    workloads, _, _ = run.import_package()
    import cryptography
    import mpmath
    import numpy as np
    from cipheropt import engine, graphs, objectives
    from cipheropt.mixing import MixingParams

    print(f"nproc {os.cpu_count()}")
    print(f"cpu {cpu_model()}")
    print(f"python {platform.python_version()}")
    print(f"numpy {np.__version__}")
    print(f"cryptography {cryptography.__version__}")
    print(f"mpmath {mpmath.__version__}")
    print(f"rounds {ROUNDS}, repeats {REPEATS}, seed {SEED}")
    print(f"{'m':>4} {'edges':>6} {'plain_ms/round':>15} {'sealed_ms/round':>16} {'ratio':>6}")
    for m in AGENTS:
        problem = objectives.problem_from_instance(objectives.generate_sensor_fusion(
            m=m, s=3, d=2, omega=0.01, seed=workloads.FLAGSHIP_INSTANCE))
        base = workloads.exponential_digraph(m)
        schedule = graphs.RandomActivationSchedule(base, 0.9, workloads.activation_seed(SEED, 0))
        per_round = {}
        for encryption in (False, True):
            config = engine.RunConfig(step_size=1e-3, horizon=ROUNDS,
                                      encryption=encryption, seed=SEED)
            ops = [workloads.timed("run", engine.run, problem, schedule,
                                   MixingParams(c0=0.5 / m), config)
                   for _ in range(REPEATS)]
            for op in ops:
                if op.problems:
                    sys.exit(f"error: m={m}: {'; '.join(op.problems)}")
            per_round[encryption] = statistics.median(op.seconds for op in ops) / ROUNDS * 1e3
        print(f"{m:>4} {len(base.edges):>6} {per_round[False]:>15.3f} {per_round[True]:>16.3f} "
              f"{per_round[True] / per_round[False]:>6.2f}")


if __name__ == "__main__":
    main()
