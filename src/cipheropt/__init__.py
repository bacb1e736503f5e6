"""Privacy-preserving decentralized optimization over time-varying digraphs.

Agents minimize a sum of local strongly convex costs by exchanging
AES-256-GCM encrypted push-sum gradient-tracking messages. Subpackages:
graphs (communication schedules), mixing (column-stochastic weights),
objectives (sensor-fusion least squares), channel (wire format and
encryption), engine (the simulator and baselines), adversary
(honest-but-curious inference), theory (convergence certificates),
cli (experiment harness).
"""

from .channel import PlainPayload, SharedKey, TamperError
from .engine import RunConfig, Trajectory, run, run_baseline, run_baseline_trials, run_trials
from .graphs import (
    DirectedGraph,
    RandomActivationSchedule,
    ScriptedSchedule,
    StaticSchedule,
    certify_uniform_connectivity,
    load_graph_file,
    save_graph_file,
)
from .mixing import MixingParams
from .objectives import (
    GlobalProblem,
    generate_sensor_fusion,
    optimal_solution,
    problem_from_instance,
    with_noise,
)
from .theory import build_constants, theorem1_certificate

__version__ = "0.1.0"

__all__ = [
    "DirectedGraph",
    "GlobalProblem",
    "MixingParams",
    "PlainPayload",
    "RandomActivationSchedule",
    "RunConfig",
    "ScriptedSchedule",
    "SharedKey",
    "StaticSchedule",
    "TamperError",
    "Trajectory",
    "build_constants",
    "certify_uniform_connectivity",
    "generate_sensor_fusion",
    "load_graph_file",
    "optimal_solution",
    "problem_from_instance",
    "run",
    "run_baseline",
    "run_baseline_trials",
    "run_trials",
    "save_graph_file",
    "theorem1_certificate",
    "with_noise",
    "__version__",
]
