"""Local objective functions and the sensor-fusion problem generator.

The shipped objective is the regularized least-squares form
f_i(x) = ||z_i - M_i x||^2 + omega_i ||x||^2, which is smooth and strongly
convex with constants read off the Gram matrix of M_i. It is the only
objective the package supports: `optimal_solution`, which every residual is
measured against, solves the normal equations of these quadratics and
rejects anything else.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .streams import (STREAMS, check_count, check_positive, check_seed, keyed_rng, put_once,
                      read_lines, write_lines)


class QuadraticSensorObjective:
    """f(x) = ||z - M x||^2 + omega ||x||^2 with analytic gradient and curvature."""

    def __init__(self, measurement, observation, omega):
        self.measurement = np.asarray(measurement, dtype=float)
        self.observation = np.asarray(observation, dtype=float)
        if self.measurement.ndim != 2:
            raise ValueError("measurement matrix must be 2-d")
        if self.observation.shape != (self.measurement.shape[0],):
            raise ValueError("observation length must match measurement rows")
        if not omega > 0:
            raise ValueError("regularization must be positive")
        self.omega = float(omega)
        self.dim = self.measurement.shape[1]
        gram = self.measurement.T @ self.measurement
        eigs = np.linalg.eigvalsh(gram)
        self.lipschitz = 2.0 * (float(eigs[-1]) + self.omega)
        self.strong_convexity = 2.0 * (float(eigs[0]) + self.omega)

    def value(self, x):
        x = self._check(x)
        r = self.observation - self.measurement @ x
        return float(r @ r + self.omega * (x @ x))

    def gradient(self, x):
        x = self._check(x)
        return 2.0 * self.measurement.T @ (self.measurement @ x - self.observation) + 2.0 * self.omega * x

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        return x


@dataclass(frozen=True)
class SensorFusionInstance:
    """Per-agent measurement data plus the shared ground truth that built it."""

    omega: float
    x_tilde: np.ndarray
    measurements: tuple  # M_i, each s-by-d
    noises: tuple        # xi_i, each length s
    seed: int | None = None

    def __post_init__(self):
        if len(self.measurements) != len(self.noises):
            raise ValueError("need one noise vector per measurement matrix")

    @property
    def m(self):
        return len(self.measurements)

    @property
    def s(self):
        return self.measurements[0].shape[0]

    @property
    def d(self):
        return self.measurements[0].shape[1]

    def observation(self, i):
        """z_i = M_i x_tilde + xi_i for agent i (1-based)."""
        return self.measurements[i - 1] @ self.x_tilde + self.noises[i - 1]

    def objective(self, i) -> QuadraticSensorObjective:
        return QuadraticSensorObjective(self.measurements[i - 1], self.observation(i), self.omega)


@dataclass
class GlobalProblem:
    """A list of local objectives plus the curvature aggregates of their sum."""

    objectives: list
    l_hat: float = field(init=False)
    l_bar: float = field(init=False)
    mu_hat: float = field(init=False)
    mu_bar: float = field(init=False)
    kappa: float = field(init=False)
    _stacked: tuple | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ls = [obj.lipschitz for obj in self.objectives]
        mus = [obj.strong_convexity for obj in self.objectives]
        self.l_hat = max(ls)
        self.l_bar = sum(ls) / len(ls)
        self.mu_hat = max(mus)
        self.mu_bar = sum(mus) / len(mus)
        if not self.mu_bar > 0:
            raise ValueError("the aggregate problem must be strongly convex")
        if not np.isfinite([self.l_bar, self.mu_bar]).all():
            raise ValueError(f"the aggregate curvature must be finite, got L = {self.l_bar!r} "
                             f"and mu = {self.mu_bar!r}")
        self.kappa = self.l_hat / self.mu_bar
        self._stacked = None
        if all(isinstance(obj, QuadraticSensorObjective) for obj in self.objectives) and len(
                {obj.measurement.shape for obj in self.objectives}) == 1:
            self._stacked = (
                np.stack([obj.measurement for obj in self.objectives]),
                np.stack([2.0 * obj.measurement for obj in self.objectives]).transpose(0, 2, 1),
                np.stack([obj.observation for obj in self.objectives]),
                np.array([[2.0 * obj.omega] for obj in self.objectives]),
            )

    @property
    def m(self):
        return len(self.objectives)

    @property
    def d(self):
        return self.objectives[0].dim

    def gradient(self, i, x):
        return self.objectives[i - 1].gradient(x)

    def gradients(self, x):
        """Every local gradient at once: row i-1 is agent i's gradient at x[i-1].

        x is m-by-d, or carries leading batch axes (T, m, d). Quadratic
        objectives of one shape go through two batched matmuls, which run
        the same BLAS product per agent as `gradient` does, so the rows are
        bit-identical to it (einsum's are not).
        """
        if self._stacked is None:
            if x.ndim > 2:
                return np.stack([self.gradients(xb) for xb in x])
            return np.stack([self.gradient(i, x[i - 1]) for i in range(1, self.m + 1)])
        measurement, twice_transposed, observation, twice_omega = self._stacked
        r = np.matmul(measurement, x[..., None])[..., 0] - observation
        return np.matmul(twice_transposed, r[..., None])[..., 0] + twice_omega * x


def generate_sensor_fusion(m, s, d, omega, seed) -> SensorFusionInstance:
    """Draw an instance: M_i uniform on [0, 10], x_tilde uniform on [0, 1],
    unit Gaussian noise; x_tilde, then each agent's M_i and noise. Deterministic per seed."""
    m, s, d = (check_count(name, v) for name, v in (("m", m), ("s", s), ("d", d)))
    omega = check_positive("omega", omega)
    seed = check_seed("instance_seed", seed)
    rng = keyed_rng(seed, STREAMS["instance"])
    x_tilde = rng.uniform(0.0, 1.0, size=d)
    measurements, noises = zip(*((rng.uniform(0.0, 10.0, size=(s, d)), rng.standard_normal(s))
                                 for _ in range(m)))
    return SensorFusionInstance(
        omega=float(omega),
        x_tilde=x_tilde,
        measurements=measurements,
        noises=noises,
        seed=seed,
    )


def with_noise(instance: SensorFusionInstance, seed) -> SensorFusionInstance:
    """Same measurements and ground truth, freshly drawn noise.

    Used when trials redraw the observation noise while the measurement
    matrices stay pinned to the instance seed.
    """
    rng = keyed_rng(seed, STREAMS["noise"])
    noises = tuple(rng.standard_normal(instance.s) for _ in range(instance.m))
    return SensorFusionInstance(
        omega=instance.omega,
        x_tilde=instance.x_tilde,
        measurements=instance.measurements,
        noises=noises,
        seed=instance.seed,
    )


def problem_from_instance(instance: SensorFusionInstance) -> GlobalProblem:
    return GlobalProblem([instance.objective(i) for i in range(1, instance.m + 1)])


def optimal_solution(problem: GlobalProblem):
    """Unique minimizer of the summed quadratics via the normal equations."""
    d = problem.d
    lhs = np.zeros((d, d))
    rhs = np.zeros(d)
    for obj in problem.objectives:
        if not isinstance(obj, QuadraticSensorObjective):
            raise TypeError("closed-form optimum needs quadratic objectives")
        lhs += obj.measurement.T @ obj.measurement + obj.omega * np.eye(d)
        rhs += obj.measurement.T @ obj.observation
    x_star = np.linalg.solve(lhs, rhs)
    residual = np.linalg.norm(lhs @ x_star - rhs)
    if residual > 1e-10 * max(1.0, np.linalg.norm(rhs)):
        raise ArithmeticError(f"normal equations solved poorly, residual {residual}")
    return x_star


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------

def save_instance(instance: SensorFusionInstance, path):
    """Structured text, matrices row-major, full-precision decimal floats."""
    lines = [
        f"m {instance.m}",
        f"s {instance.s}",
        f"d {instance.d}",
        f"omega {float(instance.omega)!r}",
        "x_tilde " + " ".join(repr(float(v)) for v in instance.x_tilde),
    ]
    for i in range(instance.m):
        flat = instance.measurements[i].ravel()
        lines.append(f"measurement {i + 1} " + " ".join(repr(float(v)) for v in flat))
        lines.append(f"noise {i + 1} " + " ".join(repr(float(v)) for v in instance.noises[i]))
    write_lines(path, lines)


_INSTANCE_KEYS = ("m", "s", "d", "omega", "x_tilde")
_INSTANCE_ROWS = ("measurement", "noise")  # one line per agent


def load_instance(path) -> SensorFusionInstance:
    """Read an instance written by `save_instance`.

    A malformed or repeated line raises ValueError naming `path:line`, a
    missing one ValueError naming `path`.
    """
    lines = {}  # "m", ..., "measurement 1", ... -> (numbers, "path:line")
    for parts, where in read_lines(path):
        head = parts[0]
        per_agent = head in _INSTANCE_ROWS
        if not per_agent and head not in _INSTANCE_KEYS:
            raise ValueError(f"{where}: unknown key {head!r}")
        try:
            key = f"{head} {int(parts[1])}" if per_agent else head
            values = [float(v) for v in parts[1 + per_agent :]]
        except (IndexError, ValueError):
            values = []
        if not values:
            form = "<agent> <numbers>" if per_agent else "<numbers>"
            raise ValueError(f"{where}: expected '{head} {form}'")
        put_once(lines, key, values, where)

    def numbers(key, size):
        if key not in lines:
            raise ValueError(f"{path}: missing {key!r} line")
        values, where = lines[key]
        if len(values) != size:
            raise ValueError(f"{where}: {key!r} needs {size} numbers, got {len(values)}")
        return values

    def whole(key):
        (v,) = numbers(key, 1)
        if not (v.is_integer() and v >= 1):
            raise ValueError(f"{lines[key][1]}: {key} must be a positive whole number")
        return int(v)

    m, s, d = whole("m"), whole("s"), whole("d")
    return SensorFusionInstance(
        omega=numbers("omega", 1)[0],
        x_tilde=np.array(numbers("x_tilde", d)),
        measurements=tuple(np.array(numbers(f"measurement {i}", s * d)).reshape(s, d)
                           for i in range(1, m + 1)),
        noises=tuple(np.array(numbers(f"noise {i}", s)) for i in range(1, m + 1)),
    )
