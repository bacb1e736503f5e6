"""Curious-neighbor and eavesdropper simulations against recorded runs.

The curious neighbor is a protocol-compliant agent j that keeps every triple
it legitimately receives from a target i: the scaled state (J_y), the scaled
tracker (J_s), and the scaled mass (J_w). Combined with knowledge of the
update rules, those triples let it set up linear systems over the target's
gradients. How far those systems pin the gradients down depends on when the
target had a neighbor other than j; the three canonical topologies are
labelled scenarios "a", "b", and "c" below, from safest to fully exposed.

The eavesdropper never holds the key. Its report checks that nothing of the
framed plaintext survives into the ciphertext bytes it can see.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import HEADER_SIZE, KIND_S, KIND_W, KIND_Y, NONCE_SIZE

_SAMPLER_STREAM = 41

RANK_TOL = 1e-9


class ScenarioMismatchError(ValueError):
    """The captured view lacks the messages the requested analysis assumes."""


@dataclass(frozen=True)
class JTriple:
    """Everything agent j receives from target i in round k."""

    k: int
    j_y: np.ndarray
    j_s: np.ndarray
    j_w: float


@dataclass
class AdversaryView:
    """The §-enumerated exploitable information of a curious neighbor.

    Holds only what agent j would see: triples addressed to it, plus its own
    local quantities. No other agent's state enters this object.
    """

    adversary: int
    target: int
    triples: dict = field(default_factory=dict)  # k -> JTriple
    own_states: dict = field(default_factory=dict)

    @property
    def rounds(self):
        return sorted(self.triples)

    def triple(self, k: int) -> JTriple:
        try:
            return self.triples[k]
        except KeyError:
            raise ScenarioMismatchError(
                f"adversary {self.adversary} holds no triple from {self.target} at k={k}"
            ) from None


@dataclass
class InferenceReport:
    scenario: str
    adversary: int
    target: int
    recovered: dict = field(default_factory=dict)  # quantity -> {k: value}
    gradient_matrix: np.ndarray | None = None
    gradient_rhs: np.ndarray | None = None
    unknown_rounds: tuple = ()
    dim: int = 1
    rank: int | None = None
    dof: int | None = None
    consistency_residual: float | None = None
    samples: np.ndarray | None = None
    distances: np.ndarray | None = None
    distance_stats: dict = field(default_factory=dict)

    def recovered_series(self, name: str) -> dict:
        return self.recovered.get(name, {})


def capture_view(messages, adversary: int, target: int, own_states=None) -> AdversaryView:
    """Collect the triples j received from i out of a run's message log.

    A round contributes a triple only once all three kinds arrived. A target
    that never sent to j yields an empty view, which downstream analyses
    reject as a scenario mismatch.
    """
    partial = {}
    for rec in messages:
        if rec.sender != target or rec.receiver != adversary:
            continue
        slot = partial.setdefault(rec.k, {})
        slot[rec.kind] = rec.data
    view = AdversaryView(adversary=adversary, target=target, own_states=own_states or {})
    for k, slot in partial.items():
        if set(slot) != {KIND_Y, KIND_S, KIND_W}:
            continue
        view.triples[k] = JTriple(
            k=k,
            j_y=np.array(slot[KIND_Y]),
            j_s=np.array(slot[KIND_S]),
            j_w=slot[KIND_W][0],
        )
    return view


def _recover_states_from_unit_mass(view: AdversaryView, K: int):
    """Masses, states, and trackers of the target for rounds 1..K.

    Uses the fact that the target's mass is exactly one when round-1
    messages are built, and that with j as the only neighbor the mass
    afterwards just sheds what it sends: w(k+1) = w(k) - J_w(k).
    """
    w = {1: 1.0}
    for k in range(1, K):
        w[k + 1] = w[k] - view.triple(k).j_w
    a = {}
    y = {}
    s = {}
    for k in range(1, K + 1):
        t = view.triple(k)
        a[k] = t.j_w / w[k]
        y[k] = t.j_y / a[k]
        s[k] = t.j_s / a[k]
    return w, a, y, s


def _difference_rhs(view: AdversaryView, s: dict, K: int) -> dict:
    """Per-round gradient increments c_k = g(k+1) - g(k) implied by the tracker."""
    return {k: s[k + 1] - s[k] + view.triple(k).j_s for k in range(1, K)}


def _chain_matrix(K: int, d: int):
    """The (K-1)d x Kd block-difference matrix of g(k+1) - g(k) = c_k."""
    a = np.zeros(((K - 1) * d, K * d))
    for k in range(K - 1):
        rows = slice(k * d, (k + 1) * d)
        a[rows, k * d : (k + 1) * d] = -np.eye(d)
        a[rows, (k + 1) * d : (k + 2) * d] = np.eye(d)
    return a


def _rank_and_dof(a: np.ndarray):
    sv = np.linalg.svd(a, compute_uv=False)
    tol = RANK_TOL * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > tol))
    return rank, a.shape[1] - rank


def infer_states_scenario_b(view: AdversaryView, K: int) -> InferenceReport:
    """Worst-case analysis when the target's last outside contact was round 0.

    The target's intermediate quantities for rounds 1..K are identified
    exactly, and the gradients satisfy a chain of (K-1)d equations in Kd
    unknowns. The report carries that system; its nullity is what keeps the
    gradients themselves out of reach.
    """
    if K < 2:
        raise ValueError("need K >= 2 rounds of recovered trackers")
    need = [k for k in range(K + 1) if k not in view.triples]
    if need:
        raise ScenarioMismatchError(f"missing triples for rounds {need}")
    d = view.triples[1].j_y.shape[0]
    w, a, y, s = _recover_states_from_unit_mass(view, K)
    c = _difference_rhs(view, s, K)

    matrix = _chain_matrix(K, d)
    rhs = np.concatenate([c[k] for k in range(1, K)]) if K > 1 else np.zeros(0)
    rank, dof = _rank_and_dof(matrix)

    return InferenceReport(
        scenario="b",
        adversary=view.adversary,
        target=view.target,
        recovered={"w": w, "a": a, "y": y, "s": s},
        gradient_matrix=matrix,
        gradient_rhs=rhs,
        unknown_rounds=tuple(range(1, K + 1)),
        dim=d,
        rank=rank,
        dof=dof,
    )


def infer_scenario_a(view: AdversaryView, K: int) -> InferenceReport:
    """Analysis when the target kept an outside neighbor through rounds 0 and 1.

    Only the round-1 estimate leaks (its mass is known to be one), and the
    gradient system is generously under-determined: the adversary cannot
    even identify the trackers, so each round contributes unknowns faster
    than equations.
    """
    if K < 2:
        raise ValueError("need K >= 2")
    need = [k for k in range(K + 1) if k not in view.triples]
    if need:
        raise ScenarioMismatchError(f"missing triples for rounds {need}")
    t1 = view.triple(1)
    d = t1.j_y.shape[0]
    x1 = t1.j_y / t1.j_w  # mass is exactly one in round 1

    # Unknowns per round k=1..K: the gradient g(k) and the tracker s(k).
    # Each round k=1..K-1 yields d tracker-chain equations that now involve
    # both, s(k+1) = s(k) - J_s(k) + g(k+1) - g(k), so the system has
    # (K-1)d equations in 2Kd unknowns.
    n = 2 * K * d
    matrix = np.zeros(((K - 1) * d, n))
    rhs = np.zeros((K - 1) * d)
    for k in range(1, K):
        rows = slice((k - 1) * d, k * d)
        g_at = lambda kk: slice((kk - 1) * d, kk * d)
        s_at = lambda kk: slice(K * d + (kk - 1) * d, K * d + kk * d)
        matrix[rows, s_at(k + 1)] += np.eye(d)
        matrix[rows, s_at(k)] -= np.eye(d)
        matrix[rows, g_at(k + 1)] -= np.eye(d)
        matrix[rows, g_at(k)] += np.eye(d)
        rhs[rows] = -view.triple(k).j_s
    rank, dof = _rank_and_dof(matrix)

    return InferenceReport(
        scenario="a",
        adversary=view.adversary,
        target=view.target,
        recovered={"x": {1: x1}},
        gradient_matrix=matrix,
        gradient_rhs=rhs,
        unknown_rounds=tuple(range(1, K + 1)),
        dim=d,
        rank=rank,
        dof=dof,
    )


def infer_scenario_c(view: AdversaryView, K: int) -> InferenceReport:
    """Full gradient recovery when the adversary was always the only neighbor.

    Round 0's tracker message seeds the chain: g(1) = s(1) + J_s(0). Every
    later gradient follows by forward substitution, so privacy fails.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    need = [k for k in range(K + 1) if k not in view.triples]
    if need:
        raise ScenarioMismatchError(f"missing triples for rounds {need}")
    if K == 1:
        w = {1: 1.0}
        a1 = view.triple(1).j_w
        s = {1: view.triple(1).j_s / a1}
        g = {1: s[1] + view.triple(0).j_s}
        return InferenceReport(
            scenario="c", adversary=view.adversary, target=view.target,
            recovered={"w": w, "s": s, "g": g},
            unknown_rounds=(1,), dim=view.triples[1].j_y.shape[0], rank=None, dof=0,
        )
    d = view.triples[1].j_y.shape[0]
    w, a, y, s = _recover_states_from_unit_mass(view, K)
    c = _difference_rhs(view, s, K)
    g = {1: s[1] + view.triple(0).j_s}
    for k in range(1, K):
        g[k + 1] = g[k] + c[k]
    return InferenceReport(
        scenario="c",
        adversary=view.adversary,
        target=view.target,
        recovered={"w": w, "a": a, "y": y, "s": s, "g": g},
        unknown_rounds=tuple(range(1, K + 1)),
        dim=d,
        rank=None,
        dof=0,
    )


def attack_fixed_weight_baseline(view: AdversaryView, out_degree: int, K: int) -> InferenceReport:
    """Undo a published-weight run by dividing out 1/(out_degree + 1).

    With the scaling known, every received triple hands over the target's
    raw mass, state, and tracker, and the tracker's own update replays all
    gradients starting from g(0) = s(0). A consistency residual against the
    expected mass trajectory flags a wrong weight guess (or a target that
    was actually drawing random weights).
    """
    need = [k for k in range(K + 1) if k not in view.triples]
    if need:
        raise ScenarioMismatchError(f"missing triples for rounds {need}")
    share = 1.0 / (out_degree + 1)
    w = {}
    y = {}
    s = {}
    for k in range(K + 1):
        t = view.triple(k)
        w[k] = t.j_w / share
        y[k] = t.j_y / share
        s[k] = t.j_s / share

    # The mass starts at one and, with j the only neighbor, loses exactly
    # what it ships: both facts fail loudly under a wrong weight guess.
    residual = abs(w[0] - 1.0)
    for k in range(K):
        residual = max(residual, abs(w[k + 1] - (w[k] - view.triple(k).j_w)))

    g = {0: s[0]}
    for k in range(K):
        g[k + 1] = g[k] + s[k + 1] - s[k] + view.triple(k).j_s
    return InferenceReport(
        scenario="addopt",
        adversary=view.adversary,
        target=view.target,
        recovered={"w": w, "y": y, "s": s, "g": g},
        unknown_rounds=tuple(range(K + 1)),
        dim=view.triples[0].j_y.shape[0],
        rank=None,
        dof=0,
        consistency_residual=float(residual),
    )


def sample_gradient_solutions(report: InferenceReport, n: int, bound: float = 10.0,
                              seed: int = 0, truth: np.ndarray | None = None) -> InferenceReport:
    """Populate a report with n solutions of its gradient system.

    Solutions are the minimum-norm particular solution plus null-space
    combinations with coefficients uniform on [-bound, bound]. When the true
    gradient sequence is supplied, each sample gets the summed relative
    Euclidean distance to it.
    """
    if report.gradient_matrix is None:
        raise ValueError("report carries no gradient system")
    if report.dof is None or report.dof < 1:
        raise ValueError("system has a unique solution; nothing to sample")
    a = report.gradient_matrix
    rhs = report.gradient_rhs
    particular, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    _, sv, vt = np.linalg.svd(a)
    tol = RANK_TOL * (sv[0] if sv.size else 1.0)
    rank = int(np.sum(sv > tol))
    null_basis = vt[rank:].T  # columns span the solution space's directions

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_SAMPLER_STREAM,)))
    coeffs = rng.uniform(-bound, bound, size=(n, null_basis.shape[1]))
    samples = particular[None, :] + coeffs @ null_basis.T
    report.samples = samples

    if truth is not None:
        flat_truth = np.asarray(truth, dtype=float).reshape(-1)
        if flat_truth.shape[0] != a.shape[1]:
            raise ValueError("truth length does not match the unknown vector")
        d = report.dim
        per_round = flat_truth.reshape(-1, d)
        norms = np.linalg.norm(per_round, axis=1)
        diffs = (samples - flat_truth[None, :]).reshape(n, -1, d)
        distances = (np.linalg.norm(diffs, axis=2) / norms[None, :]).sum(axis=1)
        report.distances = distances
        report.distance_stats = {
            "min": float(distances.min()),
            "max": float(distances.max()),
            "mean": float(distances.mean()),
            "var": float(distances.var()),
        }
    return report


def gradient_ground_truth(x_series, problem, agent: int, rounds) -> np.ndarray:
    """Stacked true gradients of one agent along a recorded trajectory."""
    return np.stack([problem.gradient(agent, x_series[k][agent - 1]) for k in rounds])


@dataclass
class EavesdropperReport:
    messages: int
    windows_checked: int
    substring_hits: int
    repeated_payloads: int
    repeated_with_distinct_ciphertext: int
    hex_dump: str


def eavesdropper_report(messages, dump_limit: int = 3) -> EavesdropperReport:
    """What a wiretap learns from sealed traffic: nothing recognizable.

    Scans every 8-byte window of every framed plaintext against every
    encrypted byte stream (ciphertext and tag; the clear routing header
    and the counter nonce are framing metadata that carry no payload and
    are excluded). Also confirms that identical payloads never reuse a
    ciphertext.
    """
    if not messages:
        raise ValueError("no messages captured")
    sealed = []
    for rec in messages:
        if rec.cipher is None:
            raise ValueError("encryption was off; eavesdropping analysis does not apply")
        sealed.append(rec.cipher[HEADER_SIZE + NONCE_SIZE :])

    window = 8
    cipher_windows = set()
    for blob in sealed:
        for off in range(len(blob) - window + 1):
            cipher_windows.add(blob[off : off + window])

    hits = 0
    checked = 0
    for rec in messages:
        plain = rec.plain
        for off in range(len(plain) - window + 1):
            checked += 1
            if plain[off : off + window] in cipher_windows:
                hits += 1

    counts = Counter()
    by_payload = {}
    for rec, blob in zip(messages, sealed):
        payload = rec.plain[HEADER_SIZE:]
        counts[payload] += 1
        by_payload.setdefault(payload, set()).add(blob)
    repeated = 0
    distinct = 0
    for p, blobs in by_payload.items():
        if counts[p] >= 2:
            repeated += 1
            if len(blobs) == counts[p]:
                distinct += 1

    from .channel import hex_dump_pair

    dumps = []
    for rec in messages[:dump_limit]:
        dumps.append(
            f"k={rec.k} {rec.sender}->{rec.receiver} kind={rec.kind}\n"
            + hex_dump_pair(rec.plain, rec.cipher)
        )
    return EavesdropperReport(
        messages=len(messages),
        windows_checked=checked,
        substring_hits=hits,
        repeated_payloads=repeated,
        repeated_with_distinct_ciphertext=distinct,
        hex_dump="\n\n".join(dumps),
    )


def report_to_text(report: InferenceReport) -> str:
    """Structured text export of an inference report."""
    lines = [
        f"scenario: {report.scenario}",
        f"adversary: {report.adversary}",
        f"target: {report.target}",
        f"dimension: {report.dim}",
        f"rank: {report.rank}",
        f"dof: {report.dof}",
    ]
    if report.consistency_residual is not None:
        lines.append(f"consistency_residual: {report.consistency_residual!r}")
    for name in sorted(report.recovered):
        series = report.recovered[name]
        for k in sorted(series):
            val = series[k]
            if isinstance(val, np.ndarray):
                body = " ".join(repr(float(v)) for v in np.atleast_1d(val))
            else:
                body = repr(float(val))
            lines.append(f"recovered {name} {k} {body}")
    for key in sorted(report.distance_stats):
        lines.append(f"distance_{key}: {report.distance_stats[key]!r}")
    return "\n".join(lines) + "\n"
