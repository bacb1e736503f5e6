"""Curious-neighbor and eavesdropper simulations against recorded runs.

The curious neighbor is a protocol-compliant agent j that keeps every triple
it legitimately receives from a target i: the scaled state (J_y), the scaled
tracker (J_s), and the scaled mass (J_w). Its view holds them as round-indexed
arrays, row k for round k, with a mask of the rounds whose triple arrived in
full. Combined with knowledge of the update rules, those triples let it set
up linear systems over the target's gradients. How far those systems pin the
gradients down depends on when the target had a neighbor other than j; the
three canonical topologies are labelled scenarios "a", "b", and "c" below,
from safest to fully exposed.

The eavesdropper never holds the key. Its report checks that nothing of the
framed plaintext survives into the ciphertext bytes it can see.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .channel import HEADER_SIZE, KIND_S, KIND_W, KIND_Y, NONCE_SIZE, hex_dump_pair
from .streams import STREAMS, check_width, keyed_rng

RANK_TOL = 1e-9


class ScenarioMismatchError(ValueError):
    """The captured view lacks the messages the requested analysis assumes."""


@dataclass
class AdversaryView:
    """The §-enumerated exploitable information of a curious neighbor.

    Holds only what agent j would see: row k of `j_y`, `j_s` (rounds, d) and
    `j_w` (rounds,) is the triple target i sent it in round k, and `held[k]`
    says all three arrived (a row not held is NaN). No other agent's state
    enters this object.
    """

    adversary: int
    target: int
    j_y: np.ndarray
    j_s: np.ndarray
    j_w: np.ndarray
    held: np.ndarray

    def require(self, K: int):
        """ScenarioMismatchError unless a triple arrived in every round 0..K."""
        need = [k for k in range(K + 1) if k >= len(self.held) or not self.held[k]]
        if need:
            raise ScenarioMismatchError(f"missing triples for rounds {need}")


@dataclass
class InferenceReport:
    scenario: str
    adversary: int
    target: int
    rounds: tuple = ()  # the round of each row of every recovered series
    recovered: dict = field(default_factory=dict)  # quantity -> array, one row per round
    gradient_matrix: np.ndarray | None = None
    gradient_rhs: np.ndarray | None = None
    dim: int = 1
    rank: int | None = None
    dof: int | None = None
    consistency_residual: float | None = None
    samples: np.ndarray | None = None
    distances: np.ndarray | None = None
    distance_stats: dict = field(default_factory=dict)

    def recovered_series(self, name: str) -> dict:
        return dict(zip(self.rounds, self.recovered.get(name, ())))


def capture_view(messages, adversary: int, target: int) -> AdversaryView:
    """Collect the triples j received from i out of a run's message log.

    A round is held only once all three kinds arrived. A target that never
    sent to j yields an empty view, which downstream analyses reject as a
    scenario mismatch.
    """
    sent = {KIND_Y: {}, KIND_S: {}, KIND_W: {}}
    for rec in messages:
        if rec.sender == target and rec.receiver == adversary:
            sent[rec.kind][rec.k] = rec.data
    full = sorted(sent[KIND_Y].keys() & sent[KIND_S].keys() & sent[KIND_W].keys())
    rows = full[-1] + 1 if full else 0
    d = len(sent[KIND_Y][full[0]]) if full else 0
    held = np.zeros(rows, dtype=bool)
    held[full] = True
    j_y, j_s, j_w = np.full((rows, d), np.nan), np.full((rows, d), np.nan), np.full(rows, np.nan)
    j_y[full] = [sent[KIND_Y][k] for k in full]
    j_s[full] = [sent[KIND_S][k] for k in full]
    j_w[full] = [sent[KIND_W][k][0] for k in full]
    return AdversaryView(adversary, target, j_y, j_s, j_w, held)


def _peel(view: AdversaryView, K: int):
    """Masses, weights, states, trackers of the target for rounds 1..K, and the
    gradient increments c_k = g(k+1) - g(k) for k = 1..K-1, one row per round.

    Uses the fact that the target's mass is exactly one when round-1
    messages are built, and that with j as the only neighbor the mass
    afterwards just sheds what it sends: w(k+1) = w(k) - J_w(k).
    """
    w = np.cumsum(np.concatenate([[1.0], -view.j_w[1:K]]))
    a = view.j_w[1 : K + 1] / w
    y = view.j_y[1 : K + 1] / a[:, None]
    s = view.j_s[1 : K + 1] / a[:, None]
    return w, a, y, s, s[1:] - s[:-1] + view.j_s[1:K]


def _chain_matrix(K: int, d: int):
    """The (K-1)d x Kd block-difference matrix of g(k+1) - g(k) = c_k."""
    a = np.zeros(((K - 1) * d, K * d))
    for k in range(K - 1):
        rows = slice(k * d, (k + 1) * d)
        a[rows, k * d : (k + 1) * d] = -np.eye(d)
        a[rows, (k + 1) * d : (k + 2) * d] = np.eye(d)
    return a


def _rank(sv: np.ndarray) -> int:
    """How many of the descending singular values `sv` exceed RANK_TOL times the largest."""
    return int(np.sum(sv > RANK_TOL * (sv[0] if sv.size else 1.0)))


def _rank_and_dof(a: np.ndarray):
    rank = _rank(np.linalg.svd(a, compute_uv=False))
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
    view.require(K)
    d = view.j_y.shape[1]
    w, a, y, s, c = _peel(view, K)
    matrix = _chain_matrix(K, d)
    rank, dof = _rank_and_dof(matrix)

    return InferenceReport(
        scenario="b",
        adversary=view.adversary,
        target=view.target,
        rounds=tuple(range(1, K + 1)),
        recovered={"w": w, "a": a, "y": y, "s": s},
        gradient_matrix=matrix,
        gradient_rhs=c.reshape(-1),
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
    view.require(K)
    d = view.j_y.shape[1]
    x1 = view.j_y[1:2] / view.j_w[1]  # mass is exactly one in round 1

    # Unknowns per round k=1..K: the gradient g(k) and the tracker s(k).
    # Each round k=1..K-1 yields d tracker-chain equations that now involve
    # both, s(k+1) - s(k) - (g(k+1) - g(k)) = -J_s(k), so the system is
    # [-C | C] with C the chain matrix: (K-1)d equations in 2Kd unknowns.
    chain = _chain_matrix(K, d) + 0.0  # + 0.0 and 0.0 - leave no -0.0 entry
    matrix = np.hstack([0.0 - chain, chain])
    rank, dof = _rank_and_dof(matrix)

    return InferenceReport(
        scenario="a",
        adversary=view.adversary,
        target=view.target,
        rounds=(1,),
        recovered={"x": x1},
        gradient_matrix=matrix,
        gradient_rhs=-view.j_s[1:K].reshape(-1),
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
    view.require(K)
    w, a, y, s, c = _peel(view, K)
    g = np.cumsum(np.concatenate([s[:1] + view.j_s[:1], c]), axis=0)
    return InferenceReport(scenario="c", adversary=view.adversary, target=view.target,
                           rounds=tuple(range(1, K + 1)),
                           recovered={"w": w, "a": a, "y": y, "s": s, "g": g},
                           dim=view.j_y.shape[1], dof=0)


def attack_fixed_weight_baseline(view: AdversaryView, out_degree: int, K: int) -> InferenceReport:
    """Undo a published-weight run by dividing out 1/(out_degree + 1).

    With the scaling known, every received triple hands over the target's
    raw mass, state, and tracker, and the tracker's own update replays all
    gradients starting from g(0) = s(0). A consistency residual against the
    expected mass trajectory flags a wrong weight guess (or a target that
    was actually drawing random weights); a NaN anywhere makes it NaN.
    """
    view.require(K)
    share = 1.0 / (out_degree + 1)
    w = view.j_w[: K + 1] / share
    y = view.j_y[: K + 1] / share
    s = view.j_s[: K + 1] / share

    # The mass starts at one and, with j the only neighbor, loses exactly
    # what it ships: both facts fail loudly under a wrong weight guess.
    residual = np.max(np.abs(np.concatenate([w[:1] - 1.0, w[1:] - (w[:-1] - view.j_w[:K])])))

    g = np.empty_like(s)
    g[0] = s[0]
    for k in range(K):  # regrouping this sum would move bits
        g[k + 1] = g[k] + s[k + 1] - s[k] + view.j_s[k]
    return InferenceReport(
        scenario="addopt",
        adversary=view.adversary,
        target=view.target,
        rounds=tuple(range(K + 1)),
        recovered={"w": w, "y": y, "s": s, "g": g},
        dim=view.j_y.shape[1],
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
    Euclidean distance to it. `bound` is put to `check_width`, n must be at least 1.
    """
    bound = check_width("bound", bound)
    if n < 1:
        raise ValueError(f"need at least one sample, got n={n}")
    if report.gradient_matrix is None:
        raise ValueError("report carries no gradient system")
    if report.dof is None or report.dof < 1:
        raise ValueError("system has a unique solution; nothing to sample")
    a = report.gradient_matrix
    rhs = report.gradient_rhs
    particular, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    _, sv, vt = np.linalg.svd(a)
    null_basis = vt[_rank(sv):].T  # columns span the solution space's directions

    rng = keyed_rng(seed, STREAMS["sampler"])
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
    return problem.gradients(np.asarray(x_series)[list(rounds)])[:, agent - 1]


@dataclass
class EavesdropperReport:
    messages: int
    windows_checked: int
    substring_hits: int
    repeated_payloads: int
    repeated_with_distinct_ciphertext: int
    hex_dump: str


_WINDOW = 8  # bytes the eavesdropper matches at a time
_DUMPS = 3  # messages the report shows as hex


def _windows(blobs) -> np.ndarray:
    """Every `_WINDOW`-byte window that lies inside one of `blobs`, read as a
    little-endian uint64, in order (a window spanning two blobs is dropped)."""
    joined = b"".join(blobs)
    count = len(joined) - _WINDOW + 1
    if count <= 0:
        return np.empty(0, dtype="<u8")
    view = np.ndarray((count,), dtype="<u8", buffer=joined, strides=(1,))  # no copy
    ends = np.cumsum([len(blob) for blob in blobs])
    spanning = (ends[:, None] - np.arange(1, _WINDOW)).ravel()
    inside = np.ones(count, dtype=bool)
    inside[spanning[(spanning >= 0) & (spanning < count)]] = False
    return view[inside]


def eavesdropper_report(messages) -> EavesdropperReport:
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

    cipher_windows = _windows(sealed)
    cipher_windows.sort()
    plain_windows = _windows([rec.plain for rec in messages])
    checked = len(plain_windows)
    hits = 0
    if len(cipher_windows):
        at = np.minimum(np.searchsorted(cipher_windows, plain_windows), len(cipher_windows) - 1)
        hits = int(np.count_nonzero(cipher_windows[at] == plain_windows))

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

    dumps = [f"k={rec.k} {rec.sender}->{rec.receiver} kind={rec.kind}\n"
             + hex_dump_pair(rec.plain, rec.cipher) for rec in messages[:_DUMPS]]
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
        for k, row in zip(report.rounds, report.recovered[name].tolist()):
            body = " ".join(map(repr, row)) if isinstance(row, list) else repr(row)
            lines.append(f"recovered {name} {k} {body}")
    for key in sorted(report.distance_stats):
        lines.append(f"distance_{key}: {report.distance_stats[key]!r}")
    return "\n".join(lines) + "\n"
