"""Closed-form constants of the convergence analysis, plus trajectory checks.

The analysis chains four weighted-norm inequalities (gradient increments vs
distance to the optimum, tracker disagreement vs gradient increments, state
disagreement vs tracker disagreement, distance vs state disagreement) and
closes the loop with a small-gain argument. This module evaluates every
constant in that chain exactly as written, certifies the step-size interval
and critical decay rate, and re-checks the inequalities and the B0-step
contraction numerically on recorded trajectories.

Each constant has one derivation: the decay ladder and B0 in
`contraction_params`, the step ceiling in `_step_cap`, the decay floor in
`_decay_floor`, and the theta-weighted norms of a run in `_theta_weighted`.
Every integer power of theta is exp(n log theta), in `_pow`. A recorded run
is read in stacked passes that keep a round-by-round loop's bits: one
gradient call and one array expression per norm sequence; every round map
derived once, and all windows' chains multiplied as one stacked product per
step; and one theta-weighted pass on mpmath's kernels (`mpmath.libmp`) that
forms only the sums the lemma reads and weighs exactly only the rounds a
float screen in log space leaves in the running for a sup. Both checks
refuse a run whose recorded values they read are not finite.

Several constants overflow binary64 for realistic parameters (they stack
powers of 1/c0), so everything is computed with mpmath at a working
precision chosen from the problem size. Reported values keep full precision;
callers can cast to float when the magnitude allows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np
from mpmath.libmp import fone, from_float, fzero, mpf_add, mpf_gt, mpf_mul

from .streams import STREAMS, keyed_rng

RANK_SLACK = 1e-12
_PROBE_COLUMNS = 3  # columns of the random test matrices of `verify_contraction`


class ConstantsError(ValueError):
    """Raised when requested parameters cannot produce a valid contraction."""


def working_precision(c0: float, m: int, b: int) -> int:
    """Decimal digits needed so 1 - sigma^(mB) keeps its distance from one."""
    mag = -m * b * (2 + m * b) * math.log10(c0)
    return max(60, int(mag) + 80)


@dataclass
class TheoryConstants:
    c0: mp.mpf
    m: int
    b_tilde: int
    b: int
    b0: int
    sigma: mp.mpf
    epsilon: mp.mpf
    varepsilon: mp.mpf
    l_hat: mp.mpf
    l_bar: mp.mpf
    mu_hat: mp.mpf
    mu_bar: mp.mpf
    kappa: mp.mpf
    alpha: mp.mpf
    beta: mp.mpf
    w_inv_max_bound: mp.mpf
    dps: int


@dataclass
class Gains:
    gamma1: mp.mpf
    gamma2: mp.mpf
    gamma3: mp.mpf
    gamma4: mp.mpf

    @property
    def product(self) -> mp.mpf:
        return self.gamma1 * self.gamma2 * self.gamma3 * self.gamma4


@dataclass
class Certificate:
    consts: TheoryConstants
    c1: mp.mpf
    c2: mp.mpf
    theta0: mp.mpf
    theta_used: mp.mpf
    eta_star: mp.mpf
    eta_upper: mp.mpf
    interval_at_theta0: tuple
    gains: Gains | None
    preconditions: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return all(self.preconditions.values())


def contraction_params(c0, m: int, b: int, b0: int | None = None) -> tuple:
    """The decay ladder (b0, sigma, epsilon, varepsilon) over b0 windows.

    varepsilon is the per-B0-block contraction factor. Without b0 the
    smallest window count whose factor drops below one is taken; an explicit
    b0 that leaves it at or above one raises.
    """
    if not 0 < c0 < 1.0 / m:
        raise ConstantsError(f"c0={c0} outside (0, 1/m) for m={m}")
    if b < 1 or (b0 is not None and b0 < b):
        raise ConstantsError(f"need b0 >= b >= 1, got b={b}, b0={b0}")
    with mp.workdps(working_precision(float(c0), m, b)):
        sigma = mp.mpf(c0) ** (2 + m * b)
        smb = sigma ** (m * b)
        epsilon = 2 * m * (1 + 1 / smb) / (1 - smb)

        def factor(n):
            return epsilon * (1 - smb) ** (mp.mpf(n - 1) / (m * b))

        if b0 is None:
            threshold = 1 + m * b * mp.log(epsilon) / (-mp.log(1 - smb))
            b0 = max(b, int(mp.floor(threshold)) + 1)
            # Guard the boundary explicitly in case the closed form landed on an edge.
            while factor(b0) >= 1:
                b0 += 1
            while b0 > b and factor(b0 - 1) < 1:
                b0 -= 1
        varepsilon = factor(b0)
        if varepsilon >= 1:
            raise ConstantsError(
                f"B0 too small: b0={b0} leaves the contraction factor at "
                f"{mp.nstr(varepsilon, 8)} >= 1"
            )
        return b0, sigma, epsilon, varepsilon


def build_constants(c0, m: int, b_tilde: int, l_hat, l_bar, mu_hat, mu_bar,
                    b0: int | None = None, alpha=1.0, beta=1.0) -> TheoryConstants:
    """Assemble every analysis constant for one problem/graph pairing."""
    if mu_bar <= 0:
        raise ConstantsError("average strong convexity must be positive")
    if not all(math.isfinite(v) and v > 0 for v in (alpha, beta)):
        raise ConstantsError(f"alpha and beta must be positive and finite, got {alpha}, {beta}")
    b = 2 * b_tilde - 1
    b0, sigma, epsilon, varepsilon = contraction_params(c0, m, b, b0)
    dps = working_precision(float(c0), m, b)
    with mp.workdps(dps):
        return TheoryConstants(
            c0=mp.mpf(c0), m=m, b_tilde=b_tilde, b=b, b0=b0,
            sigma=sigma, epsilon=epsilon, varepsilon=varepsilon,
            l_hat=mp.mpf(l_hat), l_bar=mp.mpf(l_bar),
            mu_hat=mp.mpf(mu_hat), mu_bar=mp.mpf(mu_bar),
            kappa=mp.mpf(l_hat) / mp.mpf(mu_bar),
            alpha=mp.mpf(alpha), beta=mp.mpf(beta),
            w_inv_max_bound=1 / mp.mpf(c0) ** (m * b),
            dps=dps,
        )


def _step_cap(consts: TheoryConstants) -> mp.mpf:
    """The smoothness ceiling 1/((1+beta)*L_bar) on the step size."""
    return 1 / ((1 + consts.beta) * consts.l_bar)


def _decay_floor(consts: TheoryConstants, eta) -> mp.mpf:
    """The least decay rate the last inequality admits at step size eta."""
    return mp.sqrt(max(mp.mpf(0), 1 - consts.alpha * eta * consts.mu_bar / (consts.alpha + 1)))


def _pow(x, n: int) -> mp.mpf:
    """x^n as exp(n log x), at the current precision; x is a decay rate, so positive."""
    if not x > 0:
        raise ConstantsError(f"a decay rate must be positive, got {mp.nstr(x, 8)}")
    return mp.exp(n * mp.log(x))


def gain_precondition_failures(consts: TheoryConstants, theta, eta) -> list:
    """Individual violations of the conditions the gain formulas assume."""
    out = []
    with mp.workdps(max(mp.mp.dps, consts.dps)):
        theta = mp.mpf(theta)
        eta = mp.mpf(eta)
        tb0 = _pow(theta, consts.b0)
        if not consts.varepsilon < tb0:
            out.append(
                f"theta^B0 = {mp.nstr(tb0, 8)} does not exceed the contraction "
                f"factor {mp.nstr(consts.varepsilon, 8)}"
            )
        if not tb0 < 1:
            out.append("theta must lie strictly below one")
        cap = _step_cap(consts)
        if eta > cap:
            out.append(f"step size {mp.nstr(eta, 8)} exceeds 1/((1+beta)*L) = {mp.nstr(cap, 8)}")
        floor = _decay_floor(consts, eta)
        if theta < floor:
            out.append(
                f"theta = {mp.nstr(theta, 12)} is below the decay floor "
                f"{mp.nstr(floor, 12)} required at this step size"
            )
    return out


def _gains(consts: TheoryConstants, theta, eta) -> Gains:
    theta = mp.mpf(theta)
    eta = mp.mpf(eta)
    tb0 = _pow(theta, consts.b0)
    gap = tb0 - consts.varepsilon
    gamma1 = consts.l_hat * (1 + 1 / theta)
    gamma2 = consts.epsilon * consts.w_inv_max_bound * theta * (1 - tb0) / (gap * (1 - theta))
    gamma3 = eta / gap * (consts.varepsilon + consts.epsilon * (1 - _pow(theta, consts.b0 - 1)) / (1 - theta))
    gamma4 = (1 + mp.sqrt(consts.m)) * (
        1 + mp.sqrt(consts.m) / theta * mp.sqrt(
            (consts.l_hat * (1 + consts.beta) + consts.alpha * consts.beta * consts.mu_hat)
            / (consts.mu_bar * consts.beta)
        )
    )
    return Gains(gamma1, gamma2, gamma3, gamma4)


def eta_interval(consts: TheoryConstants, c2, theta) -> tuple:
    """Both ends of the admissible step-size window at a given decay rate."""
    with mp.workdps(max(mp.mp.dps, consts.dps)):
        theta = mp.mpf(theta)
        scale = (1 + 1 / consts.alpha) / consts.mu_bar
        lower = scale * (1 - _pow(theta, 2 * consts.b0))
        upper = scale * (_pow(theta, consts.b0) - consts.varepsilon) ** 2 / c2
        return lower, upper


def _c1(consts: TheoryConstants) -> mp.mpf:
    return 2 * mp.sqrt(
        (1 + consts.beta) * consts.m * consts.l_hat / (consts.beta * consts.mu_bar)
        + consts.alpha * consts.m * consts.mu_hat / consts.mu_bar
    )


def _c2(consts: TheoryConstants, c1: mp.mpf) -> mp.mpf:
    return (
        2 * consts.b0 * consts.kappa * consts.epsilon * consts.w_inv_max_bound
        * (consts.varepsilon + consts.epsilon * (consts.b0 - 1))
        * (1 + mp.sqrt(consts.m)) * (1 + 1 / consts.alpha) * (1 + c1)
    )


def _certificate_dps(consts: TheoryConstants) -> int:
    """Digits needed so theta0's distance below one survives rounding.

    1 - theta0 shrinks like (1 - varepsilon)^2 / (C2 * B0); a first pass at
    the base precision sizes those magnitudes, the real evaluation then runs
    with sixty guard digits on top.
    """
    with mp.workdps(consts.dps):
        ve = consts.varepsilon
        if ve >= 1:
            return consts.dps
        c2 = _c2(consts, _c1(consts))
        gap = max(mp.mpf(0), -mp.log10(1 - ve))
        size = max(mp.mpf(0), mp.log10(1 + c2))
        b0_digits = mp.log10(mp.mpf(consts.b0)) + 1
        return consts.dps + int(2 * gap + size + b0_digits) + 60


def theorem1_certificate(consts: TheoryConstants) -> Certificate:
    """Evaluate the convergence theorem's constants and self-check them.

    Reports C1, C2, the critical decay rate theta0, the theorem's step-size
    ceiling, and the gains at (theta0, eta_star) where eta_star is the
    single admissible step at the critical rate. The mid-proof restriction
    to theta >= 0.5 is enforced here and recorded as a note whenever it
    actually lifts theta above theta0.
    """
    with mp.workdps(_certificate_dps(consts)):
        ve = consts.varepsilon
        pre = {"varepsilon < 1": bool(ve < 1)}
        notes = []
        c1 = _c1(consts)
        c2 = _c2(consts, c1)
        theta0 = ((ve + mp.sqrt(c2 * (c2 - ve**2 + 1))) / (1 + c2)) ** (mp.mpf(1) / consts.b0)
        pre["theta0 below one"] = bool(theta0 < 1)
        pre["theta0 above varepsilon^(1/B0)"] = bool(theta0 > ve ** (mp.mpf(1) / consts.b0))

        theta_used = theta0
        if theta0 < mp.mpf("0.5"):
            theta_used = mp.mpf("0.5")
            notes.append(
                "theta0 fell below 0.5; the certificate evaluates at 0.5 because "
                "the small-gain argument assumes theta >= 0.5"
            )

        cap = _step_cap(consts)
        eta_upper = min((1 + 1 / consts.alpha) * (1 - ve) ** 2 / (consts.mu_bar * c2), cap)
        pre["positive step ceiling"] = bool(eta_upper > 0)

        # At theta0 both interval ends coincide; compare with a relative slack
        # of half the guard digits so the tangent point does not flip on the
        # last rounded digit.
        slack = 1 + mp.mpf(10) ** -(mp.mp.dps // 2)
        lo, hi = eta_interval(consts, c2, theta_used)
        pre["non-empty interval at theta_used"] = bool(lo <= hi * slack)
        eta_star = min(hi, cap)
        if eta_star * slack < lo:
            pre["non-empty interval at theta_used"] = False
            notes.append("smoothness ceiling cuts below the interval; no admissible step")

        gains = None
        failures = gain_precondition_failures(consts, theta_used, eta_star)
        if not failures:
            gains = _gains(consts, theta_used, eta_star)
            pre["gain product below one"] = bool(gains.product < 1)
        else:
            pre["gain product below one"] = False
            notes.extend(failures)

        return Certificate(
            consts=consts, c1=c1, c2=c2, theta0=theta0, theta_used=theta_used,
            eta_star=eta_star, eta_upper=eta_upper,
            interval_at_theta0=(lo, hi), gains=gains,
            preconditions=pre, notes=notes,
        )


def check_theta_b0(theta: float, b0: int) -> bool:
    """Geometric-sum bound: (1 - theta^b0)/(1 - theta) never exceeds b0."""
    if not 0 < theta < 1:
        raise ValueError("theta must lie in (0, 1)")
    if b0 < 1:
        raise ValueError("b0 must be at least 1")
    lhs = -math.expm1(b0 * math.log(theta)) / -math.expm1(math.log(theta))
    return lhs <= b0 * (1 + RANK_SLACK) + RANK_SLACK


def _centred(a) -> np.ndarray:
    """Each matrix a[..., :, :] less its mean row (its consensus component)."""
    return a - a.mean(axis=-2, keepdims=True)


def _norms(a) -> np.ndarray:
    """Each a[k]'s Frobenius norm as `np.linalg.norm` takes it, the root of one dot."""
    return np.sqrt([row.dot(row) for row in a.reshape(len(a), -1)])


def r_weighted_norm(a) -> float:
    """Frobenius norm of the row-centered matrix (consensus component removed)."""
    return float(np.linalg.norm(_centred(np.atleast_2d(np.asarray(a, dtype=float)))))


@dataclass
class ContractionReport:
    b0: int
    varepsilon: float
    rounds: list
    max_ratio: float
    consensus_residual: float
    trials: int

    @property
    def holds(self) -> bool:
        return self.max_ratio <= self.varepsilon * (1 + RANK_SLACK)


def verify_contraction(trajectory, b0: int, varepsilon, trials: int = 100,
                       rounds=None) -> ContractionReport:
    """Empirical check that b0 mixing rounds contract disagreement.

    Builds the normalized round maps Phi(k) = W(k+1)^-1 A(k) W(k) from a
    recorded run once, multiplies b0 of them ending at each sampled round
    (every window's chain one stacked product per step), and measures the
    centered-norm ratio on random matrices. A consensus matrix is pushed
    through as well; it must stay fixed up to rounding. Each of `rounds`
    must end a whole window: b0 - 1 <= round <= the last recorded round.
    A window that reads a non-finite weight or mass raises ValueError,
    naming the first such round.
    """
    if not (trajectory.config.record_weights and trajectory.config.record_states):
        raise ValueError("trajectory lacks recorded weight matrices or masses")
    mats = np.asarray(trajectory.weight_matrices)
    w = np.asarray(trajectory.w_series)
    k_max = len(mats) - 1
    if k_max < b0:
        raise ValueError(f"trajectory too short: it holds {len(mats)} recorded rounds, "
                         f"need at least {b0 + 1}")
    if rounds is None:
        rounds = sorted(set(np.linspace(b0, k_max, num=min(5, k_max - b0 + 1), dtype=int).tolist()))
    rounds = list(rounds)
    for end in rounds:
        if not b0 - 1 <= end <= k_max:
            raise ValueError(f"round {end} ends no window of {b0} recorded rounds "
                             f"(need {b0 - 1} <= round <= {k_max})")
    lo = np.array(rounds, dtype=np.intp) - (b0 - 1)
    # the window starting at round lo reads A(lo..lo+b0-1) and w(lo..lo+b0)
    bad_a = ~np.isfinite(mats).all(axis=(1, 2))
    bad_w = ~np.isfinite(w[: k_max + 2]).all(axis=1)
    bad = [start + int(np.argmax(flags)) for start in lo.tolist()
           for flags in (bad_a[start : start + b0], bad_w[start : start + b0 + 1]) if flags.any()]
    if bad:
        raise ValueError(f"recorded weights or masses of round {min(bad)} are not finite")
    m = mats.shape[1]
    phi = mats * w[: k_max + 1, None, :] / w[1 : k_max + 2, :, None]
    prods = np.broadcast_to(np.eye(m), (len(lo), m, m))
    for step in phi[lo + np.arange(b0)[:, None]]:  # step j: every window's j-th map
        prods = step @ prods
    rng = keyed_rng(0, STREAMS["probes"])
    max_ratio = consensus_residual = 0.0
    for prod in prods:
        d = rng.standard_normal((trials, m, _PROBE_COLUMNS))  # the numbers of `trials` draws
        max_ratio = max([max_ratio, *(_norms(_centred(prod @ d)) / _norms(_centred(d))).tolist()])
        ones = np.ones((m, 1)) @ rng.standard_normal((1, _PROBE_COLUMNS))
        consensus_residual = max(consensus_residual, r_weighted_norm(prod @ ones))
    return ContractionReport(
        b0=b0, varepsilon=float(varepsilon), rounds=list(rounds),
        max_ratio=float(max_ratio), consensus_residual=float(consensus_residual),
        trials=trials,
    )


NORM_ROWS = ("r", "v", "u_check", "x_check")  # the rows of `trajectory_series`


def trajectory_series(trajectory, problem) -> np.ndarray:
    """Distance, increment, and disagreement norms along a recorded run: a
    (4, K+1) array, one row per name of `NORM_ROWS`, column k round k."""
    xs = np.asarray(trajectory.x_series)
    if not len(xs):
        raise ValueError("trajectory was not recorded with full state")
    if len(xs) < 2:
        raise ValueError("trajectory holds 0 recorded rounds, need at least 1")
    grads = problem.gradients(xs)
    u = np.asarray(trajectory.s_series)[1:] / np.asarray(trajectory.w_series)[1:, :, None]
    series = np.zeros((len(NORM_ROWS), len(xs)))  # no increment or disagreement at round 0
    series[0] = _norms(xs - trajectory.x_star)
    series[1, 1:] = _norms(grads[1:] - grads[:-1])
    series[2, 1:] = _norms(_centred(u))
    series[3, 1:] = _norms(_centred(xs[1:]))
    return series


@dataclass
class LemmaCheck:
    name: str
    lhs: mp.mpf
    rhs: mp.mpf
    gain: mp.mpf
    offset: mp.mpf
    skipped: bool = False
    reason: str = ""

    @property
    def holds(self) -> bool:
        if self.skipped:
            return True
        return self.lhs <= self.rhs * (1 + mp.mpf(RANK_SLACK))


@dataclass
class LemmaReport:
    theta: mp.mpf
    eta: mp.mpf
    horizon: int
    checks: list
    norms: dict
    w_inv_actual: float
    w_inv_bound: mp.mpf
    gains: Gains
    c3: mp.mpf | None
    r_bounded_by_c3: bool | None

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _theta_weighted(sups, sums, theta: mp.mpf, K: int, b0: int) -> tuple:
    """Per norm sequence in `sups`, the sup over k = 1..K of theta^-k * norm[k];
    per sequence in `sums`, the sum over k = 1..b0.

    Bit for bit the mpf loop that weighs each norm[k] by theta^-k: the same
    mpmath kernels run at the context's precision and rounding, with
    theta^-k advanced once per round for every sequence.

    A sup weighs exactly only the k whose float log-weight, log norm[k] -
    k log theta, lies within `margin` of the largest. The float logs err by
    a few units in the last place of the magnitudes in the first term of
    `margin` (Higham, 2002, ch. 3), an exact term by under 2^(1-prec) for
    each of its K + 3 roundings in the second; so the largest exact term is
    always weighed. With no finite largest log (every norm zero, say), every
    k is weighed. Norms are finite and non-negative.
    """
    prec, rnd = mp.mp._prec_rounding
    inv = (1 / theta)._mpf_
    acc, weights = fone, []
    for _ in range(K):
        acc = mpf_mul(acc, inv, prec, rnd)
        weights.append(acc)

    totals = []
    for norms in sums:
        total = fzero
        for acc, norm in zip(weights[:b0], norms[1 : b0 + 1].tolist()):
            total = mpf_add(total, mpf_mul(acc, from_float(norm, prec, rnd), prec, rnd), prec, rnd)
        totals.append(mp.make_mpf(total))

    log_theta = float(mp.log(theta))
    best = []
    for norms in sups:
        norms = norms[1 : K + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            screen = np.log(norms) - np.arange(1, K + 1) * log_theta
        top = float(screen.max(initial=-np.inf))
        if math.isfinite(top):
            margin = 1e-9 * (1 + abs(top) + K * abs(log_theta)) + (K + 3) * 2.0 ** (3 - prec)
            picks = np.flatnonzero(screen >= top - margin).tolist()
        else:
            picks = range(K)
        sup = fzero
        for k in picks:
            term = mpf_mul(weights[k], from_float(float(norms[k]), prec, rnd), prec, rnd)
            if mpf_gt(term, sup):
                sup = term
        best.append(mp.make_mpf(sup))
    return best, totals


def verify_lemma_inequalities(trajectory, problem, consts: TheoryConstants,
                              theta, eta=None, K=None) -> LemmaReport:
    """Re-check the four chained inequalities on an actual trajectory.

    The offsets b2 and b3 sum the first B0 disagreement norms, so the run
    must be at least B0 rounds long. A norm that is not finite in rounds
    0..K raises ValueError, naming the first such round and sequence.
    Violations are reported per check, not raised; a step size too
    aggressive for the last inequality's floor condition marks that check
    skipped instead.
    """
    held = max(len(trajectory.x_series) - 1, 0)  # rounds with a recorded state
    if eta is None:
        eta = trajectory.config.step_size
    K = held if K is None else K
    if K > held:
        raise ValueError(f"trajectory holds {held} rounds, asked for {K}")
    if K < consts.b0:
        raise ValueError(
            f"need at least B0={consts.b0} recorded rounds for the offset sums, got K={K} "
            f"of the {held} the trajectory holds")
    norms = trajectory_series(trajectory, problem)[:, : K + 1]
    bad = ~np.isfinite(norms)
    if bad.any():
        k = int(bad.any(axis=0).argmax())
        raise ValueError(f"the {NORM_ROWS[int(bad[:, k].argmax())]} norm of round {k} is not finite")

    with mp.workdps(consts.dps):
        theta = mp.mpf(theta)
        eta = mp.mpf(eta)
        tb0 = _pow(theta, consts.b0)
        gap = tb0 - consts.varepsilon
        if gap <= 0:
            raise ConstantsError("theta^B0 must exceed the contraction factor")

        (r_max, v_max, u_max, x_max), (u_sum, x_sum) = _theta_weighted(
            norms, norms[2:], theta, K, consts.b0)

        gains = _gains(consts, theta, eta)
        b1 = mp.mpf(float(norms[1, 1])) / theta
        b2 = tb0 / gap * u_sum
        b3 = tb0 / gap * x_sum
        y_bar_1 = trajectory.y_series[1].mean(axis=0)
        b4 = 2 * mp.sqrt(consts.m) * mp.mpf(float(np.linalg.norm(y_bar_1 - trajectory.x_star)))

        checks = [
            LemmaCheck("increments vs distance", v_max, gains.gamma1 * r_max + b1,
                       gains.gamma1, b1),
            LemmaCheck("tracker disagreement vs increments", u_max, gains.gamma2 * v_max + b2,
                       gains.gamma2, b2),
            LemmaCheck("state disagreement vs tracker", x_max, gains.gamma3 * u_max + b3,
                       gains.gamma3, b3),
        ]
        if theta < _decay_floor(consts, eta) or eta > _step_cap(consts):
            checks.append(LemmaCheck(
                "distance vs state disagreement", r_max, mp.mpf(0), gains.gamma4, b4,
                skipped=True,
                reason="step size and decay rate violate this inequality's floor condition",
            ))
        else:
            checks.append(LemmaCheck("distance vs state disagreement", r_max,
                                     gains.gamma4 * x_max + b4, gains.gamma4, b4))

        w_inv_actual = 1.0 / float(np.min(np.asarray(trajectory.w_series)[1 : K + 1]))

        c3 = None
        bounded = None
        if gains.product < 1 and not checks[3].skipped:
            c3 = (b1 * gains.gamma2 * gains.gamma3 * gains.gamma4
                  + b2 * gains.gamma3 * gains.gamma4
                  + b3 * gains.gamma4 + b4) / (1 - gains.product)
            bounded = bool(r_max <= c3 * (1 + mp.mpf(RANK_SLACK)))

        return LemmaReport(
            theta=theta, eta=eta, horizon=K, checks=checks,
            norms={"r": r_max, "v": v_max, "u_check": u_max, "x_check": x_max},
            w_inv_actual=w_inv_actual, w_inv_bound=consts.w_inv_max_bound,
            gains=gains, c3=c3, r_bounded_by_c3=bounded,
        )


def _fmt(v, digits=12) -> str:
    """v to `digits` significant digits, huge or tiny values in exponent form.

    The copy is rounded to a few more digits than shown first: a value carried
    at thousands of digits of precision would otherwise go through a decimal
    conversion of its full mantissa, which Python refuses past 4300 digits.
    """
    with mp.workdps(digits + 20):
        return mp.nstr(+mp.mpf(v), digits, max_fixed=6, min_fixed=-5)


def format_certificate(cert: Certificate) -> str:
    """Structured text export; huge numbers appear as mantissa/exponent."""
    c = cert.consts
    lines = [
        f"agents: {c.m}",
        f"window: b_tilde={c.b_tilde} b={c.b} b0={c.b0}",
        f"c0: {_fmt(c.c0)}",
        f"sigma: {_fmt(c.sigma)}",
        f"epsilon: {_fmt(c.epsilon)}",
        f"contraction factor: {_fmt(c.varepsilon, 20)}",
        f"one minus contraction factor: {_fmt(1 - c.varepsilon, 8)}",
        f"curvature: L_hat={_fmt(c.l_hat)} L_bar={_fmt(c.l_bar)} mu_hat={_fmt(c.mu_hat)} mu_bar={_fmt(c.mu_bar)} kappa={_fmt(c.kappa)}",
        f"alpha: {_fmt(c.alpha)}  beta: {_fmt(c.beta)}",
        f"mass inverse bound: {_fmt(c.w_inv_max_bound)}",
        f"C1: {_fmt(cert.c1)}",
        f"C2: {_fmt(cert.c2)}",
        f"theta0: {_fmt(cert.theta0, 30)}",
        f"theta_used: {_fmt(cert.theta_used, 30)}",
        f"one minus theta0: {_fmt(1 - cert.theta0, 8)}",
        f"step ceiling (theorem): {_fmt(cert.eta_upper)}",
        f"step at critical rate: {_fmt(cert.eta_star)}",
        f"interval at theta_used: [{_fmt(cert.interval_at_theta0[0])}, {_fmt(cert.interval_at_theta0[1])}]",
    ]
    if cert.gains is not None:
        g = cert.gains
        lines.append(
            f"gains: {_fmt(g.gamma1)} {_fmt(g.gamma2)} {_fmt(g.gamma3)} {_fmt(g.gamma4)} "
            f"product {_fmt(g.product)}"
        )
    for name, ok in cert.preconditions.items():
        lines.append(f"check [{'pass' if ok else 'FAIL'}] {name}")
    for note in cert.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def format_lemma_report(report: LemmaReport) -> str:
    lines = [
        f"theta: {_fmt(report.theta, 30)}",
        f"eta: {_fmt(report.eta)}",
        f"horizon: {report.horizon}",
        f"mass inverse: actual {report.w_inv_actual!r} bound {_fmt(report.w_inv_bound)}",
    ]
    for name, v in report.norms.items():
        lines.append(f"norm {name}: {_fmt(v)}")
    for chk in report.checks:
        if chk.skipped:
            lines.append(f"lemma [skip] {chk.name}: {chk.reason}")
        else:
            verdict = "pass" if chk.holds else "FAIL"
            lines.append(
                f"lemma [{verdict}] {chk.name}: lhs {_fmt(chk.lhs)} <= gain {_fmt(chk.gain)} "
                f"* other + offset {_fmt(chk.offset)} = {_fmt(chk.rhs)}"
            )
    if report.c3 is not None:
        lines.append(f"trajectory bound constant: {_fmt(report.c3)}")
        lines.append(f"distance norm within bound: {report.r_bounded_by_c3}")
    return "\n".join(lines) + "\n"
