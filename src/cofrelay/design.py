"""Transceiver and power-splitter design for the two-way relay downlink.

Conventions: the combiner g and beamformer f are 1-D complex arrays of
length N with unit norm. Effective gains are the bilinear products of the
transmission model, i.e. uplink |g . h_i|^2 and downlink |h_i^T f|^2 with a
plain (unconjugated) dot product; the eigen-domain vector associated with g
is its conjugate.

All powers are linear; dB conversion happens at the scenario boundary.
"""

from dataclasses import dataclass
import logging
import math
from typing import NamedTuple

import numpy as np

from . import numerics, sdp
from .lattice import mmse_alpha
from .errors import (DegenerateChannelError, InfeasibleError,
                     SolverFailureError)

logger = logging.getLogger(__name__)

_GAIN_FLOOR = 1e-30
RANK_RATIO_TOL = 1e-6


@dataclass
class SystemParams:
    """Static system parameters: antennas, conversion efficiency, circuit
    power, noise power (with optional pre/post splitter split), rate targets."""
    N: int
    eta: float
    p_c: float
    sigma2: float
    r1_bar: float
    r2_bar: float
    sigma2_a: float = 0.0
    sigma2_p: float = None

    def __post_init__(self):
        if self.sigma2_p is None:
            self.sigma2_p = self.sigma2 - self.sigma2_a
        if self.N < 1:
            raise ValueError("need at least one antenna")
        if not 0 < self.eta <= 1:
            raise ValueError("conversion efficiency must lie in (0, 1]")
        if self.sigma2 <= 0:
            raise ValueError("noise power must be positive")
        if abs(self.sigma2_a + self.sigma2_p - self.sigma2) > 1e-12 * self.sigma2:
            raise ValueError("splitter noise powers must sum to sigma2")
        if self.r1_bar <= 0 or self.r2_bar <= 0:
            raise ValueError("rate targets must be positive")
        if self.p_c < 0:
            raise ValueError("circuit power must be nonnegative")


class RateThresholds(NamedTuple):
    theta_1r: float
    theta_2r: float
    theta_r1: float
    theta_r2: float


def rate_thresholds(params: SystemParams) -> RateThresholds:
    """SNR-style thresholds from the rate targets.

    theta_{i,r} = 2^(2 R_i); theta_{r,i} = 2^(2 R_{3-i}) because the relay ->
    node i link carries the other user's message.
    """
    t1r = 2.0 ** (2.0 * params.r1_bar)
    t2r = 2.0 ** (2.0 * params.r2_bar)
    return RateThresholds(t1r, t2r, theta_r1=t2r, theta_r2=t1r)


def uplink_gain(g, h) -> float:
    """|g . h|^2 for the combiner row vector g."""
    return float(np.abs(np.dot(np.asarray(g), np.asarray(h))) ** 2)


def downlink_gain(f, h) -> float:
    """|h^T f|^2 for the beamformer f."""
    return float(np.abs(np.dot(np.asarray(h), np.asarray(f))) ** 2)


def constraint_rhs(params: SystemParams, g, channel):
    """Per-user right-hand sides a_i of the relay power constraints."""
    th = rate_thresholds(params)
    out = []
    for h, t_up, t_dn in ((channel.h1, th.theta_1r, th.theta_r1),
                          (channel.h2, th.theta_2r, th.theta_r2)):
        gi = uplink_gain(g, h)
        if gi <= _GAIN_FLOOR:
            raise DegenerateChannelError("zero effective uplink gain")
        out.append(params.sigma2 * t_up / (params.eta * gi)
                   + params.sigma2 * (t_dn - 1.0)
                   + 2.0 * params.p_c / params.eta)
    return tuple(out)


def required_power(f, g, channel, params: SystemParams) -> float:
    """Smallest relay power admitting a feasible power split for both users,
    given fixed beamformer and combiner: max_i a_i / |h_i^T f|^2."""
    a = constraint_rhs(params, g, channel)
    p = 0.0
    for ai, h in zip(a, (channel.h1, channel.h2)):
        hi = downlink_gain(f, h)
        if hi <= _GAIN_FLOOR:
            raise DegenerateChannelError("zero effective downlink gain")
        p = max(p, ai / hi)
    return p


def rank_one_extract(m):
    """(scale, v, rank_ratio) with scale the top eigenvalue, v the unit
    dominant eigenvector (phase-normalized) and rank_ratio = lambda2/lambda1
    (0 for 1x1 input). The caller decides what ratio is acceptable."""
    vals, vecs = numerics.eig_hermitian(m)
    scale = float(vals[0])
    v = vecs[:, 0]
    if len(vals) < 2 or scale <= 0:
        return scale, v, 0.0
    return scale, v, max(0.0, float(vals[1])) / scale


class BeamformerDesign(NamedTuple):
    F: np.ndarray
    p_r: float
    f: np.ndarray
    rank_ratio: float


def _hermitian_basis(r):
    """Orthonormal real basis of the r x r Hermitian matrices."""
    basis = []
    for k in range(r):
        e = np.zeros((r, r), dtype=complex)
        e[k, k] = 1.0
        basis.append(e)
    for j in range(r):
        for k in range(j + 1, r):
            e = np.zeros((r, r), dtype=complex)
            e[j, k] = e[k, j] = 1.0 / math.sqrt(2.0)
            basis.append(e)
            e = np.zeros((r, r), dtype=complex)
            e[j, k] = -1j / math.sqrt(2.0)
            e[k, j] = 1j / math.sqrt(2.0)
            basis.append(e)
    return basis


def reduce_rank(x, preserve, check=None, tol=1e-9):
    """Walk along the optimal face of a PSD matrix toward a rank-one point.

    ``preserve`` lists Hermitian matrices whose trace inner products with x
    must stay fixed (active constraints and, implicitly, the objective via
    the identity). A feasibility ``check(candidate)`` may veto a direction,
    e.g. when an inactive inequality would be crossed. With two preserved
    quadratic forms plus the trace, a rank-one point always exists on the
    face, which is exactly the classic two-constraint argument.
    """
    x = numerics.hermitian(x)
    mats = [np.eye(x.shape[0], dtype=complex)] + [numerics.hermitian(m) for m in preserve]
    for _ in range(x.shape[0]):
        vals, vecs = numerics.eig_hermitian(x)
        lam1 = max(float(vals[0]), 0.0)
        if lam1 <= 0:
            break
        r = int(np.sum(vals > tol * lam1))
        if r <= 1:
            break
        v = vecs[:, :r]
        s = vals[:r].astype(float)
        basis = _hermitian_basis(r)
        rows = []
        for m in mats:
            mr = v.conj().T @ m @ v
            rows.append([numerics.trace_inner(mr, e) for e in basis])
        a = np.asarray(rows, dtype=float)
        _, sv, vt = np.linalg.svd(a)
        rank = int(np.sum(sv > 1e-9 * max(1.0, sv[0]))) if sv.size else 0
        if rank >= a.shape[1]:
            break  # conditions fill the face; no direction left
        coeff = vt[-1]
        delta = sum(c * e for c, e in zip(coeff, basis))
        # Step sizes that zero out an eigenvalue of S + t*Delta in either direction.
        isq = 1.0 / np.sqrt(s)
        w = np.linalg.eigvalsh((isq[:, None] * delta * isq[None, :]))
        steps = []
        if w[0] < -1e-14:
            steps.append(-1.0 / w[0])
        if w[-1] > 1e-14:
            steps.append(-1.0 / w[-1])
        if not steps:
            break
        steps.sort(key=abs)
        nxt = None
        for t in steps:
            cand = numerics.hermitian(v @ (np.diag(s) + t * delta) @ v.conj().T)
            if check is None or check(cand):
                nxt = cand
                break
        if nxt is None:
            break
        x = nxt
    return x


def min_power_beamformer(h_list, a_list, tol_feas=1e-8, tol_gap=1e-7,
                         max_iter=200) -> BeamformerDesign:
    """Minimize Tr(F) over PSD F subject to Tr(A_i F) >= a_i, then read off
    the rank-one pair (P_r, f). Constraints with a_i <= 0 are vacuous and
    dropped.

    This is the paper's semidefinite relaxation of the beamformer step. It
    is tight (two quadratic constraints admit a rank-one optimum), so it
    serves as an independent certificate of the exact `solve_beamformer`;
    the tests call it, the sweep path does not. On tie-degenerate channels
    the interior-point method lands in the middle of a flat optimal face;
    the face walk in `reduce_rank` then restores a rank-one optimizer. A
    rescaled dominant-eigenvector projection remains as a logged last
    resort.
    """
    n = len(h_list[0])
    active = [(np.asarray(h, dtype=complex), float(a))
              for h, a in zip(h_list, a_list) if a > 0]
    if not active:
        raise ValueError("all constraint right-hand sides are nonpositive")
    a_mats = [np.outer(h.conj(), h) for h, _ in active]
    cons = [(m, sdp.GE, a) for m, (_, a) in zip(a_mats, active)]
    inst = sdp.SdpInstance(n, np.eye(n), "min", cons)
    sol = sdp.solve_sdp(inst, tol_feas=tol_feas, tol_gap=tol_gap, max_iter=max_iter)
    sdp.assert_optimal(sol, "beamformer SDP")

    big_f = sol.X
    _, _, ratio = rank_one_extract(big_f)
    if ratio > RANK_RATIO_TOL:
        logger.warning("beamformer relaxation rank ratio %.3e; reducing along "
                       "the optimal face", ratio)
        tight = [m for m, (_, a) in zip(a_mats, active)
                 if numerics.trace_inner(m, big_f) <= a * (1.0 + 1e-7)]

        def feas(cand):
            return all(numerics.trace_inner(m, cand) >= a * (1.0 - 1e-9)
                       for m, (_, a) in zip(a_mats, active))

        big_f = reduce_rank(big_f, tight, check=feas)

    scale, f, ratio = rank_one_extract(big_f)
    p_r = float(np.real(np.trace(big_f)))
    viol = []
    for (h, a) in active:
        gain = downlink_gain(f, h)
        if gain <= _GAIN_FLOOR:
            raise SolverFailureError("rank-one beamformer projection lost a user")
        viol.append((a - p_r * gain) / max(1.0, a))
    if ratio > RANK_RATIO_TOL or max(viol) > 1e-7:
        if ratio > RANK_RATIO_TOL:
            logger.warning("face walk left rank ratio %.3e; rescaling projection", ratio)
        p_r = max(a / downlink_gain(f, h) for h, a in active)
    return BeamformerDesign(F=big_f, p_r=p_r, f=f, rank_ratio=ratio)


def solve_beamformer(g, channel, params: SystemParams) -> BeamformerDesign:
    """Optimal beamformer for a fixed combiner.

    min_f max_i a_i/|h_i^T f|^2 is the combiner problem on conj(h1),
    conj(h2) with rho = a and mu = 0, which `min_level_combiner` solves
    exactly; F = p_r f f^H is rank one by construction.
    """
    a = constraint_rhs(params, g, channel)
    sol = min_level_combiner([np.conj(channel.h1), np.conj(channel.h2)],
                             a, (0.0, 0.0))
    return BeamformerDesign(F=sol.p_r_implied * sol.G, p_r=sol.p_r_implied,
                            f=sol.g.conj(), rank_ratio=0.0)


class CombinerDesign(NamedTuple):
    G: np.ndarray
    g: np.ndarray
    p_r_implied: float


def combiner_coefficients(f, channel, params: SystemParams):
    """(rho_i, mu_i) of the fixed-beamformer subproblem
    min_g max_i rho_i / |g h_i|^2 + mu_i."""
    th = rate_thresholds(params)
    rho, mu = [], []
    for h, t_up, t_dn in ((channel.h1, th.theta_1r, th.theta_r1),
                          (channel.h2, th.theta_2r, th.theta_r2)):
        hi = downlink_gain(f, h)
        if hi <= _GAIN_FLOOR:
            raise DegenerateChannelError("zero effective downlink gain")
        rho.append(params.sigma2 * t_up / (params.eta * hi))
        mu.append((params.sigma2 * (t_dn - 1.0) + 2.0 * params.p_c / params.eta) / hi)
    return tuple(rho), tuple(mu)


def _combiner_objective(u, h_vecs, rho, mu):
    val = 0.0
    for h, r, m in zip(h_vecs, rho, mu):
        x = float(np.abs(np.vdot(u, h)) ** 2)
        if x <= _GAIN_FLOOR:
            return np.inf
        val = max(val, r / x + m)
    return val


def _frontier_combiner(h_vecs, rho, mu):
    """Exact minimizer u of max_i rho_i/|u^H h_i|^2 + mu_i over unit u.

    The optimal u lies in span{h1, h2}; with q1 aligned to h1 and the
    in-span phase chosen to add the two components of h2 coherently, the
    search reduces to one mixing angle phi, along which the gains are
    x1 = n1^2 cos^2 phi and x2 = (|c1| cos phi + c2 sin phi)^2. The first
    term is increasing in phi and the second decreasing, so the optimum is
    either an endpoint or the crossing, found by bisection.
    """
    h1, h2 = h_vecs
    n1 = float(np.linalg.norm(h1))
    q1 = h1 / n1
    c1 = complex(np.vdot(q1, h2))
    r = h2 - c1 * q1
    c2 = float(np.linalg.norm(r))

    if c2 < 1e-12 * max(1.0, np.linalg.norm(h2)):
        return q1  # collinear channels: matched filtering serves both users

    q2 = r / c2
    a1 = abs(c1)
    phase = c1 / a1 if a1 > 0 else 1.0
    phi_max = math.atan2(c2, a1)

    def terms(phi):
        x1 = (n1 * math.cos(phi)) ** 2
        x2 = (a1 * math.cos(phi) + c2 * math.sin(phi)) ** 2
        t1 = rho[0] / x1 + mu[0] if x1 > _GAIN_FLOOR else np.inf
        t2 = rho[1] / x2 + mu[1] if x2 > _GAIN_FLOOR else np.inf
        return t1, t2

    t1_lo, t2_lo = terms(0.0)
    t1_hi, t2_hi = terms(phi_max)
    if t1_lo >= t2_lo:
        phi_star = 0.0
    elif t1_hi <= t2_hi:
        phi_star = phi_max
    else:
        lo, hi = 0.0, phi_max
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            t1, t2 = terms(mid)
            if t1 < t2:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15:
                break
        phi_star = 0.5 * (lo + hi)

    best_phi = min((0.0, phi_max, phi_star), key=lambda p: max(*terms(p)))
    return math.cos(best_phi) * phase * q1 + math.sin(best_phi) * q2


def min_level_combiner(h_vecs, rho, mu) -> CombinerDesign:
    """Exact minimizer of max_i rho_i/|u^H h_i|^2 + mu_i over unit u.

    Users with rho_i = mu_i = 0 are dropped (degenerate single-user case).
    The same two-user routine serves the combiner step (`solve_combiner`)
    and the beamformer step (`solve_beamformer`, on the conjugate channels
    with rho = a and mu = 0).
    """
    h_vecs = [np.asarray(h, dtype=complex) for h in h_vecs]
    n = len(h_vecs[0])
    keep = [k for k in range(len(h_vecs)) if rho[k] > 0 or mu[k] > 0]
    if not keep:
        raise ValueError("no active users in combiner subproblem")
    hs = [h_vecs[k] for k in keep]
    rs = [rho[k] for k in keep]
    ms = [mu[k] for k in keep]

    if n == 1:
        u = np.ones(1, dtype=complex)
    elif len(hs) == 1:
        u = hs[0] / np.linalg.norm(hs[0])  # matched filter
    else:
        u = _frontier_combiner(hs, rs, ms)

    obj = _combiner_objective(u, hs, rs, ms)
    big_g = np.outer(u, u.conj())
    return CombinerDesign(G=big_g, g=u.conj(), p_r_implied=obj)


def solve_combiner(f, channel, params: SystemParams) -> CombinerDesign:
    """Optimal combiner for a fixed beamformer."""
    rho, mu = combiner_coefficients(f, channel, params)
    return min_level_combiner([channel.h1, channel.h2], rho, mu)


def beta_interval(p_r, f, g, channel, params: SystemParams, user: int):
    """Feasible power-splitting interval [lo, hi] for one user (0-based)."""
    th = rate_thresholds(params)
    h = (channel.h1, channel.h2)[user]
    t_up = (th.theta_1r, th.theta_2r)[user]
    t_dn = (th.theta_r1, th.theta_r2)[user]
    hi_gain = downlink_gain(f, h)
    gi = uplink_gain(g, h)
    if hi_gain <= _GAIN_FLOOR or gi <= _GAIN_FLOOR:
        raise DegenerateChannelError("zero effective gain")
    lo = params.sigma2 * (t_dn - 1.0) / (p_r * hi_gain)
    hi = (1.0 - params.sigma2 * t_up / (params.eta * p_r * hi_gain * gi)
          - 2.0 * params.p_c / (params.eta * p_r * hi_gain))
    return lo, hi


def recover_beta(p_r, f, g, channel, params: SystemParams):
    """Power-splitting ratios at a feasible operating point.

    beta_i = (1 + (eta sigma^2 (theta_{r,i}-1) - 2 P_c) / (eta P_r |h_i^T f|^2)
                - sigma^2 theta_{i,r} / (eta P_r |h_i^T f|^2 |g h_i|^2)) / 2,
    the midpoint of the feasible splitting interval. Raises InfeasibleError
    when the interval is empty (P_r below the required power)."""
    th = rate_thresholds(params)
    betas = []
    for user, (h, t_up, t_dn) in enumerate(
            ((channel.h1, th.theta_1r, th.theta_r1),
             (channel.h2, th.theta_2r, th.theta_r2))):
        lo, hi = beta_interval(p_r, f, g, channel, params, user)
        if lo > hi + 1e-9:
            raise InfeasibleError(f"empty splitting interval for user {user + 1}: "
                                  f"[{lo}, {hi}]")
        hg = downlink_gain(f, h)
        gi = uplink_gain(g, h)
        beta = 0.5 * (1.0
                      + (params.eta * params.sigma2 * (t_dn - 1.0) - 2.0 * params.p_c)
                      / (params.eta * p_r * hg)
                      - params.sigma2 * t_up / (params.eta * p_r * hg * gi))
        if beta < 0.0:
            if beta < -1e-9:
                raise InfeasibleError(f"beta_{user + 1} = {beta} escapes [0, 1]")
            beta = 0.0
        elif beta > 1.0:
            if beta > 1.0 + 1e-9:
                raise InfeasibleError(f"beta_{user + 1} = {beta} escapes [0, 1]")
            beta = 1.0
        betas.append(beta)
    return tuple(betas)


@dataclass
class TransceiverDesign:
    """A complete operating point: beamformer, combiner, relay power,
    splitting ratios, uplink powers and diagnostic second-moment ratios."""
    f: np.ndarray
    g: np.ndarray
    p_r: float
    beta: tuple
    p_uplink: tuple
    gamma: tuple = (0.0, 0.0)

    def __post_init__(self):
        for name, v in (("f", self.f), ("g", self.g)):
            nrm = float(np.linalg.norm(v))
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError(f"{name} must have unit norm, got {nrm}")
        for b in self.beta:
            if not -1e-12 <= b <= 1 + 1e-12:
                raise ValueError(f"beta {b} outside [0, 1]")


def complete_design(f, g, p_r, channel, params: SystemParams) -> TransceiverDesign:
    """Fill in splitting ratios, uplink powers and second-moment ratios for a
    given (f, g, P_r) triple."""
    beta = recover_beta(p_r, f, g, channel, params)
    p_up = []
    for b, h in zip(beta, (channel.h1, channel.h2)):
        p_up.append(params.eta * (1.0 - b) * p_r * downlink_gain(f, h)
                    - 2.0 * params.p_c)
    s = [max(p, 0.0) * uplink_gain(g, h)
         for p, h in zip(p_up, (channel.h1, channel.h2))]
    tot = s[0] + s[1]
    gamma = (s[0] / tot, s[1] / tot) if tot > 0 else (0.0, 0.0)
    return TransceiverDesign(f=np.asarray(f, dtype=complex),
                             g=np.asarray(g, dtype=complex),
                             p_r=float(p_r), beta=tuple(beta),
                             p_uplink=tuple(p_up), gamma=gamma)


@dataclass
class RateReport:
    """Achieved rate bounds and margins against the targets."""
    r_up: tuple          # node i -> relay, per user
    r_down: tuple        # relay -> node i (high-SNR splitter approximation)
    r_down_exact: tuple  # relay -> node i with the exact splitter noise model
    r_end_to_end: tuple  # min over the two hops carrying each user's message
    margins: tuple       # (up1, up2, down1, down2) against the rate targets
    alpha: float
    gamma: tuple


def verify_rates(design: TransceiverDesign, channel, params: SystemParams) -> RateReport:
    """Evaluate the achievable-rate bounds of a populated design.

    Uplink: R_{i,r} = 1/2 [log2(gamma_i + P_i |g h_i|^2 / sigma^2)]^+.
    Downlink: R_{r,i} = 1/2 log2(1 + beta_i P_r |h_i^T f|^2 / sigma^2), with
    the exact splitter-noise form reported alongside. End-to-end rates pair
    each user's uplink with the opposite downlink. Negative margins are
    reported, never raised.
    """
    g_gain = [uplink_gain(design.g, channel.h1), uplink_gain(design.g, channel.h2)]
    h_gain = [downlink_gain(design.f, channel.h1), downlink_gain(design.f, channel.h2)]
    s = [max(p, 0.0) * gg for p, gg in zip(design.p_uplink, g_gain)]
    tot = s[0] + s[1]
    gamma = (s[0] / tot, s[1] / tot) if tot > 0 else (0.0, 0.0)
    alpha = mmse_alpha(s[0], s[1], params.sigma2) if tot > 0 else 0.0

    r_up = []
    for p, gg, gm in zip(design.p_uplink, g_gain, gamma):
        snr = gm + max(p, 0.0) * gg / params.sigma2
        r_up.append(0.5 * max(0.0, math.log2(snr)) if snr > 0 else 0.0)
    r_down, r_down_exact = [], []
    for b, hg in zip(design.beta, h_gain):
        r_down.append(0.5 * math.log2(1.0 + b * design.p_r * hg / params.sigma2))
        den = b * params.sigma2_a + params.sigma2_p
        r_down_exact.append(0.5 * math.log2(1.0 + b * design.p_r * hg / den)
                            if den > 0 else float("inf"))

    targets = (params.r1_bar, params.r2_bar)
    margins = (r_up[0] - targets[0], r_up[1] - targets[1],
               r_down[0] - targets[1], r_down[1] - targets[0])
    r_end = (min(r_up[0], r_down[1]), min(r_up[1], r_down[0]))
    return RateReport(r_up=tuple(r_up), r_down=tuple(r_down),
                      r_down_exact=tuple(r_down_exact), r_end_to_end=r_end,
                      margins=margins, alpha=alpha, gamma=gamma)
