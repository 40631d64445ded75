"""Transceiver and power-splitter design for the two-way relay downlink.

Conventions: the combiner g and beamformer f are 1-D complex arrays of
length N with unit norm. Effective gains are the bilinear products of the
transmission model, i.e. uplink |g . h_i|^2 and downlink |h_i^T f|^2 with a
plain (unconjugated) dot product; the eigen-domain vector associated with g
is its conjugate.

All powers are linear; dB conversion happens at the scenario boundary.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from . import numerics, sdp
from .lattice import mmse_alpha
from .errors import DegenerateChannelError, InfeasibleError

GAIN_FLOOR = 1e-30


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
        if gi <= GAIN_FLOOR:
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
        if hi <= GAIN_FLOOR:
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
    p_r: float
    f: np.ndarray
    rank_ratio: float


def min_power_beamformer(h_list, a_list) -> BeamformerDesign:
    """Minimize Tr(F) over PSD F subject to Tr(A_i F) >= a_i, with
    A_i = h_i^* h_i^T. Constraints with a_i <= 0 are vacuous and dropped.

    This is the paper's semidefinite relaxation of the beamformer step,
    kept as an independent certificate of the exact `solve_beamformer`; the
    tests call it, the sweep path does not. Two quadratic constraints admit
    a rank-one optimum (Sidiropoulos, Davidson & Luo 2006; Huang & Palomar
    2010), so the relaxation's optimal value, returned as p_r, is the exact
    minimum power to the solver's tolerances. Only that value is certified.
    f is the dominant eigenvector of the SDP's optimizer: on tie-degenerate
    channels the interior-point method stops inside a flat optimal face of
    higher rank, and there f need not be optimal or even feasible at p_r.
    rank_ratio = lambda2/lambda1 of the optimizer is a diagnostic of that
    case.
    """
    n = len(h_list[0])
    active = [(np.asarray(h, dtype=complex), float(a))
              for h, a in zip(h_list, a_list) if a > 0]
    if not active:
        raise ValueError("all constraint right-hand sides are nonpositive")
    cons = [(np.outer(h.conj(), h), sdp.GE, a) for h, a in active]
    sol = sdp.solve_sdp(sdp.SdpInstance(n, np.eye(n), "min", cons))
    sdp.assert_optimal(sol, "beamformer SDP")
    _, f, ratio = rank_one_extract(sol.X)
    return BeamformerDesign(p_r=float(np.real(np.trace(sol.X))), f=f,
                            rank_ratio=ratio)


class FrontierBasis(NamedTuple):
    """Coordinates of the two-user gain frontier of (h1, h2).

    q1 = h1/n1 with n1 = |h1|, c1 = q1^H h2, A = |c1|, C = |h2 - c1 q1|,
    q2 = (h2 - c1 q1)/C, phase = c1/A and psi_max = atan2(C, A). The unit
    vectors u(psi) = cos(psi) phase q1 + sin(psi) q2, psi in [0, psi_max],
    add the two components of h2 coherently and carry every Pareto-optimal
    gain pair: |u^H h1|^2 = n1^2 cos^2 psi and
    |u^H h2|^2 = (A cos psi + C sin psi)^2. The optimal combiner g and the
    optimal beamformer f are both conj(u(psi)) for some psi. On collinear
    channels q2 is None, C = psi_max = 0 and the frontier is the point q1.
    """
    n1: float
    q1: np.ndarray
    q2: np.ndarray
    phase: complex
    a: float
    c: float
    psi_max: float

    def vector(self, psi) -> np.ndarray:
        """The unit vector u(psi)."""
        if self.q2 is None:
            return self.q1
        return math.cos(psi) * self.phase * self.q1 + math.sin(psi) * self.q2


def frontier_basis(h1, h2) -> FrontierBasis:
    """The `FrontierBasis` of the channel pair (h1, h2)."""
    n1 = float(np.linalg.norm(h1))
    if n1 == 0.0:
        raise DegenerateChannelError("zero channel toward user 1")
    q1 = h1 / n1
    c1 = complex(np.vdot(q1, h2))
    r = h2 - c1 * q1
    c2 = float(np.linalg.norm(r))
    a1 = abs(c1)
    phase = c1 / a1 if a1 > 0 else 1.0
    if c2 < 1e-12 * max(1.0, np.linalg.norm(h2)):
        return FrontierBasis(n1, q1, None, phase, a1, 0.0, 0.0)
    return FrontierBasis(n1, q1, r / c2, phase, a1, c2, math.atan2(c2, a1))


def frontier_crossing(basis: FrontierBasis, a1: float, a2: float):
    """(tan phi, P) minimizing max(a1/H1(phi), a2/H2(phi)) along the frontier,
    H_i the downlink gains of f = conj(u(phi)); see `solve_beamformer`.

    P is evaluated as (1 + tan^2 phi) max(a1/n1^2, a2/(A + C tan phi)^2),
    which equals the closed form P* at the crossing without its
    cancellation.
    """
    n1, a, c = basis.n1, basis.a, basis.c
    t = 0.0
    if c > 0.0:
        t = max((n1 * math.sqrt(a2 / a1) - a) / c, 0.0)
        if a > 0.0:
            t = min(t, c / a)
    return t, (1.0 + t * t) * max(a1 / (n1 * n1), a2 / (a + c * t) ** 2)


def solve_beamformer(g, channel, params: SystemParams) -> BeamformerDesign:
    """Optimal beamformer for a fixed combiner, in closed form.

    The optimal f is the conjugate of a frontier vector u(phi) of
    `frontier_basis` (two quadratic constraints admit a rank-one optimum:
    Sidiropoulos, Davidson & Luo 2006; Huang & Palomar 2010), so
    min_f max_i a_i/|h_i^T f|^2 is min over phi in [0, psi_max] of
    max(a1/(n1^2 cos^2 phi), a2/(A cos phi + C sin phi)^2). The first term
    increases in phi and the second decreases, and with r = sqrt(a2/a1):

    - if n1 r <= A, then phi = 0;
    - else if n1 A r >= n2^2, then phi = psi_max;
    - otherwise tan phi = (n1 r - A)/C, where both terms meet at
      P* = (n2^2 a1 + n1^2 a2 - 2 n1 A sqrt(a1 a2)) / (n1^2 C^2).
    """
    a1, a2 = constraint_rhs(params, g, channel)
    basis = frontier_basis(channel.h1, channel.h2)
    tan_phi, p_r = frontier_crossing(basis, a1, a2)
    f = np.conj(basis.vector(math.atan(tan_phi)))
    return BeamformerDesign(p_r=p_r, f=f, rank_ratio=0.0)


class CombinerDesign(NamedTuple):
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
        if hi <= GAIN_FLOOR:
            raise DegenerateChannelError("zero effective downlink gain")
        rho.append(params.sigma2 * t_up / (params.eta * hi))
        mu.append((params.sigma2 * (t_dn - 1.0) + 2.0 * params.p_c / params.eta) / hi)
    return tuple(rho), tuple(mu)


def _combiner_objective(u, h_vecs, rho, mu):
    val = 0.0
    for h, r, m in zip(h_vecs, rho, mu):
        x = float(np.abs(np.vdot(u, h)) ** 2)
        if x <= GAIN_FLOOR:
            return np.inf
        val = max(val, r / x + m)
    return val


def _frontier_combiner(h_vecs, rho, mu):
    """Exact minimizer u of max_i rho_i/|u^H h_i|^2 + mu_i over unit u.

    The optimal u lies on the gain frontier of `frontier_basis`. Along its
    angle phi the first term increases and the second decreases, so the
    optimum is either an endpoint or the crossing, found by bisection.
    """
    basis = frontier_basis(*h_vecs)
    if basis.q2 is None:
        return basis.q1  # collinear channels: matched filtering serves both users

    n1, a, c, phi_max = basis.n1, basis.a, basis.c, basis.psi_max

    def terms(phi):
        x1 = (n1 * math.cos(phi)) ** 2
        x2 = (a * math.cos(phi) + c * math.sin(phi)) ** 2
        t1 = rho[0] / x1 + mu[0] if x1 > GAIN_FLOOR else np.inf
        t2 = rho[1] / x2 + mu[1] if x2 > GAIN_FLOOR else np.inf
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
    return basis.vector(best_phi)


def min_level_combiner(h_vecs, rho, mu) -> CombinerDesign:
    """Exact minimizer of max_i rho_i/|u^H h_i|^2 + mu_i over unit u.

    Users with rho_i = mu_i = 0 are dropped (degenerate single-user case).
    This is the combiner step (`solve_combiner`); with mu = 0 the same
    problem has the closed form of `solve_beamformer`.
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

    return CombinerDesign(g=u.conj(),
                          p_r_implied=_combiner_objective(u, hs, rs, ms))


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
    if hi_gain <= GAIN_FLOOR or gi <= GAIN_FLOOR:
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
