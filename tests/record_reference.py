"""The one-record scheme path as it stood before its power, splitting and
rate arithmetic became the shared array steps of `cofrelay.design`.

The bodies are frozen copies of the scalar functions of that time: the
gain, right-hand-side, coefficient and splitting helpers, `required_power`,
`complete_design`, `verify_rates`, `check_rates`, `solve_beamformer`,
`solve_combiner`, `joint_combiner` and `run_scheme`. They still call the
package's frontier code (basis, crossing, joint angle, combiner) and its
equal-gain weights. The tests use them as an independent reference:
`TestBatchParity` holds the batch within its parity bounds of them, and
the constraint checks and the solver-free references of
`frontier_reference` take their gains and a_i from here.
"""

import math

import numpy as np

from cofrelay.design import (BETA_SLACK, GAIN_FLOOR, MARGIN_SLACK,
                             BeamformerDesign, CombinerDesign, RateReport,
                             SystemParams, TransceiverDesign, frontier_basis,
                             frontier_crossings, min_level_combiner,
                             power_constants)
from cofrelay.errors import DegenerateChannelError, InfeasibleError
from cofrelay.lattice import mmse_alpha
from cofrelay.optimizer import SchemeId, equal_gain_vector, joint_angles


def uplink_gain(g, h) -> float:
    """|g . h|^2 for the combiner row vector g."""
    return float(np.abs(np.dot(np.asarray(g), np.asarray(h))) ** 2)


def downlink_gain(f, h) -> float:
    """|h^T f|^2 for the beamformer f."""
    return float(np.abs(np.dot(np.asarray(h), np.asarray(f))) ** 2)


def constraint_rhs(params: SystemParams, g, channel):
    """Per-user right-hand sides a_i of the relay power constraints."""
    const = power_constants(params, params.sigma2, params.p_c)
    out = []
    for h, noise_up, noise_dn in zip((channel.h1, channel.h2), const.noise_up,
                                     const.noise_dn):
        gi = uplink_gain(g, h)
        if gi <= GAIN_FLOOR:
            raise DegenerateChannelError("zero effective uplink gain")
        out.append(noise_up / (params.eta * gi) + noise_dn + const.circuit)
    return tuple(out)


def required_power(f, g, channel, params: SystemParams) -> float:
    """Smallest relay power admitting a feasible power split for both users,
    given fixed beamformer and combiner: max_i a_i / |h_i^T f|^2, NaN if
    either ratio is."""
    a = constraint_rhs(params, g, channel)
    ratios = []
    for ai, h in zip(a, (channel.h1, channel.h2)):
        hi = downlink_gain(f, h)
        if hi <= GAIN_FLOOR:
            raise DegenerateChannelError("zero effective downlink gain")
        ratios.append(ai / hi)
    return float(np.max(ratios))


def solve_beamformer(g, channel, params: SystemParams) -> BeamformerDesign:
    """Optimal beamformer for a fixed combiner, in closed form.

    The optimal f is the conjugate of a frontier vector u(phi) of
    `frontier_basis` (see `FrontierBasis` for why), so
    min_f max_i a_i/|h_i^T f|^2 is min over phi in [0, psi_max] of
    max(a1/(n1^2 cos^2 phi), a2/(A cos phi + C sin phi)^2). The first term
    increases in phi and the second decreases, and with r = sqrt(a2/a1):

    - if n1 r <= A, then phi = 0;
    - else if n1 A r >= n2^2, then phi = psi_max;
    - otherwise tan phi = (n1 r - A)/C, where both terms meet at
      P* = (n2^2 a1 + n1^2 a2 - 2 n1 A sqrt(a1 a2)) / (n1^2 C^2).

    This is `frontier_crossings` with rho = (a1, a2) and mu = 0.
    """
    a1, a2 = constraint_rhs(params, g, channel)
    basis = frontier_basis(channel.h1, channel.h2)
    tan_phi, p_r = frontier_crossings(basis.n1, basis.a, basis.c, (a1, a2),
                                      (0.0, 0.0))
    f = np.conj(basis.vector(np.arctan(tan_phi)))
    return BeamformerDesign(p_r=float(p_r), f=f, rank_ratio=0.0)


def combiner_coefficients(f, channel, params: SystemParams):
    """(rho_i, mu_i) of the fixed-beamformer subproblem
    min_g max_i rho_i / |g h_i|^2 + mu_i."""
    const = power_constants(params, params.sigma2, params.p_c)
    rho, mu = [], []
    for h, noise_up, noise_dn in zip((channel.h1, channel.h2), const.noise_up,
                                     const.noise_dn):
        hi = downlink_gain(f, h)
        if hi <= GAIN_FLOOR:
            raise DegenerateChannelError("zero effective downlink gain")
        rho.append(noise_up / (params.eta * hi))
        mu.append((noise_dn + const.circuit) / hi)
    return tuple(rho), tuple(mu)


def solve_combiner(f, channel, params: SystemParams) -> CombinerDesign:
    """Optimal combiner for a fixed beamformer."""
    rho, mu = combiner_coefficients(f, channel, params)
    return min_level_combiner([channel.h1, channel.h2], rho, mu)


def beta_interval(p_r, f, g, channel, params: SystemParams, user: int):
    """Feasible power-splitting interval [lo, hi] for one user (0-based)."""
    const = power_constants(params, params.sigma2, params.p_c)
    h = (channel.h1, channel.h2)[user]
    hi_gain = downlink_gain(f, h)
    gi = uplink_gain(g, h)
    if hi_gain <= GAIN_FLOOR or gi <= GAIN_FLOOR:
        raise DegenerateChannelError("zero effective gain")
    lo = const.noise_dn[user] / (p_r * hi_gain)
    hi = (1.0 - const.noise_up[user] / (params.eta * p_r * hi_gain * gi)
          - const.two_pc / (params.eta * p_r * hi_gain))
    return lo, hi


def recover_beta(p_r, f, g, channel, params: SystemParams):
    """Power-splitting ratios at a feasible operating point.

    beta_i = (1 + (eta sigma^2 (theta_{r,i}-1) - 2 P_c) / (eta P_r |h_i^T f|^2)
                - sigma^2 theta_{i,r} / (eta P_r |h_i^T f|^2 |g h_i|^2)) / 2,
    the midpoint of the feasible splitting interval. Raises InfeasibleError
    when P_r is not positive and finite, when the interval is empty (P_r
    below the required power) or when beta is NaN or outside [0, 1] beyond
    rounding."""
    if not 0.0 < p_r < math.inf:
        raise InfeasibleError(f"relay power {p_r} is not positive and finite")
    const = power_constants(params, params.sigma2, params.p_c)
    betas = []
    for user, h in enumerate((channel.h1, channel.h2)):
        lo, hi = beta_interval(p_r, f, g, channel, params, user)
        if lo > hi + BETA_SLACK:
            raise InfeasibleError(f"empty splitting interval for user {user + 1}: "
                                  f"[{lo}, {hi}]")
        hg = downlink_gain(f, h)
        gi = uplink_gain(g, h)
        beta = 0.5 * (1.0 + const.beta_num[user] / (params.eta * p_r * hg)
                      - const.noise_up[user] / (params.eta * p_r * hg * gi))
        if not -BETA_SLACK <= beta <= 1.0 + BETA_SLACK:
            raise InfeasibleError(f"beta_{user + 1} = {beta} escapes [0, 1]")
        betas.append(min(max(beta, 0.0), 1.0))
    return tuple(betas)


def complete_design(f, g, p_r, channel, params: SystemParams) -> TransceiverDesign:
    """Fill in splitting ratios and uplink powers for a given (f, g, P_r)
    triple."""
    beta = recover_beta(p_r, f, g, channel, params)
    p_up = []
    for b, h in zip(beta, (channel.h1, channel.h2)):
        p_up.append(params.eta * (1.0 - b) * p_r * downlink_gain(f, h)
                    - 2.0 * params.p_c)
    return TransceiverDesign(f=np.asarray(f, dtype=complex),
                             g=np.asarray(g, dtype=complex),
                             p_r=float(p_r), beta=tuple(beta),
                             p_uplink=tuple(p_up))


def verify_rates(design: TransceiverDesign, channel, params: SystemParams) -> RateReport:
    """Evaluate the achievable-rate bounds of a populated design.

    Uplink: R_{i,r} = 1/2 [log2(gamma_i + P_i |g h_i|^2 / sigma^2)]^+.
    Downlink: R_{r,i} = 1/2 log2(1 + beta_i P_r |h_i^T f|^2 / sigma^2).
    Negative margins are reported, never raised; `check_rates` fails a
    report whose rates miss their targets.
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
    r_down = [0.5 * math.log2(1.0 + b * design.p_r * hg / params.sigma2)
              for b, hg in zip(design.beta, h_gain)]

    targets = (params.r1_bar, params.r2_bar)
    margins = (r_up[0] - targets[0], r_up[1] - targets[1],
               r_down[0] - targets[1], r_down[1] - targets[0])
    return RateReport(r_up=tuple(r_up), r_down=tuple(r_down),
                      margins=margins, alpha=alpha, gamma=gamma)


def check_rates(report: RateReport) -> RateReport:
    """``report``, or InfeasibleError if a margin is below -MARGIN_SLACK.

    At the required power the binding margins are 0 up to rounding and the
    others positive. At extreme SNR (about 150 dB at P_c = 10 dB) the
    uplink power eta (1 - beta) P_r |h_i^T f|^2 - 2 P_c cancels to 0 in
    floating point, and the targets are missed by whole bits although
    every check before this one passed. A NaN margin fails too, as does
    +inf, where a received power overflows at huge SNR and circuit power.
    """
    if not all(-MARGIN_SLACK <= m < math.inf for m in report.margins):
        raise InfeasibleError("rate targets missed or margins not finite: "
                              f"margins {report.margins}")
    return report


def joint_combiner(channel, params: SystemParams) -> np.ndarray:
    """Combiner of the jointly optimal (f, g): conj(u(psi)) at the frontier
    angle psi of `joint_angles`, or the matched filter of collinear channels.
    """
    basis = frontier_basis(channel.h1, channel.h2)
    if basis.n1 == 0.0:
        raise DegenerateChannelError("zero channel toward user 1")
    if basis.c == 0.0:
        return np.conj(basis.q1)
    const = power_constants(params, params.sigma2, params.p_c)
    k = tuple(v / params.eta for v in const.noise_up)
    b = tuple(v + const.circuit for v in const.noise_dn)
    psi = joint_angles(basis.n1, basis.a, basis.c, basis.psi_max, k, b)
    return np.conj(basis.vector(psi))


def run_scheme(scheme, channel, params: SystemParams,
               equal_gain_phased: bool = True) -> TransceiverDesign:
    """Solve one channel under one of the four compared schemes.

    Schemes 1 and 2 differ only in the combiner: the global optimum of
    `joint_combiner` or the equal-gain vector; both then take the
    closed-form beamformer. Returns the completed `TransceiverDesign`.
    """
    scheme = SchemeId(scheme)
    if scheme in (SchemeId.JOINT_TRANSCEIVER_PS, SchemeId.BF_PS_EGC_RECEIVER):
        if scheme is SchemeId.JOINT_TRANSCEIVER_PS:
            g = joint_combiner(channel, params)
        else:
            g = equal_gain_vector(channel, phased=equal_gain_phased)
        bf = solve_beamformer(g, channel, params)
        p_r = required_power(bf.f, g, channel, params)
        return complete_design(bf.f, g, p_r, channel, params)

    if scheme is SchemeId.RECEIVER_PS_EQUAL_GAIN_BF:
        f = equal_gain_vector(channel, phased=equal_gain_phased)
        comb = solve_combiner(f, channel, params)
        p_r = required_power(f, comb.g, channel, params)
        return complete_design(f, comb.g, p_r, channel, params)

    if scheme is SchemeId.PS_ONLY:
        f = equal_gain_vector(channel, phased=equal_gain_phased)
        g = equal_gain_vector(channel, phased=equal_gain_phased)
        p_r = required_power(f, g, channel, params)
        return complete_design(f, g, p_r, channel, params)

    raise ValueError(f"unhandled scheme {scheme}")
