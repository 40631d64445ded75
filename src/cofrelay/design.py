"""Transceiver and power-splitter design for the two-way relay downlink.

Conventions: the combiner g and beamformer f are 1-D complex arrays of
length N with unit norm. Effective gains are the bilinear products of the
transmission model, i.e. uplink |g . h_i|^2 and downlink |h_i^T f|^2 with a
plain (unconjugated) dot product; the eigen-domain vector associated with g
is its conjugate.

Both subproblems, the beamformer step (fixed g, mu = 0) and the combiner
step (fixed f), minimize max_i rho_i/|u^H h_i|^2 + mu_i over a unit u. The
optimum lies on the gain frontier (`FrontierBasis`), so one crossing rule,
`frontier_crossings`, solves both.

Every step of a record, from the frontier to the rate margins, is numpy
code on any leading axes, user axis first. The one-record functions here
call it on one channel and raise at the first failed check; `batch` calls
it on the stacked records of a sweep and masks each check. So both paths
give the same bits.

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
COLLINEAR_TOL = 1e-12   # relative residual below which h2 is collinear with h1
NEWTON_MAX = 32         # step cap of the frontier crossing's Newton iteration
BETA_SLACK = 1e-9       # how far a splitting ratio may leave [0, 1] by rounding
MARGIN_SLACK = 1e-6     # how far a verified rate may fall short of its target
UNIT_NORM_TOL = 1e-10


@dataclass
class SystemParams:
    """Static system parameters: antennas, conversion efficiency, circuit
    power, noise power, rate targets."""
    N: int
    eta: float
    p_c: float
    sigma2: float
    r1_bar: float
    r2_bar: float

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("need at least one antenna")
        if not 0 < self.eta <= 1:
            raise ValueError("conversion efficiency must lie in (0, 1]")
        if self.sigma2 <= 0:
            raise ValueError("noise power must be positive")
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


class PowerConstants(NamedTuple):
    """The constants of the relay power constraints P_r |h_i^T f|^2 >= a_i,
    a_i = noise_up_i/(eta |g h_i|^2) + noise_dn_i + circuit, and of the
    splitting ratios, as floats or as the (1, P, 1) columns of
    `batch.OperatingPoints`; per-user ones are pairs."""
    noise_up: tuple     # sigma2 theta_{i,r}
    noise_dn: tuple     # sigma2 (theta_{r,i} - 1)
    circuit: float      # 2 P_c / eta
    two_pc: float       # 2 P_c
    beta_num: tuple     # eta sigma2 (theta_{r,i} - 1) - 2 P_c of `splitting`
    targets: tuple      # of the margins up1, up2, down1, down2


def power_constants(params: SystemParams, sigma2, p_c) -> PowerConstants:
    """`PowerConstants` of the eta and rate targets of ``params`` at noise
    power ``sigma2`` and circuit power ``p_c``, floats or columns.
    Each is formed in its formulas' order, so using it changes no rounding."""
    th = rate_thresholds(params)
    dn1, dn2 = th.theta_r1 - 1.0, th.theta_r2 - 1.0
    two_pc, eta_sigma2 = 2.0 * p_c, params.eta * sigma2
    return PowerConstants(
        noise_up=(sigma2 * th.theta_1r, sigma2 * th.theta_2r),
        noise_dn=(sigma2 * dn1, sigma2 * dn2),
        circuit=two_pc / params.eta,
        two_pc=two_pc,
        beta_num=(eta_sigma2 * dn1 - two_pc, eta_sigma2 * dn2 - two_pc),
        targets=(params.r1_bar, params.r2_bar, params.r2_bar, params.r1_bar))


def _dot(x, y):
    """Unconjugated x . y over the last axis, summed as np.dot sums one pair."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def _norm(x):
    """np.linalg.norm over the last axis, with its summation."""
    re, im = x.real, x.imag
    return np.sqrt(_dot(re, re) + _dot(im, im))


def _users_first(x):
    """Move the last axis to the front."""
    return x.transpose((x.ndim - 1,) + tuple(range(x.ndim - 1)))


def _uplink(g, h):
    """Uplink gains |g . h_i|^2 of combiners g (..., N) toward both users
    of channels h (..., 2, N), as a (2, ...) array."""
    return _users_first(np.abs(_dot(np.asarray(g)[..., None, :], h)) ** 2)


def _downlink(h, f):
    """Downlink gains |h_i . f|^2 of beamformers f, shaped as `_uplink`."""
    return _users_first(np.abs(_dot(h, np.asarray(f)[..., None, :])) ** 2)


def right_hand_sides(const: PowerConstants, eta, up):
    """a_i of the relay power constraints P_r |h_i^T f|^2 >= a_i at the
    uplink gains ``up`` (see `PowerConstants`)."""
    return (np.asarray(const.noise_up) / (eta * up)
            + np.asarray(const.noise_dn) + const.circuit)


def least_power(a, down):
    """max_i a_i/|h_i^T f|^2, the least relay power meeting both
    constraints at the downlink gains ``down``; NaN if either ratio is."""
    ratio = a / down
    return np.maximum(ratio[0], ratio[1])


def combiner_terms(const: PowerConstants, eta, down):
    """(rho_i, mu_i) of the fixed-beamformer subproblem
    min_g max_i rho_i/|g h_i|^2 + mu_i, i.e. a_i/|h_i^T f|^2 at the
    downlink gains ``down``. At unit gains they are the (k_i, b_i) of
    a_i = k_i/y_i + b_i, y_i the uplink gain."""
    return (np.asarray(const.noise_up) / (eta * down),
            (np.asarray(const.noise_dn) + const.circuit) / down)


def splitting(const: PowerConstants, eta, p_r, up, down):
    """(lo, hi, beta): each user's feasible power-splitting interval at
    relay power ``p_r``, empty below the required power, and its midpoint

        beta_i = (1 + (eta sigma^2 (theta_{r,i}-1) - 2 P_c)/(eta P_r |h_i^T f|^2)
                    - sigma^2 theta_{i,r}/(eta P_r |h_i^T f|^2 |g h_i|^2))/2,

    which the callers check and clip to [0, 1]."""
    d = eta * p_r * down
    k = np.asarray(const.noise_up) / (d * up)
    lo = np.asarray(const.noise_dn) / (p_r * down)
    hi = 1.0 - k - const.two_pc / d
    return lo, hi, 0.5 * (1.0 + np.asarray(const.beta_num) / d - k)


def uplink_powers(const: PowerConstants, eta, p_r, beta, down):
    """P_i = eta (1 - beta_i) P_r |h_i^T f|^2 - 2 P_c, the harvested power
    less the circuit power."""
    return eta * (1.0 - beta) * p_r * down - const.two_pc


def rates(const: PowerConstants, sigma2, p_r, beta, p_up, up, down):
    """(s, gamma, r_up, r_down, margins) at the uplink powers ``p_up``:
    s_i = max(P_i, 0) |g h_i|^2, gamma_i = s_i/(s_1 + s_2) (0 unless the
    sum is positive), R_{i,r} = 1/2 [log2(gamma_i + s_i/sigma^2)]^+,
    R_{r,i} = 1/2 log2(1 + beta_i P_r |h_i^T f|^2/sigma^2), and the
    margins (up1, up2, down1, down2) of the rates over their targets."""
    s = np.maximum(p_up, 0.0) * up
    tot = s[0] + s[1]
    gamma = np.where(tot > 0, s / tot, 0.0)
    r_up = 0.5 * np.maximum(0.0, np.log2(gamma + s / sigma2))
    r_down = 0.5 * np.log2(1.0 + beta * p_r * down / sigma2)
    margins = np.stack([r - t for r, t in zip((*r_up, *r_down),
                                              const.targets)])
    return s, gamma, r_up, r_down, margins


def _record(channel):
    """The (2, N) channels of one record."""
    return np.array((channel.h1, channel.h2), dtype=complex)


def _above_floor(gains, link):
    """``gains``, or DegenerateChannelError if either is at or below
    GAIN_FLOOR (not NaN)."""
    if (gains <= GAIN_FLOOR).any():
        raise DegenerateChannelError(f"zero effective {link} gain")
    return gains


def _record_rhs(g, h, params: SystemParams):
    """`right_hand_sides` of the combiner g on one record's channels h."""
    return right_hand_sides(power_constants(params, params.sigma2, params.p_c),
                            params.eta, _above_floor(_uplink(g, h), "uplink"))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def required_power(f, g, channel, params: SystemParams) -> float:
    """Smallest relay power admitting a feasible power split for both users,
    given fixed beamformer and combiner: `least_power`."""
    h = _record(channel)
    a = _record_rhs(g, h, params)
    return float(least_power(a, _above_floor(_downlink(h, f), "downlink")))


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
    """Coordinates of the two-user gain frontier of (h1, h2), one array
    per field over the leading axes of the channels (0-d for one record).

    q1 = h1/n1 with n1 = |h1|, c1 = q1^H h2, A = |c1|, C = |h2 - c1 q1|,
    q2 = (h2 - c1 q1)/C, phase = c1/A and psi_max = atan2(C, A). The unit
    vectors u(psi) = cos(psi) phase q1 + sin(psi) q2, psi in [0, psi_max],
    carry every Pareto-optimal gain pair: |u^H h1|^2 = n1^2 cos^2 psi and
    |u^H h2|^2 = (A cos psi + C sin psi)^2. On collinear channels q2 is
    zero, C = psi_max = 0 and the phase is 1, so the frontier is the point
    u(0) = q1. A zero h1 gives NaN fields; callers fail it first.

    The optimal g and f are both conj(u(psi)) for some psi. Both steps see
    u only through the gains |u^H h_i|^2, to which a component outside
    span{h1, h2} adds nothing: the rank-one optimum of two quadratic
    constraints (Sidiropoulos, Davidson & Luo 2006; Huang & Palomar 2010).
    In the span, u = cos(psi) e^{i theta} q1 + sin(psi) e^{i omega} q2 has
    |u^H h1| = n1 |cos psi| and |u^H h2| <= A |cos psi| + C |sin psi|, with
    equality when the components of h2 add coherently, as in u(psi).
    """
    n1: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    phase: np.ndarray
    a: np.ndarray
    c: np.ndarray
    psi_max: np.ndarray

    def vector(self, psi) -> np.ndarray:
        """The unit vector u(psi); psi broadcasts against the channels."""
        return ((np.cos(psi) * self.phase)[..., None] * self.q1
                + np.sin(psi)[..., None] * self.q2)


@np.errstate(divide="ignore", invalid="ignore")
def frontier_basis(h1, h2) -> FrontierBasis:
    """The `FrontierBasis` of the channel pairs (h1, h2), arrays (..., N)."""
    n1 = _norm(h1)
    q1 = h1 / n1[..., None]
    c1 = _dot(q1.conj(), h2)
    r = h2 - c1[..., None] * q1
    c2 = _norm(r)
    a = np.hypot(c1.real, c1.imag)
    collinear = c2 < COLLINEAR_TOL * np.maximum(1.0, _norm(h2))
    # per part: numpy's complex c1 / a multiplies by a rounded 1/a
    phase = np.where((a > 0.0) & ~collinear,
                     c1.real / a + 1j * (c1.imag / a), 1.0)
    q2 = np.where(collinear[..., None], 0.0, r / c2[..., None])
    c = np.where(collinear, 0.0, c2)
    return FrontierBasis(n1, q1, q2, phase, a, c, np.arctan2(c, a))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def frontier_crossings(n1, a, c, rho, mu):
    """(tan phi, level) minimizing max(T1, T2), T_i = rho_i/x_i + mu_i,
    over the frontier gains x_i of a `FrontierBasis` (n1, A, C), for
    arrays or floats that broadcast together.

    With t = tan phi and s = 1 + t^2, T1 = rho1 s/n1^2 + mu1 rises and
    T2 = rho2 s/(A + C t)^2 + mu2 falls on [0, C/A], so the optimum is an
    end of [0, C/A] or the root of

        g(t) = A + C t - n1 sqrt(rho2 s/(rho1 s + d)),  d = (mu1 - mu2) n1^2.

    For mu1 = mu2 (the beamformer step has mu = 0) g is linear, with root
    (n1 sqrt(rho2/rho1) - A)/C, clipped to [0, C/A]. Otherwise let
    alpha_i = rho_i/n_i^2, L_i = alpha_i + mu_i, and x the tangent of the
    angle from the matched filter of the user with the larger L (x = t for
    user 1, else (C - A t)/(A + C t)). The root is that of the convex,
    rising

        R(x) = (A + C x) sqrt(delta + p x^2) - sqrt(q) (C - A x),

    delta = |L1 - L2|, p that user's alpha and q the other's. If R(0) < 0,
    Newton descends onto it from the smaller root of R's lower bounds with
    sqrt(p) x and sqrt(delta) for the square root, until a step no longer
    decreases x or NEWTON_MAX steps (8 at most on the fig2 and fig3 presets
    and a random stress set). Both rho_i must be positive. Collinear
    (C = 0) and orthogonal (A = 0) channels divide by zero on the way.
    """
    (r1, r2), (m1, m2) = rho, mu
    inside = c > 0.0
    # c / a is inf for a = 0, which leaves t uncapped
    t = np.minimum(np.maximum((n1 * np.sqrt(r2 / r1) - a) / c, 0.0),
                   np.divide(c, a))
    general = inside & (m1 != m2)
    if np.count_nonzero(general):
        al1, al2 = r1 / (n1 * n1), r2 / (a * a + c * c)
        swap = al2 + m2 > al1 + m1
        p, q = np.where(swap, al2, al1), np.where(swap, al1, al2)
        delta = np.abs((al1 + m1) - (al2 + m2))
        sq, sd = np.sqrt(q), np.sqrt(delta)
        active = general & (a * sd < sq * c)  # R(0) < 0
        # roots of the lower bounds with sqrt(p) x and sqrt(delta)
        b = a * (np.sqrt(p) + sq)
        x = 2.0 * sq * c / (b + np.sqrt(b * b + 4.0 * c * c
                                        * np.sqrt(p * q)))
        den = c * sd + a * sq
        x = np.where(den > 0.0, np.minimum(x, (sq * c - a * sd) / den), x)
        x = np.where(active, x, 0.0)
        for _ in range(NEWTON_MAX):
            if not np.count_nonzero(active):
                break
            w = np.sqrt(delta + p * x * x)
            step = (((a + c * x) * w - sq * (c - a * x))
                    / (c * w + (a + c * x) * p * x / w + a * sq))
            active &= (0.0 < x - step) & (x - step < x)
            x = np.where(active, x - step, x)
        t = np.where(general, np.where(swap, (c - a * x) / (a + c * x), x), t)
    t = np.where(inside, t, 0.0)
    s = 1.0 + t * t
    x1, x2 = r1 / (n1 * n1), r2 / (a + c * t) ** 2
    return t, np.maximum(s * x1 + m1, s * x2 + m2)


def crossing_vector(basis: FrontierBasis, rho, mu):
    """(conj u(phi), level) at the crossing tan phi of `frontier_crossings`:
    the beamformer of `solve_beamformer` (mu = 0) and the combiner of
    `min_level_combiner`, on one record or stacked channels."""
    tan_phi, level = frontier_crossings(basis.n1, basis.a, basis.c, rho, mu)
    return basis.vector(np.arctan(tan_phi)).conj(), level


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
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

    This is `crossing_vector` with rho = (a1, a2) and mu = 0.
    """
    h = _record(channel)
    a = _record_rhs(g, h, params)
    f, p_r = crossing_vector(frontier_basis(*h), a, (0.0, 0.0))
    return BeamformerDesign(p_r=float(p_r), f=f, rank_ratio=0.0)


class CombinerDesign(NamedTuple):
    g: np.ndarray
    p_r_implied: float


def _combiner_objective(u, h_vecs, rho, mu):
    val = 0.0
    for h, r, m in zip(h_vecs, rho, mu):
        x = float(np.abs(np.vdot(u, h)) ** 2)
        if x <= GAIN_FLOOR:
            return np.inf
        val = max(val, r / x + m)
    return val


def min_level_combiner(h_vecs, rho, mu) -> CombinerDesign:
    """Exact minimizer of max_i rho_i/|u^H h_i|^2 + mu_i over unit u, for
    two users with rho_i > 0: the frontier vector at the crossing of
    `frontier_crossings`. This is the combiner step (`solve_combiner`).
    At N = 1, as on any collinear pair, the frontier is the one point q1,
    and every unit phase of it is optimal.
    """
    if min(rho) <= 0:
        raise ValueError("both users of the frontier need rho_i > 0")
    h_vecs = [np.asarray(h, dtype=complex) for h in h_vecs]
    g, _ = crossing_vector(frontier_basis(*h_vecs), rho, mu)
    return CombinerDesign(g=g, p_r_implied=float(_combiner_objective(
        g.conj(), h_vecs, rho, mu)))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def solve_combiner(f, channel, params: SystemParams) -> CombinerDesign:
    """Optimal combiner for a fixed beamformer: `min_level_combiner` at
    the `combiner_terms` of its downlink gains."""
    h = _record(channel)
    down = _above_floor(_downlink(h, f), "downlink")
    rho, mu = combiner_terms(power_constants(params, params.sigma2,
                                             params.p_c), params.eta, down)
    return min_level_combiner(h, rho, mu)


@dataclass
class TransceiverDesign:
    """A complete operating point: beamformer, combiner, relay power,
    splitting ratios and uplink powers."""
    f: np.ndarray
    g: np.ndarray
    p_r: float
    beta: tuple
    p_uplink: tuple

    def __post_init__(self):
        for name, v in (("f", self.f), ("g", self.g)):
            nrm = float(np.linalg.norm(v))
            if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # NaN fails too
                raise ValueError(f"{name} must have unit norm, got {nrm}")
        for b in self.beta:
            if not -1e-12 <= b <= 1 + 1e-12:
                raise ValueError(f"beta {b} outside [0, 1]")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def complete_design(f, g, p_r, channel, params: SystemParams) -> TransceiverDesign:
    """Fill in splitting ratios and uplink powers for a given (f, g, P_r)
    triple.

    Each beta_i is the midpoint of its `splitting` interval. Raises
    InfeasibleError when P_r is not positive and finite, when an interval
    is empty (P_r below the required power) or when beta is NaN or outside
    [0, 1] beyond rounding, checking user 1 before user 2."""
    if not 0.0 < p_r < math.inf:
        raise InfeasibleError(f"relay power {p_r} is not positive and finite")
    const = power_constants(params, params.sigma2, params.p_c)
    h = _record(channel)
    f, g = np.asarray(f, dtype=complex), np.asarray(g, dtype=complex)
    up, down = _uplink(g, h), _downlink(h, f)
    lo, hi, beta = splitting(const, params.eta, p_r, up, down)
    for user in range(2):
        if down[user] <= GAIN_FLOOR or up[user] <= GAIN_FLOOR:
            raise DegenerateChannelError("zero effective gain")
        if lo[user] > hi[user] + BETA_SLACK:
            raise InfeasibleError(f"empty splitting interval for user {user + 1}: "
                                  f"[{float(lo[user])}, {float(hi[user])}]")
        if not -BETA_SLACK <= beta[user] <= 1.0 + BETA_SLACK:
            raise InfeasibleError(f"beta_{user + 1} = {float(beta[user])} "
                                  "escapes [0, 1]")
    beta = np.minimum(np.maximum(beta, 0.0), 1.0)
    p_up = uplink_powers(const, params.eta, p_r, beta, down)
    return TransceiverDesign(f=f, g=g, p_r=float(p_r),
                             beta=tuple(beta.tolist()),
                             p_uplink=tuple(p_up.tolist()))


@dataclass
class RateReport:
    """Achieved rate bounds and margins against the targets."""
    r_up: tuple          # node i -> relay, per user
    r_down: tuple        # relay -> node i (high-SNR splitter approximation)
    margins: tuple       # (up1, up2, down1, down2) against the rate targets
    alpha: float
    gamma: tuple


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def verify_rates(design: TransceiverDesign, channel, params: SystemParams) -> RateReport:
    """Evaluate the achievable-rate bounds of a populated design (see
    `rates`). Negative margins are reported, never raised; `check_rates`
    fails a report whose rates miss their targets.
    """
    h = _record(channel)
    s, gamma, r_up, r_down, margins = rates(
        power_constants(params, params.sigma2, params.p_c), params.sigma2,
        design.p_r, np.asarray(design.beta), design.p_uplink,
        _uplink(design.g, h), _downlink(h, design.f))
    s1, s2 = s.tolist()
    alpha = mmse_alpha(s1, s2, params.sigma2) if s1 + s2 > 0 else 0.0
    return RateReport(r_up=tuple(r_up.tolist()), r_down=tuple(r_down.tolist()),
                      margins=tuple(margins.tolist()), alpha=alpha,
                      gamma=tuple(gamma.tolist()))


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
