"""Joint transceiver design, the paper's alternation, and the compared schemes.

Scheme 1 is the global optimum of the joint design: both vectors lie on
the two-user gain frontier, the best beamformer for a given combiner is a
closed-form crossing, and one combiner angle remains. `joint_angles`
gives it for one record (`joint_combiner`, which turns it into the
vector) and for every record of a sweep (`batch.solve`) alike. With equal
rate targets both users' constraints have the same constants, so the
angle is the closed-form max-min gain point of the frontier, where f = g;
with unequal targets it is one golden-section search over [0, psi_max]
for all records at once. `alternate`
keeps the paper's iterative algorithm, which alternates the beamformer
and combiner subproblems until the relay power stalls and is only
locally optimal; the oracle check compares it with
scheme 1, and no sweep runs it. No semidefinite program runs on either
path. Schemes 2-4 freeze one or both vectors: equal-gain weights are
per-antenna unit-magnitude, phase matched to the sum channel (the
symmetric choice for two simultaneous users); an unphased variant is
available for sensitivity checks.
"""

from dataclasses import dataclass
import enum
import math

import numpy as np

from .design import (GAIN_FLOOR, SystemParams, TransceiverDesign,
                     combiner_terms, complete_design, frontier_basis,
                     frontier_crossings, power_constants, required_power,
                     solve_beamformer, solve_combiner)
from .errors import (DegenerateChannelError, InfeasibleError,
                     SolverFailureError)

# the alternation's stopping rule, also oracle-check's flag defaults
DEFAULT_MAX_ITER = 50
DEFAULT_REL_TOL = 1e-5

ANGLE_TOL = 1e-13


class SchemeId(enum.IntEnum):
    """The four compared designs."""
    JOINT_TRANSCEIVER_PS = 1
    BF_PS_EGC_RECEIVER = 2
    RECEIVER_PS_EQUAL_GAIN_BF = 3
    PS_ONLY = 4


@dataclass
class AlternationTrace:
    """Relay power after each half step, plus the completed final design."""
    iterations: list          # (P_r after beamformer step, P_r after combiner step)
    converged: bool
    final: TransceiverDesign

    @property
    def n_iterations(self) -> int:
        return len(self.iterations)

    def power_sequence(self):
        """The interleaved half-step powers, flattened."""
        return [p for pair in self.iterations for p in pair]


def equal_gain_vector(channel, phased: bool = True) -> np.ndarray:
    """Per-antenna unit-gain weights, phase matched to the sum channel, of
    the channels ``channel.h1`` and ``h2``, arrays (..., N): one record, or
    the stacked channels of a `batch.ChannelBatch`."""
    h1, h2 = np.asarray(channel.h1), np.asarray(channel.h2)
    scale = math.sqrt(h1.shape[-1])
    if not phased:
        return np.full(h1.shape, 1.0 / scale, dtype=complex)
    return np.exp(-1j * np.angle(h1 + h2)) / scale


def _rel_change(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _alternate_from(g_init, channel, params, max_iter, rel_tol):
    """One alternation run from a given combiner start.

    The recorded power sequence is non-increasing up to solver tolerance:
    the beamformer step optimizes at the incumbent combiner, and the
    combiner step keeps the incumbent whenever its subproblem fails to
    improve on it numerically. The run stops when a half step changes the
    power by less than ``rel_tol``: since the previous cycle's power
    p_prev >= p_f >= p_g, (p_f - p_g) / p_f <= (p_prev - p_g) / p_prev, so
    a full-cycle rule would never stop a run sooner.
    """
    g = np.asarray(g_init, dtype=complex)
    iterations = []
    converged = False
    f = None
    for _ in range(max_iter):
        bf = solve_beamformer(g, channel, params)
        f = bf.f
        p_f = bf.p_r
        comb = solve_combiner(f, channel, params)
        if comb.p_r_implied <= p_f:
            g = comb.g
            p_g = comb.p_r_implied
        else:
            p_g = p_f
        iterations.append((p_f, p_g))
        if _rel_change(p_f, p_g) < rel_tol:
            converged = True
            break

    p_final = required_power(f, g, channel, params)
    final = complete_design(f, g, p_final, channel, params)
    return AlternationTrace(iterations=iterations, converged=converged, final=final)


def alternate(channel, params: SystemParams, max_iter: int = DEFAULT_MAX_ITER,
              rel_tol: float = DEFAULT_REL_TOL,
              multi_start: bool = True) -> AlternationTrace:
    """Joint beamformer/combiner/power-splitter design by alternation.

    This is the paper's iterative algorithm. It is only locally optimal;
    scheme 1 (`run_scheme`) computes the global optimum instead, and the
    oracle check and the tests compare the two.

    The first run always starts from the uniform combiner and stops when the
    relative relay-power change over a half step drops below ``rel_tol``.
    Alternating minimization is only locally convergent, so by default a
    handful of deterministic warm starts (sum-channel equal-gain,
    per-user matched filters, the combiner optimum at the equal-gain
    beamformer) are polished the same way and the best converged run is
    returned; its trace is monotone like any single run. ``multi_start=False`` gives the bare single-start behavior.
    """
    for user, h in enumerate((channel.h1, channel.h2), start=1):
        if np.linalg.norm(h) == 0.0:
            raise DegenerateChannelError(f"zero channel toward user {user}")
    g_inits = [equal_gain_vector(channel, phased=False)]
    if multi_start:
        phased = equal_gain_vector(channel, phased=True)
        g_inits.append(phased)
        g_inits.append(np.conj(channel.h1) / np.linalg.norm(channel.h1))
        g_inits.append(np.conj(channel.h2) / np.linalg.norm(channel.h2))
        g_inits.append(solve_combiner(phased, channel, params).g)

    best = None
    seen = []
    first_error = None
    for g0 in g_inits:
        if any(np.allclose(g0, prev) for prev in seen):
            continue
        seen.append(g0)
        try:
            trace = _alternate_from(g0, channel, params, max_iter, rel_tol)
        except (DegenerateChannelError, InfeasibleError, SolverFailureError) as exc:
            # e.g. a matched-filter start that zeroes the other user's gain
            first_error = first_error or exc
            continue
        if best is None or trace.final.p_r < best.final.p_r:
            best = trace
    if best is None:
        raise first_error if first_error is not None else \
            SolverFailureError("no alternation start succeeded")
    return best


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def joint_combiner(channel, params: SystemParams) -> np.ndarray:
    """Combiner of the jointly optimal (f, g): conj(u(psi)) at the frontier
    angle psi of `joint_angles`, which is 0 on collinear channels.
    """
    basis = frontier_basis(channel.h1, channel.h2)
    if basis.n1 == 0.0:
        raise DegenerateChannelError("zero channel toward user 1")
    k, b = combiner_terms(power_constants(params, params.sigma2, params.p_c),
                          params.eta, 1.0)
    psi = joint_angles(basis.n1, basis.a, basis.c, basis.psi_max, k, b)
    return np.conj(basis.vector(psi))


def joint_angles(n1, a, c, psi_max, k, b):
    """Combiner angle psi of the jointly optimal (f, g), for one record or
    all records of a sweep: (n1, A, C, psi_max) of `design.FrontierBasis`
    (psi is 0 on a collinear one) and the pairs k, b of the right-hand sides
    a_i = k_i/y_i + b_i of `design.right_hand_sides`, y_i the uplink gain
    (`design.combiner_terms` at unit gains), are floats or arrays that
    broadcast together (a (T,) channel axis with a (1, P, 1) point axis).
    For a combiner at angle psi the best beamformer is the crossing of
    `design.frontier_crossings`, so the joint problem is the minimum of
    P*(psi) = P*(a1(psi), a2(psi)) over [0, psi_max].

    With equal rate targets k1 = k2 and b1 = b2, and the optimum has f = g
    at the max-min gain point of the frontier: the two-user multicast
    beamformer (Sidiropoulos, Davidson & Luo 2006), tan psi = (n1 - A)/C
    clipped to [0, C/A], the crossing with rho = (1, 1), and psi its
    `np.arctan`; one record and a sweep run the same numpy code. For b = 0
    this is proved: in sqrt-gain coordinates the frontier bounds a convex
    set, so with x_i the downlink gains, min_i x_i y_i is at most m^2 for
    the max-min gain m, which f = g attains. The b/x_i term is not covered by that argument; the
    tests certify the closed form against `angle_search` on the fig2 and
    fig3 preset records and on random draws, and acceptance check c06
    against the grid oracle. With unequal targets f = g can be far from
    optimal, and the angle is `angle_search`'s.
    """
    (k1, k2), (b1, b2) = k, b
    if (np.equal(k1, k2) & np.equal(b1, b2)).all():
        tan_psi, _ = frontier_crossings(n1, a, c, (1.0, 1.0), (0.0, 0.0))
        return np.arctan(tan_psi)
    return angle_search(n1, a, c, psi_max, k, b)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def angle_search(n1, a, c, psi_max, k, b):
    """`joint_angles` by search, for any rate targets and all records at
    once: golden-section search (Kiefer 1953) over [0, psi_max], one new
    angle per record and pass until the bracket is ANGLE_TOL wide, then
    the better inner point. It needs P*(psi) to have one local minimum;
    that is unproved, but held at 4001 angles on every probed record
    (fig2/fig3 at six target pairs, N = 2-16, and 20 000 random draws),
    and `TestUnequalTargetCertificate` certifies the angles by branch
    and bound on the presets and on random draws.
    """
    (k1, k2), (b1, b2) = k, b

    def power(psi):
        cos, sin = np.cos(psi), np.sin(psi)
        x1 = (n1 * cos) ** 2
        x2 = (a * cos + c * sin) ** 2
        # x2 -> 0 as psi -> 0 on orthogonal channels; the mask drops it
        _, level = frontier_crossings(n1, a, c, (k1 / x1 + b1, k2 / x2 + b2),
                                      (0.0, 0.0))
        return np.where((x1 > GAIN_FLOOR) & (x2 > GAIN_FLOOR), level, math.inf)

    lo = np.zeros(np.broadcast_shapes(*map(np.shape, (n1, a, c, psi_max, k1,
                                                      k2, b1, b2))))
    hi = lo + psi_max
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    x_c, x_d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    f_c, f_d = power(x_c), power(x_d)
    active = hi - lo > ANGLE_TOL
    while active.any():
        left = f_c <= f_d    # the minimum is in [lo, d], else in [c, hi]
        hi = np.where(active & left, x_d, hi)
        lo = np.where(active & ~left, x_c, lo)
        x = np.where(left, hi - inv * (hi - lo), lo + inv * (hi - lo))
        f = power(x)
        x_c, f_c, x_d, f_d = (
            np.where(active, np.where(left, x, x_d), x_c),
            np.where(active, np.where(left, f, f_d), f_c),
            np.where(active, np.where(left, x_c, x), x_d),
            np.where(active, np.where(left, f_c, f), f_d))
        active &= hi - lo > ANGLE_TOL
    return np.where(f_c <= f_d, x_c, x_d)


def run_scheme(scheme, channel, params: SystemParams,
               equal_gain_phased: bool = True) -> TransceiverDesign:
    """Solve one channel under one of the four compared schemes.

    Schemes 1 and 2 differ only in the combiner: the global optimum of
    `joint_combiner` or the equal-gain vector; both then take the
    closed-form beamformer. Scheme 3 takes the exact combiner for the
    equal-gain beamformer, and scheme 4 keeps both equal-gain vectors.
    Every scheme ends in `required_power` and `complete_design`.
    """
    scheme = SchemeId(scheme)
    f = g = equal_gain_vector(channel, phased=equal_gain_phased)
    if scheme is SchemeId.JOINT_TRANSCEIVER_PS:
        g = joint_combiner(channel, params)
    if scheme <= SchemeId.BF_PS_EGC_RECEIVER:
        f = solve_beamformer(g, channel, params).f
    elif scheme is SchemeId.RECEIVER_PS_EQUAL_GAIN_BF:
        g = solve_combiner(f, channel, params).g
    p_r = required_power(f, g, channel, params)
    return complete_design(f, g, p_r, channel, params)
