"""Joint transceiver design, the paper's alternation, and the compared schemes.

Scheme 1 is the global optimum of the joint design: both vectors lie on
the two-user gain frontier, the best beamformer for a given combiner is a
closed-form crossing, and `joint_combiner` searches the one remaining
combiner angle. `alternate` keeps the paper's iterative algorithm, which
alternates the beamformer and combiner subproblems until the relay power
stalls and is only locally optimal; the oracle check compares it with
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

from .design import (GAIN_FLOOR, FrontierBasis, SystemParams,
                     TransceiverDesign, complete_design, frontier_basis,
                     frontier_crossing, rate_thresholds, required_power,
                     solve_beamformer, solve_combiner)
from .errors import (DegenerateChannelError, InfeasibleError,
                     SolverFailureError)

DEFAULT_MAX_ITER = 50
DEFAULT_REL_TOL = 1e-5

GRID_POINTS = 257
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


def uniform_combiner(n: int) -> np.ndarray:
    return np.ones(n, dtype=complex) / math.sqrt(n)


def equal_gain_vector(channel, phased: bool = True) -> np.ndarray:
    """Per-antenna unit-gain weights, phase matched to the sum channel."""
    n = len(channel.h1)
    if not phased:
        return uniform_combiner(n)
    s = np.asarray(channel.h1) + np.asarray(channel.h2)
    w = np.exp(-1j * np.angle(s)) / math.sqrt(n)
    return w


def _rel_change(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _alternate_from(g_init, channel, params, max_iter, rel_tol):
    """One alternation run from a given combiner start.

    The recorded power sequence is non-increasing up to solver tolerance:
    the beamformer step optimizes at the incumbent combiner, and the
    combiner step keeps the incumbent whenever its subproblem fails to
    improve on it numerically.
    """
    g = np.asarray(g_init, dtype=complex)
    iterations = []
    converged = False
    f = None
    p_g = None
    p_g_prev = None
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
        elif p_g_prev is not None and _rel_change(p_g_prev, p_g) < rel_tol:
            converged = True
        p_g_prev = p_g
        if converged:
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
    relative relay-power change over a half step or a full cycle drops below
    ``rel_tol``. Alternating minimization is only locally convergent, so by
    default a handful of deterministic warm starts (sum-channel equal-gain,
    per-user matched filters, the combiner optimum at the equal-gain
    beamformer) are polished the same way and the best converged run is
    returned; its trace is monotone like any single run. ``multi_start=False`` gives the bare single-start behavior.
    """
    for user, h in enumerate((channel.h1, channel.h2), start=1):
        if np.linalg.norm(h) == 0.0:
            raise DegenerateChannelError(f"zero channel toward user {user}")
    n = params.N
    g_inits = [uniform_combiner(n)]
    if multi_start:
        g_inits.append(equal_gain_vector(channel, phased=True))
        g_inits.append(np.conj(channel.h1) / np.linalg.norm(channel.h1))
        g_inits.append(np.conj(channel.h2) / np.linalg.norm(channel.h2))
        f_eg = equal_gain_vector(channel, phased=True)
        g_inits.append(solve_combiner(f_eg, channel, params).g)

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


def _frontier_powers(basis: FrontierBasis, coeffs, psi) -> np.ndarray:
    """P*(a1(psi), a2(psi)) of `design.frontier_crossing` on an array of
    combiner angles; inf where a gain is at or below the floor."""
    (k1, b1), (k2, b2) = coeffs
    n1, a, c = basis.n1, basis.a, basis.c
    cos, sin = np.cos(psi), np.sin(psi)
    x1 = (n1 * cos) ** 2
    x2 = (a * cos + c * sin) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a1 = k1 / x1 + b1
        a2 = k2 / x2 + b2
        t = np.clip((n1 * np.sqrt(a2 / a1) - a) / c, 0.0,
                    c / a if a > 0.0 else np.inf)
        p = (1.0 + t * t) * np.maximum(a1 / (n1 * n1), a2 / (a + c * t) ** 2)
    return np.where((x1 > GAIN_FLOOR) & (x2 > GAIN_FLOOR), p, np.inf)


def _golden_section(fun, lo, hi, tol):
    """(x, fun(x)) at the minimum of a unimodal ``fun`` on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - inv * (hi - lo), lo + inv * (hi - lo)
    fc, fd = fun(c), fun(d)
    while hi - lo > tol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = fun(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def joint_combiner(channel, params: SystemParams) -> np.ndarray:
    """Combiner of the jointly optimal (f, g): a 1-D search along the frontier.

    Both optimal vectors lie on the gain frontier of `design.frontier_basis`,
    and for a combiner at angle psi the best beamformer has the closed form
    of `design.frontier_crossing`, so the joint problem is the minimum of
    P*(psi) = P*(a1(psi), a2(psi)) over psi in [0, psi_max]. P* is evaluated
    on a uniform grid of GRID_POINTS angles, and the bracket around the
    best grid point is refined by golden-section search to ANGLE_TOL; the
    better of the two points is kept, so the result is never above the grid
    minimum.
    """
    basis = frontier_basis(channel.h1, channel.h2)
    if basis.q2 is None:
        return np.conj(basis.q1)
    # a_i = k_i / x_i + b_i, x_i the uplink gain (`design.constraint_rhs`)
    th = rate_thresholds(params)
    base = 2.0 * params.p_c / params.eta
    coeffs = ((params.sigma2 * th.theta_1r / params.eta,
               params.sigma2 * (th.theta_r1 - 1.0) + base),
              (params.sigma2 * th.theta_2r / params.eta,
               params.sigma2 * (th.theta_r2 - 1.0) + base))
    (k1, b1), (k2, b2) = coeffs
    n1, a, c = basis.n1, basis.a, basis.c

    def power(psi):  # scalar twin of _frontier_powers
        cos, sin = math.cos(psi), math.sin(psi)
        x1 = (n1 * cos) ** 2
        x2 = (a * cos + c * sin) ** 2
        if x1 <= GAIN_FLOOR or x2 <= GAIN_FLOOR:
            return math.inf
        return frontier_crossing(basis, k1 / x1 + b1, k2 / x2 + b2)[1]

    psi = np.linspace(0.0, basis.psi_max, GRID_POINTS)
    j = int(np.argmin(_frontier_powers(basis, coeffs, psi)))
    best = (float(psi[j]), power(float(psi[j])))
    lo, hi = psi[max(j - 1, 0)], psi[min(j + 1, GRID_POINTS - 1)]
    best = min(best, _golden_section(power, float(lo), float(hi), ANGLE_TOL),
               key=lambda pair: pair[1])
    return np.conj(basis.vector(best[0]))


class SchemeResult:
    def __init__(self, design: TransceiverDesign, iterations: int):
        self.design = design
        self.iterations = iterations


def run_scheme(scheme, channel, params: SystemParams,
               equal_gain_phased: bool = True) -> SchemeResult:
    """Solve one channel under one of the four compared schemes.

    Schemes 1 and 2 differ only in the combiner: the global optimum of
    `joint_combiner` or the equal-gain vector; both then take the
    closed-form beamformer. No scheme iterates, so ``iterations`` is 0.
    """
    scheme = SchemeId(scheme)
    if scheme in (SchemeId.JOINT_TRANSCEIVER_PS, SchemeId.BF_PS_EGC_RECEIVER):
        if scheme is SchemeId.JOINT_TRANSCEIVER_PS:
            g = joint_combiner(channel, params)
        else:
            g = equal_gain_vector(channel, phased=equal_gain_phased)
        bf = solve_beamformer(g, channel, params)
        p_r = required_power(bf.f, g, channel, params)
        return SchemeResult(complete_design(bf.f, g, p_r, channel, params), 0)

    if scheme is SchemeId.RECEIVER_PS_EQUAL_GAIN_BF:
        f = equal_gain_vector(channel, phased=equal_gain_phased)
        comb = solve_combiner(f, channel, params)
        p_r = required_power(f, comb.g, channel, params)
        return SchemeResult(complete_design(f, comb.g, p_r, channel, params), 0)

    if scheme is SchemeId.PS_ONLY:
        f = equal_gain_vector(channel, phased=equal_gain_phased)
        g = equal_gain_vector(channel, phased=equal_gain_phased)
        p_r = required_power(f, g, channel, params)
        return SchemeResult(complete_design(f, g, p_r, channel, params), 0)

    raise ValueError(f"unhandled scheme {scheme}")
