"""Alternating transceiver optimization and the compared baseline schemes.

Scheme 1 alternates the beamformer and combiner subproblems from the
uniform combiner start until the relay power stalls. Both subproblems are
solved exactly by the two-user frontier routine of `design`, so no
semidefinite program runs on this path. Schemes 2-4 freeze one
or both vectors: equal-gain weights are per-antenna unit-magnitude, phase
matched to the sum channel (the symmetric choice for two simultaneous
users); an unphased variant is available for sensitivity checks.
"""

from dataclasses import dataclass
import enum
import math

import numpy as np

from .design import (SystemParams, TransceiverDesign, complete_design,
                     required_power, solve_beamformer, solve_combiner)
from .errors import (DegenerateChannelError, InfeasibleError,
                     SolverFailureError)

DEFAULT_MAX_ITER = 50
DEFAULT_REL_TOL = 1e-5


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
              rel_tol: float = DEFAULT_REL_TOL, multi_start: bool = True,
              extra_g_inits=()) -> AlternationTrace:
    """Joint beamformer/combiner/power-splitter design by alternation.

    The first run always starts from the uniform combiner and stops when the
    relative relay-power change over a half step or a full cycle drops below
    ``rel_tol``. Alternating minimization is only locally convergent, so by
    default a handful of deterministic warm starts (sum-channel equal-gain,
    per-user matched filters, the combiner optimum at the equal-gain
    beamformer, plus any ``extra_g_inits``) are polished the same way and
    the best converged run is returned; its trace is monotone like any
    single run. ``multi_start=False`` gives the bare single-start behavior.
    """
    n = params.N
    g_inits = [uniform_combiner(n)]
    if multi_start:
        g_inits.append(equal_gain_vector(channel, phased=True))
        g_inits.append(np.conj(channel.h1) / np.linalg.norm(channel.h1))
        g_inits.append(np.conj(channel.h2) / np.linalg.norm(channel.h2))
        f_eg = equal_gain_vector(channel, phased=True)
        g_inits.append(solve_combiner(f_eg, channel, params).g)
        g_inits.extend(np.asarray(g, dtype=complex) for g in extra_g_inits)

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


class SchemeResult:
    def __init__(self, design: TransceiverDesign, iterations: int,
                 trace: AlternationTrace = None):
        self.design = design
        self.iterations = iterations
        self.trace = trace


def run_scheme(scheme, channel, params: SystemParams,
               max_iter: int = DEFAULT_MAX_ITER, rel_tol: float = DEFAULT_REL_TOL,
               equal_gain_phased: bool = True) -> SchemeResult:
    """Solve one channel under one of the four compared schemes."""
    scheme = SchemeId(scheme)
    if scheme is SchemeId.JOINT_TRANSCEIVER_PS:
        # Warm starts at the baseline operating points (under the active
        # equal-gain convention) make the joint design dominate every
        # restricted scheme on each individual channel, which the nesting
        # ordering requires.
        g_eg = equal_gain_vector(channel, phased=equal_gain_phased)
        extra = [g_eg]
        try:
            f_eg = equal_gain_vector(channel, phased=equal_gain_phased)
            extra.append(solve_combiner(f_eg, channel, params).g)
        except (DegenerateChannelError, InfeasibleError, SolverFailureError):
            pass
        trace = alternate(channel, params, max_iter=max_iter, rel_tol=rel_tol,
                          extra_g_inits=tuple(extra))
        return SchemeResult(trace.final, trace.n_iterations, trace)

    if scheme is SchemeId.BF_PS_EGC_RECEIVER:
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
