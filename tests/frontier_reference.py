"""Solver-free references for the joint design, shared by the tests.

Nothing here calls the package's solvers: the optimal vectors are searched
directly on the two-user gain frontier, and every constraint right-hand
side a_i comes from the frozen ``record_reference.constraint_rhs``, or
for a whole combiner grid from ``grid_rhs``, its formula over the rows.
"""

import math

import numpy as np

from cofrelay.design import GAIN_FLOOR, power_constants
from cofrelay.errors import DegenerateChannelError
from record_reference import constraint_rhs


def grid_rhs(params, gs, ch):
    """``constraint_rhs`` of every combiner row of ``gs``, as two arrays:
    the same formula, one array expression per user."""
    const = power_constants(params, params.sigma2, params.p_c)
    out = []
    for h, noise_up, noise_dn in zip((ch.h1, ch.h2), const.noise_up,
                                     const.noise_dn):
        gi = np.abs(gs @ h) ** 2
        if np.any(gi <= GAIN_FLOOR):
            raise DegenerateChannelError("zero effective uplink gain")
        out.append(noise_up / (params.eta * gi) + noise_dn + const.circuit)
    return np.array(out)


def frontier_basis(ch):
    """Coordinates of the two-user gain frontier of one channel.

    As in ``design.frontier_basis``: e1 is h1/|h1| rotated so that the
    two components of h2 add coherently, e2 the unit part of h2 orthogonal
    to h1. The unit vectors u(phi) = cos(phi) e1 + sin(phi) e2, phi in
    [0, phi_max], carry every Pareto-optimal gain pair |u^H h_i|^2; the
    combiner g = conj(u) and the beamformer f = conj(u) see the same gains.
    Returns (e1, e2, k, phi_max) with k[i] = (e1^H h_i, e2^H h_i).
    Needs channels that are neither collinear nor orthogonal.
    """
    q1 = ch.h1 / np.linalg.norm(ch.h1)
    c1 = np.vdot(q1, ch.h2)
    r = ch.h2 - c1 * q1
    e1 = q1 * c1 / abs(c1)
    e2 = r / np.linalg.norm(r)
    k = [(np.vdot(e1, h), np.vdot(e2, h)) for h in (ch.h1, ch.h2)]
    return e1, e2, k, math.atan2(np.linalg.norm(r), abs(c1))


def frontier_power(a, k, phi_max, iters=56):
    """min over frontier beamformers of max_i a_i / |h_i^T f|^2.

    ``a`` holds the two right-hand-side arrays (one entry per combiner).
    Along phi, a_1/H_1 increases and a_2/H_2 decreases, so the optimum is
    their crossing or an end point; vectorised bisection finds it.
    """
    def ratios(phi):
        c, s = np.cos(phi), np.sin(phi)
        return [ai / np.abs(c * ki[0] + s * ki[1]) ** 2 for ai, ki in zip(a, k)]

    lo = np.zeros_like(a[0])
    hi = np.full_like(a[0], phi_max)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        t1, t2 = ratios(mid)
        left = t1 < t2
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    return np.minimum(np.maximum(*ratios(lo)), np.maximum(*ratios(hi)))


def joint_reference(ch, params):
    """P_1*, the minimum relay power of the joint design on one channel.

    Searches the combiner angle on a 2049-point frontier grid, then zooms
    in eight times on the best point with 17-point grids; the beamformer
    for each combiner is the crossing of ``frontier_power``.
    """
    e1, e2, k, phi_max = frontier_basis(ch)

    def joint(phis):
        gs = np.conj(np.outer(np.cos(phis), e1) + np.outer(np.sin(phis), e2))
        return frontier_power(grid_rhs(params, gs, ch), k, phi_max)

    phis = np.linspace(0.0, phi_max, 2049)
    p1 = math.inf
    for _ in range(8):
        vals = joint(phis)
        j = int(np.argmin(vals))
        p1 = min(p1, float(vals[j]))
        phis = np.linspace(phis[max(j - 1, 0)], phis[min(j + 1, len(phis) - 1)], 17)
    return p1


def gap_reference(ch, params):
    """Solver-free (P_1*, P_2*, envelope) of one channel.

    P_1* is ``joint_reference``; P_2* is the beamformer crossing at the
    phased equal-gain combiner. The envelope max_i a_i(g_eg) / a_i^lo, with
    a_i^lo the right-hand side at the matched filter of user i (the largest
    uplink gain a unit combiner can give), bounds P_2 / P_1 from above.
    """
    _, _, k, phi_max = frontier_basis(ch)
    g_eg = np.exp(-1j * np.angle(ch.h1 + ch.h2)) / math.sqrt(len(ch.h1))
    a_eg = constraint_rhs(params, g_eg, ch)
    p2 = float(frontier_power(np.array(a_eg)[:, None], k, phi_max)[0])
    a_lo = [constraint_rhs(params, np.conj(h) / np.linalg.norm(h), ch)[i]
            for i, h in enumerate((ch.h1, ch.h2))]
    return (joint_reference(ch, params), p2,
            max(a / lo for a, lo in zip(a_eg, a_lo)))
