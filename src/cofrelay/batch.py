"""The compared schemes over many channels and operating points in one pass.

`solve` does the work of `optimizer.run_scheme` followed by
`design.verify_rates` and `design.check_rates` for many records at once.
The T channel draws are one (T, 2, N) array, the P operating points are
(1, P, 1) columns of sigma2 and P_c, and every per-record quantity of the
S schemes is one stacked (S, P, T) array. Every step is the code that the
one-record functions call, run on stacked arrays: the frontier basis and
crossing of `design`, the equal-gain weights of `optimizer`, and the
gains, right-hand sides, combiner coefficients, least power, splitting,
uplink powers and rates of `design`. So a record's bits do not depend on
which path solved it (`TestOneRecordExact`). Every check of the
one-record path is an array mask with the same threshold, in the same
order; a record that fails one carries the error class the one-record
path raises as its status.

Scheme 1's combiner angle is one `optimizer.joint_angles` call on the
(P, T) records, the routine that the one-record path calls on one record.
"""

from functools import cached_property
import math
from typing import NamedTuple

import numpy as np

from .design import (BETA_SLACK, GAIN_FLOOR, MARGIN_SLACK, UNIT_NORM_TOL,
                     FrontierBasis, _downlink, _uplink, combiner_terms,
                     crossing_vector, frontier_basis, least_power,
                     power_constants, rates, right_hand_sides, splitting,
                     uplink_powers)
from .errors import DegenerateChannelError, InfeasibleError
from .optimizer import SchemeId, equal_gain_vector, joint_angles


class ChannelBatch:
    """T channel draws as one (T, 2, N) array ``h`` with their (T,) seeds,
    as `scenario.gen_channels` returns them, and the per-channel
    quantities that every scheme shares computed once. Its (T, N) views
    ``h1`` and ``h2`` let it stand for a channel in the one-record code."""

    def __init__(self, h, seeds):
        self.h = h
        self.h1, self.h2 = h[:, 0], h[:, 1]
        self.seeds = seeds

    @classmethod
    def stack(cls, channels):
        """The batch of a list of `scenario.ChannelRealization`s."""
        channels = list(channels)
        return cls(np.array([(ch.h1, ch.h2) for ch in channels],
                            dtype=complex),
                   np.array([ch.seed for ch in channels], dtype=np.uint64))

    @cached_property
    def basis(self) -> FrontierBasis:
        return frontier_basis(self.h1, self.h2)

    def equal_gain(self, phased: bool):
        """`optimizer.equal_gain_vector` w of every channel, with `_unit`
        of w and its uplink and downlink gains as (2, 1, 1, T) arrays."""
        w = equal_gain_vector(self, phased)
        return (w, _unit(w), _uplink(w, self.h)[:, None, None],
                _downlink(self.h, w)[:, None, None])


class OperatingPoints:
    """P operating points: ``const`` holds their `design.PowerConstants`
    and ``sigma2`` their noise powers as (1, P, 1) columns, so that they
    broadcast against the (2, S, P, T) gains of S schemes.

    The points share N, eta and the rate targets and differ in sigma2 and
    P_c, as the points of one sweep do.
    """

    def __init__(self, params_list):
        self.params = list(params_list)
        first = self.params[0]
        shared = (first.N, first.eta, first.r1_bar, first.r2_bar)
        if any((p.N, p.eta, p.r1_bar, p.r2_bar) != shared for p in self.params):
            raise ValueError("operating points must share N, eta and the "
                             "rate targets")
        self.eta = first.eta
        self.sigma2 = np.array([p.sigma2 for p in self.params])[None, :, None]
        p_c = np.array([p.p_c for p in self.params])[None, :, None]
        self.const = power_constants(first, self.sigma2, p_c)

    def __len__(self):
        return len(self.params)


class _Board:
    """Per-record status: "ok" until the first failed check."""

    def __init__(self, shape):
        self.ok = np.ones(shape, dtype=bool)
        self.status = np.full(shape, "ok", dtype=object)

    def require(self, passed, error):
        """Fail the records not under ``passed`` that have not failed yet;
        a comparison with NaN is False, so it fails its record."""
        new = self.ok > passed
        if new.any():
            self.status[new] = f"failed:{error.__name__}"
            self.ok &= ~new

    def floor(self, up, down):
        """The gain-floor check of (2, S, P, T) gains: DegenerateChannelError
        at or below it (not at NaN)."""
        low = (up <= GAIN_FLOOR) | (down <= GAIN_FLOOR)
        self.require(~(low[0] | low[1]), DegenerateChannelError)


class BatchResult(NamedTuple):
    """Per-record outputs of `solve`, each (S, P, T) and NaN where the
    status is a failure."""
    p_r: np.ndarray
    beta: np.ndarray      # (2, S, P, T): beta1, beta2
    margins: np.ndarray   # (4, S, P, T): up1, up2, down1, down2
    status: np.ndarray    # objects: "ok" or "failed:<error class>"


def _unit(v):
    """The unit-norm check of `design.TransceiverDesign`, per v[..., :]."""
    return (np.abs(np.sqrt((np.abs(v) ** 2).sum(axis=-1)) - 1.0)
            <= UNIT_NORM_TOL)


def _tail(pts: OperatingPoints, board, unit, up, down, rhs) -> BatchResult:
    """`required_power`, `complete_design`, `verify_rates` and
    `check_rates` per record, from the (2, S, P, T) gains of (f, g) and
    constraint right-hand sides; ``unit`` is `_unit` of f and g."""
    board.floor(up, down)
    const, eta = pts.const, pts.eta
    p_r = least_power(rhs, down)
    lo, hi, beta = splitting(const, eta, p_r, up, down)
    bad = ((lo > hi + BETA_SLACK) | (beta < -BETA_SLACK)
           | (beta > 1.0 + BETA_SLACK))
    # `design.complete_design`, whose first check is a positive, finite P_r
    board.require((0.0 < p_r) & (p_r < math.inf) & ~(bad[0] | bad[1]),
                  InfeasibleError)
    beta = np.minimum(np.maximum(beta, 0.0), 1.0)
    board.require(unit, ValueError)

    *_, margins = rates(const, pts.sigma2, p_r, beta,
                        uplink_powers(const, eta, p_r, beta, down), up, down)
    # `design.check_rates`: a margin below -MARGIN_SLACK, NaN or +inf fails
    board.require(((margins >= -MARGIN_SLACK) & (margins < math.inf))
                  .all(axis=0), InfeasibleError)

    if not board.ok.all():
        bad = ~board.ok
        p_r = np.where(bad, np.nan, p_r)
        beta = np.where(bad, np.nan, beta)
        margins = np.where(bad, np.nan, margins)
    return BatchResult(p_r=p_r, beta=beta, margins=margins, status=board.status)


def solve(schemes, batch: ChannelBatch, points: OperatingPoints,
          equal_gain_phased: bool = True) -> BatchResult:
    """`optimizer.run_scheme`, `design.verify_rates` and `check_rates` for
    every channel of ``batch`` at every one of the P ``points`` under each
    of the S sorted, distinct ``schemes``; the records are (S, P, T). Only
    the combiners are per scheme: one beamformer crossing serves schemes 1
    and 2 (the slice [:k]), and one `_tail` all (S, P, T) records."""
    schemes = tuple(map(SchemeId, schemes))
    if not schemes or schemes != tuple(sorted(set(schemes))):
        raise ValueError("schemes must be sorted, distinct and at least one")
    shape = (len(schemes), len(points), len(batch.h))
    k = sum(s <= SchemeId.BF_PS_EGC_RECEIVER for s in schemes)
    board = _Board(shape)
    up, down = np.empty((2,) + shape), np.empty((2,) + shape)
    unit = np.empty(shape, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if schemes[-1] is not SchemeId.JOINT_TRANSCEIVER_PS:
            _, unit_w, up_w, down_w = batch.equal_gain(equal_gain_phased)
        for i, scheme in enumerate(schemes):
            if scheme is SchemeId.JOINT_TRANSCEIVER_PS:
                basis = batch.basis
                psi = joint_angles(basis.n1, basis.a, basis.c, basis.psi_max,
                                   *combiner_terms(points.const, points.eta,
                                                   1.0))
                # psi is (T,) at equal targets; `optimizer.joint_combiner`
                # raises on a zero h1, where g = 0 fails at the gain floor
                g = np.where((basis.n1 > 0.0)[:, None], basis.vector(
                    np.reshape(psi, (1, -1, shape[2]))).conj(), 0.0)
            elif scheme is SchemeId.RECEIVER_PS_EQUAL_GAIN_BF:
                g, _ = crossing_vector(batch.basis, *combiner_terms(
                    points.const, points.eta, down_w))
            else:  # w, as is the beamformer of schemes 3 and 4
                up[:, i:i + 1], unit[i] = up_w, unit_w
                continue
            up[:, i:i + 1], unit[i] = _uplink(g, batch.h), _unit(g)
        rhs = right_hand_sides(points.const, points.eta, up)
        if k:
            f, _ = crossing_vector(batch.basis, rhs[:, :k], (0.0, 0.0))
            down[:, :k] = _downlink(batch.h, f)
            unit[:k] &= _unit(f)
        if k < len(schemes):
            down[:, k:] = down_w
            unit[k:] &= unit_w
        return _tail(points, board, unit, up, down, rhs)
