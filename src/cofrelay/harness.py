"""Monte Carlo sweeps, the exhaustive N=2 oracle, and the lattice demo.

A sweep draws one channel per trial from per-trial seed streams and solves
each scheme in one array pass over every (axis point, trial) pair
(`batch.solve`); records are then sorted by axis point, scheme and trial.
So reruns with the same master seed reproduce byte-identical record CSVs,
and aggregation is independent of execution order.
"""

from dataclasses import dataclass
import io
import math

import numpy as np

from . import batch, lattice
from .design import SystemParams, rate_thresholds
from .errors import ConfigError, DegenerateChannelError, DimensionError
from .scenario import (ScenarioConfig, db_from_power, gen_channel, trial_seed,
                       units_from_config, with_overrides)

RECORD_COLUMNS = ("scheme", "snr_db", "pc_dbm", "trial", "seed", "p_r_db",
                  "iterations", "beta1", "beta2", "margin_up1", "margin_up2",
                  "margin_down1", "margin_down2", "status")
SUMMARY_COLUMNS = ("scheme", "snr_db", "pc_dbm", "mean_p_r_db", "stderr_p_r_db",
                   "trials", "failures")

MARGIN_SLACK = 1e-6


@dataclass
class TrialRecord:
    scheme: int
    snr_db: float
    pc_dbm: float
    trial: int
    seed: int
    p_r_db: float
    iterations: int
    beta1: float
    beta2: float
    margin_up1: float
    margin_up2: float
    margin_down1: float
    margin_down2: float
    status: str

    def margins(self):
        return (self.margin_up1, self.margin_up2,
                self.margin_down1, self.margin_down2)


@dataclass
class SweepSummary:
    scheme: int
    snr_db: float
    pc_dbm: float
    mean_p_r_db: float
    stderr_p_r_db: float
    trials: int
    failures: int


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".9g")
    return str(x)


def axis_points(cfg: ScenarioConfig):
    """The (snr_db, pc_dbm) operating points of the configured sweep."""
    if cfg.axis == "none":
        return [(cfg.snr_db, cfg.pc_dbm)]
    if cfg.axis == "snr":
        return [(v, cfg.pc_dbm) for v in cfg.axis_values]
    return [(cfg.snr_db, v) for v in cfg.axis_values]


def run_point(cfg: ScenarioConfig, snr_db: float, pc_dbm: float,
              channels=None):
    """All trial records for one operating point (every configured scheme),
    scheme by scheme and trial by trial: the batched pass of `run_sweep`
    at a single point."""
    if channels is None:
        channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                    for t in range(cfg.trials)]
    return _run_batch(cfg, [(snr_db, pc_dbm)], channels)


def _run_batch(cfg: ScenarioConfig, points, channels):
    """Trial records of every configured scheme at every (snr_db, pc_dbm)
    point, one `batch.solve` pass per scheme over all (point, trial) pairs.
    Records come scheme by scheme, then point by point, then trial by
    trial; failed records carry NaN values and iterations 0."""
    params = batch.OperatingPoints(
        units_from_config(with_overrides(cfg, snr_db=snr_db, pc_dbm=pc_dbm,
                                         axis="none", axis_values=()))
        for snr_db, pc_dbm in points)
    chans = batch.ChannelBatch(channels)
    phased = cfg.equal_gain == "phased"
    nan = float("nan")
    records = []
    for scheme in sorted(cfg.schemes):
        res = batch.solve(scheme, chans, params, equal_gain_phased=phased)
        p_r, status = res.p_r.tolist(), res.status.tolist()
        beta1, beta2 = (b.tolist() for b in res.beta)
        up1, up2, down1, down2 = (m.tolist() for m in res.margins)
        for p, (snr_db, pc_dbm) in enumerate(points):
            for t, ch in enumerate(chans.channels):
                ok = status[p][t] == "ok"
                records.append(TrialRecord(
                    scheme=scheme, snr_db=snr_db, pc_dbm=pc_dbm, trial=t,
                    seed=ch.seed, p_r_db=db_from_power(p_r[p][t]) if ok else nan,
                    iterations=0, beta1=beta1[p][t], beta2=beta2[p][t],
                    margin_up1=up1[p][t], margin_up2=up2[p][t],
                    margin_down1=down1[p][t], margin_down2=down2[p][t],
                    status=status[p][t]))
    return records


def summarize(records) -> list:
    """Per (scheme, axis point) mean dB power, standard error and counts.

    Records are bucketed by key and reduced in sorted order, so the result
    does not depend on the order trials completed in.
    """
    buckets = {}
    for r in records:
        buckets.setdefault((r.scheme, r.snr_db, r.pc_dbm), []).append(r)
    out = []
    for key in sorted(buckets):
        rows = sorted(buckets[key], key=lambda r: r.trial)
        vals = np.asarray([r.p_r_db for r in rows if r.status == "ok"])
        failures = sum(1 for r in rows if r.status != "ok")
        if len(vals):
            mean = float(np.mean(vals))
            stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) \
                if len(vals) > 1 else 0.0
        else:
            mean, stderr = float("nan"), float("nan")
        out.append(SweepSummary(scheme=key[0], snr_db=key[1], pc_dbm=key[2],
                                mean_p_r_db=mean, stderr_p_r_db=stderr,
                                trials=len(vals), failures=failures))
    return out


def records_csv(records) -> str:
    buf = io.StringIO()
    buf.write(",".join(RECORD_COLUMNS) + "\n")
    for r in records:
        buf.write(",".join(_fmt(getattr(r, c)) for c in RECORD_COLUMNS) + "\n")
    return buf.getvalue()


def summary_csv(summaries) -> str:
    buf = io.StringIO()
    buf.write(",".join(SUMMARY_COLUMNS) + "\n")
    for s in summaries:
        buf.write(",".join(_fmt(getattr(s, c)) for c in SUMMARY_COLUMNS) + "\n")
    return buf.getvalue()


def run_sweep(cfg: ScenarioConfig, records_path=None, summary_path=None):
    """Run the configured sweep; optionally write the two CSV files.

    The channels are drawn once and shared by every axis point; each scheme
    is one `batch.solve` pass over all (axis point, trial) pairs. Returns
    (records, summaries). Per-trial failures are recorded with a failed
    status and excluded from the means; they never abort the sweep.
    """
    channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for t in range(cfg.trials)]
    records = _run_batch(cfg, axis_points(cfg), channels)
    records.sort(key=lambda r: (r.snr_db, r.pc_dbm, r.scheme, r.trial))
    summaries = summarize(records)
    if records_path is not None:
        with open(records_path, "w") as fh:
            fh.write(records_csv(records))
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            fh.write(summary_csv(summaries))
    return records, summaries


def failure_fraction(records) -> float:
    if not records:
        return 0.0
    return sum(1 for r in records if r.status != "ok") / len(records)


def pareto_front(x, y) -> np.ndarray:
    """Indices of the 2-D Pareto front (skyline; Borzsonyi, Kossmann &
    Stocker, ICDE 2001) of the points (x, y) for a minimum in both.

    Points with a NaN coordinate are dropped. The rest are sorted by x, ties
    by y, and a point is kept when its y is strictly below every y before it.
    So no kept point has another point <= in both coordinates and < in one,
    every dropped point has a kept point <= in both, and of equal points
    only one is kept. The indices come back in ascending x.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    idx = np.flatnonzero(~(np.isnan(x) | np.isnan(y)))
    order = idx[np.lexsort((y[idx], x[idx]))]
    ys = y[order]
    keep = np.ones(len(ys), dtype=bool)
    keep[1:] = ys[1:] < np.minimum.accumulate(ys)[:-1]
    return order[keep]


def oracle_grid(channel, params: SystemParams, resolution: int = 64) -> float:
    """Exhaustive minimum of the required relay power over unit f and g,
    N = 2 only.

    After gauging away global phases, each vector is (cos t, sin t e^{j phi});
    the grid covers t in [0, pi/2) and phi in [0, 2 pi) at the given
    resolution, with the two coordinate poles always appended so that doubling
    the resolution refines the candidate set monotonically.

    The power of a pair is max(inv1[f] a1[g], inv2[f] a2[g]) with
    inv_i = 1/hd_i and every factor positive, so a beamformer row whose
    (inv1, inv2) are both >= those of another row never gives a smaller
    value, and likewise a combiner column whose (a1, a2) are both >= those
    of another column. Rounding a product by a positive factor is monotone,
    so this holds for the computed floats too: the minimum over the two
    Pareto fronts (`pareto_front`) is the minimum over the full grid, bit
    for bit, and every grid point still counts as a candidate. Grid points
    with a gain at or below 1e-30 toward either user are dropped before the
    product. Fronts grow with the resolution (thousands of points at 512),
    so the products are formed 512 front rows at a time, which bounds memory
    by 512 x front columns.
    """
    h1 = np.asarray(channel.h1)
    h2 = np.asarray(channel.h2)
    if len(h1) != 2:
        raise DimensionError("oracle grid supports N = 2 only")
    if resolution < 32:
        raise ConfigError("resolution must be at least 32")

    norms = (float(np.linalg.norm(h1)), float(np.linalg.norm(h2)))
    th = rate_thresholds(params)
    if min(norms) == 0.0:
        # Single-user channel: matched filtering on both sides is optimal.
        if max(norms) == 0.0:
            raise DegenerateChannelError("both channels are zero")
        user = 0 if norms[0] > 0 else 1
        gain = norms[user] ** 2
        t_up = (th.theta_1r, th.theta_2r)[user]
        t_dn = (th.theta_r1, th.theta_r2)[user]
        a = (params.sigma2 * t_up / (params.eta * gain)
             + params.sigma2 * (t_dn - 1.0) + 2.0 * params.p_c / params.eta)
        return a / gain

    t = np.linspace(0.0, math.pi / 2.0, resolution, endpoint=False)
    phi = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    vecs = np.stack([np.cos(tt).ravel(),
                     (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1)
    vecs = np.vstack([vecs, np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)])

    def gains(h):
        return np.abs(vecs @ h) ** 2

    g1, g2 = gains(h1), gains(h2)
    # degenerate grid vectors (zero gain toward a user) drop out as NaN
    hd1 = np.where(g1 > 1e-30, g1, np.nan)
    hd2 = np.where(g2 > 1e-30, g2, np.nan)
    a1 = (params.sigma2 * th.theta_1r / (params.eta * hd1)
          + params.sigma2 * (th.theta_r1 - 1.0) + 2.0 * params.p_c / params.eta)
    a2 = (params.sigma2 * th.theta_2r / (params.eta * hd2)
          + params.sigma2 * (th.theta_r2 - 1.0) + 2.0 * params.p_c / params.eta)

    inv1, inv2 = 1.0 / hd1, 1.0 / hd2
    # rows and columns drop the same NaN grid points, so both are empty or neither
    rows = pareto_front(inv1, inv2)
    cols = pareto_front(a1, a2)
    c1, c2 = a1[cols], a2[cols]
    best = np.inf
    chunk = 512
    for i in range(0, len(rows), chunk):
        r = rows[i:i + chunk]
        best = min(best, float(np.min(np.maximum(np.outer(inv1[r], c1),
                                                 np.outer(inv2[r], c2)))))
    if not math.isfinite(best):
        raise DegenerateChannelError("no non-degenerate grid point")
    return best


def lattice_demo(scales=(1.0, 4.0, 8.0), dim: int = 8, seed: int = 0,
                 sigma2: float = 0.0, exhaustive: bool = False, out=None):
    """Compute-and-forward round trip on a scaled-integer chain.

    Prints the codewords, dithers, expected and decoded relay targets and a
    match flag. With ``exhaustive`` (scalar chain), all codeword pairs are
    swept instead of a single random draw. Returns the number of mismatches.
    """
    import sys
    out = out or sys.stdout
    fine_s, mid_s, coarse_s = (float(s) for s in scales)
    if exhaustive:
        dim = 1
    fine = lattice.scaled_integers(fine_s, dim)
    mid = lattice.scaled_integers(mid_s, dim)
    coarse = lattice.scaled_integers(coarse_s, dim)
    chain = lattice.NestedChain(fine=fine, mid=mid, coarse=coarse)

    line_fine = lattice.scaled_integers(fine_s)
    cb1 = lattice.enumerate_codebook(line_fine, lattice.scaled_integers(coarse_s))
    cb2 = lattice.enumerate_codebook(line_fine, lattice.scaled_integers(mid_s))
    print(f"chain {fine_s:g}Z^{dim} / {mid_s:g}Z^{dim} / {coarse_s:g}Z^{dim}; "
          f"codebook sizes {len(cb1)} x {len(cb2)}", file=out)

    rng = np.random.default_rng(seed)

    def draw_dithers():
        u1 = lattice.mod_lattice(coarse, (rng.random(dim) - 0.5) * coarse_s)
        u2 = lattice.mod_lattice(mid, (rng.random(dim) - 0.5) * mid_s)
        return u1, u2

    mismatches = 0
    if exhaustive:
        for e1 in cb1:
            for e2 in cb2:
                u1, u2 = draw_dithers()
                noise = rng.standard_normal(dim) * math.sqrt(sigma2) if sigma2 > 0 else None
                te, td = lattice.cof_roundtrip(chain, e1.point, e2.point, u1, u2,
                                               1.0, 1.0, sigma2, noise)
                match = bool(np.allclose(te, td, atol=1e-9))
                mismatches += 0 if match else 1
                print(f"w1={e1.point[0]:+5.1f} w2={e2.point[0]:+5.1f} "
                      f"u1={u1[0]:+7.4f} u2={u2[0]:+7.4f} "
                      f"t={te[0]:+5.1f} decoded={td[0]:+5.1f} match={match}",
                      file=out)
        print(f"{len(cb1) * len(cb2)} pairs, {mismatches} mismatches", file=out)
    else:
        w1 = np.asarray([cb1[k].point[0] for k in rng.integers(0, len(cb1), dim)])
        w2 = np.asarray([cb2[k].point[0] for k in rng.integers(0, len(cb2), dim)])
        u1, u2 = draw_dithers()
        noise = rng.standard_normal(dim) * math.sqrt(sigma2) if sigma2 > 0 else None
        te, td = lattice.cof_roundtrip(chain, w1, w2, u1, u2, 1.0, 1.0,
                                       sigma2, noise)
        match = bool(np.allclose(te, td, atol=1e-9))
        mismatches = 0 if match else 1
        for name, v in (("w1", w1), ("w2", w2), ("u1", u1), ("u2", u2),
                        ("t expected", te), ("t decoded", td)):
            print(f"{name:>10}: {np.array2string(np.asarray(v), precision=4)}",
                  file=out)
        print(f"match={match}", file=out)
    return mismatches
