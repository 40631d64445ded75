"""Monte Carlo sweeps, the exhaustive N=2 oracle, and the lattice demo.

A sweep draws one channel per trial from per-trial seed streams, as one
(T, 2, N) array (`scenario.gen_channels`), and solves every scheme in one
stacked array pass over all (scheme, axis point, trial) records
(`batch.solve`). The records stay in columns from there to
the file: a `RecordTable` holds one array per CSV column, in the order
(snr_db, pc_dbm, scheme, trial) given by one stable `np.lexsort`, so
duplicate axis values keep their order. Unless points repeat, each
(axis point, scheme) bucket is then a run of rows listing the same
(trial, seed) sequence, and `records_csv` formats the key cells once per
run and the trial and seed cells once per trial; its one printf pass
converts only each row's seven float cells, the writer's main cost, and
its status. Tables without runs, or of fewer than RUN_PASS_MIN_ROWS
rows, are formatted row by row. `summarize` reduces the trial axis of
each (scheme, axis point) bucket with one numpy call per bucket size, and
`failure_fraction` reads the status column. Indexing or iterating a
table gives `TrialRecord` row views, for tests and API callers; the sweep
path builds none. Reruns with the same master seed reproduce
byte-identical record CSVs, and aggregation is independent of row order.

The N=2 grid oracle (`oracle_grid`) keeps one chain of grid vectors whose
gains weakly dominate every grid vector's (`_gain_chain`) and finds the
least power over its beamformer and combiner pairs where each row's two
terms cross (`_min_max_product`): the full grid's minimum, bit for bit.
"""

from dataclasses import dataclass
import functools
from itertools import chain
import math

import numpy as np

from . import batch, lattice
# re-exported: no record with status ok has a margin below -MARGIN_SLACK
from .design import MARGIN_SLACK, SystemParams, rate_thresholds  # noqa: F401
from .errors import ConfigError, DegenerateChannelError, DimensionError
from .scenario import ScenarioConfig, gen_channels, point_params

RECORD_COLUMNS = ("scheme", "snr_db", "pc_dbm", "trial", "seed", "p_r_db",
                  "beta1", "beta2", "margin_up1", "margin_up2",
                  "margin_down1", "margin_down2", "status")
SUMMARY_COLUMNS = ("scheme", "snr_db", "pc_dbm", "mean_p_r_db", "stderr_p_r_db",
                   "trials", "failures")
# one records.csv row as a printf template: integers in full, floats to 9
# significant digits ("%.9g" is the conversion of format(x, ".9g"), so NaN
# prints as "nan" and -0.0 as "-0"); in RECORD_COLUMNS order, the key cells
# (scheme, snr_db, pc_dbm), the trial and seed cells, then the seven float
# cells and the status
_KEY_FORMAT = "%d,%.9g,%.9g,"
_TRIAL_FORMAT = "%d,%d,"
_TAIL_FORMAT = "%.9g," * 7 + "%s\n"
_ROW_FORMAT = _KEY_FORMAT + _TRIAL_FORMAT + _TAIL_FORMAT
_KEY_COLUMNS = RECORD_COLUMNS[:3]
_TAIL_COLUMNS = RECORD_COLUMNS[5:]
# below this many rows `records_csv` formats row by row: looking for the
# runs costs about 20 us, and the run pass saves 0.5-1 us a row
RUN_PASS_MIN_ROWS = 100
# one summary.csv row: (scheme, snr_db, pc_dbm, mean_p_r_db, stderr_p_r_db,
# trials, failures)
_SUMMARY_ROW_FORMAT = "%d,%.9g,%.9g,%.9g,%.9g,%d,%d\n"
# bounds on the N=2 grid oracle's resolution; at the upper one the grid
# holds 4.2 M vectors, about 134 MB
MIN_RESOLUTION = 32
MAX_RESOLUTION = 2048


@dataclass
class TrialRecord:
    """One row of a `RecordTable`."""
    scheme: int
    snr_db: float
    pc_dbm: float
    trial: int
    seed: int
    p_r_db: float
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


class RecordTable:
    """Trial records as columns: ``columns`` maps each RECORD_COLUMNS name
    to an array, all of one length. Failed records carry NaN values and a
    "failed:<error class>" status. Indexing and iteration give
    `TrialRecord` rows of Python values."""

    def __init__(self, columns):
        self.columns = columns

    def __len__(self):
        return len(self.columns["status"])

    def __getitem__(self, i):
        i = range(len(self))[i]
        return TrialRecord(*(self.columns[c][i:i + 1].tolist()[0]
                             for c in RECORD_COLUMNS))

    def __iter__(self):
        rows = zip(*(self.columns[c].tolist() for c in RECORD_COLUMNS))
        return (TrialRecord(*row) for row in rows)

    def take(self, index):
        """The rows at ``index`` (an index array or a boolean mask)."""
        return RecordTable({c: v[index] for c, v in self.columns.items()})


@dataclass
class SweepSummary:
    scheme: int
    snr_db: float
    pc_dbm: float
    mean_p_r_db: float
    stderr_p_r_db: float
    trials: int
    failures: int


def axis_points(cfg: ScenarioConfig):
    """The (snr_db, pc_dbm) operating points of the configured sweep."""
    if cfg.axis == "none":
        return [(cfg.snr_db, cfg.pc_dbm)]
    if cfg.axis == "snr":
        return [(v, cfg.pc_dbm) for v in cfg.axis_values]
    return [(cfg.snr_db, v) for v in cfg.axis_values]


def run_point(cfg: ScenarioConfig, snr_db: float, pc_dbm: float,
              channels=None) -> RecordTable:
    """The records of one operating point (every configured scheme), by
    scheme and trial: the batched pass of `run_sweep` at a single point,
    on the configured trials' channels or on the given list of
    `scenario.ChannelRealization`s."""
    if channels is None:
        chans = batch.ChannelBatch(*gen_channels(cfg.master_seed, cfg.trials,
                                                 cfg.n))
    else:
        chans = batch.ChannelBatch.stack(channels)
    return _run_batch(cfg, [(snr_db, pc_dbm)], chans)


def _run_batch(cfg: ScenarioConfig, points,
               chans: batch.ChannelBatch) -> RecordTable:
    """The records of every configured scheme at every (snr_db, pc_dbm)
    point on the channels ``chans``, from one `batch.solve` pass over all
    (scheme, point, trial) records, sorted by point, scheme and trial."""
    params = batch.OperatingPoints(point_params(cfg, snr_db, pc_dbm)
                                   for snr_db, pc_dbm in points)
    schemes = sorted(cfg.schemes)
    res = batch.solve(schemes, chans, params,
                      equal_gain_phased=cfg.equal_gain == "phased")
    # (scheme, point, trial) order, flattened
    n_s, n_p, n_t = res.status.shape
    status = res.status.ravel()
    beta, margins = res.beta.reshape(2, -1), res.margins.reshape(4, -1)
    ok = status == "ok"
    p_r_db = np.full(len(status), np.nan)
    # math.log10, as in `scenario.db_from_power`: np.log10 can differ in
    # the last bit; the multiply by 10 rounds the same in numpy
    p_r_db[ok] = 10.0 * np.array(list(map(math.log10,
                                          res.p_r.ravel()[ok].tolist())))
    snr_db, pc_dbm = (np.repeat(np.array(v, dtype=float), n_t)
                      for v in zip(*points))
    columns = {
        "scheme": np.repeat(schemes, n_p * n_t),
        "snr_db": np.tile(snr_db, n_s),
        "pc_dbm": np.tile(pc_dbm, n_s),
        "trial": np.tile(np.arange(n_t), n_s * n_p),
        "seed": np.tile(chans.seeds, n_s * n_p),
        "p_r_db": p_r_db,
        "beta1": beta[0], "beta2": beta[1],
        "margin_up1": margins[0], "margin_up2": margins[1],
        "margin_down1": margins[2], "margin_down2": margins[3],
        "status": status,
    }
    order = np.lexsort((columns["trial"], columns["scheme"],
                        columns["pc_dbm"], columns["snr_db"]))
    return RecordTable(columns).take(order)


def summarize(records: RecordTable) -> list:
    """Per (scheme, axis point) mean dB power, standard error and counts.

    Rows are sorted by (scheme, snr_db, pc_dbm, trial) first, so the result
    does not depend on their order. The ok values of a bucket are then one
    contiguous run, and the buckets with k ok values are reduced as one
    (buckets, k) array along its contiguous axis: np.mean and np.std give
    each row the bits of a call on that row alone.
    """
    cols = records.columns
    order = np.lexsort((cols["trial"], cols["pc_dbm"], cols["snr_db"],
                        cols["scheme"]))
    keys = [cols[c][order] for c in ("scheme", "snr_db", "pc_dbm")]
    ok = cols["status"][order] == "ok"
    vals = cols["p_r_db"][order][ok]
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, len(order)))
    counts = np.add.reduceat(ok, starts)
    first = np.cumsum(counts) - counts   # where each bucket's ok run starts
    mean = np.full(len(starts), np.nan)
    stderr = np.full(len(starts), np.nan)
    for n_ok in set(counts.tolist()) - {0}:
        sel = np.flatnonzero(counts == n_ok)
        rows = vals[first[sel, None] + np.arange(n_ok)]
        mean[sel] = np.mean(rows, axis=1)
        stderr[sel] = (np.std(rows, axis=1, ddof=1) / math.sqrt(n_ok)
                       if n_ok > 1 else 0.0)
    fields = ([k[starts].tolist() for k in keys]
              + [mean.tolist(), stderr.tolist(), counts.tolist(),
                 (sizes - counts).tolist()])
    return [SweepSummary(*row) for row in zip(*fields)]


def _run_length(cols) -> int:
    """The length of the runs that `records_csv` formats together, or 0.

    The rows must split into runs of one length, each holding one
    (scheme, snr_db, pc_dbm) key bit for bit (0.0 and -0.0 print apart)
    and each listing the first run's (trial, seed) sequence. Every table
    of `_run_batch` does, one run per (point, scheme) bucket, unless its
    points repeat up to the sign of zero: such points share buckets, which
    list every trial more than once.
    """
    keys = [cols["scheme"]] + [np.asarray(cols[c], dtype=float).view(np.int64)
                               for c in _KEY_COLUMNS[1:]]
    n = len(keys[0])
    run = min(int(np.argmax(k != k[0])) or n for k in keys)
    if n % run:
        return 0
    for k in keys:
        k = k.reshape(-1, run)
        if not np.all(k == k[:, :1]):
            return 0
    for c in ("trial", "seed"):
        k = cols[c].reshape(-1, run)
        if not np.all(k == k[0]):
            return 0
    return run


def records_csv(records: RecordTable) -> str:
    """The records.csv text, formatted from the columns in one printf pass.

    A table in runs (`_run_length`) of at least RUN_PASS_MIN_ROWS rows,
    such as every `_run_batch` table whose points do not repeat, has its
    key cells formatted once per run and its trial and seed cells once per
    position in a run. The row template is built from those strings, and
    the printf pass converts only each row's seven float cells and its
    status, read row-major from one (rows, 8) array. Any other table (a
    permuted `RecordTable.take`, repeated points, fewer rows) is formatted
    row by row, all 13 cells of every row. On 1000 rows that pass spends
    61% of its time on the float cells, 25% on the other six and 13% on
    gathering them; the run pass takes 22% less, 78% of it on the floats.
    """
    cols = records.columns
    n = len(records)
    header = ",".join(RECORD_COLUMNS) + "\n"
    run = _run_length(cols) if n >= RUN_PASS_MIN_ROWS else 0
    if not run:
        cells = zip(*(cols[c].tolist() for c in RECORD_COLUMNS))
        return header + _ROW_FORMAT * n % tuple(chain.from_iterable(cells))
    keys = [_KEY_FORMAT % k
            for k in zip(*(cols[c][::run].tolist() for c in _KEY_COLUMNS))]
    # key.join(rows) is one run: key + rows[1] + key + rows[2] + ...
    rows = [""] + [_TRIAL_FORMAT % t + _TAIL_FORMAT
                   for t in zip(cols["trial"][:run].tolist(),
                                cols["seed"][:run].tolist())]
    template = "".join(chain([header], (key.join(rows) for key in keys)))
    cells = np.empty((n, len(_TAIL_COLUMNS)), dtype=object)
    for i, c in enumerate(_TAIL_COLUMNS):
        cells[:, i] = cols[c]
    # dropping the array before the printf pass lowers the peak
    cells = tuple(cells.ravel().tolist())
    return template % cells


def summary_csv(summaries) -> str:
    """The summary.csv text, formatted in one printf pass like
    `records_csv`."""
    cells = [getattr(s, c) for s in summaries for c in SUMMARY_COLUMNS]
    return (",".join(SUMMARY_COLUMNS) + "\n"
            + _SUMMARY_ROW_FORMAT * len(summaries) % tuple(cells))


def run_sweep(cfg: ScenarioConfig, records_path=None, summary_path=None):
    """Run the configured sweep; optionally write the two CSV files.

    The channels are drawn once and shared by every axis point and scheme,
    all solved in one `batch.solve` pass. Returns (records, summaries): a
    `RecordTable` and a list of `SweepSummary`. Per-trial failures are
    recorded with a failed status and excluded from the means; they never
    abort the sweep.
    """
    chans = batch.ChannelBatch(*gen_channels(cfg.master_seed, cfg.trials,
                                             cfg.n))
    records = _run_batch(cfg, axis_points(cfg), chans)
    summaries = summarize(records)
    if records_path is not None:
        with open(records_path, "w") as fh:
            fh.write(records_csv(records))
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            fh.write(summary_csv(summaries))
    return records, summaries


def failure_fraction(records: RecordTable) -> float:
    if not len(records):
        return 0.0
    return np.count_nonzero(records.columns["status"] != "ok") / len(records)


def _gain_chain(g1, g2) -> np.ndarray:
    """Indices of a chain of the points (g1, g2) that weakly dominates
    every point: each point has a chain point >= in both coordinates.

    The point of largest g1 + g2 drops every point it weakly dominates
    (a pivot, after Kung, Luccio & Preparata, J. ACM 1975), the rest are
    sorted by falling g1, ties in any order, and a point is kept when its g2
    exceeds every g2 before it. Along the chain g1 never rises and g2
    strictly rises. A dropped point has a kept point at or before it in the
    sort whose g2 is the running maximum, so it is weakly dominated; the
    chain need not be the Pareto front (of equal g1 it may keep several).
    """
    # an overflowing sum only makes a weaker pivot
    with np.errstate(over="ignore"):
        k = np.argmax(g1 + g2)
    keep = (g1 > g1[k]) | (g2 > g2[k])
    keep[k] = True
    idx = np.flatnonzero(keep)
    idx = idx[np.argsort(g1[idx])[::-1]]
    g2s = g2[idx]
    keep = np.ones(len(idx), dtype=bool)
    keep[1:] = g2s[1:] > np.maximum.accumulate(g2s)[:-1]
    return idx[keep]


@functools.lru_cache(maxsize=2)
def _grid(resolution: int) -> np.ndarray:
    """The unit vectors of the N=2 oracle grid, one per row, read-only:
    (cos t, sin t e^{j phi}) for t in [0, pi/2) and phi in [0, 2 pi), then
    the two coordinate poles. The two latest resolutions are cached."""
    t = np.linspace(0.0, math.pi / 2.0, resolution, endpoint=False)
    phi = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    vecs = np.stack([np.cos(tt).ravel(),
                     (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1)
    vecs = np.vstack([vecs, np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)])
    vecs.flags.writeable = False
    return vecs


def _min_max_product(inv1, a1, inv2, a2) -> float:
    """min over f, g of max(inv1[f] a1[g], inv2[f] a2[g]), for positive
    inv1 and a1 non-decreasing and inv2 and a2 non-increasing, without the
    F x F product. In row f, A[g] = inv1[f] a1[g] never falls and
    B[g] = inv2[f] a2[g] never rises (rounding a product by a positive
    factor keeps order), so with g* the first column where A >= B the row's
    minimum is min(A[g*], B[g*-1]), the same floats the full product holds.
    g* is found for all rows at once by bisection, one pass per bit of F.
    """
    n = len(a1)
    size = 1 << n.bit_length()
    # columns past the last have A = inf and B = 0, so A < B never holds
    a1p = np.full(size, np.inf)
    a1p[:n] = a1
    a2p = np.zeros(size)
    a2p[:n] = a2
    last = np.full(len(inv1), -1, dtype=np.intp)  # last column with A < B
    step = size >> 1
    while step:
        at = last + step
        last = np.where(inv1 * a1p[at] < inv2 * a2p[at], at, last)
        step >>= 1
    up = inv1 * a1p[last + 1]
    down = np.where(last >= 0, inv2 * a2p[last], np.inf)
    return float(min(np.min(up), np.min(down)))


def oracle_grid(channel, params: SystemParams, resolution: int = 64) -> float:
    """Exhaustive minimum of the required relay power over unit f and g,
    N = 2 only.

    After gauging away global phases, each vector is (cos t, sin t e^{j phi});
    the grid covers t in [0, pi/2) and phi in [0, 2 pi) at the given
    resolution, with the two coordinate poles always appended so that doubling
    the resolution refines the candidate set monotonically (`_grid`). The
    resolution must lie in [MIN_RESOLUTION, MAX_RESOLUTION]. A NaN or inf
    channel entry, or a gain beyond the float range, raises
    DegenerateChannelError.

    The power of a pair is max(inv1[f] a1[g], inv2[f] a2[g]) with
    inv_i = 1/hd_i and a_i = k_i/hd_i + b_i, where hd_i is the gain of the
    grid vector toward user i and every factor is positive. Both inv_i and
    a_i are non-increasing in hd_i, and rounding keeps that order. So a grid
    point whose gains (hd1, hd2) are both <= those of another point is
    weakly dominated by it as a beamformer row, in (inv1, inv2), and as a
    combiner column, in (a1, a2), and rounding a product by a positive
    factor is monotone too. `_gain_chain` keeps a chain of grid points that
    weakly dominates every grid point; its points with a gain at or below
    1e-30 toward either user are then dropped, as are all such grid points,
    and a point dominated by a dropped one has such a gain itself. So every
    remaining grid point is weakly dominated by a remaining chain point, the
    chain's points are grid points, and the minimum over rows and columns
    drawn from the chain is the minimum over the full grid, bit for bit.

    Along the chain hd1 never rises and hd2 strictly rises, so inv1 and a1
    never fall and inv2 and a2 never rise, and each row's minimum sits where
    its two terms cross (`_min_max_product`). No chain-by-chain product is
    formed: memory is O(grid), the grid and its gains.
    """
    h1 = np.asarray(channel.h1)
    h2 = np.asarray(channel.h2)
    if len(h1) != 2:
        raise DimensionError("oracle grid supports N = 2 only")
    if not MIN_RESOLUTION <= resolution <= MAX_RESOLUTION:
        raise ConfigError(f"resolution must be in [{MIN_RESOLUTION}, "
                          f"{MAX_RESOLUTION}]")

    vecs = _grid(resolution)
    # a NaN or inf entry, or a gain past the float range, leaves a norm or
    # a grid gain non-finite: the error replaces numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        norms = (float(np.linalg.norm(h1)), float(np.linalg.norm(h2)))
        g1, g2 = np.abs(vecs @ h1) ** 2, np.abs(vecs @ h2) ** 2
    if not (math.isfinite(norms[0] + norms[1])
            and np.isfinite(g1).all() and np.isfinite(g2).all()):
        raise DegenerateChannelError("channel gain is not finite")
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

    chain = _gain_chain(g1, g2)
    # grid vectors with (nearly) zero gain toward a user drop out
    chain = chain[(g1[chain] > 1e-30) & (g2[chain] > 1e-30)]
    if not len(chain):
        raise DegenerateChannelError("no non-degenerate grid point")
    hd1, hd2 = g1[chain], g2[chain]
    a1 = (params.sigma2 * th.theta_1r / (params.eta * hd1)
          + params.sigma2 * (th.theta_r1 - 1.0) + 2.0 * params.p_c / params.eta)
    a2 = (params.sigma2 * th.theta_2r / (params.eta * hd2)
          + params.sigma2 * (th.theta_r2 - 1.0) + 2.0 * params.p_c / params.eta)
    best = _min_max_product(1.0 / hd1, a1, 1.0 / hd2, a2)
    if not math.isfinite(best):
        raise DegenerateChannelError("no non-degenerate grid point")
    return best


def lattice_demo(scales=(1.0, 4.0, 8.0), dim: int = 8, seed: int = 0,
                 sigma2: float = 0.0, exhaustive: bool = False, out=None):
    """Compute-and-forward round trip on a scaled-integer chain.

    Prints the codewords, dithers, expected and decoded relay targets and a
    match flag. With ``exhaustive`` (scalar chain), all codeword pairs are
    swept instead of a single random draw; more than `lattice.MAX_CODEBOOK`
    pairs raise ConfigError. Returns the number of mismatches.
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
    if exhaustive and len(cb1) * len(cb2) > lattice.MAX_CODEBOOK:
        raise ConfigError(f"exhaustive sweep of {len(cb1)} x {len(cb2)} "
                          f"codeword pairs > {lattice.MAX_CODEBOOK} pairs")
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
