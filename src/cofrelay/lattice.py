"""Nested-lattice primitives and a desk-scale compute-and-forward round trip.

Lattices are diagonal: products of scaled integer lines, such as the
chains Z^n / 4Z^n / 8Z^n that compute-and-forward nests. Their Voronoi cells
are boxes, so the nearest-point search is exact coordinate-wise rounding
and a codebook is a product of per-axis ranges. (Exact search on a general
lattice needs a sphere decoder, which nothing here uses.)

Voronoi boundary ties are resolved deterministically: the quantizer picks
the lexicographically smallest of the equidistant lattice points, and the
codebook enumeration elects the lexicographically smallest member of each
boundary coset. Determinism matters more than the particular choice; every
mod-arithmetic identity used downstream is invariant to it.
"""

from dataclasses import dataclass
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, NestingError

MAX_CODEBOOK = 1 << 16  # codewords; about 20 MB of `CodebookEntry`


@dataclass(frozen=True, eq=False)
class Lattice:
    """A full-rank diagonal lattice {diag(s) k : k integer vector}, held as
    its 1-D per-axis scales s: finite, with cond(diag(s)) = max|s| / min|s|
    at most 1e12. Its Voronoi cell is the box of half-widths |s_j| / 2, so
    the nearest point, the cosets of a nested diagonal lattice and the
    codebook all split into one question per axis (see `enumerate_codebook`).
    It compares and hashes by identity, as its array field has no truth
    value; compare the scales to compare two lattices.
    """
    scales: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.scales, dtype=float)
        if s.ndim != 1 or not s.size:
            raise DimensionError(f"scales must be nonempty and 1-D, got {s.shape}")
        lo, hi = float(np.min(np.abs(s))), float(np.max(np.abs(s)))
        if not (np.isfinite(s).all() and lo > 0.0 and hi / lo <= 1e12):
            raise DimensionError("generator must be finite and well conditioned")
        object.__setattr__(self, "scales", s)

    @property
    def dimension(self) -> int:
        return len(self.scales)

    @property
    def volume(self) -> float:
        """Covolume prod |s_j| = volume of any fundamental domain."""
        return float(np.prod(np.abs(self.scales)))


def scaled_integers(scale: float, dim: int = 1) -> Lattice:
    """The lattice scale * Z^dim."""
    return Lattice(np.full(dim, float(scale)))


def _quantize_diagonal(diag, p):
    """Exact per-coordinate rounding; halves go to the smaller lattice point."""
    x = p / diag
    k_down = np.ceil(x - 0.5)   # half rounds down: smaller point when diag > 0
    k_up = np.floor(x + 0.5)    # half rounds up: smaller point when diag < 0
    k = np.where(diag > 0, k_down, k_up)
    return k * diag


def quantize(lat: Lattice, p) -> np.ndarray:
    """Nearest lattice point to p, ties to the lexicographically smaller point."""
    p = np.asarray(p, dtype=float).reshape(-1)
    n = lat.dimension
    if p.shape[0] != n:
        raise DimensionError(f"point dimension {p.shape[0]} != lattice dimension {n}")
    return _quantize_diagonal(lat.scales, p)


def mod_lattice(lat: Lattice, p) -> np.ndarray:
    """p mod the lattice: the representative p - Q(p) in the Voronoi region."""
    p = np.asarray(p, dtype=float).reshape(-1)
    return p - quantize(lat, p)


class SecondMomentEstimate(NamedTuple):
    value: float
    stderr: float


def second_moment(lat: Lattice, samples: int, seed: int = 0) -> SecondMomentEstimate:
    """Monte Carlo estimate of the per-dimension second moment sigma^2.

    Uniform samples over the centered fundamental parallelepiped are folded
    into the Voronoi region by the mod map (a measure-preserving bijection
    between the two fundamental domains), then ||v||^2 / n is averaged.
    """
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")
    n = lat.dimension
    rng = np.random.default_rng(seed)
    unit = rng.random((samples, n)) - 0.5
    pts = unit * lat.scales
    v = pts - _quantize_diagonal(lat.scales, pts)
    vals = np.sum(v * v, axis=1) / n
    est = float(np.mean(vals))
    err = float(np.std(vals, ddof=1) / math.sqrt(samples))
    return SecondMomentEstimate(est, err)


@dataclass(frozen=True, eq=False)
class NestedChain:
    """Doubly nested chain: coarse subset of mid subset of fine, compared
    by identity as `Lattice` is."""
    fine: Lattice
    mid: Lattice
    coarse: Lattice

    def __post_init__(self):
        _check_nested(self.mid, self.fine, "mid in fine")
        _check_nested(self.coarse, self.mid, "coarse in mid")


def _check_nested(sub: Lattice, sup: Lattice, what: str) -> np.ndarray:
    """The index |s_j / f_j| of the coarser lattice's axis in the finer one's,
    per axis; each must be an integer from 1 to below 2^63, the int64 it is
    returned as."""
    if sub.dimension != sup.dimension:
        raise NestingError(f"{what}: dimension mismatch")
    # an overflowing ratio is an infinite index, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = sub.scales / sup.scales
        if np.max(np.abs(ratio - np.round(ratio))) > 1e-9:
            raise NestingError(f"{what}: subset relation violated")
    index = np.abs(np.round(ratio))
    # also False for an infinite index
    if not np.all((index >= 1.0) & (index < 2.0 ** 63)):
        raise NestingError(f"{what}: index must lie in [1, 2^63)")
    return index.astype(int)


@dataclass(frozen=True, eq=False)
class CodebookEntry:
    """A codeword and its index, compared by identity as `Lattice` is."""
    point: np.ndarray
    index: int


def enumerate_codebook(fine: Lattice, shaping: Lattice) -> list:
    """All fine-lattice points inside the Voronoi region of the shaping lattice.

    Entries are one representative per coset of the shaping lattice, in
    lexicographic order, with boundary cosets resolved to their
    lexicographically smallest closed-Voronoi member. The count equals the
    covolume ratio.

    Both lattices are diagonal, so the closed Voronoi cell is a box and the
    cosets split per axis. On axis j, with index m = |s_j / f_j|, the closed
    cell holds k |f_j| for integers |k| <= m / 2; for even m the boundary
    pair -m/2, m/2 is one coset, and keeping -m/2 on every boundary axis
    gives the lexicographic minimum. So axis j contributes k |f_j| for k in
    [-floor(m/2), m - floor(m/2)), and the product of the sorted axes is in
    lexicographic order. Over MAX_CODEBOOK codewords, it raises ConfigError.
    """
    index = _check_nested(shaping, fine, "shaping in fine")
    size = math.prod(index.tolist())
    if size > MAX_CODEBOOK:
        raise ConfigError(f"codebook of {size} > {MAX_CODEBOOK} codewords")
    axes = [np.arange(-(m // 2), m - m // 2) * abs(f)
            for m, f in zip(index, fine.scales)]
    return [CodebookEntry(point=np.array(p), index=i)
            for i, p in enumerate(itertools.product(*axes))]


def mmse_alpha(p1g1: float, p2g2: float, sigma2: float) -> float:
    """Scaling that minimizes the effective noise before lattice quantization.

    alpha = S / (S + sigma^2) with S the total received signal power
    P_1 |g h_1|^2 + P_2 |g h_2|^2.
    """
    if p1g1 < 0 or p2g2 < 0 or sigma2 < 0:
        raise ValueError("powers must be nonnegative")
    s = p1g1 + p2g2
    if s + sigma2 <= 0:
        raise ValueError("all-zero input: MMSE coefficient undefined")
    return s / (s + sigma2)


def cof_roundtrip(chain: NestedChain, w1, w2, u1, u2,
                  p1g1: float, p2g2: float, sigma2: float,
                  noise=None):
    """One compute-and-forward exchange in the lattice domain.

    User 1 shapes with the coarse lattice, user 2 with the mid lattice. The
    relay target is t = [w1 + w2 - Q_mid(w2 + u2)] mod coarse; the decode path
    computes (alpha * sum_i (w_i + u_i mod shaping_i) + alpha * noise
    - sum_i u_i) mod coarse. Noiseless with alpha = 1 the two sides agree
    exactly, dithered or not.

    Returns (t_expected, t_decoded).
    """
    n = chain.fine.dimension
    w1, w2, u1, u2 = (np.asarray(v, dtype=float).reshape(-1) for v in (w1, w2, u1, u2))
    for name, v in (("w1", w1), ("w2", w2), ("u1", u1), ("u2", u2)):
        if v.shape[0] != n:
            raise DimensionError(f"{name} has dimension {v.shape[0]}, lattice has {n}")
    if noise is None:
        noise = np.zeros(n)
    noise = np.asarray(noise, dtype=float).reshape(-1)
    if noise.shape[0] != n:
        raise DimensionError("noise dimension mismatch")

    alpha = mmse_alpha(p1g1, p2g2, sigma2)
    t_expected = mod_lattice(chain.coarse, w1 + w2 - quantize(chain.mid, w2 + u2))
    x1 = mod_lattice(chain.coarse, w1 + u1)
    x2 = mod_lattice(chain.mid, w2 + u2)
    y = alpha * (x1 + x2) + alpha * noise - u1 - u2
    t_decoded = mod_lattice(chain.coarse, y)
    return t_expected, t_decoded
