"""Channel generation, unit conventions and experiment configuration.

SNR is defined as 1/sigma^2 against unit-variance Rayleigh channels, and
dBm-labelled circuit powers are read as dB over the same unit reference
power (no pathloss model, so absolute watts are not meaningful here).
Comparative quantities are invariant to a common shift of that reference.

Trial t of master seed m draws its channel from the stream
``default_rng(seed)`` with ``seed = SeedSequence([m, t]).generate_state(1,
np.uint64)[0]``: numpy's SeedSequence (after O'Neill's ``seed_seq``)
feeding PCG64 (O'Neill 2014), so every trial's channel is independent of
the order and number of trials drawn. `gen_channel` and `trial_seed` draw
one trial with numpy's own objects and are the reference. Sweeps draw
their channels with `gen_channels`, bit for bit equal to `gen_channel`:
from ARRAY_DRAW_MIN_TRIALS (5) trials on in one array pass, where numpy's
seed hashing runs as uint32 array operations over the trial axis and each
trial's PCG64 takes its four seed words directly; below that one trial at
a time with `gen_channel`.
"""

from dataclasses import dataclass, field, fields
import functools
import math

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .design import SystemParams
from .errors import ConfigError


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of the two uplink channel vectors, with seed provenance."""
    h1: np.ndarray
    h2: np.ndarray
    seed: int


def gen_channel(seed: int, n: int) -> ChannelRealization:
    """i.i.d. circularly-symmetric complex Gaussian entries of variance 1."""
    if n < 1:
        raise ValueError("need at least one antenna")
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((2, n, 2))
    h1 = (draws[0, :, 0] + 1j * draws[0, :, 1]) / math.sqrt(2.0)
    h2 = (draws[1, :, 0] + 1j * draws[1, :, 1]) / math.sqrt(2.0)
    return ChannelRealization(h1=h1, h2=h2, seed=int(seed))


def trial_seed(master_seed: int, trial_index: int) -> int:
    """Stable per-trial seed stream, independent of execution order."""
    ss = np.random.SeedSequence([int(master_seed), int(trial_index)])
    return int(ss.generate_state(1, np.uint64)[0])


# A sweep of fewer trials draws them one at a time with `gen_channel`: the
# array pass costs 0.11-0.15 ms however few trials it draws (its two seed
# hashings are some 100 numpy calls on arrays of T words), and then about
# 3 us per trial against 30-50 us for `gen_channel` (BENCH_channel_draw.json)
ARRAY_DRAW_MIN_TRIALS = 5

# numpy's SeedSequence (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, the hash constants of its `mix_entropy` (A) and
# `generate_state` (B), and the constants of its `mix`
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
# the pool words other than word i, as an index array for each i
_OTHER_WORDS = tuple(np.array([j for j in range(_POOL_SIZE) if j != i])
                     for i in range(_POOL_SIZE))


@functools.lru_cache(maxsize=None)
def _hash_constants(init, mult, count):
    """The constants of ``count`` successive hashes from one hash constant
    as two (count, 1) uint32 arrays: the constant each hash XORs in, and
    the product by ``mult`` that it then multiplies by."""
    xor, times = [], []
    for _ in range(count):
        xor.append(init)
        init = init * mult & _MASK32
        times.append(init)
    return (np.array(xor, dtype=np.uint32)[:, None],
            np.array(times, dtype=np.uint32)[:, None])


def _hash(values, xor, times):
    """numpy's ``hashmix`` of the uint32 ``values`` under the constants of
    `_hash_constants` (the product wraps, as numpy's uint32 does)."""
    values = (values ^ xor) * times
    return values ^ (values >> _SHIFT)


def _mix(x, y):
    """numpy's ``mix`` of two uint32 arrays."""
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> _SHIFT)


def _seed_state(entropy, n_words):
    """``SeedSequence(e).generate_state(n_words, np.uint64)`` for every
    column e of the (L, T) uint32 ``entropy``, as (n_words, T) uint64.

    Column e holds the entropy's uint32 words, low word first. Shorter
    columns may be padded with zero words up to the pool size: numpy pads
    a short entropy with zero words itself, so the state is the same.
    ``mix_entropy`` hashes each pool word, then mixes each word into
    the other three in turn; the three mixes of one source word are one
    array operation, since that word does not change while they run.
    Words beyond the pool are then mixed into all four.
    """
    length, trials = entropy.shape
    extra = max(0, length - _POOL_SIZE)
    xor, times = _hash_constants(_INIT_A, _MULT_A,
                                 _POOL_SIZE ** 2 + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, trials), dtype=np.uint32)
    pool[:min(length, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hash(pool, xor[:_POOL_SIZE], times[:_POOL_SIZE])
    k = _POOL_SIZE
    for src, dst in enumerate(_OTHER_WORDS):
        hashed = _hash(pool[src], xor[k:k + 3], times[k:k + 3])
        pool[dst] = _mix(pool[dst], hashed)
        k += 3
    for word in entropy[_POOL_SIZE:]:
        hashed = _hash(word, xor[k:k + _POOL_SIZE], times[k:k + _POOL_SIZE])
        pool = _mix(pool, hashed)
        k += _POOL_SIZE
    # generate_state cycles through the pool; uint64 word i is uint32
    # words 2i (low) and 2i + 1 (high), put together by shifts
    xor, times = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    state = _hash(pool[np.arange(2 * n_words) % _POOL_SIZE], xor, times)
    state = state.astype(np.uint64)
    return state[0::2] | (state[1::2] << np.uint64(32))


class _SeedWords(ISeedSequence):
    """A seed sequence whose state is given: PCG64 asks for four uint64
    words, and these are the ones ``SeedSequence(seed)`` would give."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def gen_channels(master_seed: int, trials: int, n: int):
    """The (trials, 2, n) complex channels and (trials,) uint64 seeds of a
    sweep, bit for bit ``gen_channel(trial_seed(master_seed, t), n)`` for
    every trial t.

    From ARRAY_DRAW_MIN_TRIALS trials on, `_seed_state` hashes the entropy
    [master_seed, t] of all trials into their seeds, and each seed into its
    four PCG64 words; each trial's generator then draws its normals into
    one buffer, and the complex entries are formed once over the buffer.
    """
    if n < 1:
        raise ValueError("need at least one antenna")
    if master_seed < 0:
        raise ValueError("master seed must be >= 0")
    if trials > 1 << 32:
        raise ValueError("trial indices must fit one uint32 word")
    if trials < ARRAY_DRAW_MIN_TRIALS:
        h = np.empty((trials, 2, n), dtype=complex)
        seeds = np.empty(trials, dtype=np.uint64)
        for t in range(trials):
            ch = gen_channel(trial_seed(master_seed, t), n)
            h[t] = ch.h1, ch.h2
            seeds[t] = ch.seed
        return h, seeds
    words, m = [], int(master_seed)
    while True:
        words.append(m & _MASK32)
        m >>= 32
        if not m:
            break
    entropy = np.empty((len(words) + 1, trials), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(trials, dtype=np.uint32)
    seeds = _seed_state(entropy, 1)[0]
    entropy = np.array([seeds & np.uint64(_MASK32), seeds >> np.uint64(32)],
                       dtype=np.uint32)
    state = np.ascontiguousarray(_seed_state(entropy, 4).T)
    draws = np.empty((trials, 2, n, 2))
    for t in range(trials):
        rng = np.random.Generator(np.random.PCG64(_SeedWords(state[t])))
        rng.standard_normal(out=draws[t])
    return (draws[..., 0] + 1j * draws[..., 1]) / math.sqrt(2.0), seeds


def db_from_power(p: float) -> float:
    return 10.0 * math.log10(p)


def power_from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def _positive_finite(f, x) -> bool:
    """Whether f(x) is positive and finite; an OverflowError is neither."""
    try:
        return 0.0 < f(x) < math.inf
    except OverflowError:
        return False


@dataclass
class ScenarioConfig:
    """Experiment configuration; every key has a CLI/config-file counterpart."""
    n: int = 4
    eta: float = 1.0
    snr_db: float = 20.0
    pc_dbm: float = 10.0
    r1_bar: float = 2.0
    r2_bar: float = 2.0
    trials: int = 100
    master_seed: int = 1234
    schemes: tuple = (1, 2, 3, 4)
    axis: str = "none"              # none | snr | pc
    axis_values: tuple = ()
    equal_gain: str = "phased"      # phased | unphased

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        # trial indices are one uint32 word of each trial's seed entropy
        if self.trials > 1 << 32:
            raise ConfigError(f"trials must be <= 2^32, got {self.trials!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        for name in ("eta", "snr_db", "pc_dbm", "r1_bar", "r2_bar"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ConfigError(f"{name} must be finite, got {v!r}")
        if not 0 < self.eta <= 1:
            raise ConfigError(f"eta must lie in (0, 1], got {self.eta!r}")
        # theta = 2^(2 r) of `design.rate_thresholds` is finite below r = 512
        for name in ("r1_bar", "r2_bar"):
            r = getattr(self, name)
            if not (r > 0 and _positive_finite(lambda v: 2.0 ** (2.0 * v), r)):
                raise ConfigError(f"{name} must be positive with 2^(2 {name}) "
                                  f"finite, got {r!r}")
        # sigma2 = power_from_db(-snr_db) and P_c = power_from_db(pc_dbm) must
        # be positive, and `design.power_constants`' sigma2 theta_{i,r} and
        # 2 P_c / eta finite: above about -3070 dB and below 3079 dBm at the
        # defaults
        theta = 2.0 ** (2.0 * max(self.r1_bar, self.r2_bar))
        constant = {"snr_db": lambda db: power_from_db(-db) * theta,
                    "pc_dbm": lambda db: 2.0 * power_from_db(db) / self.eta}
        for name, f in constant.items():
            if not _positive_finite(f, getattr(self, name)):
                raise ConfigError(f"{name} gives no positive finite power "
                                  f"constants, got {getattr(self, name)!r}")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed!r}")
        if self.axis not in ("none", "snr", "pc"):
            raise ConfigError(f"axis must be none, snr or pc, got {self.axis!r}")
        if self.equal_gain not in ("phased", "unphased"):
            raise ConfigError(f"equal_gain must be phased or unphased")
        self.schemes = tuple(int(s) for s in self.schemes)
        if not self.schemes:
            raise ConfigError("scheme list must not be empty")
        if any(s not in (1, 2, 3, 4) for s in self.schemes):
            raise ConfigError(f"schemes must be drawn from 1..4, got {self.schemes}")
        # each scheme's records are solved and summarised once
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must be distinct, got {self.schemes}")
        self.axis_values = tuple(float(v) for v in self.axis_values)
        if not all(map(math.isfinite, self.axis_values)):
            raise ConfigError(f"axis_values must be finite, got {self.axis_values}")
        f = constant.get({"snr": "snr_db", "pc": "pc_dbm"}.get(self.axis))
        if f and not all(_positive_finite(f, v) for v in self.axis_values):
            raise ConfigError("axis_values give no positive finite power "
                              f"constants, got {self.axis_values}")
        if self.axis != "none" and not self.axis_values:
            raise ConfigError("axis sweep requested but axis_values is empty")
        # a repeated point would pool the same channels twice in its summary
        # row; 0.0 and -0.0 are one point
        if len(set(self.axis_values)) < len(self.axis_values):
            raise ConfigError("axis_values must be distinct, "
                              f"got {self.axis_values}")


def units_from_config(cfg: ScenarioConfig) -> SystemParams:
    """Convert the dB-scale configuration to linear system parameters."""
    return point_params(cfg, cfg.snr_db, cfg.pc_dbm)


def point_params(cfg: ScenarioConfig, snr_db, pc_dbm) -> SystemParams:
    """`units_from_config` at the operating point (snr_db, pc_dbm)."""
    return SystemParams(N=cfg.n, eta=cfg.eta, p_c=power_from_db(pc_dbm),
                        sigma2=power_from_db(-snr_db), r1_bar=cfg.r1_bar,
                        r2_bar=cfg.r2_bar)


_LIST_KEYS = {"schemes", "axis_values"}


def render_config(cfg: ScenarioConfig) -> str:
    """Plain-text key=value rendering; parse_config inverts it."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name in _LIST_KEYS:
            v = ",".join(repr(x) if isinstance(x, float) else str(x) for x in v)
        elif isinstance(v, float):
            v = repr(v)
        lines.append(f"{f.name}={v}")
    return "\n".join(lines) + "\n"


def parse_config(text: str) -> ScenarioConfig:
    """Parse key=value lines; '#' starts a comment, blank lines ignored."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        raw[key] = val
    return config_from_dict(raw)


def config_from_dict(raw: dict) -> ScenarioConfig:
    kwargs = {}
    valid = {f.name: f for f in fields(ScenarioConfig)}
    for key, val in raw.items():
        if key not in valid:
            raise ConfigError(f"unknown configuration key {key!r}")
        kwargs[key] = _coerce(key, val)
    try:
        return ScenarioConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _coerce(key, val):
    if not isinstance(val, str):
        return val
    try:
        if key in _LIST_KEYS:
            items = [v for v in val.split(",") if v.strip()]
            if key == "schemes":
                return tuple(int(v) for v in items)
            return tuple(float(v) for v in items)
        if key in ("n", "trials", "master_seed"):
            return int(val)
        if key in ("axis", "equal_gain"):
            return val
        return float(val)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {val!r}") from exc


def with_overrides(cfg: ScenarioConfig, **overrides) -> ScenarioConfig:
    """A copy of cfg with the given fields replaced (None values skipped)."""
    data = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    for key, val in overrides.items():
        if val is None:
            continue
        if key not in data:
            raise ConfigError(f"unknown configuration key {key!r}")
        data[key] = _coerce(key, val) if isinstance(val, str) else val
    return ScenarioConfig(**data)


def fig2_preset(**overrides) -> ScenarioConfig:
    """Relay power versus SNR: 0..30 dB in 5 dB steps at P_c = 10."""
    base = dict(axis="snr", axis_values=tuple(float(v) for v in range(0, 31, 5)),
                snr_db=20.0, pc_dbm=10.0, trials=100)
    base.update(overrides)
    return ScenarioConfig(**base)


def fig3_preset(**overrides) -> ScenarioConfig:
    """Relay power versus circuit power: P_c 0..20 dB at SNR = 20 dB."""
    base = dict(axis="pc", axis_values=tuple(float(v) for v in range(0, 21, 5)),
                snr_db=20.0, pc_dbm=10.0, trials=100)
    base.update(overrides)
    return ScenarioConfig(**base)
