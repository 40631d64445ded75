"""Channel generation, unit conventions and experiment configuration.

SNR is defined as 1/sigma^2 against unit-variance Rayleigh channels, and
dBm-labelled circuit powers are read as dB over the same unit reference
power (no pathloss model, so absolute watts are not meaningful here).
Comparative quantities are invariant to a common shift of that reference.
"""

from dataclasses import dataclass, field, fields
import math

import numpy as np

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
    rel_tol: float = 1e-5
    max_iter: int = 50

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        for name in ("eta", "snr_db", "pc_dbm", "r1_bar", "r2_bar", "rel_tol"):
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
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter!r}")
        if self.rel_tol < 0:
            raise ConfigError(f"rel_tol must be >= 0, got {self.rel_tol!r}")
        if self.axis not in ("none", "snr", "pc"):
            raise ConfigError(f"axis must be none, snr or pc, got {self.axis!r}")
        if self.equal_gain not in ("phased", "unphased"):
            raise ConfigError(f"equal_gain must be phased or unphased")
        self.schemes = tuple(int(s) for s in self.schemes)
        if not self.schemes:
            raise ConfigError("scheme list must not be empty")
        if any(s not in (1, 2, 3, 4) for s in self.schemes):
            raise ConfigError(f"schemes must be drawn from 1..4, got {self.schemes}")
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
        if key in ("n", "trials", "master_seed", "max_iter"):
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
