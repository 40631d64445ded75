import math

import numpy as np
import pytest

from cofrelay import batch, harness, scenario
from cofrelay.errors import ConfigError


class TestGenChannel:
    def test_deterministic(self):
        a = scenario.gen_channel(42, 4)
        b = scenario.gen_channel(42, 4)
        assert np.array_equal(a.h1, b.h1) and np.array_equal(a.h2, b.h2)

    def test_different_seeds_differ(self):
        a = scenario.gen_channel(1, 4)
        b = scenario.gen_channel(2, 4)
        assert not np.allclose(a.h1, b.h1)

    def test_moments(self):
        samples = []
        for t in range(12500):
            ch = scenario.gen_channel(scenario.trial_seed(7, t), 4)
            samples.append(ch.h1)
            samples.append(ch.h2)
        flat = np.concatenate(samples)  # 1e5 CN(0,1) draws
        assert abs(np.mean(flat.real)) < 0.02 and abs(np.mean(flat.imag)) < 0.02
        assert 0.97 <= np.var(flat) <= 1.03
        # real and imaginary parts each carry half the variance
        assert 0.45 <= np.var(flat.real) <= 0.55

    def test_trial_seeds_order_independent(self):
        fwd = [scenario.trial_seed(5, t) for t in range(10)]
        rev = [scenario.trial_seed(5, t) for t in reversed(range(10))]
        assert fwd == rev[::-1]
        assert len(set(fwd)) == 10


def _numpy_channels(master_seed, trials, n):
    """The channels and seeds of `scenario.gen_channels` from numpy's own
    SeedSequence and default_rng, one trial at a time."""
    seeds = [np.random.SeedSequence([master_seed, t]).generate_state(
        1, np.uint64)[0] for t in range(trials)]
    draws = np.array([np.random.default_rng(seed).standard_normal((2, n, 2))
                      for seed in seeds])
    h = (draws[..., 0] + 1j * draws[..., 1]) / math.sqrt(2.0)
    return h, np.array(seeds, dtype=np.uint64)


class TestGenChannels:
    # word-count edges of the entropy [master_seed, t]: past 3 master
    # words it outgrows the 4-word pool and takes numpy's extra mixing
    @pytest.mark.parametrize("master_seed", [
        0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 + 1, 2**200 + 7])
    def test_matches_numpy(self, master_seed):
        low = scenario.ARRAY_DRAW_MIN_TRIALS
        for trials in (1, low - 1, low, 2 * low + 1):
            for n in (1, 2, 4, 16):
                h, seeds = scenario.gen_channels(master_seed, trials, n)
                ref_h, ref_seeds = _numpy_channels(master_seed, trials, n)
                assert seeds.dtype == np.uint64 and h.shape == (trials, 2, n)
                assert np.array_equal(seeds, ref_seeds), (trials, n)
                # bit for bit: tobytes tells 0.0 from -0.0
                same = h.tobytes() == ref_h.tobytes()
                assert same, (trials, n)

    def test_array_pass_from_the_crossover(self, monkeypatch):
        def per_trial(*args):
            raise AssertionError("drew a trial with numpy's SeedSequence")

        monkeypatch.setattr(scenario, "trial_seed", per_trial)
        monkeypatch.setattr(scenario, "gen_channel", per_trial)
        h, seeds = scenario.gen_channels(5, scenario.ARRAY_DRAW_MIN_TRIALS, 3)
        assert h.shape == (scenario.ARRAY_DRAW_MIN_TRIALS, 2, 3)

    @pytest.mark.parametrize("preset, master_seed", [
        (scenario.fig2_preset, 2**96 + 1), (scenario.fig3_preset, 2**64)],
        ids=("fig2", "fig3"))
    def test_sweep_matches_per_trial_draws(self, preset, master_seed):
        cfg = preset(master_seed=master_seed)
        assert cfg.trials >= scenario.ARRAY_DRAW_MIN_TRIALS
        channels = [scenario.gen_channel(scenario.trial_seed(master_seed, t),
                                         cfg.n) for t in range(cfg.trials)]
        per_trial = harness._run_batch(cfg, harness.axis_points(cfg),
                                       batch.ChannelBatch.stack(channels))
        records, _ = harness.run_sweep(cfg)
        # a bool, so that a failure does not diff two 200 kB texts
        same = harness.records_csv(records) == harness.records_csv(per_trial)
        assert same


class TestUnits:
    def test_snr20(self):
        par = scenario.units_from_config(scenario.ScenarioConfig(snr_db=20.0))
        assert par.sigma2 == pytest.approx(0.01)

    def test_pc10(self):
        par = scenario.units_from_config(scenario.ScenarioConfig(pc_dbm=10.0))
        assert par.p_c == pytest.approx(10.0)

    def test_snr0(self):
        par = scenario.units_from_config(scenario.ScenarioConfig(snr_db=0.0))
        assert par.sigma2 == pytest.approx(1.0)

    def test_db_roundtrip(self):
        assert scenario.db_from_power(scenario.power_from_db(7.3)) == pytest.approx(7.3)


class TestConfig:
    def test_defaults_match_experiment_setup(self):
        cfg = scenario.ScenarioConfig()
        assert cfg.n == 4 and cfg.eta == 1.0 and cfg.trials == 100
        assert cfg.r1_bar == 2.0 and cfg.r2_bar == 2.0
        assert cfg.schemes == (1, 2, 3, 4)

    def test_roundtrip(self):
        cfg = scenario.ScenarioConfig(n=3, snr_db=12.5, pc_dbm=-3.0, trials=7,
                                      master_seed=99, schemes=(1, 4),
                                      axis="snr", axis_values=(0.0, 5.0, 10.0),
                                      equal_gain="unphased")
        again = scenario.parse_config(scenario.render_config(cfg))
        assert again == cfg

    def test_parse_comments_and_blanks(self):
        cfg = scenario.parse_config("# comment\n\nn=2\ntrials=3   # inline\n")
        assert cfg.n == 2 and cfg.trials == 3

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            scenario.parse_config("bogus=1\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError):
            scenario.parse_config("n 4\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            scenario.parse_config("trials=abc\n")

    def test_empty_schemes_rejected(self):
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(schemes=())

    def test_invalid_scheme_rejected(self):
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(schemes=(1, 5))

    @pytest.mark.parametrize("key,value", [
        ("eta", 0.0), ("eta", 2.0), ("eta", -0.5), ("r1_bar", -1.0),
        ("r2_bar", 0.0), ("master_seed", -1), ("snr_db", 4000.0),
        ("snr_db", -4000.0),
        ("pc_dbm", 4000.0), ("pc_dbm", -4000.0),
        pytest.param("axis_values", (math.nan,), id="axis_values-nan"),
        pytest.param("axis_values", (10.0, math.inf), id="axis_values-inf"),
        pytest.param("axis_values", (1e400,), id="axis_values-1e400"),
        # 2^(2 r) overflows; sigma2 = 1e308 and P_c = 1e308 are finite, but
        # sigma2 theta_{i,r} and 2 P_c / eta are not
        ("r1_bar", 600.0), ("r2_bar", 512.0), ("snr_db", -3080.0),
        ("pc_dbm", 3080.0),
        # trial indices past 2^32 - 1 do not fit the uint32 word of the
        # seed entropy
        ("trials", 2 ** 32 + 1),
        # a repeated scheme would solve and pool its records twice
        pytest.param("schemes", (1, 1), id="schemes-repeated"),
        pytest.param("schemes", (4, 2, 4), id="schemes-repeated-unsorted"),
        pytest.param("axis_values", {"axis": "snr", "axis_values": (0.0, -3080.0)},
                     id="axis_values-snr-3080"),
        pytest.param("axis_values", {"axis": "pc", "axis_values": (0.0, 3080.0)},
                     id="axis_values-pc-3080")])
    def test_out_of_range_rejected(self, key, value):
        # SystemParams and SeedSequence would raise a bare ValueError later,
        # dB values this far out overflow or underflow in `power_from_db` or
        # in the power constants, and `batch.solve` needs distinct schemes;
        # a sweep builds its points' parameters from the axis values
        # unchecked. A dict value is a set of keys.
        fields = value if isinstance(value, dict) else {key: value}
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(**fields)
        text = "".join(
            f"{k}={','.join(map(repr, v)) if isinstance(v, tuple) else v}\n"
            for k, v in fields.items())
        with pytest.raises(ConfigError):
            scenario.parse_config(text)

    def test_range_edges_accepted(self):
        cfg = scenario.ScenarioConfig(eta=1.0, r1_bar=1e-3, r2_bar=1e-3,
                                      master_seed=0, trials=2 ** 32)
        assert scenario.units_from_config(cfg).eta == 1.0
        par = scenario.units_from_config(scenario.ScenarioConfig(
            snr_db=-3000.0, pc_dbm=-3200.0))
        assert 0.0 < par.p_c < par.sigma2 < math.inf

    def test_axis_needs_values(self):
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(axis="snr", axis_values=())

    @pytest.mark.parametrize("values", [(10.0, 10.0), (0.0, 5.0, -0.0),
                                        (30.0, 10.0, 30.0, 0.0)],
                             ids=("repeated", "both-zeros", "unsorted"))
    def test_axis_values_distinct(self, values):
        with pytest.raises(ConfigError):
            scenario.ScenarioConfig(axis="pc", axis_values=values)
        text = ",".join(repr(v) for v in values)
        with pytest.raises(ConfigError):
            scenario.parse_config(f"axis=snr\naxis_values={text}\n")

    def test_overrides(self):
        cfg = scenario.ScenarioConfig()
        out = scenario.with_overrides(cfg, trials=3, schemes="2,4", snr_db=None)
        assert out.trials == 3 and out.schemes == (2, 4)
        assert out.snr_db == cfg.snr_db

    def test_presets(self):
        f2 = scenario.fig2_preset()
        assert f2.axis == "snr"
        assert f2.axis_values == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
        assert f2.pc_dbm == 10.0 and f2.trials == 100
        f3 = scenario.fig3_preset()
        assert f3.axis == "pc" and f3.snr_db == 20.0
        assert f3.axis_values == (0.0, 5.0, 10.0, 15.0, 20.0)
