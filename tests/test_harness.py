import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cofrelay import batch, cli, design, harness, lattice
from cofrelay.design import (SystemParams, check_rates, rate_thresholds,
                             required_power, verify_rates)
from cofrelay.errors import (CofRelayError, ConfigError,
                             DegenerateChannelError, DimensionError,
                             InfeasibleError, NestingError)
from cofrelay.optimizer import run_scheme
from cofrelay.scenario import (ChannelRealization, ScenarioConfig,
                               db_from_power, fig2_preset, fig3_preset,
                               gen_channel, trial_seed, units_from_config,
                               with_overrides)
import record_reference

UNIT_CH = ChannelRealization(h1=np.array([1.0 + 0j]),
                             h2=np.array([1.0 + 0j]), seed=0)


def small_cfg(**kw):
    base = dict(n=4, trials=4, master_seed=11, axis="none",
                schemes=(1, 2, 3, 4))
    base.update(kw)
    return ScenarioConfig(**base)


class TestSweep:
    def test_scalar_analytic_row(self):
        # N=1 unit channels, snr 0 dB, negligible circuit power, rate 0.5:
        # scheme 4 requires P_r = 3 exactly.
        cfg = ScenarioConfig(n=1, trials=1, snr_db=0.0, pc_dbm=-300.0,
                             r1_bar=0.5, r2_bar=0.5, schemes=(4,), axis="none")
        records = harness.run_point(cfg, 0.0, -300.0, channels=[UNIT_CH])
        assert len(records) == 1
        row = records[0]
        assert row.status == "ok"
        assert row.p_r_db == pytest.approx(10.0 * math.log10(3.0), abs=1e-9)

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = small_cfg(trials=3, schemes=(1, 4))
        r1 = tmp_path / "r1.csv"
        s1 = tmp_path / "s1.csv"
        harness.run_sweep(cfg, r1, s1)
        r2 = tmp_path / "r2.csv"
        s2 = tmp_path / "s2.csv"
        harness.run_sweep(cfg, r2, s2)
        assert r1.read_bytes() == r2.read_bytes()
        assert s1.read_bytes() == s2.read_bytes()

    def test_csv_schema(self, tmp_path):
        cfg = small_cfg(trials=2, schemes=(4,))
        records, summaries = harness.run_sweep(cfg, tmp_path / "r.csv",
                                               tmp_path / "s.csv")
        header = (tmp_path / "r.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.RECORD_COLUMNS)
        assert header == ("scheme,snr_db,pc_dbm,trial,seed,p_r_db,beta1,beta2,"
                          "margin_up1,margin_up2,margin_down1,margin_down2,"
                          "status")
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.SUMMARY_COLUMNS)
        assert len(records) == 2
        assert summaries[0].trials + summaries[0].failures == cfg.trials

    def test_unequal_target_sweep_in_bounded_memory(self):
        # scheme 1's angle search keeps a few (P, T) arrays per pass; an
        # angle grid over all 7000 records of each scheme-1 solve would
        # hold (257, P, T) ones, about 175 MB here
        cfg = fig2_preset(r1_bar=1.0, r2_bar=3.0, trials=1000)
        tracemalloc.start()
        try:
            records, _ = harness.run_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(records) == 4 * 7000
        assert peak < 40e6

    def test_scheme_mean_ordering(self):
        cfg = small_cfg(trials=5)
        records, summaries = harness.run_sweep(cfg)
        by_scheme = {s.scheme: s.mean_p_r_db for s in summaries}
        assert by_scheme[1] <= by_scheme[2] + 1e-9
        assert by_scheme[1] <= by_scheme[3] + 1e-9
        assert max(by_scheme[2], by_scheme[3]) <= by_scheme[4] + 1e-9
        for r in records:
            if r.status == "ok":
                assert all(m >= -harness.MARGIN_SLACK for m in r.margins())

    def test_summary_order_independent(self):
        cfg = small_cfg(trials=4, schemes=(1, 2))
        records, summaries = harness.run_sweep(cfg)
        rng = np.random.default_rng(0)
        again = harness.summarize(records.take(rng.permutation(len(records))))
        assert again == summaries

    def test_row_view(self):
        cfg = small_cfg(trials=3, schemes=(2, 4), axis="snr",
                        axis_values=(10.0, 0.0))
        records, _ = harness.run_sweep(cfg)
        rows = list(records)
        assert len(rows) == len(records) == 12
        assert [records[i] for i in range(-12, 12)] == rows + rows
        with pytest.raises(IndexError):
            records[12]
        assert [(r.snr_db, r.scheme, r.trial) for r in rows[:4]] == [
            (0.0, 2, 0), (0.0, 2, 1), (0.0, 2, 2), (0.0, 4, 0)]
        assert {type(v) for v in vars(rows[0]).values()} == {int, float, str}

    def test_axis_points(self):
        cfg = small_cfg(axis="snr", axis_values=(0.0, 10.0))
        assert harness.axis_points(cfg) == [(0.0, 10.0), (10.0, 10.0)]
        cfg = small_cfg(axis="pc", axis_values=(5.0,), snr_db=15.0)
        assert harness.axis_points(cfg) == [(15.0, 5.0)]


# Parity of the batched sweep with the scalar scheme path, fixed before the
# batch was written: relative in p_r, absolute in betas and margins.
P_R_TOL = 1e-12
BETA_TOL = 1e-12
MARGIN_TOL = 1e-10


def _point_params(cfg, snr_db, pc_dbm):
    return units_from_config(with_overrides(cfg, snr_db=snr_db, pc_dbm=pc_dbm,
                                            axis="none", axis_values=()))


def _scalar_reference(scheme, ch, params, phased):
    """(status, (p_r, betas, margins) or None) of one record by the frozen
    `run_scheme`, `verify_rates` and `check_rates` of `record_reference`."""
    ref = record_reference
    try:
        d = ref.run_scheme(scheme, ch, params, equal_gain_phased=phased)
        report = ref.check_rates(ref.verify_rates(d, ch, params))
    except CofRelayError as exc:
        return f"failed:{type(exc).__name__}", None
    return "ok", (d.p_r, d.beta, report.margins)


def _assert_parity(records, cfg, channels):
    """Every record matches its scalar reference within the parity bounds."""
    phased = cfg.equal_gain == "phased"
    params = {}
    for r in records:
        point = (r.snr_db, r.pc_dbm)
        if point not in params:
            params[point] = _point_params(cfg, *point)
        ch = channels[r.trial]
        status, ref = _scalar_reference(r.scheme, ch, params[point], phased)
        where = (r.scheme, point, r.trial)
        assert (r.status, r.seed) == (status, ch.seed), where
        got = (r.p_r_db, r.beta1, r.beta2) + r.margins()
        if ref is None:
            assert all(math.isnan(v) for v in got), where
            continue
        p_r, betas, margins = ref
        assert abs(10.0 ** (r.p_r_db / 10.0) / p_r - 1.0) <= P_R_TOL, where
        assert np.max(np.abs(np.subtract((r.beta1, r.beta2), betas))) <= BETA_TOL
        assert np.max(np.abs(np.subtract(r.margins(), margins))) <= MARGIN_TOL


def _scheme_slice(res, s):
    """The (P, T) records of the s-th scheme of a `batch.solve` result."""
    return batch.BatchResult(res.p_r[s], res.beta[:, s], res.margins[:, s],
                             res.status[s])


def _assert_ok_finite(records):
    """No ``ok`` record holds a non-finite P_r, beta or margin."""
    for r in records:
        if r.status == "ok":
            values = (r.p_r_db, r.beta1, r.beta2) + r.margins()
            assert all(map(math.isfinite, values)), r


EDGE_H1 = np.array([0.3 - 1.1j, 0.8 + 0.2j, -0.4 + 0.5j])
EDGE_CHANNELS = {
    "zero-h1": (np.zeros(3), EDGE_H1),
    "zero-h2": (EDGE_H1, np.zeros(3)),
    "collinear": (EDGE_H1, 2j * EDGE_H1),
    "identical": (EDGE_H1, EDGE_H1),
    "orthogonal": (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])),
}


class TestBatchParity:
    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("preset", (fig2_preset, fig3_preset),
                             ids=("fig2", "fig3"))
    def test_presets(self, preset, equal_gain):
        cfg = preset(master_seed=1234, equal_gain=equal_gain)
        records, _ = harness.run_sweep(cfg)
        assert len(records) == 4 * cfg.trials * len(cfg.axis_values)
        channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                    for t in range(cfg.trials)]
        _assert_parity(records, cfg, channels)

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("n,r1_bar,r2_bar", [
        pytest.param(n, r1, r2, id=f"{n}{suffix}")
        for r1, r2, suffix in ((1.0, 3.0, ""), (3.0, 1.0, "-swapped"))
        for n in (1, 2, 8)])
    def test_antenna_counts(self, n, r1_bar, r2_bar, equal_gain):
        # both orders of unequal targets: theta_{r,i} is theta_{3-i,r}
        cfg = ScenarioConfig(n=n, trials=25, master_seed=7, axis="snr",
                             axis_values=(-10.0, 20.0, 50.0), pc_dbm=-20.0,
                             r1_bar=r1_bar, r2_bar=r2_bar,
                             equal_gain=equal_gain)
        records, _ = harness.run_sweep(cfg)
        channels = [gen_channel(trial_seed(cfg.master_seed, t), n)
                    for t in range(cfg.trials)]
        _assert_parity(records, cfg, channels)

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("kind", sorted(EDGE_CHANNELS))
    def test_edge_channels(self, kind, equal_gain):
        h1, h2 = EDGE_CHANNELS[kind]
        edge = ChannelRealization(h1=np.asarray(h1, dtype=complex),
                                  h2=np.asarray(h2, dtype=complex), seed=5)
        channels = [gen_channel(11, 3), edge, gen_channel(12, 3)]
        cfg = ScenarioConfig(n=3, trials=3, equal_gain=equal_gain)
        points = [(0.0, 10.0), (20.0, -30.0), (40.0, 20.0)]
        records = [r for point in points
                   for r in harness.run_point(cfg, *point, channels=channels)]
        _assert_parity(records, cfg, channels)
        statuses = {r.status for r in records if r.trial == 1}
        if kind.startswith("zero"):
            assert statuses == {"failed:DegenerateChannelError"}
        else:
            assert statuses == {"ok"}

        # all schemes and points in one batch: failed records stay NaN
        # beside good ones
        params = batch.OperatingPoints(_point_params(cfg, *p) for p in points)
        res = batch.solve((1, 2, 3, 4), batch.ChannelBatch.stack(channels),
                          params, equal_gain_phased=(equal_gain == "phased"))
        for s, scheme in enumerate((1, 2, 3, 4)):
            for p, par in enumerate(params.params):
                for t, ch in enumerate(channels):
                    status, ref = _scalar_reference(scheme, ch, par,
                                                    equal_gain == "phased")
                    assert res.status[s, p, t] == status
                    if ref is None:
                        assert math.isnan(res.p_r[s, p, t])
                    else:
                        assert res.p_r[s, p, t] == pytest.approx(ref[0],
                                                                 rel=P_R_TOL)

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    def test_extreme_snr_misses_targets(self, equal_gain):
        # above about 150 dB the uplink power cancels to 0 in floating
        # point, and every scheme misses its rate targets by whole bits
        cfg = ScenarioConfig(n=4, trials=3, master_seed=1234, axis="snr",
                             axis_values=(20.0, 200.0), equal_gain=equal_gain)
        records, summaries = harness.run_sweep(cfg)
        channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                    for t in range(cfg.trials)]
        _assert_parity(records, cfg, channels)
        assert {r.status for r in records if r.snr_db == 200.0} == {
            "failed:InfeasibleError"}
        assert {r.status for r in records if r.snr_db == 20.0} == {"ok"}
        assert [s.failures for s in summaries] == [0, 3] * 4

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    def test_overflowing_constants_fail(self, equal_gain):
        # near the noise-power bound of `ScenarioConfig`, a_i or the uplink
        # power overflows on weak channels: P_r is inf, or s / tot and so a
        # margin is NaN; both paths fail those records, and no ok record
        # holds a non-finite value
        cfg = ScenarioConfig(n=4, trials=100, master_seed=1234, axis="snr",
                             axis_values=(-3040.0, -3060.0),
                             equal_gain=equal_gain)
        records, _ = harness.run_sweep(cfg)
        channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                    for t in range(cfg.trials)]
        _assert_parity(records, cfg, channels)
        _assert_ok_finite(records)
        assert {r.status for r in records} == {"ok", "failed:InfeasibleError"}
        for snr_db in cfg.axis_values:
            assert any(r.status != "ok" for r in records if r.snr_db == snr_db)
        if equal_gain == "unphased":
            # rho_i overflows, so scheme 3's combiner and P_r are NaN; both
            # paths check P_r before the unit norm, and fail it as infeasible
            rec, = (r for r in records
                    if (r.scheme, r.snr_db, r.trial) == (3, -3060.0, 16))
            assert rec.status == "failed:InfeasibleError"

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    def test_overflowing_rates_fail(self, equal_gain):
        # at huge SNR and circuit power the received powers overflow to
        # inf while P_r and the betas are finite, so rate margins are +inf;
        # both paths fail those records
        cfg = ScenarioConfig(n=4, trials=100, master_seed=1234, axis="pc",
                             axis_values=(3000.0, 3030.0, 3060.0),
                             snr_db=3000.0, equal_gain=equal_gain)
        records, _ = harness.run_sweep(cfg)
        channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                    for t in range(cfg.trials)]
        _assert_parity(records, cfg, channels)
        _assert_ok_finite(records)
        assert {r.status for r in records} == {"failed:InfeasibleError"}

    def test_nan_vector_fails_unit_norm(self):
        # `design.TransceiverDesign` rejects a NaN vector with ValueError,
        # and so does the batch at a P_r that passes its own check
        channels = [gen_channel(trial_seed(3, t), 4) for t in range(4)]
        points = batch.OperatingPoints(
            [_point_params(ScenarioConfig(), 20.0, 10.0)])
        w, unit, up, down = batch.ChannelBatch.stack(channels).equal_gain(True)
        g = w.copy()
        g[1] = np.nan
        rhs = design.right_hand_sides(points.const, points.eta, up)
        res = batch._tail(points, batch._Board((1, 1, len(channels))),
                          unit & batch._unit(g), up, down, rhs)
        assert res.status.tolist() == [[["ok", "failed:ValueError", "ok",
                                         "ok"]]]

    @pytest.mark.parametrize("scale", (0.5, 2.0))
    def test_splitting_check_off_the_required_power(self, scale):
        # A sweep always runs at the required power, where both splitting
        # intervals are nonempty; scaling the right-hand sides by a power
        # of two scales P_r exactly, so the batch's interval check and
        # ratios meet the frozen scalar `recover_beta` at that P_r.
        channels = [gen_channel(trial_seed(3, t), 4) for t in range(8)]
        par = _point_params(ScenarioConfig(), 20.0, 10.0)
        points = batch.OperatingPoints([par])
        w, unit, up, down = batch.ChannelBatch.stack(channels).equal_gain(True)
        rhs = design.right_hand_sides(points.const, points.eta, up)
        with np.errstate(divide="ignore", invalid="ignore"):  # as in solve
            res = batch._tail(points, batch._Board((1, 1, len(channels))),
                              unit, up, down, scale * rhs)
        res = _scheme_slice(res, 0)
        for t, ch in enumerate(channels):
            p_r = scale * required_power(w[t], w[t], ch, par)
            try:
                betas = record_reference.recover_beta(p_r, w[t], w[t], ch,
                                                      par)
            except InfeasibleError:
                assert res.status[0, t] == "failed:InfeasibleError"
                assert math.isnan(res.p_r[0, t])
                continue
            assert res.status[0, t] == "ok"
            assert res.p_r[0, t] == p_r
            assert np.max(np.abs(res.beta[:, 0, t] - betas)) <= BETA_TOL
        assert (res.status == "ok").all() == (scale > 1.0)


def _one_record(scheme, ch, params, phased):
    """(status, (p_r, betas, margins) or None) of one record by the
    package's `run_scheme`, `verify_rates` and `check_rates`."""
    try:
        d = run_scheme(scheme, ch, params, equal_gain_phased=phased)
        report = check_rates(verify_rates(d, ch, params))
    except (CofRelayError, ValueError) as exc:
        return f"failed:{type(exc).__name__}", None
    return "ok", (d.p_r, d.beta, report.margins)


class TestOneRecordExact:
    """The one-record path and the sweep run the same array steps, so
    `run_scheme`, `verify_rates` and `check_rates` give each batch record
    bit for bit: its P_r, betas and margins, and as the error class its
    status."""

    @pytest.mark.parametrize("r1_bar,r2_bar", ((2.0, 2.0), (1.0, 3.0)),
                             ids=("r2-2", "r1-3"))
    @pytest.mark.parametrize("n", (1, 2, 4, 16))
    def test_matches_batch(self, n, r1_bar, r2_bar):
        cfg = ScenarioConfig(n=n, trials=20, master_seed=7, axis="snr",
                             axis_values=(0.0, 20.0, 50.0), r1_bar=r1_bar,
                             r2_bar=r2_bar)
        params = [_point_params(cfg, *p) for p in harness.axis_points(cfg)]
        channels = [gen_channel(trial_seed(cfg.master_seed, t), n)
                    for t in range(cfg.trials)]
        schemes = (1, 2, 3, 4)
        one, differ = {}, []
        for phased in (True, False):
            res = batch.solve(schemes, batch.ChannelBatch.stack(channels),
                              batch.OperatingPoints(params),
                              equal_gain_phased=phased)
            for (s, scheme), (p, par), (t, ch) in itertools.product(
                    enumerate(schemes), enumerate(params),
                    enumerate(channels)):
                # scheme 1 reads no equal-gain vector: one solve serves both
                key = (scheme, phased or scheme == 1, p, t)
                if key not in one:
                    one[key] = _one_record(scheme, ch, par, phased)
                status, want = one[key]
                got = (res.p_r[s, p, t], tuple(res.beta[:, s, p, t].tolist()),
                       tuple(res.margins[:, s, p, t].tolist()))
                if res.status[s, p, t] != status:
                    differ.append((key, "status"))
                elif want is not None:
                    differ.extend((key, name) for name, x, y in zip(
                        ("p_r", "beta", "margins"), got, want) if x != y)
        assert not differ, differ


def _stack_case(kind, equal_gain):
    """(cfg, points, channels) of one stacking-independence case."""
    axis = dict(axis="snr", axis_values=(-10.0, 20.0, 50.0), pc_dbm=-20.0,
                equal_gain=equal_gain)
    if kind in ("fig2", "fig3"):
        preset = fig2_preset if kind == "fig2" else fig3_preset
        cfg = preset(trials=4, master_seed=99, equal_gain=equal_gain)
    elif kind == "edge":
        cfg = ScenarioConfig(n=3, trials=2 + len(EDGE_CHANNELS), **axis)
        edges = [ChannelRealization(h1=np.asarray(h1, dtype=complex),
                                    h2=np.asarray(h2, dtype=complex), seed=5)
                 for h1, h2 in EDGE_CHANNELS.values()]
        return (cfg, harness.axis_points(cfg),
                [gen_channel(11, 3)] + edges + [gen_channel(12, 3)])
    else:
        n, r1_bar, r2_bar = kind
        cfg = ScenarioConfig(n=n, trials=6, master_seed=7, r1_bar=r1_bar,
                             r2_bar=r2_bar, **axis)
    channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for t in range(cfg.trials)]
    return cfg, harness.axis_points(cfg), channels


class TestSchemeStack:
    """Solving the schemes together changes no bit of any scheme."""

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("kind", [
        "fig2", "fig3", "edge",
        *((n, r1, r2) for n in (1, 2, 16)
          for r1, r2 in ((2.0, 2.0), (1.0, 3.0), (3.0, 1.0)))],
        ids=lambda k: k if isinstance(k, str) else "n%d-r%g-%g" % k)
    def test_all_schemes_match_each_alone(self, kind, equal_gain):
        cfg, points, channels = _stack_case(kind, equal_gain)
        params = batch.OperatingPoints(_point_params(cfg, *p) for p in points)
        phased = equal_gain == "phased"
        schemes = (1, 2, 3, 4)
        stacked = batch.solve(schemes, batch.ChannelBatch.stack(channels),
                              params, equal_gain_phased=phased)
        for s, scheme in enumerate(schemes):
            got = _scheme_slice(stacked, s)
            alone = _scheme_slice(batch.solve(
                (scheme,), batch.ChannelBatch.stack(channels), params,
                equal_gain_phased=phased), 0)
            for field in ("p_r", "beta", "margins"):
                a, b = getattr(got, field), getattr(alone, field)
                # bit for bit: NaN equals NaN, 0.0 differs from -0.0
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), (
                    scheme, field)
            assert got.status.tolist() == alone.status.tolist(), scheme
        if kind == "edge":
            assert "ok" in stacked.status
            assert "failed:DegenerateChannelError" in stacked.status

    def test_schemes_sorted_and_distinct(self):
        params = batch.OperatingPoints([_point_params(ScenarioConfig(), 20.0,
                                                      10.0)])
        chans = batch.ChannelBatch.stack([gen_channel(1, 4)])
        for schemes in ((2, 1), (3, 3), ()):
            with pytest.raises(ValueError):
                batch.solve(schemes, chans, params)


def _fmt_reference(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return format(x, ".9g")
    return str(x)


def _records_reference(cfg, points, channels):
    """The per-record sweep path: one `TrialRecord` per (scheme, point,
    trial) of the `batch.solve` results, then a stable sort by (snr_db,
    pc_dbm, scheme, trial). Reference for `harness._run_batch`."""
    params = batch.OperatingPoints(_point_params(cfg, *p) for p in points)
    chans = batch.ChannelBatch.stack(channels)
    records = []
    for scheme in sorted(cfg.schemes):
        res = _scheme_slice(batch.solve(
            (scheme,), chans, params,
            equal_gain_phased=(cfg.equal_gain == "phased")), 0)
        for p, (snr_db, pc_dbm) in enumerate(points):
            for t, ch in enumerate(channels):
                status = res.status[p, t]
                p_r = float(res.p_r[p, t])
                records.append(harness.TrialRecord(
                    scheme, snr_db, pc_dbm, t, ch.seed,
                    db_from_power(p_r) if status == "ok" else math.nan,
                    *res.beta[:, p, t].tolist(), *res.margins[:, p, t].tolist(),
                    status))
    records.sort(key=lambda r: (r.snr_db, r.pc_dbm, r.scheme, r.trial))
    return records


def _records_csv_reference(records) -> str:
    """The per-record CSV writer. Reference for `harness.records_csv`."""
    buf = io.StringIO()
    buf.write(",".join(harness.RECORD_COLUMNS) + "\n")
    for r in records:
        buf.write(",".join(_fmt_reference(getattr(r, c))
                           for c in harness.RECORD_COLUMNS) + "\n")
    return buf.getvalue()


def _summary_csv_reference(summaries) -> str:
    """The per-cell summary writer. Reference for `harness.summary_csv`."""
    buf = io.StringIO()
    buf.write(",".join(harness.SUMMARY_COLUMNS) + "\n")
    for s in summaries:
        buf.write(",".join(_fmt_reference(getattr(s, c))
                           for c in harness.SUMMARY_COLUMNS) + "\n")
    return buf.getvalue()


def _summarize_reference(records) -> list:
    """The per-bucket summary: records bucketed by (scheme, snr_db,
    pc_dbm) and reduced one bucket at a time in sorted key order, rows by
    trial. Reference for `harness.summarize`."""
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
        out.append(harness.SweepSummary(
            scheme=key[0], snr_db=key[1], pc_dbm=key[2], mean_p_r_db=mean,
            stderr_p_r_db=stderr, trials=len(vals), failures=failures))
    return out


def _assert_same_output(cfg, points, channels):
    """The columnar table holds the values of the per-record references
    bit for bit (repr is exact and prints NaN) and prints their bytes."""
    table = harness._run_batch(cfg, points,
                               batch.ChannelBatch.stack(channels))
    ref = _records_reference(cfg, points, channels)
    assert repr(list(table)) == repr(ref)
    assert harness.records_csv(table) == _records_csv_reference(ref)
    summaries = harness.summarize(table)
    assert repr(summaries) == repr(_summarize_reference(ref))
    assert (harness.summary_csv(summaries)
            == harness.summary_csv(_summarize_reference(ref)))
    assert harness.summary_csv(summaries) == _summary_csv_reference(summaries)
    return table


def _seeded(cfg):
    return [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
            for t in range(cfg.trials)]


class TestColumnarOutput:
    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("preset", (fig2_preset, fig3_preset),
                             ids=("fig2", "fig3"))
    def test_presets(self, preset, equal_gain):
        cfg = preset(equal_gain=equal_gain)
        _assert_same_output(cfg, harness.axis_points(cfg), _seeded(cfg))

    @pytest.mark.parametrize("axis_values", [
        pytest.param((30.0, 10.0, 30.0, 0.0), id="unsorted-duplicated"),
        pytest.param((-0.0, 15.0), id="negative-zero"),
        pytest.param((0.0, 25.0, -0.0), id="both-zeros"),
    ])
    def test_axis_values(self, axis_values):
        # `ScenarioConfig` rejects repeated axis values, so the points go to
        # `_run_batch` directly: its ordering of equal points stays covered
        cfg = ScenarioConfig(n=3, trials=5, master_seed=21)
        _assert_same_output(cfg, [(v, cfg.pc_dbm) for v in axis_values],
                            _seeded(cfg))

    @pytest.mark.parametrize("snr_db, trials, run", [
        # one run per (point, scheme) bucket; -0.0 prints as "-0"
        pytest.param((-0.0, 15.0), 30, 30, id="negative-zero"),
        # the 200 dB runs fail, the 20 dB runs do not
        pytest.param((200.0, 20.0), 30, 30, id="failed-and-ok"),
        # a one-trial sweep: every bucket is a run of one row
        pytest.param(tuple(range(0, 60, 2)), 1, 1, id="one-trial"),
        # repeated points, equal or up to the sign of zero, share buckets
        # that list every trial twice: no runs
        pytest.param((30.0, 10.0, 30.0), 30, 0, id="repeated"),
        pytest.param((0.0, 25.0, -0.0), 30, 0, id="both-zeros"),
    ])
    def test_run_layout(self, snr_db, trials, run):
        # tables long enough for `records_csv` to look for runs
        cfg = ScenarioConfig(n=3, trials=trials, master_seed=21)
        table = _assert_same_output(cfg, [(float(v), cfg.pc_dbm)
                                          for v in snr_db], _seeded(cfg))
        assert len(table) >= harness.RUN_PASS_MIN_ROWS
        assert harness._run_length(table.columns) == run

    def test_permuted_table(self):
        # a permuted table has no runs and is formatted row by row
        table = harness.run_sweep(fig2_preset())[0]
        assert harness._run_length(table.columns) == 100
        table = table.take(np.random.default_rng(4).permutation(len(table)))
        assert harness._run_length(table.columns) == 0
        assert harness.records_csv(table) == _records_csv_reference(table)

    def test_records_csv_in_bounded_memory(self):
        # 28 000 rows: the run pass holds 8 Python cells a row, seven
        # floats and the status, 12.4 MB at peak; 13 cells a row, as the
        # row-by-row pass holds them, take 18.8 MB
        records = harness.run_sweep(fig2_preset(trials=1000))[0]
        tracemalloc.start()
        try:
            text = harness.records_csv(records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == 1 + len(records)
        assert peak < 15.5e6

    def test_single_antenna(self):
        cfg = ScenarioConfig(n=1, trials=6, master_seed=8, axis="pc",
                             axis_values=(0.0, 10.0, 20.0))
        _assert_same_output(cfg, harness.axis_points(cfg), _seeded(cfg))

    def test_failed_records(self):
        # a zero channel toward user 1: some buckets are part failed
        cfg = ScenarioConfig(n=3, trials=4, equal_gain="unphased")
        zero = ChannelRealization(h1=np.zeros(3, dtype=complex),
                                  h2=np.asarray(EDGE_H1, dtype=complex), seed=5)
        channels = [gen_channel(11, 3), zero, gen_channel(12, 3),
                    gen_channel(13, 3)]
        table = _assert_same_output(cfg, [(20.0, 10.0)], channels)
        assert (harness.records_csv(harness.run_point(cfg, 20.0, 10.0,
                                                      channels=channels))
                == harness.records_csv(table))
        assert harness.failure_fraction(table) == 0.25
        # the extreme-SNR case: whole buckets fail beside ok ones
        cfg = ScenarioConfig(n=4, trials=3, axis="snr",
                             axis_values=(200.0, 20.0))
        table = _assert_same_output(cfg, harness.axis_points(cfg),
                                    _seeded(cfg))
        assert harness.failure_fraction(table) == 0.5

    def test_summary_csv(self):
        # at 200 dB every record fails, so those buckets have NaN mean and
        # stderr; with one trial the 20 dB buckets have a stderr of 0
        cfg = ScenarioConfig(n=3, trials=1, axis="snr",
                             axis_values=(200.0, 20.0))
        summaries = harness.run_sweep(cfg)[1]
        assert any(math.isnan(s.mean_p_r_db) and math.isnan(s.stderr_p_r_db)
                   for s in summaries)
        assert any(s.trials == 1 and s.stderr_p_r_db == 0.0 for s in summaries)
        summaries.append(harness.SweepSummary(
            scheme=2, snr_db=-0.0, pc_dbm=1e-300, mean_p_r_db=-math.inf,
            stderr_p_r_db=123456789.25, trials=0, failures=7))
        assert harness.summary_csv(summaries) == _summary_csv_reference(summaries)
        assert harness.summary_csv([]) == _summary_csv_reference([])


def _oracle_reference(channel, params, resolution):
    """Brute-force N=2 grid oracle: the max of the two user terms over the
    full grid-by-grid product, formed in 256 x 256 blocks of two reused
    buffers. A grid point at or below the gain floor gets +inf factors,
    so its pairs never set the minimum. Reference for the Pareto-pruned
    `oracle_grid`."""
    h1 = np.asarray(channel.h1)
    h2 = np.asarray(channel.h2)
    th = rate_thresholds(params)
    t = np.linspace(0.0, math.pi / 2.0, resolution, endpoint=False)
    phi = np.linspace(0.0, 2.0 * math.pi, resolution, endpoint=False)
    tt, pp = np.meshgrid(t, phi, indexing="ij")
    vecs = np.stack([np.cos(tt).ravel(),
                     (np.sin(tt) * np.exp(1j * pp)).ravel()], axis=1)
    vecs = np.vstack([vecs, np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)])
    g1, g2 = np.abs(vecs @ h1) ** 2, np.abs(vecs @ h2) ** 2
    hd1 = np.where(g1 > 1e-30, g1, np.nan)
    hd2 = np.where(g2 > 1e-30, g2, np.nan)
    a1 = (params.sigma2 * th.theta_1r / (params.eta * hd1)
          + params.sigma2 * (th.theta_r1 - 1.0) + 2.0 * params.p_c / params.eta)
    a2 = (params.sigma2 * th.theta_2r / (params.eta * hd2)
          + params.sigma2 * (th.theta_r2 - 1.0) + 2.0 * params.p_c / params.eta)
    inv1, inv2 = 1.0 / hd1, 1.0 / hd2
    for v in (inv1, inv2, a1, a2):
        v[np.isnan(v)] = np.inf
    n, block = len(a1), 256
    x, y = np.empty((block, block)), np.empty((block, block))
    best = np.inf
    for r in range(0, n, block):
        for c in range(0, n, block):
            xs = x[:min(block, n - r), :min(block, n - c)]
            ys = y[:xs.shape[0], :xs.shape[1]]
            np.multiply(inv1[r:r + block, None], a1[c:c + block], out=xs)
            np.multiply(inv2[r:r + block, None], a2[c:c + block], out=ys)
            best = min(best, np.maximum(xs, ys, out=xs).min())
    return float(best)


def _n2_params(snr_db, pc_dbm):
    return units_from_config(ScenarioConfig(n=2, snr_db=snr_db, pc_dbm=pc_dbm))


# (snr_db, pc_dbm) operating points of the parity cases
PARITY_POINTS = list(itertools.product((-10.0, 0.0, 20.0, 50.0), (-60.0, 10.0)))


def _parity_cases(resolution, count, first):
    """`count` seeded N=2 channels, cycling through PARITY_POINTS."""
    return [pytest.param(resolution, t, *PARITY_POINTS[t % len(PARITY_POINTS)],
                         id=f"r{resolution}-t{t}")
            for t in range(first, first + count)]


COL_H1 = np.array([0.3 - 1.1j, 0.8 + 0.2j])


def _chain_cloud(kind, seed):
    """A seeded point cloud (g1, g2) of the given kind for `_gain_chain`."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 401))
    if kind == "integer-ties":
        return rng.integers(0, 8, (2, n)).astype(float)
    if kind == "pivot-copies":
        # the point of largest g1 + g2 copied to up to five random indices
        g1, g2 = rng.random((2, n))
        k = np.argmax(g1 + g2)
        at = rng.integers(0, n, 5)
        g1[at], g2[at] = g1[k], g2[k]
        return g1, g2
    if kind == "g1-ties":
        return rng.integers(0, 6, n).astype(float), rng.random(n)
    if kind == "one-point":
        return np.full(n, 0.5), np.full(n, 2.0)
    # the oracle grid's gains toward a seeded channel's users: its t = 0
    # row holds exact copies of the pole (1, 0)
    ch = gen_channel(trial_seed(4321, seed), 2)
    vecs = harness._grid(32)
    return np.abs(vecs @ ch.h1) ** 2, np.abs(vecs @ ch.h2) ** 2


class TestGainChain:
    @pytest.mark.parametrize("kind", ("integer-ties", "pivot-copies",
                                      "g1-ties", "one-point", "grid-gains"))
    def test_chain_dominates_every_point(self, kind):
        for seed in range(40):
            g1, g2 = _chain_cloud(kind, seed)
            # and with the coordinates swapped
            for x, y in ((g1, g2), (g2, g1)):
                chain = harness._gain_chain(x, y)
                # distinct input points ...
                assert np.all((chain >= 0) & (chain < len(x)))
                assert len(np.unique(chain)) == len(chain)
                # ... along which x never rises and y strictly rises ...
                assert np.all(np.diff(x[chain]) <= 0)
                assert np.all(np.diff(y[chain]) > 0)
                # ... and each input point has a chain point >= in both
                weak = (x[chain] >= x[:, None]) & (y[chain] >= y[:, None])
                assert np.all(weak.any(axis=1))


def _front_values(x, y, idx=None) -> list:
    """The (x, y) values of the Pareto front (largest in both) of the
    points `idx`, all by default, one per value, by falling x: every point
    sorted, then one running-maximum pass."""
    idx = np.arange(len(x)) if idx is None else idx
    order = idx[np.lexsort((-y[idx], -x[idx]))]
    ys = y[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = ys[1:] > np.maximum.accumulate(ys)[:-1]
    return list(zip(x[order[keep]], y[order[keep]]))


class TestParetoFront:
    """`_gain_chain` against the Pareto front of the gains, and the oracle
    where no chain point is left or none can be formed."""

    def test_matches_brute_force_dominance(self):
        rng = np.random.default_rng(5)
        # integer coordinates give many exact ties
        x = rng.integers(0, 12, 300).astype(float)
        y = rng.integers(0, 12, 300).astype(float)
        chain = harness._gain_chain(x, y)
        for i in range(len(x)):
            weak = (x >= x[i]) & (y >= y[i])
            strict = weak & ((x > x[i]) | (y > y[i]))
            # each point has a chain point >= in both coordinates ...
            assert np.any(weak[chain])
            # ... and each point no point dominates is on the chain
            if not strict.any():
                assert np.any((x[chain] == x[i]) & (y[chain] == y[i]))

    def test_empty_and_all_nan(self):
        # gains all under the 1e-30 floor leave no chain point
        tiny = ChannelRealization(h1=np.array([1e-20, 0.0], dtype=complex),
                                  h2=np.array([0.0, 1e-20], dtype=complex),
                                  seed=0)
        with pytest.raises(DegenerateChannelError, match="no non-degenerate"):
            harness.oracle_grid(tiny, _n2_params(20.0, 10.0))
        nan = np.full(2, np.nan, dtype=complex)
        with pytest.raises(DegenerateChannelError, match="not finite"):
            harness.oracle_grid(ChannelRealization(h1=nan, h2=nan, seed=0),
                                _n2_params(20.0, 10.0))

    @pytest.mark.parametrize("kind", ("integer-ties", "pivot-copies",
                                      "g1-ties", "one-point", "grid-gains"))
    def test_pruning_matches_unpruned_sort(self, kind):
        # the pivot prune loses no front value
        for seed in range(40):
            g1, g2 = _chain_cloud(kind, seed)
            for x, y in ((g1, g2), (g2, g1)):
                chain = harness._gain_chain(x, y)
                assert _front_values(x, y, chain) == _front_values(x, y)


class TestOracleGrid:
    @pytest.mark.parametrize("resolution,t,snr_db,pc_dbm",
                             _parity_cases(32, 104, 0)
                             + _parity_cases(64, 8, 104)
                             + _parity_cases(128, 1, 127))
    def test_matches_full_grid_bitwise(self, resolution, t, snr_db, pc_dbm):
        ch = gen_channel(trial_seed(4321, t), 2)
        par = _n2_params(snr_db, pc_dbm)
        assert (harness.oracle_grid(ch, par, resolution=resolution)
                == _oracle_reference(ch, par, resolution))

    @pytest.mark.parametrize("h1,h2", [
        pytest.param([1.0, 0.0], [0.0, 1.0], id="orthogonal"),
        pytest.param(COL_H1, 2j * COL_H1, id="collinear"),
        # the grid pole (0, 1) has zero gain toward h1: a NaN row and column
        pytest.param([1.0, 0.0], [0.7 - 0.2j, -0.5 + 0.9j], id="h1-pole"),
    ])
    @pytest.mark.parametrize("snr_db,pc_dbm", [(0.0, -60.0), (20.0, 10.0)])
    def test_matches_full_grid_bitwise_special(self, h1, h2, snr_db, pc_dbm):
        ch = ChannelRealization(h1=np.array(h1, dtype=complex),
                                h2=np.array(h2, dtype=complex), seed=0)
        par = _n2_params(snr_db, pc_dbm)
        for resolution in (32, 64):
            assert (harness.oracle_grid(ch, par, resolution=resolution)
                    == _oracle_reference(ch, par, resolution))

    @pytest.mark.parametrize("h1,h2", [
        pytest.param([np.nan, 1.0], [0.3, 0.4j], id="nan-entry"),
        pytest.param([np.inf, 1.0], [0.3, 0.4j], id="inf-entry"),
        pytest.param(1e160 * gen_channel(5, 2).h1, 1e160 * gen_channel(5, 2).h2,
                     id="gain-overflow"),
    ])
    def test_non_finite_gain_is_degenerate(self, h1, h2):
        # a numpy RuntimeWarning is an error in the suite
        ch = ChannelRealization(h1=np.array(h1, dtype=complex),
                                h2=np.array(h2, dtype=complex), seed=0)
        with pytest.raises(DegenerateChannelError):
            harness.oracle_grid(ch, _n2_params(20.0, 10.0))

    def test_refinement_to_256_in_bounded_memory(self):
        cfg = with_overrides(fig2_preset(), n=2, axis="none", axis_values=())
        par = units_from_config(cfg)
        ch = gen_channel(trial_seed(cfg.master_seed, 0), 2)
        values = [harness.oracle_grid(ch, par, resolution=r)
                  for r in (32, 64, 128)]
        tracemalloc.start()
        try:
            values.append(harness.oracle_grid(ch, par, resolution=256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        # the grid and its gains, about 7 MB: no front-by-front product (a
        # 512-row chunk of it took the peak to 13 MB)
        assert peak < 10e6

    def test_grid_is_read_only(self):
        vecs = harness._grid(64)
        assert vecs.shape == (64 * 64 + 2, 2)
        with pytest.raises(ValueError):
            vecs[0, 0] = 2.0
        assert harness._grid(64) is vecs

    def test_interleaved_resolutions_match_fresh_grids(self):
        ch = gen_channel(trial_seed(4321, 3), 2)
        par = _n2_params(20.0, 10.0)
        resolutions = (64, 256, 32, 64)
        cached = [harness.oracle_grid(ch, par, resolution=r)
                  for r in resolutions]
        fresh = []
        for r in resolutions:
            harness._grid.cache_clear()
            fresh.append(harness.oracle_grid(ch, par, resolution=r))
        assert cached == fresh
        assert harness._grid.cache_info().maxsize == 2

    def test_matches_full_grid_at_unequal_targets(self):
        # the parity cases above all have equal rate targets
        for t, (r1, r2) in itertools.product(range(3), ((1.0, 3.0), (3.0, 1.0))):
            ch = gen_channel(trial_seed(4321, t), 2)
            for snr_db, pc_dbm in ((0.0, -60.0), (50.0, 20.0)):
                par = units_from_config(ScenarioConfig(
                    n=2, snr_db=snr_db, pc_dbm=pc_dbm, r1_bar=r1, r2_bar=r2))
                assert (harness.oracle_grid(ch, par, resolution=32)
                        == _oracle_reference(ch, par, 32))

    @pytest.mark.parametrize("size", (1, 2, 3, 50, 400))
    def test_crossing_search_matches_full_product(self, size):
        rng = np.random.default_rng(size)
        for trial in range(20):
            if trial % 2:
                # gains along a front, as `oracle_grid` forms them
                hd1 = np.sort(rng.exponential(size=size))[::-1]
                hd2 = np.sort(rng.exponential(size=size))
                k, b = 10.0 ** rng.uniform(-3, 3, 2), 10.0 ** rng.uniform(-3, 3, 2)
                inv1, inv2 = 1.0 / hd1, 1.0 / hd2
                a1, a2 = k[0] / hd1 + b[0], k[1] / hd2 + b[1]
            else:
                # small integers: exact products, with repeats and equal
                # products at the crossing
                inv1, a1 = (np.sort(rng.integers(1, 5, (2, size)), axis=1)
                            .astype(float))
                inv2, a2 = (np.sort(rng.integers(1, 5, (2, size)), axis=1)
                            [:, ::-1].astype(float))
            full = np.min(np.maximum(np.outer(inv1, a1), np.outer(inv2, a2)))
            assert harness._min_max_product(inv1, a1, inv2, a2) == full

    def test_orthogonal_symmetric(self):
        par = SystemParams(N=2, eta=1.0, p_c=0.0, sigma2=1.0,
                           r1_bar=0.5, r2_bar=0.5)
        ch = ChannelRealization(h1=np.array([1.0 + 0j, 0.0]),
                                h2=np.array([0.0, 1.0 + 0j]), seed=0)
        got = harness.oracle_grid(ch, par, resolution=64)
        assert got == pytest.approx(10.0, rel=0.02)
        assert got >= 10.0 - 1e-9  # grid minimum cannot beat the optimum

    def test_single_user_degenerate(self):
        par = SystemParams(N=2, eta=1.0, p_c=0.0, sigma2=1.0,
                           r1_bar=0.5, r2_bar=0.5)
        h1 = np.array([1.0 + 1j, 0.5 - 0.5j])
        ch = ChannelRealization(h1=h1, h2=np.zeros(2, dtype=complex), seed=0)
        gain = float(np.linalg.norm(h1) ** 2)
        expected = (2.0 / gain + 1.0) / gain
        assert harness.oracle_grid(ch, par) == pytest.approx(expected, rel=1e-12)

    def test_resolution_refinement_non_increasing(self):
        par = SystemParams(N=2, eta=1.0, p_c=10.0, sigma2=0.01,
                           r1_bar=2.0, r2_bar=2.0)
        ch = gen_channel(123, 2)
        coarse = harness.oracle_grid(ch, par, resolution=32)
        fine = harness.oracle_grid(ch, par, resolution=64)
        assert fine <= coarse + 1e-12

    def test_requires_n2(self):
        par = SystemParams(N=3, eta=1.0, p_c=0.0, sigma2=1.0,
                           r1_bar=0.5, r2_bar=0.5)
        with pytest.raises(DimensionError):
            harness.oracle_grid(gen_channel(1, 3), par)
        with pytest.raises(ConfigError):
            harness.oracle_grid(gen_channel(1, 2), par, resolution=16)
        with pytest.raises(ConfigError):
            harness.oracle_grid(gen_channel(1, 2), par, resolution=2049)


class TestLatticeDemo:
    def test_exhaustive_noiseless(self):
        out = io.StringIO()
        mismatches = harness.lattice_demo(exhaustive=True, seed=5, out=out)
        assert mismatches == 0
        assert "32 pairs, 0 mismatches" in out.getvalue()

    def test_exhaustive_pair_bound(self, monkeypatch):
        # 512 x 256 pairs: each codebook is within `lattice.MAX_CODEBOOK`,
        # their product is refused before anything is printed
        out = io.StringIO()
        with pytest.raises(ConfigError):
            harness.lattice_demo(scales=(1.0, 256.0, 512.0), exhaustive=True,
                                 out=out)
        assert out.getvalue() == ""
        # the bound itself is allowed: 8 x 4 pairs at the default scales
        monkeypatch.setattr(lattice, "MAX_CODEBOOK", 31)
        with pytest.raises(ConfigError):
            harness.lattice_demo(exhaustive=True, out=out)
        monkeypatch.setattr(lattice, "MAX_CODEBOOK", 32)
        assert harness.lattice_demo(exhaustive=True, out=out) == 0

    def test_random_draw(self):
        out = io.StringIO()
        mismatches = harness.lattice_demo(dim=6, seed=9, out=out)
        assert mismatches == 0
        assert "match=True" in out.getvalue()

    def test_broken_nesting(self):
        with pytest.raises(NestingError):
            harness.lattice_demo(scales=(1.0, 3.0, 7.0), out=io.StringIO())


class TestCli:
    def test_solve(self, capsys):
        rc = cli.main(["solve", "--n", "2", "--trial", "0", "--scheme", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "P_r =" in out and "iterations" not in out

    @pytest.mark.parametrize("equal_gain", ("phased", "unphased"))
    @pytest.mark.parametrize("scheme", (1, 2, 3, 4))
    def test_solve_matches_sweep_record(self, tmp_path, capsys, scheme,
                                        equal_gain):
        # `solve` runs the scalar scheme path and `sweep` the batch; the
        # same (seed, trial) must give the same P_r
        trial = 3
        rc = cli.main(["solve", "--trial", str(trial), "--scheme", str(scheme),
                       "--equal-gain", equal_gain])
        assert rc == 0
        p_r = float(capsys.readouterr().out.split("P_r = ")[1].split()[0])
        rc = cli.main(["sweep", "--axis", "none", "--trials", str(trial + 1),
                       "--schemes", str(scheme), "--equal-gain", equal_gain,
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "records.csv").read_text().splitlines()
        header = rows[0].split(",")
        row = dict(zip(header, rows[1 + trial].split(",")))
        assert (row["scheme"], row["trial"]) == (str(scheme), str(trial))
        # both print 9 significant digits: P_r to 5e-9 relative and p_r_db
        # to half a unit in its last place, 1.15e-8 relative in power
        # between 10 and 100 dB
        db = row["p_r_db"]
        half_unit = 0.5 * 10.0 ** -len(db.partition(".")[2])
        tol = 1e-8 + 5e-9 + math.log(10.0) / 10.0 * half_unit
        assert abs(p_r / 10.0 ** (float(db) / 10.0) - 1.0) <= tol

    def test_sweep_writes_files(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--trials", "2", "--schemes", "4",
                       "--axis", "none", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "records.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_preset_flag_accepted(self, tmp_path):
        # presets must exist; run them at a desk-scale trial count
        rc = cli.main(["sweep", "--preset", "fig3", "--trials", "1",
                       "--schemes", "4", "--out-dir", str(tmp_path / "f3")])
        assert rc == 0
        lines = (tmp_path / "f3" / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 5  # header + one row per axis point
        rc = cli.main(["sweep", "--preset", "fig2", "--trials", "1",
                       "--schemes", "4", "--out-dir", str(tmp_path / "f2")])
        assert rc == 0
        lines = (tmp_path / "f2" / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 7

    def test_failure_budget_exit_code(self, tmp_path, monkeypatch):
        real = harness.gen_channels

        def dead_user(master_seed, trials, n):
            # a zero channel toward user 1 on every even seed
            h, seeds = real(master_seed, trials, n)
            h[seeds % 2 == 0, 0] = 0.0
            return h, seeds

        monkeypatch.setattr(harness, "gen_channels", dead_user)
        rc = cli.main(["sweep", "--trials", "6", "--schemes", "4",
                       "--axis", "none", "--out-dir", str(tmp_path)])
        assert rc == 2
        body = (tmp_path / "records.csv").read_text()
        assert "failed:DegenerateChannelError" in body

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("n=2\ntrials=1\nschemes=4\naxis=none\n")
        rc = cli.main(["sweep", "--config", str(cfg_file), "--trials", "2",
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        body = (tmp_path / "records.csv").read_text().splitlines()
        assert len(body) == 1 + 2  # override wins over config file

    def test_usage_errors(self, capsys):
        assert cli.main(["sweep", "--schemes", ""]) == 1
        assert cli.main(["bogus-command"]) == 1
        assert cli.main(["sweep", "--preset", "fig2", "--config", "x.cfg"]) == 1
        assert cli.main(["lattice-demo", "--scales", "1,2"]) == 1
        capsys.readouterr()
        out_of_range = [["--eta", "2"], ["--eta", "0"], ["--r1-bar", "-1"],
                        ["--seed", "-1"]]
        for argv in ([["oracle-check", "--resolution", "16"],
                      # a grid of 4.2 M vectors is the most allowed; this
                      # one is refused before anything is allocated
                      ["oracle-check", "--resolution", "2049"],
                      # indices of 8e300 and 2.5e299 do not fit an int64
                      ["lattice-demo", "--scales", "1e-300,4,8"],
                      ["lattice-demo", "--scales", "1,4,1e300"],
                      # an index of 1e15 fits an int64, but its codebook
                      # exceeds `lattice.MAX_CODEBOOK`
                      ["lattice-demo", "--scales", "1,4,1e15"],
                      # codebooks of 512 and 256 codewords, but 131 072
                      # round trips
                      ["lattice-demo", "--exhaustive", "--scales",
                       "1,256,512"],
                      ["oracle-check", "--n", "4"],
                      ["oracle-check", "--channels", "0"],
                      # the alternation's stopping rule, oracle-check's own
                      ["oracle-check", "--max-iter", "0"],
                      ["oracle-check", "--rel-tol", "-1"],
                      ["oracle-check", "--rel-tol", "nan"],
                      ["oracle-check", "--rel-tol", "inf"],
                      ["solve", "--trial", "-1"],
                      ["lattice-demo", "--seed", "-1"],
                      ["lattice-demo", "--dim", "0"],
                      # the demo draws dim codewords per user; refused before
                      # any per-axis array is allocated
                      ["lattice-demo", "--dim", "100000000"],
                      ["lattice-demo", "--sigma2", "-1"],
                      ["lattice-demo", "--sigma2", "inf"],
                      ["lattice-demo", "--sigma2", "nan"],
                      ["lattice-demo", "--scales", "a,4,8"],
                      ["lattice-demo", "--scales", "1,,8"],
                      ["sweep", "--schemes", "1,1"],
                      ["sweep", "--schemes", "4,2,4"],
                      # trial indices must fit a uint32 word
                      ["sweep", "--trials", "4294967297"],
                      ["sweep", "--axis", "snr", "--axis-values", "10,10"],
                      ["sweep", "--axis", "pc", "--axis-values", "0,-0"],
                      ["sweep", "--axis", "snr", "--axis-values", "nan"],
                      ["sweep", "--axis", "snr", "--axis-values", "10,inf"],
                      ["sweep", "--axis", "pc", "--axis-values", "1e400"],
                      # beyond these powers `power_from_db` overflows or
                      # underflows to 0
                      ["solve", "--snr-db=-4000"],
                      ["solve", "--pc-dbm", "4000"],
                      ["solve", "--snr-db", "4000"],
                      ["sweep", "--axis", "snr", "--axis-values", "0,4000"],
                      ["sweep", "--axis", "pc", "--axis-values", "0,4000"],
                      # beyond these, 2^(2 r), sigma2 theta_{i,r} or
                      # 2 P_c / eta overflows
                      ["solve", "--r1-bar", "600"],
                      ["sweep", "--r1-bar", "600"],
                      ["solve", "--snr-db=-3080"],
                      ["solve", "--pc-dbm", "3080"],
                      ["sweep", "--axis", "snr",
                       "--axis-values=-3020,-3040,-3080"],
                      ["sweep", "--axis", "pc", "--axis-values", "0,3080"]]
                     + [[cmd] + flags for cmd in ("sweep", "solve")
                        for flags in out_of_range]):
            assert cli.main(argv) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "diff range" not in captured.out

    @pytest.mark.parametrize("key,value", [("max_iter", 0),
                                           ("rel_tol", -1e-3)])
    def test_alternation_flag_out_of_range(self, key, value, capsys):
        # the alternation's stopping rule is checked before any channel is
        # drawn, by the rules the configuration keys once had
        flag = "--" + key.replace("_", "-")
        argv = ["oracle-check", "--channels", "1", f"{flag}={value}"]
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} ")
        assert captured.out == ""

    def test_alternation_flags_only_on_oracle_check(self, tmp_path, capsys):
        # only oracle-check runs the alternation that these flags steer
        assert cli.main(["sweep", "--rel-tol", "1e-3",
                         "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert cli.main(["solve", "--max-iter", "5"]) == cli.EXIT_USAGE
        assert not (tmp_path / "records.csv").exists()
        assert cli.main(["oracle-check", "--channels", "1", "--resolution",
                         "32", "--rel-tol", "1e-3", "--max-iter", "5"]) == 0
        assert "diff range" in capsys.readouterr().out
        # they are no configuration keys, for any command
        for key in ("rel_tol=1e-3", "max_iter=5"):
            cfg = tmp_path / "alt.cfg"
            cfg.write_text(key + "\n")
            for cmd in ("oracle-check", "sweep", "solve"):
                assert cli.main([cmd, "--config", str(cfg)]) == cli.EXIT_USAGE
                assert "unknown configuration key" in capsys.readouterr().err

    def test_sweep_builds_no_trial_record(self, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the sweep path built a TrialRecord")

        monkeypatch.setattr(harness, "TrialRecord", forbidden)
        rc = cli.main(["sweep", "--preset", "fig3", "--trials", "3",
                       "--out-dir", str(tmp_path / "ok")])
        assert rc == cli.EXIT_OK
        rc = cli.main(["sweep", "--snr-db", "200", "--trials", "3",
                       "--axis", "none", "--out-dir", str(tmp_path / "failed")])
        assert rc == cli.EXIT_FAILURES

    def test_extreme_snr_fails_records(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--snr-db", "200", "--trials", "3",
                       "--schemes", "1", "--axis", "none",
                       "--out-dir", str(tmp_path)])
        assert rc == cli.EXIT_FAILURES
        rows = (tmp_path / "records.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(r.endswith(",nan,nan,nan,nan,failed:InfeasibleError")
                   for r in rows)
        capsys.readouterr()
        assert cli.main(["solve", "--snr-db", "400"]) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err.startswith("error: rate targets missed")
        assert captured.out == ""

    def test_parser_reused_across_calls(self, tmp_path, capsys):
        runs = [["sweep", "--preset", "fig3", "--trials", "2",
                 "--schemes", "3,4", "--out-dir", "{}/a"],
                ["sweep", "--trials", "2", "--schemes", "4", "--axis", "none",
                 "--out-dir", "{}/b"],
                ["sweep", "--schemes", ""],
                ["solve", "--n", "2", "--scheme", "4"]]

        def outputs(tag, fresh):
            root = str(tmp_path / tag)
            got = []
            for argv in runs:
                if fresh:
                    cli._make_parser.cache_clear()
                rc = cli.main([a.format(root) for a in argv])
                captured = capsys.readouterr()
                got.append((rc, captured.out.replace(root, ""), captured.err))
            files = sorted((str(f.relative_to(root)), f.read_bytes())
                           for f in (tmp_path / tag).rglob("*.csv"))
            return got, files

        fresh = outputs("fresh", True)
        reused = outputs("reused", False)
        assert cli._make_parser() is cli._make_parser()
        assert reused == fresh
        assert [rc for rc, _, _ in fresh[0]] == [0, 0, 1, 0]
        assert len(fresh[1]) == 4

    def test_io_error(self, tmp_path):
        rc = cli.main(["sweep", "--trials", "1", "--schemes", "4",
                       "--axis", "none", "--config",
                       str(tmp_path / "missing.cfg")])
        assert rc == 3

    def test_lattice_demo(self, capsys):
        rc = cli.main(["lattice-demo", "--dim", "3", "--seed", "2"])
        assert rc == 0
        assert "match=True" in capsys.readouterr().out

    def test_oracle_check(self, capsys):
        rc = cli.main(["oracle-check", "--channels", "3", "--trials", "2",
                       "--snr-db", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "diff range" in out
        line = next(ln for ln in out.splitlines()
                    if ln.startswith("scheme-1 diff range"))
        hi = float(line.split("[")[1].split(",")[1].split("]")[0])
        assert hi <= 1e-9
