import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cofrelay import cli, harness
from cofrelay.design import SystemParams, rate_thresholds
from cofrelay.errors import ConfigError, DimensionError, NestingError
from cofrelay.scenario import (ChannelRealization, ScenarioConfig, fig2_preset,
                               gen_channel, trial_seed, units_from_config,
                               with_overrides)

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
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == ",".join(harness.SUMMARY_COLUMNS)
        assert len(records) == 2
        assert summaries[0].trials + summaries[0].failures == cfg.trials

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
        shuffled = list(records)
        rng = np.random.default_rng(0)
        rng.shuffle(shuffled)
        again = harness.summarize(shuffled)
        assert again == summaries

    def test_axis_points(self):
        cfg = small_cfg(axis="snr", axis_values=(0.0, 10.0))
        assert harness.axis_points(cfg) == [(0.0, 10.0), (10.0, 10.0)]
        cfg = small_cfg(axis="pc", axis_values=(5.0,), snr_db=15.0)
        assert harness.axis_points(cfg) == [(15.0, 5.0)]


def _oracle_reference(channel, params, resolution):
    """Brute-force N=2 grid oracle: the max of the two user terms over the
    full grid-by-grid product, 512 combiner columns at a time, NaN (gain
    floor) entries skipped. Reference for the Pareto-pruned `oracle_grid`."""
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
    best = np.inf
    chunk = 512
    for i in range(0, len(a1), chunk):
        m = np.maximum(np.outer(1.0 / hd1, a1[i:i + chunk]),
                       np.outer(1.0 / hd2, a2[i:i + chunk]))
        if np.all(np.isnan(m)):
            continue
        v = np.nanmin(m)
        if v < best:
            best = float(v)
    return best


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


class TestParetoFront:
    def test_matches_brute_force_dominance(self):
        rng = np.random.default_rng(5)
        # integer coordinates give many exact ties; NaN points never survive
        x = rng.integers(0, 12, 300).astype(float)
        y = rng.integers(0, 12, 300).astype(float)
        x[::17] = np.nan
        y[::23] = np.nan
        front = harness.pareto_front(x, y)
        ok = ~(np.isnan(x) | np.isnan(y))
        assert np.all(ok[front])
        # ascending, one point per x: equal points appear once
        assert np.all(np.diff(x[front]) > 0)
        for i in np.flatnonzero(ok):
            weak = ok & (x <= x[i]) & (y <= y[i])
            strict = weak & ((x < x[i]) | (y < y[i]))
            # each point has a front point <= in both coordinates ...
            assert np.any(weak[front])
            # ... and no front point has a point <= in both and < in one
            if i in front:
                assert not strict.any()

    def test_empty_and_all_nan(self):
        assert len(harness.pareto_front(np.array([]), np.array([]))) == 0
        nan = np.full(3, np.nan)
        assert len(harness.pareto_front(nan, np.ones(3))) == 0


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
        # one 512-column chunk of the full 65538-point product is 268 MB
        assert peak < 64e6

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


class TestLatticeDemo:
    def test_exhaustive_noiseless(self):
        out = io.StringIO()
        mismatches = harness.lattice_demo(exhaustive=True, seed=5, out=out)
        assert mismatches == 0
        assert "32 pairs, 0 mismatches" in out.getvalue()

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
        assert "P_r =" in capsys.readouterr().out

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
        from cofrelay import harness as hm
        from cofrelay.errors import SolverFailureError
        real = hm.run_scheme

        def flaky(scheme, ch, params, **kw):
            if ch.seed % 2 == 0:
                raise SolverFailureError("injected")
            return real(scheme, ch, params, **kw)

        monkeypatch.setattr(hm, "run_scheme", flaky)
        rc = cli.main(["sweep", "--trials", "6", "--schemes", "4",
                       "--axis", "none", "--out-dir", str(tmp_path)])
        assert rc == 2
        body = (tmp_path / "records.csv").read_text()
        assert "failed:SolverFailureError" in body

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
        for argv in (["oracle-check", "--resolution", "16"],
                     ["oracle-check", "--n", "4"],
                     ["oracle-check", "--channels", "0"]):
            assert cli.main(argv) == cli.EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert "diff range" not in captured.out

    def test_alternation_flags_only_on_oracle_check(self, tmp_path, capsys):
        # only oracle-check runs the alternation that these flags steer
        assert cli.main(["sweep", "--rel-tol", "1e-3",
                         "--out-dir", str(tmp_path)]) == cli.EXIT_USAGE
        assert cli.main(["solve", "--max-iter", "5"]) == cli.EXIT_USAGE
        assert not (tmp_path / "records.csv").exists()
        assert cli.main(["oracle-check", "--channels", "1", "--resolution",
                         "32", "--rel-tol", "1e-3", "--max-iter", "5"]) == 0
        assert "diff range" in capsys.readouterr().out

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
