import numpy as np
import pytest

from cofrelay import design, optimizer, sdp
from cofrelay.scenario import (ChannelRealization, fig2_preset, gen_channel,
                               trial_seed, units_from_config, with_overrides)

SCALAR = design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                             r1_bar=0.5, r2_bar=0.5)
SCALAR_CH = ChannelRealization(h1=np.array([1.0 + 0j]),
                               h2=np.array([1.0 + 0j]), seed=0)
ORTH = design.SystemParams(N=2, eta=1.0, p_c=0.0, sigma2=1.0,
                           r1_bar=0.5, r2_bar=0.5)
ORTH_CH = ChannelRealization(h1=np.array([1.0 + 0j, 0.0]),
                             h2=np.array([0.0, 1.0 + 0j]), seed=0)
FIG2 = design.SystemParams(N=4, eta=1.0, p_c=10.0, sigma2=0.01,
                           r1_bar=2.0, r2_bar=2.0)


def rand_channel(t, n=4):
    return gen_channel(trial_seed(4321, t), n)


class TestAlternate:
    def test_scalar_closed_form(self):
        trace = optimizer.alternate(SCALAR_CH, SCALAR, multi_start=False)
        assert trace.converged
        assert trace.n_iterations == 1
        assert trace.final.p_r == pytest.approx(3.0, rel=1e-6)

    def test_orthogonal_symmetric(self):
        trace = optimizer.alternate(ORTH_CH, ORTH)
        assert trace.final.p_r == pytest.approx(10.0, rel=1e-6)

    def test_infinite_tolerance_one_iteration(self):
        trace = optimizer.alternate(rand_channel(0), FIG2, rel_tol=np.inf,
                                    multi_start=False)
        assert trace.n_iterations == 1
        assert trace.converged
        assert trace.final.p_r > 0

    def test_monotone_and_converged(self):
        for t in range(15):
            trace = optimizer.alternate(rand_channel(t), FIG2)
            assert trace.converged
            assert trace.n_iterations <= 50
            seq = trace.power_sequence()
            for a, b in zip(seq, seq[1:]):
                assert b <= a * (1 + 1e-6)

    def test_final_design_feasible(self):
        for t in range(10):
            ch = rand_channel(t)
            trace = optimizer.alternate(ch, FIG2)
            d = trace.final
            assert all(0.0 <= b <= 1.0 for b in d.beta)
            assert all(p >= 0.0 for p in d.p_uplink)
            rep = design.verify_rates(d, ch, FIG2)
            assert all(m >= -1e-6 for m in rep.margins)

    def test_multi_start_no_worse(self):
        for t in range(8):
            ch = rand_channel(t)
            single = optimizer.alternate(ch, FIG2, multi_start=False)
            multi = optimizer.alternate(ch, FIG2)
            assert multi.final.p_r <= single.final.p_r * (1 + 1e-9)


class TestEqualGain:
    def test_unit_magnitudes(self):
        ch = rand_channel(1)
        v = optimizer.equal_gain_vector(ch, phased=True)
        assert np.allclose(np.abs(v), 0.5)  # 1/sqrt(4)
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_phase_matches_sum_channel(self):
        ch = rand_channel(2)
        v = optimizer.equal_gain_vector(ch, phased=True)
        s = ch.h1 + ch.h2
        combined = v @ s
        assert combined.imag == pytest.approx(0.0, abs=1e-12)
        assert combined.real == pytest.approx(np.sum(np.abs(s)) / 2.0)

    def test_unphased(self):
        ch = rand_channel(3)
        v = optimizer.equal_gain_vector(ch, phased=False)
        assert np.allclose(v, 0.5)


class TestSchemes:
    def test_scheme4_scalar(self):
        res = optimizer.run_scheme(4, SCALAR_CH, SCALAR)
        assert res.design.p_r == pytest.approx(3.0)
        assert res.iterations == 0

    def test_nesting_per_channel(self):
        for t in range(12):
            ch = rand_channel(t)
            p = {s: optimizer.run_scheme(s, ch, FIG2).design.p_r
                 for s in (1, 2, 3, 4)}
            slack = 1 + 1e-6
            assert p[1] <= p[2] * slack
            assert p[1] <= p[3] * slack
            assert p[2] <= p[4] * slack
            assert p[3] <= p[4] * slack

    def test_nesting_unphased_variant(self):
        for t in range(6):
            ch = rand_channel(t)
            p = {s: optimizer.run_scheme(s, ch, FIG2, equal_gain_phased=False).design.p_r
                 for s in (1, 2, 3, 4)}
            slack = 1 + 1e-6
            assert p[1] <= min(p[2], p[3]) * slack
            assert max(p[2], p[3]) <= p[4] * slack

    def test_scheme2_uses_egc_receiver(self):
        ch = rand_channel(4)
        res = optimizer.run_scheme(2, ch, FIG2)
        assert np.allclose(np.abs(res.design.g), 0.5)

    def test_scheme3_uses_equal_gain_beamformer(self):
        ch = rand_channel(5)
        res = optimizer.run_scheme(3, ch, FIG2)
        assert np.allclose(np.abs(res.design.f), 0.5)

    def test_no_sdp_on_sweep_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SDP solver called on the sweep path")

        monkeypatch.setattr(sdp, "solve_sdp", refuse)
        cfg = fig2_preset(master_seed=1234)
        for snr_db in (0.0, 20.0):
            par = units_from_config(with_overrides(
                cfg, snr_db=snr_db, axis="none", axis_values=()))
            for t in range(3):
                ch = gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for scheme in (1, 2, 3, 4):
                    res = optimizer.run_scheme(scheme, ch, par)
                    assert res.design.p_r > 0

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            optimizer.run_scheme(7, SCALAR_CH, SCALAR)
