import dataclasses
import warnings

import numpy as np
import pytest

from frontier_reference import joint_reference
from cofrelay import design, harness, optimizer, sdp
from cofrelay.errors import DegenerateChannelError
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


FIG2_SNRS = tuple(float(v) for v in range(0, 31, 5))


def rand_channel(t, n=4):
    return gen_channel(trial_seed(4321, t), n)


def fig2_params(snr_db, n):
    return units_from_config(with_overrides(fig2_preset(), n=n, snr_db=snr_db,
                                            axis="none", axis_values=()))


def joint_power(ch, par):
    """Scheme 1's relay power, after checking that its design meets every
    rate target with betas in [0, 1], takes no iterations, and is no worse
    than the paper's alternation."""
    res = optimizer.run_scheme(1, ch, par)
    d = res.design
    assert res.iterations == 0
    assert all(0.0 <= b <= 1.0 for b in d.beta)
    assert min(design.verify_rates(d, ch, par).margins) >= -1e-9
    assert d.p_r <= optimizer.alternate(ch, par).final.p_r * (1 + 1e-12)
    return d.p_r


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

    @pytest.mark.parametrize("user", (1, 2))
    def test_zero_channel_raises_without_warning(self, user):
        h = rand_channel(0)
        zero = np.zeros(4, dtype=complex)
        ch = ChannelRealization(h1=zero if user == 1 else h.h1,
                                h2=zero if user == 2 else h.h2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError):
                optimizer.alternate(ch, FIG2)


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

    @pytest.mark.parametrize("scheme", (1, 2, 3, 4))
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_power_homogeneous(self, scheme, n):
        # every constraint right-hand side is linear in (sigma2, P_c), so
        # scaling both by c scales the minimum relay power by c
        for snr_db in (0.0, 20.0):
            par = fig2_params(snr_db, n)
            for t in range(5):
                ch = rand_channel(200 + t, n=n)
                p = optimizer.run_scheme(scheme, ch, par).design.p_r
                for c in (1e-3, 2.0, 1e3):
                    scaled = dataclasses.replace(
                        par, p_c=c * par.p_c, sigma2=c * par.sigma2,
                        sigma2_a=c * par.sigma2_a, sigma2_p=c * par.sigma2_p)
                    got = optimizer.run_scheme(scheme, ch, scaled).design.p_r
                    assert got == pytest.approx(c * p, rel=1e-12)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            optimizer.run_scheme(7, SCALAR_CH, SCALAR)


class TestJointDesign:
    """Scheme 1 is the global optimum of the joint design."""

    @pytest.mark.parametrize("snr_db", FIG2_SNRS)
    def test_n2_not_above_grid_oracle(self, snr_db):
        par = fig2_params(snr_db, 2)
        for t in range(20):
            ch = rand_channel(t, n=2)
            oracle = harness.oracle_grid(ch, par, resolution=256)
            assert joint_power(ch, par) <= oracle * (1 + 1e-12)

    @pytest.mark.parametrize("n", (2, 3, 4, 8))
    def test_matches_frontier_reference(self, n):
        for k, snr_db in enumerate(FIG2_SNRS):
            par = fig2_params(snr_db, n)
            ch = rand_channel(100 + 10 * n + k, n=n)
            assert joint_power(ch, par) == pytest.approx(
                joint_reference(ch, par), rel=1e-9)

    @pytest.mark.parametrize("case", ["collinear", "identical", "orthogonal",
                                      "n1", "h1_pole"])
    def test_edge_channels(self, case):
        par = fig2_params(0.0, 4)
        if case in ("collinear", "identical"):
            h1 = rand_channel(4).h1
            h2 = (0.3 - 0.7j) * h1 if case == "collinear" else h1.copy()
            ch = ChannelRealization(h1=h1, h2=h2, seed=0)
            # every unit vector sees gains in the ratio |h1|^2 : |h2|^2,
            # so the matched filter serves both users best
            g = np.conj(h1) / np.linalg.norm(h1)
            assert joint_power(ch, par) == pytest.approx(
                design.required_power(g, g, ch, par), rel=1e-12)
        elif case == "n1":
            par = fig2_params(0.0, 1)
            ch = rand_channel(6, n=1)
            one = np.ones(1, dtype=complex)
            assert joint_power(ch, par) == pytest.approx(
                design.required_power(one, one, ch, par), rel=1e-12)
        else:
            par = ORTH if case == "orthogonal" else fig2_params(0.0, 2)
            ch = ORTH_CH if case == "orthogonal" else ChannelRealization(
                h1=np.array([1.0 + 0j, 0.0]), h2=rand_channel(8, n=2).h2, seed=0)
            p = joint_power(ch, par)
            assert p <= harness.oracle_grid(ch, par, resolution=256) * (1 + 1e-12)
            if case == "orthogonal":
                assert p == pytest.approx(10.0, rel=1e-12)
            else:
                assert p == pytest.approx(joint_reference(ch, par), rel=1e-9)

    def test_zero_channel_raises_without_warning(self):
        ch = ChannelRealization(h1=np.zeros(4, dtype=complex),
                                h2=rand_channel(0).h2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError):
                optimizer.run_scheme(1, ch, FIG2)
