import dataclasses
import math
import warnings

import numpy as np
import pytest

from frontier_reference import joint_reference
from cofrelay import batch, design, harness, optimizer, sdp
from cofrelay.errors import DegenerateChannelError
from cofrelay.scenario import (ChannelRealization, fig2_preset, fig3_preset,
                               gen_channel, trial_seed, units_from_config,
                               with_overrides)

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
    rate target with betas in [0, 1] and is no worse than the paper's
    alternation."""
    d = optimizer.run_scheme(1, ch, par)
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
        d = optimizer.run_scheme(4, SCALAR_CH, SCALAR)
        assert d.p_r == pytest.approx(3.0)

    def test_nesting_per_channel(self):
        for t in range(12):
            ch = rand_channel(t)
            p = {s: optimizer.run_scheme(s, ch, FIG2).p_r
                 for s in (1, 2, 3, 4)}
            slack = 1 + 1e-6
            assert p[1] <= p[2] * slack
            assert p[1] <= p[3] * slack
            assert p[2] <= p[4] * slack
            assert p[3] <= p[4] * slack

    def test_nesting_unphased_variant(self):
        for t in range(6):
            ch = rand_channel(t)
            p = {s: optimizer.run_scheme(s, ch, FIG2, equal_gain_phased=False).p_r
                 for s in (1, 2, 3, 4)}
            slack = 1 + 1e-6
            assert p[1] <= min(p[2], p[3]) * slack
            assert max(p[2], p[3]) <= p[4] * slack

    def test_scheme2_uses_egc_receiver(self):
        ch = rand_channel(4)
        d = optimizer.run_scheme(2, ch, FIG2)
        assert np.allclose(np.abs(d.g), 0.5)

    def test_scheme3_uses_equal_gain_beamformer(self):
        ch = rand_channel(5)
        d = optimizer.run_scheme(3, ch, FIG2)
        assert np.allclose(np.abs(d.f), 0.5)

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
                    d = optimizer.run_scheme(scheme, ch, par)
                    assert d.p_r > 0

    @pytest.mark.parametrize("scheme", (1, 2, 3, 4))
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_power_homogeneous(self, scheme, n):
        # every constraint right-hand side is linear in (sigma2, P_c), so
        # scaling both by c scales the minimum relay power by c
        for snr_db in (0.0, 20.0):
            par = fig2_params(snr_db, n)
            for t in range(5):
                ch = rand_channel(200 + t, n=n)
                p = optimizer.run_scheme(scheme, ch, par).p_r
                for c in (1e-3, 2.0, 1e3):
                    scaled = dataclasses.replace(
                        par, p_c=c * par.p_c, sigma2=c * par.sigma2)
                    got = optimizer.run_scheme(scheme, ch, scaled).p_r
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

    @pytest.mark.parametrize("targets", ((1.0, 3.0), (3.0, 1.0)),
                             ids=("r1-below", "r1-above"))
    def test_unequal_targets_against_grid_oracle(self, targets):
        # the oracle derives its own a_i from the rate thresholds, so this
        # guards which threshold `design.power_constants` gives each user;
        # the band is that of acceptance check c06
        cfg = with_overrides(fig2_preset(), n=2, r1_bar=targets[0],
                             r2_bar=targets[1], axis="none", axis_values=())
        points = [(snr_db, 10.0) for snr_db in FIG2_SNRS] + [(20.0, 0.0),
                                                             (20.0, 20.0)]
        params = [units_from_config(with_overrides(cfg, snr_db=s, pc_dbm=p))
                  for s, p in points]
        channels = [rand_channel(t, n=2) for t in range(8)]
        res = batch.solve((1,), batch.ChannelBatch.stack(channels),
                          batch.OperatingPoints(params))
        assert (res.status == "ok").all()
        for p_r, par in zip(res.p_r[0], params):
            for p, ch in zip(p_r, channels):
                oracle = harness.oracle_grid(ch, par, resolution=192)
                assert p <= oracle * (1 + 1e-12)
                assert -0.01 <= 10.0 * math.log10(p / oracle) <= 0.05

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

    @pytest.mark.parametrize("targets", ((0.5, 1.0), (1.0, 0.5)),
                             ids=("r1-below", "r1-above"))
    def test_orthogonal_unequal_targets(self, targets):
        # the uplink gain toward user 2 vanishes at psi = 0, the low end of
        # the angle search's interval; the suite turns a RuntimeWarning
        # there into an error
        par = dataclasses.replace(ORTH, r1_bar=targets[0], r2_bar=targets[1])
        p = joint_power(ORTH_CH, par)
        assert p <= harness.oracle_grid(ORTH_CH, par, resolution=256) * (
            1 + 1e-12)

    def test_zero_channel_raises_without_warning(self):
        ch = ChannelRealization(h1=np.zeros(4, dtype=complex),
                                h2=rand_channel(0).h2, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateChannelError):
                optimizer.run_scheme(1, ch, FIG2)


def _preset_cases(preset, **overrides):
    """(channel, params) of every record of a preset sweep."""
    cfg = preset(master_seed=1234, **overrides)
    channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for t in range(cfg.trials)]
    cases = []
    for snr_db, pc_dbm in harness.axis_points(cfg):
        par = units_from_config(with_overrides(
            cfg, snr_db=snr_db, pc_dbm=pc_dbm, axis="none", axis_values=()))
        cases.extend((ch, par) for ch in channels)
    return cases


def _angle_inputs(cases):
    """The frontier bases of the (channel, params) ``cases`` and the
    arguments (n1, A, C, psi_max, k, b) of `optimizer.joint_angles` for all
    of them at once, one array entry per case."""
    bases = [design.frontier_basis(ch.h1, ch.h2) for ch, _ in cases]
    assert all(basis.c > 0 for basis in bases)
    k, b = [], []
    for _, par in cases:
        const = design.power_constants(par, par.sigma2, par.p_c)
        k.append([v / par.eta for v in const.noise_up])
        b.append([v + const.circuit for v in const.noise_dn])
    cols = np.array([(f.n1, f.a, f.c, f.psi_max) for f in bases]).T
    return bases, (*cols, np.array(k).T, np.array(b).T)


def _combiner_power(ch, par, basis, psi):
    """Scheme 1's relay power with the combiner at frontier angle psi: the
    required power of that combiner and the closed-form beamformer, as in
    `run_scheme`."""
    g = np.conj(basis.vector(float(psi)))
    f = design.solve_beamformer(g, ch, par).f
    return design.required_power(f, g, ch, par)


def _random_case(rng, equal_targets=True):
    """One random channel and operating point: a tenth of the channels
    nearly collinear, a tenth nearly orthogonal, and the rate targets
    equal or drawn independently from (0.1, 6)."""
    n = int(rng.choice((2, 3, 4, 8, 16)))

    def gauss():
        return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)

    h1, h2 = gauss(), gauss()
    kind = rng.uniform()
    eps = 10.0 ** rng.uniform(-9, -3)
    if kind < 0.1:
        h2 = complex(rng.standard_normal(), rng.standard_normal()) * h1 + eps * h2
    elif kind < 0.2:
        h2 = h2 - np.vdot(h1, h2) / np.vdot(h1, h1) * h1 + eps * h1
    h2 = h2 * 10.0 ** rng.uniform(-2, 2)
    r1 = float(rng.uniform(0.1, 6.0))
    r2 = r1 if equal_targets else float(rng.uniform(0.1, 6.0))
    par = design.SystemParams(
        N=n, eta=float(10.0 ** rng.uniform(-3, 0)),
        p_c=float(10.0 ** (rng.uniform(-60, 25) / 10.0)),
        sigma2=float(10.0 ** (-rng.uniform(-10, 50) / 10.0)),
        r1_bar=r1, r2_bar=r2)
    return ChannelRealization(h1=h1, h2=h2, seed=0), par


class TestEqualTargetClosedForm:
    """With equal rate targets scheme 1's angle is the closed-form max-min
    gain point. The search that serves unequal targets never finds a lower
    relay power, and the design has f = g."""

    @staticmethod
    def _check(cases):
        bases, inputs = _angle_inputs(cases)
        closed = optimizer.joint_angles(*inputs)
        search = optimizer.angle_search(*inputs)
        for (ch, par), basis, psi_c, psi_s in zip(cases, bases, closed, search):
            assert (_combiner_power(ch, par, basis, psi_c)
                    <= _combiner_power(ch, par, basis, psi_s) * (1 + 1e-12))
            d = optimizer.run_scheme(1, ch, par)
            assert abs(np.vdot(d.f, d.g)) >= 1 - 1e-9

    @pytest.mark.parametrize("preset", (fig2_preset, fig3_preset),
                             ids=("fig2", "fig3"))
    def test_preset_records(self, preset):
        cases = _preset_cases(preset)
        assert all(par.r1_bar == par.r2_bar for _, par in cases)
        self._check(cases)

    def test_random_draws(self):
        rng = np.random.default_rng(20261018)
        self._check([_random_case(rng) for _ in range(1000)])

    def test_unequal_targets_need_the_search(self):
        # with unequal targets f = g at the max-min gain point can lie well
        # above the optimum, so `joint_angles` searches there
        par = dataclasses.replace(FIG2, r1_bar=1.0, r2_bar=3.0)
        worst = 0.0
        for t in range(10):
            ch = rand_channel(t)
            basis = design.frontier_basis(ch.h1, ch.h2)
            eq = np.arctan(design.frontier_crossings(
                basis.n1, basis.a, basis.c, (1.0, 1.0), (0.0, 0.0))[0])
            g = np.conj(basis.vector(eq))
            p_eq = design.solve_beamformer(g, ch, par).p_r
            p_opt = optimizer.run_scheme(1, ch, par).p_r
            assert p_opt <= p_eq * (1 + 1e-12)
            worst = max(worst, p_eq / p_opt - 1.0)
        assert worst > 1e-3


CERT_TOL = 1e-9


def _crossing_level(n1, a, c, a1, a2):
    """min over frontier beamformers of max(a1/x1, a2/x2): on [0, psi_max]
    x1 = n1^2 cos^2 phi falls and x2 = (A cos phi + C sin phi)^2 rises,
    and the two terms cross at tan phi = (n1 sqrt(a2/a1) - A)/C, clipped
    to [0, C/A]."""
    t = np.minimum(np.maximum((n1 * np.sqrt(a2 / a1) - a) / c, 0.0), c / a)
    return (1.0 + t * t) * np.maximum(a1 / (n1 * n1), a2 / (a + c * t) ** 2)


class TestUnequalTargetCertificate:
    """Scheme 1's angle at unequal rate targets is the global optimum,
    certified by branch and bound over the angle (monotonic optimization,
    Tuy 2000), independently of the golden-section search that found it.
    That search assumes one minimum of P*(psi) on [0, psi_max], so the
    certificate covers random draws beyond the presets, including records
    whose optimum is the end psi = 0.

    On [0, psi_max] the combiner's uplink gain toward user 1 falls and
    that toward user 2 rises, so a1(psi) rises and a2(psi) falls, and the
    crossing level P*(a1, a2) does not decrease in either argument. So
    P*(a1(lo), a2(hi)) bounds the power on the cell [lo, hi] from below.
    Cells are bisected until no bound lies more than CERT_TOL below the
    found power; a midpoint below that refutes the found angle.
    """

    @staticmethod
    def _certify(cases):
        """Certify `optimizer.joint_angles` on ``cases``; return its angles
        and the psi_max of each case."""
        _, (n1, a, c, psi_max, k, b) = _angle_inputs(cases)
        psi = optimizer.joint_angles(n1, a, c, psi_max, k, b)

        def rhs(rec, psi):
            cos, sin = np.cos(psi), np.sin(psi)
            return (k[0][rec] / (n1[rec] * cos) ** 2 + b[0][rec],
                    k[1][rec] / (a[rec] * cos + c[rec] * sin) ** 2 + b[1][rec])

        def level(rec, a1, a2):
            return _crossing_level(n1[rec], a[rec], c[rec], a1, a2)

        # one cell [0, psi_max] per record, with a1 at its low end and a2
        # at its high end
        rec = np.arange(len(cases))
        floor = level(rec, *rhs(rec, psi)) * (1 - CERT_TOL)
        lo, hi = np.zeros(len(cases)), psi_max
        a1_lo, a2_hi = rhs(rec, lo)[0], rhs(rec, hi)[1]
        open_ = level(rec, a1_lo, a2_hi) < floor
        rec, lo, hi, a1_lo, a2_hi = (
            v[open_] for v in (rec, lo, hi, a1_lo, a2_hi))
        for _ in range(64):
            if not rec.size:
                break
            mid = 0.5 * (lo + hi)
            a1_mid, a2_mid = rhs(rec, mid)
            assert not np.any(level(rec, a1_mid, a2_mid) < floor[rec])
            left = level(rec, a1_lo, a2_mid) < floor[rec]
            right = level(rec, a1_mid, a2_hi) < floor[rec]
            rec, lo, hi, a1_lo, a2_hi = (
                np.concatenate([x[left], y[right]]) for x, y in (
                    (rec, rec), (lo, mid), (mid, hi), (a1_lo, a1_mid),
                    (a2_mid, a2_hi)))
        assert rec.size == 0
        return psi, psi_max

    @pytest.mark.parametrize("targets", ((1.0, 3.0), (3.0, 1.0)),
                             ids=("r1-below", "r1-above"))
    @pytest.mark.parametrize("preset", (fig2_preset, fig3_preset),
                             ids=("fig2", "fig3"))
    def test_preset_records(self, preset, targets):
        self._certify(_preset_cases(preset, r1_bar=targets[0],
                                    r2_bar=targets[1]))

    def test_random_draws(self):
        rng = np.random.default_rng(20261019)
        cases = [_random_case(rng, equal_targets=False) for _ in range(1000)]
        assert all(par.r1_bar != par.r2_bar for _, par in cases)
        psi, psi_max = self._certify(cases)
        # the draws reach both an optimum at the end psi = 0 and one inside
        at_zero = psi < 1e-9 * psi_max
        assert 0 < at_zero.sum() < len(cases)
