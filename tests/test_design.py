import numpy as np
import pytest

from cofrelay import design, numerics, sdp
from cofrelay.errors import (BracketError, DegenerateChannelError,
                             InfeasibleError)
from cofrelay.scenario import ChannelRealization, gen_channel, trial_seed

# the analytic desk scenarios used throughout
SCALAR = design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                             r1_bar=0.5, r2_bar=0.5)
SCALAR_CH = ChannelRealization(h1=np.array([1.0 + 0j]),
                               h2=np.array([1.0 + 0j]), seed=0)
ORTH = design.SystemParams(N=2, eta=1.0, p_c=0.0, sigma2=1.0,
                           r1_bar=0.5, r2_bar=0.5)
ORTH_CH = ChannelRealization(h1=np.array([1.0 + 0j, 0.0]),
                             h2=np.array([0.0, 1.0 + 0j]), seed=0)
SPLIT = np.array([1.0 + 0j, 1.0]) / np.sqrt(2.0)

FIG2 = design.SystemParams(N=4, eta=1.0, p_c=10.0, sigma2=0.01,
                           r1_bar=2.0, r2_bar=2.0)


def rand_channel(t, n=4):
    return gen_channel(trial_seed(99, t), n)


def rand_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


class TestThresholds:
    def test_fig2_targets(self):
        th = design.rate_thresholds(FIG2)
        assert th == (16.0, 16.0, 16.0, 16.0)

    def test_half_rate(self):
        th = design.rate_thresholds(SCALAR)
        assert th == (2.0, 2.0, 2.0, 2.0)

    def test_asymmetric_swap(self):
        par = design.SystemParams(N=2, eta=1.0, p_c=0.0, sigma2=1.0,
                                  r1_bar=1.0, r2_bar=2.0)
        th = design.rate_thresholds(par)
        assert th.theta_1r == 4.0 and th.theta_2r == 16.0
        assert th.theta_r1 == 16.0 and th.theta_r2 == 4.0


class TestConstraintRhs:
    def test_unit_gains(self):
        a = design.constraint_rhs(SCALAR, np.array([1.0 + 0j]), SCALAR_CH)
        assert a == pytest.approx((3.0, 3.0))

    def test_half_gain(self):
        par = design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                                  r1_bar=0.5, r2_bar=0.5)
        ch = ChannelRealization(h1=np.array([np.sqrt(0.5) + 0j]),
                                h2=np.array([np.sqrt(0.5) + 0j]), seed=0)
        a = design.constraint_rhs(par, np.array([1.0 + 0j]), ch)
        assert a == pytest.approx((5.0, 5.0))

    def test_mixed_parameters(self):
        # sigma2 th/(eta g) + sigma2 (th_r - 1) + 2 Pc/eta = 8 + 3 + 4 = 15
        par = design.SystemParams(N=1, eta=0.5, p_c=1.0, sigma2=1.0,
                                  r1_bar=1.0, r2_bar=1.0)
        a = design.constraint_rhs(par, np.array([1.0 + 0j]), SCALAR_CH)
        assert a == pytest.approx((15.0, 15.0))

    def test_degenerate(self):
        ch = ChannelRealization(h1=np.array([0.0 + 0j]),
                                h2=np.array([1.0 + 0j]), seed=0)
        with pytest.raises(DegenerateChannelError):
            design.constraint_rhs(SCALAR, np.array([1.0 + 0j]), ch)


def grid_required_power_oracle(ch, par, steps=48):
    """4-parameter exhaustive scan of required_power over unit f, g (N=2)."""
    ts = np.linspace(0, np.pi / 2, steps)
    ps = np.linspace(0, 2 * np.pi, steps, endpoint=False)
    best = np.inf
    vecs = [np.array([np.cos(t), np.sin(t) * np.exp(1j * p)])
            for t in ts for p in ps]
    for f in vecs:
        h1f = design.downlink_gain(f, ch.h1)
        h2f = design.downlink_gain(f, ch.h2)
        if min(h1f, h2f) < 1e-12:
            continue
        for g in vecs:
            try:
                a = design.constraint_rhs(par, g, ch)
            except DegenerateChannelError:
                continue
            best = min(best, max(a[0] / h1f, a[1] / h2f))
    return best


class TestRequiredPower:
    def test_scalar(self):
        one = np.array([1.0 + 0j])
        assert design.required_power(one, one, SCALAR_CH, SCALAR) == pytest.approx(3.0)

    def test_orthogonal_equal_split(self):
        p = design.required_power(SPLIT, SPLIT, ORTH_CH, ORTH)
        assert p == pytest.approx(10.0, rel=1e-12)
        # coarse exhaustive scan confirms this is also the joint optimum
        oracle = grid_required_power_oracle(ORTH_CH, ORTH, steps=24)
        assert oracle >= 10.0 - 0.35  # grid slack
        assert p <= oracle + 0.35

    def test_sigma2_scaling(self):
        par2 = design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=2.0,
                                   r1_bar=0.5, r2_bar=0.5)
        one = np.array([1.0 + 0j])
        assert design.required_power(one, one, SCALAR_CH, par2) == pytest.approx(6.0)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(5)
        ch = rand_channel(0)
        f = rand_unit(rng, 4)
        g = rand_unit(rng, 4)
        base = design.required_power(f, g, ch, FIG2)
        for _ in range(10):
            a, b = rng.uniform(0, 2 * np.pi, 2)
            rot = design.required_power(f * np.exp(1j * a), g * np.exp(1j * b),
                                        ch, FIG2)
            assert rot == pytest.approx(base, rel=1e-12)


class TestBeamformer:
    def test_scalar_sdp(self):
        bf = design.solve_beamformer(np.array([1.0 + 0j]), SCALAR_CH, SCALAR)
        assert bf.p_r == pytest.approx(3.0, rel=1e-7)
        assert abs(bf.f[0]) == pytest.approx(1.0)

    def test_orthogonal_symmetric(self):
        # 2-D oracle: min over split x of max(5/x, 5/(1-x)) = 10 at x = 1/2
        xs = np.linspace(0.01, 0.99, 999)
        oracle = np.min(np.maximum(5.0 / xs, 5.0 / (1.0 - xs)))
        assert oracle == pytest.approx(10.0, abs=1e-3)
        bf = design.solve_beamformer(SPLIT, ORTH_CH, ORTH)
        assert bf.p_r == pytest.approx(10.0, rel=1e-6)
        assert np.allclose(np.abs(bf.f), [1 / np.sqrt(2)] * 2, atol=1e-6)

    def test_single_active_user(self):
        bf = design.min_power_beamformer([ORTH_CH.h1, ORTH_CH.h2], [0.0, 5.0])
        assert bf.p_r == pytest.approx(5.0, rel=1e-6)
        assert np.allclose(np.abs(bf.f), [0.0, 1.0], atol=1e-5)

    def test_probe_optimality(self):
        rng = np.random.default_rng(6)
        ch = rand_channel(1)
        g = rand_unit(rng, 4)
        bf = design.solve_beamformer(g, ch, FIG2)
        a = design.constraint_rhs(FIG2, g, ch)
        for _ in range(100):
            f = rand_unit(rng, 4)
            probe = max(a[0] / design.downlink_gain(f, ch.h1),
                        a[1] / design.downlink_gain(f, ch.h2))
            assert bf.p_r <= probe + 1e-6

    def test_rank_one_on_random_channels(self):
        # the SDP relaxation; the exact path's rank ratio is 0 by construction
        rng = np.random.default_rng(7)
        for t in range(20):
            ch = rand_channel(t)
            a = design.constraint_rhs(FIG2, rand_unit(rng, 4), ch)
            bf = design.min_power_beamformer([ch.h1, ch.h2], a)
            assert bf.rank_ratio <= 1e-6

    @pytest.mark.parametrize("case", ["collinear", "identical", "orthogonal",
                                      "n1", "n8"])
    def test_exact_matches_sdp_certificate(self, case):
        rng = np.random.default_rng(14)
        par, n = FIG2, 4
        if case == "collinear":
            h1 = rand_channel(4).h1
            ch = ChannelRealization(h1=h1, h2=(0.3 - 0.7j) * h1, seed=0)
        elif case == "identical":
            h1 = rand_channel(5).h1
            ch = ChannelRealization(h1=h1, h2=h1.copy(), seed=0)
        elif case == "orthogonal":
            par, n, ch = ORTH, 2, ORTH_CH
        elif case == "n1":
            par, n = design.SystemParams(N=1, eta=1.0, p_c=10.0, sigma2=0.01,
                                         r1_bar=2.0, r2_bar=2.0), 1
            ch = rand_channel(6, n=1)
        else:
            par, n = design.SystemParams(N=8, eta=1.0, p_c=10.0, sigma2=0.01,
                                         r1_bar=2.0, r2_bar=2.0), 8
            ch = rand_channel(7, n=8)
        g = rand_unit(rng, n)
        a = design.constraint_rhs(par, g, ch)
        bf = design.solve_beamformer(g, ch, par)
        for ai, h in zip(a, (ch.h1, ch.h2)):
            assert bf.p_r * design.downlink_gain(bf.f, h) >= ai * (1 - 1e-12)
        cert = design.min_power_beamformer([ch.h1, ch.h2], a)
        assert bf.p_r == pytest.approx(cert.p_r, rel=1e-6)

    def test_rank_one_pair_feasible(self):
        rng = np.random.default_rng(8)
        ch = rand_channel(2)
        g = rand_unit(rng, 4)
        bf = design.solve_beamformer(g, ch, FIG2)
        a = design.constraint_rhs(FIG2, g, ch)
        assert bf.p_r * design.downlink_gain(bf.f, ch.h1) >= a[0] * (1 - 1e-7)
        assert bf.p_r * design.downlink_gain(bf.f, ch.h2) >= a[1] * (1 - 1e-7)


class TestRankOneExtract:
    def test_pure_rank_one(self):
        rng = np.random.default_rng(9)
        v = rand_unit(rng, 3)
        scale, vec, ratio = design.rank_one_extract(5.0 * np.outer(v, v.conj()))
        assert scale == pytest.approx(5.0)
        assert abs(np.vdot(vec, v)) == pytest.approx(1.0)  # up to phase
        assert ratio <= 1e-12

    def test_diagonal(self):
        scale, vec, ratio = design.rank_one_extract(np.diag([4.0, 1.0]))
        assert (scale, ratio) == (4.0, 0.25)
        assert np.allclose(np.abs(vec), [1.0, 0.0])

    def test_identity_max_ratio(self):
        _, _, ratio = design.rank_one_extract(np.eye(2))
        assert ratio == pytest.approx(1.0)


class TestCombiner:
    def test_n1_point_set(self):
        res = design.min_level_combiner([np.array([1.0 + 0j]), np.array([1.0 + 0j])],
                                        [2.0, 1.0], [0.5, 3.0])
        assert res.p_r_implied == pytest.approx(4.0)
        assert abs(res.g[0]) == pytest.approx(1.0)

    def test_orthogonal_sweep_oracle(self):
        # 1-D sweep of max(4/x + 2, 4/(1-x) + 2) has its minimum 10 at x = 1/2
        xs = np.linspace(0.001, 0.999, 4999)
        oracle = np.min(np.maximum(4.0 / xs + 2.0, 4.0 / (1.0 - xs) + 2.0))
        assert oracle == pytest.approx(10.0, abs=1e-4)
        res = design.solve_combiner(SPLIT, ORTH_CH, ORTH)
        assert res.p_r_implied == pytest.approx(10.0, rel=1e-9)
        assert np.linalg.norm(res.g) == pytest.approx(1.0, abs=1e-9)
        x1 = design.uplink_gain(res.g, ORTH_CH.h1)
        x2 = design.uplink_gain(res.g, ORTH_CH.h2)
        assert x1 == pytest.approx(0.5, abs=1e-9)
        assert x2 == pytest.approx(0.5, abs=1e-9)

    def test_single_user_matched(self):
        rng = np.random.default_rng(10)
        h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        res = design.min_level_combiner([h1, np.zeros(3)], [3.0, 0.0], [1.0, 0.0])
        gain = design.uplink_gain(res.g, h1)
        assert gain == pytest.approx(np.linalg.norm(h1) ** 2, rel=1e-12)
        assert res.p_r_implied == pytest.approx(3.0 / gain + 1.0, rel=1e-12)

    def test_probe_optimality(self):
        rng = np.random.default_rng(11)
        ch = rand_channel(3)
        f = rand_unit(rng, 4)
        rho, mu = design.combiner_coefficients(f, ch, FIG2)
        res = design.solve_combiner(f, ch, FIG2)
        for _ in range(100):
            g = rand_unit(rng, 4).conj()
            probe = max(rho[0] / design.uplink_gain(g, ch.h1) + mu[0],
                        rho[1] / design.uplink_gain(g, ch.h2) + mu[1])
            assert res.p_r_implied <= probe + 1e-6

    def test_methods_agree(self):
        # At FIG2's circuit power one user's mu dominates and the optimum is
        # a matched filter; without circuit power the two terms cross inside
        # the frontier, which exercises the angle bisection.
        low_pc = design.SystemParams(N=4, eta=1.0, p_c=0.0, sigma2=1.0,
                                     r1_bar=0.5, r2_bar=0.5)
        rng = np.random.default_rng(12)
        for par in (FIG2, low_pc):
            for t in range(6):
                ch = rand_channel(t)
                f = rand_unit(rng, 4)
                rho, mu = design.combiner_coefficients(f, ch, par)
                a = design.min_level_combiner([ch.h1, ch.h2], rho, mu)
                b = sdp_level_combiner([ch.h1, ch.h2], rho, mu)
                assert b == pytest.approx(a.p_r_implied, rel=1e-7)
                assert b >= a.p_r_implied - 1e-9


def sdp_level_combiner(h_vecs, rho, mu):
    """Reference for the exact combiner: bisection on the level s, where s is
    feasible when some unit u has |u^H h_i|^2 >= rho_i/(s - mu_i) for both
    users, certified by a margin-maximization SDP and projected onto its
    dominant eigenvector. Returns the objective of the projected vector."""
    h_vecs = [np.asarray(h, dtype=complex) for h in h_vecs]
    n = len(h_vecs[0])
    b_mats = [np.outer(h, h.conj()) for h in h_vecs]

    def objective(u):
        return max(r / abs(np.vdot(u, h)) ** 2 + m
                   for h, r, m in zip(h_vecs, rho, mu))

    candidates = [h / np.linalg.norm(h) for h in h_vecs]
    candidates.append(np.ones(n, dtype=complex) / np.sqrt(n))
    u_best = min(candidates, key=objective)
    hi = objective(u_best)
    lo = max(mu) * (1 + 1e-12) + 1e-15
    state = {"G": np.outer(u_best, u_best.conj())}

    def feasible(s):
        dim = n + 1
        cons = []
        for b, r, m in zip(b_mats, rho, mu):
            a = np.zeros((dim, dim), dtype=complex)
            a[:n, :n] = b
            a[n, n] = -r / (s - m)
            cons.append((a, sdp.GE, 0.0))
        tr = np.zeros((dim, dim))
        tr[:n, :n] = np.eye(n)
        cons.append((tr, sdp.EQ, 1.0))
        obj = np.zeros((dim, dim))
        obj[n, n] = 1.0
        sol = sdp.solve_sdp(sdp.SdpInstance(dim, obj, "max", cons))
        assert sol.status == "optimal"
        ok = float(np.real(sol.X[n, n])) >= 1.0 - 1e-9
        if ok:
            state["G"] = sol.X[:n, :n]
        return ok

    bisect_level(feasible, lo, hi, tol=1e-9 * max(1.0, hi),
                 check_endpoints=False)
    _, u, _ = design.rank_one_extract(numerics.hermitian(state["G"]))
    return min(objective(u), objective(u_best))


def bisect_level(feasibility_oracle, lo: float, hi: float, tol: float,
                 check_endpoints: bool = True) -> float:
    """Monotone level-set bisection.

    ``feasibility_oracle(s)`` must return True (feasible) for large enough s
    and False below the transition; the returned level is feasible and within
    ``tol`` of the final infeasible lower end. The bisection loop makes at
    most ceil(log2((hi - lo) / tol)) oracle calls; endpoint validation, when
    enabled, costs two more.
    """
    if not (hi > lo):
        raise BracketError(f"need hi > lo, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if check_endpoints:
        if feasibility_oracle(lo):
            return lo
        if not feasibility_oracle(hi):
            raise BracketError("oracle is infeasible at hi; endpoints do not bracket "
                               "the transition")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval below float resolution
            break
        if feasibility_oracle(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestBisect:
    def test_threshold(self):
        got = bisect_level(lambda s: s >= 2.0, 0.0, 10.0, 1e-6)
        assert got == pytest.approx(2.0, abs=1e-6)
        assert got >= 2.0

    def test_always_feasible_returns_lo(self):
        assert bisect_level(lambda s: True, 1.5, 9.0, 1e-9) == 1.5

    def test_pi_bracket(self):
        got = bisect_level(lambda s: s >= np.pi, 3.0, 4.0, 1e-9)
        assert got == pytest.approx(np.pi, abs=1e-9)

    def test_call_budget(self):
        calls = []

        def oracle(s):
            calls.append(s)
            return s >= 2.0

        lo, hi, tol = 0.0, 10.0, 1e-6
        bisect_level(oracle, lo, hi, tol)
        budget = int(np.ceil(np.log2((hi - lo) / tol))) + 2  # +2 endpoint checks
        assert len(calls) <= budget

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            bisect_level(lambda s: False, 0.0, 1.0, 1e-6)
        with pytest.raises(BracketError):
            bisect_level(lambda s: True, 2.0, 1.0, 1e-6)


class TestBeta:
    def test_binding_point(self):
        one = np.array([1.0 + 0j])
        beta = design.recover_beta(3.0, one, one, SCALAR_CH, SCALAR)
        assert beta == pytest.approx((1.0 / 3.0, 1.0 / 3.0), abs=1e-12)
        lo, hi = design.beta_interval(3.0, one, one, SCALAR_CH, SCALAR, 0)
        assert lo == pytest.approx(1.0 / 3.0) and hi == pytest.approx(1.0 / 3.0)
        assert hi - lo <= 1e-9

    def test_double_power(self):
        one = np.array([1.0 + 0j])
        beta = design.recover_beta(6.0, one, one, SCALAR_CH, SCALAR)
        assert beta == pytest.approx((5.0 / 12.0, 5.0 / 12.0), abs=1e-12)
        lo, hi = design.beta_interval(6.0, one, one, SCALAR_CH, SCALAR, 0)
        assert (lo, hi) == pytest.approx((1.0 / 6.0, 2.0 / 3.0))
        assert lo < beta[0] < hi

    def test_large_pc_infeasible(self):
        par = design.SystemParams(N=1, eta=1.0, p_c=10.0, sigma2=1.0,
                                  r1_bar=0.5, r2_bar=0.5)
        one = np.array([1.0 + 0j])
        with pytest.raises(InfeasibleError):
            design.recover_beta(3.0, one, one, SCALAR_CH, par)

    def test_midpoint_identity_random(self):
        rng = np.random.default_rng(13)
        for t in range(30):
            ch = rand_channel(t)
            f = rand_unit(rng, 4)
            g = rand_unit(rng, 4)
            p_min = design.required_power(f, g, ch, FIG2)
            p_r = p_min * rng.uniform(1.0, 3.0)
            beta = design.recover_beta(p_r, f, g, ch, FIG2)
            for user in range(2):
                lo, hi = design.beta_interval(p_r, f, g, ch, FIG2, user)
                assert beta[user] == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_binding_interval_degenerates(self):
        rng = np.random.default_rng(14)
        ch = rand_channel(5)
        f = rand_unit(rng, 4)
        g = rand_unit(rng, 4)
        a = design.constraint_rhs(FIG2, g, ch)
        gains = [design.downlink_gain(f, ch.h1), design.downlink_gain(f, ch.h2)]
        binding = int(np.argmax([a[0] / gains[0], a[1] / gains[1]]))
        p_r = design.required_power(f, g, ch, FIG2)
        lo, hi = design.beta_interval(p_r, f, g, ch, FIG2, binding)
        assert hi - lo <= 1e-9


class TestRates:
    def test_downlink_snr15(self):
        par = design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                                  r1_bar=0.1, r2_bar=0.1)
        d = design.TransceiverDesign(f=np.array([1.0 + 0j]), g=np.array([1.0 + 0j]),
                                     p_r=15.0, beta=(1.0, 1.0), p_uplink=(1.0, 1.0))
        rep = design.verify_rates(d, SCALAR_CH, par)
        assert rep.r_down == pytest.approx((2.0, 2.0))

    def test_gamma_symmetric(self):
        d = design.complete_design(SPLIT, SPLIT, 10.0, ORTH_CH, ORTH)
        rep = design.verify_rates(d, ORTH_CH, ORTH)
        assert rep.gamma == pytest.approx((0.5, 0.5))
        assert rep.gamma[0] + rep.gamma[1] == pytest.approx(1.0)

    def test_margins_nonnegative_at_binding(self):
        rng = np.random.default_rng(15)
        for t in range(10):
            ch = rand_channel(t)
            f = rand_unit(rng, 4)
            g = rand_unit(rng, 4)
            p_r = design.required_power(f, g, ch, FIG2)
            d = design.complete_design(f, g, p_r, ch, FIG2)
            rep = design.verify_rates(d, ch, FIG2)
            assert all(m >= -1e-6 for m in rep.margins)
            assert rep.margins[0] > 0 and rep.margins[1] > 0  # gamma slack

    def test_margins_monotone_in_power(self):
        rng = np.random.default_rng(16)
        ch = rand_channel(7)
        f = rand_unit(rng, 4)
        g = rand_unit(rng, 4)
        p0 = design.required_power(f, g, ch, FIG2)
        prev = None
        for scale in (1.0, 1.5, 2.5, 4.0):
            d = design.complete_design(f, g, p0 * scale, ch, FIG2)
            rep = design.verify_rates(d, ch, FIG2)
            if prev is not None:
                assert all(m2 >= m1 - 1e-9 for m1, m2 in zip(prev, rep.margins))
            prev = rep.margins


class TestParams:
    def test_splitter_noise_default(self):
        assert FIG2.sigma2_a == 0.0
        assert FIG2.sigma2_p == FIG2.sigma2

    def test_validation(self):
        with pytest.raises(ValueError):
            design.SystemParams(N=0, eta=1.0, p_c=0.0, sigma2=1.0,
                                r1_bar=1.0, r2_bar=1.0)
        with pytest.raises(ValueError):
            design.SystemParams(N=1, eta=1.5, p_c=0.0, sigma2=1.0,
                                r1_bar=1.0, r2_bar=1.0)
        with pytest.raises(ValueError):
            design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=0.0,
                                r1_bar=1.0, r2_bar=1.0)
        with pytest.raises(ValueError):
            design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                                r1_bar=-1.0, r2_bar=1.0)
        with pytest.raises(ValueError):
            design.SystemParams(N=1, eta=1.0, p_c=0.0, sigma2=1.0,
                                r1_bar=1.0, r2_bar=1.0, sigma2_a=0.6, sigma2_p=0.6)
