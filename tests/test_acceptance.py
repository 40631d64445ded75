"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (to the unredirected stdout, so the lines
are visible under pytest's default capture). The Monte Carlo sweeps are
shared session fixtures; every run is seeded and deterministic.
"""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import conftest
from frontier_reference import gap_reference
import record_reference as frozen
from cofrelay import design, harness, lattice, numerics, optimizer, sdp
from cofrelay.harness import axis_points, run_point
from cofrelay.scenario import (fig2_preset, fig3_preset, gen_channel,
                               trial_seed, units_from_config, with_overrides)

SEED = 1234
OP_POINT = (20.0, 10.0)  # (snr_db, pc_dbm) of the headline operating point
REL_SLACK = 1e-6


def _report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _mean_db(records, scheme, point):
    vals = [r.p_r_db for r in records[point]
            if r.scheme == scheme and r.status == "ok"]
    return float(np.mean(vals))


def _rows(records, point, scheme):
    return {r.trial: r for r in records[point]
            if r.scheme == scheme and r.status == "ok"}


@pytest.fixture(scope="session")
def fig2():
    cfg = fig2_preset(master_seed=SEED)
    channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for t in range(cfg.trials)]
    data, timing = {}, {}
    for snr, pc in axis_points(cfg):
        t0 = time.perf_counter()
        data[(snr, pc)] = run_point(cfg, snr, pc, channels=channels)
        timing[(snr, pc)] = time.perf_counter() - t0
    return SimpleNamespace(cfg=cfg, data=data, timing=timing, channels=channels)


@pytest.fixture(scope="session")
def fig3():
    cfg = fig3_preset(master_seed=SEED)
    channels = [gen_channel(trial_seed(cfg.master_seed, t), cfg.n)
                for t in range(cfg.trials)]
    data = {}
    for snr, pc in axis_points(cfg):
        data[(snr, pc)] = run_point(cfg, snr, pc, channels=channels)
    return SimpleNamespace(cfg=cfg, data=data, channels=channels)


@pytest.fixture(scope="session")
def op_params(fig2):
    return units_from_config(with_overrides(fig2.cfg, snr_db=OP_POINT[0],
                                            pc_dbm=OP_POINT[1], axis="none",
                                            axis_values=()))


def test_c01_scheme_ordering(fig2):
    """Per-channel nesting of the four schemes plus the mean ordering 2 < 3."""
    rows = {s: _rows(fig2.data, OP_POINT, s) for s in (1, 2, 3, 4)}
    assert all(len(r) == 100 for r in rows.values())
    violations = 0
    for t in rows[1]:
        p = {s: 10 ** (rows[s][t].p_r_db / 10.0) for s in (1, 2, 3, 4)}
        ok = (p[1] <= p[2] * (1 + REL_SLACK) and p[1] <= p[3] * (1 + REL_SLACK)
              and p[2] <= p[4] * (1 + REL_SLACK) and p[3] <= p[4] * (1 + REL_SLACK))
        violations += 0 if ok else 1
    mean2 = _mean_db(fig2.data, 2, OP_POINT)
    mean3 = _mean_db(fig2.data, 3, OP_POINT)
    elapsed = fig2.timing[OP_POINT]
    ok = violations == 0 and mean2 < mean3 and elapsed <= 300.0
    _report(1, "scheme-ordering", ok,
            f"violations={violations}/100, mean2={mean2:.3f} dB < "
            f"mean3={mean3:.3f} dB, runtime={elapsed:.1f}s")


def test_c02_gap_reproduction(fig2, op_params):
    """Mean-dB gap of scheme 2 over scheme 1 at the headline operating point,
    against the solver-free reference of ``frontier_reference.gap_reference``.

    The source paper reports a 5-13 dB gap here; under the documented model
    the envelope caps the mean gap near 0.15 dB whatever the solver, so the
    paper's figure is printed for information, not asserted.
    """
    rows = {s: _rows(fig2.data, OP_POINT, s) for s in (1, 2)}
    assert all(len(r) == len(fig2.channels) for r in rows.values())
    ref = np.array([gap_reference(ch, op_params) for ch in fig2.channels])
    ref_db = 10.0 * np.log10(ref)
    p_db = {s: np.array([rows[s][t].p_r_db for t in range(len(fig2.channels))])
            for s in (1, 2)}
    err2 = np.abs(10.0 ** ((p_db[2] - ref_db[:, 1]) / 10.0) - 1.0)
    excess1 = p_db[1] - ref_db[:, 0]
    err1 = np.abs(10.0 ** (excess1 / 10.0) - 1.0)
    gap = float(np.mean(p_db[2] - p_db[1]))
    ref_gap = float(np.mean(ref_db[:, 1] - ref_db[:, 0]))
    envelope = float(np.mean(ref_db[:, 2]))
    ok = (err2.max() <= REL_SLACK
          and err1.max() <= 1e-9
          and abs(gap - ref_gap) <= 0.01
          and 0.0 < ref_gap <= envelope)
    _report(2, "gap-reproduction", ok,
            f"measured gap = {gap:.4f} dB, reference = {ref_gap:.4f} dB, "
            f"envelope = {envelope:.4f} dB; worst scheme-2 error = "
            f"{err2.max():.1e}, worst scheme-1 error = {err1.max():.1e} "
            f"(excess in [{excess1.min():+.1e}, {excess1.max():+.1e}] dB); "
            f"the paper reports 5-13 dB")


def test_c03_gap_shrinks_with_circuit_power(fig3):
    points = axis_points(fig3.cfg)
    gaps = {pc: _mean_db(fig3.data, 2, (snr, pc)) - _mean_db(fig3.data, 1, (snr, pc))
            for snr, pc in points}
    lo = min(pc for _, pc in points)
    hi = max(pc for _, pc in points)
    ok = gaps[hi] < gaps[lo]
    _report(3, "gap-shrink-with-pc", ok,
            f"gap at pc={lo:g}: {gaps[lo]:.4f} dB, at pc={hi:g}: {gaps[hi]:.4f} dB")


def test_c04_monotone_trends(fig2, fig3):
    bad = []
    for scheme in (1, 2, 3, 4):
        snr_means = [_mean_db(fig2.data, scheme, pt) for pt in axis_points(fig2.cfg)]
        if not all(b < a for a, b in zip(snr_means, snr_means[1:])):
            bad.append(f"scheme {scheme} not decreasing in SNR")
        pc_means = [_mean_db(fig3.data, scheme, pt) for pt in axis_points(fig3.cfg)]
        if not all(b > a for a, b in zip(pc_means, pc_means[1:])):
            bad.append(f"scheme {scheme} not increasing in P_c")
    _report(4, "monotone-trends", not bad, "; ".join(bad) or "all 8 curves monotone")


def test_c05_alternation_convergence(fig2, op_params):
    iters = []
    worst_rel_increase = 0.0
    all_converged = True
    for ch in fig2.channels:
        trace = optimizer.alternate(ch, op_params)
        seq = trace.power_sequence()
        for a, b in zip(seq, seq[1:]):
            worst_rel_increase = max(worst_rel_increase, (b - a) / max(a, 1e-300))
        all_converged &= trace.converged and trace.n_iterations <= 50
        iters.append(trace.n_iterations)
    ok = all_converged and worst_rel_increase <= REL_SLACK
    _report(5, "alternation-convergence", ok,
            f"median iterations = {np.median(iters):g}, max = {max(iters)}, "
            f"worst relative increase = {worst_rel_increase:.2e}")


def test_c06_oracle_equivalence(op_params):
    par = design.SystemParams(N=2, eta=op_params.eta, p_c=op_params.p_c,
                              sigma2=op_params.sigma2, r1_bar=op_params.r1_bar,
                              r2_bar=op_params.r2_bar)
    t0 = time.perf_counter()
    diffs = []
    for t in range(20):
        ch = gen_channel(trial_seed(SEED, t), 2)
        trace = optimizer.alternate(ch, par)
        oracle = harness.oracle_grid(ch, par, resolution=256)
        diffs.append(10.0 * math.log10(trace.final.p_r / oracle))
    elapsed = time.perf_counter() - t0
    ok = all(-0.01 <= d <= 0.05 for d in diffs) and elapsed <= 600.0
    _report(6, "oracle-equivalence", ok,
            f"diff range [{min(diffs):+.4f}, {max(diffs):+.4f}] dB, "
            f"runtime={elapsed:.1f}s")


def test_c07_rank_one_property(op_params):
    """The beamformer SDP relaxation is tight (rank one), and its power
    certifies the exact `solve_beamformer`, whose beamformer must also meet
    both constraints, on every instance."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    high_rank = 0
    worst_gap = 0.0
    infeasible = 0
    for t in range(100):
        ch = gen_channel(trial_seed(777, t), 4)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g /= np.linalg.norm(g)
        a = frozen.constraint_rhs(op_params, g, ch)
        cert = design.min_power_beamformer([ch.h1, ch.h2], a)
        worst = max(worst, cert.rank_ratio)
        high_rank += 1 if cert.rank_ratio > 1e-6 else 0
        exact = design.solve_beamformer(g, ch, op_params)
        worst_gap = max(worst_gap, abs(exact.p_r - cert.p_r) / cert.p_r)
        infeasible += sum(exact.p_r * frozen.downlink_gain(exact.f, h)
                          < ai * (1 - 1e-12) for ai, h in zip(a, (ch.h1, ch.h2)))
    ok = worst <= 1e-6 and worst_gap <= 1e-6 and infeasible == 0
    _report(7, "rank-one-property", ok,
            f"max rank ratio = {worst:.2e}, above 1e-6 = {high_rank}/100, "
            f"max exact-vs-SDP power error = {worst_gap:.2e}, "
            f"infeasible exact constraints = {infeasible}")


def test_c08_beta_midpoint_identity(op_params):
    rng = np.random.default_rng(55)
    worst_mid = 0.0
    worst_width = 0.0
    for t in range(100):
        ch = gen_channel(trial_seed(818, t), 4)
        f = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        f /= np.linalg.norm(f)
        g = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        g /= np.linalg.norm(g)
        p_min = design.required_power(f, g, ch, op_params)
        p_r = p_min * float(rng.uniform(1.0, 3.0))
        beta = design.complete_design(f, g, p_r, ch, op_params).beta
        # the interval and the binding user by `design`'s shared steps
        h = np.array([ch.h1, ch.h2])
        up, down = design._uplink(g, h), design._downlink(h, f)
        const = design.power_constants(op_params, op_params.sigma2,
                                       op_params.p_c)
        lo, hi, _ = design.splitting(const, op_params.eta, p_r, up, down)
        for user in range(2):
            worst_mid = max(worst_mid, abs(beta[user] - 0.5 * (lo[user]
                                                               + hi[user])))
        a = design.right_hand_sides(const, op_params.eta, up)
        binding = int(np.argmax(a / down))
        lo, hi, _ = design.splitting(const, op_params.eta, p_min, up, down)
        worst_width = max(worst_width, hi[binding] - lo[binding])
    ok = worst_mid <= 1e-9 and worst_width <= 1e-9
    _report(8, "beta-midpoint-identity", ok,
            f"max midpoint error = {worst_mid:.2e}, "
            f"max binding width = {worst_width:.2e}")


def test_c09_rate_targets_met(fig2):
    records = [r for r in fig2.data[OP_POINT] if r.status == "ok"]
    assert records
    worst = min(min(r.margins()) for r in records)
    min_up = min(min(r.margin_up1, r.margin_up2) for r in records)
    ok = worst >= -1e-6 and min_up > 0.0
    _report(9, "rate-targets-met", ok,
            f"worst margin = {worst:.3e}, smallest uplink margin = {min_up:.3e}")


def test_c10_lattice_suite():
    z1 = lattice.scaled_integers(1.0)
    z4 = lattice.scaled_integers(4.0)
    z8 = lattice.scaled_integers(8.0)
    chain = lattice.NestedChain(fine=z1, mid=z4, coarse=z8)
    rng = np.random.default_rng(808)

    idem_ok = True
    period_ok = True
    for p in rng.uniform(-50, 50, size=(10000, 1)):
        m = lattice.mod_lattice(z4, p)
        idem_ok &= bool(np.array_equal(lattice.mod_lattice(z4, m), m))
        k = float(rng.integers(-6, 7))
        period_ok &= bool(np.allclose(lattice.mod_lattice(z4, p + 4.0 * k), m,
                                      atol=1e-9))

    est = lattice.second_moment(z1, 100000, seed=313)
    moment_ok = abs(est.value - 1.0 / 12.0) <= 3.0 * est.stderr

    cb1 = lattice.enumerate_codebook(z1, z8)
    cb2 = lattice.enumerate_codebook(z1, z4)
    pairs = 0
    cof_ok = True
    for e1 in cb1:
        for e2 in cb2:
            pairs += 1
            te, td = lattice.cof_roundtrip(chain, e1.point, e2.point,
                                           [0.0], [0.0], 1.0, 1.0, 0.0)
            cof_ok &= bool(np.allclose(te, td, atol=1e-9))
            u1 = lattice.mod_lattice(z8, rng.uniform(-8, 8, 1))
            u2 = lattice.mod_lattice(z4, rng.uniform(-4, 4, 1))
            te, td = lattice.cof_roundtrip(chain, e1.point, e2.point,
                                           u1, u2, 1.0, 1.0, 0.0)
            cof_ok &= bool(np.allclose(te, td, atol=1e-9))
    ok = idem_ok and period_ok and moment_ok and cof_ok and pairs == 32
    _report(10, "lattice-suite", ok,
            f"sigma2(Z) = {est.value:.6f} +- {est.stderr:.6f} "
            f"(target 1/12 = {1 / 12:.6f}), {pairs} codeword pairs")


def test_c11_sdp_certification():
    rng = np.random.default_rng(909)
    worst_obj = 0.0
    worst_res = 0.0
    count = 0
    for k in range(50):
        kind = k % 3
        if kind == 0:
            n = int(rng.integers(1, 6))
            c = rng.uniform(0.5, 3.0, n)
            b = rng.uniform(0.5, 4.0, n)
            cons = [(np.diag((np.arange(n) == j).astype(float)), ">=", b[j])
                    for j in range(n)]
            inst = sdp.SdpInstance(n, np.diag(c), "min", cons)
            expected = float(c @ b)
        elif kind == 1:
            n = int(rng.integers(2, 6))
            c = rng.uniform(0.5, 3.0, n)
            inst = sdp.SdpInstance(n, np.diag(c), "min", [(np.eye(n), "=", 1.0)])
            expected = float(np.min(c))
        else:
            n = int(rng.integers(2, 6))
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            bound = float(rng.uniform(0.5, 2.0))
            inst = sdp.SdpInstance(n, np.eye(n), "min",
                                   [(numerics.outer(h), ">=", bound)])
            expected = bound / float(np.linalg.norm(h) ** 2)
        sol = sdp.solve_sdp(inst)
        assert sol.status == "optimal"
        worst_obj = max(worst_obj, abs(sol.objective_value - expected)
                        / max(1.0, abs(expected)))
        worst_res = max(worst_res, sol.primal_residual, sol.dual_residual,
                        sol.gap_residual)
        count += 1

    worst_embed = 0.0
    for _ in range(10):
        n = 3
        h1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        h2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        a1, a2 = numerics.outer(h1), numerics.outer(h2)
        sol = sdp.solve_sdp(sdp.SdpInstance(n, np.eye(n), "min",
                                            [(a1, ">=", 2.0), (a2, ">=", 3.0)]))
        emb = sdp.solve_sdp(sdp.SdpInstance(
            2 * n, numerics.real_embed(np.eye(n)) * 0.5, "min",
            [(numerics.real_embed(a1) * 0.5, ">=", 2.0),
             (numerics.real_embed(a2) * 0.5, ">=", 3.0)]))
        assert sol.status == emb.status == "optimal"
        worst_embed = max(worst_embed, abs(sol.objective_value - emb.objective_value)
                          / max(1.0, abs(sol.objective_value)))
    ok = (count == 50 and worst_obj <= 1e-6 and worst_res <= 1e-7
          and worst_embed <= 1e-6)
    _report(11, "sdp-certification", ok,
            f"worst objective error = {worst_obj:.2e}, worst residual = "
            f"{worst_res:.2e}, worst embed mismatch = {worst_embed:.2e}")
