import numpy as np
import pytest

from cofrelay import numerics, sdp
from cofrelay.errors import DimensionError


def solve(objective, constraints, n=None, sense="min"):
    n = n or len(objective)
    inst = sdp.SdpInstance(n, np.asarray(objective, dtype=complex), sense,
                           constraints)
    return sdp.solve_sdp(inst)


def rank_one_grid_oracle(h, bound, steps=120):
    """Independent check for min Tr(X) s.t. Tr(hh^H X) >= bound: scan scaled
    rank-one candidates X = s vv^H over a dense angle grid of unit v."""
    best = np.inf
    ts = np.linspace(0, np.pi / 2, steps)
    phis = np.linspace(0, 2 * np.pi, steps, endpoint=False)
    for t in ts:
        for p in phis:
            v = np.array([np.cos(t), np.sin(t) * np.exp(1j * p)])
            gain = abs(np.vdot(v, h)) ** 2
            if gain > 1e-12:
                best = min(best, bound / gain)
    return best


class TestSolveSdp:
    def test_decoupled_diagonal(self):
        sol = solve(np.eye(2), [(np.diag([1.0, 0.0]), ">=", 3.0),
                                (np.diag([0.0, 1.0]), ">=", 5.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(8.0, abs=1e-6)
        assert np.allclose(sol.X, np.diag([3.0, 5.0]), atol=1e-5)

    def test_trace_equality(self):
        sol = solve(np.eye(2), [(np.eye(2), "=", 1.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-7)

    def test_rank_one_constraint(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        h /= np.linalg.norm(h)
        oracle = rank_one_grid_oracle(h, 1.0)
        assert oracle == pytest.approx(1.0, abs=2e-3)  # unit h: optimum is hh^H
        sol = solve(np.eye(2), [(numerics.outer(h), ">=", 1.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sol.objective_value <= oracle + 1e-6

    def test_solution_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sol = solve(np.eye(n), [(numerics.outer(h), ">=", rng.uniform(0.5, 3))],
                        n=n)
            assert sol.status == "optimal"
            assert np.linalg.eigvalsh(sol.X)[0] >= -1e-9

    def test_weak_duality(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            cons = [(numerics.outer(h1), ">=", 2.0), (numerics.outer(h2), ">=", 3.0)]
            sol = solve(np.eye(3), cons)
            assert sol.status == "optimal"
            dual = 2.0 * sol.y[0] + 3.0 * sol.y[1]
            assert dual <= sol.objective_value + 1e-6

    def test_complex_real_consistency(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            h2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            a1, a2 = numerics.outer(h1), numerics.outer(h2)
            sol = solve(np.eye(3), [(a1, ">=", 2.0), (a2, ">=", 3.0)])
            sol_re = solve(numerics.real_embed(np.eye(3)) * 0.5,
                           [(numerics.real_embed(a1) * 0.5, ">=", 2.0),
                            (numerics.real_embed(a2) * 0.5, ">=", 3.0)], n=6)
            assert sol.status == sol_re.status == "optimal"
            assert sol.objective_value == pytest.approx(sol_re.objective_value,
                                                        abs=1e-6, rel=1e-6)

    def test_random_feasible_probes(self):
        rng = np.random.default_rng(4)
        h1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a1, a2 = numerics.outer(h1), numerics.outer(h2)
        sol = solve(np.eye(3), [(a1, ">=", 2.0), (a2, ">=", 3.0)])
        for _ in range(100):
            v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            probe = numerics.outer(v)
            scale = max(2.0 / numerics.trace_inner(a1, probe),
                        3.0 / numerics.trace_inner(a2, probe))
            assert sol.objective_value <= np.trace(probe).real * scale + 1e-6

    def test_infeasible(self):
        sol = solve(np.eye(2), [(np.eye(2), "=", -1.0)])
        assert sol.status == "infeasible"

    def test_unbounded(self):
        sol = solve(np.diag([1.0, -1.0]), [(np.diag([1.0, 0.0]), "=", 1.0)])
        assert sol.status == "unbounded"

    def test_maximize_sense(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        sol = solve(numerics.outer(h), [(np.eye(3), "=", 1.0)], sense="max")
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(np.linalg.norm(h) ** 2,
                                                    rel=1e-6)

    def test_le_relation(self):
        # min -X11 s.t. X11 <= 2 (and trace cap to keep X22 bounded)
        sol = solve(np.diag([-1.0, 0.0]), [(np.diag([1.0, 0.0]), "<=", 2.0),
                                           (np.diag([0.0, 1.0]), "<=", 1.0)])
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(-2.0, abs=1e-6)

    def test_validation(self):
        with pytest.raises(DimensionError):
            solve(np.eye(17), [], n=17)
        with pytest.raises(DimensionError):
            solve(np.eye(2), [(np.eye(3), ">=", 1.0)])
        with pytest.raises(DimensionError):
            solve(np.array([[0.0, 1.0], [0.0, 0.0]]), [])
        with pytest.raises(DimensionError):
            solve(np.eye(2), [(np.eye(2), ">=", 0.0)] * 9)
        with pytest.raises(ValueError):
            solve(np.eye(2), [(np.eye(2), "zz", 1.0)])

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        cons = [(numerics.outer(h), ">=", 2.0)]
        sol1 = solve(np.eye(4), cons)
        sol2 = solve(np.eye(4), cons)
        assert np.array_equal(sol1.X, sol2.X)
        assert sol1.objective_value == sol2.objective_value


class TestCertificationSuite:
    """50 analytic instances: objective error <= 1e-6, residuals in tolerance."""

    def test_fifty_instances(self):
        rng = np.random.default_rng(7)
        checked = 0
        worst = 0.0
        for k in range(50):
            kind = k % 3
            if kind == 0:  # diagonal inequalities
                n = int(rng.integers(1, 6))
                c = rng.uniform(0.5, 3.0, n)
                b = rng.uniform(0.5, 4.0, n)
                cons = [(np.diag((np.arange(n) == j).astype(float)), ">=", b[j])
                        for j in range(n)]
                expected = float(c @ b)
                sol = solve(np.diag(c), cons, n=n)
            elif kind == 1:  # trace equality with diagonal objective
                n = int(rng.integers(2, 6))
                c = rng.uniform(0.5, 3.0, n)
                sol = solve(np.diag(c), [(np.eye(n), "=", 1.0)], n=n)
                expected = float(np.min(c))
            else:  # complex rank-one: optimum bound / ||h||^2
                n = int(rng.integers(2, 6))
                h = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                bound = float(rng.uniform(0.5, 2.0))
                sol = solve(np.eye(n), [(numerics.outer(h), ">=", bound)], n=n)
                expected = bound / float(np.linalg.norm(h) ** 2)
            assert sol.status == "optimal"
            err = abs(sol.objective_value - expected) / max(1.0, abs(expected))
            worst = max(worst, err)
            assert err <= 1e-6
            assert sol.primal_residual <= 1e-8
            assert sol.dual_residual <= 1e-8
            assert sol.gap_residual <= 1e-7
            checked += 1
        assert checked == 50
