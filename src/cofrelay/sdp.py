"""Self-contained dense SDP solver for small Hermitian problems.

Solves  min/max Tr(C X)  s.t.  Tr(A_k X) {>=,=,<=} b_k,  X >= 0 (PSD)
with Hermitian data of dimension N <= 16 and at most 8 constraints.

The complex instance is mapped to its real symmetric embedding and handed to
a primal-dual interior-point method (HKM search direction with a Mehrotra
predictor-corrector step). Inequalities carry explicit nonnegative slacks
that the method treats as a diagonal cone block. Sizes are tiny, so the
implementation favors robustness over asymptotic tricks: dense inverses,
eigenvalue-based step lengths, LU on the Schur complement.
"""

from dataclasses import dataclass, field
import math

import numpy as np

from . import numerics
from .errors import (DimensionError, InfeasibleError, SolverFailureError,
                     UnboundedError)

MAX_DIM = 16
MAX_CONSTRAINTS = 8
# an optimal solution meets these KKT tolerances on the original complex
# data within MAX_ITER interior-point iterations
TOL_FEAS = 1e-8
TOL_GAP = 1e-7
TOL_PSD = 1e-9
MAX_ITER = 200

GE, EQ, LE = ">=", "=", "<="


@dataclass
class SdpInstance:
    """A small Hermitian SDP: objective matrix, sense, and trace constraints.

    constraints is a list of (A, relation, b) triples with A Hermitian,
    relation one of ">=", "=", "<=" and b real.
    """
    dimension: int
    objective: np.ndarray
    sense: str = "min"
    constraints: list = field(default_factory=list)

    def validate(self):
        n = self.dimension
        if n < 1 or n > MAX_DIM:
            raise DimensionError(f"dimension {n} outside supported range [1, {MAX_DIM}]")
        if len(self.constraints) > MAX_CONSTRAINTS:
            raise DimensionError(f"{len(self.constraints)} constraints exceed cap {MAX_CONSTRAINTS}")
        if self.sense not in ("min", "max"):
            raise ValueError(f"unknown sense {self.sense!r}")
        c = np.asarray(self.objective)
        if c.shape != (n, n):
            raise DimensionError(f"objective shape {c.shape} != ({n}, {n})")
        if not numerics.is_hermitian(c):
            raise DimensionError("objective matrix is not Hermitian")
        for idx, (a, rel, b) in enumerate(self.constraints):
            a = np.asarray(a)
            if a.shape != (n, n):
                raise DimensionError(f"constraint {idx} shape {a.shape} != ({n}, {n})")
            if not numerics.is_hermitian(a):
                raise DimensionError(f"constraint {idx} matrix is not Hermitian")
            if rel not in (GE, EQ, LE):
                raise ValueError(f"constraint {idx} relation {rel!r} not one of >=, =, <=")
            if not np.isfinite(b):
                raise ValueError(f"constraint {idx} bound {b} is not finite")


@dataclass
class SdpSolution:
    """Certified solution of an SdpInstance."""
    X: np.ndarray
    objective_value: float
    status: str            # optimal | infeasible | unbounded | numerical-failure
    primal_residual: float
    dual_residual: float
    gap_residual: float
    y: np.ndarray          # dual multipliers, one per constraint
    iterations: int


def _max_step_psd(v_chol, d):
    """Largest alpha with V + alpha*D >= 0, given the Cholesky factor of V."""
    t = np.linalg.solve(v_chol, d)
    s = np.linalg.solve(v_chol, t.T)
    s = 0.5 * (s + s.T)
    lam = np.linalg.eigvalsh(s)[0]
    if lam >= 0.0:
        return np.inf
    return -1.0 / lam


def _max_step_vec(v, d):
    neg = d < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-v[neg] / d[neg]))


def _certify_infeasible(a_stack, ineq, b, y):
    """Farkas check: y with sum(y_k A_k) <= 0, y_I >= 0, b.y > 0."""
    ynorm = np.linalg.norm(y)
    if ynorm <= 0:
        return False
    yn = y / ynorm
    ray = np.tensordot(yn, a_stack, axes=1)
    return (np.linalg.eigvalsh(ray)[-1] <= 1e-7
            and np.all(yn[ineq] >= -1e-9)
            and float(b @ yn) > 1e-9)


def _certify_unbounded(a_stack, ineq, c, x):
    """Recession ray check: direction D >= 0 with A_k.D {>=,=} 0 and C.D < 0."""
    xnorm = np.linalg.norm(x)
    if xnorm <= 0:
        return False
    xn = x / xnorm
    ax = a_stack.reshape(len(a_stack), -1) @ xn.reshape(-1)
    return (np.all(ax[ineq] >= -1e-7)
            and np.all(np.abs(ax[~ineq]) <= 1e-7)
            and float(np.tensordot(c, xn)) < -1e-9)


def _ipm(c, a_list, ineq, b, tol_feas, tol_gap, max_iter):
    """Infeasible-start HKM predictor-corrector on real symmetric data.

    Returns (status, X, y, iterations). ``ineq`` is a boolean mask marking
    which constraints carry a nonnegative slack (>=); the rest are
    equalities.
    """
    n = c.shape[0]
    m = len(a_list)

    if m == 0:
        lam = np.linalg.eigvalsh(c)[0] if n else 0.0
        if lam < -1e-12 * (1 + np.linalg.norm(c)):
            return "unbounded", np.zeros((n, n)), np.zeros(0), 0
        return "optimal", np.zeros((n, n)), np.zeros(0), 0

    n_ineq = int(np.sum(ineq))
    bmax = max(1.0, float(np.max(np.abs(b))))
    denom = n + n_ineq
    a_stack = np.stack(a_list)
    a_flat = a_stack.reshape(m, -1)

    def ops_dot(mat):
        return a_flat @ mat.reshape(-1)

    tau_p = max(10.0, math.sqrt(n) * bmax)
    tau_d = max(10.0, float(np.linalg.norm(c)) / math.sqrt(n))
    x = tau_p * np.eye(n)
    s = np.where(ineq, tau_p, 0.0)
    z = tau_d * np.eye(n)
    y = np.where(ineq, tau_d, 0.0)
    y_safe = lambda: np.where(ineq, y, 1.0)

    status = "numerical-failure"
    it = 0
    for it in range(1, max_iter + 1):
        ax = ops_dot(x)
        rp = b + s - ax
        rd = c - z - np.tensordot(y, a_stack, axes=1)
        mu = (float(np.tensordot(x, z)) + float(s[ineq] @ y[ineq])) / denom

        pres = float(np.max(np.abs(rp))) / bmax
        dres = float(np.linalg.norm(rd)) / (1.0 + float(np.linalg.norm(c)))
        obj_p = float(np.tensordot(c, x))
        obj_d = float(b @ y)
        gap = abs(obj_p - obj_d) / (1.0 + abs(obj_p) + abs(obj_d))
        if pres <= tol_feas and dres <= tol_feas and gap <= tol_gap:
            status = "optimal"
            break

        if (obj_d > 1e7 * bmax or np.linalg.norm(y) > 1e8) \
                and _certify_infeasible(a_stack, ineq, b, y):
            return "infeasible", x, y, it
        if (obj_p < -1e7 * (1.0 + abs(obj_d))) \
                and _certify_unbounded(a_stack, ineq, c, x):
            return "unbounded", x, y, it

        try:
            lx = np.linalg.cholesky(x)
            lz = np.linalg.cholesky(z)
            zi = np.linalg.inv(z)
        except np.linalg.LinAlgError:
            break

        # Schur complement M_kl = Tr(A_k X A_l Z^-1) (+ s/y on inequality diagonal).
        w = np.einsum("ij,ljk,km->lim", x, a_stack, zi, optimize=True)
        schur = a_flat @ w.reshape(m, -1).T
        schur = schur + np.diag(np.where(ineq, s / y_safe(), 0.0))

        xrz = x @ rd @ zi
        q = ops_dot(xrz)
        u = ops_dot(zi)

        def schur_solve(rhs):
            # Redundant (e.g. proportional) constraints make the Schur
            # complement singular; a scale-aware ridge keeps Newton going.
            try:
                return np.linalg.solve(schur, rhs)
            except np.linalg.LinAlgError:
                pass
            reg = 1e-12 * max(1.0, abs(float(np.trace(schur))) / m)
            try:
                return np.linalg.solve(schur + reg * np.eye(m), rhs)
            except np.linalg.LinAlgError:
                return np.linalg.lstsq(schur, rhs, rcond=None)[0]

        def directions(sigma_mu, corr_mat, corr_slack):
            # From A_k . dX - ds_k = rp_k with
            #   dX = sigma*mu*Zi - X - X dZ Zi - corr_mat,
            #   ds = sigma*mu/y - s - corr_slack - (s/y) dy.
            rhs = rp - sigma_mu * u + ax + q + ops_dot(corr_mat)
            rhs = rhs + np.where(ineq, sigma_mu / y_safe() - s - corr_slack, 0.0)
            dy = schur_solve(rhs)
            dz = rd - np.tensordot(dy, a_stack, axes=1)
            dx = sigma_mu * zi - x - x @ dz @ zi - corr_mat
            dx = 0.5 * (dx + dx.T)
            ds = np.where(ineq,
                          sigma_mu / y_safe() - s - corr_slack - (s / y_safe()) * dy,
                          0.0)
            return dx, dy, dz, ds

        # Predictor (affine scaling, sigma = 0).
        dxa, dya, dza, dsa = directions(0.0, np.zeros((n, n)), np.zeros(m))
        ap = min(1.0, 0.99 * min(_max_step_psd(lx, dxa),
                                 _max_step_vec(s[ineq], dsa[ineq]) if n_ineq else np.inf))
        ad = min(1.0, 0.99 * min(_max_step_psd(lz, dza),
                                 _max_step_vec(y[ineq], dya[ineq]) if n_ineq else np.inf))
        mu_aff = (float(np.tensordot(x + ap * dxa, z + ad * dza))
                  + float((s + ap * dsa)[ineq] @ (y + ad * dya)[ineq])) / denom
        sigma = min(0.99, max(1e-8, (max(mu_aff, 0.0) / mu) ** 3))

        # Corrector with the second-order complementarity term.
        corr_mat = dxa @ dza @ zi
        corr_slack = np.where(ineq, dsa * dya / y_safe(), 0.0)
        dx, dy, dz, ds = directions(sigma * mu, corr_mat, corr_slack)

        ap = min(1.0, 0.98 * min(_max_step_psd(lx, dx),
                                 _max_step_vec(s[ineq], ds[ineq]) if n_ineq else np.inf))
        ad = min(1.0, 0.98 * min(_max_step_psd(lz, dz),
                                 _max_step_vec(y[ineq], dy[ineq]) if n_ineq else np.inf))
        if not (np.isfinite(ap) and np.isfinite(ad)) or ap <= 1e-14 or ad <= 1e-14:
            break
        x = x + ap * dx
        s = s + ap * ds
        z = z + ad * dz
        y = y + ad * dy
        s[~ineq] = 0.0

    if status != "optimal":
        if _certify_infeasible(a_stack, ineq, b, y):
            return "infeasible", x, y, it
        if _certify_unbounded(a_stack, ineq, c, x):
            return "unbounded", x, y, it
    return status, x, y, it


def solve_sdp(inst: SdpInstance) -> SdpSolution:
    """Solve a small Hermitian SDP to the KKT tolerances TOL_FEAS, TOL_GAP
    and TOL_PSD.

    Outcomes (optimal / infeasible / unbounded / numerical-failure) are
    reported in the returned status; residuals are evaluated on the original
    complex data. Deterministic for fixed input.
    """
    inst.validate()
    n = inst.dimension
    flip = -1.0 if inst.sense == "max" else 1.0

    c_cx = flip * numerics.hermitian(inst.objective)
    a_cx, rels, b = [], [], []
    for a, rel, bk in inst.constraints:
        a = numerics.hermitian(a)
        if rel == LE:
            a, bk, rel = -a, -bk, GE
        a_cx.append(a)
        rels.append(rel)
        b.append(float(bk))
    b = np.asarray(b, dtype=float)
    ineq = np.asarray([r == GE for r in rels], dtype=bool)

    # Per-constraint scaling keeps the Schur complement well conditioned.
    c_scale = max(1.0, float(np.linalg.norm(c_cx)))
    a_scales = np.asarray([max(1e-12, float(np.linalg.norm(a))) for a in a_cx])

    # Half-scaled real embedding preserves objective and constraint values.
    c_re = numerics.real_embed(c_cx) * (0.5 / c_scale)
    a_re = [numerics.real_embed(a) * (0.5 / sc) for a, sc in zip(a_cx, a_scales)]
    b_sc = b / a_scales if len(b) else b

    # Run the interior point loop tighter than the declared tolerances so the
    # unscaled complex-side residuals still clear them.
    status, x_re, y_sc, iters = _ipm(c_re, a_re, ineq, b_sc, TOL_FEAS * 0.05,
                                     TOL_GAP * 0.05, MAX_ITER)

    x_cx = numerics.complex_from_embedding(x_re)
    y = y_sc * (c_scale / a_scales) if len(b) else y_sc

    obj_min = numerics.trace_inner(c_cx, x_cx) if n else 0.0
    obj_signed = flip * obj_min

    pres = 0.0
    for a, rel, bk, is_ineq in zip(a_cx, rels, b, ineq):
        val = numerics.trace_inner(a, x_cx)
        viol = max(0.0, bk - val) if is_ineq else abs(val - bk)
        pres = max(pres, viol / (1.0 + abs(bk)))
    z_cx = c_cx.astype(complex).copy()
    for yk, a in zip(y, a_cx):
        z_cx -= yk * a
    lam_z = float(np.linalg.eigvalsh(z_cx)[0]) if n else 0.0
    dres = max(0.0, -lam_z) / (1.0 + float(np.linalg.norm(c_cx)))
    dual_obj = float(b @ y) if len(b) else 0.0
    gap = abs(obj_min - dual_obj) / (1.0 + abs(obj_min) + abs(dual_obj))

    if status in ("optimal", "numerical-failure"):
        # The loop aims below the declared tolerances; accept any iterate
        # that meets them on the original data, stall or not.
        if (pres <= TOL_FEAS and dres <= TOL_FEAS and gap <= TOL_GAP
                and float(np.linalg.eigvalsh(x_cx)[0]) >= -TOL_PSD):
            status = "optimal"
        else:
            status = "numerical-failure"

    return SdpSolution(X=x_cx, objective_value=obj_signed, status=status,
                       primal_residual=pres, dual_residual=dres, gap_residual=gap,
                       y=np.asarray(y, dtype=float), iterations=iters)


def assert_optimal(sol: SdpSolution, context: str = "SDP"):
    """Raise the error matching a non-optimal solver status."""
    if sol.status == "optimal":
        return
    if sol.status == "infeasible":
        raise InfeasibleError(f"{context}: certified infeasible")
    if sol.status == "unbounded":
        raise UnboundedError(f"{context}: certified unbounded")
    raise SolverFailureError(f"{context}: solver status {sol.status} after "
                             f"{sol.iterations} iterations")
