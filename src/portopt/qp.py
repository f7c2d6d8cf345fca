"""Convex quadratic programming with linear constraints.

Solves

    minimize    0.5 * x' D x - d' x
    subject to  A_eq x  = b_eq
                A_ineq x >= b_ineq

with D symmetric positive definite (callers regularize borderline PSD
matrices first; see :mod:`portopt.optimizers`).  The method is a dual
active-set iteration of the Goldfarb-Idnani family: start from the
unconstrained minimum, repeatedly add the most violated constraint, and
take primal/dual steps until primal feasibility.  No feasible starting
point is needed and infeasibility is detected as an unbounded dual step.

Everything is plain deterministic linear algebra: the same program solved
twice yields bit-identical results.  Tie-breaks pick the lowest
constraint index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, MaxIterations, NumericalBreakdown

#: Absolute slack below which a constraint counts as violated when
#: selecting the next one to add.  Tighter than the 1e-8 feasibility
#: contract so float noise near the boundary never loops.
_ADD_TOL = 1e-11

#: Dual direction entries below this cannot block a step.
_DROP_TOL = 1e-12

_EMPTY = np.zeros((0,))


def _empty_matrix() -> np.ndarray:
    return np.zeros((0, 0))


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data in the 0.5 x'Dx - d'x form.

    ``dmat`` is the quadratic term, ``dvec`` the linear term; equality
    rows come before inequality rows in the solver's global constraint
    numbering.
    """

    dmat: np.ndarray
    dvec: np.ndarray
    a_eq: np.ndarray = field(default_factory=_empty_matrix)
    b_eq: np.ndarray = field(default_factory=lambda: _EMPTY)
    a_ineq: np.ndarray = field(default_factory=_empty_matrix)
    b_ineq: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        n = np.asarray(self.dvec).shape[0]
        dmat = np.asarray(self.dmat, dtype=float)
        if dmat.shape != (n, n):
            raise ValueError("dmat must be square and match dvec")
        if not np.allclose(dmat, dmat.T, rtol=0.0, atol=1e-12):
            raise ValueError("dmat is not symmetric within 1e-12")
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        a_ineq = np.asarray(self.a_ineq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        b_ineq = np.asarray(self.b_ineq, dtype=float).reshape(-1)
        if a_eq.shape[0] != b_eq.shape[0] or a_ineq.shape[0] != b_ineq.shape[0]:
            raise ValueError("constraint rows do not match right-hand sides")
        object.__setattr__(self, "dmat", dmat)
        object.__setattr__(self, "dvec", np.asarray(self.dvec, dtype=float))
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ineq", a_ineq)
        object.__setattr__(self, "b_ineq", b_ineq)

    @property
    def n(self) -> int:
        return self.dvec.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Minimizer plus the working set that produced it.

    ``multipliers`` holds one Lagrange multiplier per global constraint
    (zero for inactive inequalities, sign-free for equalities).
    """

    x: np.ndarray
    objective: float
    active_set: tuple[int, ...]
    iterations: int
    multipliers: np.ndarray


def solve_qp(qp: QuadraticProgram) -> QpSolution:
    """Solve the program; see the module docstring for the method.

    Raises :class:`Infeasible` when no point satisfies the constraints,
    :class:`MaxIterations` past 100*N working-set changes, and
    :class:`NumericalBreakdown` on a non-PD quadratic term or a singular
    working-set system.
    """
    n = qp.n
    meq = qp.b_eq.shape[0]
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    m = b_all.shape[0]
    is_eq = np.arange(m) < meq

    try:
        chol = np.linalg.cholesky(qp.dmat)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("quadratic term is not positive definite") from None
    chol_inv = np.linalg.inv(chol)
    ginv = chol_inv.T @ chol_inv  # D^{-1}

    x = ginv @ qp.dvec
    # The working set, one position per active constraint in insertion
    # order: its global index, its sign (-1 for an equality added flipped),
    # its multiplier, and its signed normal as a column of ``normals``.
    active = np.zeros(0, dtype=int)
    signs = _EMPTY
    u = _EMPTY
    normals = np.zeros((n, 0))

    max_iter = 100 * max(n, 1)
    iterations = 0

    while True:
        # Most violated constraint outside the working set, lowest index first.
        slack = a_all @ x - b_all
        metric = np.where(is_eq, -np.abs(slack), slack)
        metric[active] = np.inf
        p = int(np.argmin(metric)) if m else -1
        if p < 0 or metric[p] >= -_ADD_TOL:
            break

        sign = -1.0 if (p < meq and slack[p] > 0.0) else 1.0
        nplus = sign * a_all[p]
        s_p = sign * slack[p]  # negative while violated
        u_plus = 0.0

        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} working-set steps")

            ginv_np = ginv @ nplus
            gin = float(nplus @ ginv_np)
            bmat = ginv @ normals
            try:
                r = np.linalg.solve(normals.T @ bmat, normals.T @ ginv_np)
            except np.linalg.LinAlgError:
                raise NumericalBreakdown("singular working-set system") from None
            z = ginv_np - bmat @ r

            ztn = float(z @ nplus)
            full_step_possible = ztn > 1e-10 * max(gin, np.finfo(float).tiny)

            # Blocking constraint for the dual variables (equalities never
            # drop); argmin keeps the lowest position among ties.
            ratios = np.divide(
                u, r, out=np.full(u.shape, np.inf), where=~is_eq[active] & (r > _DROP_TOL)
            )
            t1 = ratios.min(initial=np.inf)
            t2 = -s_p / ztn if full_step_possible else np.inf

            if not full_step_possible and t1 == np.inf:
                raise Infeasible("constraints admit no feasible point")

            step = min(t1, t2)
            if full_step_possible:
                x = x + step * z
                s_p = float(nplus @ x) - sign * b_all[p]
            u = u - step * r
            u_plus += step

            if full_step_possible and step == t2:
                active, signs, u = (
                    np.append(active, p), np.append(signs, sign), np.append(u, u_plus)
                )
                normals = np.column_stack([normals, nplus])
                break
            # Partial or pure dual step: drop the blocking constraint.
            blocking = int(np.argmin(ratios))
            active, signs, u = (np.delete(v, blocking) for v in (active, signs, u))
            normals = np.delete(normals, blocking, axis=1)

    x, u = _polish(qp, x, u, active, signs, normals, b_all, a_all, is_eq)

    multipliers = np.zeros(m)
    multipliers[active] = signs * u
    objective = 0.5 * float(x @ qp.dmat @ x) - float(qp.dvec @ x)
    return QpSolution(
        x=x,
        objective=objective,
        active_set=tuple(np.sort(active).tolist()),
        iterations=iterations,
        multipliers=multipliers,
    )


def _polish(qp, x, u, active, signs, normals, b_all, a_all, is_eq):
    """Re-solve the working-set KKT system from the original data.

    The iteration accumulates x through many small steps; on badly scaled
    programs (for example a 1e-11 ridge standing in for a vanished
    quadratic term) that drift can reach the 1e-6 scale.  One direct
    solve on the converged working set removes it.  The polished point is
    kept only if it stays feasible for the constraints left inactive and
    its inequality multipliers stay nonnegative.
    """
    q = active.size
    if q == 0:
        return x, u
    n = qp.n
    kkt = np.zeros((n + q, n + q))
    kkt[:n, :n] = qp.dmat
    kkt[:n, n:] = -normals
    kkt[n:, :n] = normals.T
    rhs = np.concatenate([qp.dvec, signs * b_all[active]])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return x, u
    x_new, u_new = solution[:n], solution[n:]
    slack = a_all @ x_new - b_all
    inactive = np.ones(b_all.shape[0], dtype=bool)
    inactive[active] = False
    ok = (
        (np.abs(slack[inactive & is_eq]) < 1e-8).all()
        and (slack[inactive & ~is_eq] > -1e-8).all()
        and (u_new[~is_eq[active]] >= -1e-8).all()
    )
    return (x_new, u_new) if ok else (x, u)
