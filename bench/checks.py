"""Output checks: QP certificates, portfolio and GA invariants, references.

Each ``*_problems`` function returns a list of human-readable problems,
empty when the output passes.
"""

from __future__ import annotations

import numpy as np

from portopt.market import MarketParams
from portopt.optimizers import ObjectiveParams, Portfolio, lambda_portfolio, regularize
from portopt.qp import QpSolution, QuadraticProgram, solve_qp
from portopt.risk_models import RiskModel

#: Scaled tolerance of every KKT condition.
KKT_TOL = 1e-8

#: Absolute slack allowed when a GA fitness is compared with its reference
#: optimum; fitness values are of order 1e-4, so this is 1e-6 bp.
REFERENCE_SLACK = 1e-10

_TINY = np.finfo(float).tiny


def kkt_residual(qp: QuadraticProgram, solution: QpSolution) -> float:
    """Largest scaled violation of the KKT conditions of ``solution``.

    Built from the solver's own multipliers for the program
    ``min 0.5 x'Dx - d'x  s.t.  A_eq x = b_eq,  A_ineq x >= b_ineq``:

    * stationarity ``Dx - d - A'y = 0``, scaled by ``|D||x| + |d| + |A'||y|``;
    * primal feasibility of every row, scaled by
      ``|a||x| + |b| + max|a| max|x|``;
    * dual sign ``y_ineq >= 0`` and complementarity ``y_i * slack_i = 0``,
      with multipliers scaled by the gradient over the largest row entry.
    """
    x = np.asarray(solution.x, dtype=float)
    y = np.asarray(solution.multipliers, dtype=float)
    meq = qp.b_eq.shape[0]
    a = np.vstack([qp.a_eq, qp.a_ineq])
    b = np.concatenate([qp.b_eq, qp.b_ineq])

    gradient = qp.dmat @ x - qp.dvec
    stat_scale = float(
        (np.abs(qp.dmat) @ np.abs(x) + np.abs(qp.dvec) + np.abs(a.T) @ np.abs(y)).max()
    )
    stationarity = float(np.abs(gradient - a.T @ y).max()) / max(stat_scale, _TINY)
    if not b.size:
        return stationarity

    slack = a @ x - b
    row_norm = np.abs(a).max(axis=1) * np.abs(x).max(initial=0.0)
    row_scale = np.maximum(np.abs(a) @ np.abs(x) + np.abs(b) + row_norm, _TINY)
    primal_eq = np.abs(slack[:meq]) / row_scale[:meq]
    primal_ineq = np.maximum(-slack[meq:], 0.0) / row_scale[meq:]
    y_scale = max(stat_scale / max(float(np.abs(a).max()), _TINY), _TINY)
    dual = np.maximum(-y[meq:], 0.0) / y_scale
    complementarity = np.abs(y[meq:] * slack[meq:]) / (y_scale * row_scale[meq:])
    return max(
        stationarity,
        float(primal_eq.max(initial=0.0)),
        float(primal_ineq.max(initial=0.0)),
        float(dual.max(initial=0.0)),
        float(complementarity.max(initial=0.0)),
    )


def qp_problems(qp: QuadraticProgram, solution: QpSolution) -> tuple[float, list[str]]:
    residual = kkt_residual(qp, solution)
    if residual <= KKT_TOL:
        return residual, []
    return residual, [f"KKT residual {residual:.3g} exceeds {KKT_TOL:g}"]


def portfolio_problems(
    model: RiskModel, portfolio: Portfolio, params: ObjectiveParams | None = None
) -> list[str]:
    """Simplex membership, and the target return when one was asked for."""
    w = np.asarray(portfolio.weights, dtype=float)
    problems = []
    if (w < 0.0).any():
        problems.append("negative weight")
    if abs(float(w.sum()) - 1.0) > KKT_TOL:
        problems.append(f"weights sum to {float(w.sum())!r}")
    target = None if params is None else params.target_return
    if target is not None:
        mu = model.mu
        goal = min(max(target, float(mu.min())), float(mu.max()))
        tol = KKT_TOL * (float(np.abs(mu) @ np.abs(w)) + abs(goal))
        achieved = portfolio.expected_return
        if params.pin_return_equality and abs(achieved - goal) > tol:
            problems.append(f"return {achieved!r} misses pinned target {goal!r}")
        if not params.pin_return_equality and achieved < goal - tol:
            problems.append(f"return {achieved!r} below target {goal!r}")
    return problems


def trace_problems(best_per_generation: np.ndarray, generations: int) -> list[str]:
    best = np.asarray(best_per_generation, dtype=float)
    problems = []
    if best.shape != (generations,):
        problems.append(f"trace has {best.shape} entries, expected {generations}")
    if (np.diff(best) < 0.0).any():
        problems.append("best-fitness trace decreases")
    return problems


def bound_problems(best: float, reference: float) -> list[str]:
    if best > reference + REFERENCE_SLACK:
        return [f"GA fitness {best!r} beats its reference optimum {reference!r}"]
    return []


# --- reference optima ----------------------------------------------------------


def continuous_reference(model: RiskModel, lam: float) -> float:
    """Exact tradeoff optimum ``lam mu'w - (1-lam) w'Sw`` over the simplex."""
    w = lambda_portfolio(model, ObjectiveParams(lam=lam)).weights
    return float(lam * (w @ model.mu) - (1.0 - lam) * (w @ model.sigma @ w))


def integer_relaxation(
    model: RiskModel, market: MarketParams, lam: float
) -> tuple[float, QuadraticProgram, QpSolution]:
    """Continuous relaxation of the integer-GA fitness, an upper bound on it.

    In the implied weights ``w = n p / K`` the fitness is
    ``lam (c'w + Rf) - (1-lam) w'Sw`` with
    ``c = mu - (1 + T mu) cs / T - Rf (1 + cb)``: the gross return, the
    amortized sell cost and the risk-free income on the residual are all
    linear.  Every integer purchase with a nonnegative residual lies in
    ``{w >= 0, sum w (1 + cb) <= 1}``, so the concave program's maximum
    bounds the GA from above.
    """
    n = model.n_assets
    cb, cs = market.buy_cost_rates, market.sell_cost_rates
    rf, horizon = market.risk_free_rate, market.horizon
    c = model.mu - (1.0 + horizon * model.mu) * cs / horizon - rf * (1.0 + cb)
    qp = QuadraticProgram(
        dmat=regularize(2.0 * (1.0 - lam) * model.sigma),
        dvec=lam * c,
        a_ineq=np.vstack([-(1.0 + cb), np.eye(n)]),
        b_ineq=np.concatenate([[-1.0], np.zeros(n)]),
    )
    solution = solve_qp(qp)
    w = solution.x
    bound = float(lam * (c @ w + rf) - (1.0 - lam) * (w @ model.sigma @ w))
    return bound, qp, solution
