"""Portfolio programs expressed as quadratic programs.

Three variants, all long-only over the budget simplex:

* minimum-risk:          min w' S w     s.t. 1'w = 1, w >= 0
* target-return:         additionally   mu'w >= beta  (or = beta when the
  return is pinned, used while tracing the minimum-variance set)
* risk/return tradeoff:  min (1-l) w'Sw - l mu'w   for l in [0, 1]

``S`` is whichever risk matrix the :class:`~portopt.risk_models.RiskModel`
carries, so the same code serves the variance and semivariance models.
The tradeoff program feeds the solver ``2(1-l)S`` to fit its
``0.5 x'Dx - d'x`` form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TargetOutOfRange
from .qp import QuadraticProgram, solve_qp
from .risk_models import RiskModel, quadratic_form

#: Diagonal shift applied when a quadratic term fails the PD check.
REGULARIZATION = 1e-11

#: Smallest eigenvalue accepted as strictly positive definite.  An
#: eigenvalue test instead of a determinant sign: determinants of large
#: sample covariance matrices underflow to zero.
PD_EIGENVALUE_MIN = 1e-12

#: Reporting precision for weights; never applied to the vector used in
#: return/risk computations (rounding alone is already a +/-1e-4 error).
REPORT_DECIMALS = 4


@dataclass(frozen=True)
class ObjectiveParams:
    """Knobs selecting which portfolio program to solve.

    ``lam`` trades return against risk (0 = pure risk minimization,
    1 = pure return maximization).  ``pin_return_equality`` turns the
    target-return constraint into an equality, which frontier tracing
    uses to follow the full minimum-variance set.
    """

    target_return: float | None = None
    lam: float = 0.0
    pin_return_equality: bool = False

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("lam must lie in [0, 1]")


@dataclass(frozen=True)
class Portfolio:
    """Simplex weights with their derived return and risk.

    ``sparse_view`` maps asset names to 4-decimal weights above the
    reporting threshold; ``weights`` keeps full precision.
    """

    assets: tuple[str, ...]
    weights: np.ndarray
    expected_return: float
    risk: float
    sparse_view: dict[str, float]

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        if (weights < 0).any():
            raise ValueError("short positions are not allowed")
        if abs(float(weights.sum()) - 1.0) > 1e-6:
            raise ValueError("weights must sum to one within 1e-6")


def regularize(sigma: np.ndarray) -> np.ndarray:
    """Diagonal-shift ``sigma`` when it is not strictly positive definite."""
    sigma = np.asarray(sigma, dtype=float)
    if np.linalg.eigvalsh(sigma).min() > PD_EIGENVALUE_MIN:
        return sigma
    return sigma + REGULARIZATION * np.eye(sigma.shape[0])


def _sparse_view(assets, weights: np.ndarray, report_threshold: float) -> dict[str, float]:
    """Asset names mapped to their rounded report weights above ``report_threshold``."""
    rounded = np.round(weights, REPORT_DECIMALS)
    return {name: float(rw) for name, rw in zip(assets, rounded) if rw > report_threshold}


def portfolio_from_weights(
    model: RiskModel, weights: np.ndarray, report_threshold: float = 0.0
) -> Portfolio:
    """Derive return, risk and the sparse report view from a weight vector.

    Solver output may carry negative roundoff in the 1e-8 range; it is
    clipped to zero without renormalizing.
    """
    w = np.asarray(weights, dtype=float)
    w = np.where(w < 0.0, 0.0, w)
    return Portfolio(
        assets=model.assets,
        weights=w,
        expected_return=float(w @ model.mu),
        risk=float(np.sqrt(max(quadratic_form(w, model.sigma), 0.0))),
        sparse_view=_sparse_view(model.assets, w, report_threshold),
    )


def _simplex_constraints(n: int):
    a_eq = np.ones((1, n))
    b_eq = np.ones(1)
    a_ineq = np.eye(n)
    b_ineq = np.zeros(n)
    return a_eq, b_eq, a_ineq, b_ineq


def markowitz_portfolio(model: RiskModel, params: ObjectiveParams | None = None) -> Portfolio:
    """Minimum-risk portfolio, optionally at a required return level.

    Without a target this is the global minimum-risk portfolio.  With one,
    the return constraint is ``mu'w >= beta`` by default and an equality
    when ``pin_return_equality`` is set.
    """
    params = params or ObjectiveParams()
    n = model.n_assets
    a_eq, b_eq, a_ineq, b_ineq = _simplex_constraints(n)

    if params.target_return is not None:
        lo, hi = float(model.mu.min()), float(model.mu.max())
        # dot-product roundoff can push a frontier endpoint past [lo, hi]
        margin = 1e-12 + 1e-9 * (hi - lo)
        if not lo - margin <= params.target_return <= hi + margin:
            raise TargetOutOfRange(params.target_return, lo, hi)
        target = min(max(params.target_return, lo), hi)
        if params.pin_return_equality:
            a_eq = np.vstack([a_eq, model.mu])
            b_eq = np.append(b_eq, target)
        else:
            a_ineq = np.vstack([model.mu, a_ineq])
            b_ineq = np.concatenate([[target], b_ineq])

    qp = QuadraticProgram(
        dmat=2.0 * regularize(model.sigma),
        dvec=np.zeros(n),
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )
    return portfolio_from_weights(model, solve_qp(qp).x)


def lambda_portfolio(model: RiskModel, params: ObjectiveParams) -> Portfolio:
    """Tradeoff portfolio min (1-l) w'Sw - l mu'w over the simplex.

    At l = 1 the quadratic term vanishes and the regularization shift
    takes over, so the program stays strictly convex and resolves to the
    highest-mean vertex.
    """
    n = model.n_assets
    a_eq, b_eq, a_ineq, b_ineq = _simplex_constraints(n)
    qp = QuadraticProgram(
        dmat=regularize(2.0 * (1.0 - params.lam) * model.sigma),
        dvec=params.lam * model.mu,
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )
    return portfolio_from_weights(model, solve_qp(qp).x)
