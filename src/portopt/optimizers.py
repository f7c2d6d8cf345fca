"""Portfolio programs expressed as quadratic programs.

Three variants, all long-only over the budget simplex:

* minimum-risk:          min w' S w     s.t. 1'w = 1, w >= 0
* target-return:         additionally   mu'w >= beta  (or = beta when the
  return is pinned, used while tracing the minimum-variance set)
* risk/return tradeoff:  min (1-l) w'Sw - l mu'w   for l in [0, 1]

``S`` is whichever risk matrix the :class:`~portopt.risk_models.RiskModel`
carries, so the same code serves the variance and semivariance models.
Every program built from a model hands the solver the same quadratic
term ``2S`` (diagonal-shifted when S is not strictly positive definite),
so a sweep over one model factors it once: for l < 1 the tradeoff
program is divided by 1-l, min w'Sw - (l/(1-l)) mu'w, which has the same
optimum.  At l = 1 the quadratic term vanishes and the solver gets the
regularization shift alone.

One model's critical line (:mod:`portopt.critical_line`) is kept:
:func:`_line` traces it, and each frontier sweep calls it once.  A solve
on that model object is seeded with the bounds that its program's
segment holds: the segment of a pinned return, of the tradeoff t = l /
(1 - l) (t = +inf at l = 1), of t = 0 for the minimum-risk program, and
for a ``>=`` return the higher of its return's segment and t = 0's, with
the return row only when that is the return's segment: at t = 0's the
row is slack.  The solver pivots from the seed to the optimum and
certifies it, so the model is matched by identity; a solve on any other
model object starts cold.  A line whose corners are not finite (means so
large that the pass overflows) raises
:class:`~portopt.errors.NumericalBreakdown`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .critical_line import CriticalLine, critical_line
from .errors import NumericalBreakdown, TargetOutOfRange
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

#: The model whose critical line is kept, and that line.
_kept: tuple[RiskModel, CriticalLine] | None = None


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
    return _shifted(sigma, np.linalg.eigvalsh(sigma).min())


def _shifted(dmat: np.ndarray, min_eigenvalue: float) -> np.ndarray:
    """``dmat``, diagonal-shifted unless ``min_eigenvalue`` (its smallest
    eigenvalue) shows it strictly positive definite."""
    if min_eigenvalue > PD_EIGENVALUE_MIN:
        return dmat
    return dmat + REGULARIZATION * np.eye(dmat.shape[0])


def _risk_term(model: RiskModel) -> np.ndarray:
    """The quadratic term ``2S`` that every program of ``model`` hands the
    solver (except the tradeoff at l = 1), so a sweep factors it once."""
    return 2.0 * _shifted(model.sigma, model.min_eigenvalue)


def _line(model: RiskModel) -> CriticalLine:
    """``model``'s critical line, traced unless ``model`` is the kept model
    object; it is kept, so later solves on ``model`` start from their
    segments."""
    global _kept
    kept = _kept  # read once: another thread may replace it
    if kept is None or kept[0] is not model:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            line = critical_line(_risk_term(model), model.mu)
        # every corner finite; a pass that reached the end closes on -inf
        for ends in (line.t_low, line.return_low):
            if not (np.isfinite(ends[:-1]).all() and (ends[-1:] < np.inf).all()):
                raise NumericalBreakdown("the critical line overflows")
        kept = _kept = (model, line)
    return kept[1]


def _sparse_view(assets, weights: np.ndarray, report_threshold: float) -> dict[str, float]:
    """Asset names mapped to their rounded report weights above
    ``report_threshold``, in asset order; only those weights are visited."""
    rounded = np.round(weights, REPORT_DECIMALS)
    above = np.flatnonzero(rounded > report_threshold)
    return dict(zip([assets[i] for i in above.tolist()], rounded[above].tolist()))


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


def _solve(
    model: RiskModel, dmat: np.ndarray, dvec: np.ndarray, target: float, t: float
) -> Portfolio:
    """Build, solve and report every portfolio program: min 0.5 w'(dmat)w -
    dvec'w subject to the budget, a return row when ``target`` is finite
    (pinned when ``t`` is -inf, ``mu'w >= target`` otherwise) and the n
    bounds, in that order.  Its optimum is the lowest point of ``model``'s
    critical line with a return of at least ``target`` and a tradeoff of at
    least ``t``; when that line is kept, the solve is seeded with the bounds
    that the point's segment holds and the return inequality, if any, where
    it binds: when the return's segment comes no later than the tradeoff's.
    """
    n = model.n_assets
    g = 1 if target == -np.inf else 2  # the general rows: budget, then return
    general, rhs = np.vstack([np.ones(n), model.mu])[:g], np.array([1.0, target])[:g]
    meq = g if t == -np.inf else 1
    a_ineq = np.eye(g - meq + n, n, meq - g)  # bounds under the return row: no n x n copy
    a_ineq[: g - meq] = general[meq:]
    qp = QuadraticProgram(
        dmat=dmat,
        dvec=dvec,
        a_eq=general[:meq],
        b_eq=rhs[:meq],
        a_ineq=a_ineq,
        b_ineq=np.concatenate([rhs[meq:], np.zeros(n)]),
    )
    start = ()
    kept = _kept
    if kept is not None and kept[0] is model:
        line = kept[1]
        k_return, k_t = line.segment_at_return(target), line.segment_at(t)
        k = min(k_return, k_t)
        if k < len(line.free):  # the return inequality where it binds, and the held bounds
            returns = np.arange(meq, g if k_return <= k_t else meq)
            start = np.concatenate([returns, g + np.delete(np.arange(n), line.free[k])])
    return portfolio_from_weights(model, solve_qp(qp, start=start).x)


def markowitz_portfolio(model: RiskModel, params: ObjectiveParams | None = None) -> Portfolio:
    """Minimum-risk portfolio, optionally at a required return level.

    Without a target this is the global minimum-risk portfolio.  With one,
    the return constraint is ``mu'w >= beta`` by default and an equality
    when ``pin_return_equality`` is set.
    """
    params = params or ObjectiveParams()
    # the least return and tradeoff of the optimum's point on the line
    target, t = -np.inf, 0.0
    if params.target_return is not None:
        lo, hi = float(model.mu.min()), float(model.mu.max())
        # dot-product roundoff can push a frontier endpoint past [lo, hi]
        margin = 1e-12 + 1e-9 * (hi - lo)
        if not lo - margin <= params.target_return <= hi + margin:
            raise TargetOutOfRange(params.target_return, lo, hi)
        target = min(max(params.target_return, lo), hi)
        if params.pin_return_equality:
            t = -np.inf
    return _solve(model, _risk_term(model), np.zeros(model.n_assets), target, t)


def lambda_portfolio(model: RiskModel, params: ObjectiveParams) -> Portfolio:
    """Tradeoff portfolio min (1-l) w'Sw - l mu'w over the simplex.

    For l < 1 the solver gets the program divided by 1-l, with
    :func:`markowitz_portfolio`'s quadratic term.  At l = 1 the quadratic
    term vanishes and the regularization shift takes over, so the program
    stays strictly convex and resolves to the highest-mean vertex.
    """
    lam = params.lam
    if lam == 1.0:
        return _solve(model, REGULARIZATION * np.eye(model.n_assets), model.mu, -np.inf, np.inf)
    t = lam / (1.0 - lam)
    return _solve(model, _risk_term(model), t * model.mu, -np.inf, t)
