"""Frontier sweeps, opportunity-set geometry and out-of-sample fit.

Every sweep point is one solve of its own program.  Each sweep first has
:mod:`portopt.optimizers` keep its model's critical line, so the sweeps
of one model share one pass down it and every point's solve starts from
its program's segment (see :mod:`portopt.critical_line`).

Sweep ranges mirror the reference behavior: target returns run from
``min(mu) + |min(mu)| * 0.005`` to ``max(mu) - |max(mu)| * 0.005``, so both
ends move inward whatever the signs of the means; every swept parameter
is rounded to 6 decimals and then clipped into ``[min(mu), max(mu)]``, and
the default point counts are 40 for frontiers, 30 for two-asset curves
and 10000 for random clouds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AssetAlignmentError, QpError
from .market import IntegerSolution
from .market_data import ReturnsMatrix
from .optimizers import ObjectiveParams, Portfolio, _line, lambda_portfolio, markowitz_portfolio
from .risk_models import RiskModel, mean_returns, quadratic_form

RANGE_CLIP = 0.005
PARAMETER_DECIMALS = 6


@dataclass(frozen=True)
class FrontierPoint:
    """The swept parameter and the portfolio it produced; the point's risk
    and expected return are the portfolio's own."""

    parameter: float
    portfolio: Portfolio | IntegerSolution

    @property
    def risk(self) -> float:
        return self.portfolio.risk

    @property
    def expected_return(self) -> float:
        return self.portfolio.expected_return


@dataclass(frozen=True)
class FitReport:
    """Expected-versus-realized comparison over frontier portfolios.

    ``pairs`` holds per-point (expected, realized) daily returns.  The
    mean error averages |expected - realized|; the under-estimation error
    averages expected - realized over the points where the expectation
    was not met.  Annual figures are computed on annualized pairs
    (expected x expectation periods, realized x evaluation periods), so
    they are not plain multiples of the daily figures.
    """

    pairs: tuple[tuple[float, float], ...]
    mean_error: float
    mean_underestimation_error: float
    annual_mean_error: float
    annual_mean_underestimation_error: float


def _check_points(n_points: int) -> None:
    if n_points < 1:
        raise ValueError(f"a sweep needs at least one point, not {n_points}")


def _target_range(mu: np.ndarray, n_points: int, low: float | None = None) -> np.ndarray:
    _check_points(n_points)
    mu_min, mu_max = float(mu.min()), float(mu.max())
    lo = low if low is not None else mu_min + abs(mu_min) * RANGE_CLIP
    hi = mu_max - abs(mu_max) * RANGE_CLIP
    return np.clip(np.round(np.linspace(lo, hi, n_points), PARAMETER_DECIMALS), mu_min, mu_max)


def _lambda_grid(n_points: int) -> np.ndarray:
    """Tradeoff values for a lam sweep: evenly spaced over [0, 1], rounded."""
    _check_points(n_points)
    return np.round(np.linspace(0.0, 1.0, n_points), PARAMETER_DECIMALS)


def efficient_frontier(model: RiskModel, n_points: int = 40) -> list[FrontierPoint]:
    """Minimum-risk set traced over equally spaced pinned target returns."""
    if model.n_assets < 2:
        raise ValueError("frontier needs at least 2 assets")
    targets = _target_range(model.mu, n_points)
    _line(model)
    points = []
    for target in targets:
        try:
            p = markowitz_portfolio(
                model, ObjectiveParams(target_return=float(target), pin_return_equality=True)
            )
        except QpError as exc:
            raise type(exc)(f"target {target}: {exc}") from exc
        points.append(FrontierPoint(float(target), p))
    return points


def lambda_frontier(model: RiskModel, n_points: int = 40) -> list[FrontierPoint]:
    """Efficient frontier from the tradeoff program, lam swept over [0, 1]."""
    if model.n_assets < 2:
        raise ValueError("frontier needs at least 2 assets")
    lams = _lambda_grid(n_points)
    _line(model)
    points = []
    for lam in lams:
        p = lambda_portfolio(model, ObjectiveParams(lam=float(lam)))
        points.append(FrontierPoint(float(lam), p))
    return points


def _risk_return(weights: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """``(count, 2)`` array of (risk, expected return) rows, one per weight row."""
    variances = quadratic_form(weights, sigma)
    return np.column_stack([np.sqrt(np.maximum(variances, 0.0)), weights @ mu])


def two_asset_curve(mu: np.ndarray, sigma: np.ndarray, n_points: int = 30) -> np.ndarray:
    """Opportunity-set curve for one asset pair.

    Sweeps the first asset's weight from 0 to 1 and returns an
    ``(n_points, 2)`` array of (risk, expected return) rows.
    """
    _check_points(n_points)
    mu = np.asarray(mu, dtype=float).reshape(2)
    sigma = np.asarray(sigma, dtype=float).reshape(2, 2)
    w_a = np.linspace(0.0, 1.0, n_points)
    return _risk_return(np.column_stack([w_a, 1.0 - w_a]), mu, sigma)


def random_simplex_weights(
    n_assets: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Stick-breaking weight samples: each coordinate uniform within the
    mass still unassigned, the last taking the remainder, then a random
    permutation of coordinates.

    Intentionally not uniform on the simplex; the density concentrates
    exactly where the opportunity-set plots show it.
    """
    weights = np.empty((count, n_assets))
    remaining = np.ones(count)
    for j in range(n_assets - 1):
        draw = rng.uniform(0.0, remaining)
        weights[:, j] = draw
        remaining = remaining - draw
    weights[:, n_assets - 1] = remaining
    return rng.permuted(weights, axis=1)


def random_portfolio_cloud(
    model: RiskModel, count: int = 10000, seed: int = 0
) -> np.ndarray:
    """Random opportunity-set points as an ``(count, 2)`` (risk, return)
    array, deterministic under ``seed``."""
    if count < 1:
        raise ValueError("count must be at least 1")
    weights = random_simplex_weights(model.n_assets, count, np.random.default_rng(seed))
    return _risk_return(weights, model.mu, model.sigma)


def frontier_fit(
    model: RiskModel, returns_out: ReturnsMatrix, n_points: int = 40
) -> FitReport:
    """Compare in-sample frontier expectations with realized returns.

    Targets run from the global minimum-risk portfolio's return up to the
    clipped maximum; each portfolio is solved with the return constraint
    as an inequality and then realized on the out-of-sample means.
    """
    if returns_out.assets != model.assets:
        extra = set(returns_out.assets) - set(model.assets)
        missing = set(model.assets) - set(returns_out.assets)
        raise AssetAlignmentError(
            "out-of-sample assets do not match the model "
            f"(missing: {sorted(missing)}, unexpected: {sorted(extra)})"
        )
    mu_out = mean_returns(returns_out)
    _line(model)
    base = markowitz_portfolio(model)
    targets = _target_range(model.mu, n_points, low=base.expected_return)

    pairs = []
    for target in targets:
        p = markowitz_portfolio(model, ObjectiveParams(target_return=float(target)))
        pairs.append((p.expected_return, float(p.weights @ mu_out)))

    expected = np.array([e for e, _ in pairs])
    realized = np.array([r for _, r in pairs])
    conv = model.convention
    annual_expected = expected * conv.daily_to_annual_expectation
    annual_realized = realized * conv.evaluation_periods

    def _errors(e: np.ndarray, r: np.ndarray) -> tuple[float, float]:
        diff = e - r
        under = diff[diff > 0]
        return float(np.abs(diff).mean()), float(under.mean()) if under.size else 0.0

    mean_error, under_error = _errors(expected, realized)
    annual_mean_error, annual_under_error = _errors(annual_expected, annual_realized)
    return FitReport(
        pairs=tuple(pairs),
        mean_error=mean_error,
        mean_underestimation_error=under_error,
        annual_mean_error=annual_mean_error,
        annual_mean_underestimation_error=annual_under_error,
    )
