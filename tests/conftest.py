"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from portopt.market_data import ReturnsMatrix
from portopt.risk_models import RiskModel, build_risk_model


def simplex_grid(n: int, step: float = 0.01) -> np.ndarray:
    """All weight vectors with coordinates that are multiples of ``step``
    summing to one.  Exhaustive oracle for small N."""
    k = round(1.0 / step)
    points: list[list[int]] = []

    def extend(prefix: list[int], remaining: int):
        if len(prefix) == n - 1:
            points.append(prefix + [remaining])
            return
        for v in range(remaining + 1):
            extend(prefix + [v], remaining - v)

    extend([], k)
    return np.asarray(points, dtype=float) / k


def random_returns(rng: np.random.Generator, n_assets: int, periods: int = 300) -> ReturnsMatrix:
    """Synthetic daily-return panel with equity-like scale and correlation."""
    loadings = rng.normal(size=(n_assets, 2)) * 0.005
    common = rng.normal(size=(periods, 2))
    idio = rng.normal(size=(periods, n_assets)) * 0.01
    drift = rng.uniform(0.0001, 0.003, size=n_assets)
    values = common @ loadings.T + idio + drift
    names = tuple(f"A{i:02d}" for i in range(n_assets))
    return ReturnsMatrix(assets=names, values=values)


def random_model(rng: np.random.Generator, n_assets: int, periods: int = 300) -> RiskModel:
    return build_risk_model(random_returns(rng, n_assets, periods))


def scaled_kkt(qp, solution) -> float:
    """Largest violation of the KKT conditions of ``solution``, each over its
    own scale: stationarity over |D||x| + |d| + |A'||y|, each row's slack
    over |a||x| + |b| + max|a| max|x|, and the inequality multipliers' sign
    and complementarity over that gradient scale per largest row entry."""
    x, y = solution.x, solution.multipliers
    meq = qp.b_eq.shape[0]
    a = np.vstack([qp.a_eq, qp.a_ineq])
    b = np.concatenate([qp.b_eq, qp.b_ineq])
    stat_scale = (np.abs(qp.dmat) @ np.abs(x) + np.abs(qp.dvec) + np.abs(a.T) @ np.abs(y)).max()
    slack = a @ x - b
    row_scale = np.abs(a) @ np.abs(x) + np.abs(b) + np.abs(a).max(axis=1) * np.abs(x).max()
    y_scale = stat_scale / np.abs(a).max()
    return max(
        np.abs(qp.dmat @ x - qp.dvec - a.T @ y).max() / stat_scale,
        (np.abs(slack[:meq]) / row_scale[:meq]).max(initial=0.0),
        (-slack[meq:] / row_scale[meq:]).max(initial=0.0),
        (-y[meq:] / y_scale).max(initial=0.0),
        (np.abs(y[meq:] * slack[meq:]) / (y_scale * row_scale[meq:])).max(initial=0.0),
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)


@pytest.fixture
def toy_model() -> RiskModel:
    """Three assets with hand-set moments for closed-form checks."""
    mu = np.array([0.0010, 0.0030, 0.0020])
    sigma = np.array(
        [
            [1.0e-4, 0.2e-4, 0.1e-4],
            [0.2e-4, 4.0e-4, 0.3e-4],
            [0.1e-4, 0.3e-4, 2.0e-4],
        ]
    )
    return RiskModel(assets=("AAA", "BBB", "CCC"), mu=mu, sigma=sigma)
