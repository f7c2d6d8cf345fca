"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import functools
import itertools

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


@functools.cache
def _free_sets(n: int, f: int) -> np.ndarray:
    """Every set of ``f`` of ``n`` variables, one per row."""
    return np.array(list(itertools.combinations(range(n), f)), dtype=int).reshape(-1, f)


def free_set_optimum(dmat, dvec, a_eq, b_eq, a_ineq, b_ineq, tol: float = 1e-9) -> float:
    """Least objective 0.5 x'Dx - d'x over x >= 0, A_eq x = b_eq and
    A_ineq x >= b_ineq, by enumeration: an exact oracle for small N.

    For every nonempty free set F (x = 0 off it) and every set H of general
    rows held as equalities, independent on F, the KKT system D_FF x_F -
    A_HF' y = d_F, A_HF x_F = b_H is solved with ``np.linalg.solve``, all
    free sets of one size at once.  Its point is kept when x_F >= 0, the
    rows not held are met, and the multipliers of the held inequalities and
    of the bounds off F are >= 0, each within ``tol`` of its own scale: a
    KKT point, so with D positive definite the optimum.  An equality may go
    unheld, so a row that depends on the others on F leaves a point to keep.
    """
    n = dvec.shape[0]
    a_all = np.vstack([a_eq, a_ineq])
    b_all = np.concatenate([b_eq, b_ineq])
    is_eq = np.arange(b_all.shape[0]) < b_eq.shape[0]
    best = np.inf
    for held in itertools.product((False, True), repeat=b_all.shape[0]):
        rows = np.flatnonzero(held)
        a_h, h = a_all[rows], rows.size
        for f in range(1, n + 1):
            free = _free_sets(n, f)
            a_hf = a_h[:, free].transpose(1, 0, 2)  # one h x f block per set
            if h:
                independent = np.linalg.matrix_rank(a_hf) == h
                free, a_hf = free[independent], a_hf[independent]
            c = free.shape[0]
            kkt = np.zeros((c, f + h, f + h))
            kkt[:, :f, :f] = dmat[free[:, :, None], free[:, None, :]]
            kkt[:, :f, f:] = -a_hf.transpose(0, 2, 1)
            kkt[:, f:, :f] = a_hf
            rhs = np.zeros((c, f + h, 1))
            rhs[:, :f, 0], rhs[:, f:, 0] = dvec[free], b_all[rows]
            solved = np.linalg.solve(kkt, rhs)[..., 0]
            x = np.zeros((c, n))
            x[np.arange(c)[:, None], free] = solved[:, :f]
            y = solved[:, f:]
            # the bounds' multipliers off F; on F this is roundoff
            bounds = x @ dmat - dvec - y @ a_h
            bounds[np.arange(c)[:, None], free] = 0.0
            dual_tol = tol * (np.abs(x) @ np.abs(dmat) + np.abs(dvec) + np.abs(y) @ np.abs(a_h))
            dual_tol = dual_tol.max(axis=1, keepdims=True)
            slack = x @ a_all.T - b_all
            miss = np.where(is_eq, np.abs(slack), -slack)
            miss[:, rows] = 0.0
            keep = (
                (solved[:, :f] >= -tol * np.abs(x).max(axis=1, keepdims=True)).all(axis=1)
                & (miss <= tol * (np.abs(x) @ np.abs(a_all.T) + np.abs(b_all))).all(axis=1)
                & (y[:, ~is_eq[rows]] >= -dual_tol).all(axis=1)
                & (bounds >= -dual_tol).all(axis=1)
            )
            x = x[keep]
            best = min(best, (0.5 * ((x @ dmat) * x).sum(axis=1) - x @ dvec).min(initial=np.inf))
    return best


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
