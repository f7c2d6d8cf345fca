"""Minimum-risk, target-return and tradeoff portfolio programs."""

from __future__ import annotations

import numpy as np
import pytest

from portopt import optimizers
from portopt.errors import TargetOutOfRange
from portopt.frontier import efficient_frontier, lambda_frontier
from portopt.market_data import PriceTable, ReturnsMatrix, assets_return
from portopt.optimizers import (
    REGULARIZATION,
    ObjectiveParams,
    lambda_portfolio,
    markowitz_portfolio,
    portfolio_from_weights,
    regularize,
)
from portopt.qp import QuadraticProgram, solve_qp
from portopt.risk_models import RiskModel, build_risk_model

from conftest import random_model, random_returns, scaled_kkt, simplex_grid


class TestRegularize:
    def test_identity_unchanged(self):
        eye = np.eye(3)
        out = regularize(eye)
        np.testing.assert_array_equal(out, eye)

    def test_rank_one_shifted(self):
        v = np.array([1.0, 2.0, 3.0])
        sigma = np.outer(v, v)
        out = regularize(sigma)
        np.testing.assert_array_equal(out, sigma + REGULARIZATION * np.eye(3))

    def test_zero_matrix(self):
        out = regularize(np.zeros((2, 2)))
        np.testing.assert_array_equal(out, REGULARIZATION * np.eye(2))


class TestProgramMatrix:
    """The programs test positive definiteness with the model's own
    smallest eigenvalue, with no eigenvalue computation per point, and all
    but the l = 1 tradeoff share one quadratic term, ``2 regularize(S)``."""

    @staticmethod
    def models(rng):
        returns = random_returns(rng, 6, 200)
        duplicated = ReturnsMatrix(
            assets=(*returns.assets, "DUP"),
            values=np.column_stack([returns.values, returns.values[:, 0]]),
        )
        return [build_risk_model(returns), build_risk_model(duplicated)]

    @staticmethod
    def spied(monkeypatch) -> list:
        """``(qp, solution)`` of every solve the optimizers make from now on."""
        solves = []
        real = optimizers.solve_qp

        def spy(qp, start=()):
            solves.append((qp, real(qp, start=start)))
            return solves[-1][1]

        monkeypatch.setattr(optimizers, "solve_qp", spy)
        return solves

    def test_one_quadratic_term_per_model(self, rng, monkeypatch):
        solves = self.spied(monkeypatch)
        for model in self.models(rng):
            shared = 2.0 * regularize(model.sigma)
            markowitz_portfolio(model)
            np.testing.assert_array_equal(solves.pop()[0].dmat, shared)
            for lam in (0.0, 0.3, 0.9):
                lambda_portfolio(model, ObjectiveParams(lam=lam))
                np.testing.assert_array_equal(solves.pop()[0].dmat, shared)
            lambda_portfolio(model, ObjectiveParams(lam=1.0))
            np.testing.assert_array_equal(solves.pop()[0].dmat, regularize(0.0 * model.sigma))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_tradeoff_matches_the_scaled_program(self, seed, monkeypatch):
        # min (1-l) w'Sw - l mu'w in its unscaled form, D = regularize(2(1-l)S)
        # and d = l mu, against the program lambda_portfolio solves.  On a
        # positive definite model the optimum is the same to 1e-12; on the
        # singular one the two programs carry different ridges, and the
        # solve is certified by its own KKT conditions.
        pd_model, duplicated = self.models(np.random.default_rng(seed))
        solves = self.spied(monkeypatch)
        n = pd_model.n_assets
        for lam in [*np.round(np.linspace(0.1, 0.9, 9), 1), 1.0 - 1e-9]:
            params = ObjectiveParams(lam=float(lam))
            scale = 2.0 * (1.0 - lam)
            scaled = QuadraticProgram(
                dmat=regularize(scale * pd_model.sigma),
                dvec=lam * pd_model.mu,
                a_eq=np.ones((1, n)),
                b_eq=np.ones(1),
                a_ineq=np.eye(n),
                b_ineq=np.zeros(n),
            )
            expected = np.maximum(solve_qp(scaled).x, 0.0)
            np.testing.assert_allclose(
                lambda_portfolio(pd_model, params).weights, expected, rtol=0.0, atol=1e-12
            )
            lambda_portfolio(duplicated, params)
            assert scaled_kkt(*solves.pop()) <= 1e-8

    def test_no_eigenvalues_per_point(self, rng, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
        for model in self.models(rng):
            calls.clear()
            efficient_frontier(model, 5)
            lambda_frontier(model, 5)
            assert calls == []


class TestMarkowitz:
    def test_single_asset(self):
        model = RiskModel(assets=("ONLY",), mu=np.array([0.002]), sigma=np.array([[4e-4]]))
        p = markowitz_portfolio(model)
        np.testing.assert_allclose(p.weights, [1.0], atol=1e-10)
        assert p.risk == pytest.approx(0.02, abs=1e-12)

    def test_symmetric_two_asset(self):
        model = RiskModel(
            assets=("A", "B"), mu=np.array([0.001, 0.001]), sigma=np.diag([1.0, 1.0])
        )
        p = markowitz_portfolio(model)
        np.testing.assert_allclose(p.weights, [0.5, 0.5], atol=1e-10)

    def test_target_out_of_range(self, toy_model):
        with pytest.raises(TargetOutOfRange) as err:
            markowitz_portfolio(toy_model, ObjectiveParams(target_return=0.004))
        assert err.value.hi == pytest.approx(0.003)

    def test_target_attained(self, toy_model):
        beta = 0.0025
        p = markowitz_portfolio(toy_model, ObjectiveParams(target_return=beta))
        assert p.expected_return >= beta - 1e-8

    def test_pinned_equality(self, toy_model):
        beta = 0.0012  # below the min-variance return: only =beta can reach it
        pinned = markowitz_portfolio(
            toy_model, ObjectiveParams(target_return=beta, pin_return_equality=True)
        )
        assert pinned.expected_return == pytest.approx(beta, abs=1e-8)

    def test_consistency_with_model(self, rng):
        model = random_model(rng, 6)
        p = markowitz_portfolio(model)
        assert p.expected_return == pytest.approx(float(p.weights @ model.mu), abs=1e-10)
        assert p.risk == pytest.approx(
            float(np.sqrt(p.weights @ model.sigma @ p.weights)), abs=1e-10
        )
        assert p.weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert (p.weights >= 0).all()

    def test_monotone_frontier_in_target(self, toy_model):
        base = markowitz_portfolio(toy_model)
        risks = []
        for beta in np.linspace(base.expected_return, 0.0029, 12):
            p = markowitz_portfolio(toy_model, ObjectiveParams(target_return=float(beta)))
            risks.append(p.risk)
        assert all(b >= a - 1e-10 for a, b in zip(risks, risks[1:]))


class TestLambdaPortfolio:
    def test_zero_lambda_is_min_risk(self, toy_model):
        tradeoff = lambda_portfolio(toy_model, ObjectiveParams(lam=0.0))
        minimum = markowitz_portfolio(toy_model)
        np.testing.assert_allclose(tradeoff.weights, minimum.weights, atol=1e-8)

    def test_unit_lambda_is_max_return_vertex(self, toy_model):
        p = lambda_portfolio(toy_model, ObjectiveParams(lam=1.0))
        assert p.weights[1] == pytest.approx(1.0, abs=1e-6)
        assert p.expected_return == pytest.approx(0.003, abs=1e-6)

    def test_grid_oracle(self, rng):
        grid = {n: simplex_grid(n, 0.01) for n in (3, 4)}
        for _ in range(6):
            n = int(rng.integers(3, 5))
            model = random_model(rng, n)
            lam = float(rng.uniform(0.1, 0.9))
            p = lambda_portfolio(model, ObjectiveParams(lam=lam))
            achieved = (1 - lam) * float(
                p.weights @ model.sigma @ p.weights
            ) - lam * p.expected_return
            g = grid[n]
            values = (1 - lam) * np.einsum(
                "pi,ij,pj->p", g, model.sigma, g
            ) - lam * (g @ model.mu)
            assert achieved <= values.min() + 1e-4

    def test_lambda_validated(self):
        with pytest.raises(ValueError):
            ObjectiveParams(lam=1.5)

    def test_price_scaling_leaves_selection_unchanged(self, rng):
        # Returns are scale-free, so the whole pipeline commutes with a
        # positive rescaling of every price.
        prices = rng.uniform(5.0, 50.0, size=(40, 4))
        dates = tuple(f"d{i}" for i in range(40))
        names = ("A", "B", "C", "D")
        r1 = assets_return(PriceTable(dates, names, prices))
        r2 = assets_return(PriceTable(dates, names, prices * 3.7))
        m1 = build_risk_model(r1)
        m2 = build_risk_model(r2)
        p1 = lambda_portfolio(m1, ObjectiveParams(lam=0.5))
        p2 = lambda_portfolio(m2, ObjectiveParams(lam=0.5))
        np.testing.assert_allclose(p1.weights, p2.weights, atol=1e-8)


class TestSparseView:
    def test_rounding_and_threshold(self, toy_model):
        p = portfolio_from_weights(toy_model, np.array([0.50004, 0.49996, 0.0]))
        assert p.sparse_view == {"AAA": 0.5, "BBB": 0.5}
        assert p.weights[0] == 0.50004  # full precision kept

    def test_ga_style_threshold(self, toy_model):
        p = portfolio_from_weights(
            toy_model, np.array([0.004, 0.006, 0.99]), report_threshold=0.005
        )
        assert "AAA" not in p.sparse_view
        assert p.sparse_view["BBB"] == 0.006

    def test_negative_roundoff_clipped(self, toy_model):
        p = portfolio_from_weights(toy_model, np.array([1.0, -1e-12, 1e-12]))
        assert (p.weights >= 0).all()


def test_efficiency_dominance(rng):
    # Two efficient portfolios cannot dominate each other.
    model = random_model(rng, 5)
    points = [
        lambda_portfolio(model, ObjectiveParams(lam=float(l)))
        for l in np.linspace(0, 1, 9)
    ]
    for a in points:
        for b in points:
            if a.risk <= b.risk:
                assert a.expected_return <= b.expected_return + 1e-8
