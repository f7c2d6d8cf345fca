"""Minimum-risk, target-return and tradeoff portfolio programs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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
from portopt.risk_models import RiskKind, RiskModel, build_risk_model

from conftest import (
    free_set_optimum,
    random_model,
    random_returns,
    scaled_kkt,
    simplex_grid,
)


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

    @given(
        weights=hnp.arrays(
            float,
            st.integers(0, 12),
            elements=st.one_of(
                st.sampled_from([0.0, -0.0, 0.005, 0.00499, 0.00505, 0.00015, 1.0]),
                st.floats(-1.0, 2.0),
            ),
        ),
        threshold=st.sampled_from([0.0, -0.0, 0.005, 0.0001, -1.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_visits_only_the_weights_above_the_threshold(self, weights, threshold):
        # the same dict as a comprehension over every weight, keys in asset
        # order, ties at the threshold (after rounding) and -0.0 included
        assets = tuple(f"A{i:02d}" for i in range(weights.size))
        rounded = np.round(weights, optimizers.REPORT_DECIMALS)
        every = {name: float(rw) for name, rw in zip(assets, rounded) if rw > threshold}
        view = optimizers._sparse_view(assets, weights, threshold)
        assert view == every
        assert list(view) == list(every)
        assert all(type(value) is float for value in view.values())
        assert np.array_equal(np.signbit(list(view.values())), np.signbit(list(every.values())))


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



def family_model(family: str, kind: RiskKind, n: int) -> RiskModel:
    """A seeded model of one degenerate family: random means (``random``),
    all negative, all equal, a tie at the top, a collinear pair (the second
    asset's returns twice the first's, so the risk matrix takes the ridge)
    or one asset."""
    returns = random_returns(np.random.default_rng(100 * n + 7), n, 60)
    values = returns.values.copy()
    if family == "negative":
        values -= 0.004
    if family == "collinear":
        values[:, 1] = 2.0 * values[:, 0]
    model = build_risk_model(ReturnsMatrix(returns.assets, values), kind=kind)
    mu = model.mu.copy()
    if family == "equal":
        mu[:] = mu[0]
    if family == "tie":
        mu[np.argsort(mu)[-2]] = mu.max()
    return RiskModel(model.assets, mu, model.sigma, kind=kind)


def assert_optimal(weights, dmat, dvec, a_eq, b_eq, a_ineq=None, b_ineq=()):
    """``weights`` on the budget, with the least objective 0.5 w'Dw - d'w of
    the long-only program within 1e-12 of |0.5 w'Dw| + |d'w|."""
    assert abs(weights.sum() - 1.0) <= 1e-12
    a_ineq = np.zeros((0, dvec.size)) if a_ineq is None else a_ineq
    b_eq, b_ineq = np.asarray(b_eq, dtype=float), np.asarray(b_ineq, dtype=float)
    best = free_set_optimum(dmat, dvec, a_eq, b_eq, a_ineq, b_ineq)
    quadratic, linear = 0.5 * float(weights @ dmat @ weights), float(dvec @ weights)
    assert abs(quadratic - linear - best) <= 1e-12 * (abs(quadratic) + abs(linear))


@pytest.mark.parametrize("kind", list(RiskKind))
@pytest.mark.parametrize("family", ["random", "negative", "equal", "tie", "collinear", "one"])
def test_portfolios_match_the_free_set_enumeration(family, kind):
    # Tradeoff, pinned and >= programs at N = 2-8 against the free-set
    # oracle, which shares no code with the solver or the critical line.
    for n in [1] if family == "one" else range(2, 9):
        model = family_model(family, kind, n)
        risk = 2.0 * regularize(model.sigma)
        budget, one, zero = np.ones((1, n)), np.ones(1), np.zeros(n)
        for lam in (0.0, 0.3, 0.9, 1.0):
            w = lambda_portfolio(model, ObjectiveParams(lam=lam)).weights
            if lam == 1.0:
                assert_optimal(w, REGULARIZATION * np.eye(n), model.mu, budget, one)
            else:
                assert_optimal(w, risk, lam / (1.0 - lam) * model.mu, budget, one)
        lo, hi = float(model.mu.min()), float(model.mu.max())
        for target in (lo, lo + 0.35 * (hi - lo), hi):
            pinned = ObjectiveParams(target_return=target, pin_return_equality=True)
            w = markowitz_portfolio(model, pinned).weights
            assert abs(w @ model.mu - target) <= 1e-12 * np.abs(model.mu).max()
            assert_optimal(w, risk, zero, np.vstack([budget, model.mu]), [1.0, target])
            w = markowitz_portfolio(model, ObjectiveParams(target_return=target)).weights
            assert w @ model.mu - target >= -1e-12 * np.abs(model.mu).max()
            assert_optimal(w, risk, zero, budget, one, model.mu[None], [target])
