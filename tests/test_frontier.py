"""Frontier sweeps, two-asset geometry, random clouds, fit evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from portopt import optimizers
from portopt.errors import AssetAlignmentError
from portopt.frontier import (
    efficient_frontier,
    frontier_fit,
    lambda_frontier,
    random_portfolio_cloud,
    random_simplex_weights,
    two_asset_curve,
)
from portopt.market_data import ReturnsMatrix
from portopt.optimizers import ObjectiveParams, markowitz_portfolio
from portopt.risk_models import RiskKind, build_risk_model

from conftest import random_model, random_returns, simplex_grid


class TestEfficientFrontier:
    def test_two_point_endpoints(self, toy_model):
        points = efficient_frontier(toy_model, n_points=2)
        assert len(points) == 2
        # endpoints sit near the extreme single-asset returns (0.5% clip)
        assert points[0].expected_return == pytest.approx(0.001005, abs=1e-9)
        assert points[-1].expected_return == pytest.approx(0.002985, abs=1e-9)

    def test_targets_rounded_and_monotone(self, toy_model):
        points = efficient_frontier(toy_model, n_points=7)
        params = [p.parameter for p in points]
        assert params == sorted(params)
        for p in points:
            assert p.parameter == round(p.parameter, 6)
            assert p.expected_return == pytest.approx(p.parameter, abs=1e-8)

    def test_risks_match_grid_oracle(self, rng):
        # On the efficient branch the pinned solve equals the >=target one,
        # so no grid point at or above the target may carry less risk.
        model = random_model(rng, 3)
        grid = simplex_grid(3, 0.01)
        grid_returns = grid @ model.mu
        grid_risks = np.sqrt(np.einsum("pi,ij,pj->p", grid, model.sigma, grid))
        base_return = markowitz_portfolio(model).expected_return
        checked = 0
        for point in efficient_frontier(model, n_points=8):
            if point.parameter < base_return:
                continue
            feasible = grid_risks[grid_returns >= point.parameter - 1e-12]
            if feasible.size:
                assert point.risk <= feasible.min() + 1e-4
                checked += 1
        assert checked >= 4

    def test_needs_two_assets(self, rng):
        model = random_model(rng, 1)
        with pytest.raises(ValueError):
            efficient_frontier(model)


class TestLambdaFrontier:
    def test_endpoints(self, toy_model):
        points = lambda_frontier(toy_model, n_points=5)
        minimum = markowitz_portfolio(toy_model)
        assert points[0].risk == pytest.approx(minimum.risk, abs=1e-8)
        assert points[-1].expected_return == pytest.approx(float(toy_model.mu.max()), abs=1e-6)

    def test_matches_beta_frontier_on_efficient_branch(self, rng):
        # Both parameterizations trace the same efficient set.
        model = random_model(rng, 3)
        lam_points = lambda_frontier(model, n_points=9)
        for point in lam_points:
            pinned = markowitz_portfolio(
                model,
                ObjectiveParams(
                    target_return=point.expected_return, pin_return_equality=True
                ),
            )
            assert point.risk == pytest.approx(pinned.risk, abs=1e-6)


class TestTwoAssetCurve:
    def test_perfect_positive_correlation_is_line(self):
        sa, sb = 0.02, 0.05
        mu = np.array([0.001, 0.004])
        sigma = np.array([[sa**2, sa * sb], [sa * sb, sb**2]])
        curve = two_asset_curve(mu, sigma, n_points=30)
        risks, rets = curve[:, 0], curve[:, 1]
        slope, intercept = np.polyfit(risks, rets, 1)
        residual = rets - (slope * risks + intercept)
        assert np.abs(residual).max() < 1e-10

    def test_perfect_negative_correlation_touches_zero(self):
        sa, sb = 0.02, 0.05
        mu = np.array([0.001, 0.004])
        sigma = np.array([[sa**2, -sa * sb], [-sa * sb, sb**2]])
        curve = two_asset_curve(mu, sigma, n_points=30)
        grid_step = sa * (1.0 / 29.0) * 2.0
        assert curve[:, 0].min() < grid_step
        # at w_a = sb/(sa+sb) the closed form vanishes identically
        w = sb / (sa + sb)
        assert abs(w * sa - (1 - w) * sb) < 1e-12

    def test_endpoint_is_first_asset(self):
        mu = np.array([0.002, 0.001])
        sigma = np.diag([4e-4, 9e-4])
        curve = two_asset_curve(mu, sigma, n_points=30)
        assert curve[-1, 0] == pytest.approx(0.02, abs=1e-15)
        assert curve[-1, 1] == pytest.approx(0.002, abs=1e-15)

    def test_diversification_monotone_in_correlation(self):
        # For fixed weights the risk never grows as correlation falls.
        sa, sb = 0.03, 0.04
        mu = np.array([0.001, 0.002])
        w = 0.4
        previous = None
        for rho in (1.0, 0.5, 0.0, -0.5, -1.0):
            sigma = np.array([[sa**2, rho * sa * sb], [rho * sa * sb, sb**2]])
            var = w**2 * sa**2 + (1 - w) ** 2 * sb**2 + 2 * w * (1 - w) * rho * sa * sb
            curve_var = float(
                np.einsum("i,ij,j->", np.array([w, 1 - w]), sigma, np.array([w, 1 - w]))
            )
            assert curve_var == pytest.approx(var, abs=1e-15)
            if previous is not None:
                assert curve_var <= previous + 1e-15
            previous = curve_var


class TestRandomCloud:
    def test_weights_on_simplex(self, rng):
        w = random_simplex_weights(6, 500, rng)
        np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-12)
        assert (w >= 0).all()

    def test_deterministic_under_seed(self, toy_model):
        a = random_portfolio_cloud(toy_model, count=200, seed=9)
        b = random_portfolio_cloud(toy_model, count=200, seed=9)
        assert np.array_equal(a, b)

    def test_cloud_inside_opportunity_set(self, rng):
        # No random portfolio may beat the traced frontier at its return.
        model = random_model(rng, 4)
        cloud = random_portfolio_cloud(model, count=2000, seed=1)
        for risk, ret in cloud:
            if model.mu.min() <= ret <= model.mu.max():
                best = markowitz_portfolio(
                    model, ObjectiveParams(target_return=float(ret))
                )
                assert risk >= best.risk - 1e-8


class TestFrontierFit:
    def test_self_fit_is_exact_zero(self, rng):
        returns = random_returns(rng, 4, 120)
        model = build_risk_model(returns)
        report = frontier_fit(model, returns, n_points=10)
        assert report.mean_error == 0.0
        assert report.mean_underestimation_error == 0.0

    def test_constant_shift_moves_realized_exactly(self, rng):
        returns = random_returns(rng, 4, 150)
        model = build_risk_model(returns)
        shift = 0.0004
        shifted = ReturnsMatrix(assets=returns.assets, values=returns.values + shift)
        base = frontier_fit(model, returns, n_points=8)
        moved = frontier_fit(model, shifted, n_points=8)
        for (_, r0), (_, r1) in zip(base.pairs, moved.pairs):
            assert r1 - r0 == pytest.approx(shift, abs=1e-10)

    def test_annualization_uses_both_period_counts(self, rng):
        returns = random_returns(rng, 3, 100)
        model = build_risk_model(returns)
        other = random_returns(np.random.default_rng(77), 3, 100)
        other = ReturnsMatrix(assets=returns.assets, values=other.values)
        report = frontier_fit(model, other, n_points=6)
        e = np.array([p[0] for p in report.pairs])
        r = np.array([p[1] for p in report.pairs])
        expected_annual = np.abs(e * 251 - r * 250).mean()
        assert report.annual_mean_error == pytest.approx(expected_annual, rel=1e-12)

    def test_asset_mismatch(self, rng):
        returns = random_returns(rng, 3, 60)
        model = build_risk_model(returns)
        other = ReturnsMatrix(assets=("X", "Y", "Z"), values=np.array(returns.values))
        with pytest.raises(AssetAlignmentError):
            frontier_fit(model, other)

    def test_needs_a_point(self, rng):
        returns = random_returns(rng, 3, 60)
        model = build_risk_model(returns)
        with pytest.raises(ValueError):
            frontier_fit(model, returns, n_points=0)

    def test_range_starts_at_min_risk_return(self, rng):
        returns = random_returns(rng, 4, 150)
        model = build_risk_model(returns)
        base = markowitz_portfolio(model)
        report = frontier_fit(model, returns, n_points=9)
        first_expected = report.pairs[0][0]
        assert first_expected == pytest.approx(base.expected_return, abs=1e-6)


def returns_with_means(rng, means, periods: int = 250) -> ReturnsMatrix:
    """Factor-model panel shifted so each asset's sample mean is ``means``."""
    returns = random_returns(rng, len(means), periods)
    values = returns.values - returns.values.mean(axis=0) + np.asarray(means)
    return ReturnsMatrix(assets=returns.assets, values=values)


class TestSweepRangeInsideMeans:
    """Every swept target lies inside [min(mu), max(mu)], whatever the signs."""

    @staticmethod
    def check_in_range(returns, kind):
        model = build_risk_model(returns, kind=kind)
        lo, hi = float(model.mu.min()), float(model.mu.max())
        points = efficient_frontier(model, n_points=12)
        assert len(points) == 12
        for point in points:
            assert lo <= point.parameter <= hi
            assert point.expected_return == pytest.approx(point.parameter, abs=1e-8)
        report = frontier_fit(model, returns, n_points=12)
        assert len(report.pairs) == 12
        for expected, _ in report.pairs:
            assert lo - 1e-12 <= expected <= hi + 1e-12

    @pytest.mark.parametrize("kind", list(RiskKind))
    @pytest.mark.parametrize(
        "means",
        [
            pytest.param([-0.003, -0.0021, -0.0012, -0.0005, -0.0001], id="all_negative"),
            pytest.param([-7.77e-6, 0.0004, 0.0011, 0.002, 0.0028], id="near_zero_min"),
            pytest.param([0.0011] * 5, id="equal_means"),
            pytest.param([0.0004, 0.0004, 0.0011, 0.0011, 0.002], id="two_equal_pairs"),
        ],
    )
    def test_frontier_and_fit_stay_in_range(self, rng, kind, means):
        self.check_in_range(returns_with_means(rng, means), kind)

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_duplicated_column_stays_in_range(self, rng, kind):
        returns = returns_with_means(rng, [0.0004, 0.0011, 0.002, 0.0028])
        values = np.column_stack([returns.values, returns.values[:, 1]])
        self.check_in_range(ReturnsMatrix(assets=(*returns.assets, "DUP"), values=values), kind)


class TestWarmSweeps:
    """Each sweep point starts from its neighbour's solution; the answers
    are the cold per-point ones, bit for bit, and the warm sweep takes
    fewer steps."""

    @staticmethod
    def solves(monkeypatch, sweep, cold: bool) -> list:
        """``(x, iterations)`` of every ``solve_qp`` the sweep makes; with
        ``cold`` every seed is dropped."""
        real = optimizers.solve_qp
        log = []

        def spy(qp, start=()):
            solution = real(qp, start=() if cold else start)
            log.append((solution.x, solution.iterations))
            return solution

        with monkeypatch.context() as patch:
            patch.setattr(optimizers, "solve_qp", spy)
            sweep()
        return log

    def check(self, monkeypatch, sweep) -> tuple[int, int]:
        """Warm against cold weights, bit for bit; total iterations of each."""
        warm = self.solves(monkeypatch, sweep, cold=False)
        cold = self.solves(monkeypatch, sweep, cold=True)
        assert len(warm) == len(cold)
        for (x_warm, _), (x_cold, _) in zip(warm, cold):
            np.testing.assert_array_equal(x_warm, x_cold)
        return sum(i for _, i in warm), sum(i for _, i in cold)

    @staticmethod
    def sweeps(returns, kind, n_points):
        model = build_risk_model(returns, kind=kind)
        return (
            lambda: efficient_frontier(model, n_points),
            lambda: lambda_frontier(model, n_points),
            lambda: frontier_fit(model, returns, n_points),
        )

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_matches_cold_and_takes_fewer_steps(self, monkeypatch, kind):
        returns = random_returns(np.random.default_rng(3), 30, 250)
        for sweep in self.sweeps(returns, kind, 12):
            warm, cold = self.check(monkeypatch, sweep)
            assert warm < cold

    @pytest.mark.parametrize("kind", list(RiskKind))
    @pytest.mark.parametrize(
        "means",
        [
            [-0.003, -0.0021, -0.0012, -0.0005, -0.0001],
            [-7.77e-6, 0.0004, 0.0011, 0.002, 0.0028],
            [0.0011] * 5,
            [0.0004, 0.0004, 0.0011, 0.0011, 0.002],
            None,  # a duplicated column
        ],
        ids=["all_negative", "near_zero_min", "equal_means", "two_equal_pairs", "duplicated"],
    )
    def test_degenerate_panels_match_cold(self, monkeypatch, rng, kind, means):
        if means is None:
            returns = returns_with_means(rng, [0.0004, 0.0011, 0.002, 0.0028])
            values = np.column_stack([returns.values, returns.values[:, 1]])
            returns = ReturnsMatrix(assets=(*returns.assets, "DUP"), values=values)
        else:
            returns = returns_with_means(rng, means)
        for sweep in self.sweeps(returns, kind, 12):
            self.check(monkeypatch, sweep)
