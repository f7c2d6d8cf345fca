"""Frontier sweeps, two-asset geometry, random clouds, fit evaluation."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from portopt import frontier, optimizers
from portopt import qp as qp_module
from portopt.errors import AssetAlignmentError, NumericalBreakdown
from portopt.frontier import (
    efficient_frontier,
    frontier_fit,
    lambda_frontier,
    random_portfolio_cloud,
    random_simplex_weights,
    two_asset_curve,
)
from portopt.ga import GaParams, ga_frontier
from portopt.market_data import ReturnsMatrix
from portopt.optimizers import ObjectiveParams, lambda_portfolio, markowitz_portfolio
from portopt.risk_models import RiskKind, build_risk_model

from conftest import random_model, random_returns, scaled_kkt, simplex_grid


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

    @pytest.mark.parametrize("n_points", [0, -1])
    def test_needs_a_point(self, n_points):
        with pytest.raises(ValueError, match="at least one point"):
            two_asset_curve(np.array([0.001, 0.002]), np.diag([4e-4, 9e-4]), n_points)

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
        sweeps = (
            lambda n: efficient_frontier(model, n),
            lambda n: lambda_frontier(model, n),
            lambda n: frontier_fit(model, returns, n),
            lambda n: ga_frontier(model, GaParams(generations=5), n_points=n),
        )
        for sweep, n_points in itertools.product(sweeps, (0, -1)):
            with pytest.raises(ValueError):
                sweep(n_points)

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


def keeps_its_seed(seed, solution, qp) -> bool:
    """Every seeded row is active at the solution, except a return
    inequality that the solution holds slack: a fit target that rounds
    below the minimum-risk return lies on the t = 0 segment, but a seed
    holds every row that is not a bound."""
    left = np.setdiff1d(seed, solution.active_set)
    if not left.size:
        return True
    meq = qp.b_eq.shape[0]
    slack = qp.b_ineq.shape[0] > qp.n and qp.a_ineq[0] @ solution.x > qp.b_ineq[0]
    return left.tolist() == [meq] and bool(slack)


class TestWarmSweeps:
    """Each sweep point starts from the free set of its segment of the
    model's critical line.  The answers are the cold per-point ones, bit
    for bit, and a point seeded with its optimal working set keeps the
    whole seed and takes no step."""

    @staticmethod
    def solves(monkeypatch, sweep, cold: bool) -> list:
        """``(seed, solution, program)`` of every ``solve_qp`` the sweep
        makes; with ``cold`` no critical line is kept, so every solve
        starts cold."""
        real = optimizers.solve_qp
        log = []

        def spy(qp, start=()):
            log.append((np.asarray(start, dtype=int), real(qp, start=start), qp))
            return log[-1][1]

        with monkeypatch.context() as patch:
            patch.setattr(optimizers, "solve_qp", spy)
            if cold:
                patch.setattr(optimizers, "_kept", None)
                patch.setattr(frontier, "_line", lambda model: None)
            sweep()
        assert not cold or all(start.size == 0 for start, *_ in log)
        return log

    def check(self, monkeypatch, sweep) -> list:
        """Warm against cold weights, bit for bit; the warm solves."""
        warm = self.solves(monkeypatch, sweep, cold=False)
        cold = self.solves(monkeypatch, sweep, cold=True)
        assert len(warm) == len(cold)
        for (_, warm_solution, _), (_, cold_solution, _) in zip(warm, cold):
            np.testing.assert_array_equal(warm_solution.x, cold_solution.x)
        return warm

    @staticmethod
    def sweeps(returns, kind, n_points):
        model = build_risk_model(returns, kind=kind)
        return (
            lambda: efficient_frontier(model, n_points),
            lambda: lambda_frontier(model, n_points),
            lambda: frontier_fit(model, returns, n_points),
        )

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_matches_cold_and_keeps_its_seeds(self, monkeypatch, kind):
        returns = random_returns(np.random.default_rng(3), 30, 250)
        for sweep in self.sweeps(returns, kind, 12):
            for seed, solution, qp in self.check(monkeypatch, sweep):
                assert solution.iterations == 0
                assert keeps_its_seed(seed, solution, qp)

    @pytest.mark.parametrize("kind", list(RiskKind))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_solve_starts_on_its_working_set(self, monkeypatch, kind, seed):
        # bench-scale panels: every point of the three sweeps is seeded with
        # its optimal working set, takes no loop step, and has the cold bits
        returns = random_returns(np.random.default_rng(seed), 150, 500)
        solves = 0
        for sweep in self.sweeps(returns, kind, 8):
            for start, solution, qp in self.check(monkeypatch, sweep):
                assert solution.iterations == 0
                assert keeps_its_seed(start, solution, qp)
                solves += 1
        assert solves == 8 + 8 + 9

    @pytest.mark.parametrize("kind", list(RiskKind))
    def test_kept_factor_gives_the_bits_of_a_fresh_one(self, monkeypatch, kind):
        # every point solved again with the solver's kept risk matrix
        # cleared first, so its positive-definiteness check runs again,
        # returns the same bits
        returns = random_returns(np.random.default_rng(4), 30, 250)
        real = optimizers.solve_qp
        log = []

        def spy(qp, start=()):
            log.append((qp, start, real(qp, start=start)))
            return log[-1][2]

        monkeypatch.setattr(qp_module, "_last_factor", None)
        monkeypatch.setattr(optimizers, "solve_qp", spy)
        for sweep in self.sweeps(returns, kind, 8):
            sweep()
        assert len(log) == 8 + 8 + 9
        for qp, start, kept in log:
            qp_module._last_factor = None
            fresh = real(qp, start=start)
            np.testing.assert_array_equal(kept.x, fresh.x)
            np.testing.assert_array_equal(kept.multipliers, fresh.multipliers)
            assert kept.active_set == fresh.active_set
            assert kept.iterations == fresh.iterations

    @pytest.mark.parametrize("kind", list(RiskKind))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_second_point_keeps_most_of_its_seed(self, monkeypatch, kind, seed):
        # The second point's seed is its segment's ~N bounds: it keeps every
        # one of them and takes no step.
        model = build_risk_model(random_returns(np.random.default_rng(seed), 150, 500), kind=kind)
        start, second, _ = self.solves(monkeypatch, lambda: efficient_frontier(model, 8), False)[1]
        assert start.size > 150 // 2
        assert np.isin(start, second.active_set).all()
        assert second.iterations == 0

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


def degenerate_panel(rng, name: str) -> np.ndarray:
    """In-sample returns of one of the degenerate panels below."""
    base = random_returns(rng, 5, 250).values
    periods = base.shape[0]
    if name == "n_above_t":
        return random_returns(rng, 100, 50).values
    if name == "duplicate":
        return np.column_stack([base, base[:, 1]])
    if name == "collinear":
        return np.column_stack([base, 0.3 * base[:, 0] + 0.7 * base[:, 2]])
    if name == "equal_means":
        return base - base.mean(axis=0) + 0.0011
    if name == "all_negative":
        return base - base.mean(axis=0) + np.array([-0.003, -0.0021, -0.0012, -0.0005, -0.0001])
    if name == "zero_downside":  # never below the 0 critical level
        return np.column_stack([base, np.abs(base[:, 0])])
    assert name == "constant"
    return np.column_stack([base, np.full(periods, 0.0005)])


DEGENERATE_PANELS = [
    "n_above_t", "duplicate", "collinear", "equal_means", "all_negative", "zero_downside",
    "constant",
]


def test_degenerate_programs_keep_their_bits_with_a_kept_line(monkeypatch):
    # 6 draws of the panels above, each as var and svar, 18 programs each:
    # minimum risk, the tradeoff at 0.5 and the sweep's 8 targets, pinned
    # and >=.  Each of the 1,512 programs returns the same bits solved cold
    # and seeded from the model's kept critical line: every answer is its
    # final working set's settled point, whatever path reached that set.
    rng = np.random.default_rng(1)
    monkeypatch.setattr(optimizers, "_kept", None)
    programs, differ = 0, []
    for _ in range(6):
        for name in DEGENERATE_PANELS:
            values = degenerate_panel(rng, name)
            assets = tuple(f"A{i:03d}" for i in range(values.shape[1]))
            for kind in RiskKind:
                model = build_risk_model(ReturnsMatrix(assets=assets, values=values), kind=kind)
                params = [ObjectiveParams()] + [
                    ObjectiveParams(target_return=float(target), pin_return_equality=pin)
                    for target in frontier._target_range(model.mu, 8)
                    for pin in (True, False)
                ]

                def weights():
                    found = [markowitz_portfolio(model, p).weights for p in params]
                    return [*found, lambda_portfolio(model, ObjectiveParams(lam=0.5)).weights]

                optimizers._kept = None
                cold = weights()
                optimizers._line(model)
                seeded = weights()
                programs += len(cold)
                differ += [
                    (name, kind.value, i)
                    for i, (c, s) in enumerate(zip(cold, seeded))
                    if c.tobytes() != s.tobytes()
                ]
    assert programs == 1512
    assert differ == []


@pytest.mark.parametrize("kind", list(RiskKind))
@pytest.mark.parametrize("name", DEGENERATE_PANELS)
def test_degenerate_panels_certify_every_solve(monkeypatch, rng, kind, name):
    # Singular and tied risk models, through the cold start's pivot and the
    # critical line's seeds: every solve of the three sweeps and of the
    # tradeoff program at both ends meets its KKT conditions to 1e-8, scaled.
    values = degenerate_panel(rng, name)
    assets = tuple(f"A{i:03d}" for i in range(values.shape[1]))
    model = build_risk_model(ReturnsMatrix(assets=assets, values=values), kind=kind)
    returns_out = ReturnsMatrix(assets=assets, values=random_returns(rng, len(assets), 50).values)
    real = optimizers.solve_qp
    solves = []

    def spy(qp, start=()):
        solves.append((qp, real(qp, start=start)))
        return solves[-1][1]

    monkeypatch.setattr(optimizers, "solve_qp", spy)
    efficient_frontier(model, 8)
    lambda_frontier(model, 8)
    frontier_fit(model, returns_out, 8)
    for lam in (0.0, 1.0):
        lambda_portfolio(model, ObjectiveParams(lam=lam))
    assert len(solves) == 8 + 8 + 9 + 2
    for qp, solution in solves:
        assert scaled_kkt(qp, solution) <= 1e-8


def test_constant_asset_does_not_hide_a_feasible_target(monkeypatch):
    # The constant asset leaves D only the 1e-11 ridge on its diagonal, so
    # n+'D^-1 n+ of the return row (~1e4) and of that asset's bound (~5e10)
    # dwarfs their parts off the working set at target 0.00022, which lies
    # between two other assets' means; neither row depends on the set.
    rng = np.random.default_rng(1)
    for name in DEGENERATE_PANELS:
        values = degenerate_panel(rng, name)
    assets = tuple(f"A{i:03d}" for i in range(values.shape[1]))
    model = build_risk_model(ReturnsMatrix(assets=assets, values=values))
    real = optimizers.solve_qp
    solves = []

    def spy(qp, start=()):
        solves.append((qp, real(qp, start=start)))
        return solves[-1][1]

    monkeypatch.setattr(optimizers, "solve_qp", spy)
    points = efficient_frontier(model, 8)
    assert 0.00022 in [point.parameter for point in points]
    assert len(solves) == 8
    for qp, solution in solves:
        assert scaled_kkt(qp, solution) <= 1e-8


def recorded_solves(monkeypatch) -> list:
    """The list that every later ``solve_qp`` of the optimizers appends
    its ``(program, solution)`` to."""
    real = optimizers.solve_qp
    solves = []

    def spy(qp, start=()):
        solves.append((qp, real(qp, start=start)))
        return solves[-1][1]

    monkeypatch.setattr(optimizers, "solve_qp", spy)
    return solves


@pytest.mark.parametrize("kind", list(RiskKind))
def test_cold_solves_end_in_the_guess(monkeypatch, kind):
    # Block pivoting reaches the optimal working set of a cold minimum-risk,
    # pinned or tradeoff program, which is returned with no loop step
    monkeypatch.setattr(optimizers, "_kept", None)
    solves = recorded_solves(monkeypatch)
    for seed in range(6):
        model = build_risk_model(random_returns(np.random.default_rng(seed), 150), kind=kind)
        target = model.mu.min() + 0.6 * (model.mu.max() - model.mu.min())
        markowitz_portfolio(model)
        markowitz_portfolio(model, ObjectiveParams(target_return=target, pin_return_equality=True))
        lambda_portfolio(model, ObjectiveParams(lam=0.5))
    assert [solution.iterations for _, solution in solves] == [0] * 18
    assert max(scaled_kkt(qp, solution) for qp, solution in solves) <= 1e-8


@pytest.mark.parametrize("kind", list(RiskKind))
def test_sweeps_never_reach_the_loop(monkeypatch, kind):
    # Every point of the three sweeps starts from its segment's bounds and
    # pivots to its optimal working set: no solve reaches the dual loop or
    # takes a loop step, including the first point of a fit sweep
    looped = []

    def spy(*args, loop=qp_module._loop):
        looped.append(args[3])
        return loop(*args)

    monkeypatch.setattr(qp_module, "_loop", spy)
    solves = recorded_solves(monkeypatch)
    for seed in range(6):
        returns = random_returns(np.random.default_rng(seed), 150, 500)
        model = build_risk_model(returns, kind=kind)
        efficient_frontier(model)
        lambda_frontier(model)
        frontier_fit(model, random_returns(np.random.default_rng(seed + 100), 150, 250))
    assert looped == []
    assert len(solves) == 6 * (40 + 40 + 41)
    assert [solution.iterations for _, solution in solves] == [0] * len(solves)


@pytest.mark.filterwarnings("error")
def test_overflowing_means_raise_numerical_breakdown(monkeypatch):
    # a semivariance model with a finite mean of 2.5e307: the sweep's rounded
    # targets and the critical line overflow, and each refuses its
    # non-finite result instead of returning it
    values = np.array([[0.1, 5e307, 1.0 / 30.0], [1.0 / 11.0, 2.1e-308 - 1.0, 3.2 / 3.1 - 1.0]])
    model = build_risk_model(ReturnsMatrix(("A", "B", "C"), values), kind=RiskKind.SEMIVARIANCE)
    assert model.mu.max() == 2.5e307
    monkeypatch.setattr(optimizers, "_kept", None)
    with pytest.raises(NumericalBreakdown, match="sweep targets overflow"):
        efficient_frontier(model, 8)
    with pytest.raises(NumericalBreakdown, match="critical line overflows"):
        optimizers._line(model)
    assert optimizers._kept is None
    # the tradeoff program's answer is the top-mean vertex, settled on its
    # free block without overflow
    solves = recorded_solves(monkeypatch)
    weights = lambda_portfolio(model, ObjectiveParams(lam=0.5)).weights
    np.testing.assert_array_equal(weights, [0.0, 1.0, 0.0])
    [(qp, solution)] = solves
    assert scaled_kkt(qp, solution) <= 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pin", [True, False])
def test_overflowing_mean_leaves_a_return_target_solvable(monkeypatch, pin):
    # the 5-row --risk svar file with one price 1e308: the return row's
    # entry of 1.25e307 would overflow the free block's Schur complement,
    # its dependence scale and the drift test's scale unscaled, and the
    # programs pinned at and floored by half the top mean have one finite
    # answer with half the budget on that asset
    prices = np.array(
        [[1, 2, 3], [1.1, 1e308, 3.1], [1.2, 2.1, 3.2], [1.3, 2.2, 3.0], [1.25, 2.3, 3.3]]
    )
    values = prices[1:] / prices[:-1] - 1.0
    model = build_risk_model(ReturnsMatrix(("A", "B", "C"), values), kind=RiskKind.SEMIVARIANCE)
    assert model.mu.max() == 1.25e307
    solves = recorded_solves(monkeypatch)
    params = ObjectiveParams(target_return=model.mu.max() / 2, pin_return_equality=pin)
    weights = markowitz_portfolio(model, params).weights
    np.testing.assert_allclose(weights, [0.3627, 0.5, 0.1373], atol=1e-4)
    [(qp, solution)] = solves
    assert scaled_kkt(qp, solution) <= 1e-8
