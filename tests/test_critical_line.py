"""The critical-line pass, and the line the optimizers keep to seed the
solves on one model."""

from __future__ import annotations

import numpy as np
import pytest

from portopt import critical_line as cl
from portopt import frontier, optimizers
from portopt.frontier import efficient_frontier, frontier_fit, lambda_frontier
from portopt.market_data import ReturnsMatrix
from portopt.optimizers import ObjectiveParams, _risk_term, lambda_portfolio, markowitz_portfolio
from portopt.risk_models import RiskKind, RiskModel, build_risk_model

from conftest import random_returns, scaled_kkt
from test_frontier import degenerate_panel, keeps_its_seed, returns_with_means


@pytest.fixture
def traces(monkeypatch):
    """The ``(dmat, mu)`` of every pass the optimizers trace, from no kept line."""
    log = []
    real = cl.critical_line

    def spy(dmat, mu):
        log.append((dmat, mu))
        return real(dmat, mu)

    monkeypatch.setattr(optimizers, "_kept", None)
    monkeypatch.setattr(optimizers, "critical_line", spy)
    return log


def sweep_solves(monkeypatch, model, returns, n_points=8) -> list:
    """``(seed, qp, solution)`` of every solve of the model's three sweeps."""
    real = optimizers.solve_qp
    log = []

    def spy(qp, start=()):
        log.append((np.asarray(start, dtype=int), qp, real(qp, start=start)))
        return log[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(optimizers, "solve_qp", spy)
        efficient_frontier(model, n_points)
        lambda_frontier(model, n_points)
        frontier_fit(model, returns, n_points)
    return log


def with_means(kind, means, seed=7):
    """A model on random returns, with exactly ``means`` as its mean vector."""
    returns = random_returns(np.random.default_rng(seed), len(means), 250)
    base = build_risk_model(returns, kind=kind)
    model = RiskModel(base.assets, np.array(means, dtype=float), base.sigma, kind=kind)
    return model, returns


def line_of(model):
    return cl.critical_line(_risk_term(model), model.mu)


def check_cold_bits(monkeypatch, model, returns):
    """Every seeded solve of the sweeps has the cold solve's bits and meets
    its KKT conditions; returns the solves."""
    solves = sweep_solves(monkeypatch, model, returns)
    for _, qp, solution in solves:
        cold = optimizers.solve_qp(qp)
        np.testing.assert_array_equal(solution.x, cold.x)
        assert scaled_kkt(qp, solution) <= 1e-8
    return solves


@pytest.mark.parametrize("kind", list(RiskKind))
def test_one_pass_per_model(traces, kind):
    returns = random_returns(np.random.default_rng(5), 30, 250)
    model = build_risk_model(returns, kind=kind)
    efficient_frontier(model, 6)
    lambda_frontier(model, 6)
    frontier_fit(model, returns, 6)
    assert len(traces) == 1
    np.testing.assert_array_equal(traces[0][0], _risk_term(model))
    # the kept line is the model object's: an equal model traces its own,
    # which then replaces it
    twin = RiskModel(model.assets, model.mu, model.sigma, kind=kind)
    efficient_frontier(twin, 6)
    lambda_frontier(twin, 6)
    assert len(traces) == 2 and optimizers._kept[0] is twin
    efficient_frontier(model, 6)
    assert len(traces) == 3


def test_critical_line_is_pure():
    # each call traces its own pass
    model = build_risk_model(random_returns(np.random.default_rng(5), 30, 250))
    dmat = _risk_term(model)
    first, second = cl.critical_line(dmat, model.mu), cl.critical_line(dmat, model.mu)
    assert first is not second
    np.testing.assert_array_equal(first.t_low, second.t_low)
    np.testing.assert_array_equal(first.return_low, second.return_low)
    for a, b in zip(first.free, second.free, strict=True):
        np.testing.assert_array_equal(a, b)


def lone_programs(model) -> list:
    """``(solve, segment)`` for one lone solve of each program kind on
    ``model``: a pinned and a ``>=`` return at 60% of the mean range, the
    minimum-risk program, and the tradeoffs l = 0.4 and 1; ``segment``
    maps a line to the segment the solve should start from."""
    target = float(model.mu.min() + 0.6 * np.ptp(model.mu))
    pinned = ObjectiveParams(target_return=target, pin_return_equality=True)
    at_least = ObjectiveParams(target_return=target)
    return [
        (lambda: markowitz_portfolio(model, pinned), lambda line: line.segment_at_return(target)),
        (
            lambda: markowitz_portfolio(model, at_least),
            lambda line: min(line.segment_at_return(target), line.segment_at(0.0)),
        ),
        (lambda: markowitz_portfolio(model), lambda line: line.segment_at(0.0)),
        (
            lambda: lambda_portfolio(model, ObjectiveParams(lam=0.4)),
            lambda line: line.segment_at(0.4 / (1.0 - 0.4)),
        ),
        (
            lambda: lambda_portfolio(model, ObjectiveParams(lam=1.0)),
            lambda line: line.segment_at(np.inf),
        ),
    ]


def logged_solve(monkeypatch, solve) -> tuple:
    """``(portfolio, seed, qp, solution)`` of a call that solves one program."""
    real = optimizers.solve_qp
    log = []

    def spy(qp, start=()):
        log.append((np.asarray(start, dtype=int), qp, real(qp, start=start)))
        return log[-1][2]

    with monkeypatch.context() as patch:
        patch.setattr(optimizers, "solve_qp", spy)
        portfolio = solve()
    [(start, qp, solution)] = log
    return portfolio, start, qp, solution


def segment_seed(qp, line, k) -> np.ndarray:
    """The rows a solve seeded from segment ``k`` starts from: the return
    inequality, if any, when it binds (``k`` is its target's segment),
    then the bounds of the assets that the segment holds at zero."""
    meq, n = qp.b_eq.shape[0], qp.n
    first_bound = meq + qp.b_ineq.shape[0] - n
    binds = first_bound > meq and line.segment_at_return(qp.b_ineq[0]) == k
    held = np.setdiff1d(np.arange(n), line.free[k])
    return np.concatenate([np.arange(meq, first_bound if binds else meq), first_bound + held])


@pytest.mark.parametrize("kind", list(RiskKind))
def test_kept_line_seeds_lone_solves_with_cold_bits(monkeypatch, kind):
    # after the model's line is kept, a lone solve of each program kind
    # starts from its segment, takes no step, and has the bits of the same
    # solve once the line is no longer kept
    model = build_risk_model(random_returns(np.random.default_rng(12), 150, 500), kind=kind)
    monkeypatch.setattr(optimizers, "_kept", None)
    line = optimizers._line(model)
    seeded = []
    for solve, segment in lone_programs(model):
        portfolio, start, qp, solution = logged_solve(monkeypatch, solve)
        np.testing.assert_array_equal(start, segment_seed(qp, line, segment(line)))
        assert solution.iterations == 0
        seeded.append(portfolio)
    optimizers._kept = None
    for (solve, _), warm in zip(lone_programs(model), seeded, strict=True):
        cold, start, _, _ = logged_solve(monkeypatch, solve)
        assert start.size == 0
        np.testing.assert_array_equal(warm.weights, cold.weights)


@pytest.mark.parametrize("kind", list(RiskKind))
def test_an_equal_model_object_starts_cold(monkeypatch, kind):
    model = build_risk_model(random_returns(np.random.default_rng(12), 30, 250), kind=kind)
    twin = RiskModel(model.assets, model.mu, model.sigma, kind=kind)
    monkeypatch.setattr(optimizers, "_kept", None)
    optimizers._line(model)
    for (solve, _), (on_model, _) in zip(lone_programs(twin), lone_programs(model), strict=True):
        cold, start, _, _ = logged_solve(monkeypatch, solve)
        assert start.size == 0
        np.testing.assert_array_equal(cold.weights, on_model().weights)


@pytest.mark.parametrize("kind", list(RiskKind))
def test_pinned_return_at_the_highest_mean(monkeypatch, kind):
    # mu.max() is the first corner's return, the top vertex's own: the
    # solve starts from the segment below it, where the return row does not
    # depend on the seeded bounds, takes no step and has the cold bits
    model = build_risk_model(random_returns(np.random.default_rng(13), 150, 500), kind=kind)
    top = float(model.mu.max())
    params = ObjectiveParams(target_return=top, pin_return_equality=True)
    monkeypatch.setattr(optimizers, "_kept", None)
    line = optimizers._line(model)
    assert line.return_low[0] == top and line.free[0].size == 1
    assert line.segment_at_return(top) == 1
    warm, start, qp, solution = logged_solve(
        monkeypatch, lambda: markowitz_portfolio(model, params)
    )
    np.testing.assert_array_equal(start, segment_seed(qp, line, 1))
    assert solution.iterations == 0
    optimizers._kept = None
    cold = markowitz_portfolio(model, params)
    np.testing.assert_array_equal(warm.weights, cold.weights)
    np.testing.assert_array_equal(np.flatnonzero(warm.weights), [np.argmax(model.mu)])


@pytest.mark.parametrize("kind", list(RiskKind))
def test_segments_are_the_optimal_free_sets(kind):
    # the cold optimum pinned at the return halfway down a segment holds
    # exactly the segment's free set, on both branches of the line
    model = build_risk_model(random_returns(np.random.default_rng(6), 20, 250), kind=kind)
    line = line_of(model)
    assert line.t_low[-1] == line.return_low[-1] == -np.inf
    assert (np.diff(line.t_low) <= 0.0).all() and (np.diff(line.return_low) <= 0.0).all()
    assert line.t_low[0] > 0.0 > line.t_low[-2]
    for high, low, free in zip(line.return_low, line.return_low[1:-1], line.free[1:-1]):
        middle = (high + low) / 2.0
        params = optimizers.ObjectiveParams(target_return=middle, pin_return_equality=True)
        weights = markowitz_portfolio(model, params).weights
        np.testing.assert_array_equal(np.flatnonzero(weights), np.sort(free))


@pytest.mark.parametrize("kind", list(RiskKind))
def test_tie_at_the_highest_mean(monkeypatch, kind):
    # The line starts from the tied assets' own minimum-risk portfolio,
    # and every point still takes no step.
    means = [0.002, 0.001, 0.002, 0.0005, 0.002, 0.0007]
    model, returns = with_means(kind, means)
    top = [0, 2, 4]
    assets = tuple(model.assets[i] for i in top)
    tied = RiskModel(assets, model.mu[top], model.sigma[np.ix_(top, top)])
    held = np.array(top)[markowitz_portfolio(tied).weights > 0.0]
    np.testing.assert_array_equal(np.sort(line_of(model).free[0]), held)
    for _, _, solution in check_cold_bits(monkeypatch, model, returns):
        assert solution.iterations == 0


@pytest.mark.parametrize("kind", list(RiskKind))
def test_near_tie_at_the_lowest_mean(monkeypatch, kind):
    # Two means equal but for roundoff: the pass's last corner falls at
    # |t| ~ 1e13, where mu_F'alpha + t mu_F'beta is noise times t.  The
    # corner returns still fall, so the lowest target finds its segment.
    means = [0.0004, 0.0004, 0.0011, 0.0011, 0.002]
    returns = returns_with_means(np.random.default_rng(7), means)
    model = build_risk_model(returns, kind=kind)
    assert abs(line_of(model).t_low[-2]) > 1e12
    for _, _, solution in check_cold_bits(monkeypatch, model, returns):
        assert solution.iterations == 0


@pytest.mark.parametrize("kind", list(RiskKind))
def test_all_equal_means_are_one_segment(monkeypatch, kind):
    # every portfolio has the same return, so the line is one point: the
    # minimum-risk portfolio, from t = +inf to -inf
    model, returns = with_means(kind, [0.0011] * 6)
    line = line_of(model)
    np.testing.assert_array_equal(line.t_low, [-np.inf])
    held = np.flatnonzero(markowitz_portfolio(model).weights)
    np.testing.assert_array_equal(np.sort(line.free[0]), held)
    check_cold_bits(monkeypatch, model, returns)


@pytest.mark.parametrize("kind", list(RiskKind))
@pytest.mark.parametrize("seed", [0, 1])
def test_duplicated_column_keeps_t_falling(monkeypatch, kind, seed):
    # a column and its exact copy enter at one corner: drift puts the
    # copy's corner above the one just taken, and the pass takes it there
    values = degenerate_panel(np.random.default_rng(seed), "duplicate")
    returns = ReturnsMatrix(tuple(f"A{i}" for i in range(values.shape[1])), values)
    model = build_risk_model(returns, kind=kind)
    line = line_of(model)
    assert (np.diff(line.t_low) <= 0.0).all()
    for _, _, solution in check_cold_bits(monkeypatch, model, returns):
        assert solution.iterations == 0


@pytest.mark.parametrize("kind", list(RiskKind))
def test_lam_one_is_the_highest_mean_vertex(monkeypatch, kind):
    model = build_risk_model(random_returns(np.random.default_rng(8), 30, 250), kind=kind)
    real = optimizers.solve_qp
    log = []

    def spy(qp, start=()):
        log.append((np.asarray(start, dtype=int), real(qp, start=start)))
        return log[-1][1]

    monkeypatch.setattr(optimizers, "solve_qp", spy)
    last = lambda_frontier(model, 5)[-1]
    assert last.parameter == 1.0
    np.testing.assert_array_equal(last.portfolio.weights, np.eye(30)[np.argmax(model.mu)])
    start, solution = log[-1]
    assert solution.iterations == 0
    assert start.size == 29 and np.isin(start, solution.active_set).all()


@pytest.mark.parametrize("kind", list(RiskKind))
def test_rebuilt_tableaus_find_the_same_corners(monkeypatch, kind):
    # with every sweep refused, each corner rebuilds the tableau from M for
    # its new free set, and the pass finds the same corners
    model = build_risk_model(random_returns(np.random.default_rng(9), 40, 250), kind=kind)
    swept = line_of(model)
    real, rebuilds = cl._Tableau.rebuild, []

    def rebuild(self, assets):
        rebuilds.append(assets)
        return real(self, assets)

    monkeypatch.setattr(cl._Tableau, "sweep", lambda self, k: False)
    monkeypatch.setattr(cl._Tableau, "rebuild", rebuild)
    rebuilt = line_of(model)
    assert len(rebuilt.free) == len(swept.free) == len(rebuilds) > 40
    for a, b, assets in zip(rebuilt.free, swept.free, rebuilds):
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, assets)
    np.testing.assert_allclose(rebuilt.t_low, swept.t_low, rtol=1e-9)


def test_singular_block_ends_the_pass():
    # the second asset's column repeats the first's: its entering pivot is
    # 0, and the rebuild finds D_FF singular, so the pass ends at t = 0
    line = cl.critical_line(np.ones((2, 2)), np.array([1.0, 0.0]))
    np.testing.assert_array_equal(line.t_low, [0.0])
    np.testing.assert_array_equal(line.return_low, [1.0])
    np.testing.assert_array_equal(line.free[0], [0])


@pytest.mark.parametrize("kind", list(RiskKind))
def test_long_pass_segments_are_the_optimal_free_sets(kind):
    # at N = 150 the pass runs through several flushes of its waiting
    # sweeps; every 10th segment is still the support of the cold optimum
    # pinned at its middle return, and the last free asset never leaves
    model = build_risk_model(random_returns(np.random.default_rng(14), 150, 500), kind=kind)
    line = line_of(model)
    assert len(line.free) > 3 * cl._FLUSH
    assert min(free.size for free in line.free) >= 1
    assert line.free[-1].size == 1 and line.t_low[-1] == -np.inf
    for k in range(10, len(line.free) - 1, 10):
        middle = (line.return_low[k - 1] + line.return_low[k]) / 2.0
        params = optimizers.ObjectiveParams(target_return=middle, pin_return_equality=True)
        weights = markowitz_portfolio(model, params).weights
        np.testing.assert_array_equal(np.flatnonzero(weights), np.sort(line.free[k]))


@pytest.mark.parametrize("kind", list(RiskKind))
def test_fit_target_below_the_minimum_risk_return(monkeypatch, kind):
    # A target just below the first corner under t = 0 is slack: its point
    # is the minimum-risk portfolio, seeded from the t = 0 segment and not
    # from the segment that the target's return falls on.
    returns = random_returns(np.random.default_rng(11), 30, 250)
    model = build_risk_model(returns, kind=kind)
    line = line_of(model)
    below = line.return_low[line.segment_at(0.0)]
    monkeypatch.setattr(frontier, "_target_range", lambda mu, n, low=None: np.array([below - 1e-9]))
    solves = sweep_solves(monkeypatch, model, returns, n_points=1)
    start, qp, solution = solves[-1]
    np.testing.assert_array_equal(solution.x, solves[-2][2].x)  # the base point's
    assert solution.iterations == 0
    assert keeps_its_seed(start, solution, qp) and start.size > 0


def check_early_end(monkeypatch, model, returns, segments):
    """The pass ends after ``segments`` segments, above t = -inf; the sweep
    points below its end get no seed, and every answer keeps its bits."""
    line = line_of(model)
    assert len(line.free) == segments and np.isfinite(line.t_low[-1])
    monkeypatch.setattr(optimizers, "_kept", None)
    solves = sweep_solves(monkeypatch, model, returns)
    seedless = [start.size == 0 for start, *_ in solves]
    assert 0 < sum(seedless) < len(solves)
    for _, qp, solution in solves:
        np.testing.assert_array_equal(solution.x, optimizers.solve_qp(qp).x)


@pytest.mark.parametrize("kind", list(RiskKind))
def test_corner_cap_ends_the_pass(monkeypatch, kind):
    returns = random_returns(np.random.default_rng(10), 30, 250)
    model = build_risk_model(returns, kind=kind)
    assert len(line_of(model).free) > 30
    monkeypatch.setattr(cl, "CORNERS_PER_ASSET", 1)
    check_early_end(monkeypatch, model, returns, 30)


@pytest.mark.parametrize("kind", list(RiskKind))
def test_failed_rebuild_ends_the_pass(monkeypatch, kind):
    # the first corner's sweep is refused and its rebuild fails
    returns = random_returns(np.random.default_rng(10), 30, 250)
    model = build_risk_model(returns, kind=kind)
    real = cl._Tableau.rebuild
    monkeypatch.setattr(cl._Tableau, "sweep", lambda self, k: False)
    monkeypatch.setattr(
        cl._Tableau, "rebuild", lambda self, assets: len(assets) == 1 and real(self, assets)
    )
    check_early_end(monkeypatch, model, returns, 1)
