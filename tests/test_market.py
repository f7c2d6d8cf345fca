"""Integer-share economics: costs, residual cash, net return, fitness."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portopt.ga import repair_integer
from portopt.market import (
    MarketParams,
    buy_cost,
    evaluate,
    fitness,
    implied_weights,
    market_params_from_dict,
    net_portfolio_return,
    residual_cash,
    sell_cost,
)
from portopt.optimizers import ObjectiveParams, lambda_portfolio
from portopt.risk_models import RiskModel


@pytest.fixture
def small_market():
    return MarketParams(
        capital=100.0,
        prices=np.array([10.0]),
        buy_cost_rates=0.01,
        sell_cost_rates=0.01,
        risk_free_rate=0.0,
        horizon=251,
    )


@pytest.fixture
def model3():
    mu = np.array([0.0020, 0.0012, 0.0008])
    sigma = np.array(
        [
            [4.0e-4, 1.0e-4, 0.5e-4],
            [1.0e-4, 2.5e-4, 0.3e-4],
            [0.5e-4, 0.3e-4, 1.0e-4],
        ]
    )
    return RiskModel(assets=("X", "Y", "Z"), mu=mu, sigma=sigma)


class TestBuyCost:
    def test_zero_rates(self):
        params = MarketParams(capital=100.0, prices=np.array([10.0, 5.0]))
        np.testing.assert_array_equal(buy_cost(np.array([3, 4]), params), [0.0, 0.0])

    def test_hand_case_with_residual(self, small_market):
        n = np.array([9])
        assert buy_cost(n, small_market)[0] == pytest.approx(0.9, abs=1e-12)
        assert residual_cash(n, small_market) == pytest.approx(9.1, abs=1e-12)

    def test_empty_portfolio(self, small_market):
        n = np.zeros(1, dtype=int)
        assert buy_cost(n, small_market)[0] == 0.0
        assert residual_cash(n, small_market) == small_market.capital


class TestSellCost:
    def test_zero_rate(self):
        params = MarketParams(capital=100.0, prices=np.array([10.0]), horizon=251)
        assert sell_cost(np.array([5]), np.array([0.001]), params)[0] == 0.0

    def test_zero_growth_collapses_to_spot(self):
        params = MarketParams(
            capital=100.0, prices=np.array([10.0]), sell_cost_rates=0.01, horizon=251
        )
        assert sell_cost(np.array([5]), np.array([0.0]), params)[0] == pytest.approx(0.5)

    def test_hand_case(self):
        params = MarketParams(
            capital=1000.0, prices=np.array([10.0]), sell_cost_rates=0.01, horizon=251
        )
        value = sell_cost(np.array([10]), np.array([0.001]), params)[0]
        assert value == pytest.approx(1.251, abs=1e-12)


class TestNetReturn:
    def test_frictionless_equals_weighted_mean(self, model3):
        params = MarketParams(capital=100.0, prices=np.array([10.0, 5.0, 2.0]))
        n = np.array([4, 6, 15])
        w = implied_weights(n, params)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert net_portfolio_return(n, model3, params) == pytest.approx(
            float(w @ model3.mu), abs=1e-15
        )

    def test_all_risk_free(self, model3):
        params = MarketParams(
            capital=100.0,
            prices=np.array([10.0, 5.0, 2.0]),
            risk_free_rate=0.07 / 251,
        )
        n = np.zeros(3, dtype=int)
        assert net_portfolio_return(n, model3, params) == pytest.approx(0.07 / 251)

    def test_weight_identity(self, model3):
        params = MarketParams(
            capital=97.0,
            prices=np.array([10.0, 5.0, 2.0]),
            buy_cost_rates=np.array([0.01, 0.02, 0.0]),
        )
        n = np.array([3, 5, 8])
        lhs = implied_weights(n, params).sum()
        eps = residual_cash(n, params)
        rhs = 1.0 - (eps + buy_cost(n, params).sum()) / params.capital
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestFitness:
    def test_lambda_one_no_costs_is_gross_return(self, model3):
        params = MarketParams(capital=100.0, prices=np.array([10.0, 5.0, 2.0]))
        n = np.array([2, 8, 10])
        assert fitness(n, model3, params, 1.0) == pytest.approx(
            net_portfolio_return(n, model3, params), abs=1e-18
        )

    def test_never_beats_frictionless_optimum(self, model3):
        # Integer + budget constraints restrict the continuous program, so
        # enumeration under zero costs stays below the QP tradeoff optimum.
        params = MarketParams(capital=60.0, prices=np.array([7.0, 5.0, 3.0]))
        best_qp = lambda_portfolio(model3, ObjectiveParams(lam=0.5))
        f_qp = 0.5 * best_qp.expected_return - 0.5 * float(
            best_qp.weights @ model3.sigma @ best_qp.weights
        )
        caps = [int(60.0 // p) for p in params.prices]
        grid = np.array(list(itertools.product(*[range(c + 1) for c in caps])))
        feasible = grid[(grid * params.prices).sum(axis=1) <= 60.0]
        values = fitness(feasible, model3, params, 0.5)
        assert values.max() <= f_qp + 1e-9

    def test_monotone_cost_degradation(self, model3):
        n = np.array([2, 3, 5])
        previous = np.inf
        for rate in (0.0, 0.01, 0.05, 0.1):
            params = MarketParams(
                capital=100.0, prices=np.array([10.0, 5.0, 2.0]), sell_cost_rates=rate
            )
            value = net_portfolio_return(n, model3, params)
            assert value <= previous + 1e-15
            previous = value


class TestLots:
    def test_lot_folds_into_price(self, model3):
        lots = MarketParams(
            capital=10_000.0,
            prices=np.array([10.0, 5.0, 2.0]),
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
            lot_sizes=100,
        )
        scaled = MarketParams(
            capital=10_000.0,
            prices=np.array([1000.0, 500.0, 200.0]),
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
        )
        np.testing.assert_array_equal(lots.effective_prices, scaled.effective_prices)
        n = np.array([3, 2, 10])
        assert fitness(n, model3, lots, 0.5) == fitness(n, model3, scaled, 0.5)
        assert residual_cash(n, lots) == residual_cash(n, scaled)

    def test_capital_warning(self):
        with pytest.warns(UserWarning) as record:
            MarketParams(capital=5.0, prices=np.array([10.0]))
        assert record[0].filename == __file__


class TestEvaluate:
    def test_solution_fields(self, model3):
        params = MarketParams(
            capital=100.0,
            prices=np.array([10.0, 5.0, 2.0]),
            buy_cost_rates=0.01,
        )
        sol = evaluate(np.array([4, 6, 10]), model3, params, lam=0.5)
        assert sol.residual >= 0
        assert sol.fitness == pytest.approx(
            0.5 * sol.expected_return - 0.5 * float(
                sol.implied_weights @ model3.sigma @ sol.implied_weights
            ),
            abs=1e-15,
        )
        assert sol.sparse_shares == {"X": 4, "Y": 6, "Z": 10}

    def test_negative_residual_rejected(self, model3):
        params = MarketParams(capital=10.0, prices=np.array([10.0, 5.0, 2.0]))
        with pytest.raises(ValueError):
            evaluate(np.array([9, 9, 9]), model3, params, lam=0.5)


class TestConfigLoading:
    def test_scalar_broadcast(self):
        params = market_params_from_dict(
            {
                "capital": 1000,
                "prices": [10.0, 20.0],
                "buy_cost_rates": 0.01,
                "sell_cost_rates": [0.01, 0.02],
                "risk_free_rate": 0.0001,
                "horizon": 100,
                "lot_sizes": 10,
            },
            n_assets=2,
        )
        np.testing.assert_array_equal(params.buy_cost_rates, [0.01, 0.01])
        np.testing.assert_array_equal(params.sell_cost_rates, [0.01, 0.02])
        np.testing.assert_array_equal(params.lot_sizes, [10, 10])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "setting",
        ["capital", "prices", "buy_cost_rates", "sell_cost_rates", "risk_free_rate", "horizon"],
    )
    def test_non_finite_rejected(self, setting, bad):
        fields = {"capital": 100.0, "prices": np.array([10.0, 5.0])}
        fields[setting] = np.array([10.0, bad]) if setting == "prices" else bad
        with pytest.raises(ValueError, match=f"{setting} must be finite"):
            MarketParams(**fields)

    @pytest.mark.parametrize(
        "setting, bad",
        [
            ("horizon", 2.7),
            ("horizon", np.inf),
            ("horizon", [251, 251]),
            ("lot_sizes", 1.5),
            ("lot_sizes", np.inf),
            ("lot_sizes", [1, 2.9]),
        ],
    )
    def test_horizon_and_lot_sizes_must_be_whole(self, setting, bad):
        with pytest.raises(ValueError, match=setting):
            MarketParams(capital=100.0, prices=np.array([10.0, 5.0]), **{setting: bad})

    def test_validation(self):
        with pytest.raises(ValueError):
            MarketParams(capital=-1.0, prices=np.array([1.0]))
        with pytest.raises(ValueError):
            MarketParams(capital=10.0, prices=np.array([-1.0]))
        with pytest.raises(ValueError):
            MarketParams(capital=10.0, prices=np.array([1.0]), horizon=0)


@pytest.mark.parametrize("n_assets", [1, 2, 3, 8, 30, 100])
@pytest.mark.parametrize(
    "function", [residual_cash, net_portfolio_return, fitness, repair_integer]
)
def test_population_call_matches_rows_bitwise(function, n_assets):
    rng = np.random.default_rng(n_assets)
    model = RiskModel(
        assets=tuple(f"A{i}" for i in range(n_assets)),
        mu=rng.uniform(0.0, 0.002, n_assets),
        sigma=np.cov(rng.normal(0.0, 0.01, size=(n_assets, 60))).reshape(n_assets, n_assets),
    )
    params = MarketParams(
        capital=1e5,
        prices=rng.uniform(1.0, 100.0, n_assets),
        buy_cost_rates=rng.uniform(0.0, 0.05, n_assets),
        sell_cost_rates=rng.uniform(0.0, 0.05, n_assets),
        risk_free_rate=3e-4,
        lot_sizes=rng.choice([1, 10, 100], n_assets),
    )
    args = {
        residual_cash: (params,),
        repair_integer: (params,),
        net_portfolio_return: (model, params),
    }.get(function, (model, params, 0.3))
    population = rng.integers(0, 50, size=(30, n_assets))
    rows = [function(row, *args) for row in population]
    np.testing.assert_array_equal(function(population, *args), rows)
    if function is not repair_integer:
        assert all(isinstance(value, float) for value in rows)


@given(
    counts=st.lists(st.integers(0, 50), min_size=2, max_size=5),
    rate=st.floats(0.0, 0.2),
)
@settings(max_examples=100, deadline=None)
def test_residual_identity(counts, rate):
    n = np.asarray(counts)
    dim = n.shape[0]
    prices = np.linspace(2.0, 9.0, dim)
    params = MarketParams(capital=1e6, prices=prices, buy_cost_rates=rate)
    eps = residual_cash(n, params)
    direct = params.capital - float((n * prices).sum()) - float(buy_cost(n, params).sum())
    assert eps == pytest.approx(direct, abs=1e-9)
