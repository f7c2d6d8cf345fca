"""Genetic-algorithm operators and the two problem bindings."""

from __future__ import annotations

import itertools
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import portopt.ga as ga_mod
from portopt.ga import (
    _CONTINUOUS_MUTATION,
    _INTEGER_MUTATION,
    GaParams,
    _crossover,
    _cuts,
    _evolve,
    _floor_divide,
    _initial_integer_population,
    _mutate,
    _renormalize,
    _roulette_indices,
    _shifted,
    ga_frontier,
    ga_lambda_n_portfolio,
    ga_lambda_portfolio,
    repair_integer,
)
from portopt.market import MarketParams, evaluate, fitness, residual_cash
from portopt.optimizers import ObjectiveParams, lambda_portfolio
from portopt.risk_models import RiskModel

from conftest import random_model

ONE_ASSET = RiskModel(assets=("A",), mu=np.array([0.001]), sigma=np.array([[1e-4]]))


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


class TestRoulette:
    def test_mass_concentration(self, rng):
        picks = _roulette_indices(np.array([1.0, 0.0, 0.0]), 200, rng)
        assert set(picks.tolist()) == {0}

    def test_equal_mass_is_fair(self):
        draws = _roulette_indices(np.array([1.0, 1.0]), 10_000, np.random.default_rng(1))
        assert np.mean(draws) == pytest.approx(0.5, abs=0.02)

    def test_three_to_one(self):
        draws = _roulette_indices(np.array([3.0, 1.0]), 10_000, np.random.default_rng(2))
        freq0 = float((draws == 0).mean())
        assert freq0 == pytest.approx(0.75, abs=0.02)

    def test_negative_fitness_shifted(self):
        mass = _shifted(np.array([-5.0, -1.0]))
        assert (mass > 0.0).all()
        draws = _roulette_indices(mass, 5_000, np.random.default_rng(3))
        # after shifting, the better (less negative) individual dominates
        assert np.mean(draws) > 0.9

    def test_degenerate_zero_mass_uniform(self):
        draws = _roulette_indices(np.zeros(3), 6_000, np.random.default_rng(4))
        counts = np.bincount(draws, minlength=3) / 6_000
        assert np.abs(counts - 1 / 3).max() < 0.03


def cross(w1, w2, cut: int) -> np.ndarray:
    """One pair's two children, crossed at ``cut`` and renormalized."""
    first, second = np.asarray(w1, dtype=float)[None], np.asarray(w2, dtype=float)[None]
    return _renormalize(_crossover(first, second, np.array([cut])))


class TestCrossover:
    def test_identical_parents_fixed_point(self):
        w = np.array([0.25, 0.25, 0.5])
        c1, c2 = cross(w, w, cut=1)
        np.testing.assert_allclose(c1, w, atol=1e-15)
        np.testing.assert_allclose(c2, w, atol=1e-15)

    def test_hand_trace_and_guard(self):
        # child1 = (1, 1) -> (0.5, 0.5); child2 = (0, 0) becomes equal weight
        np.testing.assert_array_equal(cross([1.0, 0.0], [0.0, 1.0], cut=1), [[0.5, 0.5]] * 2)
        c1, c2 = cross([0.6, 0.4], [0.2, 0.8], cut=1)
        np.testing.assert_allclose(c1, np.array([0.6, 0.8]) / 1.4, atol=1e-15)
        np.testing.assert_allclose(c2, np.array([0.2, 0.4]) / 0.6, atol=1e-15)

    @given(
        raw1=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
        raw2=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=8),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_children_on_simplex(self, raw1, raw2, data):
        size = min(len(raw1), len(raw2))
        first, second = np.asarray(raw1[:size])[None], np.asarray(raw2[:size])[None]
        cut = data.draw(st.integers(1, max(size - 1, 1)))
        raw = _crossover(first, second, np.array([cut]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            children = _renormalize(raw)
        for before, child in zip(raw, children):
            if not before.any():
                np.testing.assert_array_equal(child, np.full(size, 1.0 / size))
            assert child.sum() == pytest.approx(1.0, abs=1e-12)
            assert (child >= 0).all()

    def test_generation_draws_one_cut_per_pair_and_nothing_else(self):
        # pairing (1, 0, 0, 0) with (0, 0, 0, 1) leaves a zero-mass child at
        # every cut; mutation writes zeros and draws no value of its own
        population = np.tile([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]], (3, 1))
        crossed = []

        def repair(children):
            crossed.append(children.copy())
            return _renormalize(children)

        rng, twin = np.random.default_rng(0), np.random.default_rng(0)
        best, _ = _evolve(
            population,
            lambda pop: np.zeros(len(pop)),
            np.zeros,
            repair,
            (0.5, 0.0),
            GaParams(generations=2),
            rng,
        )
        twin.random(6)  # selection
        twin.random(3)  # mutation firing
        twin.integers(4, size=3)  # mutated genes
        twin.integers(1, 4, size=3)  # cuts
        assert rng.random() == twin.random()
        assert (crossed[0].sum(axis=1) == 0.0).any()
        assert best.sum() == pytest.approx(1.0, abs=1e-15)

    def test_one_asset_draws_no_cut_and_copies_its_parents(self):
        first, second = np.array([[0.3], [0.0]]), np.array([[0.7], [0.0]])
        rng, twin = np.random.default_rng(2), np.random.default_rng(2)
        children = _crossover(first, second, _cuts(1, 2, rng))
        np.testing.assert_array_equal(children, [[0.3], [0.7], [0.0], [0.0]])
        assert rng.random() == twin.random()
        np.testing.assert_array_equal(_renormalize(children), np.ones((4, 1)))


def fired_share(binding: str, generation_j: int, generations: int, seed: int) -> float:
    """Share of 20 000 rows whose genes one ``_mutate`` call changed at the
    binding's rate for generation ``generation_j`` of ``generations``."""
    rng = np.random.default_rng(seed)
    if binding == "continuous":
        (base, ramp), genes = _CONTINUOUS_MUTATION, np.full((20_000, 4), 0.25)
        draw = partial(rng.uniform, 0.0, 2.0)
    else:  # integer draws are at least 1, so a hit always changes a zero gene
        (base, ramp), genes = _INTEGER_MUTATION, np.zeros((20_000, 4), dtype=int)
        draw = partial(rng.integers, 1, 10)
    before = genes.copy()
    _mutate(genes, base + (generation_j / generations) * ramp, draw, rng)
    return float((genes != before).any(axis=1).mean())


class TestMutation:
    def test_final_generation_rate(self):
        # base rate plus the full ramp by the last generation:
        # continuous 0.2 + 0.5, integer 0.3 + 0.3
        for binding, rate in (("continuous", 0.7), ("integer", 0.6)):
            share = fired_share(binding, 100, 100, seed=5)
            assert share == pytest.approx(rate, abs=0.02), binding

    def test_early_generation_rate_near_base(self):
        for binding, rate in (("continuous", 0.2), ("integer", 0.3)):
            share = fired_share(binding, 1, 10_000, seed=6)
            assert share == pytest.approx(rate, abs=0.02), binding

    def test_stays_nonnegative(self, rng, monkeypatch):
        # the continuous binding's mutated genes take U(0, 2) values
        written = []

        def spy(genes, rate, draw_values, rng):
            before = genes.copy()
            _mutate(genes, rate, draw_values, rng)
            written.append(genes[genes != before])
            return genes

        monkeypatch.setattr(ga_mod, "_mutate", spy)
        ga_lambda_portfolio(random_model(rng, 5), 0.5, GaParams(generations=10, seed=1))
        values = np.concatenate(written)
        assert values.size
        assert ((values >= 0.0) & (values <= 2.0)).all()


class TestContinuousGa:
    def test_single_asset_runs_every_generation(self, rng):
        # one asset has no cut to draw, yet both bindings trace each generation
        model = random_model(rng, 1)
        params = GaParams(generations=50)
        portfolio, trace = ga_lambda_portfolio(model, 0.5, params)
        np.testing.assert_array_equal(portfolio.weights, [1.0])
        assert len(trace.best_fitness_per_generation) == 50
        market = MarketParams(capital=100.0, prices=np.array([3.0]))
        _, trace = ga_lambda_n_portfolio(model, 0.5, params, market)
        assert len(trace.best_fitness_per_generation) == 50

    def test_close_to_qp_optimum(self, rng):
        model = random_model(rng, 10)
        qp_best = lambda_portfolio(model, ObjectiveParams(lam=0.5))
        f_qp = 0.5 * qp_best.expected_return - 0.5 * float(
            qp_best.weights @ model.sigma @ qp_best.weights
        )
        portfolio, trace = ga_lambda_portfolio(
            model, 0.5, GaParams(generations=300, seed=17)
        )
        f_ga = 0.5 * portfolio.expected_return - 0.5 * portfolio.risk**2
        assert abs(f_qp - f_ga) / abs(f_qp) < 0.02
        assert portfolio.weights.sum() == pytest.approx(1.0, abs=1e-9)

    def test_trace_monotone_and_deterministic(self, rng):
        model = random_model(rng, 6)
        params = GaParams(generations=120, seed=9)
        p1, t1 = ga_lambda_portfolio(model, 0.4, params)
        p2, t2 = ga_lambda_portfolio(model, 0.4, params)
        assert np.array_equal(p1.weights, p2.weights)
        assert np.array_equal(
            t1.best_fitness_per_generation, t2.best_fitness_per_generation
        )
        assert (np.diff(t1.best_fitness_per_generation) >= 0).all()
        assert len(t1.best_fitness_per_generation) == 120

    def test_sparse_view_threshold(self, rng):
        model = random_model(rng, 8)
        portfolio, _ = ga_lambda_portfolio(model, 0.5, GaParams(generations=60, seed=2))
        assert all(v > 0.005 for v in portfolio.sparse_view.values())

    def test_population_defaults(self):
        assert GaParams().population_for(95) == 94
        assert GaParams().population_for(10) == 30
        assert GaParams(population=44).population_for(95) == 44
        with pytest.raises(ValueError):
            GaParams(population=7)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"generations": 2.5},
            {"generations": "3"},
            {"generations": None},
            {"population": 4.0},
            {"seed": 1.0},
            {"seed": None},
            {"seed": -1},
        ],
    )
    def test_params_refuse_what_a_run_cannot_use(self, kwargs):
        with pytest.raises(ValueError):
            GaParams(**kwargs)

    def test_params_take_any_whole_numbers(self, rng):
        # ga_frontier's child seeds are uint64 values up to 2**64 - 1
        params = GaParams(generations=np.int64(3), population=np.int32(4), seed=2**64 - 1)
        _, trace = ga_lambda_portfolio(random_model(rng, 3), 0.5, params)
        assert len(trace.best_fitness_per_generation) == 3


class TestRepair:
    def test_zero_is_fixed_point(self):
        params = MarketParams(capital=100.0, prices=np.array([10.0, 5.0]))
        np.testing.assert_array_equal(
            repair_integer(np.zeros(2, dtype=int), params), [0, 0]
        )

    def test_overdraft_scaled_back(self):
        params = MarketParams(capital=100.0, prices=np.array([10.0, 5.0]))
        repaired = repair_integer(np.array([15, 15]), params)  # wants 225
        assert residual_cash(repaired, params) >= 0.0
        assert repaired.sum() > 0

    def test_feasible_fixed_points_small_lattice(self):
        # Exhaustive: repairing a feasible vector whose proportions
        # re-derive the same floor counts leaves it unchanged; without
        # costs or lots, with a buy rate, and with both.
        for capital, rate, lot in ((30.0, 0.0, 1), (30.0, 0.03, 1), (90.0, 0.02, 3)):
            params = MarketParams(
                capital=capital, prices=np.array([7.0, 4.0]), buy_cost_rates=rate, lot_sizes=lot
            )
            unit = params.prices * params.lot_sizes * (1.0 + params.buy_cost_rates)
            unchanged = 0
            total = 0
            for n1, n2 in itertools.product(range(5), range(8)):
                n = np.array([n1, n2])
                if residual_cash(n, params) < 0.0:
                    continue
                total += 1
                out = repair_integer(n, params)
                assert residual_cash(out, params) >= 0.0
                props = n * params.prices * params.lot_sizes
                if props.sum() > 0:
                    props = props / props.sum()
                    expected = (props * params.capital // unit).astype(int)
                    np.testing.assert_array_equal(out, expected)
                    if np.array_equal(out, n):
                        unchanged += 1
            assert unchanged > 0 and total > unchanged

    def test_preserves_proportion_order(self):
        params = MarketParams(capital=1000.0, prices=np.array([10.0, 10.0, 10.0]))
        repaired = repair_integer(np.array([60, 30, 10]), params)
        assert repaired[0] >= repaired[1] >= repaired[2]
        assert residual_cash(repaired, params) >= 0.0

    @given(
        counts=st.lists(st.integers(0, 10_000), min_size=2, max_size=6),
        capital=st.floats(1.0, 1e6),
        rate=st.floats(0.0, 0.3),
    )
    @settings(max_examples=150, deadline=None)
    def test_repair_always_feasible(self, counts, capital, rate):
        n = np.asarray(counts)
        prices = np.linspace(0.5, 40.0, n.shape[0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny-capital warning is fine here
            params = MarketParams(capital=capital, prices=prices, buy_cost_rates=rate)
        repaired = repair_integer(n, params)
        assert (repaired >= 0).all()
        assert residual_cash(repaired, params) >= 0.0

    def test_floor_division_matches_the_exact_one(self):
        # floor(a / b) with an exact // only near whole quotients: the same
        # numbers as a // b, on quotients at, just above and just below
        # whole numbers k and on random ones
        gen = np.random.default_rng(5)
        b = gen.uniform(0.01, 500.0, size=(1, 500)) * 10.0 ** gen.integers(-3, 4, size=(1, 500))
        k = gen.integers(0, 10 ** gen.integers(1, 8, size=(40, 1)), size=(40, 500)).astype(float)
        exact = k * b
        for a in (
            exact,
            np.nextafter(exact, np.inf),
            np.nextafter(exact, 0.0),
            exact * (1.0 + gen.uniform(-1e-12, 1e-12, size=exact.shape)),
            gen.uniform(0.0, 1e6, size=exact.shape),
        ):
            np.testing.assert_array_equal(_floor_divide(a, b[0]), a // b)

    def test_population_rows_repaired_on_their_own(self):
        # (5, 0) and (7, 0) floor to 393 lots of A, one ulp over the capital
        # in residual_cash's order, so the rounding guard takes one back.
        params = MarketParams(capital=51.09, prices=np.array([0.10, 5.0]), buy_cost_rates=0.3)
        population = np.array([[5, 0], [0, 0], [3, 4], [7, 0], [0, 0], [1, 1]])
        repaired = repair_integer(population, params)
        np.testing.assert_array_equal(repaired, [repair_integer(row, params) for row in population])
        assert params.capital // params.lot_cost[0] == 393.0
        assert repaired[[0, 3]].tolist() == [[392, 0], [392, 0]]
        assert not repaired[[1, 4]].any()
        assert (residual_cash(repaired, params) >= 0.0).all()

    def test_capital_an_exact_multiple_of_lot_cost(self):
        # 393 lots of 0.10 * 1.3 cost exactly 51.09 in one float order and
        # 51.09 plus one ulp in the order residual_cash sums them.
        params = MarketParams(capital=51.09, prices=np.array([0.10]), buy_cost_rates=0.3)
        repaired = repair_integer(np.array([5]), params)
        assert residual_cash(repaired, params) >= 0.0
        assert evaluate(repaired, ONE_ASSET, params, lam=1.0).residual >= 0.0

    @pytest.mark.parametrize(
        "params, five_of_the_first",
        [
            # the guard takes one of the 393 lots back, as above
            (MarketParams(capital=51.09, prices=np.array([0.10, 5.0]), buy_cost_rates=0.3), 392),
            (
                MarketParams(
                    capital=1e5,
                    prices=np.linspace(1.0, 100.0, 8),
                    buy_cost_rates=0.02,
                    lot_sizes=np.array([1, 10, 100, 1, 10, 100, 1, 10]),
                ),
                98_039,
            ),
        ],
    )
    def test_float_counts_repair_like_int_counts(self, params, five_of_the_first):
        counts = np.random.default_rng(7).integers(0, 2000, size=(40, params.n_assets))
        counts[:3] = 0
        counts[2, 0] = 5
        from_int = repair_integer(counts, params)
        from_float = repair_integer(counts.astype(float), params)
        assert from_int.dtype == np.int64 and from_float.dtype == np.float64
        np.testing.assert_array_equal(from_float, from_int)
        assert from_float[2, 0] == five_of_the_first
        assert repair_integer(counts[2].tolist(), params).dtype == np.int64


class TestInitialPopulation:
    @given(
        seed=st.integers(0, 2**32 - 1),
        capital=st.floats(1.0, 1e6),
        rate=st.floats(0.0, 0.3),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_row_within_budget(self, seed, capital, rate):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny-capital warning is fine here
            params = MarketParams(
                capital=capital,
                prices=np.linspace(0.1, 40.0, 6),
                buy_cost_rates=rate,
                lot_sizes=np.array([1, 10, 1, 100, 1, 3]),
            )
        counts = _initial_integer_population(20, params, np.random.default_rng(seed))
        assert counts.dtype == np.float64
        assert (counts >= 0).all() and (counts == np.floor(counts)).all()
        assert (residual_cash(counts, params) >= 0.0).all()

    def test_residual_cash_judges_the_running_balance(self):
        # 393 lots of 0.10 * 1.3 are one ulp over 51.09 in residual_cash's
        # order; rows that draw them are repaired whatever the balance says
        params = MarketParams(capital=51.09, prices=np.array([0.10]), buy_cost_rates=0.3)
        counts = _initial_integer_population(2000, params, np.random.default_rng(0))
        assert counts.max() == 392.0
        assert (residual_cash(counts, params) >= 0.0).all()


class TestIntegerGa:
    def test_exhaustive_oracle(self, model3):
        market = MarketParams(
            capital=50.0,
            prices=np.array([7.0, 5.0, 3.0]),
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
            risk_free_rate=0.0001,
            horizon=251,
        )
        caps = [int(50.0 // (p * 1.01)) for p in market.prices]
        grid = np.array(list(itertools.product(*[range(c + 1) for c in caps])))
        feasible = grid[
            (grid * market.prices * 1.01).sum(axis=1) <= market.capital
        ]
        best = float(fitness(feasible, model3, market, 0.5).max())
        solution, trace = ga_lambda_n_portfolio(
            model3, 0.5, GaParams(generations=300, seed=11), market
        )
        assert solution.fitness == pytest.approx(best, rel=1e-12)
        assert (np.diff(trace.best_fitness_per_generation) >= 0).all()

    def test_residual_nonnegative_and_deterministic(self, model3):
        market = MarketParams(
            capital=200.0,
            prices=np.array([7.0, 5.0, 3.0]),
            buy_cost_rates=0.02,
            sell_cost_rates=0.01,
            horizon=251,
        )
        params = GaParams(generations=80, seed=5)
        s1, t1 = ga_lambda_n_portfolio(model3, 0.6, params, market)
        s2, t2 = ga_lambda_n_portfolio(model3, 0.6, params, market)
        assert s1.residual >= 0.0
        assert np.array_equal(s1.shares, s2.shares)
        assert np.array_equal(
            t1.best_fitness_per_generation, t2.best_fitness_per_generation
        )

    def test_lot_equivalence_bitwise(self, model3):
        base_prices = np.array([7.0, 5.0, 3.0])
        params = GaParams(generations=60, seed=21)
        with_lots = MarketParams(
            capital=5000.0, prices=base_prices, buy_cost_rates=0.01, lot_sizes=100
        )
        scaled = MarketParams(
            capital=5000.0, prices=base_prices * 100, buy_cost_rates=0.01
        )
        s1, _ = ga_lambda_n_portfolio(model3, 0.5, params, with_lots)
        s2, _ = ga_lambda_n_portfolio(model3, 0.5, params, scaled)
        assert np.array_equal(s1.shares, s2.shares)
        assert s1.fitness == s2.fitness
        assert s1.residual == s2.residual

    def test_capital_an_exact_multiple_of_lot_cost(self):
        market = MarketParams(capital=51.09, prices=np.array([0.10]), buy_cost_rates=0.3)
        solution, _ = ga_lambda_n_portfolio(
            ONE_ASSET, 1.0, GaParams(generations=20, seed=0), market
        )
        assert solution.residual >= 0.0
        assert solution.shares.tolist() == [392]

    @pytest.mark.parametrize("n_assets", [1, 2, 3, 8])
    def test_solution_fitness_is_the_trace_best(self, n_assets):
        # seed 0 at two assets gave a one-ulp difference while one purchase
        # and a population summed w'Sw in different orders
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = random_model(rng, n_assets)
            market = MarketParams(
                capital=10_000.0,
                prices=rng.uniform(1.0, 100.0, n_assets),
                buy_cost_rates=0.01,
                sell_cost_rates=0.01,
                risk_free_rate=1e-4,
            )
            solution, trace = ga_lambda_n_portfolio(
                model, 0.3, GaParams(generations=20, seed=seed), market
            )
            assert solution.fitness == trace.best_fitness_per_generation[-1]

    @pytest.mark.parametrize("n_assets", [1, 2, 3, 8, 30])
    def test_solution_fitness_is_its_return_and_risk_tradeoff(self, n_assets):
        # the population scored w'Sw in its own summation order, so the
        # reported fitness agrees with the row's own terms to a few roundings
        # of those terms; fitness itself may cancel to near 0
        lam = 0.3
        for seed in range(5):
            rng = np.random.default_rng(seed)
            model = random_model(rng, n_assets)
            market = MarketParams(
                capital=10_000.0,
                prices=rng.uniform(1.0, 100.0, n_assets),
                buy_cost_rates=0.01,
                sell_cost_rates=0.01,
                risk_free_rate=1e-4,
            )
            solution, _ = ga_lambda_n_portfolio(
                model, lam, GaParams(generations=20, seed=seed), market
            )
            earned = lam * solution.expected_return
            risk_term = (1.0 - lam) * solution.risk**2
            bound = 1e-15 * (abs(earned) + risk_term)
            assert abs(solution.fitness - (earned - risk_term)) <= bound

    def test_market_required(self, model3):
        with pytest.raises(ValueError):
            ga_lambda_n_portfolio(model3, 0.5, GaParams())


class TestGaFrontier:
    def test_matches_qp_frontier_pointwise(self):
        # Zero-cost continuous GA frontier against the exact tradeoff
        # frontier: observed max pointwise relative return gap 0.0044.
        from portopt.frontier import lambda_frontier

        model = random_model(np.random.default_rng(9000), 5)
        qp_points = lambda_frontier(model, n_points=11)
        ga_points = ga_frontier(model, GaParams(generations=500, seed=0), n_points=11)
        for q, g in zip(qp_points, ga_points):
            assert abs(q.expected_return - g.expected_return) < 0.02 * abs(
                q.expected_return
            )

    def test_lambda_grid_and_determinism(self, rng):
        model = random_model(rng, 5)
        params = GaParams(generations=40, seed=13)
        points = ga_frontier(model, params, n_points=5)
        assert [p.parameter for p in points] == [0.0, 0.25, 0.5, 0.75, 1.0]
        again = ga_frontier(model, params, n_points=5)
        assert all(
            np.array_equal(a.portfolio.weights, b.portfolio.weights)
            for a, b in zip(points, again)
        )

    def test_independent_seeds_per_point(self, rng):
        # identical lam at different frontier positions gets different seeds
        model = random_model(rng, 5)
        params = GaParams(generations=30, seed=13)
        points = ga_frontier(model, params, n_points=3)
        direct, _ = ga_lambda_portfolio(model, 0.5, params)
        # same lam=0.5 but a derived seed: almost surely a different draw path
        assert not np.array_equal(points[1].portfolio.weights, direct.weights)


class TestSeededPins:
    """Seeded results pinned across commits, not only across reruns.

    A change to the documented RNG draw order must update these values
    and say so in CHANGES.md.
    """

    def test_integer_model3(self, model3):
        market = MarketParams(
            capital=200.0,
            prices=np.array([7.0, 5.0, 3.0]),
            buy_cost_rates=0.02,
            sell_cost_rates=0.01,
            risk_free_rate=0.0001,
            horizon=251,
        )
        solution, trace = ga_lambda_n_portfolio(
            model3, 0.05, GaParams(generations=150, seed=31), market
        )
        assert solution.shares.tolist() == [6, 4, 15]
        assert len(trace.best_fitness_per_generation) == 150
        assert trace.best_fitness_per_generation[-1] == pytest.approx(
            3.1421379482071766e-06, rel=1e-12
        )

    def test_integer_random_model(self, rng):
        model = random_model(rng, 8)
        market = MarketParams(
            capital=10_000.0,
            prices=np.linspace(4.0, 60.0, 8),
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
            horizon=251,
        )
        solution, trace = ga_lambda_n_portfolio(
            model, 0.05, GaParams(generations=120, seed=8), market
        )
        assert solution.shares.tolist() == [0, 219, 0, 0, 0, 102, 53, 0]
        assert len(trace.best_fitness_per_generation) == 120
        assert trace.best_fitness_per_generation[-1] == pytest.approx(
            8.066767497378022e-05, rel=1e-12
        )

    def test_integer_lots_sell_rates_risk_free(self, rng):
        model = random_model(rng, 5)
        market = MarketParams(
            capital=50_000.0,
            prices=np.linspace(3.0, 40.0, 5),
            buy_cost_rates=0.01,
            sell_cost_rates=np.array([0.0, 0.01, 0.02, 0.005, 0.03]),
            risk_free_rate=3e-4,
            horizon=251,
            lot_sizes=np.array([10, 100, 1, 10, 100]),
        )
        solution, trace = ga_lambda_n_portfolio(
            model, 0.05, GaParams(generations=100, seed=3), market
        )
        assert solution.shares.tolist() == [271, 16, 155, 56, 0]
        assert solution.residual == pytest.approx(1234.675000000003, rel=1e-12)
        assert len(trace.best_fitness_per_generation) == 100
        assert trace.best_fitness_per_generation[-1] == pytest.approx(
            4.6703220117169625e-05, rel=1e-12
        )

    def test_integer_bench_scale(self, rng):
        """The benchmark's integer case: 100 assets, 1% costs, lots of
        1/10/100 and a 7% risk-free rate, 50 generations."""
        model = random_model(rng, 100, 500)
        market = MarketParams(
            capital=1_000_000.0,
            prices=rng.uniform(10.0, 100.0, 100),
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
            risk_free_rate=0.07 / 251,
            horizon=251,
            lot_sizes=rng.choice([1, 10, 100], 100),
        )
        solution, trace = ga_lambda_n_portfolio(
            model, 0.01, GaParams(generations=50, seed=1), market
        )
        held = {4: 2533, 24: 1071, 29: 644, 40: 1612, 51: 1597, 52: 177, 58: 346,
                61: 117, 68: 11, 78: 1, 79: 153, 89: 72, 90: 18}
        shares = np.zeros(100, dtype=int)
        shares[list(held)] = list(held.values())
        np.testing.assert_array_equal(solution.shares, shares)
        assert solution.residual == pytest.approx(295.7853253456997, rel=1e-12)
        assert len(trace.best_fitness_per_generation) == 50
        assert trace.best_fitness_per_generation[-1] == pytest.approx(
            1.3361609001518958e-05, rel=1e-12
        )

    def test_continuous_random_model(self, rng):
        model = random_model(rng, 8)
        _, trace = ga_lambda_portfolio(model, 0.05, GaParams(generations=120, seed=8))
        assert len(trace.best_fitness_per_generation) == 120
        assert trace.best_fitness_per_generation[-1] == pytest.approx(
            8.259047231949742e-05, rel=1e-12
        )
