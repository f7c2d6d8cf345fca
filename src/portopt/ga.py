"""Elitist genetic algorithm for the portfolio tradeoff objectives.

Two problem bindings share one elitist loop:

* continuous weights on the simplex, objective
  ``lam * mu'w - (1 - lam) * w'Sw``;
* integer share counts under capital, transaction costs and lots, with
  the net-return objective from :mod:`portopt.market` and a
  proportion-preserving repair operator keeping every individual
  feasible.

Per generation: roulette selection over shifted fitness, one escalating
mutation per pair (applied to the first parent), single-point crossover,
the binding's repair of the children, then a merge of parents and
children keeping the best half - so the best fitness trace is
nondecreasing by construction.  A generation is array work over the
whole population: every operator acts on all pairs at once.  A binding
supplies only its initial population, fitness, mutated-gene values and
repair.

The integer binding carries its counts as float64 whole numbers, so no
product with a price vector first casts the population; below 2**53 the
values and every product's bits are those of int counts.  The initial
draws bound each purchase by a running cash balance, and
``market.residual_cash`` alone decides which rows are over budget and
go to ``repair_integer``.  ``market.evaluate`` returns int shares.  The
integer result reports the population's score of its best row, the
trace's last best, rather than scoring that row again.

Reproducibility: one seeded generator drives each run and draws in a
fixed order per generation: selection uniforms for the whole population;
one mutation-firing uniform per pair; one mutated gene per pair; one
value per pair whose mutation fires; one crossover cut per pair (absent
for one asset).  Frontier sweeps derive one independent child seed per
point from the master seed.
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import market as mkt
from .frontier import FrontierPoint, _lambda_grid
from .market import IntegerSolution, MarketParams
from .optimizers import Portfolio, portfolio_from_weights
from .risk_models import RiskModel, quadratic_form

#: Smallest population worth evolving; used when the asset count is low.
MIN_POPULATION = 30

#: Base mutation rate, and the escalation added to it by the final
#: generation, of the continuous and of the integer binding.
_CONTINUOUS_MUTATION = (0.2, 0.5)
_INTEGER_MUTATION = (0.3, 0.3)


@dataclass(frozen=True)
class GaParams:
    """Run parameters: whole numbers, the seed nonnegative.  An unset
    population follows the asset count; the per-binding mutation rates and
    the report threshold of the result's sparse view are fixed."""

    generations: int = 500
    population: int | None = None
    seed: int = 0

    def __post_init__(self):
        whole = (self.generations, self.seed, 2 if self.population is None else self.population)
        for name, value in zip(("generations", "seed", "population"), whole):
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be a whole number, not {value!r}") from None
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.population is not None and (self.population < 2 or self.population % 2):
            raise ValueError("population must be an even count of at least 2")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def population_for(self, n_assets: int) -> int:
        """Even population matching the gene count, floored at 30."""
        return self.population or max(MIN_POPULATION, 2 * (n_assets // 2))


@dataclass(frozen=True)
class GaTrace:
    """Best fitness per generation."""

    best_fitness_per_generation: np.ndarray


# --- operators ---------------------------------------------------------------


def _shifted(fitness: np.ndarray) -> np.ndarray:
    """Fitness shifted by its minimum (plus a tiny offset) so every
    individual keeps nonzero roulette mass."""
    fmin = float(fitness.min())
    return fitness - fmin + (1e-12 * abs(fmin) + 1e-15)


def _roulette_indices(mass: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` indices drawn with probability mass_i / sum(mass);
    degenerate mass (zero or non-finite total) selects uniformly."""
    total = mass.sum()
    if not np.isfinite(total) or total <= 0.0:
        probs = np.full(mass.shape[0], 1.0 / mass.shape[0])
    else:
        probs = mass / total
    cum = np.cumsum(probs)
    return np.minimum(np.searchsorted(cum, rng.random(count), side="left"), cum.shape[0] - 1)


def _cuts(n: int, pairs: int, rng: np.random.Generator) -> np.ndarray:
    """One crossover cut per pair in 1..n-1; none is drawn for one asset,
    whose children copy their parents."""
    return rng.integers(1, n, size=pairs) if n > 1 else np.ones(pairs, dtype=int)


def _crossover(first: np.ndarray, second: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Single-point crossover of every pair: pair k's first child keeps
    ``cuts[k]`` leading genes of its first parent.  Rows 2k and 2k+1 are
    pair k's children."""
    keep = np.arange(first.shape[-1]) < cuts[:, None]
    children = np.stack([np.where(keep, first, second), np.where(keep, second, first)], axis=1)
    return children.reshape(-1, first.shape[-1])


def _mutate(genes: np.ndarray, rate: float, draw_values, rng) -> np.ndarray:
    """One-gene mutation of every row, in place: a row fires with
    probability ``rate`` and then takes the next of ``draw_values(count)``
    in its drawn gene.  Returns ``genes``."""
    rows, width = genes.shape
    fire = rng.random(rows) < rate
    gene = rng.integers(width, size=rows)
    hit = np.flatnonzero(fire)
    genes[hit, gene[hit]] = draw_values(hit.size)
    return genes


# --- the shared loop ---------------------------------------------------------


def _evolve(population, fitness, draw_values, repair, mutation, params: GaParams, rng):
    """Run the elitist generations; returns the best individual and the trace.

    ``fitness`` scores a population, ``draw_values(count)`` gives the new
    values of the genes mutation hits in the first parents, ``mutation``
    is the binding's (base rate, ramp) pair - generation j of m fires at
    ``base + (j/m) * ramp`` - and ``repair(children)`` makes the crossover
    children individuals of the binding.
    """
    pop, n = population.shape
    base, ramp = mutation
    fit = fitness(population)
    order = np.argsort(fit, kind="stable")
    population, fit = population[order], fit[order]
    best = [float(fit[-1])]

    for j in range(2, params.generations + 1):
        chosen = _roulette_indices(_shifted(fit), pop, rng)
        rate = base + (j / params.generations) * ramp
        first = _mutate(population[chosen[0::2]], rate, draw_values, rng)
        children = repair(_crossover(first, population[chosen[1::2]], _cuts(n, pop // 2, rng)))
        merged_fit = np.concatenate([fit, fitness(children)])
        keep = np.argsort(merged_fit, kind="stable")[pop:]
        population = np.vstack([population, children])[keep]
        fit = merged_fit[keep]
        best.append(float(fit[-1]))

    return population[-1], GaTrace(np.array(best))


# --- continuous binding ------------------------------------------------------


def _renormalize(weights: np.ndarray) -> np.ndarray:
    """Repair of the continuous binding: every row scaled onto the simplex;
    a row of zero mass becomes the equal-weight portfolio."""
    mass = weights.sum(axis=1, keepdims=True)
    equal = np.full(weights.shape, 1.0 / weights.shape[1])
    return np.divide(weights, mass, out=equal, where=mass > 0.0)


def _continuous_fitness(weights: np.ndarray, model: RiskModel, lam: float) -> np.ndarray:
    return lam * (weights @ model.mu) - (1.0 - lam) * quadratic_form(weights, model.sigma)


def ga_lambda_portfolio(
    model: RiskModel, lam: float, params: GaParams | None = None
) -> tuple[Portfolio, GaTrace]:
    """Approximate the tradeoff optimum with the continuous-weight GA."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    params = params or GaParams()
    n = model.n_assets
    rng = np.random.default_rng(params.seed)
    w, trace = _evolve(
        _renormalize(rng.random((params.population_for(n), n))),
        lambda pop: _continuous_fitness(pop, model, lam),
        lambda count: rng.uniform(0.0, 2.0, count),
        _renormalize,
        _CONTINUOUS_MUTATION,
        params,
        rng,
    )
    return portfolio_from_weights(model, w, mkt.REPORT_THRESHOLD), trace


# --- integer binding ---------------------------------------------------------


def repair_integer(n_raw: np.ndarray, params: MarketParams) -> np.ndarray:
    """Project an integer purchase back into the budget.

    Broadcasts over a leading population axis, each row repaired on its
    own.  The raw counts' value proportions are preserved as closely as
    possible: each count is re-derived on its own as
    ``floor(proportion * K / lot_cost_i)``, zero where the proportion is
    not positive, and a rounding guard then takes lots back, largest
    proportion first (ties by ascending index), until the residual is
    nonnegative.

    The work is done in float64; whole numbers below 2**53 convert
    exactly, so float counts and int counts give the same values.  The
    result follows the input's kind: float counts (as the GA carries
    them) come back float64, anything else int64.
    """
    n_raw = np.asarray(n_raw)
    value = params.effective_prices * n_raw.reshape(-1, n_raw.shape[-1])
    total = value.sum(axis=-1, keepdims=True)
    props = np.divide(value, total, out=np.zeros_like(value), where=total > 0.0)
    out = np.where(props > 0.0, _floor_divide(props * params.capital, params.lot_cost), 0.0)
    for row in np.flatnonzero(mkt.residual_cash(out, params) < 0.0):
        order = np.argsort(-props[row], kind="stable")
        while mkt.residual_cash(out[row], params) < 0.0:
            out[row, order[out[row, order] > 0][0]] -= 1
    out = out.reshape(n_raw.shape)
    return out if np.issubdtype(n_raw.dtype, np.floating) else out.astype(np.int64)


def _floor_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a // b`` for ``a >= 0`` and ``b > 0`` broadcast along ``a``'s rows.

    ``floor(a / b)`` is the same number unless the rounded quotient lies
    within an ulp of a positive whole number, so only quotients within
    1e-9 (relative) of one pay for the exact ``//``.
    """
    quotient = a / b
    out = np.floor(quotient)
    frac = quotient - out
    close = np.minimum(frac, 1.0 - frac) < 1e-9 * quotient
    if close.any():
        out[close] = a[close] // np.broadcast_to(b, a.shape)[close]
    return out


def _initial_integer_population(
    pop: int, params: MarketParams, rng: np.random.Generator
) -> np.ndarray:
    """Each individual visits the assets in its own random order and buys
    U{0..capacity} lots of each, capacity being what its remaining cash
    affords.  The remaining cash is a running balance, each draw's cost
    taken off it; it only bounds the draws, and ``residual_cash`` then
    picks the rows that go over budget for repair.  Counts are float64
    whole numbers."""
    n = params.n_assets
    counts = np.zeros((pop, n))
    individuals = np.arange(pop)
    remaining = np.full(pop, float(params.capital))
    for assets in rng.permuted(np.tile(np.arange(n), (pop, 1)), axis=1).T:
        cost = params.lot_cost[assets]
        bought = rng.integers(0, np.maximum(remaining // cost, 0.0).astype(int) + 1)
        counts[individuals, assets] = bought
        remaining = remaining - bought * cost
    over = mkt.residual_cash(counts, params) < 0.0
    counts[over] = repair_integer(counts[over], params)
    return counts


def ga_lambda_n_portfolio(
    model: RiskModel,
    lam: float,
    params: GaParams | None = None,
    market: MarketParams | None = None,
) -> tuple[IntegerSolution, GaTrace]:
    """Integer-share GA under capital, transaction costs and lot sizes."""
    if market is None:
        raise ValueError("market parameters are required for the integer binding")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if market.n_assets != model.n_assets:
        raise ValueError("market and model asset counts differ")
    params = params or GaParams()
    rng = np.random.default_rng(params.seed)
    mutation_cap = max(2 * int(market.capital // market.effective_prices.min()), 1)

    counts, trace = _evolve(
        _initial_integer_population(params.population_for(model.n_assets), market, rng),
        lambda pop: mkt.fitness(pop, model, market, lam),
        lambda count: rng.integers(1, mutation_cap + 1, count),
        lambda children: repair_integer(children, market),
        _INTEGER_MUTATION,
        params,
        rng,
    )
    solution = mkt.evaluate(counts, model, market, lam)
    best = float(trace.best_fitness_per_generation[-1])
    return dataclasses.replace(solution, fitness=best), trace


# --- frontier sweep ----------------------------------------------------------


def ga_frontier(
    model: RiskModel,
    params: GaParams | None = None,
    market: MarketParams | None = None,
    n_points: int = 40,
):
    """GA-driven frontier: lam swept over [0, 1], one derived seed per point.

    Returns :class:`~portopt.frontier.FrontierPoint` entries whose
    ``portfolio`` is a :class:`Portfolio` for the continuous binding or an
    :class:`IntegerSolution` when market parameters are given.
    """
    params = params or GaParams()
    lams = _lambda_grid(n_points)
    seeds = np.random.SeedSequence(params.seed).generate_state(n_points, dtype=np.uint64)
    run = ga_lambda_portfolio if market is None else partial(ga_lambda_n_portfolio, market=market)
    subs = [dataclasses.replace(params, seed=int(seed)) for seed in seeds]
    return [FrontierPoint(lam, run(model, lam, sub)[0]) for lam, sub in zip(lams.tolist(), subs)]
