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
then a merge of parents and children keeping the best half - so the best
fitness trace is nondecreasing by construction.  A binding supplies only
its initial population, fitness, mutated-gene value and recombination.

Reproducibility: one seeded generator drives each run and draws in a
fixed order (selection uniforms for the whole population, then per pair:
mutation check, mutated gene and value if the check fires, crossover
cut - redrawn while a continuous child has zero mass, absent for a
one-asset integer run).  Frontier sweeps derive one independent child
seed per point from the master seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import market as mkt
from .errors import PortfolioError
from .frontier import FrontierPoint, _lambda_grid
from .market import IntegerSolution, MarketParams
from .optimizers import Portfolio, portfolio_from_weights
from .risk_models import RiskModel

#: Smallest population worth evolving; used when the asset count is low.
MIN_POPULATION = 30

#: Generations without improvement tolerated before an early stop.
EARLY_STOP_WINDOW = 30

#: Per binding: base mutation rate, and the escalation added to it by the
#: final generation.
_MUTATION = {"continuous": (0.2, 0.5), "integer": (0.3, 0.3)}


class ZeroMassChild(PortfolioError):
    """Crossover produced a child with no mass to renormalize."""


@dataclass(frozen=True)
class GaParams:
    """Run parameters; unset fields resolve to per-binding defaults."""

    generations: int = 500
    base_mutation_rate: float | None = None
    population: int | None = None
    seed: int = 0
    report_threshold: float = 0.005
    early_stop: bool = False

    def __post_init__(self):
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.base_mutation_rate is not None and not 0.0 <= self.base_mutation_rate <= 1.0:
            raise ValueError("base_mutation_rate must lie in [0, 1]")
        if self.population is not None and (self.population < 2 or self.population % 2):
            raise ValueError("population must be an even count of at least 2")

    def population_for(self, n_assets: int) -> int:
        """Even population matching the gene count, floored at 30."""
        if self.population is not None:
            return self.population
        return max(MIN_POPULATION, 2 * (n_assets // 2))

    def mutation_base(self, binding: str) -> float:
        if self.base_mutation_rate is not None:
            return self.base_mutation_rate
        return _MUTATION[binding][0]


@dataclass(frozen=True)
class GaTrace:
    """Best fitness per generation plus the closing population fitness."""

    best_fitness_per_generation: np.ndarray
    final_population_fitness: np.ndarray


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


def roulette_select(fitness: np.ndarray, rng: np.random.Generator) -> int:
    """One index drawn with probability fitness_i / sum(fitness).

    Expects the nonnegative (already shifted) fitness mass; raw fitness
    with negative entries is shifted first so the rule stays total.
    Degenerate mass (zero or non-finite total) selects uniformly.
    """
    f = np.asarray(fitness, dtype=float)
    if f.size and f.min() < 0.0:
        f = _shifted(f)
    return int(_roulette_indices(f, 1, rng)[0])


def crossover_continuous(
    w1: np.ndarray, w2: np.ndarray, cut: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange prefix/suffix at ``cut`` and renormalize both children.

    ``cut`` counts genes kept from the first listed parent, so it runs
    over 1..N-1.  A child with zero total mass cannot be renormalized;
    that raises :class:`ZeroMassChild` and the caller resamples the cut.
    """
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    n = w1.shape[0]
    if not 1 <= cut <= n - 1:
        raise ValueError(f"cut must lie in [1, {n - 1}]")
    child1 = np.concatenate([w1[:cut], w2[cut:]])
    child2 = np.concatenate([w2[:cut], w1[cut:]])
    s1, s2 = child1.sum(), child2.sum()
    if s1 <= 0.0 or s2 <= 0.0:
        raise ZeroMassChild(f"cut {cut} left a child with zero mass")
    return child1 / s1, child2 / s2


def _mutate(genes, generation_j: int, params: GaParams, binding: str, draw_value, rng):
    """Escalating one-gene mutation shared by both bindings: fires with
    probability ``mr + (j/m) * ramp`` and writes ``draw_value()`` into a
    random gene of a copy."""
    ramp = _MUTATION[binding][1]
    rate = params.mutation_base(binding) + (generation_j / params.generations) * ramp
    out = np.array(genes)
    if rng.random() < rate:
        gene = int(rng.integers(out.shape[0]))
        out[gene] = draw_value()
    return out


def mutate_continuous(
    w: np.ndarray, generation_j: int, params: GaParams, rng: np.random.Generator
) -> np.ndarray:
    """Escalating one-gene mutation: fires with probability
    ``mr + (j/m) * 0.5`` and replaces a random gene by U(0, 2).

    Renormalization happens at crossover, not here.
    """
    w = np.asarray(w, dtype=float)
    return _mutate(w, generation_j, params, "continuous", lambda: rng.uniform(0.0, 2.0), rng)


def _cross_resampling(w1, w2, rng: np.random.Generator):
    # Zero-mass children only arise from exactly-zero gene blocks, which
    # evolved populations never contain; bounded retries then parents as-is.
    for _ in range(64):
        cut = int(rng.integers(1, w1.shape[0]))
        try:
            return crossover_continuous(w1, w2, cut)
        except ZeroMassChild:
            continue
    return w1 / w1.sum(), w2 / w2.sum()


# --- the shared loop ---------------------------------------------------------


def _evolve(population, fitness, mutate, recombine, params: GaParams, rng):
    """Run the elitist generations; returns the best individual and the trace.

    ``fitness`` scores a population, ``mutate(genes, j)`` acts on the first
    parent of each pair and ``recombine`` turns a pair into two children.
    """
    pop = population.shape[0]
    fit = fitness(population)
    order = np.argsort(fit, kind="stable")
    population, fit = population[order], fit[order]
    best = [float(fit[-1])]

    for j in range(2, params.generations + 1):
        chosen = _roulette_indices(_shifted(fit), pop, rng)
        children = np.empty_like(population)
        for i in range(0, pop, 2):
            parent1 = mutate(population[chosen[i]], j)
            children[i], children[i + 1] = recombine(parent1, population[chosen[i + 1]])
        merged_fit = np.concatenate([fit, fitness(children)])
        keep = np.argsort(merged_fit, kind="stable")[pop:]
        population = np.vstack([population, children])[keep]
        fit = merged_fit[keep]
        best.append(float(fit[-1]))
        if params.early_stop and len(best) > EARLY_STOP_WINDOW:
            if best[-1] <= best[-1 - EARLY_STOP_WINDOW]:
                break

    return population[-1], GaTrace(np.array(best), fit.copy())


# --- continuous binding ------------------------------------------------------


def _continuous_fitness(weights: np.ndarray, model: RiskModel, lam: float) -> np.ndarray:
    returns = weights @ model.mu
    variances = np.einsum("pi,ij,pj->p", weights, model.sigma, weights)
    return lam * returns - (1.0 - lam) * variances


def ga_lambda_portfolio(
    model: RiskModel, lam: float, params: GaParams | None = None
) -> tuple[Portfolio, GaTrace]:
    """Approximate the tradeoff optimum with the continuous-weight GA."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    params = params or GaParams()
    n = model.n_assets
    rng = np.random.default_rng(params.seed)

    if n == 1:
        w = np.ones((1, 1))
        f = _continuous_fitness(w, model, lam)
        trace = GaTrace(f.copy(), f.copy())
        return portfolio_from_weights(model, w[0], params.report_threshold), trace

    weights = rng.random((params.population_for(n), n))
    weights /= weights.sum(axis=1, keepdims=True)
    w, trace = _evolve(
        weights,
        lambda pop: _continuous_fitness(pop, model, lam),
        lambda genes, j: mutate_continuous(genes, j, params, rng),
        lambda w1, w2: _cross_resampling(w1, w2, rng),
        params,
        rng,
    )
    return portfolio_from_weights(model, w, params.report_threshold), trace


# --- integer binding ---------------------------------------------------------


def repair_integer(n_raw: np.ndarray, params: MarketParams) -> np.ndarray:
    """Project an integer purchase back into the budget.

    The raw counts' value proportions are preserved as closely as
    possible: each count is re-derived on its own as
    ``floor(proportion * K / lot_cost_i)``, zero where the proportion is
    not positive, and a rounding guard then takes lots back, largest
    proportion first (ties by ascending index), until the residual is
    nonnegative.
    """
    n_raw = np.asarray(n_raw, dtype=int)
    value = params.effective_prices * n_raw
    total = float(value.sum())
    if total <= 0.0:
        return np.zeros(n_raw.shape[0], dtype=int)
    props = value / total
    out = np.where(props > 0.0, (props * params.capital) // params.lot_cost, 0).astype(int)
    while mkt.residual_cash(out, params) < 0.0:
        order = np.argsort(-props, kind="stable")
        out[next(i for i in order if out[i] > 0)] -= 1
    return out


def _initial_integer_population(
    pop: int, params: MarketParams, rng: np.random.Generator
) -> np.ndarray:
    n = params.n_assets
    unit = params.lot_cost
    counts = np.zeros((pop, n), dtype=int)
    for i in range(pop):
        remaining = params.capital
        for asset in rng.permutation(n):
            capacity = int(remaining // unit[asset])
            if capacity > 0:
                counts[i, asset] = rng.integers(0, capacity + 1)
                remaining = mkt.residual_cash(counts[i], params)
        if remaining < 0.0:
            counts[i] = repair_integer(counts[i], params)
    return counts


def _cross_integer(n1, n2, market: MarketParams, rng: np.random.Generator):
    """Single-point crossover (no cut for one asset), then repair both children."""
    n = n1.shape[0]
    if n > 1:
        cut = int(rng.integers(1, n))
        n1, n2 = np.concatenate([n1[:cut], n2[cut:]]), np.concatenate([n2[:cut], n1[cut:]])
    return repair_integer(n1, market), repair_integer(n2, market)


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
        lambda genes, j: _mutate(
            genes, j, params, "integer", lambda: rng.integers(1, mutation_cap + 1), rng
        ),
        lambda n1, n2: _cross_integer(n1, n2, market, rng),
        params,
        rng,
    )
    solution = mkt.evaluate(counts, model, market, lam, params.report_threshold)
    return solution, trace


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
    seeds = np.random.SeedSequence(params.seed).generate_state(n_points, dtype=np.uint64)
    points = []
    for lam, seed in zip(_lambda_grid(n_points), seeds):
        sub = dataclasses.replace(params, seed=int(seed))
        if market is None:
            best, _ = ga_lambda_portfolio(model, float(lam), sub)
        else:
            best, _ = ga_lambda_n_portfolio(model, float(lam), sub, market)
        points.append(FrontierPoint(float(lam), best))
    return points
