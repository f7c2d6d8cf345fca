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
fitness trace is nondecreasing by construction.  A generation is array
work over the whole population: every operator acts on all pairs at
once.  A binding supplies only its initial population, fitness,
mutated-gene values and recombination.

Reproducibility: one seeded generator drives each run and draws in a
fixed order per generation: selection uniforms for the whole population;
one mutation-firing uniform per pair; one mutated gene per pair; one
value per pair whose mutation fires; one crossover cut per pair (absent
for a one-asset integer run); then, for the continuous binding, a new cut
for each pair with a zero-mass child, round by round.  Frontier sweeps
derive one independent child seed per point from the master seed.
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
from .risk_models import RiskModel, quadratic_form

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


def _crossover(first: np.ndarray, second: np.ndarray, cuts: np.ndarray) -> np.ndarray:
    """Single-point crossover of every pair: pair k's first child keeps
    ``cuts[k]`` leading genes of its first parent.  Shape ``(pairs, 2, N)``."""
    keep = np.arange(first.shape[-1]) < cuts[:, None]
    return np.stack([np.where(keep, first, second), np.where(keep, second, first)], axis=1)


def _normalized_children(first: np.ndarray, second: np.ndarray, cuts: np.ndarray):
    """Crossover children scaled to unit mass, and per pair whether a child
    has zero mass (such a child is left unscaled)."""
    children = _crossover(first, second, cuts)
    mass = children.sum(axis=-1, keepdims=True)
    return children / np.where(mass > 0.0, mass, 1.0), (mass <= 0.0).any(axis=(1, 2))


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
    children, zero = _normalized_children(w1[None], w2[None], np.array([cut]))
    if zero[0]:
        raise ZeroMassChild(f"cut {cut} left a child with zero mass")
    return children[0, 0], children[0, 1]


def _cross_continuous(first: np.ndarray, second: np.ndarray, rng: np.random.Generator):
    """Renormalized crossover of every pair; rows 2k and 2k+1 are pair k's children.

    Zero-mass children only arise from exactly-zero gene blocks, which
    evolved populations never contain.  A pair with one redraws its own
    cut, up to 64 cuts in all, and then keeps its parents, renormalized.
    """
    pairs, n = first.shape
    children, zero = _normalized_children(first, second, rng.integers(1, n, size=pairs))
    for _ in range(63):
        redo = np.flatnonzero(zero)
        if not redo.size:
            break
        children[redo], zero[redo] = _normalized_children(
            first[redo], second[redo], rng.integers(1, n, size=redo.size)
        )
    stuck = np.flatnonzero(zero)
    parents = np.stack([first[stuck], second[stuck]], axis=1)
    children[stuck] = parents / parents.sum(axis=-1, keepdims=True)
    return children.reshape(-1, n)


def _mutate(
    genes: np.ndarray, generation_j: int, params: GaParams, binding: str, draw_values, rng
) -> np.ndarray:
    """Escalating one-gene mutation of every row, in place: a row fires
    with probability ``mr + (j/m) * ramp`` and then takes the next of
    ``draw_values(count)`` in its drawn gene.  Returns ``genes``."""
    ramp = _MUTATION[binding][1]
    rate = params.mutation_base(binding) + (generation_j / params.generations) * ramp
    rows, width = genes.shape
    fire = rng.random(rows) < rate
    gene = rng.integers(width, size=rows)
    hit = np.flatnonzero(fire)
    genes[hit, gene[hit]] = draw_values(hit.size)
    return genes


def _continuous_values(rng: np.random.Generator):
    """Mutated-gene values of the continuous binding: U(0, 2)."""
    return lambda count: rng.uniform(0.0, 2.0, count)


def mutate_continuous(
    w: np.ndarray, generation_j: int, params: GaParams, rng: np.random.Generator
) -> np.ndarray:
    """Escalating one-gene mutation: fires with probability
    ``mr + (j/m) * 0.5`` and replaces a random gene by U(0, 2).

    Renormalization happens at crossover, not here.
    """
    genes = np.array(w, dtype=float)[None]
    return _mutate(genes, generation_j, params, "continuous", _continuous_values(rng), rng)[0]


# --- the shared loop ---------------------------------------------------------


def _evolve(population, fitness, draw_values, recombine, binding: str, params: GaParams, rng):
    """Run the elitist generations; returns the best individual and the trace.

    ``fitness`` scores a population, ``draw_values(count)`` gives the new
    values of the genes mutation hits in the first parents, and
    ``recombine(first, second)`` turns the pairs' parents into the
    children, rows 2k and 2k+1 coming from pair k.
    """
    pop = population.shape[0]
    fit = fitness(population)
    order = np.argsort(fit, kind="stable")
    population, fit = population[order], fit[order]
    best = [float(fit[-1])]

    for j in range(2, params.generations + 1):
        chosen = _roulette_indices(_shifted(fit), pop, rng)
        first = _mutate(population[chosen[0::2]], j, params, binding, draw_values, rng)
        children = recombine(first, population[chosen[1::2]])
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
        _continuous_values(rng),
        lambda first, second: _cross_continuous(first, second, rng),
        "continuous",
        params,
        rng,
    )
    return portfolio_from_weights(model, w, params.report_threshold), trace


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
    """
    n_raw = np.asarray(n_raw, dtype=int)
    value = params.effective_prices * n_raw.reshape(-1, n_raw.shape[-1])
    total = value.sum(axis=-1, keepdims=True)
    props = np.divide(value, total, out=np.zeros_like(value), where=total > 0.0)
    out = np.where(props > 0.0, (props * params.capital) // params.lot_cost, 0).astype(int)
    for row in np.flatnonzero(mkt.residual_cash(out, params) < 0.0):
        order = np.argsort(-props[row], kind="stable")
        while mkt.residual_cash(out[row], params) < 0.0:
            out[row, order[out[row, order] > 0][0]] -= 1
    return out.reshape(n_raw.shape)


def _initial_integer_population(
    pop: int, params: MarketParams, rng: np.random.Generator
) -> np.ndarray:
    """Each individual visits the assets in its own random order and buys
    U{0..capacity} lots of each, capacity being what its remaining cash
    affords."""
    n = params.n_assets
    counts = np.zeros((pop, n), dtype=int)
    individuals = np.arange(pop)
    remaining = np.full(pop, float(params.capital))
    for assets in rng.permuted(np.tile(np.arange(n), (pop, 1)), axis=1).T:
        capacity = np.maximum(remaining // params.lot_cost[assets], 0.0).astype(int)
        counts[individuals, assets] = rng.integers(0, capacity + 1)
        remaining = mkt.residual_cash(counts, params)
    over = remaining < 0.0
    counts[over] = repair_integer(counts[over], params)
    return counts


def _cross_integer(first: np.ndarray, second: np.ndarray, market: MarketParams, rng):
    """Single-point crossover of every pair (no cut for one asset), then
    one repair of all children; rows 2k and 2k+1 are pair k's children."""
    pairs, n = first.shape
    cuts = rng.integers(1, n, size=pairs) if n > 1 else np.ones(pairs, dtype=int)
    return repair_integer(_crossover(first, second, cuts).reshape(-1, n), market)


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
        lambda first, second: _cross_integer(first, second, market, rng),
        "integer",
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
