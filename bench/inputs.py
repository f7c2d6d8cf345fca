"""Seeded benchmark inputs: factor-model return panels, price CSVs, markets.

Every generator takes a ``numpy.random.Generator``; callers derive one per
purpose from the run seed with :func:`rng_for`, so the same seed always
yields the same inputs and adding a draw in one place does not shift the
others.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from portopt.market import MarketParams
from portopt.market_data import ReturnsMatrix

#: Daily drift range of the timed panels.  The test factor model starts
#: at 0.0001; 0.0002 keeps 0.005 * min(mu) above the 5e-7 that rounding the
#: frontier sweep's lower end to six decimals can move it, also after the
#: NA gaps of a CSV round trip shift the sample means by about 1e-6.
BULL_DRIFT = (0.0002, 0.003)

#: Drift range of the bear-market probe: every asset loses on average.
BEAR_DRIFT = (-0.003, -0.0001)

#: Smallest sample mean of the near-zero probe: the sweep's lower end,
#: ``0.995 * min(mu)`` rounded to six decimals, is -8e-6, below every asset.
NEAR_ZERO_MIN = -7.77e-6


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for one purpose, keyed by ``(seed, *path)``."""
    return np.random.default_rng([seed, *path])


def factor_returns(
    rng: np.random.Generator,
    n_assets: int,
    periods: int,
    drift: tuple[float, float] = BULL_DRIFT,
) -> ReturnsMatrix:
    """Two-factor daily-return panel with equity-like scale and correlation.

    The model of ``random_returns`` in ``tests/conftest.py``, except that
    the shocks are centred column by column, so each asset's sample mean
    is exactly its drawn drift.  The frontier sweep range depends on the
    smallest and largest sample mean, and only the probes below put those
    where the sweep range is known to break.
    """
    loadings = rng.normal(size=(n_assets, 2)) * 0.005
    common = rng.normal(size=(periods, 2))
    idio = rng.normal(size=(periods, n_assets)) * 0.01
    mean = rng.uniform(*drift, size=n_assets)
    shocks = common @ loadings.T + idio
    values = shocks - shocks.mean(axis=0) + mean
    return ReturnsMatrix(assets=asset_names(n_assets), values=values)


def near_zero_min_returns(rng: np.random.Generator, n_assets: int, periods: int) -> ReturnsMatrix:
    """Factor-model panel whose smallest sample mean is ``NEAR_ZERO_MIN``."""
    returns = factor_returns(rng, n_assets, periods)
    values = np.array(returns.values)
    values[:, 0] += NEAR_ZERO_MIN - values[:, 0].mean()
    return ReturnsMatrix(assets=returns.assets, values=values)


def asset_names(n_assets: int) -> tuple[str, ...]:
    return tuple(f"A{i:03d}" for i in range(n_assets))


def split(returns: ReturnsMatrix, periods: int) -> tuple[ReturnsMatrix, ReturnsMatrix]:
    """First ``periods`` rows as the in-sample panel, re-centred on the
    whole panel's sample means (the drawn drifts); the rest as the
    out-of-sample panel of the same market, left as drawn."""
    values = returns.values
    head, tail = values[:periods], values[periods:]
    head = head - head.mean(axis=0) + values.mean(axis=0)
    return (
        ReturnsMatrix(assets=returns.assets, values=head),
        ReturnsMatrix(assets=returns.assets, values=tail),
    )


def price_path(rng: np.random.Generator, returns: ReturnsMatrix) -> np.ndarray:
    """Price rows compounding ``returns`` from random starting levels."""
    start = rng.uniform(10.0, 100.0, size=returns.n_assets)
    growth = np.cumprod(1.0 + returns.values, axis=0)
    return start * np.vstack([np.ones(returns.n_assets), growth])


def write_price_csv(
    path: Path, rng: np.random.Generator, returns: ReturnsMatrix, gap_frac: float = 0.01
) -> Path:
    """Write a price file for ``returns`` with about ``gap_frac`` of the
    quotes after the first row replaced by ``NA``."""
    prices = price_path(rng, returns)
    gaps = rng.random(prices.shape) < gap_frac
    gaps[0] = False
    prices[gaps] = np.nan
    row_format = ",".join(["%.6f"] * returns.n_assets)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("date," + ",".join(returns.assets) + "\n")
        for t, row in enumerate(prices):
            handle.write(f"d{t:05d},{(row_format % tuple(row)).replace('nan', 'NA')}\n")
    return path


def integer_market(rng: np.random.Generator, n_assets: int) -> MarketParams:
    """Integer-share market: 1% buy and sell costs, mixed lots, 7% risk-free."""
    return MarketParams(
        capital=1_000_000.0,
        prices=rng.uniform(10.0, 100.0, size=n_assets),
        buy_cost_rates=0.01,
        sell_cost_rates=0.01,
        risk_free_rate=0.07 / 251,
        horizon=251,
        lot_sizes=rng.choice([1, 10, 100], size=n_assets),
    )
