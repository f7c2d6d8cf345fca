"""Market frictions: integer share counts, transaction costs, lots, cash.

A candidate purchase is a vector ``n`` of nonnegative integer counts, in
lot units.  Lots fold into an effective per-lot price ``p_i * lot_i`` and
everything downstream works on that price, so a lot-L problem is exactly
the lot-1 problem at L-times the price.

Buying ``n`` costs ``n_i p_i (1 + cb_i)`` per asset; whatever capital is
left over (the residual) earns the risk-free rate and may never go
negative - no leverage.  Sell costs are charged on the expected
end-of-horizon value ``n_i (p_i + T mu_i p_i) cs_i`` and amortized per
period, giving the net per-period portfolio return

    R_p = sum(mu_i p_i n_i) / K  -  sum(Cs_i) / (K T)  +  residual * Rf / K.

Risk keeps the usual quadratic form on the implied weights
``w_i = n_i p_i / K``, and the tradeoff objective

    F = lam * R_p - (1 - lam) * w' S w

is what the genetic algorithm maximizes.

All evaluation functions broadcast over a leading population axis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .optimizers import _sparse_view
from .risk_models import RiskModel, _whole, _whole_scalar, quadratic_form


def _per_asset(value, n: int, name: str, whole: bool = False) -> np.ndarray:
    arr = _whole(value, name) if whole else np.asarray(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a scalar or a length-{n} vector")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class MarketParams:
    """Capital, prices and friction parameters for one investment run.

    Scalars broadcast to all assets for the cost rates and lot sizes.
    """

    capital: float
    prices: np.ndarray
    buy_cost_rates: np.ndarray | float = 0.0
    sell_cost_rates: np.ndarray | float = 0.0
    risk_free_rate: float = 0.0
    horizon: int = 251
    lot_sizes: np.ndarray | int = 1

    def __post_init__(self):
        prices = np.asarray(self.prices, dtype=float)
        n = prices.shape[0]
        prices.setflags(write=False)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(
            self, "buy_cost_rates", _per_asset(self.buy_cost_rates, n, "buy_cost_rates")
        )
        object.__setattr__(
            self, "sell_cost_rates", _per_asset(self.sell_cost_rates, n, "sell_cost_rates")
        )
        object.__setattr__(
            self, "lot_sizes", _per_asset(self.lot_sizes, n, "lot_sizes", whole=True)
        )
        object.__setattr__(self, "horizon", _whole_scalar(self.horizon, "horizon"))
        for name in ("capital", "prices", "buy_cost_rates", "sell_cost_rates", "risk_free_rate"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.capital <= 0:
            raise ValueError("capital must be positive")
        if (prices <= 0).any():
            raise ValueError("prices must be strictly positive")
        if (self.buy_cost_rates < 0).any() or (self.sell_cost_rates < 0).any():
            raise ValueError("cost rates must be nonnegative")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1 period")
        if (self.lot_sizes < 1).any():
            raise ValueError("lot sizes must be positive integers")
        cheapest = float(self.lot_cost.min())
        if self.capital < cheapest:
            # level 3 is the caller that built the market, past the dataclass __init__
            warnings.warn(
                f"capital {self.capital} buys no lot (cheapest costs {cheapest}); "
                "only the risk-free asset is reachable",
                stacklevel=3,
            )

    @property
    def n_assets(self) -> int:
        return self.prices.shape[0]

    @property
    def effective_prices(self) -> np.ndarray:
        """Per-lot prices: the per-share price times the lot size."""
        return self.prices * self.lot_sizes

    @property
    def lot_cost(self) -> np.ndarray:
        """Cash one lot takes: its per-lot price plus the buy cost on it."""
        return self.effective_prices * (1.0 + self.buy_cost_rates)


@dataclass(frozen=True)
class IntegerSolution:
    """Integer purchase with its implied weights, residual and fitness."""

    assets: tuple[str, ...]
    shares: np.ndarray
    implied_weights: np.ndarray
    residual: float
    expected_return: float
    risk: float
    fitness: float
    sparse_weights: dict[str, float]
    sparse_shares: dict[str, int]

    def __post_init__(self):
        shares = np.asarray(self.shares, dtype=int)
        weights = np.asarray(self.implied_weights, dtype=float)
        shares.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "shares", shares)
        object.__setattr__(self, "implied_weights", weights)
        if self.residual < 0:
            raise ValueError("residual capital is negative (leverage not allowed)")


def buy_cost(n: np.ndarray, params: MarketParams) -> np.ndarray:
    """Per-asset purchase cost n_i * p_i * cb_i."""
    return np.asarray(n) * params.effective_prices * params.buy_cost_rates


def sell_cost(n: np.ndarray, mu: np.ndarray, params: MarketParams) -> np.ndarray:
    """Per-asset cost of selling the expected end-of-horizon value."""
    p = params.effective_prices
    end_value = p + params.horizon * np.asarray(mu) * p
    return np.asarray(n) * end_value * params.sell_cost_rates


def residual_cash(n: np.ndarray, params: MarketParams) -> np.ndarray | float:
    """Capital left after the purchase and its buy costs; the one judge of
    feasibility: a purchase is affordable exactly when this is nonnegative."""
    outlay = np.asarray(n) * params.effective_prices * (1.0 + params.buy_cost_rates)
    return params.capital - outlay.sum(axis=-1)


def implied_weights(n: np.ndarray, params: MarketParams) -> np.ndarray:
    """Investment proportions w_i = n_i * p_i / K."""
    return np.asarray(n) * params.effective_prices / params.capital


def net_portfolio_return(
    n: np.ndarray, model: RiskModel, params: MarketParams
) -> np.ndarray | float:
    """Expected per-period return net of amortized sell costs plus
    risk-free income on the residual."""
    n = np.asarray(n)
    k, horizon = params.capital, params.horizon
    gross = (n * model.mu * params.effective_prices).sum(axis=-1) / k
    selling = sell_cost(n, model.mu, params).sum(axis=-1) / (k * horizon)
    riskfree = residual_cash(n, params) * params.risk_free_rate / k
    return gross - selling + riskfree


def portfolio_variance(n: np.ndarray, model: RiskModel, params: MarketParams):
    return quadratic_form(implied_weights(n, params), model.sigma)


def fitness(
    n: np.ndarray, model: RiskModel, params: MarketParams, lam: float
) -> np.ndarray | float:
    """Tradeoff objective lam * R_p - (1 - lam) * w'Sw."""
    return lam * net_portfolio_return(n, model, params) - (
        1.0 - lam
    ) * portfolio_variance(n, model, params)


def evaluate(
    n: np.ndarray,
    model: RiskModel,
    params: MarketParams,
    lam: float,
    report_threshold: float = 0.005,
) -> IntegerSolution:
    """Package one integer purchase as an :class:`IntegerSolution`."""
    n = np.asarray(n, dtype=int).reshape(params.n_assets)
    w = implied_weights(n, params)
    expected_return = float(net_portfolio_return(n, model, params))
    variance = float(portfolio_variance(n, model, params))
    return IntegerSolution(
        assets=model.assets,
        shares=n,
        implied_weights=w,
        residual=float(residual_cash(n, params)),
        expected_return=expected_return,
        risk=float(np.sqrt(max(variance, 0.0))),
        fitness=lam * expected_return - (1.0 - lam) * variance,
        sparse_weights=_sparse_view(model.assets, w, report_threshold),
        sparse_shares={
            name: int(count) for name, count in zip(model.assets, n) if count > 0
        },
    )


def market_params_from_dict(doc: dict, n_assets: int) -> MarketParams:
    """Build :class:`MarketParams` from a configuration mapping.

    Only the keys the mapping holds are passed; an absent one takes the
    :class:`MarketParams` default.  Cost rates and lot sizes may be
    scalars (broadcast) or per-asset lists; prices must be per-asset.
    """
    convert = {"capital": float, "risk_free_rate": float}
    fields = {key: convert[key](value) if key in convert else value for key, value in doc.items()}
    fields["prices"] = np.asarray(doc["prices"], dtype=float).reshape(n_assets)
    return MarketParams(**fields)
