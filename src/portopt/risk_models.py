"""Return statistics and the risk matrices used by every optimizer.

Two risk measures are supported: the sample covariance of returns and the
exogenous downside semicovariance approximation

    S[i, j] = (1/T) * sum_t min(R_it - B, 0) * min(R_jt - B, 0)

for a critical return level ``B`` (0 by default).  The semicovariance is
a Gram matrix of clipped deviations, hence always positive semidefinite,
and it does not depend on portfolio weights, so the same quadratic
programming machinery solves both models.

The exact portfolio semivariance - restricted to the periods where the
portfolio itself under-performs ``B`` - depends on the weights.  It is
exposed here purely as a measurement oracle for the approximation; it is
never optimized directly.

Divisor conventions are intentionally asymmetric and preserved from the
reference behavior: covariance uses T-1, the semicovariance uses T.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientHistory, ZeroVariance
from .market_data import ReturnsMatrix

#: Relative slack for positive-semidefiniteness checks: sample matrices
#: carry roundoff, so a strict eigenvalue >= 0 test would reject valid input.
PSD_RTOL = 1e-10

def _whole(value, name: str) -> np.ndarray:
    """``value`` as integers; every entry must be a finite whole number,
    checked before the conversion so nothing is truncated or overflows."""
    try:
        arr = np.asarray(value, dtype=float)
        whole = bool((np.isfinite(arr) & (arr == np.floor(arr))).all())
    except TypeError:  # not a number or a list of numbers
        whole = False
    if not whole:
        raise ValueError(f"{name} must be finite and integral")
    return arr.astype(int)


def _whole_scalar(value, name: str) -> int:
    """``value`` as one integer, by the rule of :func:`_whole`."""
    if np.ndim(value):
        raise ValueError(f"{name} must be a scalar")
    return int(_whole(value, name))


class RiskKind(enum.Enum):
    VARIANCE = "var"
    SEMIVARIANCE = "svar"


@dataclass(frozen=True)
class AnnualizationConvention:
    """Period counts for converting daily figures to annual ones.

    Expected returns scale by ``daily_to_annual_expectation``; realized
    returns over an evaluation year scale by ``evaluation_periods``.
    """

    daily_to_annual_expectation: int = 251
    evaluation_periods: int = 250

    def __post_init__(self):
        for name in ("daily_to_annual_expectation", "evaluation_periods"):
            object.__setattr__(self, name, _whole_scalar(getattr(self, name), name))
        if self.daily_to_annual_expectation <= 0 or self.evaluation_periods <= 0:
            raise ValueError("annualization multipliers must be positive integers")


@dataclass(frozen=True)
class RiskModel:
    """Mean vector plus a symmetric PSD risk matrix for a set of assets."""

    assets: tuple[str, ...]
    mu: np.ndarray
    sigma: np.ndarray
    kind: RiskKind = RiskKind.VARIANCE
    threshold_b: float = 0.0
    convention: AnnualizationConvention = field(default_factory=AnnualizationConvention)
    #: Smallest eigenvalue of ``sigma``, from the positive-semidefiniteness
    #: check; the optimizers test positive definiteness against it.
    min_eigenvalue: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        n = len(self.assets)
        if mu.shape != (n,) or sigma.shape != (n, n):
            raise ValueError("mu/sigma dimensions do not match the asset list")
        if not (np.isfinite(mu).all() and np.isfinite(sigma).all()):
            raise ValueError("mu and sigma must be finite")
        if not (np.abs(sigma - sigma.T) <= 1e-12).all():
            raise ValueError("risk matrix is not symmetric within 1e-12")
        diag = np.diag(sigma)
        if (diag < 0).any():
            raise ValueError("risk matrix has a negative diagonal entry")
        floor = -PSD_RTOL * max(diag.max(initial=0.0), 0.0)
        min_eigenvalue = float(np.linalg.eigvalsh(sigma).min(initial=np.inf))
        if min_eigenvalue < floor:
            raise ValueError("risk matrix is not positive semidefinite")
        mu.setflags(write=False)
        sigma.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "min_eigenvalue", min_eigenvalue)

    @property
    def n_assets(self) -> int:
        return len(self.assets)


def quadratic_form(weights: np.ndarray, sigma: np.ndarray) -> np.ndarray | float:
    """``w'Sw`` for one weight vector, or for each row of a leading population
    axis: one matrix product, multiplied elementwise by ``w`` and summed per row."""
    w = np.asarray(weights, dtype=float)
    return ((w @ sigma) * w).sum(axis=-1)[()]


def mean_returns(returns: ReturnsMatrix) -> np.ndarray:
    """Column-wise arithmetic mean of the return matrix."""
    return returns.values.mean(axis=0)


def covariance(returns: ReturnsMatrix) -> np.ndarray:
    """Sample covariance with divisor T-1."""
    if returns.n_periods < 2:
        raise InsufficientHistory("covariance needs at least 2 return periods")
    return np.cov(returns.values, rowvar=False, ddof=1).reshape(
        returns.n_assets, returns.n_assets
    )


def correlation(returns: ReturnsMatrix) -> np.ndarray:
    """Correlation matrix rho_ij = sigma_ij / (sigma_i * sigma_j)."""
    cov = covariance(returns)
    sd = np.sqrt(np.diag(cov))
    zero = np.flatnonzero(sd == 0.0)
    if zero.size:
        raise ZeroVariance(returns.assets[int(zero[0])])
    rho = cov / np.outer(sd, sd)
    return np.clip(rho, -1.0, 1.0)


def semicovariance_estrada(returns: ReturnsMatrix, threshold_b: float = 0.0) -> np.ndarray:
    """Downside semicovariance matrix for critical level ``threshold_b``.

    Gram form of the clipped deviations min(R - B, 0) divided by T, so the
    result is PSD for every input and independent of any weight vector.
    """
    clipped = np.minimum(returns.values - threshold_b, 0.0)
    return clipped.T @ clipped / returns.n_periods


def semivariance_exact(
    returns: ReturnsMatrix, weights: np.ndarray, threshold_b: float = 0.0
) -> float:
    """Endogenous portfolio semivariance at critical level ``threshold_b``.

    Averages squared shortfall over the periods where the portfolio return
    falls below ``threshold_b``, with divisor T.  Accuracy oracle for
    :func:`semicovariance_estrada`; not used on any optimization path.
    """
    series = returns.values @ np.asarray(weights, dtype=float)
    shortfall = series[series < threshold_b] - threshold_b
    return float(np.square(shortfall).sum() / returns.n_periods)


def build_risk_model(
    returns: ReturnsMatrix,
    kind: RiskKind = RiskKind.VARIANCE,
    threshold_b: float = 0.0,
    convention: AnnualizationConvention | None = None,
) -> RiskModel:
    """Assemble the statistical model consumed by the optimizers."""
    # moments that overflow come out non-finite, which RiskModel refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is RiskKind.VARIANCE:
            sigma = covariance(returns)
        else:
            sigma = semicovariance_estrada(returns, threshold_b)
        sigma = (sigma + sigma.T) / 2.0
        mu = mean_returns(returns)
    return RiskModel(
        assets=returns.assets,
        mu=mu,
        sigma=sigma,
        kind=kind,
        threshold_b=threshold_b,
        convention=convention or AnnualizationConvention(),
    )

