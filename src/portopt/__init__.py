"""Portfolio selection toolkit.

Mean-variance and mean-semivariance optimization over long-only simplex
weights, efficient-frontier construction with out-of-sample fit
evaluation, and an elitist genetic algorithm for the integer-share model
with proportional transaction costs, lot sizes, residual cash and a
risk-free asset.
"""

from .errors import (
    AssetAlignmentError,
    DuplicateAssetHeader,
    Infeasible,
    IngestionError,
    InsufficientHistory,
    LeadingGap,
    MaxIterations,
    NonPositivePrice,
    NumericalBreakdown,
    ParseError,
    PortfolioError,
    QpError,
    TargetOutOfRange,
    ZeroVariance,
)
from .frontier import (
    FitReport,
    FrontierPoint,
    efficient_frontier,
    frontier_fit,
    lambda_frontier,
    random_portfolio_cloud,
    random_simplex_weights,
    two_asset_curve,
)
from .ga import (
    GaParams,
    GaTrace,
    ga_frontier,
    ga_lambda_n_portfolio,
    ga_lambda_portfolio,
    repair_integer,
)
from .market import (
    IntegerSolution,
    MarketParams,
    buy_cost,
    fitness,
    implied_weights,
    net_portfolio_return,
    residual_cash,
    sell_cost,
)
from .market_data import (
    PriceTable,
    ReturnsMatrix,
    assets_return,
    fill_missing,
    load_prices,
)
from .optimizers import (
    ObjectiveParams,
    Portfolio,
    lambda_portfolio,
    markowitz_portfolio,
    portfolio_from_weights,
    regularize,
)
from .qp import QpSolution, QuadraticProgram, solve_qp
from .risk_models import (
    AnnualizationConvention,
    RiskKind,
    RiskModel,
    build_risk_model,
    correlation,
    covariance,
    mean_returns,
    semicovariance_estrada,
    semivariance_exact,
)

__version__ = "0.1.0"
