"""Command-line surface for reproducible batch runs.

Four subcommands: ``stats`` (per-asset dispersion table), ``optimize``
(one portfolio, exact or GA), ``frontier`` (frontier sweeps, random
clouds, two-asset curves) and ``fit`` (out-of-sample frontier fit).

Each setting is declared once, as a flag of :func:`build_parser` with its
type, choices and default, on only the subcommands that read it.  A JSON
config file (``--config`` or ``$PORTOPT_CONFIG``) may set it under the
flag's destination name (``prices_eval``, ``lam``, ``buy_cost``, ...);
one file may serve every subcommand, each reading its own.  The value
is parsed by the flag's definition (a switch takes only ``true`` or
``false``, and ``null`` means not given) and becomes the parser's default,
so a flag wins over the file.  Only the file sets the ``market`` block and
the period counts ``periods_expectation`` and ``periods_evaluation``.  Each
setting of the integer model takes the flag (or top-level config key) when
given, else the key of the ``market`` block, else the
:class:`~portopt.market.MarketParams` default.  All numeric output is
written with 17 significant digits, and a fixed seed makes every command
byte-reproducible.

Exit codes: 0 success, 2 ingestion failure, malformed config file (a value
its flag would not take among them), a cost ladder that repeats a rate, a
flag the subcommand does not take or ``--target-return`` with another
objective, 3 infeasible program or target out of range, 4 asset
misalignment, 1 anything else; :func:`main` returns them, ``--help``'s 0
and a usage error's 2 included.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import frontier as frontier_mod
from . import ga as ga_mod
from .errors import (
    AssetAlignmentError,
    IngestionError,
    PortfolioError,
    QpError,
    TargetOutOfRange,
)
from .market import IntegerSolution, MarketParams, market_params_from_dict
from .market_data import PriceTable, assets_return, fill_missing, load_prices
from .optimizers import ObjectiveParams, Portfolio, lambda_portfolio, markowitz_portfolio
from .risk_models import AnnualizationConvention, RiskKind, build_risk_model

CONFIG_ENV_VAR = "PORTOPT_CONFIG"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INGESTION = 2
EXIT_INFEASIBLE = 3
EXIT_ALIGNMENT = 4

#: Exit code per error class, first match wins; other errors exit 1.
_EXIT_CODES = (
    (IngestionError, EXIT_INGESTION),
    ((QpError, TargetOutOfRange), EXIT_INFEASIBLE),
    (AssetAlignmentError, EXIT_ALIGNMENT),
)


def _text_cell(text: str) -> str:
    """``text`` as a CSV cell, double-quoted by ``csv.QUOTE_MINIMAL``'s rule:
    only when it holds a comma, a double quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write ``header`` and ``rows`` to ``path`` as CSV with ``\\n`` line ends.

    A column is text when the first row's cell is a ``str``, written as
    :func:`_text_cell` quotes it; any other cell is a number written with
    17 significant digits (``%.17g``, as ``format(float(x), ".17g")``).
    The rows are formatted with one ``%`` over the whole table.
    """
    rows = rows.tolist() if isinstance(rows, np.ndarray) else list(rows)
    text = [isinstance(c, str) for c in rows[0]] if rows else []
    if any(text):
        rows = [[_text_cell(c) if t else c for c, t in zip(row, text)] for row in rows]
    line = ",".join("%s" if t else "%.17g" for t in text) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(map(_text_cell, header)) + "\n")
        handle.write(line * len(rows) % tuple(itertools.chain.from_iterable(rows)))
    return path


def _write_json(path: Path, doc: dict) -> Path:
    text = json.dumps(doc, indent=2, allow_nan=False)  # NaN is not JSON
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text + "\n")
    return path


# --- configuration -----------------------------------------------------------


#: The settings only a config file sets, with their defaults: the library
#: type that takes each one checks its value.
_CONFIG_ONLY = {
    "market": None,
    "periods_expectation": AnnualizationConvention.daily_to_annual_expectation,
    "periods_evaluation": AnnualizationConvention.evaluation_periods,
}

#: The ``market`` block key of each integer-model setting.
_MARKET_SETTINGS = {
    "capital": "capital",
    "buy_cost": "buy_cost_rates",
    "sell_cost": "sell_cost_rates",
    "risk_free": "risk_free_rate",
    "horizon": "horizon",
    "lot_size": "lot_sizes",
}
_MARKET_KEYS = {field.name for field in dataclasses.fields(MarketParams)}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        raise IngestionError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise IngestionError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise IngestionError(f"config file {path} does not hold a JSON object")
    market = doc.get("market")
    if market is not None and not (
        isinstance(market, dict) and {"capital", "prices"} <= set(market) <= _MARKET_KEYS
    ):
        raise IngestionError(
            "config key 'market' must be an object with 'capital' and 'prices' "
            f"and no keys but {sorted(_MARKET_KEYS)}"
        )
    if doc.get("buy_cost") == []:
        raise IngestionError("buy_cost needs at least one rate")
    return doc


def _config_value(flag: argparse.Action, key: str, value):
    """Config key ``key``'s ``value`` parsed as ``flag`` parses its text: a
    switch takes only true or false, a list only a flag of several values,
    and the flag's type converts each scalar's text to one of its choices."""
    many, switch = flag.nargs == "+", flag.nargs == 0
    items = value if many and isinstance(value, list) else [value]
    try:
        if all(type(item) in ((bool,) if switch else (str, int, float)) for item in items):
            parsed = items if switch else [(flag.type or str)(str(item)) for item in items]
            if flag.choices is None or all(item in flag.choices for item in parsed):
                return parsed if many else parsed[0]
    except ValueError:  # the flag's type does not read the text
        pass
    raise IngestionError(
        f"config key {key!r} takes the values {flag.option_strings[0]} takes, "
        f"not {json.dumps(value)}"
    )


def _config_defaults(flags: dict[str, argparse.Action], doc: dict) -> dict:
    """A config file's settings as parser defaults; ``null`` means not given."""
    unknown = set(doc) - set(flags) - set(_CONFIG_ONLY)
    if unknown:
        raise IngestionError(f"unknown config keys: {sorted(unknown)}")
    return {
        key: _config_value(flags[key], key, value) if key in flags else value
        for key, value in doc.items()
        if value is not None
    }


def _convention(cfg: argparse.Namespace) -> AnnualizationConvention:
    return AnnualizationConvention(
        daily_to_annual_expectation=cfg.periods_expectation,
        evaluation_periods=cfg.periods_evaluation,
    )


def _load_table(path: str | None, label: str) -> PriceTable:
    """The price file at ``path`` with its gaps carried forward."""
    if not path:
        raise IngestionError(f"no price file configured for {label}")
    if not Path(path).exists():
        raise IngestionError(f"price file not found: {path}")
    return fill_missing(load_prices(path))


def _build_model(cfg: argparse.Namespace):
    return build_risk_model(
        assets_return(_load_table(cfg.prices, "--prices")),
        kind=RiskKind(cfg.risk),
        threshold_b=cfg.threshold_b,
        convention=_convention(cfg),
    )


def _markets(cfg: argparse.Namespace, n_assets: int) -> list[MarketParams]:
    """Market parameters per cost level, or none for the frictionless model.

    Each setting is the flag when given, else the ``market`` block's key,
    else the :class:`MarketParams` default; current prices are the
    block's, else the first row of the evaluation price file.  There is
    one level per ``--buy-cost`` rate (one without the flag).
    """
    if cfg.market is None and cfg.capital is None:
        return []
    if cfg.market is None and not cfg.prices_eval:
        raise IngestionError(
            "integer optimization needs --prices-eval (its first row is the "
            "current price) or an explicit market config block"
        )
    base = cfg.market or {"prices": _load_table(cfg.prices_eval, "--prices-eval").values[0]}
    levels = []
    for i in range(max(len(cfg.buy_cost or ()), 1)):
        doc = dict(base)
        for name, key in _MARKET_SETTINGS.items():
            value = getattr(cfg, name)
            if value not in (None, []):
                # level i takes the i-th rate of a list, its last one for later levels
                doc[key] = value[min(i, len(value) - 1)] if isinstance(value, list) else value
        levels.append(market_params_from_dict(doc, n_assets))
    return levels


def _ga_params(cfg: argparse.Namespace) -> ga_mod.GaParams:
    return ga_mod.GaParams(generations=cfg.generations, population=cfg.population, seed=cfg.seed)


def _out_dir(cfg: argparse.Namespace) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- documents ---------------------------------------------------------------


def _result_doc(result: Portfolio | IntegerSolution, convention: AnnualizationConvention) -> dict:
    """JSON document of a portfolio or an integer solution; its key order
    is part of the output."""
    periods = convention.daily_to_annual_expectation
    if isinstance(result, IntegerSolution):
        body = {
            "shares": [int(c) for c in result.shares],
            "implied_weights": [float(w) for w in result.implied_weights],
            "sparse_weights": result.sparse_weights,
            "sparse_shares": result.sparse_shares,
            "residual": result.residual,
            "fitness": result.fitness,
        }
    else:
        body = {"weights": [float(w) for w in result.weights], "sparse_view": result.sparse_view}
    return {
        "assets": list(result.assets),
        **body,
        "expected_return": {
            "daily": result.expected_return,
            "annual": result.expected_return * periods,
        },
        "risk": {
            "daily": result.risk,
            # Display-only sqrt-of-periods scaling; optimization is daily.
            "annual_sqrt_scaled": result.risk * math.sqrt(periods),
        },
    }


def _write_doc(out: Path, fmt: str, stem: str, doc: dict, tables: dict) -> list[Path]:
    """``<stem>.json`` holding ``doc``, or in the ``csv`` format one
    ``<name>.csv`` per entry ``name: (header, rows)`` of ``tables``."""
    if fmt == "json":
        return [_write_json(out / f"{stem}.json", doc)]
    return [_write_csv(out / f"{name}.csv", *table) for name, table in tables.items()]


def _write_result(
    out: Path, stem: str, result: Portfolio | IntegerSolution, cfg: argparse.Namespace
) -> list[Path]:
    """``<stem>.json``, or ``<stem>.csv`` (asset, weight) plus
    ``<stem>_summary.csv``, and ``<stem>_shares.csv`` for an integer solution."""
    doc = _result_doc(result, _convention(cfg))
    integer = isinstance(result, IntegerSolution)
    weights = doc["implied_weights" if integer else "weights"]
    summary = {
        "expected_return_daily": doc["expected_return"]["daily"],
        "expected_return_annual": doc["expected_return"]["annual"],
        "risk_daily": doc["risk"]["daily"],
        "risk_annual_sqrt_scaled": doc["risk"]["annual_sqrt_scaled"],
    }
    if integer:
        summary.update(residual=doc["residual"], fitness=doc["fitness"])
    tables = {
        stem: (["asset", "weight"], zip(doc["assets"], weights)),
        f"{stem}_summary": (list(summary), [list(summary.values())]),
    }
    if integer:
        shares = [(a, str(c)) for a, c in zip(doc["assets"], doc["shares"])]
        tables[f"{stem}_shares"] = (["asset", "shares"], shares)
    return _write_doc(out, cfg.format, stem, doc, tables)


def _write_trace(out: Path, trace: ga_mod.GaTrace) -> Path:
    rows = [(str(gen), best) for gen, best in enumerate(trace.best_fitness_per_generation, 1)]
    return _write_csv(out / "ga_trace.csv", ["generation", "best_fitness"], rows)


# --- commands ----------------------------------------------------------------


def cmd_stats(cfg: argparse.Namespace) -> list[Path]:
    """Per-asset (risk, mean) dispersion table under the chosen risk kind."""
    model = _build_model(cfg)
    risks = np.sqrt(np.diag(model.sigma))
    rows = [(a, r, m) for a, r, m in zip(model.assets, risks, model.mu)]
    return [_write_csv(_out_dir(cfg) / "stats.csv", ["asset", "risk", "mean"], rows)]


def cmd_optimize(cfg: argparse.Namespace) -> list[Path]:
    """One portfolio: minimum-risk, target-return, tradeoff, or integer GA."""
    others = cfg.lam is not None or cfg.ga or cfg.capital is not None or cfg.market is not None
    if cfg.target_return is not None and others:
        raise IngestionError("--target-return takes none of --lambda, --ga or an integer market")
    model = _build_model(cfg)
    out = _out_dir(cfg)
    markets = _markets(cfg, model.n_assets)
    ga_lam = 0.5 if cfg.lam is None else cfg.lam

    stem, trace = "portfolio", None
    if markets:
        stem = "solution"
        result, trace = ga_mod.ga_lambda_n_portfolio(model, ga_lam, _ga_params(cfg), markets[0])
    elif cfg.target_return is not None:
        result = markowitz_portfolio(model, ObjectiveParams(target_return=cfg.target_return))
    elif cfg.ga:
        result, trace = ga_mod.ga_lambda_portfolio(model, ga_lam, _ga_params(cfg))
    else:
        result = lambda_portfolio(model, ObjectiveParams(lam=cfg.lam or 0.0))
    written = _write_result(out, stem, result, cfg)
    if trace is not None:
        written.append(_write_trace(out, trace))
    return written


def cmd_frontier(cfg: argparse.Namespace) -> list[Path]:
    """Frontier CSV plus optional random cloud and two-asset curve files."""
    model = _build_model(cfg)
    # built on every run, so a market setting fails here as it does in
    # optimize; the exact sweep has no market and ignores it
    markets = _markets(cfg, model.n_assets)

    if not cfg.ga:
        sweeps = [("frontier.csv", frontier_mod.efficient_frontier(model, cfg.points))]
    else:
        markets = markets or [None]
        names = ["frontier_ga.csv"]
        if len(markets) > 1:
            names = [f"frontier_ga_cost_{rate}.csv" for rate in cfg.buy_cost]
        if len(set(names)) < len(names):
            raise IngestionError(
                f"buy cost ladder {cfg.buy_cost} repeats a rate, so two "
                "levels would write one file"
            )
        sweeps = [
            (name, ga_mod.ga_frontier(model, _ga_params(cfg), market, cfg.points))
            for name, market in zip(names, markets)
        ]
    out = _out_dir(cfg)
    written = [
        _write_csv(
            out / name,
            ["parameter", "risk", "return"],
            [(p.parameter, p.risk, p.expected_return) for p in points],
        )
        for name, points in sweeps
    ]

    if cfg.cloud:
        cloud = frontier_mod.random_portfolio_cloud(model, count=cfg.cloud, seed=cfg.seed)
        written.append(_write_csv(out / "cloud.csv", ["risk", "return"], cloud))

    if cfg.two_asset:
        rows = []
        for i, j in itertools.combinations(range(model.n_assets), 2):
            sub = np.ix_([i, j], [i, j])
            curve = frontier_mod.two_asset_curve(model.mu[[i, j]], model.sigma[sub], 30)
            rows.extend(
                (model.assets[i], model.assets[j], risk, ret) for risk, ret in curve
            )
        written.append(
            _write_csv(
                out / "two_asset_curves.csv",
                ["asset_a", "asset_b", "risk", "return"],
                rows,
            )
        )
    return written


def cmd_fit(cfg: argparse.Namespace) -> list[Path]:
    """Expected-versus-realized frontier comparison on a second period."""
    model = _build_model(cfg)
    returns_out = assets_return(_load_table(cfg.prices_eval, "--prices-eval"))
    report = frontier_mod.frontier_fit(model, returns_out, cfg.points)
    out = _out_dir(cfg)
    pairs = _write_csv(out / "fit_pairs.csv", ["expected", "realized"], report.pairs)
    summary = {
        "mean_error_daily": report.mean_error,
        "mean_underestimation_error_daily": report.mean_underestimation_error,
        "mean_error_annual": report.annual_mean_error,
        "mean_underestimation_error_annual": report.annual_mean_underestimation_error,
    }
    tables = {"fit_summary": (list(summary), [list(summary.values())])}
    return [pairs, *_write_doc(out, cfg.format, "fit_summary", summary, tables)]


# --- argument parsing --------------------------------------------------------


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The ``portopt`` parser, each flag the one declaration of its setting;
    the settings of ``config`` (a config file's object) are its defaults."""
    parser = argparse.ArgumentParser(
        prog="portopt",
        description="Portfolio selection toolkit: statistics, optimization, "
        "frontiers and out-of-sample fit.",
    )
    parser.add_argument("--config", help="JSON config file (or set $" + CONFIG_ENV_VAR + ")")
    sub = parser.add_subparsers(dest="command", required=True)

    run, evaluation, target, ga, market, sweep, plots, fmt = (
        argparse.ArgumentParser(add_help=False) for _ in range(8))
    flags = (
        run.add_argument("--prices", help="in-sample price CSV"),
        run.add_argument("--risk", choices=["var", "svar"], default="var", help="risk measure"),
        run.add_argument("--threshold-b", dest="threshold_b", type=float, default=0.0,
                         help="critical return level for the downside measure"),
        run.add_argument("--seed", type=int, default=0),
        run.add_argument("--out", default="out", help="output directory"),
        evaluation.add_argument("--prices-eval", dest="prices_eval", help="evaluation price CSV"),
        target.add_argument("--target-return", dest="target_return", type=float),
        target.add_argument("--lambda", dest="lam", type=float,
                            help="risk/return tradeoff in [0, 1]"),
        ga.add_argument("--ga", action="store_true", help="use the genetic algorithm"),
        ga.add_argument("--generations", type=int, default=500),
        ga.add_argument("--population", type=int),
        market.add_argument("--capital", type=float, help="capital for the integer model"),
        market.add_argument("--buy-cost", dest="buy_cost", type=float, nargs="+",
                            help="proportional buy cost rate(s); several values form a ladder"),
        market.add_argument("--sell-cost", dest="sell_cost", type=float, nargs="+"),
        market.add_argument("--risk-free", dest="risk_free", type=float),
        market.add_argument("--horizon", type=int),
        market.add_argument("--lot-size", dest="lot_size", type=int),
        sweep.add_argument("--points", type=int, default=40, help="frontier point count"),
        plots.add_argument("--cloud", type=int, help="random portfolio sample count"),
        plots.add_argument("--two-asset", dest="two_asset", action="store_true",
                           help="emit all two-asset opportunity curves"),
        fmt.add_argument("--format", choices=["csv", "json"], default="json",
                         help="document format for portfolio/summary files"),
    )
    # every command reads the one config file, so its keys are checked against all flags
    defaults = _config_defaults({flag.dest: flag for flag in flags}, config or {})

    for name, handler, doc, groups in (
        ("stats", cmd_stats, "per-asset risk/mean dispersion table", [run]),
        ("optimize", cmd_optimize, "solve one portfolio program",
         [run, evaluation, target, ga, market, fmt]),
        ("frontier", cmd_frontier, "sweep a frontier; optional cloud/curves",
         [run, evaluation, ga, market, sweep, plots]),
        ("fit", cmd_fit, "out-of-sample frontier fit report", [run, evaluation, sweep, fmt]),
    ):
        p = sub.add_parser(name, help=doc, parents=groups)
        p.set_defaults(handler=handler, **{**_CONFIG_ONLY, **defaults})
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        try:  # argparse exits after a usage error (2) or --help (0)
            # flags win over the config file's values, installed as the defaults
            config = _load_config_file(build_parser().parse_args(argv).config)
            args = build_parser(config).parse_args(argv)
        except SystemExit as exc:
            return exc.code
        written = args.handler(args)
    except (PortfolioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), EXIT_ERROR)
    for path in written:
        print(path)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
