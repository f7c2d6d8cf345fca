"""End-to-end command-line runs on toy price files."""

from __future__ import annotations

import argparse
import csv
import itertools
import json

import numpy as np
import pytest

from portopt.cli import _write_csv, build_parser, main
from portopt.ga import GaParams, ga_frontier, ga_lambda_n_portfolio
from portopt.market import MarketParams, market_params_from_dict
from portopt.market_data import assets_return, fill_missing, load_prices
from portopt.risk_models import RiskKind, build_risk_model, semicovariance_estrada

PRICES = """date,AAA,BBB,CCC
2005-01-03,10.0,20.0,5.0
2005-01-04,10.1,20.4,5.05
2005-01-05,10.05,20.9,5.2
2005-01-06,10.2,20.5,5.1
2005-01-07,10.4,21.2,5.3
2005-01-10,10.3,21.6,5.25
2005-01-11,10.5,21.9,5.4
2005-01-12,10.45,22.4,5.35
2005-01-13,10.6,22.1,5.5
2005-01-14,10.8,22.8,5.45
"""

PRICES_EVAL = """date,AAA,BBB,CCC
2007-01-03,10.9,23.0,5.5
2007-01-04,11.0,23.5,5.6
2007-01-05,10.95,23.2,5.75
2007-01-08,11.1,23.9,5.7
2007-01-09,11.3,24.1,5.85
2007-01-10,11.2,24.6,5.8
2007-01-11,11.4,24.4,5.95
2007-01-12,11.5,25.0,5.9
"""


@pytest.fixture
def price_files(tmp_path):
    prices = tmp_path / "prices.csv"
    prices.write_text(PRICES, encoding="utf-8")
    prices_eval = tmp_path / "prices_eval.csv"
    prices_eval.write_text(PRICES_EVAL, encoding="utf-8")
    return prices, prices_eval


def read_csv(path):
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestStats:
    def test_table_matches_model(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        assert main(["stats", "--prices", str(prices), "--out", str(out)]) == 0
        header, rows = read_csv(out / "stats.csv")
        assert header == ["asset", "risk", "mean"]
        returns = assets_return(fill_missing(load_prices(prices)))
        model = build_risk_model(returns)
        for row, asset, mean in zip(rows, model.assets, model.mu):
            assert row[0] == asset
            assert float(row[2]) == pytest.approx(float(mean), rel=1e-15)

    def test_semivariance_risk_column(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "outs"
        assert main(["stats", "--prices", str(prices), "--risk", "svar", "--out", str(out)]) == 0
        _, rows = read_csv(out / "stats.csv")
        returns = assets_return(fill_missing(load_prices(prices)))
        semi = np.sqrt(np.diag(semicovariance_estrada(returns, 0.0)))
        for row, expected in zip(rows, semi):
            assert float(row[1]) == pytest.approx(float(expected), rel=1e-15)


class TestOptimize:
    def test_min_risk_portfolio_json(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        code = main(["optimize", "--prices", str(prices), "--lambda", "0", "--out", str(out)])
        assert code == 0
        doc = json.loads((out / "portfolio.json").read_text())
        assert sum(doc["weights"]) == pytest.approx(1.0, abs=1e-6)
        assert doc["expected_return"]["annual"] == pytest.approx(
            doc["expected_return"]["daily"] * 251, rel=1e-12
        )

    def test_target_return_scales_annual(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        code = main(
            ["optimize", "--prices", str(prices), "--target-return", "0.012",
             "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out / "portfolio_summary.csv")
        summary = dict(zip(header, map(float, rows[0])))
        assert summary["expected_return_daily"] >= 0.012 - 1e-8
        assert summary["expected_return_annual"] == pytest.approx(
            summary["expected_return_daily"] * 251, rel=1e-12
        )

    def test_target_out_of_range_exit_code(self, price_files, tmp_path):
        prices, _ = price_files
        code = main(
            ["optimize", "--prices", str(prices), "--target-return", "0.5",
             "--out", str(tmp_path / "o")]
        )
        assert code == 3

    def test_integer_solution_matches_library(self, price_files, tmp_path):
        prices, prices_eval = price_files
        returns = assets_return(fill_missing(load_prices(prices)))
        model = build_risk_model(returns)
        eval_table = fill_missing(load_prices(prices_eval))
        market = MarketParams(
            capital=500.0,
            prices=eval_table.values[0],
            buy_cost_rates=0.01,
            sell_cost_rates=0.01,
            risk_free_rate=0.0002788,
            horizon=251,
        )
        solution, _ = ga_lambda_n_portfolio(
            model, 0.5, GaParams(generations=60, seed=7), market
        )
        for fmt in ("json", "csv"):
            out = tmp_path / fmt
            code = main(
                ["optimize", "--prices", str(prices), "--prices-eval", str(prices_eval),
                 "--capital", "500", "--buy-cost", "0.01", "--sell-cost", "0.01",
                 "--risk-free", "0.0002788", "--lambda", "0.5", "--generations", "60",
                 "--seed", "7", "--format", fmt, "--out", str(out)]
            )
            assert code == 0
            assert (out / "ga_trace.csv").exists()
        doc = json.loads((tmp_path / "json" / "solution.json").read_text())
        assert doc["shares"] == [int(c) for c in solution.shares]
        assert doc["residual"] == solution.residual
        header, rows = read_csv(tmp_path / "csv" / "solution.csv")
        assert header == ["asset", "weight"]
        assert [r[0] for r in rows] == list(model.assets)
        assert [float(r[1]) for r in rows] == [float(w) for w in solution.implied_weights]
        header, rows = read_csv(tmp_path / "csv" / "solution_shares.csv")
        assert header == ["asset", "shares"]
        assert [int(r[1]) for r in rows] == [int(c) for c in solution.shares]
        header, rows = read_csv(tmp_path / "csv" / "solution_summary.csv")
        summary = dict(zip(header, map(float, rows[0])))
        assert summary["residual"] == solution.residual
        assert summary["fitness"] == solution.fitness

    def test_capital_an_exact_multiple_of_lot_cost(self, tmp_path):
        # 393 lots of A cost exactly the capital in one float order and a
        # hair more in the other; the purchase must stay within the capital.
        prices = tmp_path / "two.csv"
        prices.write_text(
            "date,A,B\nd1,0.10,5\nd2,0.11,5.1\nd3,0.105,5.3\nd4,0.12,5.2\n", encoding="utf-8"
        )
        out = tmp_path / "o"
        code = main(
            ["optimize", "--prices", str(prices), "--prices-eval", str(prices),
             "--capital", "51.09", "--buy-cost", "0.3", "--lambda", "1", "--out", str(out)]
        )
        assert code == 0
        assert json.loads((out / "solution.json").read_text())["residual"] >= 0.0

    @pytest.mark.parametrize("flag, value", [("--risk-free", "nan"), ("--capital", "inf")])
    def test_non_finite_market_setting_exit_code(self, price_files, tmp_path, flag, value, capsys):
        prices, _ = price_files
        out = tmp_path / "o"
        argv = ["optimize", "--prices", str(prices), "--prices-eval", str(prices),
                "--capital", "1000", "--format", "csv", "--out", str(out)]
        assert main(argv + [flag, value]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not (out / "solution_summary.csv").exists()

    @pytest.mark.parametrize(
        "extra, market",
        [
            (["--prices-eval", "{eval}", "--capital", "500", "--target-return", "0.5"], False),
            (["--target-return", "0.0008", "--ga"], False),
            (["--target-return", "0.0008", "--lambda", "0.3"], False),
            (["--target-return", "0.0008"], True),
        ],
        ids=["capital", "ga", "lambda", "market_block"],
    )
    def test_target_return_with_another_objective_exit_code(
        self, price_files, tmp_path, extra, market, capsys
    ):
        # a target return pins the exact program; a tradeoff, the GA or an
        # integer market would be ignored, so the run is refused unwritten
        prices, prices_eval = price_files
        out = tmp_path / "o"
        argv = ["optimize", "--prices", str(prices), "--out", str(out)]
        if market:
            cfg = tmp_path / "cfg.json"
            block = {"capital": 500, "prices": [10.9, 23.0, 5.5]}
            cfg.write_text(json.dumps({"market": block}), encoding="utf-8")
            argv = ["--config", str(cfg), *argv]
        assert main(argv + [e.format(eval=prices_eval) for e in extra]) == 2
        assert "--target-return takes none of" in capsys.readouterr().err
        assert not out.exists()


class TestFrontier:
    def test_default_row_count(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        assert main(["frontier", "--prices", str(prices), "--out", str(out)]) == 0
        header, rows = read_csv(out / "frontier.csv")
        assert header == ["parameter", "risk", "return"]
        assert len(rows) == 40

    def test_cloud_and_curves(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        code = main(
            ["frontier", "--prices", str(prices), "--points", "5", "--cloud", "120",
             "--two-asset", "--seed", "3", "--out", str(out)]
        )
        assert code == 0
        assert len(read_csv(out / "cloud.csv")[1]) == 120
        _, rows = read_csv(out / "two_asset_curves.csv")
        assert len(rows) == 3 * 30  # three pairs, 30 points each

    def test_continuous_ga_frontier(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        code = main(
            ["frontier", "--prices", str(prices), "--ga", "--points", "4",
             "--generations", "25", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        _, rows = read_csv(out / "frontier_ga.csv")
        assert len(rows) == 4
        assert float(rows[0][0]) == 0.0 and float(rows[-1][0]) == 1.0

    def test_market_setting_checked_without_ga(self, price_files, tmp_path, capsys):
        # the exact frontier ignores the market, yet a bad setting exits 1 as
        # in optimize (test_non_finite_market_setting_exit_code)
        prices, _ = price_files
        out = tmp_path / "o"
        argv = ["frontier", "--prices", str(prices), "--prices-eval", str(prices),
                "--capital", "inf", "--out", str(out)]
        assert main(argv) == 1
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_ga_cost_ladder(self, price_files, tmp_path):
        prices, prices_eval = price_files
        out = tmp_path / "out"
        code = main(
            ["frontier", "--prices", str(prices), "--prices-eval", str(prices_eval),
             "--ga", "--capital", "500", "--buy-cost", "0.01", "0.05",
             "--sell-cost", "0.01", "0.05", "--points", "3",
             "--generations", "25", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        assert (out / "frontier_ga_cost_0.01.csv").exists()
        assert (out / "frontier_ga_cost_0.05.csv").exists()

    def test_ga_cost_ladder_repeated_rate_exit_code(self, price_files, tmp_path):
        prices, prices_eval = price_files
        out = tmp_path / "out"
        code = main(
            ["frontier", "--prices", str(prices), "--prices-eval", str(prices_eval),
             "--ga", "--capital", "500", "--buy-cost", "0.01", "0.01",
             "--sell-cost", "0", "0.2", "--points", "3", "--generations", "5",
             "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_cost_ladder_overrides_market_block(self, price_files, tmp_path):
        # each ladder level replaces the block's buy cost rate, and its sell
        # cost rate only when --sell-cost is given
        prices, _ = price_files
        block = {
            "capital": 400,
            "prices": [11.0, 23.0, 5.5],
            "buy_cost_rates": 0.02,
            "sell_cost_rates": 0.01,
            "horizon": 251,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prices": str(prices), "market": block}), encoding="utf-8")
        model = build_risk_model(assets_return(fill_missing(load_prices(prices))))
        for sell_args, sells in (([], (0.01, 0.01)), (["--sell-cost", "0.2", "0.3"], (0.2, 0.3))):
            out = tmp_path / f"out{len(sell_args)}"
            code = main(
                ["--config", str(cfg), "frontier", "--ga", "--buy-cost", "0.01", "0.05",
                 *sell_args, "--points", "3", "--generations", "20", "--seed", "5",
                 "--out", str(out)]
            )
            assert code == 0
            texts = {
                rate: (out / f"frontier_ga_cost_{rate}.csv").read_text(encoding="utf-8")
                for rate in (0.01, 0.05)
            }
            assert texts[0.01] != texts[0.05]
            for (rate, text), sell in zip(texts.items(), sells):
                level = {**block, "buy_cost_rates": rate, "sell_cost_rates": sell}
                market = market_params_from_dict(level, 3)
                points = ga_frontier(model, GaParams(generations=20, seed=5), market, n_points=3)
                rows = [[float(c) for c in line.split(",")] for line in text.splitlines()[1:]]
                assert rows == [[p.parameter, p.risk, p.expected_return] for p in points]


class TestFit:
    def test_self_fit_zero_errors(self, price_files, tmp_path):
        prices, _ = price_files
        out = tmp_path / "out"
        code = main(
            ["fit", "--prices", str(prices), "--prices-eval", str(prices),
             "--points", "8", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads((out / "fit_summary.json").read_text())
        assert doc["mean_error_daily"] == 0.0
        assert doc["mean_underestimation_error_daily"] == 0.0

    def test_two_period_fit(self, price_files, tmp_path):
        prices, prices_eval = price_files
        out = tmp_path / "out"
        code = main(
            ["fit", "--prices", str(prices), "--prices-eval", str(prices_eval),
             "--points", "8", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out / "fit_pairs.csv")
        assert header == ["expected", "realized"]
        assert len(rows) == 8

    def test_zero_points_exit_code(self, price_files, tmp_path):
        # a sweep of no points has nothing to write, and a fit of none no
        # mean error; each exits 1 before the output directory is made
        prices, prices_eval = price_files
        commands = (
            ["frontier", "--prices", str(prices)],
            ["frontier", "--prices", str(prices), "--ga", "--generations", "5"],
            ["fit", "--prices", str(prices), "--prices-eval", str(prices_eval)],
        )
        for k, (argv, points) in enumerate(itertools.product(commands, ("0", "-1"))):
            out = tmp_path / f"out{k}"
            assert main([*argv, "--points", points, "--out", str(out)]) == 1, (argv[0], points)
            assert not out.exists(), (argv, points)

    def test_misaligned_assets_exit_code(self, price_files, tmp_path):
        prices, _ = price_files
        other = tmp_path / "other.csv"
        other.write_text(
            "date,AAA,XXX,CCC\nd1,1,2,3\nd2,1.1,2.1,3.1\nd3,1.2,2.2,3.2\n",
            encoding="utf-8",
        )
        code = main(
            ["fit", "--prices", str(prices), "--prices-eval", str(other),
             "--out", str(tmp_path / "o")]
        )
        assert code == 4


#: A complete ``market`` block for the three-asset price files.
_BLOCK = {"capital": 400, "prices": [11.0, 23.0, 5.5]}


class TestCsvCells:
    def test_text_cells_round_trip(self, tmp_path):
        # asset names that need quoting come back whole from every table
        names = ["Foo, Inc.", 'B "b"', "CCC"]
        header = ",".join(["date", '"Foo, Inc."', '"B ""b"""', "CCC"])
        prices = tmp_path / "quoted.csv"
        prices.write_text(header + "\n" + PRICES.split("\n", 1)[1], encoding="utf-8")
        out = tmp_path / "out"
        for argv in (
            ["stats"],
            ["optimize", "--format", "csv"],
            ["frontier", "--points", "3", "--two-asset"],
        ):
            assert main([*argv, "--prices", str(prices), "--out", str(out)]) == 0
        tables = {}
        for path in sorted(out.glob("*.csv")):
            with open(path, encoding="utf-8", newline="") as handle:
                header, *rows = csv.reader(handle)
            assert all(len(row) == len(header) for row in rows), path.name
            tables[path.stem] = rows
        assert [row[0] for row in tables["stats"]] == names
        assert [row[0] for row in tables["portfolio"]] == names
        pairs = {(row[0], row[1]) for row in tables["two_asset_curves"]}
        assert pairs == set(itertools.combinations(names, 2))

    def test_numbers_as_17_digit_text(self, tmp_path):
        values = [0.1, -0.0, 1e-300, 2.5e16, np.float64(1) / 3, 7, float("nan"), float("inf")]
        path = _write_csv(tmp_path / "t.csv", ["name", "value"], [("x", v) for v in values])
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["name,value"] + [f"x,{format(float(v), '.17g')}" for v in values]


class TestConfigAndDeterminism:
    def test_missing_file_exit_code(self, tmp_path):
        assert main(["stats", "--prices", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o")]) == 2

    def test_overlong_cell_exit_code(self, tmp_path):
        # a quoted cell longer than csv.field_size_limit() used to escape as _csv.Error
        prices = tmp_path / "long.csv"
        prices.write_text('date,X\n"' + "d" * 140_000 + '",10\nd2,11\n', encoding="utf-8")
        assert main(["stats", "--prices", str(prices), "--out", str(tmp_path / "o")]) == 2

    def test_not_utf8_exit_code(self, tmp_path, capsys):
        # a Latin-1 e-acute is an ingestion failure, not "anything else"
        prices = tmp_path / "latin1.csv"
        prices.write_bytes(b"date,X\nd\xe9,10\nd2,11\n")
        assert main(["stats", "--prices", str(prices), "--out", str(tmp_path / "o")]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("price", "message"),
        [("1e308", "mu and sigma must be finite"), ("1e-320", "returns contain non-finite entries")],
    )
    @pytest.mark.parametrize("command", ["stats", "optimize", "frontier"])
    def test_overflowing_returns_give_one_error_line(self, tmp_path, capsys, price, message, command):
        # a return or a covariance that overflows is refused by the
        # finiteness checks, and numpy's overflow warning does not reach stderr
        prices = tmp_path / "prices.csv"
        prices.write_text(f"date,A,B,C\nd1,1,2,3\nd2,1.1,{price},3.1\nd3,1.2,2.1,3.2\n", encoding="utf-8")
        assert main([command, "--prices", str(prices), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_config_file_with_flag_override(self, price_files, tmp_path):
        prices, _ = price_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"prices": str(prices), "points": 6, "out": str(tmp_path / "a")}),
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "frontier"]) == 0
        assert len(read_csv(tmp_path / "a" / "frontier.csv")[1]) == 6
        # flag wins over config
        assert main(["--config", str(cfg), "frontier", "--points", "4",
                     "--out", str(tmp_path / "b")]) == 0
        assert len(read_csv(tmp_path / "b" / "frontier.csv")[1]) == 4

    def test_config_env_var(self, price_files, tmp_path, monkeypatch):
        prices, _ = price_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"prices": str(prices), "out": str(tmp_path / "envout")}),
            encoding="utf-8",
        )
        monkeypatch.setenv("PORTOPT_CONFIG", str(cfg))
        assert main(["stats"]) == 0
        assert (tmp_path / "envout" / "stats.csv").exists()

    def test_unknown_config_key_rejected(self, price_files, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert main(["--config", str(cfg), "stats"]) == 2

    def test_explicit_market_block(self, price_files, tmp_path):
        # market parameters straight from the config, no eval price file
        prices, _ = price_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {
                    "prices": str(prices),
                    "market": {
                        "capital": 400,
                        "prices": [11.0, 23.0, 5.5],
                        "buy_cost_rates": 0.01,
                        "sell_cost_rates": 0.01,
                        "risk_free_rate": 0.0002,
                        "horizon": 251,
                        "lot_sizes": 1,
                    },
                    "lam": 0.5,
                    "generations": 30,
                    "seed": 4,
                    "out": str(tmp_path / "mkt"),
                }
            ),
            encoding="utf-8",
        )
        assert main(["--config", str(cfg), "optimize"]) == 0
        doc = json.loads((tmp_path / "mkt" / "solution.json").read_text())
        assert doc["residual"] >= 0.0
        assert sum(doc["implied_weights"]) <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        ("flag", "value", "key"),
        [
            ("--buy-cost", 0.3, "buy_cost_rates"),
            ("--sell-cost", 0.2, "sell_cost_rates"),
            ("--capital", 4000, "capital"),
            ("--lot-size", 3, "lot_sizes"),
            ("--risk-free", 0.001, "risk_free_rate"),
            ("--horizon", 20, "horizon"),
        ],
        ids=["buy_cost", "sell_cost", "capital", "lot_size", "risk_free", "horizon"],
    )
    def test_market_flag_overrides_block(self, price_files, tmp_path, flag, value, key):
        # a single run takes each market flag over the block's key, as a ladder does
        prices, _ = price_files
        block = {
            "capital": 400,
            "prices": [11.0, 23.0, 5.5],
            "buy_cost_rates": 0.02,
            "sell_cost_rates": 0.01,
            "risk_free_rate": 0.0002,
            "horizon": 251,
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prices": str(prices), "market": block}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["--config", str(cfg), "optimize", flag, str(value), "--generations", "40",
             "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        model = build_risk_model(assets_return(fill_missing(load_prices(prices))))
        market = market_params_from_dict({**block, key: value}, 3)
        solution, _ = ga_lambda_n_portfolio(model, 0.5, GaParams(generations=40, seed=5), market)
        doc = json.loads((out / "solution.json").read_text())
        assert doc["shares"] == [int(c) for c in solution.shares]
        assert doc["residual"] == solution.residual
        assert doc["fitness"] == solution.fitness

    @pytest.mark.parametrize(
        ("extra", "code"),
        [
            ({"market": {"capital": 400}}, 2),
            ({"market": {"prices": [11.0, 23.0, 5.5]}}, 2),
            ({"market": [400, 11.0, 23.0, 5.5]}, 2),
            ({"buy_cost": []}, 2),
            ({"buy_cost": "cheap"}, 2),
            (["prices", "capital"], 2),  # the whole file is not an object
            ({"sell_cost": []}, 0),  # an empty list means no sell rate was given
            # the flags' spellings are not market block keys
            ({"market": {"capital": 400, "prices": [11.0, 23.0, 5.5], "buy_cost": 0.5,
                         "lot_size": 100}}, 2),
        ],
        ids=["market_no_prices", "market_no_capital", "market_not_object", "buy_cost_empty",
             "buy_cost_text", "file_not_object", "sell_cost_empty", "market_unknown_key"],
    )
    def test_malformed_config_exit_code(self, price_files, tmp_path, extra, code):
        prices, prices_eval = price_files
        base = {"prices": str(prices), "prices_eval": str(prices_eval), "capital": 500,
                "generations": 10}
        cfg = tmp_path / "cfg.json"
        doc = {**base, **extra} if isinstance(extra, dict) else extra
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--config", str(cfg), "optimize", "--out", str(tmp_path / "o")]) == code
        if code == 0:
            cfg.write_text(json.dumps(base), encoding="utf-8")
            assert main(["--config", str(cfg), "optimize", "--out", str(tmp_path / "p")]) == 0
            for name in ("solution.json", "ga_trace.csv"):
                assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()

    @pytest.mark.parametrize(
        ("extra", "code"),
        [
            ({"market": {**_BLOCK, "horizon": float("inf")}}, 1),
            ({"market": {**_BLOCK, "lot_sizes": float("inf")}}, 1),
            ({"market": {**_BLOCK, "horizon": 2.7}}, 1),
            ({"market": {**_BLOCK, "lot_sizes": 1.5}}, 1),
            ({"market": {**_BLOCK, "lot_sizes": [1, 2.9, 1]}}, 1),
            # a top-level key takes what its flag takes, and --horizon 2.7 exits 2
            ({"horizon": float("inf")}, 2),
            ({"lot_size": float("inf")}, 2),
            ({"horizon": 2.7}, 2),
            ({"lot_size": 1.5}, 2),
        ],
        ids=["block_horizon_inf", "block_lot_inf", "block_horizon_fraction",
             "block_lot_fraction", "block_lot_list_fraction", "horizon_inf", "lot_size_inf",
             "horizon_fraction", "lot_size_fraction"],
    )
    def test_horizon_and_lot_size_must_be_whole(self, price_files, tmp_path, extra, code, capsys):
        prices, prices_eval = price_files
        base = {"prices": str(prices), "prices_eval": str(prices_eval), "capital": 500,
                "generations": 10}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "optimize", "--out", str(out)]) == code
        message = "must be finite and integral" if code == 1 else "config key"
        assert message in capsys.readouterr().err
        assert not (out / "solution.json").exists()

    @pytest.mark.parametrize(
        "key",
        ["capital", "prices", "buy_cost_rates", "sell_cost_rates", "risk_free_rate", "horizon",
         "lot_sizes"],
    )
    def test_market_value_that_is_an_object_exit_code(self, price_files, tmp_path, key, capsys):
        prices, _ = price_files
        cfg = tmp_path / "cfg.json"
        block = {**_BLOCK, key: {}}
        cfg.write_text(json.dumps({"prices": str(prices), "market": block}), encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "optimize", "--out", str(out)]) == 1
        assert key in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize(
        "extra",
        [
            {"generations": float("inf")},
            {"points": float("inf")},
            {"seed": float("inf")},
            {"cloud": float("inf")},
            {"generations": 2.5},
            {"points": 3.7},
            {"seed": 1.5},
            {"cloud": 2.5},
            {"format": "xml"},
            {"ga": "no"},
            {"two_asset": "no"},
            {"seed": True},
            {"points": True},
            {"prices": 5, "generations": None, "out": None},
            {"risk": "foo"},
            {"points": [3]},
            {"buy_cost": [[0.01]]},
        ],
        ids=["generations_inf", "points_inf", "seed_inf", "cloud_inf", "generations_fraction",
             "points_fraction", "seed_fraction", "cloud_fraction", "format_choice", "ga_text",
             "two_asset_text", "seed_bool", "points_bool", "prices_number_and_nulls",
             "risk_choice", "points_list", "buy_cost_nested"],
    )
    def test_config_value_checked_like_its_flag(
        self, price_files, tmp_path, monkeypatch, extra, capsys
    ):
        # each value is one its flag would refuse, so the run exits 2 before any output
        prices, prices_eval = price_files
        monkeypatch.chdir(tmp_path)
        base = {"prices": str(prices), "prices_eval": str(prices_eval), "capital": 500,
                "out": str(tmp_path / "o")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **extra}), encoding="utf-8")
        assert main(["--config", str(cfg), "frontier", "--ga"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists() and not (tmp_path / "out").exists()

    def test_config_null_means_not_given(self, price_files, tmp_path, monkeypatch):
        prices, _ = price_files
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prices": str(prices), "points": 5}), encoding="utf-8")
        assert main(["--config", str(cfg), "frontier", "--out", "given"]) == 0
        nulls = {"prices": str(prices), "points": 5, "out": None, "cloud": None, "market": None,
                 "periods_expectation": None, "buy_cost": None, "ga": None}
        cfg.write_text(json.dumps(nulls), encoding="utf-8")
        assert main(["--config", str(cfg), "frontier"]) == 0
        assert (tmp_path / "out" / "frontier.csv").read_bytes() == (
            tmp_path / "given" / "frontier.csv"
        ).read_bytes()

    @pytest.mark.parametrize("value", [float("inf"), 2.5])
    def test_period_count_must_be_whole(self, price_files, tmp_path, value, capsys):
        prices, _ = price_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prices": str(prices), "periods_expectation": value}),
                       encoding="utf-8")
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "optimize", "--out", str(out)]) == 1
        assert "must be finite and integral" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        ("flags", "doc"),
        [
            (["frontier", "--ga", "--capital", "500", "--buy-cost", "0", "0.01", "0.05",
              "--sell-cost", "0", "0.02", "--lot-size", "2", "--risk-free", "0.0002",
              "--horizon", "200", "--points", "3", "--generations", "15", "--seed", "5"],
             {"ga": True, "capital": 500, "buy_cost": [0, 0.01, 0.05], "sell_cost": [0, 0.02],
              "lot_size": 2, "risk_free": 0.0002, "horizon": 200, "points": 3,
              "generations": 15, "seed": 5}),
            (["optimize", "--risk", "svar", "--threshold-b", "0.001", "--lambda", "0.4",
              "--format", "csv"],
             {"risk": "svar", "threshold_b": 0.001, "lam": 0.4, "format": "csv"}),
            (["fit", "--points", "6", "--format", "csv"], {"points": 6, "format": "csv"}),
        ],
        ids=["frontier_ga_ladder_lots", "optimize_csv", "fit"],
    )
    def test_config_file_equals_flags(self, price_files, tmp_path, flags, doc):
        prices, prices_eval = price_files
        paths = {"prices": str(prices), "prices_eval": str(prices_eval)}
        by_flags, by_file = tmp_path / "flags", tmp_path / "file"
        argv = [*flags, "--prices", str(prices), "--prices-eval", str(prices_eval)]
        assert main([*argv, "--out", str(by_flags)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**paths, **doc, "out": str(by_file)}), encoding="utf-8")
        assert main(["--config", str(cfg), flags[0]]) == 0
        names = sorted(p.name for p in by_flags.iterdir())
        assert names == sorted(p.name for p in by_file.iterdir())
        for name in names:
            assert (by_flags / name).read_bytes() == (by_file / name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats"],
            ["optimize", "--lambda", "0.5"],
            ["frontier", "--points", "5", "--cloud", "60"],
            ["optimize", "--capital", "400", "--buy-cost", "0.01",
             "--sell-cost", "0.01", "--lambda", "0.5", "--generations", "20"],
            ["optimize", "--capital", "400", "--buy-cost", "0.01",
             "--sell-cost", "0.01", "--lambda", "0.5", "--generations", "20",
             "--format", "csv"],
        ],
    )
    def test_byte_identical_reruns(self, price_files, tmp_path, argv):
        prices, prices_eval = price_files
        base = ["--prices", str(prices), "--seed", "11"]
        if argv[0] != "stats":  # stats takes no evaluation file
            base += ["--prices-eval", str(prices_eval)]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(argv + base + ["--out", str(out_a)]) == 0
        assert main(argv + base + ["--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


#: Each group of flags, and the groups each subcommand takes.
_GROUPS = {
    "run": ["--prices", "--risk", "--threshold-b", "--seed", "--out"],
    "evaluation": ["--prices-eval"],
    "target": ["--target-return", "--lambda"],
    "ga": ["--ga", "--generations", "--population"],
    "market": ["--capital", "--buy-cost", "--sell-cost", "--risk-free", "--horizon", "--lot-size"],
    "sweep": ["--points"],
    "plots": ["--cloud", "--two-asset"],
    "format": ["--format"],
}
_TAKES = {
    "stats": ["run"],
    "optimize": ["run", "evaluation", "target", "ga", "market", "format"],
    "frontier": ["run", "evaluation", "ga", "market", "sweep", "plots"],
    "fit": ["run", "evaluation", "sweep", "format"],
}


def _options(command):
    return [flag for group in _TAKES[command] for flag in _GROUPS[group]]


def _dropped():
    every = [flag for flags in _GROUPS.values() for flag in flags]
    return [(command, flag) for command in _TAKES for flag in every
            if flag not in _options(command)]


def _argv(command, doc):
    """``doc``'s settings as ``command``'s flags, leaving out those it does not take."""
    argv = [command]
    for flag in _options(command):
        value = doc.get("lam" if flag == "--lambda" else flag[2:].replace("-", "_"))
        if value is True:
            argv.append(flag)
        elif value is not None:
            argv += [flag, *map(str, value if isinstance(value, list) else [value])]
    return argv


class TestFlagSurface:
    def test_each_subcommand_takes_its_groups(self):
        parser = build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        for command, sub in commands.items():
            options = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
            assert options == set(_options(command)), command
        assert {c: len(_options(c)) for c in _TAKES} == {
            "stats": 5, "optimize": 18, "frontier": 18, "fit": 8}
        assert len(_dropped()) == 35

    @pytest.mark.parametrize(("command", "flag"), _dropped())
    def test_flag_the_subcommand_does_not_take(self, price_files, tmp_path, command, flag, capsys):
        # a usage error naming the flag, before any output
        prices, prices_eval = price_files
        value = {"--ga": [], "--two-asset": [], "--format": ["csv"],
                 "--prices-eval": [str(prices_eval)]}.get(flag, ["2"])
        out = tmp_path / "o"
        assert main([command, "--prices", str(prices), flag, *value, "--out", str(out)]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [[], *([c] for c in _TAKES)], ids=["portopt", *_TAKES])
    def test_help_returns_zero(self, argv, capsys):
        assert main([*argv, "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: portopt")

    @pytest.mark.parametrize("command", list(_TAKES))
    def test_one_config_file_for_every_subcommand(self, price_files, tmp_path, command):
        # each command reads its own keys of a file that holds all four's settings
        prices, prices_eval = price_files
        doc = {"prices": str(prices), "prices_eval": str(prices_eval), "risk": "svar",
               "seed": 7, "lam": 0.4, "ga": True, "generations": 10, "capital": 500,
               "buy_cost": [0.01, 0.02], "lot_size": 2, "points": 4, "cloud": 20,
               "two_asset": True, "format": "csv"}
        by_flags, by_file = tmp_path / "flags", tmp_path / "file"
        assert main([*_argv(command, doc), "--out", str(by_flags)]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "out": str(by_file)}), encoding="utf-8")
        assert main(["--config", str(cfg), command]) == 0
        names = sorted(p.name for p in by_flags.iterdir())
        assert names == sorted(p.name for p in by_file.iterdir())
        for name in names:
            assert (by_flags / name).read_bytes() == (by_file / name).read_bytes()
