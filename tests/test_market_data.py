"""Price ingestion, gap filling and return conversion."""

from __future__ import annotations

import contextlib
import csv
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from portopt import market_data
from portopt.errors import (
    DuplicateAssetHeader,
    InsufficientHistory,
    LeadingGap,
    NonPositivePrice,
    ParseError,
    PortfolioError,
)
from portopt.market_data import PriceTable, assets_return, fill_missing, load_prices


def write(tmp_path, text, name="prices.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadPrices:
    def test_well_formed(self, tmp_path):
        path = write(tmp_path, "date,X,Y\n2005-01-03,10,20\n2005-01-04,11,21\n2005-01-05,12,22\n")
        table = load_prices(path)
        assert table.n_periods == 3
        assert table.n_assets == 2
        assert table.assets == ("X", "Y")
        assert table.dates[0] == "2005-01-03"
        np.testing.assert_array_equal(table.values, [[10, 20], [11, 21], [12, 22]])

    def test_zero_price_reports_location(self, tmp_path):
        path = write(tmp_path, "date,X,Y\nd1,10,20\nd2,0.0,21\n")
        with pytest.raises(NonPositivePrice) as err:
            load_prices(path)
        assert err.value.row == 1
        assert err.value.column == "X"

    def test_single_data_row(self, tmp_path):
        path = write(tmp_path, "date,X\nd1,10\n")
        with pytest.raises(InsufficientHistory):
            load_prices(path)

    def test_duplicate_header(self, tmp_path):
        path = write(tmp_path, "date,X,X\nd1,10,20\nd2,11,21\n")
        with pytest.raises(DuplicateAssetHeader):
            load_prices(path)

    @pytest.mark.parametrize("reader", ["text", "records"])
    def test_not_utf8_is_a_parse_error(self, tmp_path, reader):
        # a Latin-1 e-acute, whichever reader meets it
        path = tmp_path / "prices.csv"
        path.write_bytes(b"date,X\nd\xe9,10\nd2,11\n")
        records = mock.patch.object(market_data, "_parse_text", return_value=None)
        with records if reader == "records" else contextlib.nullcontext():
            with pytest.raises(ParseError, match="utf-8"):
                load_prices(path)

    def test_malformed_number(self, tmp_path):
        path = write(tmp_path, "date,X\nd1,10\nd2,oops\n")
        with pytest.raises(ParseError):
            load_prices(path)

    def test_missing_tokens_become_gaps(self, tmp_path):
        path = write(tmp_path, "date,X,Y\nd1,10,20\nd2,NA,21\nd3,,22\n")
        table = load_prices(path)
        assert np.isnan(table.values[1, 0])
        assert np.isnan(table.values[2, 0])
        assert table.has_gaps

    def test_non_finite_numbers_become_gaps(self, tmp_path):
        path = write(tmp_path, "date,X,Y\nd1,10,20\nd2,inf,21\nd3,11,-Infinity\n")
        table = load_prices(path)
        assert np.isnan(table.values[1, 0])
        assert np.isnan(table.values[2, 1])
        np.testing.assert_array_equal(table.values[[0, 0, 1, 2], [0, 1, 1, 0]], [10, 20, 21, 11])


def _outcome(path):
    """What ``load_prices`` makes of ``path``: the table's dates, assets and
    value bits, or the error's class and message."""
    try:
        table = load_prices(path)
    except (PortfolioError, ValueError) as exc:
        return type(exc), str(exc)
    return table.dates, table.assets, table.values.shape, table.values.tobytes()


def _any_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda flips: "".join(c.upper() if f else c for c, f in zip(word, flips))
    )


#: A date one character longer than the record reader takes in a cell.
_LONG = "d" * (csv.field_size_limit() + 1)
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_NUMBER = st.one_of(
    st.floats(min_value=1e-3, max_value=1e6).map(repr),
    st.floats(min_value=1e-3, max_value=1e6).map(lambda x: f"{x:.6f}"),
    st.from_regex(r"[1-9][0-9]{0,4}(\.[0-9]{0,9})?(e[+-]?[0-9])?", fullmatch=True),
)
#: Cells the whole-text reader parses: numbers (padded or not) and NA.
_CLEAN = st.one_of(
    _NUMBER, st.tuples(_PAD, _NUMBER, _PAD).map("".join), st.sampled_from(["NA", "NA "])
)
_MISSING = st.tuples(
    _PAD, st.sampled_from(["", "na", "n/a", "nan", "null", "none"]).flatmap(_any_case), _PAD
).map("".join)
_ODD = st.sampled_from([
    '"1.5"', '" 2.5 "', '"NA"', "oops", "1.2.3", "1_000", "\u0661\u0662\u0663", "inf",
    "-Infinity", "0", "0.0", "-3.5", "-nan", "1e400", "1e-400", " ", "NA1", "NAN", ",",
])
_NAME = st.sampled_from(["A", "B", "Foo", " C ", "D1"])
_QUOTED_NAME = st.sampled_from(['"Foo, Inc."', '"B ""b"""', '"x\ny"', '"C"'])
_DATE = st.sampled_from(["d1", "2005-01-03", " d2 ", ""])
_ODD_DATE = st.sampled_from(['"3 Jan, 2005"', "d\u00e9"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_load_prices_matches_the_record_reader(data):
    """Every file gives the record reader's table bits or its error."""
    odd = data.draw(st.booleans(), label="odd")
    n_assets = data.draw(st.integers(min_value=0 if odd else 1, max_value=3), label="n_assets")
    cell = st.one_of(_CLEAN, _MISSING, _ODD) if odd else _CLEAN
    names = st.one_of(_NAME, _QUOTED_NAME) if odd else _NAME
    dates = st.one_of(_DATE, _ODD_DATE) if odd else _DATE
    header = ["date", *data.draw(st.lists(names, min_size=n_assets, max_size=n_assets))]
    records, blank_rows = [], 0
    for _ in range(data.draw(st.integers(min_value=0, max_value=5), label="rows")):
        width = n_assets
        if odd:
            width = max(width + data.draw(st.sampled_from([0, 0, 0, -1, 1]), label="width"), 0)
        cells = data.draw(st.lists(cell, min_size=width, max_size=width))
        records.append(",".join([data.draw(dates), *cells]))
        if data.draw(st.integers(min_value=0, max_value=5)) == 0:
            records.append(data.draw(st.sampled_from(["", ",,", " , ", "\t"])))
            blank_rows += 1
    long = bool(records) and data.draw(st.integers(min_value=0, max_value=4), label="long") == 0
    if long:  # the first date longer than the record reader takes, bare or quoted
        _, comma, rest = records[0].partition(",")
        records[0] = data.draw(st.sampled_from([_LONG, f'"{_LONG}"'])) + comma + rest
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]), label="line end")
    text = end.join([",".join(header), *records])
    if data.draw(st.booleans(), label="final newline"):
        text += end

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prices.csv"
        path.write_bytes(text.encode("utf-8"))
        if not (odd or long or blank_rows) and end == "\n" and len(records) >= 2:
            assert market_data._parse_text(path) is not None
        whole = _outcome(path)
        with mock.patch.object(market_data, "_parse_text", return_value=None):
            assert whole == _outcome(path)


class TestFillMissing:
    def test_carry_forward(self, tmp_path):
        path = write(tmp_path, "date,X\nd1,100\nd2,NA\nd3,102\n")
        filled = fill_missing(load_prices(path))
        np.testing.assert_array_equal(filled.values[:, 0], [100.0, 100.0, 102.0])

    def test_no_gaps_is_identity(self):
        table = PriceTable(("d1", "d2"), ("X",), np.array([[1.0], [2.0]]))
        filled = fill_missing(table)
        np.testing.assert_array_equal(filled.values, table.values)

    def test_leading_gap(self, tmp_path):
        path = write(tmp_path, "date,X\nd1,NA\nd2,100\n")
        with pytest.raises(LeadingGap):
            fill_missing(load_prices(path))

    def test_idempotent(self, tmp_path):
        path = write(tmp_path, "date,X,Y\nd1,100,5\nd2,NA,6\nd3,102,NA\nd4,NA,8\n")
        once = fill_missing(load_prices(path))
        twice = fill_missing(once)
        np.testing.assert_array_equal(once.values, twice.values)


class TestAssetsReturn:
    def test_basic(self):
        table = PriceTable(("d1", "d2", "d3"), ("X",), np.array([[100.0], [110.0], [99.0]]))
        returns = assets_return(table)
        np.testing.assert_allclose(returns.values[:, 0], [0.10, -0.10])

    def test_constant_prices(self):
        table = PriceTable(("d1", "d2", "d3"), ("X",), np.array([[50.0], [50.0], [50.0]]))
        np.testing.assert_array_equal(assets_return(table).values[:, 0], [0.0, 0.0])

    def test_halve_then_double(self):
        table = PriceTable(("d1", "d2", "d3"), ("X",), np.array([[2.0], [1.0], [2.0]]))
        np.testing.assert_allclose(assets_return(table).values[:, 0], [-0.5, 1.0])

    def test_refuses_gaps(self):
        table = PriceTable(("d1", "d2"), ("X",), np.array([[1.0], [np.nan]]))
        with pytest.raises(ValueError):
            assets_return(table)

    def test_row_count(self, rng):
        values = rng.uniform(1.0, 100.0, size=(17, 3))
        table = PriceTable(tuple(f"d{i}" for i in range(17)), ("A", "B", "C"), values)
        assert assets_return(table).n_periods == 16


@given(
    prices=st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=2, max_size=40),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_returns_invariant_under_price_scaling(prices, scale):
    dates = tuple(f"d{i}" for i in range(len(prices)))
    base = PriceTable(dates, ("X",), np.array(prices)[:, None])
    scaled = PriceTable(dates, ("X",), np.array(prices)[:, None] * scale)
    np.testing.assert_allclose(
        assets_return(base).values, assets_return(scaled).values, rtol=1e-9, atol=1e-12
    )


@given(data=st.data())
def test_fill_missing_idempotent_property(data):
    rows = data.draw(st.integers(min_value=2, max_value=12))
    cols = data.draw(st.integers(min_value=1, max_value=4))
    values = np.array(
        [
            [
                data.draw(st.one_of(st.none(), st.floats(min_value=0.1, max_value=100.0)))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ],
        dtype=float,
    )
    values[0] = np.where(np.isnan(values[0]), 1.0, values[0])
    table = PriceTable(
        tuple(f"d{i}" for i in range(rows)), tuple(f"A{j}" for j in range(cols)), values
    )
    once = fill_missing(table)
    assert not once.has_gaps
    np.testing.assert_array_equal(once.values, fill_missing(once).values)
