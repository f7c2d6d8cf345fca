"""Price ingestion and conversion to per-period simple returns.

The input format is comma-separated text with a header row: the first
column is a date label, the remaining columns are adjusted close prices,
one asset per column.  Dates are carried for labeling only; rows are
treated as trading periods and no calendar arithmetic is done.

Missing quotes (empty cells, ``NA``/``NaN`` tokens, non-finite numbers)
are explicit gaps.  :func:`fill_missing` applies the carry-forward rule:
each gap takes the most recent prior value in the same column.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateAssetHeader,
    InsufficientHistory,
    LeadingGap,
    NonPositivePrice,
    ParseError,
)

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none"}


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PriceTable:
    """T_p x N table of adjusted close prices, NaN marking explicit gaps.

    Present entries must be strictly positive and finite; at least two
    rows are required so returns can be formed.
    """

    dates: tuple[str, ...]
    assets: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(np.atleast_2d(self.values))
        object.__setattr__(self, "values", values)
        if values.shape[0] < 2:
            raise InsufficientHistory(
                f"need at least 2 price rows, got {values.shape[0]}"
            )
        if len(self.dates) != values.shape[0]:
            raise ParseError("date column length does not match price rows")
        if len(self.assets) != values.shape[1]:
            raise ParseError("asset header length does not match price columns")
        if len(set(self.assets)) != len(self.assets):
            seen: set[str] = set()
            for name in self.assets:
                if name in seen:
                    raise DuplicateAssetHeader(f"duplicate asset header {name!r}")
                seen.add(name)
        bad = ~np.isnan(values) & ((values <= 0.0) | np.isinf(values))
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise NonPositivePrice(int(r), self.assets[c], float(values[r, c]))

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]

    @property
    def has_gaps(self) -> bool:
        return bool(np.isnan(self.values).any())


@dataclass(frozen=True)
class ReturnsMatrix:
    """T x N matrix of simple returns, T one less than the price rows."""

    assets: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        values = _frozen(np.atleast_2d(self.values))
        object.__setattr__(self, "values", values)
        if len(self.assets) != values.shape[1]:
            raise ValueError("asset names do not match return columns")
        if not np.isfinite(values).all():
            raise ValueError("returns contain non-finite entries")
        if (values < -1.0).any():
            raise ValueError("simple returns below -100% are impossible")

    @property
    def n_periods(self) -> int:
        return self.values.shape[0]

    @property
    def n_assets(self) -> int:
        return self.values.shape[1]


def load_prices(path) -> PriceTable:
    """Read a comma-separated price file into a :class:`PriceTable`.

    The header row is required; the first column is the date key and is
    never treated as a price.  Rows and columns keep file order.  The text
    is UTF-8; rows end in ``\\n``, ``\\r\\n`` or ``\\r``, and a row whose
    every cell is blank or whitespace is skipped.  Cells follow the
    ``csv`` module's default dialect (a double-quoted cell may hold commas,
    quotes doubled, and line breaks) and are stripped of surrounding
    whitespace.  A price cell that is empty or spells ``NA``, ``N/A``,
    ``NaN``, ``null`` or ``None`` in any case is a gap, and so is a
    non-finite number; any other cell must be a number ``float`` reads.

    A file with ``\\n`` line ends, no quoted cell, no blank row, no cell
    longer than ``csv.field_size_limit()`` and every gap spelled ``NA`` is
    parsed by numpy's C reader in one pass over the whole text; any other
    file, and every malformed one, is read record by record, and that
    reader alone raises :class:`ParseError`.  Both give the same table.
    Text that is not UTF-8 raises :class:`ParseError` before either reads
    a cell.
    """
    try:
        dates, assets, values = _parse_text(path) or _parse_records(path)
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    # Non-finite input is indistinguishable from a missing quote.
    values[~np.isfinite(values)] = np.nan
    return PriceTable(dates=dates, assets=assets, values=values)


def _parse_text(path):
    """The dates, assets and values of the file at ``path``, or None where
    the record reader must decide.

    numpy's text reader takes a strict subset of what ``float`` takes and
    reads it to the same doubles, so a file with no quoted cell and ``\\n``
    line ends only needs its ``NA`` gaps spelled ``nan``.  It refuses every
    other gap spelling, an empty cell (so a blank row too) and every
    malformed number.  A file with a cell longer than
    ``csv.field_size_limit()``, which the record reader refuses, is left to
    it too.
    """
    with open(path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    if '"' in text or "\r" in text:
        return None
    header, *rows = text.split("\n")
    del text
    if rows and not rows[-1]:
        rows.pop()  # the final line end
    width = header.count(",") + 1
    if width < 2 or len(rows) < 2:
        return None
    limit = csv.field_size_limit()
    for line in (header, *rows):
        if len(line) > limit and max(map(len, line.split(","))) > limit:
            return None
    dates = []
    for i, row in enumerate(rows):
        if row.count(",") != width - 1:
            return None
        dates.append(row[: row.index(",")].strip())
        rows[i] = row.replace(",NA", ",nan")
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, usecols=range(1, width), ndmin=2)
    except ValueError:
        return None
    return tuple(dates), tuple(name.strip() for name in header.split(",")[1:]), values


def _parse_records(path):
    """The dates, assets and values of the file at ``path``, read record by
    record with :mod:`csv`."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) < 2:
            raise ParseError(f"{path}: header must list a date column and assets")
        assets = tuple(name.strip() for name in header[1:])

        dates: list[str] = []
        rows: list[list[float]] = []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ParseError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(record)}"
                )
            dates.append(record[0].strip())
            row = []
            for name, cell in zip(assets, record[1:]):
                token = cell.strip()
                if token.lower() in _MISSING_TOKENS:
                    row.append(np.nan)
                    continue
                try:
                    row.append(float(token))
                except ValueError:
                    raise ParseError(
                        f"{path}:{lineno}: malformed number {token!r} in column {name!r}"
                    ) from None
            rows.append(row)

    if len(rows) < 2:
        raise InsufficientHistory(f"{path}: need at least 2 price rows, got {len(rows)}")
    return tuple(dates), assets, np.array(rows)


def fill_missing(raw: PriceTable) -> PriceTable:
    """Replace each gap with the most recent prior value in its column."""
    values = np.array(raw.values)
    leading = np.isnan(values[0])
    if leading.any():
        col = int(np.flatnonzero(leading)[0])
        raise LeadingGap(f"column {raw.assets[col]!r} has no price in the first row")
    for t in range(1, values.shape[0]):
        gap = np.isnan(values[t])
        values[t, gap] = values[t - 1, gap]
    return PriceTable(dates=raw.dates, assets=raw.assets, values=values)


def assets_return(prices: PriceTable) -> ReturnsMatrix:
    """Per-period simple returns R_t = P_t / P_{t-1} - 1, column-wise."""
    if prices.has_gaps:
        raise ValueError("price table has gaps; apply fill_missing first")
    values = prices.values
    # a quotient that overflows is inf, which ReturnsMatrix refuses
    with np.errstate(over="ignore"):
        returns = values[1:] / values[:-1] - 1.0
    return ReturnsMatrix(assets=prices.assets, values=returns)
