"""Timing wrappers rebound onto portopt's module attributes, and span math.

portopt's modules call each other through module globals, so rebinding a
function's name in every ``portopt`` module that holds it routes every
call through a wrapper without touching the library.

Two modes share one :class:`Probe`:

* untraced: only the per-point functions and ``solve_qp`` are wrapped,
  with a clock read and a log append, so the benchmark can time frontier
  points and check every QP certificate after the timed call;
* traced: every public function of every layer is wrapped and records a
  span ``(name, start, end, parent, op)``; spans stay in memory and are
  written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

#: The modules of ``src/portopt``; a span's layer is its module.
LAYERS = ("market_data", "risk_models", "qp", "optimizers", "frontier", "ga", "market", "cli")

#: Private functions wrapped in the traced run besides every public one.
PRIVATE_SPANS = ("ga._continuous_fitness",)

#: Functions whose results the checks inspect, wrapped in both modes.
POINT_FUNCTIONS = ("optimizers.markowitz_portfolio", "optimizers.lambda_portfolio")
QP_FUNCTION = "qp.solve_qp"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int


def covered_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered_length(children[i], span.start, span.end)
        for i, span in enumerate(spans)
    ]


class Probe:
    """Installs and removes the wrappers; collects spans and logs."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[Span] = []
        self.op = 0
        self.qp_log: list = []  # (program, solution) since the last drain
        self.point_log: list = []  # (model, params, portfolio, seconds)
        self.loaded_bytes = 0
        self.fitness_rows = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = _portopt_modules()
        for qualified, fn in _targets(self.traced):
            wrapper = self._wrap(qualified, fn, self._after_hook(qualified))
            for module in modules:
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    def _after_hook(self, qualified: str):
        if qualified == QP_FUNCTION:
            return lambda args, kwargs, result, seconds: self.qp_log.append(
                (kwargs.get("qp", args[0] if args else None), result)
            )
        if qualified in POINT_FUNCTIONS:
            return self._log_point
        if self.traced and qualified == "market.fitness":
            return self._count_rows
        if self.traced and qualified == "market_data.load_prices":
            return self._count_bytes
        return None

    def _log_point(self, args, kwargs, result, seconds):
        model = kwargs.get("model", args[0])
        params = kwargs.get("params", args[1] if len(args) > 1 else None)
        self.point_log.append((model, params, result, seconds))

    def _count_rows(self, args, kwargs, result, seconds):
        shares = kwargs.get("n", args[0])
        self.fitness_rows += shares.shape[0] if getattr(shares, "ndim", 1) == 2 else 1

    def _count_bytes(self, args, kwargs, result, seconds):
        self.loaded_bytes += os.path.getsize(kwargs.get("path", args[0]))

    def _wrap(self, name: str, fn, after):
        if not self.traced:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = perf_counter()
                result = fn(*args, **kwargs)
                after(args, kwargs, result, perf_counter() - start)
                return result

            return timed

        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.op)
            if after is not None:
                after(args, kwargs, result, end - start)
            return result

        return traced

    # --- output ------------------------------------------------------------------

    def write(self, path: Path, header: dict) -> None:
        """Write ``header`` then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for span in self.spans:
                handle.write(json.dumps(list(span), separators=(",", ":")) + "\n")


def _portopt_modules() -> list:
    import portopt

    return [portopt] + [importlib.import_module(f"portopt.{layer}") for layer in LAYERS]


def _targets(traced: bool) -> list[tuple[str, object]]:
    """``(layer.function, function)`` pairs to wrap in this mode."""
    wanted = set(POINT_FUNCTIONS) | {QP_FUNCTION}
    targets = []
    for layer in LAYERS:
        module = importlib.import_module(f"portopt.{layer}")
        for name, fn in vars(module).items():
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            qualified = f"{layer}.{name}"
            public = not name.startswith("_") or qualified in PRIVATE_SPANS
            if qualified in wanted or (traced and public):
                targets.append((qualified, fn))
    return targets
