"""Set-up and the three phases of a run: frontier sweep, GA evolution, CLI batch.

Every phase is a closed loop with one caller: the next call starts when
the previous one has returned and been checked, and checking happens
outside the timed calls.  The phases take turns call by call, so a slow
spell on a shared machine falls on all of them instead of on one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import portopt.cli as cli_mod
import portopt.frontier as frontier_mod
import portopt.ga as ga_mod
from portopt.errors import PortfolioError, TargetOutOfRange
from portopt.market import MarketParams
from portopt.market_data import ReturnsMatrix, assets_return, fill_missing, load_prices
from portopt.optimizers import ObjectiveParams, lambda_portfolio
from portopt.risk_models import RiskKind, RiskModel, build_risk_model

import checks
import inputs as gen

# frontier-sweep: three sweep kinds per panel, points kept small so that a
# run covers many panels and one hard panel cannot swing the figures.
FRONTIER_ASSETS = 150
FRONTIER_PERIODS = 500
FRONTIER_EVAL_PERIODS = 250
FRONTIER_POINTS = 8
FRONTIER_PANELS = 24
MIN_SWEEPS = 12  # four panels, 100 points: at least ten lie beyond p90

# ga-evolve: fixed generations, no early stop, both bindings alternating
# over one case per panel.  A single run's gap swings by orders of
# magnitude with the panel and the GA seed, so the reported gap is the
# mean over the first GA_QUALITY_RUNS runs of each binding, one per panel.
GA_ASSETS = 100
GA_PERIODS = 500
GA_PANELS = 36
GA_LAMBDAS = (0.005, 0.01, 0.02)
GA_GENERATIONS = 50
GA_QUALITY_RUNS = 36

# cli-batch: a wide read-heavy file and a narrow write-heavy pair.
WIDE_ASSETS = 500
WIDE_PERIODS = 2500
NARROW_ASSETS = 30
NARROW_PERIODS = 500
NARROW_EVAL_PERIODS = 250
CLI_POINTS = 40
CLI_CLOUD = 100_000
TWO_ASSET_POINTS = 30  # points per curve that ``portopt frontier --two-asset`` writes
CLI_CYCLE = ("stats", "frontier", "fit", "optimize", "frontier", "fit")
CLI_TIMEOUT_S = 150

# Sweep-range probes: outside every timing metric.
PROBE_ASSETS = 10
PROBE_PERIODS = 250
PROBE_POINTS = 10


@dataclass(frozen=True)
class GaCase:
    model: RiskModel
    market: MarketParams
    lam: float
    integer_bound: float
    continuous_optimum: float


@dataclass
class Inputs:
    frontier: list[tuple[RiskModel, ReturnsMatrix]]
    ga: list[GaCase]
    probes: dict[str, RiskModel]
    wide_csv: Path
    narrow_csv: Path
    narrow_eval_csv: Path
    problems: list[str]


@dataclass
class Ledger:
    """Operations attempted and failed; a known defect is reported apart."""

    attempted: int = 0
    failed: int = 0
    known_defects: int = 0
    notes: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.notes.append(f"FAILED {op}: {problems[0]}")

    def known_defect(self, op: str, note: str) -> None:
        self.attempted += 1
        self.known_defects += 1
        self.notes.append(f"KNOWN DEFECT {op}: {note}")

    @property
    def fail_frac(self) -> float:
        return (self.failed + self.known_defects) / max(self.attempted, 1)


@dataclass
class QpStats:
    iterations: list[int] = field(default_factory=list)
    active_set: list[int] = field(default_factory=list)
    kkt: list[float] = field(default_factory=list)


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


# --- set-up --------------------------------------------------------------------


def build_inputs(seed: int, kind: RiskKind, work: Path) -> Inputs:
    """Generate every input of a run from ``seed``; the same seed gives the
    same panels, files and reference optima."""
    work.mkdir(parents=True, exist_ok=True)
    frontier_panels = []
    for i in range(FRONTIER_PANELS):
        returns = gen.factor_returns(
            gen.rng_for(seed, 1, i), FRONTIER_ASSETS, FRONTIER_PERIODS + FRONTIER_EVAL_PERIODS
        )
        insample, outsample = gen.split(returns, FRONTIER_PERIODS)
        frontier_panels.append((build_risk_model(insample, kind=kind), outsample))

    problems = []
    cases = []
    for j in range(GA_PANELS):
        rng = gen.rng_for(seed, 2, j)
        model = build_risk_model(gen.factor_returns(rng, GA_ASSETS, GA_PERIODS), kind=kind)
        market = gen.integer_market(rng, GA_ASSETS)
        lam = GA_LAMBDAS[j % len(GA_LAMBDAS)]
        bound, qp, solution = checks.integer_relaxation(model, market, lam)
        problems += checks.qp_problems(qp, solution)[1]
        cases.append(GaCase(model, market, lam, bound, checks.continuous_reference(model, lam)))

    probes = {
        "bear_market": gen.factor_returns(
            gen.rng_for(seed, 3), PROBE_ASSETS, PROBE_PERIODS, drift=gen.BEAR_DRIFT
        ),
        "near_zero_min": gen.near_zero_min_returns(
            gen.rng_for(seed, 9), PROBE_ASSETS, PROBE_PERIODS
        ),
    }
    wide = gen.factor_returns(gen.rng_for(seed, 4), WIDE_ASSETS, WIDE_PERIODS)
    narrow = gen.factor_returns(
        gen.rng_for(seed, 5), NARROW_ASSETS, NARROW_PERIODS + NARROW_EVAL_PERIODS
    )
    narrow_in, narrow_out = gen.split(narrow, NARROW_PERIODS)
    return Inputs(
        frontier=frontier_panels,
        ga=cases,
        probes={name: build_risk_model(r, kind=kind) for name, r in probes.items()},
        wide_csv=gen.write_price_csv(work / "wide.csv", gen.rng_for(seed, 6), wide),
        narrow_csv=gen.write_price_csv(work / "narrow.csv", gen.rng_for(seed, 7), narrow_in),
        narrow_eval_csv=gen.write_price_csv(
            work / "narrow_eval.csv", gen.rng_for(seed, 8), narrow_out
        ),
        problems=problems,
    )


def warm_up(data: Inputs, env: dict) -> list[str]:
    """One small call per path, so lazy imports and file caches are warm."""
    case = data.ga[0]
    lambda_portfolio(case.model, ObjectiveParams(lam=case.lam))
    params = ga_mod.GaParams(generations=5, seed=0)
    ga_mod.ga_lambda_n_portfolio(case.model, case.lam, params, case.market)
    ga_mod.ga_lambda_portfolio(case.model, case.lam, params)
    done = subprocess.run(
        [sys.executable, "-c", "import portopt.cli"], env=env, timeout=CLI_TIMEOUT_S, check=False
    )
    return [] if done.returncode == 0 else [f"importing portopt.cli exited {done.returncode}"]


# --- frontier sweep ---------------------------------------------------------------


def _sweeps():
    return (
        ("efficient_frontier", lambda m, out: frontier_mod.efficient_frontier(m, FRONTIER_POINTS)),
        ("lambda_frontier", lambda m, out: frontier_mod.lambda_frontier(m, FRONTIER_POINTS)),
        ("frontier_fit", lambda m, out: frontier_mod.frontier_fit(m, out, FRONTIER_POINTS)),
    )


def drain_checks(probe, qp_stats: QpStats) -> list[str]:
    """Check every QP and portfolio logged since the last drain."""
    problems = []
    for qp, solution in probe.qp_log:
        residual, found = checks.qp_problems(qp, solution)
        qp_stats.iterations.append(solution.iterations)
        qp_stats.active_set.append(len(solution.active_set))
        qp_stats.kkt.append(residual)
        problems += found
    for model, params, portfolio, _ in probe.point_log:
        problems += checks.portfolio_problems(model, portfolio, params)
    probe.qp_log.clear()
    probe.point_log.clear()
    return problems


def _sweep_problems(name: str, result) -> list[str]:
    if name == "frontier_fit":
        count = len(result.pairs)
        finite = np.isfinite([result.mean_error, result.annual_mean_error]).all()
        return [] if count == FRONTIER_POINTS and finite else ["malformed fit report"]
    if len(result) != FRONTIER_POINTS:
        return [f"{len(result)} points, expected {FRONTIER_POINTS}"]
    return []


class FrontierSweep:
    """frontier-sweep: the three sweep kinds on one panel, then the next panel."""

    share = 0.35

    def __init__(self, data: Inputs, probe, ledger: Ledger, qp_stats: QpStats):
        self.data, self.probe, self.ledger, self.qp_stats = data, probe, ledger, qp_stats
        self.latencies: list[float] = []
        self.busy = 0.0
        self.calls = 0

    def satisfied(self) -> bool:
        return self.calls >= MIN_SWEEPS

    def step(self) -> float:
        sweeps = _sweeps()
        panel, which = divmod(self.calls, len(sweeps))
        name, sweep = sweeps[which]
        model, outsample = self.data.frontier[panel % len(self.data.frontier)]
        self.calls += 1
        self.probe.op += 1
        start = perf_counter()
        try:
            result = sweep(model, outsample)
        except Exception as exc:  # a failed call is counted, not fatal
            wall = perf_counter() - start
            problems = [_error(exc)]
        else:
            wall = perf_counter() - start
            self.latencies.extend(seconds for *_, seconds in self.probe.point_log)
            problems = _sweep_problems(name, result)
        self.ledger.record(f"frontier.{name}", problems + drain_checks(self.probe, self.qp_stats))
        self.busy += wall
        return wall

    def summary(self) -> dict:
        return {"sweeps": self.calls, "points": len(self.latencies), "busy_s": self.busy}


def run_probes(data: Inputs, ledger: Ledger) -> dict[str, str]:
    """Each probe panel through ``efficient_frontier``; returns the outcomes."""
    return {name: _probe(name, model, ledger) for name, model in data.probes.items()}


def _probe(name: str, model: RiskModel, ledger: Ledger) -> str:
    op = f"frontier.probe.{name}"
    try:
        points = frontier_mod.efficient_frontier(model, PROBE_POINTS)
    except TargetOutOfRange as exc:
        ledger.known_defect(op, _error(exc))
        return "known defect"
    except Exception as exc:  # any other outcome is a plain failure
        ledger.record(op, [_error(exc)])
        return "failed"
    problems = [] if len(points) == PROBE_POINTS else [f"{len(points)} points"]
    for p in points:
        pinned = ObjectiveParams(target_return=p.parameter, pin_return_equality=True)
        problems += checks.portfolio_problems(model, p.portfolio, pinned)
    ledger.record(op, problems)
    return "failed" if problems else "passed"


# --- GA evolution --------------------------------------------------------------


def _ga_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, 9, k]).generate_state(1)[0])


def _integer_run(case: GaCase, params) -> tuple[float, list[str], float, int]:
    start = perf_counter()
    solution, trace = ga_mod.ga_lambda_n_portfolio(case.model, case.lam, params, case.market)
    wall = perf_counter() - start
    best = trace.best_fitness_per_generation
    problems = checks.trace_problems(best, params.generations)
    problems += checks.bound_problems(float(best[-1]), case.integer_bound)
    if solution.residual < 0.0 or (np.asarray(solution.shares) < 0).any():
        problems.append(f"infeasible purchase, residual {solution.residual!r}")
    if abs(solution.fitness - float(best[-1])) > checks.REFERENCE_SLACK:
        problems.append("returned solution is not the trace's best")
    return wall, problems, (case.integer_bound - float(best[-1])) * 1e4, len(best)


def _continuous_run(case: GaCase, params) -> tuple[float, list[str], float, int]:
    start = perf_counter()
    portfolio, trace = ga_mod.ga_lambda_portfolio(case.model, case.lam, params)
    wall = perf_counter() - start
    best = trace.best_fitness_per_generation
    problems = checks.trace_problems(best, params.generations)
    problems += checks.bound_problems(float(best[-1]), case.continuous_optimum)
    problems += checks.portfolio_problems(case.model, portfolio)
    return wall, problems, (case.continuous_optimum - float(best[-1])) * 1e4, len(best)


class GaEvolve:
    """ga-evolve: integer and continuous runs alternating over the cases."""

    share = 0.30

    def __init__(self, data: Inputs, probe, ledger: Ledger, seed: int):
        self.data, self.probe, self.ledger, self.seed = data, probe, ledger, seed
        self.runs = {"int": _integer_run, "cont": _continuous_run}
        self.stats = {b: {"rates": [], "generations": 0, "gaps": []} for b in self.runs}
        self.calls = 0

    def satisfied(self) -> bool:
        return self.calls >= len(self.runs) * GA_QUALITY_RUNS

    def step(self) -> float:
        k, which = divmod(self.calls, len(self.runs))
        binding = tuple(self.runs)[which]
        case = self.data.ga[k % len(self.data.ga)]
        params = ga_mod.GaParams(generations=GA_GENERATIONS, seed=_ga_seed(self.seed, k))
        self.calls += 1
        self.probe.op += 1
        start = perf_counter()
        try:
            wall, problems, gap, generations = self.runs[binding](case, params)
        except Exception as exc:  # a failed call is counted, not fatal
            self.ledger.record(f"ga.{binding}", [_error(exc)])
            return perf_counter() - start
        self.ledger.record(f"ga.{binding}", problems)
        s = self.stats[binding]
        s["rates"].append(generations / wall)
        s["generations"] += generations
        s["gaps"].append(gap)
        return wall

    def summary(self) -> dict:
        return {b: {"runs": len(s["gaps"]), "generations": s["generations"]}
                for b, s in self.stats.items()}


# --- CLI batch ---------------------------------------------------------------------


def child_env(src: Path) -> dict:
    """The harness environment (BLAS already pinned) with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.pop("PORTOPT_CONFIG", None)
    return env


def run_cli(argv: list[str], out: Path, env: dict) -> tuple[int, float, str]:
    """One ``portopt`` process; returns its exit code, wall seconds and the
    last line of its standard error."""
    command = [sys.executable, "-m", "portopt.cli", *argv, "--out", str(out)]
    start = perf_counter()
    done = subprocess.run(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=CLI_TIMEOUT_S,
        check=False,
    )
    wall = perf_counter() - start
    lines = done.stderr.decode("utf-8", "replace").strip().splitlines()
    return done.returncode, wall, lines[-1] if lines else ""


def run_cli_in_process(argv: list[str], out: Path) -> tuple[int, float]:
    start = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_mod.main([*argv, "--out", str(out)])
    return code, perf_counter() - start


def digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
        if p.is_file()
    }


def cli_commands(data: Inputs, kind: RiskKind, seed: int) -> dict[str, list[str]]:
    wide, narrow, narrow_eval = str(data.wide_csv), str(data.narrow_csv), str(data.narrow_eval_csv)
    return {
        "stats": ["stats", "--prices", wide, "--risk", "svar"],
        "optimize": ["optimize", "--prices", wide],
        "frontier": [
            "frontier", "--prices", narrow, "--risk", kind.value, "--points", str(CLI_POINTS),
            "--cloud", str(CLI_CLOUD), "--two-asset", "--seed", str(seed),
        ],
        "fit": ["fit", "--prices", narrow, "--prices-eval", narrow_eval, "--risk", kind.value],
    }


class CliBatch:
    """cli-batch: the command cycle as ``portopt`` processes.

    The traced run also runs each command in-process through
    ``portopt.cli.main`` first, so its spans are recorded.  The outputs of
    each command's first run are kept for :func:`verify_cli`.
    """

    share = 0.35

    def __init__(self, data: Inputs, probe, qp_stats: QpStats, kind: RiskKind, seed: int,
                 work: Path, env: dict, min_cycles: int):
        self.probe, self.qp_stats, self.work, self.env = probe, qp_stats, work, env
        self.commands = cli_commands(data, kind, seed)
        self.min_calls = min_cycles * len(CLI_CYCLE)
        self.runs = {name: [] for name in self.commands}  # (code, wall, digests, problems)
        self.startup: list[float] = []
        self.calls = 0

    def satisfied(self) -> bool:
        return self.calls >= self.min_calls

    def step(self) -> float:
        name = CLI_CYCLE[self.calls % len(CLI_CYCLE)]
        self.calls += 1
        first = not self.runs[name]
        out = self.work / "cli" / name / ("first" if first else "rerun")
        problems = []
        inproc_wall = 0.0
        if self.probe.traced:
            self.probe.op += 1
            inproc_out = self.work / "cli" / name / "in_process"
            inproc_code, inproc_wall = run_cli_in_process(self.commands[name], inproc_out)
            problems += drain_checks(self.probe, self.qp_stats)
            if inproc_code != 0:
                problems.append(f"in-process exit code {inproc_code}")
        code, wall, error = run_cli(self.commands[name], out, self.env)
        found = digests(out) if out.is_dir() else {}
        if self.probe.traced:
            self.startup.append(wall - inproc_wall)
            if inproc_code == 0 and digests(inproc_out) != found:
                problems.append("in-process output differs from the subprocess output")
        if code != 0:
            problems.append(f"exit code {code}: {error}")
        elif not first and found != self.runs[name][0][2]:
            problems.append("rerun output is not byte-identical")
        self.runs[name].append((code, wall, found, problems))
        return inproc_wall + wall

    def summary(self) -> dict:
        return {name: len(runs) for name, runs in self.runs.items()}


def run_interleaved(phases, budget: float) -> None:
    """Step the phases in turn, each time the one furthest below its share
    of the busy time, until ``budget`` seconds are spent and every phase
    has its minimum sample count."""
    busy = [0.0] * len(phases)
    while True:
        spent = sum(busy)
        pending = [i for i, p in enumerate(phases) if spent < budget or not p.satisfied()]
        if not pending:
            return
        i = min(pending, key=lambda i: busy[i] / phases[i].share)
        busy[i] += phases[i].step()


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    labels = [row[0] for row in rows]
    return labels, np.array([[float(v) for v in row[1:]] for row in rows])


def _numeric_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _mismatch(label: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} differs from library {want.shape}"]
    if not np.allclose(got, want, rtol=1e-12, atol=1e-15):
        return [f"{label}: values differ from the library result"]
    return []


def verify_cli(data: Inputs, kind: RiskKind, seed: int, work: Path) -> dict[str, list[str]]:
    """Compare each command's first outputs with in-process library results."""
    found: dict[str, list[str]] = {}
    first = {name: work / "cli" / name / "first" for name in set(CLI_CYCLE)}

    table = fill_missing(load_prices(data.wide_csv))
    returns = assets_return(table)
    try:
        svar = build_risk_model(returns, kind=RiskKind.SEMIVARIANCE)
        assets, values = _read_csv(first["stats"] / "stats.csv")
        problems = [] if tuple(assets) == svar.assets else ["stats.csv asset order"]
        want = np.column_stack([np.sqrt(np.diag(svar.sigma)), svar.mu])
        found["stats"] = problems + _mismatch("stats.csv", values, want)
    except (OSError, ValueError, PortfolioError) as exc:
        found["stats"] = [_error(exc)]
    try:
        minimum = lambda_portfolio(build_risk_model(returns), ObjectiveParams(lam=0.0))
        doc = json.loads((first["optimize"] / "portfolio.json").read_text(encoding="utf-8"))
        found["optimize"] = _mismatch("portfolio.json weights", doc["weights"], minimum.weights)
    except (OSError, ValueError, KeyError, PortfolioError) as exc:
        found["optimize"] = [_error(exc)]

    narrow = build_risk_model(assets_return(fill_missing(load_prices(data.narrow_csv))), kind=kind)
    try:
        points = frontier_mod.efficient_frontier(narrow, CLI_POINTS)
        want = [(p.parameter, p.risk, p.expected_return) for p in points]
        cloud = frontier_mod.random_portfolio_cloud(narrow, count=CLI_CLOUD, seed=seed)
        curves = first["frontier"] / "two_asset_curves.csv"
        pairs = NARROW_ASSETS * (NARROW_ASSETS - 1) // 2
        problems = _mismatch("frontier.csv", _numeric_csv(first["frontier"] / "frontier.csv"), want)
        problems += _mismatch("cloud.csv", _numeric_csv(first["frontier"] / "cloud.csv"), cloud)
        if len(curves.read_text(encoding="utf-8").splitlines()) != 1 + TWO_ASSET_POINTS * pairs:
            problems.append("two_asset_curves.csv row count")
        found["frontier"] = problems
    except (OSError, ValueError, PortfolioError) as exc:
        found["frontier"] = [_error(exc)]
    try:
        returns_out = assets_return(fill_missing(load_prices(data.narrow_eval_csv)))
        report = frontier_mod.frontier_fit(narrow, returns_out, CLI_POINTS)
        doc = json.loads((first["fit"] / "fit_summary.json").read_text(encoding="utf-8"))
        want = [
            report.mean_error,
            report.mean_underestimation_error,
            report.annual_mean_error,
            report.annual_mean_underestimation_error,
        ]
        got = [
            doc["mean_error_daily"],
            doc["mean_underestimation_error_daily"],
            doc["mean_error_annual"],
            doc["mean_underestimation_error_annual"],
        ]
        found["fit"] = _mismatch("fit_summary.json", got, want)
    except (OSError, ValueError, KeyError, PortfolioError) as exc:
        found["fit"] = [_error(exc)]
    return found


def record_cli(cli: CliBatch, reference: dict[str, list[str]], ledger: Ledger) -> None:
    for name, runs in cli.runs.items():
        for code, _, _, problems in runs:
            ledger.record(f"cli.{name}", problems + (reference[name] if code == 0 else []))


def output_bytes(work: Path) -> int:
    return sum(p.stat().st_size for p in (work / "cli").glob("*/first/*") if p.is_file())


def median_or_nan(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def mean_or_nan(values) -> float:
    return statistics.fmean(values) if values else float("nan")
