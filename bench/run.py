"""portopt benchmark: frontier sweeps, GA evolution and CLI batch runs.

Run from the repository root:

    python3 bench/run.py --workload variance --seed 1 --seconds 40 --trace 0

Each run sets up its inputs from ``--seed``, then runs three phases in
turn (frontier-sweep, ga-evolve, cli-batch) against the public API and
the ``portopt`` CLI, checks every output, and prints one JSON object as
the last line of standard output.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` wraps every public function of every layer,
reports per-layer metrics and the tracing overhead, and writes the spans
to ``.bench_work/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads, here and (through the
# inherited environment) in every CLI child.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = {"variance": "var", "semivariance": "svar"}
SETUP_REPEATS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def blas_threads() -> int | str:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as handle:
        paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "portopt" / "__init__.py").is_file():
        print(f"error: portopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # numpy loads here for the first time, so set-up time includes it.
    start = perf_counter()
    import portopt  # noqa: F401
    import portopt.cli  # noqa: F401

    import_s = perf_counter() - start
    if not Path(portopt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported portopt from {portopt.__file__}", file=sys.stderr)
        return 2

    import phases
    from portopt.risk_models import RiskKind
    from spans import Probe

    kind = RiskKind(WORKLOADS[args.workload])
    seed, budget, traced = args.seed, args.seconds, bool(args.trace)
    work_root = ROOT / ".bench_work"
    work = work_root / f"{args.workload}-{seed}-{os.getpid()}"
    env = phases.child_env(SRC)
    ledger = phases.Ledger()

    try:
        # Set-up: inputs, reference optima and warm-up, repeated; the
        # median repeat plus the one-off import is reported.
        setup_walls, fingerprints = [], []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            data = phases.build_inputs(seed, kind, work)
            warm = phases.warm_up(data, env)
            setup_walls.append(perf_counter() - start)
            fingerprints.append(phases.digests(work))
        ledger.record("setup.reference_optimum", data.problems)
        determinism = [] if all(f == fingerprints[0] for f in fingerprints) else [
            "same seed produced different input files"
        ]
        ledger.record("setup.inputs", determinism + warm)

        qp_stats = phases.QpStats()
        probe = Probe(traced=False)
        overhead = None
        if traced:
            overhead = measure_overhead(data, seed)
            probe = Probe(traced=True)
        frontier = phases.FrontierSweep(data, probe, ledger, qp_stats)
        ga = phases.GaEvolve(data, probe, ledger, seed)
        cli = phases.CliBatch(data, probe, qp_stats, kind, seed, work, env,
                              min_cycles=1 if traced else 2)
        probe.install()
        try:
            phases.run_interleaved((frontier, ga, cli), budget)
        finally:
            probe.uninstall()
        rss = peak_rss_mb()
        phases.record_cli(cli, phases.verify_cli(data, kind, seed, work), ledger)
        probes = phases.run_probes(data, ledger)

        report = {
            "env": environment(seed),
            "workload": args.workload,
            "frontier": frontier.summary(),
            "ga": ga.summary(),
            "cli": cli.summary(),
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "known_defects": ledger.known_defects,
            "fail_frac": ledger.fail_frac,
            "probes": probes,
        }
        print("# report " + json.dumps(report))
        for note in ledger.notes:
            print("# " + note)

        if traced:
            metrics = layer_metrics(probe, qp_stats, frontier, ga, cli, work, overhead, ledger,
                                    probes)
            trace_path = work_root / f"trace-{args.workload}-{seed}.jsonl"
            probe.write(trace_path, {"env": report["env"], "workload": args.workload})
            print(f"# spans: {len(probe.spans)} written to {trace_path.relative_to(ROOT)}")
        else:
            metrics = end_to_end_metrics(import_s, setup_walls, frontier, ga, cli, rss)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def measure_overhead(data, seed: int, repeats: int = 3) -> float:
    """Median traced wall minus median untraced wall of one fixed set of
    calls, the two modes alternating so that drift in machine speed falls
    on both."""
    import phases
    from spans import Probe

    model, _ = data.frontier[0]
    case = data.ga[0]
    params = phases.ga_mod.GaParams(generations=phases.GA_GENERATIONS, seed=seed)

    def calls():
        phases.frontier_mod.efficient_frontier(model, phases.FRONTIER_POINTS)
        phases.ga_mod.ga_lambda_n_portfolio(case.model, case.lam, params, case.market)
        phases.ga_mod.ga_lambda_portfolio(case.model, case.lam, params)

    walls = {False: [], True: []}
    for _ in range(repeats):
        for traced in (False, True):
            probe = Probe(traced=traced)
            probe.install()
            try:
                start = perf_counter()
                calls()
                walls[traced].append(perf_counter() - start)
            finally:
                probe.uninstall()
    return statistics.median(walls[True]) - statistics.median(walls[False])


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(import_s, setup_walls, frontier, ga, cli, rss) -> dict:
    import phases

    latencies = frontier.latencies
    walls = {name: [wall for code, wall, _, _ in runs if code == 0]
             for name, runs in cli.runs.items()}
    median = phases.median_or_nan
    gaps = {b: s["gaps"][: phases.GA_QUALITY_RUNS] for b, s in ga.stats.items()}
    return {
        "setup_s": _metric(import_s + statistics.median(setup_walls), "s"),
        "frontier_points_per_s": _metric(len(latencies) / frontier.busy, "1/s"),
        "point_ms.p50": _metric(1e3 * percentile(latencies, 50), "ms"),
        "point_ms.p90": _metric(1e3 * percentile(latencies, 90), "ms"),
        "ga_int_gens_per_s": _metric(median(ga.stats["int"]["rates"]), "1/s"),
        "ga_cont_gens_per_s": _metric(median(ga.stats["cont"]["rates"]), "1/s"),
        "ga_int_gap_bp": _metric(phases.mean_or_nan(gaps["int"]), "bp"),
        "ga_cont_gap_bp": _metric(phases.mean_or_nan(gaps["cont"]), "bp"),
        "cli_read_s": _metric(median(walls["stats"]) + median(walls["optimize"]), "s"),
        "cli_write_s": _metric(median(walls["frontier"]) + median(walls["fit"]), "s"),
        "peak_rss_mb": _metric(rss, "MB"),
    }


def layer_metrics(probe, qp_stats, frontier, ga, cli, work, overhead, ledger, probes) -> dict:
    import phases
    from spans import self_times

    spans = probe.spans
    own = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(spans, own):
        duration = span.end - span.start
        total[span.name] = total.get(span.name, 0.0) + duration
        calls[span.name] = calls.get(span.name, 0) + 1
        durations.setdefault(span.name, []).append(duration)
        layer = span.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    qp_self = sum(s for span, s in zip(spans, own) if span.name == "qp.solve_qp")
    load_s = total.get("market_data.load_prices", 0.0)

    def cmd_s(name):
        return phases.median_or_nan(durations.get(f"cli.cmd_{name}", []))

    m = {
        "qp.solve_qp.calls": (calls.get("qp.solve_qp", 0), "count"),
        "qp.solve_qp.self_s": (qp_self, "s"),
        "qp.iterations.sum": (sum(qp_stats.iterations), "count"),
        "qp.iterations.p90": (percentile(qp_stats.iterations, 90), "count"),
        "qp.active_set.mean": (phases.mean_or_nan(qp_stats.active_set), "count"),
        "qp.kkt_residual.max": (max(qp_stats.kkt, default=float("nan")), "ratio"),
        "optimizers.self_s": (layer_self.get("optimizers", 0.0), "s"),
        "optimizers.regularize.s": (total.get("optimizers.regularize", 0.0), "s"),
        "frontier.self_s": (layer_self.get("frontier", 0.0), "s"),
        "frontier.points": (len(frontier.latencies), "count"),
        "frontier.random_portfolio_cloud.s": (
            total.get("frontier.random_portfolio_cloud", 0.0), "s"),
        "ga.self_s": (layer_self.get("ga", 0.0), "s"),
        "ga.generations": (sum(s["generations"] for s in ga.stats.values()), "count"),
        "ga.repair_integer.calls": (calls.get("ga.repair_integer", 0), "count"),
        "ga.repair_integer.s": (total.get("ga.repair_integer", 0.0), "s"),
        "market.fitness.calls": (calls.get("market.fitness", 0), "count"),
        "market.fitness.rows": (probe.fitness_rows, "count"),
        "market.fitness.s": (total.get("market.fitness", 0.0), "s"),
        "market_data.load_prices.s": (load_s, "s"),
        "market_data.load_prices.mb_per_s": (
            probe.loaded_bytes / 1e6 / load_s if load_s else 0.0, "MB/s"),
        "market_data.fill_missing.s": (total.get("market_data.fill_missing", 0.0), "s"),
        "market_data.assets_return.s": (total.get("market_data.assets_return", 0.0), "s"),
        "risk_models.build_risk_model.s": (total.get("risk_models.build_risk_model", 0.0), "s"),
        "cli.stats.s": (cmd_s("stats"), "s"),
        "cli.optimize.s": (cmd_s("optimize"), "s"),
        "cli.frontier.s": (cmd_s("frontier"), "s"),
        "cli.fit.s": (cmd_s("fit"), "s"),
        "cli.startup_s": (phases.median_or_nan(cli.startup), "s"),
        "cli.output_bytes": (phases.output_bytes(work), "bytes"),
        "trace.overhead_s": (overhead, "s"),
        "checks.fail_frac": (ledger.fail_frac, "ratio"),
        "frontier.probes.failed": (sum(o != "passed" for o in probes.values()), "count"),
    }
    return {name: _metric(value, unit) for name, (value, unit) in m.items()}


if __name__ == "__main__":
    sys.exit(main())
