"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 -m pytest -q bench/test_selftest.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs as gen  # noqa: E402
import portopt  # noqa: E402
from portopt.optimizers import ObjectiveParams, portfolio_from_weights  # noqa: E402
from portopt.qp import QpSolution, QuadraticProgram, solve_qp  # noqa: E402
from portopt.risk_models import build_risk_model  # noqa: E402
from spans import Probe, Span, covered_length, self_times  # noqa: E402


def test_seeded_generators_are_deterministic(tmp_path):
    a = gen.factor_returns(gen.rng_for(7, 1), 12, 40).values
    b = gen.factor_returns(gen.rng_for(7, 1), 12, 40).values
    c = gen.factor_returns(gen.rng_for(8, 1), 12, 40).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

    returns = gen.factor_returns(gen.rng_for(7, 2), 5, 30)
    first = gen.write_price_csv(tmp_path / "a.csv", gen.rng_for(7, 3), returns).read_bytes()
    second = gen.write_price_csv(tmp_path / "b.csv", gen.rng_for(7, 3), returns).read_bytes()
    assert first == second
    assert b"NA" in gen.write_price_csv(
        tmp_path / "c.csv", gen.rng_for(7, 3), returns, gap_frac=0.2
    ).read_bytes()


def test_sample_means_are_the_drawn_drifts():
    bull = gen.factor_returns(gen.rng_for(3, 3), 10, 250).values.mean(axis=0)
    bear = gen.factor_returns(gen.rng_for(3, 3), 10, 250, drift=gen.BEAR_DRIFT)
    near_zero = gen.near_zero_min_returns(gen.rng_for(3, 4), 10, 250).values.mean(axis=0)
    assert (bull >= gen.BULL_DRIFT[0] - 1e-15).all()
    assert (bear.values.mean(axis=0) < 0.0).all()
    assert abs(near_zero.min() - gen.NEAR_ZERO_MIN) < 1e-15


def _target_program():
    model = build_risk_model(gen.factor_returns(gen.rng_for(5, 5), 8, 200))
    n = model.n_assets
    target = float(np.mean(model.mu))
    qp = QuadraticProgram(
        dmat=2.0 * model.sigma,
        dvec=np.zeros(n),
        a_eq=np.vstack([np.ones(n), model.mu]),
        b_eq=np.array([1.0, target]),
        a_ineq=np.eye(n),
        b_ineq=np.zeros(n),
    )
    return model, target, qp


def test_kkt_certificate_accepts_solver_output_and_rejects_a_perturbation():
    _, _, qp = _target_program()
    solution = solve_qp(qp)
    assert checks.kkt_residual(qp, solution) <= checks.KKT_TOL

    x = solution.x.copy()
    top, second = np.argsort(x)[-2:]
    x[top] -= 1e-6
    x[second] += 1e-6  # still on the budget plane, no longer optimal
    perturbed = QpSolution(
        x=x,
        objective=solution.objective,
        active_set=solution.active_set,
        iterations=solution.iterations,
        multipliers=solution.multipliers,
    )
    residual, problems = checks.qp_problems(qp, perturbed)
    assert residual > checks.KKT_TOL
    assert problems


def test_portfolio_check_flags_a_missed_target():
    model, target, qp = _target_program()
    weights = solve_qp(qp).x
    pinned = ObjectiveParams(target_return=target, pin_return_equality=True)
    assert checks.portfolio_problems(model, portfolio_from_weights(model, weights), pinned) == []
    shifted = np.full(model.n_assets, 1.0 / model.n_assets)
    off = ObjectiveParams(target_return=float(model.mu.max()), pin_return_equality=True)
    assert checks.portfolio_problems(model, portfolio_from_weights(model, shifted), off)


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        Span("frontier.efficient_frontier", 0.0, 10.0, -1, 1),
        Span("optimizers.markowitz_portfolio", 1.0, 4.0, 0, 1),
        Span("optimizers.markowitz_portfolio", 3.0, 6.0, 0, 1),  # overlaps its sibling
        Span("qp.solve_qp", 2.0, 3.0, 1, 1),
        Span("qp.solve_qp", 9.0, 12.0, 0, 1),  # runs past its parent's end
    ]
    assert self_times(spans) == [10.0 - 6.0, 3.0 - 1.0, 3.0, 1.0, 3.0]
    assert covered_length([], 0.0, 1.0) == 0.0


def test_probe_rebinds_and_restores_module_attributes():
    import portopt.frontier
    import portopt.optimizers

    original = portopt.optimizers.solve_qp
    probe = Probe(traced=True)
    probe.install()
    try:
        assert portopt.optimizers.solve_qp is not original
        model = build_risk_model(gen.factor_returns(gen.rng_for(1, 1), 6, 120))
        portopt.frontier.lambda_frontier(model, 3)
    finally:
        probe.uninstall()
    assert portopt.optimizers.solve_qp is original
    assert portopt.solve_qp is original
    names = {span.name for span in probe.spans}
    assert {"frontier.lambda_frontier", "optimizers.lambda_portfolio", "qp.solve_qp"} <= names
    assert len(probe.qp_log) == 3 and len(probe.point_log) == 3
    parents = {span.name: probe.spans[span.parent].name for span in probe.spans if span.parent >= 0}
    assert parents["qp.solve_qp"] == "optimizers.lambda_portfolio"
