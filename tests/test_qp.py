"""Quadratic-program solver: oracles, KKT conditions, determinism."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from portopt import qp as qp_module
from portopt.errors import Infeasible, NumericalBreakdown
from portopt.optimizers import regularize
from portopt.qp import QuadraticProgram, solve_qp
from portopt.risk_models import RiskKind, build_risk_model

from conftest import random_returns, simplex_grid

FEAS_TOL = 1e-8
KKT_TOL = 1e-8


def simplex_qp(dmat, dvec=None, extra_ineq=None, extra_b=None) -> QuadraticProgram:
    n = dmat.shape[0]
    a_ineq = np.eye(n)
    b_ineq = np.zeros(n)
    if extra_ineq is not None:
        a_ineq = np.vstack([extra_ineq, a_ineq])
        b_ineq = np.concatenate([extra_b, b_ineq])
    return QuadraticProgram(
        dmat=dmat,
        dvec=np.zeros(n) if dvec is None else dvec,
        a_eq=np.ones((1, n)),
        b_eq=np.ones(1),
        a_ineq=a_ineq,
        b_ineq=b_ineq,
    )


def assert_kkt(qp: QuadraticProgram, sol) -> None:
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    meq = qp.b_eq.shape[0]
    slack = a_all @ sol.x - b_all
    # primal feasibility
    assert np.abs(slack[:meq]).max(initial=0.0) < FEAS_TOL
    assert slack[meq:].min(initial=0.0) > -FEAS_TOL
    # stationarity
    residual = qp.dmat @ sol.x - qp.dvec - a_all.T @ sol.multipliers
    assert np.abs(residual).max() < KKT_TOL
    # dual feasibility and complementary slackness on inequalities
    for i in range(meq, len(b_all)):
        if i in sol.active_set:
            assert sol.multipliers[i] >= -1e-8
        else:
            assert sol.multipliers[i] == 0.0
            assert slack[i] > -FEAS_TOL


class TestBasicCases:
    def test_active_bound(self):
        qp = QuadraticProgram(
            dmat=np.array([[2.0]]),
            dvec=np.zeros(1),
            a_ineq=np.array([[1.0]]),
            b_ineq=np.array([3.0]),
        )
        sol = solve_qp(qp)
        assert sol.x[0] == pytest.approx(3.0, abs=1e-10)
        assert sol.active_set == (0,)
        assert_kkt(qp, sol)

    def test_two_asset_closed_form(self):
        # min w'Sw with S=diag(1,4): w1 = s2/(s1+s2) = 0.8, variance 0.8.
        qp = simplex_qp(2.0 * np.diag([1.0, 4.0]))
        sol = solve_qp(qp)
        np.testing.assert_allclose(sol.x, [0.8, 0.2], atol=1e-10)
        assert sol.objective == pytest.approx(0.8, abs=1e-12)
        assert_kkt(qp, sol)

    def test_unconstrained_program(self):
        qp = QuadraticProgram(dmat=np.eye(2), dvec=np.array([1.0, -2.0]))
        sol = solve_qp(qp)
        np.testing.assert_allclose(sol.x, [1.0, -2.0], atol=1e-12)
        assert sol.active_set == ()

    def test_infeasible(self):
        # sum(x) = 1 with x >= 2 on one variable cannot hold.
        qp = QuadraticProgram(
            dmat=np.array([[2.0]]),
            dvec=np.zeros(1),
            a_eq=np.ones((1, 1)),
            b_eq=np.ones(1),
            a_ineq=np.array([[1.0]]),
            b_ineq=np.array([2.0]),
        )
        with pytest.raises(Infeasible):
            solve_qp(qp)

    def test_not_positive_definite(self):
        qp = QuadraticProgram(dmat=np.zeros((2, 2)), dvec=np.ones(2))
        with pytest.raises(NumericalBreakdown):
            solve_qp(qp)


class TestOracles:
    def test_grid_oracle_random_instances(self, rng):
        grids = {n: simplex_grid(n, 0.01) for n in (2, 3, 4)}
        for trial in range(20):
            n = int(rng.integers(2, 5))
            a = rng.normal(size=(n + 3, n))
            dmat = a.T @ a / (n + 3)
            dvec = rng.normal(size=n) * 0.05
            qp = simplex_qp(dmat, dvec)
            sol = solve_qp(qp)
            grid = grids[n]
            values = 0.5 * np.einsum("pi,ij,pj->p", grid, dmat, grid) - grid @ dvec
            assert sol.objective <= values.min() + 1e-4
            assert_kkt(qp, sol)

    def test_vertex_enumeration(self, rng):
        # The optimum never exceeds the objective at any simplex vertex.
        for _ in range(10):
            n = int(rng.integers(2, 6))
            a = rng.normal(size=(n + 2, n))
            dmat = a.T @ a / (n + 2)
            qp = simplex_qp(dmat)
            sol = solve_qp(qp)
            for k in range(n):
                vertex = np.zeros(n)
                vertex[k] = 1.0
                assert sol.objective <= 0.5 * vertex @ dmat @ vertex + 1e-10

    def test_return_constraint(self, toy_model):
        # Pinning the return to an attainable level gives a feasible optimum.
        beta = 0.002
        qp = simplex_qp(
            2.0 * toy_model.sigma,
            extra_ineq=toy_model.mu[None, :],
            extra_b=np.array([beta]),
        )
        sol = solve_qp(qp)
        assert float(toy_model.mu @ sol.x) >= beta - FEAS_TOL
        assert_kkt(qp, sol)


class TestDeterminism:
    def test_bit_identical_resolve(self, rng):
        a = rng.normal(size=(6, 4))
        qp = simplex_qp(a.T @ a / 6.0, rng.normal(size=4))
        first = solve_qp(qp)
        second = solve_qp(qp)
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective
        assert first.active_set == second.active_set
        assert first.iterations == second.iterations

    def test_equality_pinning(self):
        mu = np.array([0.001, 0.004])
        qp = QuadraticProgram(
            dmat=2.0 * np.diag([1e-4, 9e-4]),
            dvec=np.zeros(2),
            a_eq=np.vstack([np.ones(2), mu]),
            b_eq=np.array([1.0, 0.002]),
            a_ineq=np.eye(2),
            b_ineq=np.zeros(2),
        )
        sol = solve_qp(qp)
        assert float(mu @ sol.x) == pytest.approx(0.002, abs=1e-10)
        assert sol.x.sum() == pytest.approx(1.0, abs=1e-10)


def test_objective_reported_for_returned_x(rng):
    a = rng.normal(size=(5, 3))
    dmat = a.T @ a / 5.0
    dvec = rng.normal(size=3)
    qp = simplex_qp(dmat, dvec)
    sol = solve_qp(qp)
    direct = 0.5 * float(sol.x @ dmat @ sol.x) - float(dvec @ sol.x)
    assert sol.objective == direct


def test_degenerate_duplicate_constraints():
    # The same bound twice: solver must not break on the redundant row.
    qp = QuadraticProgram(
        dmat=np.array([[2.0]]),
        dvec=np.zeros(1),
        a_ineq=np.array([[1.0], [1.0]]),
        b_ineq=np.array([3.0, 3.0]),
    )
    sol = solve_qp(qp)
    assert sol.x[0] == pytest.approx(3.0, abs=1e-10)


def test_kkt_holds_on_random_feasible_programs():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6))
    @settings(max_examples=120, deadline=None)
    def run(seed, n):
        gen = np.random.default_rng(seed)
        a = gen.normal(size=(n + 2, n))
        dmat = a.T @ a / (n + 2) + 1e-8 * np.eye(n)
        qp = simplex_qp(dmat, gen.normal(size=n) * 0.1)
        sol = solve_qp(qp)
        assert_kkt(qp, sol)

    run()


def test_exhaustive_small_integer_style_bounds(rng):
    # Box plus budget: optimum matches scan over the active-set lattice.
    dmat = 2.0 * np.array([[2.0, 0.3], [0.3, 1.0]])
    dvec = np.array([0.5, 0.2])
    upper = np.array([0.7, 0.9])
    qp = QuadraticProgram(
        dmat=dmat,
        dvec=dvec,
        a_eq=np.ones((1, 2)),
        b_eq=np.ones(1),
        a_ineq=np.vstack([np.eye(2), -np.eye(2)]),
        b_ineq=np.concatenate([np.zeros(2), -upper]),
    )
    sol = solve_qp(qp)
    grid = simplex_grid(2, 0.001)
    ok = (grid <= upper + 1e-12).all(axis=1)
    values = 0.5 * np.einsum("pi,ij,pj->p", grid[ok], dmat, grid[ok]) - grid[ok] @ dvec
    assert sol.objective <= values.min() + 1e-6
    assert_kkt(qp, sol)


def random_program(gen: np.random.Generator):
    """A random program over n <= 40 with the witness of its feasibility.

    Rows mix 0-3 equalities, inequalities, duplicated rows and opposed
    inequality pairs (an interval, sometimes of width zero); some
    programs carry a planted contradiction.  Returns ``(qp, x0, y)``:
    ``x0`` satisfies every row of a feasible program, and ``y`` is a
    Farkas vector (one entry per row, equalities first) of an infeasible
    one.
    """
    n = int(gen.integers(1, 41))
    k = int(gen.integers(1, 2 * n + 2))
    a = gen.normal(size=(k, n))
    dmat = a.T @ a / k + 10.0 ** gen.uniform(-4.0, 0.0) * np.eye(n)
    x0 = gen.normal(size=n)
    eqs: list[tuple[np.ndarray, float, float]] = []  # (row, rhs, Farkas weight)
    ineqs: list[tuple[np.ndarray, float, float]] = []
    for _ in range(int(gen.integers(0, 3))):
        row = gen.normal(size=n)
        eqs.append((row, float(row @ x0), 0.0))
    for _ in range(int(gen.integers(0, 2 * n + 1))):
        row = gen.normal(size=n)
        ineqs.append((row, float(row @ x0) - gen.exponential() * (gen.random() < 0.7), 0.0))
    for _ in range(int(gen.integers(0, 4))):
        row = gen.normal(size=n)
        below, above = gen.exponential(size=2) * (gen.random(2) < 0.5)
        ineqs += [(row, float(row @ x0) - below, 0.0), (-row, -float(row @ x0) - above, 0.0)]
    if ineqs and gen.random() < 0.5:
        ineqs += [ineqs[int(i)] for i in gen.integers(0, len(ineqs), size=gen.integers(1, 4))]
    if eqs and gen.random() < 0.3:
        eqs.append(eqs[0])
    if gen.random() < 0.35:
        row = gen.normal(size=n)
        gap = 10.0 ** gen.uniform(-3.0, 0.0)
        kind = int(gen.integers(0, 3)) if len(eqs) < 2 else 0
        if kind == 0:  # an empty interval
            ineqs += [(row, float(row @ x0) + gap, 1.0), (-row, -float(row @ x0) + gap, 1.0)]
        elif kind == 1:  # an equality outside an inequality
            eqs.append((row, float(row @ x0), -1.0))
            ineqs.append((row, float(row @ x0) + gap, 1.0))
        else:  # two parallel equalities
            eqs += [(row, float(row @ x0), -1.0), (row, float(row @ x0) + gap, 1.0)]
    eqs = [eqs[i] for i in gen.permutation(len(eqs))]
    ineqs = [ineqs[i] for i in gen.permutation(len(ineqs))]

    def stack(rows):
        return (
            np.array([r for r, _, _ in rows]).reshape(-1, n),
            np.array([b for _, b, _ in rows]),
            np.array([y for _, _, y in rows]),
        )

    a_eq, b_eq, y_eq = stack(eqs)
    a_ineq, b_ineq, y_ineq = stack(ineqs)
    qp = QuadraticProgram(dmat, gen.normal(size=n), a_eq, b_eq, a_ineq, b_ineq)
    return qp, x0, np.concatenate([y_eq, y_ineq])


def feasible(qp: QuadraticProgram, x0: np.ndarray, y: np.ndarray) -> bool:
    """Decide feasibility directly: ``x0`` satisfies every row, or ``y``
    certifies that no point does (y >= 0 on inequalities, A'y = 0,
    b'y > 0).  Fails when neither witness holds."""
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    meq = qp.b_eq.shape[0]
    slack = a_all @ x0 - b_all
    if np.abs(slack[:meq]).max(initial=0.0) < 1e-9 and slack[meq:].min(initial=0.0) > -1e-9:
        assert not y.any()
        return True
    assert (y[meq:] >= 0.0).all()
    assert np.abs(a_all.T @ y).max() < 1e-9
    assert float(b_all @ y) > 1e-4
    return False


def test_random_programs_kkt_or_infeasible():
    # Infeasible exactly when the direct check finds no point; otherwise KKT holds.
    seen = {"infeasible": 0, "dropped": 0, "flipped": 0}
    for seed in range(300):
        qp, x0, y = random_program(np.random.default_rng(seed))
        free = np.linalg.solve(qp.dmat, qp.dvec)
        seen["flipped"] += bool((qp.a_eq @ free > qp.b_eq).any())
        if not feasible(qp, x0, y):
            seen["infeasible"] += 1
            with pytest.raises(Infeasible):
                solve_qp(qp)
            continue
        sol = solve_qp(qp)
        assert_kkt(qp, sol)
        seen["dropped"] += sol.iterations > len(sol.active_set)
    # the generator reaches every path: Infeasible, drops, flipped equalities
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize(
    ("n", "seed", "frac", "iterations", "inactive"),
    [
        (30, 0, 0.45, 33, (2, 3, 4, 5, 6, 9, 12, 14, 15, 17, 18, 19, 21, 24, 25, 27, 28, 29, 30)),
        (30, 1, 0.15, 44, (2, 5, 6, 9, 12, 15, 17, 21, 25, 27)),
        (150, 0, 0.05, 240, (19, 49, 107, 144)),
        (150, 2, 0.05, 235, (7, 60, 66, 80, 89)),
    ],
)
def test_pinned_semivariance_working_set(n, seed, frac, iterations, inactive):
    # Drop-heavy programs: (iterations - |active set|) / 2 = 10, 11, 46 and
    # 44 drops.  Any change to the working-set path moves these pins.
    model = build_risk_model(random_returns(np.random.default_rng(seed), n), RiskKind.SEMIVARIANCE)
    target = model.mu.min() + frac * (model.mu.max() - model.mu.min())
    qp = QuadraticProgram(
        dmat=2.0 * regularize(model.sigma),
        dvec=np.zeros(n),
        a_eq=np.vstack([np.ones(n), model.mu]),
        b_eq=np.array([1.0, target]),
        a_ineq=np.eye(n),
        b_ineq=np.zeros(n),
    )
    sol = solve_qp(qp)
    assert sol.iterations == iterations
    assert sol.active_set == tuple(sorted(set(range(n + 2)) - set(inactive)))
    assert_kkt(qp, sol)


def with_bounds(qp: QuadraticProgram, x0: np.ndarray, gen: np.random.Generator):
    """``qp`` with bound rows appended to its inequalities: ``c x_i >= c lo_i``
    and ``-c x_i >= -c hi_i`` (c > 0) around ``x0``, some of them tight at
    ``x0``, and one bound repeated.  A feasible program stays feasible."""
    n = qp.n
    rows, rhs = [], []
    for side, share in ((1.0, 0.7), (-1.0, 0.3)):
        for i in np.flatnonzero(gen.random(n) < share):
            c = side * 10.0 ** gen.uniform(-1.0, 1.0)
            gap = gen.exponential() * (gen.random() < 0.6)
            rows.append(c * np.eye(n)[i])
            rhs.append(c * (x0[i] - side * gap))
    rows, rhs = rows + rows[:1], rhs + rhs[:1]
    return QuadraticProgram(
        qp.dmat,
        qp.dvec,
        qp.a_eq,
        qp.b_eq,
        np.vstack([qp.a_ineq, np.reshape(rows, (-1, n))]),
        np.concatenate([qp.b_ineq, rhs]),
    )


def test_seeded_start_reaches_the_cold_optimum(monkeypatch):
    # Whatever the seed, Infeasible is raised exactly when the cold solve
    # raises it; otherwise KKT holds and x is the cold x, the same bits
    # when both end on the same working set.
    seen = {"seeded": 0, "fallback": 0, "rows_dropped": 0, "infeasible": 0, "bounds": 0}
    real_seed = qp_module._seed
    last = [None]

    def counting_seed(qp, a_all, b_all, start, cap):
        result = last[0] = real_seed(qp, a_all, b_all, start, cap)
        q, active = result[:2]
        if q == 0:
            seen["fallback"] += 1
        else:
            seen["seeded"] += 1
            seeded = np.setdiff1d(start, np.arange(qp.b_eq.shape[0])).size
            seen["rows_dropped"] += (active[:q] >= qp.b_eq.shape[0]).sum() < seeded
            seen["bounds"] += ((a_all[active[:q]] != 0.0).sum(axis=1) == 1).any()
        return result

    monkeypatch.setattr(qp_module, "_seed", counting_seed)
    for seed in range(300):
        gen = np.random.default_rng(seed)
        program, x0, _ = random_program(gen)
        for qp in (program, with_bounds(program, x0, gen)):
            meq, m = qp.b_eq.shape[0], qp.b_eq.shape[0] + qp.b_ineq.shape[0]
            rows = np.arange(meq, m)
            try:
                cold = solve_qp(qp)
            except Infeasible:
                cold = None
            starts = [rows[gen.random(rows.size) < 0.5]]
            if qp is program:  # every inequality, rows parallel to an equality
                a_ineq = qp.a_ineq / np.linalg.norm(qp.a_ineq, axis=1, keepdims=True)
                a_eq = qp.a_eq / np.linalg.norm(qp.a_eq, axis=1, keepdims=True)
                parallel = np.abs(a_ineq @ a_eq.T).max(axis=1, initial=0.0) > 1.0 - 1e-12
                starts += [rows, np.concatenate([rows[parallel], rows[:2]])]
            else:  # every bound
                starts.append(rows[program.b_ineq.shape[0] :])
            if cold is not None:
                # the optimal working set, alone and with rows inactive at the optimum
                active = np.array(cold.active_set, dtype=int)
                inactive = np.setdiff1d(rows, active)
                starts += [active, np.concatenate([active, inactive[gen.random(inactive.size) < 0.5]])]
            for start in starts:
                if cold is None:
                    with pytest.raises(Infeasible):
                        solve_qp(qp, start=start)
                    seen["infeasible"] += last[0][0] > 0
                    continue
                sol = solve_qp(qp, start=start)
                assert_kkt(qp, sol)
                scale = max(1.0, float(np.abs(cold.x).max()))
                np.testing.assert_allclose(sol.x, cold.x, rtol=0.0, atol=1e-9 * scale)
                if sol.active_set == cold.active_set:
                    np.testing.assert_array_equal(sol.x, cold.x)
                    np.testing.assert_array_equal(sol.multipliers, cold.multipliers)
    # the seeds reach every path: factored with and without bounds,
    # dual-infeasible rows dropped, cold fallback, Infeasible from a seed
    assert min(seen.values()) >= 30, seen


def test_optimal_working_set_as_seed_takes_no_step():
    model = build_risk_model(random_returns(np.random.default_rng(0), 30), RiskKind.SEMIVARIANCE)
    qp = QuadraticProgram(
        dmat=2.0 * regularize(model.sigma),
        dvec=np.zeros(30),
        a_eq=np.vstack([np.ones(30), model.mu]),
        b_eq=np.array([1.0, model.mu.min() + 0.45 * (model.mu.max() - model.mu.min())]),
        a_ineq=np.eye(30),
        b_ineq=np.zeros(30),
    )
    cold = solve_qp(qp)
    warm = solve_qp(qp, start=cold.active_set)
    assert warm.iterations == 0
    assert warm.active_set == cold.active_set
    np.testing.assert_allclose(warm.x, cold.x, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("start", [(-1,), (3,)])
def test_seed_outside_the_program_rejected(start):
    qp = simplex_qp(np.eye(2))
    with pytest.raises(ValueError, match="start"):
        solve_qp(qp, start=start)
