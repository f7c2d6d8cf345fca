"""Quadratic-program solver: oracles, KKT conditions, determinism."""

from __future__ import annotations

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

from portopt import qp as qp_module
from portopt.errors import Infeasible, NumericalBreakdown
from portopt.frontier import efficient_frontier
from portopt.market_data import ReturnsMatrix
from portopt.optimizers import regularize
from portopt.qp import QuadraticProgram, solve_qp
from portopt.risk_models import RiskKind, RiskModel, build_risk_model

from conftest import random_model, random_returns, scaled_kkt, simplex_grid

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

    @pytest.mark.parametrize("off", [1.0, 2.0], ids=["singular", "indefinite"])
    @pytest.mark.parametrize("start", [(), (1,), (0, 1)])
    def test_not_positive_definite_with_positive_definite_free_block(self, off, start):
        # the seeded bound on x1 leaves only D's block over x0 to factor,
        # and that block is positive definite; all of D is not
        qp = QuadraticProgram(
            dmat=np.array([[1.0, off], [off, 1.0]]),
            dvec=np.ones(2),
            a_ineq=np.eye(2),
            b_ineq=np.zeros(2),
        )
        with pytest.raises(NumericalBreakdown):
            solve_qp(qp, start=start)


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
    ("n", "seed", "frac", "iterations", "drops", "inactive"),
    [
        (30, 0, 0.45, 45, 31, (2, 3, 4, 5, 6, 9, 12, 14, 15, 17, 18, 19, 21, 24, 25, 27, 28, 29, 30)),
        (30, 1, 0.15, 58, 33, (2, 5, 6, 9, 12, 15, 17, 21, 25, 27)),
        (150, 0, 0.05, 222, 112, (19, 49, 107, 144)),
        (150, 2, 0.05, 225, 114, (7, 60, 66, 80, 89)),
    ],
)
def test_pinned_semivariance_working_set(n, seed, frac, iterations, drops, inactive, monkeypatch):
    # Drop-heavy paths: seeded with every bound, the equalities depend on
    # the seed and most bounds leave again, 31, 33, 112 and 114 drops.  The
    # cold solve, which guesses its set, ends on the same set.  Any change
    # to the working-set path moves these pins.
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
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    steps = {"_add": 0, "_drop": 0}

    def check(jt, nstar, q):
        # J2'DJ2 = I and N*DJ2 = 0 on the working set
        j2 = jt[q:].T
        close = dict(rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(j2.T @ qp.dmat @ j2, np.eye(n - q), **close)
        np.testing.assert_allclose(nstar[:q] @ qp.dmat @ j2, 0.0, **close)

    def checked(name, step, change):
        def wrapper(jt, nstar, q, *args):
            step(jt, nstar, q, *args)
            if jt.shape[1] == n:  # not _factor's adds on the free columns alone
                steps[name] += 1
                check(jt, nstar, q + change)

        monkeypatch.setattr(qp_module, name, wrapper)

    def factored(*args, factor=qp_module._factor):
        # a fresh factorization also has N'N*' = I
        q, active, u, jt, nstar, x = state = factor(*args)
        check(jt, nstar, q)
        np.testing.assert_allclose(a_all[active[:q]] @ nstar[:q].T, np.eye(q), rtol=0.0, atol=1e-10)
        return state

    checked("_add", qp_module._add, 1)
    checked("_drop", qp_module._drop, -1)
    monkeypatch.setattr(qp_module, "_factor", factored)
    cold = solve_qp(qp)
    steps.update(_add=0, _drop=0)
    sol = solve_qp(qp, start=range(2, n + 2))
    assert sol.iterations == iterations
    assert steps["_drop"] == drops
    assert sol.active_set == cold.active_set == tuple(sorted(set(range(n + 2)) - set(inactive)))
    np.testing.assert_array_equal(sol.x, cold.x)
    assert_kkt(qp, sol)


@pytest.mark.parametrize("seed", [504, 3868, 4768, 5647, 5897])
def test_zero_width_interval_is_not_infeasible(seed):
    # Each program writes an equality as two opposed inequalities.  Drift
    # leaves the working twin ~1e-11 on its side, so the other row reads
    # as violated, yet it depends on the working set and nothing can drop.
    # Which seeds hit that boundary, cold, from half the inequalities or
    # from all of them, moves with any change to the loop's arithmetic.
    gen = np.random.default_rng(seed)
    qp, x0, y = random_program(gen)
    assert feasible(qp, x0, y)
    rows = np.arange(qp.b_eq.shape[0], qp.b_eq.shape[0] + qp.b_ineq.shape[0])
    for start in ((), rows[gen.random(rows.size) < 0.5], rows):
        assert_kkt(qp, solve_qp(qp, start=start))


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


def test_factor_of_any_row_subset(monkeypatch):
    # _factor adds a set's general rows on its free columns alone; the
    # full-width state it returns must still have J2'DJ2 = I, N*DJ2 = 0 and
    # N'N*' = I, with one bound per variable first, in variable order.  A
    # repeated or opposed bound enters as a general row or is left out,
    # and every row left out depends on the factored ones.
    args = []  # of this solve's _factor calls

    def spy(*a, factor=qp_module._factor):
        args.append(a)
        return factor(*a)

    monkeypatch.setattr(qp_module, "_factor", spy)
    seen = {"general": 0, "left_out": 0, "repeats": 0}
    for seed in range(200):
        gen = np.random.default_rng(seed)
        program, x0, _ = random_program(gen)
        qp = with_bounds(program, x0, gen)
        args.clear()
        try:
            solve_qp(qp)
        except Infeasible:
            pass
        _, a_all, b_all, _, var, dnorm2, whole = args[0]
        n, m = qp.n, b_all.shape[0]
        for _ in range(3):
            rows = np.flatnonzero(gen.random(m) < gen.uniform(0.2, 1.0))
            q, active, _, jt, nstar, _ = qp_module._factor(qp, a_all, b_all, rows, var, dnorm2, whole)
            j2 = jt[q:].T
            close = dict(rtol=0.0, atol=1e-10)
            np.testing.assert_allclose(j2.T @ qp.dmat @ j2, np.eye(n - q), **close)
            np.testing.assert_allclose(nstar[:q] @ qp.dmat @ j2, 0.0, **close)
            np.testing.assert_allclose(a_all[active[:q]] @ nstar[:q].T, np.eye(q), **close)
            # one bound per variable first, in variable order, the first of its rows
            row_var = var[rows]
            bounded = np.unique(row_var[row_var >= 0])
            k = bounded.size
            np.testing.assert_array_equal(active[:k], [rows[row_var == v][0] for v in bounded])
            assert set(active[:q]) <= set(rows)
            seen["general"] += q - k
            seen["repeats"] += int((row_var >= 0).sum()) - k
            # a repeated bound is a general row: it entered after the bounds,
            # or it was left out, as every row left out, as dependent
            for p in np.setdiff1d(rows, active[:q]):
                seen["left_out"] += 1
                ztn = float(np.sum((jt[q:] @ a_all[p]) ** 2))
                scale = max(dnorm2[p], float((jt[q:] ** 2).sum() * (a_all[p] @ a_all[p])))
                assert ztn <= 1e-10 * max(scale, np.finfo(float).tiny)
    # the subsets reach general rows, repeated bounds and dependent rows
    assert min(seen.values()) >= 100, seen


def test_seeded_start_reaches_the_cold_optimum(monkeypatch):
    # Whatever the seed, Infeasible is raised exactly when the cold solve
    # raises it; otherwise KKT holds and x is the cold x, the same bits
    # when both end on the same working set.
    seen = {"settled": 0, "skipped": 0, "rows_dropped": 0, "bounds": 0, "infeasible": 0}
    log = []  # (name, args, result) of this solve's _factor and _point calls

    def spy(name):
        real = getattr(qp_module, name)

        def wrapper(*args):
            result = real(*args)
            log.append((name, args, result))
            return result

        monkeypatch.setattr(qp_module, name, wrapper)

    spy("_factor")
    spy("_point")

    def seeded_solve(qp, start):
        log.clear()
        try:
            sol = solve_qp(qp, start=start)
        finally:
            # a start that settled at once is factored nowhere; otherwise the
            # first _factor is the seed's (the guess's when the seed is
            # empty), and every other _point follows a seed drop
            factors = [(args, result) for name, args, result in log if name == "_factor"]
            if factors:
                (_, a_all, _, rows, *_), (q, active, *_) = factors[0]
                seen["skipped"] += q < rows.size
                seen["rows_dropped"] += len(log) > 2 * len(factors)
                seen["bounds"] += bool(((a_all[active[:q]] != 0.0).sum(axis=1) == 1).any())
        if not factors:
            seen["settled"] += 1
            assert sol.iterations == 0
            if start.size:  # the sorted seed, with the equalities
                assert sol.active_set == tuple(np.union1d(range(qp.b_eq.shape[0]), start).tolist())
        return sol

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
                        seeded_solve(qp, start)
                    seen["infeasible"] += start.size > 0
                    continue
                sol = seeded_solve(qp, start)
                assert_kkt(qp, sol)
                scale = max(1.0, float(np.abs(cold.x).max()))
                np.testing.assert_allclose(sol.x, cold.x, rtol=0.0, atol=1e-9 * scale)
                if sol.active_set == cold.active_set:
                    np.testing.assert_array_equal(sol.x, cold.x)
                    np.testing.assert_array_equal(sol.multipliers, cold.multipliers)
    # the seeds reach every path: the settled exit, a dependent row left
    # out, dual-infeasible rows dropped, bounds factored, Infeasible from a seed
    assert min(seen.values()) >= 30, seen


def pinned_semivariance_program(n: int = 30, frac: float = 0.45) -> QuadraticProgram:
    """A return pinned at ``frac`` of the mean range of a semivariance model."""
    model = build_risk_model(random_returns(np.random.default_rng(0), n), RiskKind.SEMIVARIANCE)
    return QuadraticProgram(
        dmat=2.0 * regularize(model.sigma),
        dvec=np.zeros(n),
        a_eq=np.vstack([np.ones(n), model.mu]),
        b_eq=np.array([1.0, model.mu.min() + frac * (model.mu.max() - model.mu.min())]),
        a_ineq=np.eye(n),
        b_ineq=np.zeros(n),
    )


def factor_calls(monkeypatch) -> list:
    """The working sets of every later _factor call."""
    factored = []

    def spy(*args, factor=qp_module._factor):
        factored.append(args[3])
        return factor(*args)

    monkeypatch.setattr(qp_module, "_factor", spy)
    return factored


def test_optimal_working_set_as_seed_takes_no_step(monkeypatch):
    # A seed that no drop and no add would change is the final working set:
    # it is settled and returned at once, with no factorization, and the
    # bits are the cold ones, which the cold solve settles on the same set.
    for frac in (0.05, 0.45, 0.95):
        qp = pinned_semivariance_program(frac=frac)
        cold = solve_qp(qp)
        factored = factor_calls(monkeypatch)
        warm = solve_qp(qp, start=cold.active_set)
        assert factored == []
        assert warm.iterations == 0
        assert warm.active_set == cold.active_set
        np.testing.assert_array_equal(warm.x, cold.x)
        np.testing.assert_array_equal(warm.multipliers, cold.multipliers)
        assert warm.objective == cold.objective
        monkeypatch.undo()


def test_seed_that_a_drop_or_an_add_changes_takes_the_full_path(monkeypatch):
    # A seed with a negative multiplier (a bound on a held asset) or with a
    # violated row (a binding bound released) is factored, dropped or added
    # to, and ends on the cold working set with the cold bits.
    qp = pinned_semivariance_program()
    cold = solve_qp(qp)
    held = np.flatnonzero(cold.x > 1e-3)
    binding = max(cold.active_set[2:], key=lambda row: cold.multipliers[row])
    seeds = {
        "negative multiplier": np.union1d(cold.active_set, 2 + held[:1]),
        "violated row": np.setdiff1d(cold.active_set, [binding]),
    }
    for name, start in seeds.items():
        factored = factor_calls(monkeypatch)
        warm = solve_qp(qp, start=start)
        assert len(factored) == 1 and np.array_equal(factored[0], start), name
        assert warm.active_set == cold.active_set, name
        np.testing.assert_array_equal(warm.x, cold.x)
        np.testing.assert_array_equal(warm.multipliers, cold.multipliers)
        assert_kkt(qp, warm)


@pytest.mark.parametrize("kind", list(RiskKind))
def test_dependent_general_rows_take_the_full_path(monkeypatch, kind):
    # Means equal up to rounding make the return row parallel to the budget
    # on every free set, and a duplicated return row depends on its twin:
    # _settle refuses the set, the factorization leaves the row out, and
    # the answer meets KKT.
    settles = []

    def spy(*args, settle=qp_module._settle):
        settles.append(settle(*args))
        return settles[-1]

    monkeypatch.setattr(qp_module, "_settle", spy)
    for seed in range(5):
        base = random_returns(np.random.default_rng(seed), 8, 250).values
        equal = build_risk_model(
            ReturnsMatrix(tuple("ABCDEFGH"), base - base.mean(axis=0) + 0.0011), kind=kind
        )
        model = build_risk_model(random_returns(np.random.default_rng(seed), 8, 250), kind=kind)
        target = float(model.mu.min() + 0.3 * (model.mu.max() - model.mu.min()))
        programs = [
            (equal, [equal.mu], [float(equal.mu.mean())]),
            (model, [model.mu, model.mu], [target, target]),
        ]
        for risk, rows, rhs in programs:
            qp = QuadraticProgram(
                dmat=2.0 * regularize(risk.sigma),
                dvec=np.zeros(8),
                a_eq=np.vstack([np.ones(8), *rows]),
                b_eq=np.array([1.0, *rhs]),
                a_ineq=np.eye(8),
                b_ineq=np.zeros(8),
            )
            for start in ((), np.arange(qp.b_eq.shape[0], qp.b_eq.shape[0] + 6)):
                settles.clear()
                factored = factor_calls(monkeypatch)
                sol = solve_qp(qp, start=start)
                assert settles[0] is None and len(factored) >= 1
                assert scaled_kkt(qp, sol) <= 1e-8


def test_more_than_two_general_rows_settle(monkeypatch):
    # Three equalities and a return floor, with bounds: the optimal set as
    # the seed settles at once with the cold bits.
    gen = np.random.default_rng(5)
    n = 12
    a = gen.normal(size=(40, n))
    mu = gen.normal(size=n)
    halves = np.r_[np.ones(n // 2), np.zeros(n - n // 2)]
    qp = QuadraticProgram(
        dmat=a.T @ a / 40.0,
        dvec=np.zeros(n),
        a_eq=np.vstack([np.ones(n), halves, gen.normal(size=n)]),
        b_eq=np.array([1.0, 0.6, 0.1]),
        a_ineq=np.vstack([mu, np.eye(n)]),
        b_ineq=np.r_[np.quantile(mu, 0.7), np.zeros(n)],
    )
    cold = solve_qp(qp)
    general = [row for row in cold.active_set if row < 4]
    assert general == [0, 1, 2, 3]
    factored = factor_calls(monkeypatch)
    warm = solve_qp(qp, start=cold.active_set)
    assert factored == [] and warm.iterations == 0
    np.testing.assert_array_equal(warm.x, cold.x)
    np.testing.assert_array_equal(warm.multipliers, cold.multipliers)
    assert_kkt(qp, warm)


@pytest.mark.parametrize("start", [(-1,), (3,)])
def test_seed_outside_the_program_rejected(start):
    qp = simplex_qp(np.eye(2))
    with pytest.raises(ValueError, match="start"):
        solve_qp(qp, start=start)


@pytest.mark.parametrize(
    ("upper", "lower", "symmetric"),
    [
        (np.nan, np.nan, False),
        (np.nan, 0.0, False),
        (np.inf, np.inf, True),
        (-np.inf, -np.inf, True),
        (np.inf, -np.inf, False),
        (np.inf, 0.0, False),
        (0.0, 1e-12, True),
        (0.0, -1e-12, True),
        (0.0, 1.0000001e-12, False),
        (0.5, 0.5 + 1e-12, True),
    ],
)
def test_symmetry_check_is_allclose(upper, lower, symmetric):
    # the elementwise checks give np.allclose's verdict on finite data; a
    # program with a NaN or an infinity is refused before the check
    dmat = np.array([[1.0, upper], [lower, 1.0]])
    assert np.allclose(dmat, dmat.T, rtol=0.0, atol=1e-12) == symmetric

    def accepted(build) -> bool:
        try:
            build()
        except ValueError as exc:
            assert "symmetric" in str(exc)
            return False
        return True

    if np.isfinite(dmat).all():
        assert accepted(lambda: QuadraticProgram(dmat=dmat, dvec=np.zeros(2))) == symmetric
        assert accepted(lambda: RiskModel(("A", "B"), np.zeros(2), dmat)) == symmetric
    else:
        with pytest.raises(ValueError, match="dmat must be finite"):
            QuadraticProgram(dmat=dmat, dvec=np.zeros(2))


@pytest.mark.parametrize(
    ("field", "entry", "value"),
    [("dmat", (0, 0), np.inf), ("dvec", (1,), np.nan), ("b_ineq", (0,), np.inf)],
)
def test_non_finite_program_data_rejected(field, entry, value):
    # refused when the program is built, so solve_qp never sees it
    data = dataclasses.asdict(simplex_qp(np.eye(2), np.ones(2)))
    data[field][entry] = value
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        QuadraticProgram(**data)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    ("dmat", "dvec", "a_eq"),
    [
        # x = [1e308, -1e308] meets no budget row: a'x overflows
        (np.eye(2), [1e308, -1e308], [[1.0, 1e308]]),
        # a minimum at +-1e600 on a 1e-300 diagonal: no finite step exists
        (1e-300 * np.eye(2), [1e300, -1e300], [[1.0, 1.0]]),
    ],
)
def test_non_finite_answer_raises(dmat, dvec, a_eq):
    # the final working set's settled point, the only answer the solver
    # returns, is not a finite point meeting every row (or no finite step
    # reaches a final set), so the solver raises instead of returning one
    n = len(dvec)
    qp = QuadraticProgram(dmat, np.array(dvec), np.array(a_eq), np.ones(1), np.eye(n), np.zeros(n))
    with pytest.raises(NumericalBreakdown):
        solve_qp(qp)


class TestKeptFactor:
    """The factor of the last quadratic term is kept for the next solve
    with an equal D, and never answers for another one."""

    @staticmethod
    def assert_same_bits(first, second):
        np.testing.assert_array_equal(first.x, second.x)
        np.testing.assert_array_equal(first.multipliers, second.multipliers)
        assert first.active_set == second.active_set
        assert first.iterations == second.iterations

    def test_mutated_dmat_is_factored_afresh(self, rng, monkeypatch):
        # the entry holds a copy of D: a caller that changes its own array
        # in place gets the answer for the new D
        a = rng.normal(size=(8, 5))
        dmat = a.T @ a / 8.0
        qp = simplex_qp(dmat, rng.normal(size=5))
        assert qp.dmat is dmat
        first = solve_qp(qp)
        dmat[:] = 4.0 * dmat + np.eye(5)
        again = solve_qp(qp)
        monkeypatch.setattr(qp_module, "_last_factor", None)
        self.assert_same_bits(again, solve_qp(qp))
        assert not np.array_equal(again.x, first.x)

    def test_signed_zero_is_another_matrix(self, monkeypatch):
        # an entry of -0.0 where the kept D has 0.0 can change the factor's
        # bits, so the factor is computed again
        monkeypatch.setattr(qp_module, "_last_factor", None)
        calls = []
        real = qp_module._inverse_cholesky
        monkeypatch.setattr(
            qp_module, "_inverse_cholesky", lambda dmat: calls.append(1) or real(dmat)
        )
        for off in (0.0, -0.0, -0.0):
            solve_qp(simplex_qp(np.array([[2.0, off], [off, 1.0]])))
        assert len(calls) == 2

    def test_not_positive_definite_is_never_kept(self, rng):
        a = rng.normal(size=(6, 3))
        good = simplex_qp(a.T @ a / 6.0, rng.normal(size=3))
        bad = simplex_qp(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        first = solve_qp(good)
        for _ in range(2):
            with pytest.raises(NumericalBreakdown):
                solve_qp(bad)
        np.testing.assert_array_equal(qp_module._last_factor[0], good.dmat)
        self.assert_same_bits(first, solve_qp(good))

    def test_threads_sharing_the_entry_get_their_own_answers(self, rng):
        # two programs with different D solved from more threads than cores,
        # switching often, so the entry can change between one thread's
        # check and its use of it
        programs = []
        for _ in range(2):
            a = rng.normal(size=(30, 12))
            programs.append(simplex_qp(a.T @ a / 30.0, rng.normal(size=12)))
        expected = [solve_qp(qp).x for qp in programs]
        wrong = []

        def work(offset):
            for i in range(40):
                k = (i + offset) % 2
                if not np.array_equal(solve_qp(programs[k]).x, expected[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_one_factor_of_the_risk_matrix_per_frontier(self, rng, monkeypatch):
        model = random_model(rng, 20)
        monkeypatch.setattr(qp_module, "_last_factor", None)
        shapes = []
        real = qp_module._inverse_cholesky
        monkeypatch.setattr(
            qp_module, "_inverse_cholesky", lambda dmat: shapes.append(dmat.shape) or real(dmat)
        )
        efficient_frontier(model, 8)
        # a working set's free block is smaller than D whenever it holds a
        # bound, and the whole factor stands in for it otherwise
        assert shapes.count((20, 20)) == 1
