"""Convex quadratic programming with linear constraints.

Solves

    minimize    0.5 * x' D x - d' x
    subject to  A_eq x  = b_eq
                A_ineq x >= b_ineq

with D symmetric positive definite (callers regularize borderline PSD
matrices first; see :mod:`portopt.optimizers`).  The method is the dual
active-set iteration of Goldfarb and Idnani (1983, Math. Programming
27): start from the unconstrained minimum (here, the minimum on a
guessed working set), repeatedly add the most violated constraint,
and take primal/dual steps until primal feasibility.  No feasible
starting point is needed and infeasibility is detected as an unbounded
dual step.

Every working set is solved on its free block.  With Z the bounded and F
the free variables of the set, the bounds (one per variable) fix x_Z;
one solve of D_FF against [d_F - D_FZ x_Z, A_gF'] gives x_F as a function
of the general rows' multipliers y, and their g x g Schur complement
A_gF D_FF^-1 A_gF' is factored row by row.  A general row whose pivot is
at most 1e-10 of its own diagonal entry a_F D_FF^-1 a_F' (not inflated by
a ridge-sized entry of D on a bounded variable), or that comes after f
kept rows, depends on the rows kept before it and is left out; the rows
kept are then settled alone.  One refinement step on the general rows
follows, and the bounds' multipliers are ((Dx - d)_Z - A_gZ'y) over
their coefficients, O(n f).  A vertex (as many general rows as free
variables) solves its rows as given, so the LU pivots as on them and
keeps the vertex's exact zeros.  The settled point depends only on the
program and the rows kept, so solves that end on one set share its bits.

A solve classifies each row once, as a bound (one nonzero) on its
variable or a general row, and divides each general row and its
right-hand side by the power of two that puts the row's largest |entry|
in [0.5, 1): exact, so no bit changes on finite data, and no product of
a row overflows.  Every pass reads the scaled rows; the choice of the
row to add and the final check read the rows as given, and the
multipliers returned are theirs.  Every solve guesses its working set by
block pivoting on the inequalities (Judice and Pires 1994, Computers &
OR 21), first holding the equalities and its seed's inequalities: rows
expected to be active, such as the bounds that a frontier point's
segment of the critical line holds (see :mod:`portopt.critical_line`),
or none for a cold start.  A round adds every violated inequality,
removes every held one whose multiplier is negative, and settles the new
set, up to the fixed point, which is the optimum, or up to a set that
leaves a row out.  Block pivoting can cycle, and only through rounds
that remove rows, so a removing round that changes no fewer rows than
the removing round before it is the last taken.  A guess whose
inequalities all have multipliers >= 0 and that leaves no other row
unmet (no inequality below -1e-11) is the optimum (no drop and no add
would change it): it is returned at once, with no loop step.

Otherwise the loop starts from the rows of the guess that its settle
kept, and from their settled point and multipliers.  A step towards
adding the row n+ solves the set's free block once more, with n+ in
place of d and zero right-hand sides: its solution z, with
Dz - n+ = A_W'y and A_W z = 0, is the primal direction and -y the dual
one (Goldfarb and Idnani's J2 J2'n+ and N* n+; a vertex has z = 0), and
costs one solve of D_FF and one of the g x g Schur complement,
O(f^3 + n f) for f free variables.  The guess's inequalities with u < 0
leave first, one at a time, most negative first: without row k, whose
multiplier is u_k, the minimizer is x - u_k z and the multipliers are
u - u_k y, with z and y those of n+ = a_k on the set without it.  The
add/drop loop then certifies the optimum.  n+ depends on the set when
n+'z is at most 1e-10 of n+_F D_FF^-1 n+_F', the pivot test that leaves
a general row out of a settled set, and can then only take the dual
step, a drop.  With nothing to drop it proves the program infeasible,
unless it has taken no dual step and misses its bound by float noise
(1e-8 of |b| + |a||x|), as one of two opposed inequalities can when
drift leaves its active twin ~1e-11 off: such a row is set aside until
the next drop, whether or not a row could drop.  The loop's x drifts
over many small steps, so the answer is always the final working set's
settled point, never the loop's own.  A final set whose settled point or
multipliers are not finite, miss a row by 1e-8 or hold an inequality
multiplier below -1e-8, is refused with :class:`NumericalBreakdown`.

One Cholesky factorization of the whole of D per distinct D checks that
D is positive definite; every free block, the whole of D for a set
without bounds, is solved by LU.  The last D that passed is kept, so a
sweep whose programs share their quadratic term checks it once.

Everything is plain deterministic linear algebra: the same program solved
twice, with the same BLAS build, CPU kernel and thread count, yields
bit-identical results.  Tie-breaks pick the lowest constraint index.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, MaxIterations, NumericalBreakdown

#: Absolute slack below which a constraint counts as violated when
#: selecting the next one to add.  Tighter than the 1e-8 feasibility
#: contract so float noise at the boundary never loops.
_ADD_TOL = 1e-11

#: Dual direction entries below this cannot block a step.
_DROP_TOL = 1e-12

#: Relative miss, against |b| + |a||x| as in the 1e-8 feasibility
#: contract, within which a dependent row that cannot enter counts as drift.
_DRIFT_TOL = 1e-8

_EMPTY = np.zeros((0,))

#: A read-only copy of the last quadratic term whose Cholesky factorization
#: passed (see :func:`_check_definite`).
_last_factor: np.ndarray | None = None


def _empty_matrix() -> np.ndarray:
    return np.zeros((0, 0))


@dataclass(frozen=True)
class QuadraticProgram:
    """Problem data in the 0.5 x'Dx - d'x form.

    ``dmat`` is the quadratic term, ``dvec`` the linear term; equality
    rows come before inequality rows in the solver's global constraint
    numbering.
    """

    dmat: np.ndarray
    dvec: np.ndarray
    a_eq: np.ndarray = field(default_factory=_empty_matrix)
    b_eq: np.ndarray = field(default_factory=lambda: _EMPTY)
    a_ineq: np.ndarray = field(default_factory=_empty_matrix)
    b_ineq: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        n = np.asarray(self.dvec).shape[0]
        dmat = np.asarray(self.dmat, dtype=float)
        if dmat.shape != (n, n):
            raise ValueError("dmat must be square and match dvec")
        a_eq = np.asarray(self.a_eq, dtype=float).reshape(-1, n)
        a_ineq = np.asarray(self.a_ineq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(self.b_eq, dtype=float).reshape(-1)
        b_ineq = np.asarray(self.b_ineq, dtype=float).reshape(-1)
        if a_eq.shape[0] != b_eq.shape[0] or a_ineq.shape[0] != b_ineq.shape[0]:
            raise ValueError("constraint rows do not match right-hand sides")
        object.__setattr__(self, "dmat", dmat)
        object.__setattr__(self, "dvec", np.asarray(self.dvec, dtype=float))
        object.__setattr__(self, "a_eq", a_eq)
        object.__setattr__(self, "b_eq", b_eq)
        object.__setattr__(self, "a_ineq", a_ineq)
        object.__setattr__(self, "b_ineq", b_ineq)
        for name in ("dmat", "dvec", "a_eq", "b_eq", "a_ineq", "b_ineq"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        # on finite data this is allclose(rtol=0, atol=1e-12)'s verdict,
        # taken only when the cheaper exact test fails
        if not ((dmat == dmat.T).all() or (np.abs(dmat - dmat.T) <= 1e-12).all()):
            raise ValueError("dmat is not symmetric within 1e-12")

    @property
    def n(self) -> int:
        return self.dvec.shape[0]


@dataclass(frozen=True)
class QpSolution:
    """Minimizer plus the working set that produced it.

    ``multipliers`` holds one Lagrange multiplier per global constraint
    (zero for inactive inequalities, sign-free for equalities).
    """

    x: np.ndarray
    objective: float
    active_set: tuple[int, ...]
    iterations: int
    multipliers: np.ndarray


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def solve_qp(qp: QuadraticProgram, start: Sequence[int] = ()) -> QpSolution:
    """Solve the program; see the module docstring for the method.

    ``start``, a 1-D sequence of integers (anything else raises
    :class:`ValueError`), names constraints in the global numbering of
    :attr:`QpSolution.active_set` expected to be active at the optimum, such
    as a neighbouring program's ``active_set``: its inequalities are the
    first set that block pivoting holds, with the equalities, and an empty
    seed is the cold start.  It changes the path to the optimum, not the
    optimum.  A guess that is already optimal is returned at once, with
    ``iterations`` 0 and the sorted rows of it that the free block keeps
    as ``active_set``.  x and the multipliers are settled on the final
    working set alone, so any two solves that end on the same set return
    the same bits.  D's Cholesky check runs once per distinct D: the last
    D that passed is kept, and a next solve whose D has its bits skips it.
    ``iterations`` counts the add/drop loop's steps; the pivot rounds and
    the drops that make a guess dual feasible are not among them.

    Raises :class:`Infeasible` when no point satisfies the constraints: a
    violated row depends on the working set, no working-set inequality can
    drop, and the row either has taken a dual step or misses its bound by
    more than 1e-8 of |b| + |a||x|.  Raises :class:`MaxIterations` past
    100*N working-set steps.  Raises :class:`NumericalBreakdown` when the
    quadratic term fails its Cholesky factorization (not positive
    definite), whatever block of it the working sets solve, and when the
    arithmetic overflows: no finite step exists, or the final working set's
    settled point or multipliers are not finite, miss a row by 1e-8 or hold
    an inequality multiplier below -1e-8.  Numpy's floating-point warnings
    are silenced inside the solve; these checks stand in for them.
    """
    n = qp.n
    meq = qp.b_eq.shape[0]
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    m = b_all.shape[0]
    is_eq = np.arange(m) < meq
    start = np.asarray(start)
    integers = start.dtype.kind in "iu" or start.size == 0
    if start.ndim != 1 or not integers or start.size and not 0 <= start.min() <= start.max() < m:
        raise ValueError("start must index the program's constraints")
    _check_definite(qp.dmat)
    # Each row classified once: a bound on one variable, var its index, or a
    # general row, var -1, divided with its right-hand side by 2^power
    nonzero = a_all != 0.0
    single = nonzero.sum(axis=1) == 1
    var = np.where(single, nonzero.argmax(axis=1), -1)
    general = np.flatnonzero(~single)
    power = np.zeros(m, dtype=int)
    power[general] = np.frexp(np.abs(a_all[general]).max(axis=1, initial=0.0))[1]
    a_all[general] = np.ldexp(a_all[general], -power[general, None])
    b_all = np.ldexp(b_all, -power)
    rows, x, multipliers = _guess(qp, a_all, b_all, meq, start.astype(int), var, power)
    iterations = 0
    # a guess whose settled point no drop and no add would change is the optimum
    if not _holds(a_all, b_all, power, is_eq, rows, x, multipliers, _ADD_TOL, 0.0):
        working, iterations = _loop(qp, a_all, b_all, rows, x, multipliers, var, power, is_eq)
        rows, x, multipliers = _settle(qp, a_all, b_all, np.sort(working), var, power)
        if not _holds(a_all, b_all, power, is_eq, rows, x, multipliers, 1e-8, 1e-8):
            raise NumericalBreakdown("the working set's minimizer is not a finite feasible point")
    objective = 0.5 * float(x @ qp.dmat @ x) - float(qp.dvec @ x)
    return QpSolution(x, objective, tuple(rows.tolist()), iterations, multipliers)


def _check_definite(dmat: np.ndarray) -> None:
    """Raise :class:`NumericalBreakdown` unless dmat has a Cholesky factor;
    skipped while ``dmat`` has the bits of the last matrix that passed
    (compared as integers, so -0.0 is not 0.0; the comparison costs ~8 us
    at n = 150, the factor ~0.2 ms)."""
    global _last_factor
    last = _last_factor  # read once: another thread may replace it
    if last is not None and np.array_equal(last.view(np.int64), dmat.view(np.int64)):
        return
    try:
        np.linalg.cholesky(dmat)
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("quadratic term is not positive definite") from None
    last = dmat.copy()
    last.setflags(write=False)
    _last_factor = last


def _guess(qp, a_all, b_all, meq, start, var, power):
    """The solve's guessed working set, as the rows of it that
    :func:`_settle` keeps, with its settled x and multipliers: the
    equalities with ``start``'s inequalities, improved by block pivoting on
    the inequality rows, which are over 2^``power`` as in :func:`_settle`.

    A round adds every violated inequality and removes every held one
    whose multiplier is negative, all at once, and settles the new set,
    up to the fixed point, where no round would change a row: the optimum,
    or up to a set of which the settle leaves a row out.  Block pivoting
    can cycle, and only through rounds that remove rows: a round that only
    adds rows grows the set.  So a removing round that changes no fewer
    rows than the removing round before it is the last taken, and the
    removing rounds' counts fall until then.  The guess need not be
    optimal, nor even consistent: the drops and the add/drop loop certify
    it.
    """
    eqs = np.arange(meq)
    rows = np.arange(meq, b_all.shape[0])
    held = np.zeros(rows.size, dtype=bool)
    held[start[start >= meq] - meq] = True
    # rows changed by the last round taken that removed rows, and whether
    # that round was the last to take
    removed, last = rows.size + 1, False
    while True:
        working = np.concatenate([eqs, rows[held]])
        settled = kept, x, multipliers = _settle(qp, a_all, b_all, working, var, power)
        if kept.size < working.size:  # a row depends on the rows kept before it
            return settled
        leave = held & (multipliers[rows] < 0.0)
        enter = ~held & (a_all[meq:] @ x - b_all[meq:] < -_ADD_TOL)
        changed = int(leave.sum() + enter.sum())
        if changed == 0 or last:
            return settled
        if leave.any():
            removed, last = changed, changed >= removed
        held = held & ~leave | enter


def _loop(qp, a_all, b_all, rows, x, multipliers, var, power, is_eq):
    """The final working set, unsorted, and the step count of Goldfarb and
    Idnani's dual iteration from the guessed set ``rows``, settled at x
    with ``multipliers``: its inequalities with u < 0 leave first, one at a
    time, and the add/drop loop follows, as the module docstring describes.
    Every step takes its directions from :func:`_direction`.

    The set is kept by position, the bounds in variable order and then the
    general rows, with an added row last; a drop takes the lowest position
    among tied ratios.  u holds the multipliers of the rows over 2^``power``,
    which the loop reads.
    """
    n, m = qp.n, b_all.shape[0]
    bound_rows, _, grows, _ = _split(rows, var, n)
    active = np.concatenate([bound_rows, grows])
    u = np.ldexp(multipliers[active], power[active])
    # guessed inequalities with u < 0 leave one at a time, most negative first
    while (dual := np.where(is_eq[active], 0.0, u)).min(initial=0.0) < 0.0:
        k = np.argmin(dual)
        rest = np.delete(active, k)
        # the minimizer without row k, x - u_k z, and its multipliers u - u_k y
        z, r, _, _ = _direction(qp, a_all, rest, var, a_all[active[k]])
        x, u, active = x - u[k] * z, np.delete(u, k) + u[k] * r[rest], rest
    # dependent rows violated by drift alone, left out until the next drop
    aside = np.zeros(m, dtype=bool)
    max_iter = 100 * max(n, 1)
    iterations = 0

    while True:
        # Most violated row as given outside the working set, lowest index first
        scaled = a_all @ x - b_all
        slack = np.ldexp(scaled, power)
        metric = np.where(is_eq, -np.abs(slack), slack)
        metric[active] = np.inf
        metric[aside] = np.inf
        p = int(np.argmin(metric)) if m else -1
        if p < 0 or metric[p] >= -_ADD_TOL:
            return active, iterations

        sign = -1.0 if (is_eq[p] and slack[p] > 0.0) else 1.0
        nplus = sign * a_all[p]
        s_p = sign * scaled[p]  # negative while violated
        u_plus = 0.0

        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} working-set steps")

            z, r, ztn, independent = _direction(qp, a_all, active, var, nplus)
            r = r[active]
            # Blocking constraint for the dual variables (equalities never
            # drop); argmin keeps the lowest position among ties.
            droppable = np.flatnonzero(~is_eq[active] & (r > _DROP_TOL))
            ratios = u[droppable] / r[droppable]
            t1 = ratios.min(initial=np.inf)
            t2 = -s_p / ztn if independent else np.inf

            if not independent:
                # a dependent row: drift, a drop, or infeasibility
                scale = abs(b_all[p]) + np.linalg.norm(a_all[p]) * np.linalg.norm(x)
                if u_plus == 0.0 and -s_p <= _DRIFT_TOL * scale:
                    aside[p] = True
                    break
                if t1 == np.inf:
                    raise Infeasible("constraints admit no feasible point")

            step = min(t1, t2)
            if not step < np.inf:  # overflow: no finite step exists
                raise NumericalBreakdown("the working-set step is not finite")
            if independent:
                x = x + step * z
                s_p = float(nplus @ x) - sign * b_all[p]
            u = u - step * r
            u_plus += step

            if independent and step == t2:
                active, u = np.append(active, p), np.append(u, u_plus)
                break
            # Partial or pure dual step: drop the blocking constraint.
            k = droppable[np.argmin(ratios)]
            active, u = np.delete(active, k), np.delete(u, k)
            aside[:] = False


def _split(rows, var, n):
    """The working set ``rows`` as its bounds, one per variable in variable
    order (the first row of each), their variables, its general rows (a
    repeated bound among them) in the order given, and the free variables."""
    row_var = var[rows]
    general = row_var < 0
    bound = np.flatnonzero(~general)
    zvars = row_var[bound]
    if (zvars[1:] <= zvars[:-1]).any():  # a repeated bound, or bounds out of variable order
        zvars, first = np.unique(zvars, return_index=True)
        general[bound] = True
        bound = bound[first]
        general[bound] = False
    free = np.ones(n, dtype=bool)
    free[zvars] = False
    return rows[bound], zvars, rows[general], np.flatnonzero(free)


def _settle(qp, a_all, b_all, rows, var, power):
    """The rows of the sorted working set ``rows`` that its free block
    keeps, and x and the multipliers (one per global row, of the rows as
    given) settled on them as the module docstring describes.  ``a_all``
    and ``b_all`` hold each row over 2^``power``.  The set is split by
    :func:`_split`.
    """
    n = qp.n
    bound_rows, zvars, grows, fvars = _split(rows, var, n)
    coef = a_all[bound_rows, zvars]
    f = fvars.size
    x = np.zeros(n)
    x[zvars] = b_all[bound_rows] / coef
    off = zvars[x[zvars] != 0.0]  # bounded variables held away from zero
    a_g = a_all[grows]
    a_gf = a_g[:, fvars]
    dmat_f = qp.dmat[fvars]
    dmat_ff = dmat_f[:, fvars]
    rhs = np.empty((f, grows.size + 1))
    rhs[:, 0] = d_f = qp.dvec[fvars] - dmat_f[:, off] @ x[off]
    rhs[:, 1:] = a_gf.T
    solved = np.linalg.solve(dmat_ff, rhs)
    x0, w = solved[:, 0], solved[:, 1:]
    # S = LL' row by row, in Python floats (g is the budget and return rows),
    # on the rows kept: row i is left out when its pivot is at most 1e-10 of
    # its diagonal entry before elimination, or when f rows are kept before it
    low, kept = [], []
    for i, row in enumerate((a_gf @ w).tolist()):
        if len(kept) == f:
            break
        line = []
        for j, k in enumerate(kept):
            line.append((row[k] - sum(line[t] * low[j][t] for t in range(j))) / low[j][j])
        entry = row[i] - sum(v * v for v in line)
        if entry > 1e-10 * max(row[i], np.finfo(float).tiny):
            low.append([*line, math.sqrt(entry)])
            kept.append(i)
    if len(kept) < grows.size:  # settled on the kept rows alone, so they alone set the bits
        rows = np.setdiff1d(rows, np.delete(grows, kept))
        return _settle(qp, a_all, b_all, rows, var, power)
    b_g = b_all[grows] - a_g[:, off] @ x[off]
    if f == grows.size:
        # the rows as given, so the LU pivots as on them (a vertex keeps its zeros)
        x_f = np.linalg.solve(np.ldexp(a_gf, power[grows, None]), np.ldexp(b_g, power[grows]))
        y = np.linalg.solve(a_gf.T, dmat_ff @ x_f - d_f)
    else:
        y = _cholesky_solve(low, b_g - a_gf @ x0)
        x_f = x0 + w @ y
        step = _cholesky_solve(low, b_g - a_gf @ x_f)
        x_f += w @ step
        y += step
    x[fvars] = x_f
    multipliers = np.zeros(b_all.shape[0])
    # Dx - d with D_ZF read as D_FZ', as the solver takes D to be symmetric
    gradient = x_f @ dmat_f + x[off] @ qp.dmat[off] - qp.dvec
    multipliers[bound_rows] = (gradient[zvars] - y @ a_g[:, zvars]) / coef
    multipliers[grows] = np.ldexp(y, -power[grows])  # of the rows as given
    return rows, x, multipliers


def _direction(qp, a_all, rows, var, nplus):
    """The loop's step towards adding n+ to the working set ``rows``, whose
    rows are independent: :func:`_settle`'s free-block solve with n+ in
    place of d and zero right-hand sides, the Schur complement solved by LU.
    Returns z, with Dz - n+ = A_W'y and A_W z = 0 (0 at a vertex), the dual
    direction -y per global row (0 off the set), n+'z, and whether n+ is
    independent of the set: n+'z exceeds 1e-10 of n+_F D_FF^-1 n+_F'."""
    bound_rows, zvars, grows, fvars = _split(rows, var, qp.n)
    a_g = a_all[grows]
    a_gf = a_g[:, fvars]
    dmat_f = qp.dmat[fvars]
    rhs = np.column_stack([nplus[fvars], a_gf.T])
    solved = np.linalg.solve(dmat_f[:, fvars], rhs)
    v, w = solved[:, 0], solved[:, 1:]
    y = -np.linalg.solve(a_gf @ w, a_gf @ v)
    z = np.zeros(qp.n)
    if grows.size < fvars.size:
        z[fvars] = v + w @ y
    r = np.zeros(var.size)
    r[grows] = -y
    # the bounds' rows of Dz - n+ = A_W'y
    gradient = z[fvars] @ dmat_f - nplus
    r[bound_rows] = (y @ a_g[:, zvars] - gradient[zvars]) / a_all[bound_rows, zvars]
    ztn = float(nplus @ z)
    return z, r, ztn, ztn > 1e-10 * max(float(nplus[fvars] @ v), np.finfo(float).tiny)


def _cholesky_solve(low, v):
    """y with LL'y = v, L a small lower triangle as lists, by substitution."""
    y = v.tolist()
    g = len(y)
    for i in range(g):
        y[i] = (y[i] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i]
    for i in reversed(range(g)):
        y[i] = (y[i] - sum(low[k][i] * y[k] for k in range(i + 1, g))) / low[i][i]
    return np.array(y)


def _holds(a_all, b_all, power, is_eq, rows, x, multipliers, slack_tol, dual_tol) -> bool:
    """Whether x and the multipliers are finite, x meets the working set
    ``rows`` within 1e-8, no other equality misses by 1e-8, no other
    inequality is below -``slack_tol`` and no inequality multiplier is
    below -``dual_tol``, on the rows as given: ``a_all`` and ``b_all`` hold
    them over 2^``power``."""
    if not (np.isfinite(x).all() and np.isfinite(multipliers).all()):
        return False
    slack = np.ldexp(a_all @ x - b_all, power)
    out = np.ones(b_all.shape[0], dtype=bool)
    out[rows] = False
    return bool(
        (np.abs(slack[rows]) <= 1e-8).all()
        and (np.abs(slack[out & is_eq]) <= 1e-8).all()
        and (slack[out & ~is_eq] >= -slack_tol).all()
        and (multipliers[~is_eq] >= -dual_tol).all()
    )
