"""Convex quadratic programming with linear constraints.

Solves

    minimize    0.5 * x' D x - d' x
    subject to  A_eq x  = b_eq
                A_ineq x >= b_ineq

with D symmetric positive definite (callers regularize borderline PSD
matrices first; see :mod:`portopt.optimizers`).  The method is the dual
active-set iteration of Goldfarb and Idnani (1983, Math. Programming
27): start from the unconstrained minimum (here, the minimum on a seeded
or guessed working set), repeatedly add the most violated constraint,
and take primal/dual steps until primal feasibility.  No feasible
starting point is needed and infeasibility is detected as an unbounded
dual step.

The working set's q normals N are carried as two factors (G = N'D^-1 N):
J2, n - q columns with J2'DJ2 = I and N'J2 = 0 that span the directions
leaving every working-set constraint unchanged (stored transposed, as the
last rows of an n x n array), and N* = G^-1 N'D^-1, one row per
working-set constraint, with N'N*' = I and N*DJ2 = 0.  For a candidate
normal n+ with d2 = J2'n+, the primal step direction is z = J2 d2 and the
dual one r = N* n+.  Adding n+ reflects J2 so that its first column,
along z, leaves it, and updates N* by rank 1.  Dropping position k reads
g = N*DN*'[:, k], column k of G^-1: row k of N* over sqrt(g_k) is the
direction J2 gains, and the row-deletion formula removes it from N*.  A
step costs O(n^2) instead of re-solving G; Goldfarb and Idnani's J1 and
triangle R are not needed.

A constraint that depends on the working set has d2 = 0 (|d2|^2 at most
1e-10 of both n+'D^-1 n+ and |J2|^2 |n+|^2) and can only take the dual
step, a drop.  With nothing to drop it proves the program infeasible,
unless it has taken no dual step and misses its bound by float noise
(1e-8 of |b| + |a||x|), as one of two opposed inequalities can when
drift leaves its active twin ~1e-11 off: then it is set aside until the
next drop.

Every answer is settled from the free block alone.  With Z the bounded
and F the free variables of a sorted working set, the bounds (one per
variable) fix x_Z; one solve of D_FF against [d_F - D_FZ x_Z, A_gF'] gives
x_F as a function of the general rows' multipliers y, and their g x g
Schur complement A_gF D_FF^-1 A_gF' is factored row by row, each row over
the power of two that puts its largest |entry| in [0.5, 1) (exact, and
no overflow).  A pivot at most 1e-10 of its row's own diagonal entry
a_F D_FF^-1 a_F' (never above n+'D^-1 n+, and not inflated by a
ridge-sized entry of D on a bounded variable) hands the set back
unsettled.  One refinement step on the general rows follows, and the
bounds' multipliers are ((Dx - d)_Z - A_gZ'y) over their coefficients,
O(n f).  With as many general rows as free variables (a vertex) the rows
are solved directly, so the vertex keeps its exact zeros.  The settled
point depends only on the program and the set, so any two solves that
end on one set return the same bits.

A solve classifies each row once, as a bound (one nonzero) on its
variable or a general row, and every pass reads that.  A seed of rows
expected to be active (such as the bounds that a frontier point's segment
of the critical line holds, see :mod:`portopt.critical_line`) is
settled with the equalities first.  With none seeded, the cold start
guesses its working set by block pivoting on the bounds (Judice and
Pires 1994, Computers & OR 21): from the minimizer on the equalities, a
round adds every violated bound, removes every held bound whose
multiplier is negative, and settles the new set.  Another round is taken
only while it changes fewer rows than the last one and more than the
add/drop steps it costs, counted from the rows changed, the free
variables and n.  A seed or guess whose inequalities all have
multipliers >= 0 and that leaves no other inequality below -1e-11 is the
optimum (no drop and no add would change it): it is returned at once,
with no factorization and no step.

Otherwise one pass builds the factors of the seed or guess.  Bounds need
no reflection: with D_FF = CC', J2 is C^-1 in the free columns, and N*'s
bound rows are [-D_ZF D_FF^-1, I] over their bounds' coefficients, so a
set with k bounds and f = n - k free variables costs O(f^3 + k f^2).  The
general rows, the equalities among them, and a second bound on a
variable are appended by the add step on the free columns alone,
O(n f) each: J2 and their rows of N* are zero on the bound columns, where
the bound rows of N* do not change.  A row that depends on the rows
before it is left out.  From the factors, x = J2 J2'd + N*'b is the
minimizer on the set and u = N*(Dx - d) its multipliers.  One Cholesky
factorization of the whole of D per distinct D checks that D is positive
definite; a set without bounds, such as the equalities a cold start
begins from, takes it as its own, and the factors and the loop read the
dependence test's first scale n+'D^-1 n+ from it.  The factor of the
last D solved is kept, so a sweep whose programs share their quadratic
term factors it once.  Seeded or guessed inequalities with
u < 0 leave one at a time, most negative first, by the drop step, x and
u read from the factors after each, until the set is dual feasible; the
add/drop loop above then runs unchanged and certifies the optimum.  The
start changes the path, not the optimum, which is unique.  The loop's x
drifts over many small steps, so the answer is always the final working
set's settled point, never the loop's own.  A final set that does not
settle, or whose settled point or multipliers are not finite, miss a
row by 1e-8 or hold an inequality multiplier below -1e-8, is refused
with :class:`NumericalBreakdown`.

Everything is plain deterministic linear algebra: the same program solved
twice, with the same BLAS build, CPU kernel and thread count, yields
bit-identical results.  Tie-breaks pick the lowest constraint index.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
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

#: The last quadratic term factored, read-only: a copy of D, L^-1 of its
#: Cholesky factor and L^-1's squared column norms (see :func:`_whole_factor`).
_last_factor: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None


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
def solve_qp(qp: QuadraticProgram, start: Iterable[int] = ()) -> QpSolution:
    """Solve the program; see the module docstring for the method.

    ``start`` names constraints, in the global numbering of
    :attr:`QpSolution.active_set`, expected to be active at the optimum:
    its inequality rows enter the working set with the equalities before
    the first step (a neighbouring program's ``active_set`` will do).  It
    changes the path to the optimum, not the optimum; an empty seed is the
    cold start, which guesses its working set by block pivoting on the
    bounds.  A seed or guess that is already optimal is returned at once,
    with ``iterations`` 0 and the sorted seed (with the equalities) as
    ``active_set``.  x and the multipliers are settled on the final working
    set alone, so any two solves that end on the same set return the same
    bits.  The Cholesky factor of the whole of D is computed once per
    distinct D: the last one is kept and reused while the next solve's D
    has the same bits, so a reused factor has the bits of a fresh one.
    ``iterations`` counts the add/drop loop's steps; the pivot rounds and
    the drops that make a seed or guess dual feasible are not among them.

    Raises :class:`Infeasible` when no point satisfies the constraints: a
    violated row depends on the working set, no working-set inequality can
    drop, and the row either has taken a dual step or misses its bound by
    more than 1e-8 of |b| + |a||x|.  Raises :class:`MaxIterations` past
    100*N working-set steps.  Raises :class:`NumericalBreakdown` when the
    quadratic term fails its Cholesky factorization (not positive
    definite), whatever block of it the working sets factor, and when the
    arithmetic overflows: no finite step exists, or the final working set
    does not settle, or its settled point or multipliers are not finite,
    miss a row by 1e-8 or hold an inequality multiplier below -1e-8.
    Numpy's floating-point warnings are silenced inside the solve; these
    checks stand in for them.
    """
    n = qp.n
    meq = qp.b_eq.shape[0]
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    m = b_all.shape[0]
    is_eq = np.arange(m) < meq

    # The working set, one position per active constraint in insertion
    # order: its global index, its multiplier (of the row as added: an
    # equality may enter flipped) and its row of N*; jt[q:] holds J2' (jt[:q]
    # goes stale after a drop and is never read).  At most min(n, m)
    # positions are ever used: an add needs d2 != 0, so q < n, and a seed
    # holds at most n independent rows.
    start = np.unique(np.asarray(start, dtype=int))
    if start.size and (start[0] < 0 or start[-1] >= m):
        raise ValueError("start must index the program's constraints")
    # D's own Cholesky: the positive-definiteness check, and the factor of
    # a set without bounds
    whole, column_norms = _whole_factor(qp.dmat)
    # Each row classified once: a bound on one variable, var its index, or
    # a general row, var -1
    nonzero = a_all != 0.0
    single = nonzero.sum(axis=1) == 1
    var = np.where(single, nonzero.argmax(axis=1), -1)
    seeded = start[start >= meq]
    if seeded.size:
        rows = np.concatenate([np.arange(meq), seeded])
        settled = _settle(qp, a_all, b_all, rows, var, whole)
    else:
        rows, settled = _guess(qp, a_all, b_all, meq, var, whole)
    # a start whose settled point no drop and no add would change is the optimum
    if settled is not None and _holds(a_all, b_all, is_eq, rows, *settled, _ADD_TOL, 0.0):
        return _solution(qp, *settled, rows, 0)
    # a'D^-1 a = |L^-1 a|^2 of every row, the dependence test's first scale
    # (column norms of L^-1 for a bound, a product otherwise)
    dnorm2 = np.empty(m)
    dnorm2[single] = a_all[single, var[single]] ** 2 * column_norms[var[single]]
    dnorm2[~single] = ((whole @ a_all[~single].T) ** 2).sum(axis=0)
    q, active, u, jt, nstar, x = _factor(qp, a_all, b_all, rows, var, dnorm2, whole)
    # seeded or guessed inequalities with u < 0 leave one at a time, most
    # negative first
    while (dual := np.where(is_eq[active[:q]], 0.0, u[:q])).min(initial=0.0) < 0.0:
        k = int(np.argmin(dual))
        _drop(jt, nstar, q, k, qp.dmat)
        active[k : q - 1] = active[k + 1 : q]
        q -= 1
        x, u[:q] = _point(qp, b_all, q, active, jt, nstar)
    # dependent rows violated by drift alone, left out until the next drop
    aside = np.zeros(m, dtype=bool)

    max_iter = 100 * max(n, 1)
    iterations = 0

    while True:
        # Most violated constraint outside the working set, lowest index first.
        slack = a_all @ x - b_all
        metric = np.where(is_eq, -np.abs(slack), slack)
        metric[active[:q]] = np.inf
        metric[aside] = np.inf
        p = int(np.argmin(metric)) if m else -1
        if p < 0 or metric[p] >= -_ADD_TOL:
            break

        sign = -1.0 if (p < meq and slack[p] > 0.0) else 1.0
        nplus = sign * a_all[p]
        s_p = sign * slack[p]  # negative while violated
        u_plus = 0.0

        while True:
            iterations += 1
            if iterations > max_iter:
                raise MaxIterations(f"no convergence within {max_iter} working-set steps")

            d2 = jt[q:] @ nplus
            z = d2 @ jt[q:]  # primal direction J2 d2
            r = nstar[:q] @ nplus  # dual direction N* n+
            ztn = float(d2 @ d2)
            full_step_possible = _independent(ztn, dnorm2[p], jt[q:], nplus)

            # Blocking constraint for the dual variables (equalities never
            # drop); argmin keeps the lowest position among ties.
            droppable = np.flatnonzero(~is_eq[active[:q]] & (r > _DROP_TOL))
            ratios = u[droppable] / r[droppable]
            t1 = ratios.min(initial=np.inf)
            t2 = -s_p / ztn if full_step_possible else np.inf

            if not full_step_possible and t1 == np.inf:
                # a dependent row with nothing to drop: drift or infeasibility
                scale = abs(b_all[p]) + np.linalg.norm(a_all[p]) * np.linalg.norm(x)
                if u_plus == 0.0 and -s_p <= _DRIFT_TOL * scale:
                    aside[p] = True
                    break
                raise Infeasible("constraints admit no feasible point")

            step = min(t1, t2)
            if not step < np.inf:  # overflow: no finite step exists
                raise NumericalBreakdown("the working-set step is not finite")
            if full_step_possible:
                x = x + step * z
                s_p = float(nplus @ x) - sign * b_all[p]
            u[:q] -= step * r
            u_plus += step

            if full_step_possible and step == t2:
                _add(jt, nstar, q, d2, z, r, ztn)
                active[q], u[q] = p, u_plus
                q += 1
                break
            # Partial or pure dual step: drop the blocking constraint.
            k = int(droppable[np.argmin(ratios)])
            _drop(jt, nstar, q, k, qp.dmat)
            for v in (active, u):
                v[k : q - 1] = v[k + 1 : q]
            q -= 1
            aside[:] = False

    working = np.sort(active[:q])
    settled = _settle(qp, a_all, b_all, working, var, whole)
    if settled is None or not _holds(a_all, b_all, is_eq, working, *settled, 1e-8, 1e-8):
        raise NumericalBreakdown("the working set's minimizer is not a finite feasible point")
    return _solution(qp, *settled, working, iterations)


def _solution(qp, x, multipliers, working, iterations) -> QpSolution:
    objective = 0.5 * float(x @ qp.dmat @ x) - float(qp.dvec @ x)
    return QpSolution(
        x=x,
        objective=objective,
        active_set=tuple(working.tolist()),
        iterations=iterations,
        multipliers=multipliers,
    )


def _lower_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix by 2x2 blocks.

    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]]: two matrix
    products per level instead of an LU solve against the identity,
    about 5x faster at n = 500 with one BLAS thread.  A base block is
    inverted through its transpose: the LU of an upper triangle never
    pivots, so the inverse is exactly zero above the diagonal (the lower
    triangle's own LU can pivot and leave ~1e-14 there).
    """
    n = low.shape[0]
    if n <= 64:
        return np.linalg.inv(low.T).T
    h = n // 2
    top, bottom = _lower_inverse(low[:h, :h]), _lower_inverse(low[h:, h:])
    inv = np.zeros_like(low)
    inv[:h, :h] = top
    inv[h:, h:] = bottom
    inv[h:, :h] = -bottom @ (low[h:, :h] @ top)
    return inv


def _inverse_cholesky(dmat: np.ndarray) -> np.ndarray:
    """L^-1 for dmat = LL'; raises :class:`NumericalBreakdown` when dmat
    is not positive definite."""
    try:
        return _lower_inverse(np.linalg.cholesky(dmat))
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("quadratic term is not positive definite") from None


def _whole_factor(dmat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L^-1 for dmat = LL' and L^-1's squared column norms, reused from the
    last call while ``dmat`` has that call's bits (compared as integers, so
    -0.0 is not 0.0; the check costs ~8 us at n = 150, the factor ~0.3 ms)."""
    global _last_factor
    last = _last_factor  # read once: another thread may replace it
    if last is not None and np.array_equal(last[0].view(np.int64), dmat.view(np.int64)):
        return last[1], last[2]
    whole = _inverse_cholesky(dmat)
    last = (dmat.copy(), whole, (whole * whole).sum(axis=0))
    for array in last:
        array.setflags(write=False)
    _last_factor = last
    return last[1], last[2]


def _factor(qp, a_all, b_all, rows, var, dnorm2, whole):
    """The solver's state with working set ``rows``, factored in one pass
    as the module docstring describes; a row that depends on the rows
    factored before it is left out.  ``rows`` is sorted and split by
    :func:`_split`, and the general rows are added in that order.  ``var``
    is each row's variable when it is a bound and -1 otherwise, ``dnorm2``
    the dependence test's first scale per row, and ``whole`` L^-1 of D's
    own Cholesky, which a set without bounds takes as its free block's."""
    n = qp.n
    cap = min(n, var.size)
    bound_rows, zvars, grows, fvars = _split(rows, var, n)
    coef = a_all[bound_rows, zvars]
    k = zvars.size

    # The factors on the free columns alone: J2' = C^-1 (D_FF = CC') and
    # N*'s rows there; J2 and the general rows' N* are zero on the bound
    # columns, where each bound row of N* holds 1 over its coefficient.
    dmat_free = qp.dmat[fvars]
    jt_free = _inverse_cholesky(dmat_free[:, fvars]) if k else whole.copy()
    nstar_free = np.zeros((cap, fvars.size))
    # N*'s bound rows: [-D_ZF D_FF^-1, I] over the bounds' coefficients,
    # D_ZF read as D_FZ', as the solver takes D to be symmetric
    nstar_free[:k] = -((dmat_free[:, zvars].T @ jt_free.T) @ jt_free) / coef[:, None]
    active = np.zeros(cap, dtype=int)
    active[:k] = bound_rows
    q = k
    for p in grows:
        row = a_all[p]
        d2 = jt_free[q - k :] @ row[fvars]
        ztn = float(d2 @ d2)
        if not _independent(ztn, dnorm2[p], jt_free[q - k :], row):
            continue
        r = nstar_free[:q] @ row[fvars]
        r[:k] += row[zvars] / coef
        _add(jt_free, nstar_free, q, d2, d2 @ jt_free[q - k :], r, ztn)
        active[q] = p
        q += 1

    # jt[:k] is never read
    jt = np.zeros((n, n))
    jt[k:, fvars] = jt_free
    nstar = np.zeros((cap, n))
    nstar[:q, fvars] = nstar_free[:q]
    nstar[np.arange(k), zvars] = 1.0 / coef
    u = np.zeros(cap)
    x, u[:q] = _point(qp, b_all, q, active, jt, nstar)
    return q, active, u, jt, nstar, x


def _guess(qp, a_all, b_all, meq, var, whole):
    """The cold start's working set and its settled point (None when a
    general row fails :func:`_settle`'s dependence test): the equalities,
    improved by block pivoting on the inequality rows with one nonzero
    (``var`` >= 0).

    A round adds every violated bound and removes every held bound whose
    multiplier is negative, all at once, and settles the new set.  Another
    round is taken only while it changes fewer rows than the one before
    (block pivoting can cycle) and more rows than the round costs in
    add/drop steps, each changed row saving at least one.  A step costs
    O(n^2).  A round costs about four steps of numpy calls and array
    passes, plus work on the free block of f^2 n multiply-adds at most,
    which run about 16 times faster per element than a step's rank-1
    updates (one BLAS thread, n = 30 to 500).  The guess need not be
    optimal, nor even consistent: the seed drops and the add/drop loop
    certify it.
    """
    n = qp.n
    eqs = np.arange(meq)
    rows = meq + np.flatnonzero(var[meq:] >= 0)
    row_var = var[rows]
    coef = a_all[rows, row_var]
    held = np.zeros(rows.size, dtype=bool)
    last = rows.size + 1
    while True:
        working = np.concatenate([eqs, rows[held]])
        settled = _settle(qp, a_all, b_all, working, var, whole)
        if settled is None:
            return working, None
        x, multipliers = settled
        leave = held & (multipliers[rows] < 0.0)
        enter = ~held & (coef * x[row_var] - b_all[rows] < -_ADD_TOL)
        changed = int(leave.sum() + enter.sum())
        f = n - np.unique(row_var[held & ~leave | enter]).size
        if changed >= last or 16 * n * (changed - 4) <= f * f:
            return working, settled
        last = changed
        held = held & ~leave | enter


def _split(rows, var, n):
    """The sorted working set ``rows`` as its bounds, one per variable in
    variable order (the first row of each), their variables, its general
    rows (a repeated bound among them) and the free variables."""
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


def _settle(qp, a_all, b_all, rows, var, whole):
    """x and the multipliers (one per global row) on the sorted working set
    ``rows``, settled from the free block as the module docstring
    describes, or None when a general row depends on the rows before it:
    Schur pivot i is at most 1e-10 of that row's Schur diagonal entry
    before elimination.  The set is split by :func:`_split`.
    """
    n = qp.n
    bound_rows, zvars, grows, fvars = _split(rows, var, n)
    coef = a_all[bound_rows, zvars]
    f, g = fvars.size, grows.size
    if g > f:
        return None
    x = np.zeros(n)
    x[zvars] = b_all[bound_rows] / coef
    off = zvars[x[zvars] != 0.0]  # bounded variables held away from zero
    a_g = a_all[grows]
    a_gf = a_g[:, fvars]
    # each general row over a power of two, its largest |entry| in [0.5, 1):
    # exact, and the Schur complement cannot overflow
    power = np.frexp(np.abs(a_g).max(axis=1, initial=0.0))[1]
    scaled = np.ldexp(a_gf, -power[:, None])
    dmat_f = qp.dmat[fvars]
    dmat_ff = dmat_f[:, fvars]
    rhs = np.empty((f, g + 1))
    rhs[:, 0] = d_f = qp.dvec[fvars] - dmat_f[:, off] @ x[off]
    rhs[:, 1:] = scaled.T
    # a set without bounds takes D's own factor, as in _factor
    solved = np.linalg.solve(dmat_ff, rhs) if zvars.size else whole.T @ (whole @ rhs)
    x0, w = solved[:, 0], solved[:, 1:]
    # S = LL' row by row, in Python floats: g is the budget and return rows
    schur = (scaled @ w).tolist()
    low = [[0.0] * g for _ in range(g)]
    for i in range(g):
        for j in range(i + 1):
            entry = schur[i][j] - sum(low[i][k] * low[j][k] for k in range(j))
            if j < i:
                low[i][j] = entry / low[j][j]
            elif entry > 1e-10 * max(schur[i][i], np.finfo(float).tiny):
                low[i][i] = math.sqrt(entry)
            else:
                return None
    b_g = b_all[grows] - a_g[:, off] @ x[off]
    if f == g:
        x_f = np.linalg.solve(a_gf, b_g)
        y = np.linalg.solve(a_gf.T, dmat_ff @ x_f - d_f)
    else:
        b_g = np.ldexp(b_g, -power)
        y = _cholesky_solve(low, b_g - scaled @ x0)
        x_f = x0 + w @ y
        step = _cholesky_solve(low, b_g - scaled @ x_f)
        x_f += w @ step
        y = np.ldexp(y + step, -power)
    x[fvars] = x_f
    multipliers = np.zeros(b_all.shape[0])
    multipliers[grows] = y
    # Dx - d with D_ZF read as D_FZ', as the solver takes D to be symmetric
    gradient = x_f @ dmat_f + x[off] @ qp.dmat[off] - qp.dvec
    multipliers[bound_rows] = (gradient[zvars] - y @ a_g[:, zvars]) / coef
    return x, multipliers


def _cholesky_solve(low, v):
    """y with LL'y = v, L a small lower triangle as lists, by substitution."""
    y = v.tolist()
    g = len(y)
    for i in range(g):
        y[i] = (y[i] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i]
    for i in reversed(range(g)):
        y[i] = (y[i] - sum(low[k][i] * y[k] for k in range(i + 1, g))) / low[i][i]
    return np.array(y)


def _holds(a_all, b_all, is_eq, rows, x, multipliers, slack_tol, dual_tol) -> bool:
    """Whether x and the multipliers are finite, x meets the working set
    ``rows`` within 1e-8, no other equality misses by 1e-8, no other
    inequality is below -``slack_tol`` and no inequality multiplier is
    below -``dual_tol``."""
    if not (np.isfinite(x).all() and np.isfinite(multipliers).all()):
        return False
    slack = a_all @ x - b_all
    out = np.ones(b_all.shape[0], dtype=bool)
    out[rows] = False
    return bool(
        (np.abs(slack[rows]) <= 1e-8).all()
        and (np.abs(slack[out & is_eq]) <= 1e-8).all()
        and (slack[out & ~is_eq] >= -slack_tol).all()
        and (multipliers[~is_eq] >= -dual_tol).all()
    )


def _independent(ztn, dnorm2_p, jt_free, row) -> bool:
    """Whether a row n+ with ztn = |J2'n+|^2 is off the working set's span:
    ztn exceeds 1e-10 of n+'D^-1 n+ or of |J2|^2 |n+|^2.  The second bound,
    computed only when the first fails, holds where a ridge-sized diagonal
    entry of D (a constant asset's) inflates n+'D^-1 n+."""
    tiny = np.finfo(float).tiny
    if ztn > 1e-10 * max(dnorm2_p, tiny):
        return True
    return ztn > 1e-10 * max(float((jt_free * jt_free).sum() * (row @ row)), tiny)


def _point(qp, b_all, q, active, jt, nstar):
    """x = J2 J2'd + N*'b, the minimizer on the working set, and its
    multipliers u = N*(Dx - d)."""
    x = jt[q:].T @ (jt[q:] @ qp.dvec) + nstar[:q].T @ b_all[active[:q]]
    return x, nstar[:q] @ (qp.dmat @ x - qp.dvec)


def _add(jt, nstar, q, d2, z, r, ztn):
    """Append n+ (d2 = J2'n+, z = J2 d2, r = N* n+) to the factors, J2'
    being the last d2.size rows of ``jt``: the solver's full-width factors,
    or :func:`_factor`'s on the free columns alone.

    An add needs ztn = |d2|^2 > 1e-10 * tiny (see :func:`_independent`),
    so |d2| exceeds 1.5e-159 and is never zero or denormal; the reflector
    is scaled by |d2| so that no product of two small numbers is inverted.
    """
    j2t = jt[jt.shape[0] - d2.size :]
    norm = np.sqrt(ztn)
    side = 1.0 if d2[0] >= 0.0 else -1.0
    v = d2 / norm
    v[0] += side
    jv = z / norm + side * j2t[0]  # J2 v
    j2t -= (v / (1.0 + abs(d2[0]) / norm))[:, None] * jv
    nstar[q] = z / ztn
    nstar[:q] -= r[:, None] * nstar[q]


def _drop(jt, nstar, q, k, dmat):
    """Remove working-set position ``k`` from the factors.

    g = N*DN*'[:, k] is column k of G^-1.  Row k of N* is orthogonal to the
    other normals and D-orthogonal to J2; over sqrt(g_k) it becomes J2's new
    first row, written before the row-deletion formula removes it from N*.
    """
    g = nstar[:q] @ (dmat @ nstar[k])
    jt[q - 1] = nstar[k] / np.sqrt(g[k])
    nstar[:q] -= (g / g[k])[:, None] * nstar[k]
    nstar[k : q - 1] = nstar[k + 1 : q]
