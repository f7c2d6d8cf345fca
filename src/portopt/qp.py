"""Convex quadratic programming with linear constraints.

Solves

    minimize    0.5 * x' D x - d' x
    subject to  A_eq x  = b_eq
                A_ineq x >= b_ineq

with D symmetric positive definite (callers regularize borderline PSD
matrices first; see :mod:`portopt.optimizers`).  The method is the dual
active-set iteration of Goldfarb and Idnani (1983, Math. Programming
27): start from the unconstrained minimum, repeatedly add the most
violated constraint, and take primal/dual steps until primal
feasibility.  No feasible starting point is needed and infeasibility is
detected as an unbounded dual step.

The working set's q normals N are carried in factored form.  With
D = LL' and the QR factorization L^-1 N = Q [R; 0], the solver keeps

* J = L^-T Q, split as [J1 J2] after q columns (stored transposed, so
  J1 and J2 are row blocks); J2 spans the directions that leave every
  working-set constraint unchanged;
* R, the q x q upper triangle;
* N* = R^-1 J1' = (N'D^-1 N)^-1 N'D^-1, one row per working-set
  constraint (the transpose of W = J1 R^-T).

For a candidate normal n+ with d = J'n+, the primal step direction is
z = J2 d2 and the dual step direction is r = N* n+.  Adding n+ applies
one Householder reflection of d2 to J2, appends the column [d1; alpha]
to R (|alpha| = |d2|) and takes a rank-1 update of N*.  Dropping
position k deletes column k of R, re-triangularises the trailing block
with a QR factorization whose Q rotates the matching columns of J, and
removes row k of N* with the row-deletion formula.  A step costs O(n^2)
instead of re-forming and re-solving N'D^-1 N.  A constraint that
depends on the working set has d2 = 0, so it can only take the dual
step (a drop, or Infeasible).

One pass builds the factors of a whole working set at once: the empty
set (the cold start from the unconstrained minimum), a seed of rows
expected to be active (such as the previous point's working set in a
frontier sweep, where neighbouring programs differ by a few assets), and
the final working set.  Bounds (rows with one nonzero) need no QR: order
the variables free first and bounded last with a permutation P and factor
P D P' = LL'.  The column of L^-1 P that a bound maps to is zero above
the bound's own row, so the rows of L^-1 P taken bound variables first,
in reverse, are a Q'L^-1 for which Q'B is already upper triangular: R is
the reversed trailing block of L^-1, and N* = [-L_ZF (L_FF)^-1, I] (Z the
bounded, F the free variables) costs one product with the free block.
The other rows, the equalities among them, are appended by the add step,
whose |d2| is the new diagonal of R and rejects a dependent row.  From
the factors, x = J2 J2'd + N*'b is the minimizer on the set and
u = N*(Dx - d) its multipliers.

A seed enters with the equalities.  Every seeded inequality with u < 0
leaves at once and the rest is factored again, until the set is dual
feasible; the add/drop loop above then runs unchanged.  A seed with no
inequality, more rows than variables or a dependent row falls back to the
empty set.  The seed changes the path, not the optimum, which is unique.
The loop's x drifts over many small steps, so the answer is taken from the
final working set factored afresh in sorted order, plus one refinement
step on its rows (unless that point fails the polish's feasibility guard);
it depends only on the program and that set, and a seeded solve that ends
on the cold solve's working set returns the same bits.

Everything is plain deterministic linear algebra: the same program solved
twice yields bit-identical results.  Tie-breaks pick the lowest
constraint index.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import Infeasible, MaxIterations, NumericalBreakdown

#: Absolute slack below which a constraint counts as violated when
#: selecting the next one to add.  Tighter than the 1e-8 feasibility
#: contract so float noise near the boundary never loops.
_ADD_TOL = 1e-11

#: Dual direction entries below this cannot block a step.
_DROP_TOL = 1e-12

_EMPTY = np.zeros((0,))


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
        if not np.allclose(dmat, dmat.T, rtol=0.0, atol=1e-12):
            raise ValueError("dmat is not symmetric within 1e-12")
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


def solve_qp(qp: QuadraticProgram, start: Iterable[int] = ()) -> QpSolution:
    """Solve the program; see the module docstring for the method.

    ``start`` names constraints, in the global numbering of
    :attr:`QpSolution.active_set`, expected to be active at the optimum:
    its inequality rows enter the working set with the equalities before
    the first step (a neighbouring program's ``active_set`` will do).  It
    changes the path to the optimum, not the optimum; an empty seed is the
    cold start.  One factorization serves the empty, seeded and final
    working sets, and x and the multipliers are those of the final working
    set alone: any two solves that end on the same set return the same bits.

    Raises :class:`Infeasible` when no point satisfies the constraints and
    :class:`MaxIterations` past 100*N working-set steps.  The only
    :class:`NumericalBreakdown` is a quadratic term that fails its
    Cholesky factorization (not positive definite).  A constraint that
    depends on the working set cannot break the factors: its primal
    direction vanishes, so it takes the dual step (a drop, or Infeasible).
    """
    n = qp.n
    meq = qp.b_eq.shape[0]
    a_all = np.vstack([qp.a_eq, qp.a_ineq])
    b_all = np.concatenate([qp.b_eq, qp.b_ineq])
    m = b_all.shape[0]
    is_eq = np.arange(m) < meq

    # The working set, one position per active constraint in insertion
    # order: its global index, its sign (-1 for an equality added flipped),
    # its multiplier, and its row of R and of N*.  At most min(n, m)
    # positions are ever used: an add needs d2 != 0, so q < n, and a seed
    # holds at most n independent rows.
    cap = min(n, m)
    q, active, u, jt, rmat, nstar, x = _seed(qp, a_all, b_all, start, cap)
    signs = np.ones(cap)

    max_iter = 100 * max(n, 1)
    iterations = 0

    while True:
        # Most violated constraint outside the working set, lowest index first.
        slack = a_all @ x - b_all
        metric = np.where(is_eq, -np.abs(slack), slack)
        metric[active[:q]] = np.inf
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

            d = jt @ nplus
            d2 = d[q:]
            z = d2 @ jt[q:]  # primal direction J2 d2
            r = nstar[:q] @ nplus  # dual direction N* n+
            ztn = float(d2 @ d2)
            full_step_possible = ztn > 1e-10 * max(float(d @ d), np.finfo(float).tiny)

            # Blocking constraint for the dual variables (equalities never
            # drop); argmin keeps the lowest position among ties.
            droppable = np.flatnonzero(~is_eq[active[:q]] & (r > _DROP_TOL))
            ratios = u[droppable] / r[droppable]
            t1 = ratios.min(initial=np.inf)
            t2 = -s_p / ztn if full_step_possible else np.inf

            if not full_step_possible and t1 == np.inf:
                raise Infeasible("constraints admit no feasible point")

            step = min(t1, t2)
            if full_step_possible:
                x = x + step * z
                s_p = float(nplus @ x) - sign * b_all[p]
            u[:q] -= step * r
            u_plus += step

            if full_step_possible and step == t2:
                _add(jt, rmat, nstar, q, d, z, r, ztn)
                active[q], signs[q], u[q] = p, sign, u_plus
                q += 1
                break
            # Partial or pure dual step: drop the blocking constraint.
            k = int(droppable[np.argmin(ratios)])
            _drop(jt, rmat, nstar, q, k, qp.dmat)
            for v in (active, signs, u):
                v[k : q - 1] = v[k + 1 : q]
            q -= 1

    working = np.sort(active[:q])
    multipliers = np.zeros(m)
    multipliers[active[:q]] = signs[:q] * u[:q]
    x, multipliers = _polish(qp, a_all, b_all, is_eq, working, cap, x, multipliers)

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
    triangle's own LU can pivot and leave ~1e-14 there), and so is a
    bound's coordinate of x.
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


def _seed(qp, a_all, b_all, start, cap):
    """The solver's state after seeding ``start``.

    Returns ``(q, active, u, jt, R, N*, x)``: the equalities and the seeded
    inequalities factored, x the minimizer on them and u its multipliers.
    Every inequality with u < 0 leaves at once and the rest is factored
    again, until the set is dual feasible.  The empty set, the cold start,
    when no inequality is seeded or the rows are dependent, more than n of
    them included.
    """
    m, meq = b_all.shape[0], qp.b_eq.shape[0]
    start = np.unique(np.asarray(start, dtype=int))
    if start.size and (start[0] < 0 or start[-1] >= m):
        raise ValueError("start must index the program's constraints")
    rows = np.concatenate([np.arange(meq), start[start >= meq]])
    if meq < rows.size <= qp.n:
        while (state := _factor(qp, a_all, b_all, rows, cap)) is not None:
            q, active, u = state[:3]
            negative = (u[:q] < 0.0) & (active[:q] >= meq)
            if not negative.any():
                return state
            rows = active[:q][~negative]
    return _factor(qp, a_all, b_all, np.zeros(0, dtype=int), cap)


def _factor(qp, a_all, b_all, rows, cap):
    """The solver's state with working set ``rows``, factored in one pass
    as the module docstring describes, or None if a row is dependent."""
    n = qp.n
    nonzero = a_all[rows] != 0.0
    single = np.flatnonzero(nonzero.sum(axis=1) == 1)
    # one bound per variable, in variable order; a repeat is a general row
    zvars, first = np.unique(nonzero[single].argmax(axis=1), return_index=True)
    bound_rows = rows[single[first]]
    coef = a_all[bound_rows, zvars]
    k, f = zvars.size, n - zvars.size

    free = np.ones(n, dtype=bool)
    free[zvars] = False
    perm = np.concatenate([np.flatnonzero(free), zvars])
    try:
        chol = np.linalg.cholesky(qp.dmat[np.ix_(perm, perm)])
    except np.linalg.LinAlgError:
        raise NumericalBreakdown("quadratic term is not positive definite") from None
    lpi = _lower_inverse(chol)
    back = np.argsort(perm)
    # J' = Q'L^-1: the rows of L^-1 for the bound variables, last first,
    # then those of the free ones, with the columns in the caller's order;
    # one gather keeps it C-ordered, so the steps update contiguous rows
    order = np.concatenate([np.arange(n - 1, f - 1, -1), np.arange(f)])
    jt = lpi[np.ix_(order, back)]

    active = np.zeros(cap, dtype=int)
    rmat = np.zeros((cap, cap))
    nstar = np.zeros((cap, n))
    active[:k] = bound_rows[::-1]
    rmat[:k, :k] = lpi[f:, f:][::-1, ::-1] * coef[::-1]
    block = np.zeros((k, n))
    block[:, :f] = -(chol[f:, :f] @ lpi[:f, :f])
    block[:, f:] = np.eye(k)
    nstar[:k] = (block[:, back] / coef[:, None])[::-1]

    q = k
    for p in np.setdiff1d(rows, bound_rows, assume_unique=True):
        d = jt @ a_all[p]
        d2 = d[q:]
        ztn = float(d2 @ d2)
        if not ztn > 1e-10 * max(float(d @ d), np.finfo(float).tiny):
            return None
        _add(jt, rmat, nstar, q, d, d2 @ jt[q:], nstar[:q] @ a_all[p], ztn)
        active[q] = p
        q += 1

    x = jt[q:].T @ (jt[q:] @ qp.dvec) + nstar[:q].T @ b_all[active[:q]]
    u = np.zeros(cap)
    u[:q] = nstar[:q] @ (qp.dmat @ x - qp.dvec)
    return q, active, u, jt, rmat, nstar, x


def _add(jt, rmat, nstar, q, d, z, r, ztn):
    """Append n+ (d = J'n+, z = J2 d2, r = N* n+) to the factors.

    An add needs ztn = |d2|^2 > 1e-10 * max(|d|^2, tiny), so |alpha|
    exceeds 1.5e-159 and is never zero or denormal; the reflector is
    scaled by |alpha| so that no product of two small numbers is inverted.
    """
    d2 = d[q:]
    norm = np.sqrt(ztn)
    side = 1.0 if d2[0] >= 0.0 else -1.0
    v = d2 / norm
    v[0] += side
    jv = z / norm + side * jt[q]  # J2 v
    jt[q:] -= np.outer(v / (1.0 + abs(d2[0]) / norm), jv)
    rmat[:q, q] = d[:q]
    rmat[q, q] = -side * norm
    nstar[:q] -= np.outer(r, z / ztn)
    nstar[q] = z / ztn


def _drop(jt, rmat, nstar, q, k, dmat):
    """Remove working-set position ``k`` from the factors.

    The N* update needs column k of G^-1 (G = N'D^-1 N), which is N* D
    N*'[:, k]: no triangular solve.
    """
    g = nstar[:q] @ (dmat @ nstar[k])
    nstar[:q] -= np.outer(g / g[k], nstar[k])
    nstar[k : q - 1] = nstar[k + 1 : q]
    rmat[:q, k : q - 1] = rmat[:q, k + 1 : q]
    if k < q - 1:
        qmat, rmat[k:q, k : q - 1] = np.linalg.qr(rmat[k:q, k : q - 1], mode="complete")
        jt[k:q] = qmat.T @ jt[k:q]


def _polish(qp, a_all, b_all, is_eq, rows, cap, x, multipliers):
    """Re-solve the working-set KKT system from the original data.

    The iteration accumulates x through many small steps; on badly scaled
    programs (for example a 1e-11 ridge standing in for a vanished
    quadratic term) that drift can reach the 1e-6 scale.  One direct
    solve on the converged working set removes it: ``rows``, sorted, are
    factored afresh by :func:`_factor`.  The polished point is kept only
    if it stays feasible for the constraints left inactive and its
    inequality multipliers stay nonnegative.
    """
    state = _factor(qp, a_all, b_all, rows, cap)
    if state is None:
        return x, multipliers
    q, active, u, _, _, nstar, x_new = state
    # One refinement step on the working-set rows: the factors alone leave
    # the budget and return rows off by up to ~1e-14.
    x_new = x_new + nstar[:q].T @ (b_all[active[:q]] - a_all[active[:q]] @ x_new)
    u_new = np.zeros_like(multipliers)
    u_new[active[:q]] = u[:q]
    slack = a_all @ x_new - b_all
    inactive = np.ones(b_all.shape[0], dtype=bool)
    inactive[rows] = False
    ok = (
        (np.abs(slack[inactive & is_eq]) < 1e-8).all()
        and (slack[inactive & ~is_eq] > -1e-8).all()
        and (u_new[~is_eq] >= -1e-8).all()
    )
    return (x_new, u_new) if ok else (x, multipliers)
