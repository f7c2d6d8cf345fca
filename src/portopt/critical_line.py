"""The critical line of a long-only mean-risk model, traced once.

For t from +inf down to -inf, the minimizer w(t) of

    0.5 w'Dw - t mu'w    subject to  1'w = 1, w >= 0

is piecewise linear in t (Markowitz 1956; Niedermayer and Niedermayer
2010).  On a segment whose free set is F (every other weight is held at
its bound 0), with a = D_FF^-1 1 and b = D_FF^-1 mu_F,

    w_F = alpha + t beta,   alpha = a / 1'a,   beta = b - (1'b / 1'a) a,

the budget multiplier is (1 - t 1'b) / 1'a and each bound's multiplier
is v_j = D_jF w_F - t mu_j - (budget multiplier), also linear in t.  The
segment ends at the largest t below its top where a free weight or a
bound multiplier reaches 0: that asset leaves or enters F, and D_FF^-1 is
bordered or downdated instead of refactored.  The expected return
mu_F'alpha + t mu_F'beta never rises as t falls, so one pass from the
highest-mean vertex (t = +inf) down to the lowest-mean one (t = -inf)
covers every pinned target return; the efficient branch is t >= 0.  A
pinned program's multiplier of its return row is t, and a tradeoff
program min (1-l) w'Sw - l mu'w with D = 2S has t = l / (1 - l).

Every computation here only proposes working sets: :mod:`portopt.optimizers`
keeps one model's line and starts each solve on that model from the free
set of its program's segment, and the solver certifies the point (or
leaves the proposed set), so float drift along the pass can cost solver
steps but never changes an answer.  A bordering pivot that
is not positive refactors D_FF from scratch, and the pass ends at a D_FF
that fails its Cholesky factorization or after ``CORNERS_PER_ASSET``
corners per asset; points below the end get no proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Corners per asset after which a pass ends (a sample covariance at
#: N = 150 to 500 has about two per asset).
CORNERS_PER_ASSET = 10


@dataclass(frozen=True)
class CriticalLine:
    """The segments of one pass, from t = +inf down.

    Segment k runs from ``t_low[k-1]`` (+inf for the first) down to
    ``t_low[k]``; ``return_low[k]`` is the expected return at ``t_low[k]``
    and ``free[k]`` the indices of the assets off their bound.  A pass
    that reached t = -inf ends both arrays with -inf; one that ended early
    stops at its last corner, and a t or return below it has no segment.
    """

    t_low: np.ndarray
    return_low: np.ndarray
    free: tuple[np.ndarray, ...]

    def segment_at(self, t: float) -> int:
        """Index of the segment holding tradeoff ``t`` (``len(free)`` for none)."""
        return int(np.searchsorted(-self.t_low, -t))

    def segment_at_return(self, target: float) -> int:
        """Index of the segment holding expected return ``target``; at a
        corner's exact return, the segment below it (a vertex's own
        segment would pin a return row that depends on its bounds)."""
        return int(np.searchsorted(-self.return_low, -target, side="right"))


def critical_line(dmat: np.ndarray, mu: np.ndarray) -> CriticalLine:
    """One pass down the critical line of quadratic term ``dmat`` (positive
    definite) and means ``mu``; see the module docstring."""
    n = mu.shape[0]
    # the means are shifted so the highest is 0: w and the multipliers do
    # not change, and a segment inside a tie at the top gets beta = 0 exactly
    shifted = mu - mu.max()
    start = _start(dmat, shifted)
    free = None if start is None else _FreeSet.of(dmat, shifted, start)
    t_low, return_low, frees = [], [], []
    t = np.inf
    for _ in range(CORNERS_PER_ASSET * n if free is not None else 0):
        f = free.size
        ab = free.inv[:f, :f] @ free.ones_mu[:f]  # a and b
        a_sum, b_sum = ab.sum(axis=0)
        ab[:, 1] -= (b_sum / a_sum) * ab[:, 0]  # beta
        ab[:, 0] /= a_sum  # alpha
        # every asset's bound multiplier c + t d, then each free asset's
        # weight alpha + t beta in place of its (zero) multiplier: an
        # asset moves where that line reaches 0 from above as t falls
        lines = ab.T @ free.rows[:f]
        lines[0] -= 1.0 / a_sum
        lines[1] -= shifted - b_sum / a_sum
        lines[:, free.assets[:f]] = ab.T
        level = np.divide(lines[0], -lines[1], out=np.full(n, -np.inf), where=lines[1] > 0.0)
        k = int(np.argmax(level))
        # a level above t is a status that drift or a tie already violates,
        # such as an exact duplicate of an asset that just entered: fix it now
        t_next = min(float(level[k]), t)
        t_low.append(t_next)
        frees.append(free.assets[:f].copy())
        if t_next == -np.inf:
            return_low.append(-np.inf)
            break
        mu_alpha, mu_beta = mu[free.assets[:f]] @ ab
        return_low.append(float(mu_alpha + t_next * mu_beta))
        if free.slot[k] >= 0:
            free.leave(k)
        elif not free.enter(k):
            break
        t = t_next
    # drift at an almost exact tie can put a corner at |t| ~ 1e13, where
    # the return mu_F'alpha + t mu_F'beta is noise times t; it cannot rise
    # as t falls
    return CriticalLine(np.array(t_low), np.minimum.accumulate(return_low), tuple(frees))


def _start(dmat: np.ndarray, shifted: np.ndarray) -> np.ndarray | None:
    """The free set at t = +inf: the highest-mean asset, or with a tie at
    the top the tied assets that the tie's minimum-risk portfolio holds
    (the t = 0 segment of the tie's own line, traced on distinct means)."""
    top = np.flatnonzero(shifted == 0.0)
    if top.size == 1:
        return top
    tie = critical_line(dmat[np.ix_(top, top)], np.arange(top.size, dtype=float))
    k = tie.segment_at(0.0)
    return top[tie.free[k]] if k < len(tie.free) else None


class _FreeSet:
    """The free set F, one slot per asset in F: slot i holds asset
    ``assets[i]``, its row of D in ``rows[i]`` and (1, its shifted mean) in
    ``ones_mu[i]``, and ``inv[:f, :f]`` is D_FF^-1 in slot order.  An
    entering asset takes slot f; a leaving one's slot goes to the asset in
    the last slot.  ``slot[j]`` is asset j's slot, or -1 off F."""

    def __init__(self, dmat: np.ndarray, shifted: np.ndarray):
        n = shifted.shape[0]
        self.dmat, self.shifted, self.size = dmat, shifted, 0
        self.assets = np.empty(n, dtype=int)
        self.slot = np.full(n, -1)
        self.rows = np.empty((n, n))
        self.ones_mu = np.ones((n, 2))
        self.inv = np.empty((n, n))

    @classmethod
    def of(cls, dmat, shifted, assets: np.ndarray) -> _FreeSet | None:
        """F = ``assets``, or None if their D_FF is not positive definite."""
        free = cls(dmat, shifted)
        for k in assets:
            free._append(int(k))
        return free if free.refactor() else None

    def _append(self, k: int) -> None:
        f = self.size
        self.assets[f], self.slot[k] = k, f
        self.rows[f] = self.dmat[k]
        self.ones_mu[f, 1] = self.shifted[k]
        self.size = f + 1

    def refactor(self) -> bool:
        """D_FF^-1 from D_FF's Cholesky factor; False if it has none."""
        f = self.size
        try:
            low = np.linalg.cholesky(self.rows[:f, self.assets[:f]])
        except np.linalg.LinAlgError:
            return False
        low_inv = np.linalg.inv(low)
        self.inv[:f, :f] = low_inv.T @ low_inv
        return True

    def enter(self, k: int) -> bool:
        """Add asset ``k``: border D_FF^-1, or refactor it when bordering
        fails; False if that fails too."""
        self._append(k)
        return self._border() or self.refactor()

    def _border(self) -> bool:
        """Border D_FF^-1 with the asset in the last slot; False if the pivot
        (the Schur complement of the rest of D_FF) is not positive."""
        f = self.size - 1
        k = self.assets[f]
        column = self.rows[:f, k]
        u = self.inv[:f, :f] @ column
        pivot = self.rows[f, k] - column @ u
        if not pivot > 0.0:
            return False
        self.inv[:f, :f] += np.outer(u / pivot, u)
        self.inv[:f, f] = self.inv[f, :f] = -u / pivot
        self.inv[f, f] = 1.0 / pivot
        return True

    def leave(self, k: int) -> None:
        """Downdate D_FF^-1 by asset ``k``; the last slot's asset takes its slot."""
        f, i = self.size - 1, self.slot[k]
        inv = self.inv
        column = inv[: f + 1, i].copy()
        inv[: f + 1, : f + 1] -= np.outer(column / column[i], column)  # row and column i ~0
        j = self.assets[f]
        self.assets[i], self.slot[j], self.slot[k] = j, i, -1
        self.rows[i] = self.rows[f]
        self.ones_mu[i] = self.ones_mu[f]
        inv[i, :f] = inv[f, :f]
        inv[:f, i] = inv[:f, f]
        inv[i, i] = inv[f, f]
        self.size = f
