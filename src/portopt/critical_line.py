"""The critical line of a long-only mean-risk model, traced once.

For t from +inf down to -inf, the minimizer w(t) of

    0.5 w'Dw - t mu'w    subject to  1'w = 1, w >= 0

is piecewise linear in t (Markowitz 1956; Niedermayer and Niedermayer
2010).  On a segment whose free set is F (every other weight is held at
its bound 0), w_F and each held asset's bound multiplier v_j = (Dw -
t mu)_j - (budget multiplier) are linear in t.  The pass reads them from
one tableau with the budget in row b = n and the means in row m = n + 1,

    M = [[D, 1, mu], [1', 0, 0], [mu', 0, 0]],

swept (Goodnight 1979, The American Statistician 33) on F and then on b:
a free asset's weight is -T[b, j] + t T[m, j], a held asset's multiplier
T[b, j] - t T[m, j], and the expected return max mu + T[b, m] - t T[m, m].
The means are shifted so the highest is 0: w and the multipliers do not
change, and a segment inside a tie at the top gets T[m, F] = 0 exactly.
The segment ends at the largest t below its top where one of these lines
reaches 0: that asset enters F (its row is swept in) or leaves it (swept
out).  With one free asset left, that asset cannot leave: its weight is
1 on the whole segment.  A sweep sets its own row and column of T in
full and leaves a rank-1 term on the rest; the rank-1 terms wait and are
added by one matrix product every ``_FLUSH`` sweeps, and a row is read as
its stored value plus the waiting terms.  The expected return never
rises as t falls, so one pass from the highest-mean vertex (t = +inf)
down to the lowest-mean one (t = -inf) covers every pinned target
return; the efficient branch is t >= 0.  A pinned program's multiplier
of its return row is t, and a tradeoff program min (1-l) w'Sw - l mu'w
with D = 2S has t = l / (1 - l).

Every computation here only proposes working sets: :mod:`portopt.optimizers`
keeps one model's line and starts each solve on that model from the free
set of its program's segment, and the solver certifies the point (or
leaves the proposed set), so float drift along the pass can cost solver
steps but never changes an answer.  An entering pivot that is not
positive rebuilds the tableau from M for the new free set, and the pass
ends where that rebuild finds D_FF not positive definite or after
``CORNERS_PER_ASSET`` corners per asset; points below the end get no
proposal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Corners per asset after which a pass ends (a sample covariance at
#: N = 150 to 500 has about two per asset).
CORNERS_PER_ASSET = 10

#: Sweeps whose rank-1 terms wait before one product adds them (8 and 16
#: slowed passes at N = 500, where each flush also costs an n x n add;
#: 32 to 128 timed alike).
_FLUSH = 32


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
    n, top = mu.shape[0], mu.max()
    shifted = mu - top
    start = _start(dmat, shifted)
    tableau = _Tableau(dmat, shifted)
    traced = start is not None and tableau.rebuild(start)
    t_low, return_low, frees = [], [], []
    t = np.inf
    for _ in range(CORNERS_PER_ASSET * n if traced else 0):
        ends, sign = tableau.rows(n, 2), tableau.sign[:n]
        free = np.flatnonzero(sign > 0.0)
        # an asset moves where its line c + t d reaches 0 from above as t
        # falls (d > 0), at t = -c / d = T[b, j] / T[m, j]
        moves = sign * ends[1, :n] > 0.0
        if free.size == 1:
            moves[free] = False
        level = np.divide(ends[0, :n], ends[1, :n], out=np.full(n, -np.inf), where=moves)
        k = int(np.argmax(level))
        # a level above t is a status that drift or a tie already violates,
        # such as an exact duplicate of an asset that just entered: fix it now
        t_next = min(float(level[k]), t)
        t_low.append(t_next)
        frees.append(free)
        if t_next == -np.inf:
            return_low.append(-np.inf)
            break
        return_low.append(float(top + ends[0, n + 1] - t_next * ends[1, n + 1]))
        if not tableau.sweep(k) and not tableau.rebuild(np.setxor1d(free, k)):
            break
        t = t_next
    # drift at an almost exact tie can put a corner at |t| ~ 1e13, where
    # the return is noise times t; it cannot rise as t falls
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


class _Tableau:
    """M swept on the free set F and the budget, as ``tab`` plus the rank-1
    terms ``u[i]' v[i]`` of the last ``r`` sweeps; ``sign[k]`` is +1 for a
    swept row and -1 for the others."""

    def __init__(self, dmat: np.ndarray, shifted: np.ndarray):
        n = self.n = shifted.shape[0]
        self.m = np.zeros((n + 2, n + 2))
        self.m[:n, :n] = dmat
        self.m[:n, n] = self.m[n, :n] = 1.0
        self.m[:n, n + 1] = self.m[n + 1, :n] = shifted
        self.u, self.v = np.empty((2, _FLUSH, n + 2))
        self.sign = np.empty(n + 2)

    def rows(self, k: int, count: int = 1) -> np.ndarray:
        """Rows ``k`` to ``k + count - 1`` of the swept tableau (its columns
        too: it is symmetric)."""
        ks = slice(k, k + count)
        return self.tab[ks] + self.u[: self.r, ks].T @ self.v[: self.r]

    def rebuild(self, assets: np.ndarray) -> bool:
        """Sweep M on ``assets`` and then the budget; False if an asset's pivot
        is not positive (D_FF is not positive definite)."""
        self.tab, self.r, self.sign[:] = self.m.copy(), 0, -1.0
        for k in assets:
            row = self.rows(k)[0]
            if not row[k] > 0.0:
                return False
            self._pivot(k, row)
        self._pivot(self.n, self.rows(self.n)[0])
        return True

    def sweep(self, k: int) -> bool:
        """Sweep asset ``k`` in or out of F; False, with nothing changed, for
        an entering pivot that is not positive."""
        row = self.rows(k)[0]
        if self.sign[k] < 0.0 and not row[k] > 0.0:
            return False
        self._pivot(k, row)
        return True

    def _pivot(self, k: int, row: np.ndarray) -> None:
        # with p = T[k, k] and s = +1 in, -1 out: T'[k, k] = -1/p, T'[k, j]
        # = s T[k, j]/p, set in full (an add would lose T'[k, j] to
        # cancellation when |p| is large), and T'[i, j] = T[i, j] - T[i, k]
        # T[k, j]/p, a rank-1 term that is 0 in row and column k and waits;
        # the waiting terms lose their row and column k, which T' holds
        s, p = -self.sign[k], row[k]
        if self.r == _FLUSH:
            self.tab += self.u.T @ self.v
            self.r = 0
        self.u[: self.r, k] = self.v[: self.r, k] = 0.0
        swept = row / (s * p)
        swept[k], row[k] = -1.0 / p, 0.0
        self.u[self.r], self.v[self.r] = row, row / -p
        self.tab[k] = self.tab[:, k] = swept
        self.sign[k], self.r = s, self.r + 1
