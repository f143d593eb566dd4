"""Density decrement and monochromatic-submatrix extraction.

The pipeline: while the current square matrix is denser than 1/(8r), find a
half-by-half submatrix of strictly smaller density (exact enumeration when
affordable, otherwise spectral certificate -> Gram vectors -> hyperplane
rounding -> half-size adjustment, falling back to a local search from the
adjusted rectangle: the alternating best-response search of `oracle` that
`disc --heuristic` runs too, here at half sizes); once the density drops
below 1/(8r), a greedy dichotomy either extracts an all-zero quarter block
or exhibits a permutation submatrix larger than the rank, which is
impossible when the rank bound is genuine.

All randomness is derived from one seed through counter-based streams, so
traces are reproducible across runs and worker counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT, DIAG_TOL, Config
from .errors import CapacityError, CertificateError, DecrementStalled, RankWitnessError
from .matrix import BinaryMatrix, WeightedBinaryMatrix, complement, rank, submatrix
# bound under its own name, which perfbench/tracer.py wraps as the
# decrement's local-search span
from .oracle import _best_response_search as _half_local_search
from .oracle import (Rectangle, _half_sizes, _respond, _scores, best_half_rect,
                     exact_row_limit)
from .rng import STREAM_ROUND, generator
from .spectral import DiscCertificate, lower_bound_disc


# -- Gram vectors and rounding -------------------------------------------------

def gram_vectors(C: DiscCertificate):
    """Unit-ball vectors whose Gram matrix is the witness X.

    Returns (row_vectors, col_vectors) of shapes (n, k) and (n, k); the
    i-th row is the vector attached to row/column vertex i.  Norms are
    bounded by sqrt(1 + DIAG_TOL) since X_ii <= 1 + DIAG_TOL.
    """
    if C.diag_max > 1.0 + DIAG_TOL:
        raise CertificateError(
            f"certificate diagonal {C.diag_max:.9f} exceeds 1 + {DIAG_TOL}")
    if C.coeffs is not None and float(np.min(C.coeffs, initial=0.0)) < 0:
        raise CertificateError("negative eigenbasis coefficient in certificate")
    n = C.n_side
    return C.factor[:n], C.factor[n:]


def round_to_rect(M: BinaryMatrix, grams, trials: int, seed: int,
                  stream: tuple[int, ...] = ()) -> Rectangle:
    """Random-hyperplane rounding of Gram vectors to a negative rectangle.

    Each trial draws a Gaussian direction g, signs the vertices by the side
    of the hyperplane their vector falls on, and scores the four quadrant
    rectangles; the most negative rectangle over all trials wins (ties:
    earliest trial, then quadrant order).  Deterministic given seed.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    V, W = grams
    m, n = M.shape
    if V.shape[0] != m or W.shape[0] != n:
        raise ValueError("gram vector blocks do not match the matrix shape")
    k = V.shape[1]
    xs = np.empty((trials, m), dtype=bool)
    ys = np.empty((trials, n), dtype=bool)
    for t in range(trials):
        g = generator(seed, STREAM_ROUND, *stream, t).standard_normal(k)
        xs[t] = (V @ g) >= 0
        ys[t] = (W @ g) >= 0
    # the column counts of every trial's rows in one matmul, exact in
    # float64 since each is at most m; pos holds their scaled scores
    E = M.entries.astype(np.float64)
    counts = (xs.astype(np.float64) @ E).astype(np.int64)
    pos = m * n * counts - M.ones * xs.sum(axis=1, keepdims=True)
    full = m * n * M.col_deg - M.ones * m
    # scores add over rows and over columns, and full sums to 0, so the
    # quadrants (x, y), (x, ~y), (~x, y), (~x, ~y) of a trial follow from
    # three sums; an empty side scores 0, which never wins
    both = np.where(ys, pos, 0).sum(axis=1)
    pos_total = pos.sum(axis=1)
    full_y = np.where(ys, full, 0).sum(axis=1)
    quadrants = np.stack([both, pos_total - both, full_y - both,
                          both - pos_total - full_y], axis=1)
    t, q = divmod(int(np.argmin(quadrants)), 4)
    val = int(quadrants[t, q])
    if val >= 0:
        return Rectangle(X=(), Y=(), value=Fraction(0))
    xmask = xs[t] if q < 2 else ~xs[t]
    ymask = ys[t] if q % 2 == 0 else ~ys[t]
    return Rectangle(X=tuple(np.flatnonzero(xmask).tolist()),
                     Y=tuple(np.flatnonzero(ymask).tolist()),
                     value=Fraction(val, m * n))


def adjust_to_half(M: BinaryMatrix, R: Rectangle,
                   row_size: int | None = None,
                   col_size: int | None = None) -> Rectangle:
    """Resize a rectangle to exact half (or given) sizes, greedily.

    A missing size defaults to half its side, which must then be even.
    Rows first: grow X with the smallest-marginal missing rows, or shrink
    it by dropping the largest-marginal members; then the same for columns
    against the final X.  Marginals are exact and additive, so the greedy
    choice dominates the averaging argument over random extensions; ties
    prefer the lowest index.
    """
    m, n = M.shape
    row_size, col_size = _half_sizes(M, row_size, col_size)
    E = M.int_entries()

    xmask = np.zeros(m, dtype=bool)
    if R.X:
        xmask[list(R.X)] = True
    ymask = np.zeros(n, dtype=bool)
    if R.Y:
        ymask[list(R.Y)] = True

    def resize(mask, marg, target):
        have = int(mask.sum())
        mask = mask.copy()
        if have < target:
            cand = np.flatnonzero(~mask)
            mask[cand[_respond(marg[cand], "-", target - have)]] = True
        elif have > target:
            members = np.flatnonzero(mask)
            mask[members[_respond(marg[members], "+", have - target)]] = False
        return mask

    xmask = resize(xmask, _scores(E.T, M.ones, ymask), row_size)
    col_marg = _scores(E, M.ones, xmask)
    ymask = resize(ymask, col_marg, col_size)
    return Rectangle(X=tuple(int(i) for i in np.nonzero(xmask)[0]),
                     Y=tuple(int(j) for j in np.nonzero(ymask)[0]),
                     value=Fraction(int(col_marg[ymask].sum()), m * n))


# -- one decrement step ----------------------------------------------------------

@dataclass(frozen=True)
class StepRecord:
    """One density-decrement step, as the decrement loop's trace logs it:
    the n_i x n_i input of density p_i and its half-by-half rectangle."""

    index: int
    n_i: int
    p_i: Fraction
    rect: Rectangle
    strategy: str

    @property
    def p_after(self) -> Fraction:
        half = self.n_i // 2
        return self.p_i + self.rect.value / (half * half)

    @property
    def decrement(self) -> Fraction:
        return self.p_i - self.p_after

    def to_json_obj(self) -> dict:
        return {"i": self.index, "n_i": self.n_i,
                "p_num": self.p_i.numerator, "p_den": self.p_i.denominator,
                "strategy_used": self.strategy,
                "disc_num": self.rect.value.numerator,
                "disc_den": self.rect.value.denominator}


def decrement_step(M: BinaryMatrix, r: int | None = None, seed: int = 0,
                   step_index: int = 0, cfg: Config = DEFAULT) -> StepRecord:
    """Find a half-by-half submatrix of strictly smaller density.

    Strategy ladder, first success wins: exact half-rectangle oracle when
    the side is within `exact_row_limit(cfg)`; spectral certificate -> Gram
    rounding -> half-size adjustment; the best-response search at half
    sizes from the adjusted rectangle.  Returns the step as trace entry
    step_index.  Raises DecrementStalled (carrying the best candidate) if
    no strictly negative half-rectangle is found within budget.
    """
    if M.m != M.n:
        raise ValueError("decrement_step expects a square matrix")
    n = M.n
    if n < 2:
        raise ValueError("cannot halve a 1x1 matrix")
    if r is None:
        r = rank(M)
    p = M.density()
    if not Fraction(1, 8 * r) <= p <= Fraction(1, 2):
        raise ValueError(
            f"density {p} outside the decrement regime [1/(8r), 1/2] for r={r}")
    target = n // 2

    def finish(rect: Rectangle, strategy: str) -> StepRecord:
        return StepRecord(index=step_index, n_i=n, p_i=p, rect=rect,
                          strategy=strategy)

    if n <= exact_row_limit(cfg):
        rect = best_half_rect(M, "-", target, target, cfg)
        if rect.value < 0:
            return finish(rect, "exact")
        raise DecrementStalled(
            "exact oracle found no density-decreasing half-rectangle "
            "(the rank precondition is likely violated)", best=rect)

    cert = lower_bound_disc(M, r=r, cfg=cfg)
    grams = gram_vectors(cert)
    rough = round_to_rect(M, grams, trials=cfg.rounding_trials, seed=seed,
                          stream=(step_index,))
    rect = adjust_to_half(M, rough, row_size=target, col_size=target)
    if rect.value < 0:
        return finish(rect, "rounding")

    # never worse than rect, which has the half sizes
    best = _half_local_search(M, "-", target, target, rect, seed,
                              (step_index,))
    if best.value < 0:
        return finish(best, "local_search")
    raise DecrementStalled(
        f"no strictly density-decreasing half-rectangle found at n={n} "
        f"within budget", best=best)


# -- sparse endgame ---------------------------------------------------------------

@dataclass(frozen=True)
class MonoResult:
    """A monochromatic submatrix: rows X, columns Y, constant color."""

    X: tuple[int, ...]
    Y: tuple[int, ...]
    color: int

    @property
    def dims(self) -> tuple[int, int]:
        return (len(self.X), len(self.Y))

    def verify(self, M: BinaryMatrix) -> bool:
        if not self.X or not self.Y:
            return False
        sub = M.entries[np.ix_(list(self.X), list(self.Y))]
        return bool((sub == self.color).all())

    def to_json_obj(self) -> dict:
        return {"color": self.color, "X": list(self.X), "Y": list(self.Y),
                "dims": list(self.dims)}


@dataclass(frozen=True)
class PermutationWitness:
    """Rows A and columns B with M[A x B] a k x k permutation matrix.

    Certifies rank(M) >= k: a permutation submatrix has full rank.
    Pairs are matched positionally: M[rows[t], cols[t]] = 1.
    """

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.rows)

    def verify(self, M: BinaryMatrix) -> bool:
        sub = M.entries[np.ix_(list(self.rows), list(self.cols))]
        return bool((sub == np.eye(self.k, dtype=np.uint8)).all())


def zero_submatrix_sparse(M: BinaryMatrix, r: int):
    """Sparse-regime dichotomy: all-zero quarter block or permutation witness.

    Requires p(M) <= 1/(8r).  Rows/columns with more than n/(4r) ones are
    set aside; on the rest, a permutation submatrix is grown greedily while
    excluding rows/columns already hit.  If the survivors ever form an
    all-zero block, the lowest-index quarter of them is returned; if the
    permutation reaches size r+1, it is returned instead and certifies that
    rank(M) > r.
    """
    if M.m != M.n:
        raise ValueError("sparse dichotomy expects a square matrix")
    if r < 1:
        raise ValueError("rank bound must be at least 1")
    n = M.n
    if M.ones * 8 * r > n * n:
        raise ValueError(
            f"density {M.density()} exceeds the sparse regime bound 1/(8r) "
            f"= 1/{8 * r}")
    E = M.entries
    light_r = np.asarray(M.row_deg * 4 * r <= n)
    light_c = np.asarray(M.col_deg * 4 * r <= n)
    assert int((~light_r).sum()) <= n // 2 and int((~light_c).sum()) <= n // 2

    A: list[int] = []
    B: list[int] = []
    quarter = -(-n // 4)
    while True:
        if A:
            alive_r = light_r & ~(E[:, B].any(axis=1))
            alive_c = light_c & ~(E[A, :].any(axis=0))
        else:
            alive_r = light_r
            alive_c = light_c
        rows_alive = np.nonzero(alive_r)[0]
        cols_alive = np.nonzero(alive_c)[0]
        assert len(rows_alive) >= quarter and len(cols_alive) >= quarter
        sub = E[np.ix_(rows_alive, cols_alive)]
        hits = np.argwhere(sub)
        if hits.size == 0:
            return MonoResult(
                X=tuple(int(i) for i in rows_alive[:quarter]),
                Y=tuple(int(j) for j in cols_alive[:quarter]),
                color=0)
        i, j = hits[0]
        A.append(int(rows_alive[i]))
        B.append(int(cols_alive[j]))
        if len(A) == r + 1:
            return PermutationWitness(rows=tuple(A), cols=tuple(B))


# -- full pipeline -----------------------------------------------------------------

@dataclass(frozen=True)
class DecrementTrace:
    """Per-iteration log of the decrement loop plus the terminal result."""

    steps: tuple[StepRecord, ...]
    terminal: MonoResult

    @property
    def iterations(self) -> int:
        return len(self.steps)

    def to_json_lines(self) -> str:
        lines = [json.dumps(s.to_json_obj(), sort_keys=True) for s in self.steps]
        lines.append(json.dumps(self.terminal.to_json_obj(), sort_keys=True))
        return "\n".join(lines) + "\n"


def _expand_mono(M: BinaryMatrix, X: tuple[int, ...], Y: tuple[int, ...],
                 color: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grow a monochromatic block greedily, keeping the sides balanced.

    Alternates between adding the lowest-index row consistent with the
    current columns and vice versa, preferring the smaller side, until no
    addition is possible.  Candidate masks are maintained incrementally, so
    the whole expansion costs O(mn) plus O(m+n) per added index.
    Deterministic, and never shrinks the block.
    """
    E = M.entries
    xmask = np.zeros(M.m, dtype=bool)
    xmask[list(X)] = True
    ymask = np.zeros(M.n, dtype=bool)
    ymask[list(Y)] = True
    row_ok = ~xmask & (E[:, ymask] == color).all(axis=1)
    col_ok = ~ymask & (E[xmask] == color).all(axis=0)
    nx, ny = int(xmask.sum()), int(ymask.sum())
    while True:
        rows_can = bool(row_ok.any())
        cols_can = bool(col_ok.any())
        if not rows_can and not cols_can:
            break
        if rows_can and (nx <= ny or not cols_can):
            i = int(np.nonzero(row_ok)[0][0])
            xmask[i] = True
            row_ok[i] = False
            col_ok &= E[i] == color
            nx += 1
        else:
            j = int(np.nonzero(col_ok)[0][0])
            ymask[j] = True
            col_ok[j] = False
            row_ok &= E[:, j] == color
            ny += 1
    return (tuple(int(i) for i in np.nonzero(xmask)[0]),
            tuple(int(j) for j in np.nonzero(ymask)[0]))


def find_mono(M: BinaryMatrix, seed: int = 0,
              cfg: Config = DEFAULT) -> tuple[MonoResult, DecrementTrace]:
    """Extract a large monochromatic submatrix from a low-rank matrix.

    Dense inputs are complemented first (the result color flips to 1);
    rectangular inputs are squared through the smallest uniform blow-up and
    the answer is mapped back by dividing out the repetition factors.  The
    found block is then expanded greedily and verified entrywise against
    the original matrix.
    """
    work = M
    color = 0
    if M.density() > Fraction(1, 2):
        work = complement(M)
        color = 1
    r = rank(work)
    if r == 0:
        result = MonoResult(X=tuple(range(M.m)), Y=tuple(range(M.n)),
                            color=color)
        trace = DecrementTrace(steps=(), terminal=result)
        return result, trace

    if work.m != work.n:
        square = WeightedBinaryMatrix.squared(work)
        try:
            S = square.materialize()
        except CapacityError as exc:
            raise CapacityError(
                f"squaring a {work.m}x{work.n} matrix needs side "
                f"{square.side}; {exc}") from exc
        a_rep = S.m // work.m
        b_rep = S.n // work.n
    else:
        S = work
        a_rep = b_rep = 1

    threshold = Fraction(1, 8 * r)
    rows = np.arange(S.m)
    cols = np.arange(S.n)
    current = S
    steps: list[StepRecord] = []
    while current.density() >= threshold:
        try:
            step = decrement_step(current, r=r, seed=seed,
                                  step_index=len(steps), cfg=cfg)
        except DecrementStalled as exc:
            exc.trace = tuple(steps)
            raise
        steps.append(step)
        rows = rows[list(step.rect.X)]
        cols = cols[list(step.rect.Y)]
        current = submatrix(current, step.rect.X, step.rect.Y)

    terminal = zero_submatrix_sparse(current, r)
    if isinstance(terminal, PermutationWitness):
        # unreachable when r is the exact rank; kept as a loud failure
        raise RankWitnessError(
            f"found a {terminal.k}x{terminal.k} permutation submatrix, so the "
            f"rank bound {r} was violated", witness=terminal)

    X_sq = rows[list(terminal.X)]
    Y_sq = cols[list(terminal.Y)]
    X = tuple(sorted({int(x) // a_rep for x in X_sq}))
    Y = tuple(sorted({int(y) // b_rep for y in Y_sq}))
    X, Y = _expand_mono(M, X, Y, color)
    result = MonoResult(X=X, Y=Y, color=color)
    if not result.verify(M):
        raise AssertionError(
            "internal error: extracted submatrix is not monochromatic")
    trace = DecrementTrace(steps=tuple(steps), terminal=result)
    return result, trace
