"""Exact discrepancy oracles for small matrices.

For a 0/1 matrix M with density p = |M|/(mn), the rectangle discrepancy is

    disc(X, Y) = |M[X x Y]| - p * |X| * |Y|.

Everything here is computed in integers scaled by mn (so disc values are
Fractions with denominator dividing mn) and is exact.  The oracles
enumerate row sets X of the smaller side; for a fixed X the optimal column
set follows from the column scores

    mn * s_j(X) = mn * |M[X x {j}]| - |M| * |X|,

which makes the oracle exact rather than heuristic.

Classes of identical rows.  A row's score row depends only on its content,
so the scan enumerates classes of identical rows instead of single rows.
A rank-r 0/1 matrix has at most 2^r distinct rows, and a blow-up at most
r, so this is what makes the oracles cheap on low-rank inputs; when every
row is distinct each class is one row and the scan is the row scan.  Rows
are grouped by the bytes of their packed bits, and the classes are ordered
by their highest row index.  In that order two unions of classes compare
by class mask as their row sets compare by row mask: the highest row in
which they differ lies in the highest class in which they differ.

- The rectangle oracle and the relaxation take each class whole or leave
  it out, with the class's score row s_k times the row's.  Some optimum
  of each is a union of classes: with Y* the columns of a smallest-mask
  optimum X*, X* = {i : t_i(Y*) > 0} for the row totals t_i(Y*), and
  identical rows have the same t_i (likewise for the sign of a +-1 row
  coefficient).  So the smallest optimal class mask is the smallest
  optimal row mask, and ties are broken as before.
- The half-rectangle oracle gives class k a count c_k in 0..s_k, the
  counts summing to the row size: a class can be split, but which of its
  rows are taken does not change the value.  Of the row sets with given
  counts the smallest row mask takes the c_k lowest rows of each class
  (its canonical mask), so the smallest optimal row mask is the smallest
  canonical mask among the optimal count vectors.  prod_k (s_k + 1) <=
  2^m count vectors are scanned instead of C(m, row size) row sets.

One split-table scan (`_scan`) serves all three oracles.  The first classes index a
table of the scores of all their options (a whole class in or out, or a
count), the next ones a table of the score rows of the high halves, both
built once by replication (one add per row or class: a class of s_k rows
with counts multiplies a table (s_k + 1)-fold).  Each chunk of the scan is
the vectors sharing one high half, whose scores are the low table plus
that half's row.  The low classes are chosen from n so that a chunk (and
each table) holds at most 2^18 scores, whatever the number of columns;
when the high halves would not fit, they are tabulated in blocks that
share their top classes.  With a row size the low table is grouped by
total count and each chunk holds the low halves of the count that is
missing, as the popcount grouping of the row scan did.

Ties go to the smallest row mask everywhere.  The scan compares keys: a
union of whole classes is keyed by its class mask, its position in the
scan, which orders unions as their row masks do; a count vector by its
canonical row mask, which is additive over classes and so comes from a
table built like the scores.  Inside a chunk the low halves are in
ascending key order (scan order for unions; sorted by mask inside each
count group for count vectors), so the first maximum has the smallest
key; canonical masks do not rise from chunk to chunk, so between chunks an
equal value goes to the smaller key explicitly.  Column ties prefer the
lowest index.

The scan works in the narrowest integer widths that are exact, one for
the scores it stores and one for their sums (`_widths`).  A row score is
mn * E_ij - |M|, so it is at most mn in absolute value.  Every class set
and count vector is a row set, so every column sum and objective value is
at most m * n * mn = (mn)^2: column sums, row totals, 2P and 2N and the
top-k sums of the half rectangle are int32 when (mn)^2 < 2^31, that is
mn <= 46340, and int64 otherwise.  A stored score (a table entry, a chunk
in the scratch buffer, the half rectangle's score block) is the scan's
base plus the score rows of a set of rows, so at column j it is at most
B_j = |base_j| + sum_i |rows_ij| in magnitude.  The scores are stored in
int16 lanes, where abs cannot wrap, when every B_j is at most 32767, and
in the sums' width otherwise; an int16 chunk is at most 512 KiB.  A row
score is mn - |M| or -|M|, so the rectangle scans of an input with m rows
on its smaller side are int16 whenever m * mn <= 32767, every square input
up to 26 x 26 included; the relaxation scans doubled rows from a base, up
to three times that.  In int16 lanes an abs value is at most max_j B_j and
reads unchanged as a uint16, so the column sums of the abs values run in
uint16 over runs of k = 65535 // max_j B_j columns (k >= 2, capped at n),
exact since k * max_j B_j <= 65535, and only the partial sums and the
remainder run are widened to the sums' width: numpy widens a whole int16
chunk through a buffered cast that costs more than its add and abs.  Row
masks are int64, so at most 63 rows are enumerated: `exact_row_limit`
caps the oracle limit there, and `disc` and the density decrement read it
too.

Both signs of the rectangle oracle come from one pass.  With A(X) =
sum_j |s_j(X)| and the row total t(X) = sum_j s_j(X), max(s, 0) = (s +
|s|) / 2 gives the + part P(X) = sum_j max(s_j, 0) and the - part N(X) =
sum_j max(-s_j, 0) as 2P = A + t and 2N = A - t, exactly (A and t have the
same parity).  t adds up over rows like the scores, so the scan keeps it
in a scalar table for each half.  One add, abs and column sum per chunk
therefore yields both, and a `disc` call costs one scan.  Both parts fit
the scan's width: with c_j and z_j the ones and zeros of column j inside
the rows X, mn * s_j = (mn - |M|) c_j - |M| z_j, so P <= (mn - |M|) |M|
and likewise N <= |M| (mn - |M|), and 2P, 2N <= (mn)^2 / 2.  They are
written in place into one pair of chunk-sized buffers in the sums' width.

The rectangle oracle skips the unions that cannot win (`_bounded_scan`).
Split a union into a low half a (of the first classes) and a high half
b: max(0, x + y) <= max(0, x) + max(0, y) in every column, so 2P(a u b)
<= 2P(a) + 2P(b) and 2N(a u b) <= 2N(a) + 2N(b), each term A +- t of that
half alone.  With the halves of each side sorted by their own part, one
order per sign, the pairs whose bound is at least the best value found
so far (the incumbent) form a staircase, measured by one searchsorted.
A corner tile of the best halves of each sign gives the first incumbent,
and each sign's staircase is then evaluated best first, in tiles of at
most a chunk, as the incumbent rises.  These orders are not mask orders,
so an equal value goes to the smaller class mask explicitly, and every
result is the dense scan's.  On random 18 to 26 sided inputs the tiles
hold 0.4 to 13 % of the 2^K unions.  The dense scan runs unchanged on
grids of at most four chunks (every input with at most 16 columns), and
when the staircases after the corner still cover half the grid: on the
identity, whose halves are positive on disjoint columns, and on inputs
hundreds of columns wide, where the bound is loose.  The relaxation and
the half rectangle keep the dense scan.  The relaxation's triangle bound
still admits 17 to 68 % of its vectors against the optimum itself on
random 16 to 20 sided inputs, and the half rectangle pairs only halves
whose counts add up to the row size, which this staircase does not model.

The relaxation oracle disc0_plus scans half the sign vectors: (x, y) and
(-x, -y) have the same value, so the complement of an optimal row set is
optimal too, and of the two exactly one leaves row m-1 out.  The smallest
optimal row set does, so the class holding row m-1 (the last class) is
left out of the scan.

Past the oracle limit there is one search, `_best_response_search`:
alternating best response on the same column scores, with seeded random
restarts under one swap budget.  `heuristic_rect` (`disc --heuristic`)
runs it over all rectangles, and the density decrement's local-search
fallback over half-by-half ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT, LOCAL_BUDGET_FACTOR, Config
from .errors import CapacityError
from .matrix import BinaryMatrix, _row_classes
from .rng import STREAM_SEARCH, generator

_CHUNK_BITS = 18
_INT16_MAX = 32767  # the largest magnitude whose abs is an int16
_UINT16_MAX = 65535  # the largest sum of a uint16 run
_INT32_MAX_MN = 46340  # the largest mn with (mn)^2 < 2^31
_MASK_BITS = 63  # row masks are int64
_CORNER = 64  # the most halves on a side of the bounded scan's first tile
_DENSE_BITS = 2  # grids of at most 2^_DENSE_BITS chunks are scanned densely


@dataclass(frozen=True)
class Rectangle:
    """A rectangle X x Y together with its exact disc value."""

    X: tuple[int, ...]
    Y: tuple[int, ...]
    value: Fraction

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.X), len(self.Y))

    def verify(self, M: BinaryMatrix) -> bool:
        return disc_value(M, self.X, self.Y) == self.value

    def to_json_obj(self, sign: str) -> dict:
        return {"sign": sign, "X": list(self.X), "Y": list(self.Y),
                "value_num": self.value.numerator,
                "value_den": self.value.denominator}


@dataclass(frozen=True)
class SignVectorPair:
    """x in {-1,+1}^m, y in {-1,+1}^n and the exact value x^T (M - pJ) y."""

    x: tuple[int, ...]
    y: tuple[int, ...]
    value: Fraction

    def verify(self, M: BinaryMatrix) -> bool:
        E = M.int_entries()
        mn = M.m * M.n
        x = np.array(self.x, dtype=np.int64)
        y = np.array(self.y, dtype=np.int64)
        scaled = mn * (x @ E @ y) - M.ones * int(x.sum()) * int(y.sum())
        return Fraction(int(scaled), mn) == self.value


def disc_value(M: BinaryMatrix, X, Y) -> Fraction:
    """Exact disc(X, Y); empty selections are allowed and give 0."""
    Xs = tuple(int(i) for i in X)
    Ys = tuple(int(j) for j in Y)
    for i in Xs:
        if not 0 <= i < M.m:
            raise IndexError(f"row index {i} out of range")
    for j in Ys:
        if not 0 <= j < M.n:
            raise IndexError(f"column index {j} out of range")
    if len(set(Xs)) != len(Xs) or len(set(Ys)) != len(Ys):
        raise ValueError("duplicate row or column indices")
    if not Xs or not Ys:
        return Fraction(0)
    sub_ones = int(M.entries[np.ix_(Xs, Ys)].sum(dtype=np.int64))
    mn = M.m * M.n
    return Fraction(mn * sub_ones - M.ones * len(Xs) * len(Ys), mn)


# -- shared score helpers ---------------------------------------------------------

def _scores(E: np.ndarray, ones: int, weights) -> np.ndarray:
    """Scaled column scores mn * (w @ E)_j - |M| * sum(w), exact in int64.

    For a 0/1 row mask X this is mn * s_j(X), and mn * disc(X, Y) is its sum
    over Y; pass E.T and a column mask for the row scores.  A stack of
    weight vectors gives one score row each.  einsum, because numpy's
    integer matmul of a vector with a C-ordered matrix is about ten times
    slower at n ~ 1000.
    """
    w = np.asarray(weights, dtype=np.int64)
    return (E.size * np.einsum("...i,ij->...j", w, E)
            - ones * w.sum(axis=-1, keepdims=True))


def _respond(scores: np.ndarray, sign: str, size: int | None = None) -> np.ndarray:
    """Best-response mask over scores for sign '+' (large) or '-' (small).

    Without a size: the entries above 0 (resp. below 0).  With a size: the
    size largest (resp. smallest) entries, ties to the lowest index.
    """
    if size is None:
        return scores > 0 if sign == "+" else scores < 0
    order = np.argsort(-scores if sign == "+" else scores, kind="stable")
    mask = np.zeros(len(scores), dtype=bool)
    mask[order[:size]] = True
    return mask


def _best_response_search(M: BinaryMatrix, sign: str,
                          row_size: int | None = None,
                          col_size: int | None = None,
                          start: Rectangle | None = None, seed: int = 0,
                          stream: tuple[int, ...] = ()) -> Rectangle:
    """Alternating best response for a large (sign '+') or small (sign '-')
    disc(X, Y), over |X| = row_size and |Y| = col_size when they are given
    and over all rectangles when they are None.

    A round replaces X by the best response to Y and then Y by the best
    response to X (`_respond`), so its value is at least as good as that
    of any X' x Y of the given sizes.  A descent runs rounds until one
    does not strictly improve the value.  The first descent starts from
    the columns of start (all columns without one), every later one from
    a fresh random column set, generator(seed, STREAM_SEARCH, *stream,
    restart), until LOCAL_BUDGET_FACTOR * max(m, n) swaps are spent
    at m + n a round.  Returns the best rectangle seen, the earliest on a
    tie: never worse than a start of the given sizes.  Not an oracle: the
    value is exact for the rectangle but not certified optimal.
    """
    _check_sign(sign)
    E = M.int_entries()
    gain = 1 if sign == "+" else -1
    budget = LOCAL_BUDGET_FACTOR * max(M.shape)
    ymask = np.ones(M.n, dtype=bool)
    if start is not None:
        ymask = np.isin(np.arange(M.n), start.Y)
    best = descent = None  # best: (gain * value, X mask, Y mask)
    restart = 0
    while budget > 0:
        budget -= M.m + M.n
        xmask = _respond(_scores(E.T, M.ones, ymask), sign, row_size)
        col = _scores(E, M.ones, xmask)
        ymask = _respond(col, sign, col_size)
        value = gain * int(col[ymask].sum())
        if best is None or value > best[0]:
            best = (value, xmask, ymask)
        if descent is None or value > descent:
            descent = value
            continue
        # the descent has ended; the next starts from fresh random columns
        descent = None
        ymask = generator(seed, STREAM_SEARCH, *stream,
                          restart).random(M.n) < 0.5
        restart += 1
    value, xmask, ymask = best
    return Rectangle(X=tuple(np.flatnonzero(xmask).tolist()),
                     Y=tuple(np.flatnonzero(ymask).tolist()),
                     value=Fraction(gain * value, M.m * M.n))


def _half_sizes(M: BinaryMatrix, row_size: int | None,
                col_size: int | None) -> tuple[int, int]:
    """Row and column sizes, a missing one defaulting to half of its side.

    Only a defaulted side has to be even; every size must lie in 1..side.
    """
    sizes = []
    for size, side in ((row_size, M.m), (col_size, M.n)):
        if size is None:
            if side % 2:
                raise ValueError(
                    f"default half size needs an even side, got {M.m}x{M.n}")
            size = side // 2
        if not 0 < size <= side:
            raise ValueError(f"size {size} out of range for a side of {side}")
        sizes.append(size)
    return sizes[0], sizes[1]


# -- the split-table scan ---------------------------------------------------------

def _check_sign(sign: str) -> None:
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")


def exact_row_limit(cfg: Config) -> int:
    """The most rows the exact oracles enumerate: cfg.oracle_limit, capped
    at the 63 rows of an int64 row mask."""
    return min(cfg.oracle_limit, _MASK_BITS)


def _require_oracle_size(m: int, cfg: Config) -> None:
    limit = exact_row_limit(cfg)
    if m > limit:
        raise CapacityError(
            f"exact enumeration over {m} rows exceeds the oracle limit of "
            f"{limit}; use the spectral/heuristic path instead")


def _option_table(steps: np.ndarray, radices: list[int], base) -> np.ndarray:
    """Column t: base plus the first c_k steps of every class k, where c_k
    is digit k of t in the mixed radix (radices[k] + 1), class 0 lowest.

    Class k owns the next radices[k] rows of steps.  Built by replication,
    one add per step, in the dtype of steps.
    """
    table = np.empty((steps.shape[1], math.prod(r + 1 for r in radices)),
                     dtype=steps.dtype)
    table[:, 0] = base
    size, step = 1, 0
    for radix in radices:
        for c in range(radix):
            np.add(table[:, c * size:(c + 1) * size], steps[step][:, None],
                   out=table[:, (c + 1) * size:(c + 2) * size])
            step += 1
        size *= radix + 1
    return table


def _widths(M: BinaryMatrix, rows: np.ndarray, classes: list[list[int]],
            base=0) -> tuple[type, type, int | None]:
    """(lane, accumulator, run) integer widths of a scan of the given
    classes.

    A stored value (table, chunk or score block entry) is base plus a sum
    of score rows of distinct rows of the classes, so at column j it is at
    most B_j = |base_j| + sum_i |rows_ij| in magnitude: the lanes are int16
    when max B_j is at most 32767 (so abs cannot wrap) and the accumulator
    width otherwise.  Column sums and everything derived from them are in
    the accumulator, int32 when mn <= 46340 and int64 otherwise (module
    docstring).  In int16 lanes an abs is at most max B_j and reads
    unchanged as a uint16, so any run of 65535 // max B_j of them (at least
    2, capped at the number of columns) sums exactly in uint16: run is that
    length, and None for wider lanes.
    """
    acc = np.int32 if M.m * M.n <= _INT32_MAX_MN else np.int64
    members = [i for c in classes for i in c]
    bound = int((np.abs(base) + np.abs(rows[members]).sum(axis=0)).max())
    if bound > _INT16_MAX:
        return acc, acc, None
    return np.int16, acc, min(_UINT16_MAX // max(bound, 1), rows.shape[1])


def _scan(M: BinaryMatrix, rows: np.ndarray, classes: list[list[int]],
          values, row_size: int | None = None, base=0,
          totals: bool = False) -> list[tuple[int, int]]:
    """(value, row mask) of the smallest row mask with the largest value,
    one pair per objective.

    rows holds the score row of every row of M (scaled and signed by the
    caller).  Enumerates the given classes of identical rows (from
    _row_classes, possibly a prefix): without a row size every union of
    them, with one every count vector summing to it, each class's count
    taken from its lowest rows.  One chunk per high half; in a chunk, the
    score of a vector at column j is low[j, t] + high[j]: low is a
    read-only view of the split table (the scores of the low halves), high
    the score row of the chunk's high half plus base (a score row, or 0),
    read from a table of the high halves built by the same replication,
    low, high and the tables are in the scan's lanes and every sum in its
    accumulator (`_widths`).  values(low, high, out, acc, run) returns one
    array per objective with one int per vector; out is a scratch array of
    low's shape and lanes that it may overwrite, reused by every chunk, acc
    the accumulator dtype and run the uint16 run length of the abs values
    (`_abs_sum`).  With totals, values also gets high_total =
    sum_j high[j] and low_totals[t] = sum_j low[j, t], from scalar tables
    in the accumulator that only such a scan builds.

    Ties go to the smallest key: the class mask of a union, turned into
    its row mask at the end, or the canonical row mask of a count vector
    (module docstring).  The high-half table is kept as small as a chunk:
    when it would hold more than 2^_CHUNK_BITS scores, the high halves are
    taken in blocks that share their top classes, and each block gets a
    table of its own.
    """
    lane, acc, run = _widths(M, rows, classes, base)
    counted = row_size is not None
    if counted:
        # a class is one step per row, its count c_k its first c_k rows
        radices = [len(c) for c in classes]
        order = [i for c in classes for i in c]
        steps = rows[order].astype(lane)
    else:
        # a class is one step, taken whole or left out
        radices = [1] * len(classes)
        steps = _class_steps(rows, classes, lane)
    ends = list(itertools.accumulate(radices, initial=0))
    chunk_size = 1 << max(0, _CHUNK_BITS - (rows.shape[1] - 1).bit_length())

    def fits(start: int) -> int:
        # the end of the longest run of classes from start whose options
        # fit in a chunk
        end, size = start, 1
        while end < len(radices) and size * (radices[end] + 1) <= chunk_size:
            size *= radices[end] + 1
            end += 1
        return end

    low = fits(0)
    mid = fits(low)
    lo, hi = slice(0, ends[low]), slice(ends[low], ends[mid])
    table = _option_table(steps[lo], radices[:low], 0)
    if counted:
        # a vector's key is its canonical row mask, tabulated with its
        # count; the low halves are grouped by count, masks ascending
        labels = np.array([[1 << i, 1] for i in order], dtype=np.int64)
        lo_keys, counts = _option_table(labels[lo], radices[:low], 0)
        by_count = np.lexsort((lo_keys, counts))
        table, lo_keys = table[:, by_count], lo_keys[by_count]
        starts = np.searchsorted(counts[by_count], np.arange(ends[low] + 2))
    else:
        # a union's key is its class mask, which orders unions as their
        # row masks do
        lo_keys = np.arange(table.shape[1])
    table.flags.writeable = False
    low_totals = table.sum(axis=0, dtype=acc) if totals else None
    # one scratch buffer: a fresh chunk-sized array per chunk costs page
    # faults whenever the allocator hands the freed one back to the system
    scratch = np.empty(table.size, dtype=lane)
    part = slice(None)
    best = None
    for t, options in enumerate(itertools.product(
            *(range(r + 1) for r in reversed(radices[mid:])))):
        # the first c_k steps of each top class k, the last class the
        # slowest digit
        tops = [slice(ends[k], ends[k] + c) for k, c in zip(
            range(len(radices) - 1, mid - 1, -1), options)]
        highs = _option_table(steps[hi], radices[low:mid],
                              base + sum(steps[s].sum(axis=0) for s in tops))
        if totals:
            high_totals = highs.sum(axis=0, dtype=acc)
        if counted:
            high_keys, high_counts = _option_table(
                labels[hi], radices[low:mid],
                sum(labels[s].sum(axis=0) for s in tops)).tolist()
        else:
            high_keys = [((t << (mid - low)) | h) << low
                         for h in range(highs.shape[1])]
        for h, high_key in enumerate(high_keys):
            if counted:
                need = row_size - high_counts[h]
                if not 0 <= need <= ends[low]:
                    continue
                part = slice(starts[need], starts[need + 1])
            chunk = table[:, part]
            row_totals = (high_totals[h], low_totals[part]) if totals else ()
            wins = []
            for vals in values(chunk, highs[:, h],
                               scratch[:chunk.size].reshape(chunk.shape),
                               acc, run, *row_totals):
                idx = int(vals.argmax())
                wins.append((int(vals[idx]),
                             high_key | int(lo_keys[part][idx])))
            # an equal value goes to the smaller key
            best = wins if best is None else [
                new if new[0] > old[0] or new[0] == old[0] and new[1] < old[1]
                else old for old, new in zip(best, wins)]
    if not counted:
        best = [(val, _class_rows(classes, key)) for val, key in best]
    return best


def _class_rows(classes: list[list[int]], key: int) -> int:
    """The row mask of the union of the classes in the class mask key."""
    return sum(1 << i for k, c in enumerate(classes) if key >> k & 1
               for i in c)


def _row_scores(M: BinaryMatrix) -> np.ndarray:
    """mn * s_j({i}) = mn * E_ij - |M| for every row i of M, one score row
    each."""
    return M.m * M.n * M.int_entries() - M.ones


def _abs_sum(low, high, out, acc, run) -> np.ndarray:
    """sum_j |low + high| over the first axis (column j), low and high
    broadcast into out, summed in acc.

    With a run length (int16 lanes, `_widths`) the abs values are summed
    in uint16 over runs of that many columns, and only the partial sums
    are widened to acc: numpy's widening sum of int16 goes through a
    buffered cast that costs more than the add and the abs together.
    """
    np.add(low, high, out=out)
    np.abs(out, out=out)
    if run is None:
        return out.sum(axis=0, dtype=acc)
    magnitudes = out.view(np.uint16)
    whole = len(out) - len(out) % run
    sums = magnitudes[:whole].reshape(-1, run, *out.shape[1:]).sum(
        axis=1, dtype=np.uint16).sum(axis=0, dtype=acc)
    if whole < len(out):
        sums += magnitudes[whole:].sum(axis=0, dtype=np.uint16)
    return sums


def _rect_of_mask(M: BinaryMatrix, sign: str, best: tuple[int, int],
                  col_size: int | None = None) -> Rectangle:
    """The row set of the winning mask with its best-response columns."""
    val, mask = best
    xmask = (mask >> np.arange(M.m)) & 1
    ymask = _respond(_scores(M.int_entries(), M.ones, xmask), sign, col_size)
    return Rectangle(X=tuple(np.flatnonzero(xmask).tolist()),
                     Y=tuple(np.flatnonzero(ymask).tolist()),
                     value=Fraction(val if sign == "+" else -val, M.m * M.n))


def _class_steps(rows: np.ndarray, classes: list[list[int]],
                 lane) -> np.ndarray:
    """The score row of each whole class: a row's times the class size."""
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    return (rows[[c[-1] for c in classes]] * sizes[:, None]).astype(lane)


def _doubled_parts():
    """The objective of a dense rectangle scan: 2P = A + t and 2N = A - t
    in the accumulator, written into one buffer pair made for the first
    chunk (every chunk has the same length); both are at most (mn)^2 / 2
    (module docstring)."""
    parts = []

    def doubled_parts(low, high, out, acc, run, high_total, low_totals):
        if not parts:
            parts.extend(np.empty((2, low.shape[1]), dtype=acc))
        two_p, two_n = parts
        A = _abs_sum(low, high[:, None], out, acc, run)
        np.add(low_totals, high_total, out=two_n)
        np.add(A, two_n, out=two_p)
        np.subtract(A, two_n, out=two_n)
        return two_p, two_n

    return doubled_parts


def _pair_parts(lo, hi, out, acc, run) -> tuple[np.ndarray, np.ndarray]:
    """2P and 2N of the union of every half in lo with every half in hi,
    each (score table, row totals), one row per half of lo: a tile of the
    bounded scan, added into out of shape (n, |lo|, |hi|)."""
    (lt, ltot), (ht, htot) = lo, hi
    A = _abs_sum(lt[:, :, None], ht[:, None, :], out, acc, run)
    t = ltot[:, None] + htot
    return A + t, A - t


def _bounded_scan(M: BinaryMatrix, rows: np.ndarray,
                  classes: list[list[int]]) -> list[tuple[int, int]]:
    """(2P, row mask) and (2N, row mask): for each sign the smallest row
    mask with the largest doubled part over all unions of the classes, as
    `_scan` finds them with `_doubled_parts`, from the staircase of unions
    whose bound reaches the incumbent (module docstring).

    ceil(K/2) classes make the low halves and the rest the high halves,
    at most a chunk of halves a side; classes left over are the top
    classes of an outer loop of blocks, each with its own high table.  The
    first block's corner tile takes the best 1/8 of each side, at most 64
    x 64 and a chunk of pairs.  A tile is the next rows that need more
    than half the columns of the first, at most a chunk of pairs.
    """
    lane, acc, run = _widths(M, rows, classes)
    n = rows.shape[1]
    chunk_size = 1 << max(0, _CHUNK_BITS - (n - 1).bit_length())
    side = chunk_size.bit_length() - 1
    if len(classes) <= side + _DENSE_BITS:
        return _scan(M, rows, classes, _doubled_parts(), totals=True)
    steps = _class_steps(rows, classes, lane)
    low = min((len(classes) + 1) // 2, side)
    mid = min(len(classes) - low, side)
    scratch = np.empty(chunk_size * n, dtype=lane)
    best = {"+": (0, 0), "-": (0, 0)}  # the empty union: both parts 0

    def halves(table, keys):
        # (table, totals, keys) of the halves, and per sign their order of
        # descending part with the parts in that order, in int64
        A = _abs_sum(table, 0, scratch[:table.size].reshape(table.shape),
                     acc, run)
        totals = table.sum(axis=0, dtype=acc)
        orders = {}
        for sign, part in (("+", A + totals), ("-", A - totals)):
            part = part.astype(np.int64)
            order = np.argsort(-part, kind="stable")
            orders[sign] = (order, part[order])
        return (table, totals, keys), orders

    def arrange(half, order):
        return tuple(x[..., order] for x in half)

    def evaluate(lo, hi):
        # every union of a low half in lo and a high half in hi, each
        # (table, totals, keys); the longer side innermost
        if len(lo[1]) > len(hi[1]):
            lo, hi = hi, lo
        out = scratch[:n * len(lo[1]) * len(hi[1])].reshape(
            n, len(lo[1]), len(hi[1]))
        for sign, part in zip("+-", _pair_parts(lo[:2], hi[:2], out, acc,
                                                 run)):
            value = int(part.max())
            if value >= best[sign][0]:
                # an equal value goes to the smaller key
                i, j = np.nonzero(part == value)
                key = int((lo[2][i] | hi[2][j]).min())
                if value > best[sign][0] or key < best[sign][1]:
                    best[sign] = (value, key)

    def reach(sign, lo_parts, hi_parts):
        # per low half, how many high halves give a bound at least the
        # incumbent (both sides in descending order of their parts)
        return np.searchsorted(-hi_parts, lo_parts - best[sign][0],
                               side="right")

    def staircase(sign, lo, lo_parts, hi, hi_parts, corner):
        # the rows of the corner start after its columns
        i = 0
        while i < len(lo_parts):
            first, stop = ((corner[1], corner[0]) if i < corner[0]
                           else (0, len(lo_parts)))
            width = int(reach(sign, lo_parts[i:i + 1], hi_parts)[0]) - first
            if width <= 0:
                if i >= corner[0]:
                    break
                i = corner[0]
                continue
            wide = reach(sign, lo_parts[i:min(stop, i + chunk_size // width)],
                         hi_parts) - first > width // 2
            end = i + max(1, int(wide.sum()))
            evaluate(tuple(x[..., i:end] for x in lo),
                     tuple(x[..., first:first + width] for x in hi))
            i = end

    lo, lo_orders = halves(_option_table(steps[:low], [1] * low, 0),
                           np.arange(1 << low))
    top = steps[low + mid:]
    for t in range(1 << len(top)):
        base = top[[k for k in range(len(top)) if t >> k & 1]].sum(axis=0)
        hi, hi_orders = halves(
            _option_table(steps[low:low + mid], [1] * mid, base),
            (t << mid | np.arange(1 << mid)) << low)
        corner = (0, 0)
        if t == 0:
            rows_c = max(1, min(_CORNER, (1 << low) >> 3))
            corner = (rows_c, max(1, min(_CORNER, (1 << mid) >> 3,
                                         chunk_size // rows_c)))
            for sign in "+-":
                evaluate(arrange(lo, lo_orders[sign][0][:corner[0]]),
                         arrange(hi, hi_orders[sign][0][:corner[1]]))
            area = 0
            for sign in "+-":
                ends = reach(sign, lo_orders[sign][1], hi_orders[sign][1])
                ends[:corner[0]] -= corner[1]
                area += int(np.maximum(ends, 0).sum())
            if 2 * area >= 1 << (low + mid):
                return _scan(M, rows, classes, _doubled_parts(), totals=True)
            lo_sorted = {sign: arrange(lo, lo_orders[sign][0])
                         for sign in "+-"}
        for sign in "+-":
            staircase(sign, lo_sorted[sign], lo_orders[sign][1],
                      arrange(hi, hi_orders[sign][0]), hi_orders[sign][1],
                      corner)
    return [(val, _class_rows(classes, key)) for val, key in best.values()]


# -- exact oracles ------------------------------------------------------------------

def best_rect_pair(M: BinaryMatrix,
                   cfg: Config = DEFAULT) -> tuple[Rectangle, Rectangle]:
    """Exact max and min of disc(X, Y) over all rectangles, from one scan.

    Enumerates the unions X of classes of identical rows of the smaller
    side (module docstring); for fixed X the optimal Y is {j : s_j(X) > 0}
    for the maximum and {j : s_j(X) < 0} for the minimum.
    Both parts come doubled from one add, abs and column sum per tile,
    2P = A + t and 2N = A - t (module docstring), and the bounded scan
    skips the unions that cannot beat the best found so far.  Each sign
    keeps its own first (smallest) row mask with the largest part, then
    halves it.
    """
    if M.m > M.n:
        return tuple(Rectangle(X=r.Y, Y=r.X, value=r.value)
                     for r in best_rect_pair(M.transpose(), cfg))
    _require_oracle_size(M.m, cfg)
    best = _bounded_scan(M, _row_scores(M), _row_classes(M.entries))
    return tuple(_rect_of_mask(M, sign, (val // 2, mask))
                 for sign, (val, mask) in zip("+-", best))


def best_rect(M: BinaryMatrix, sign: str, cfg: Config = DEFAULT) -> Rectangle:
    """Exact optimum of disc(X, Y) over all rectangles.

    sign '+' maximizes disc, '-' minimizes it (so the negative discrepancy
    is -best_rect(M, '-').value).  One half of best_rect_pair: the scan
    that finds one sign finds the other at no extra pass.
    """
    _check_sign(sign)
    return best_rect_pair(M, cfg)["+-".index(sign)]


def disc_plus(M: BinaryMatrix, cfg: Config = DEFAULT) -> Fraction:
    return best_rect(M, "+", cfg).value


def disc_minus(M: BinaryMatrix, cfg: Config = DEFAULT) -> Fraction:
    """Negative discrepancy as a nonnegative Fraction."""
    return -best_rect(M, "-", cfg).value


def best_half_rect(M: BinaryMatrix, sign: str,
                   row_size: int | None = None, col_size: int | None = None,
                   cfg: Config = DEFAULT) -> Rectangle:
    """Exact optimum of disc(X, Y) over |X| = row_size, |Y| = col_size.

    A missing size defaults to half its side, which must then be even.  For
    fixed X the optimal Y consists of the col_size largest (sign '+') or
    smallest (sign '-') column scores, ties to the lowest index.  Rows are
    enumerated by class: class k of s_k identical rows contributes a count
    c_k in 0..s_k, the counts summing to row_size, so prod_k (s_k + 1)
    count vectors are scanned instead of C(m, row_size) row sets.  The
    value depends on the counts only, and the smallest row mask with given
    counts takes the c_k lowest rows of each class, so returning the
    smallest such mask among the optimal count vectors keeps the tie rule
    of a scan over all row sets: the smallest optimal row mask.
    """
    _check_sign(sign)
    row_size, col_size = _half_sizes(M, row_size, col_size)
    _require_oracle_size(M.m, cfg)
    top = M.n - col_size

    def largest(low, high, out, acc, run):
        # a fresh array: numpy partitions it faster than the scratch buffer
        scores = low + high[:, None]
        scores.partition(top, axis=0)
        return (scores[top:].sum(axis=0, dtype=acc),)

    rows = _row_scores(M)
    (best,) = _scan(M, rows if sign == "+" else -rows,
                    _row_classes(M.entries), largest, row_size)
    return _rect_of_mask(M, sign, best, col_size)


def disc0_plus(M: BinaryMatrix, cfg: Config = DEFAULT) -> SignVectorPair:
    """Exact max of x^T (M - pJ) y over x in [-1,1]^m, y in [-1,1]^n.

    The objective is linear in every coordinate, so the optimum sits at a
    +-1 vertex; for fixed x the optimal y_j is the sign of the column score
    (zero scores get +1).  With x = +1 on X and -1 elsewhere, the column
    scores are 2 s(X) - s([m]), so the value of X is sum_j |2 s_j(X) -
    s_j([m])|, at most (mn)^2 like every sum of the scan, which enumerates
    the doubled score rows from the base -s([m]).  X is a union of classes
    of identical rows, and x and -x have the same value, so the smallest
    optimal X leaves out the class of row m-1 (module docstring): with K
    classes only the 2^(K-1) unions of the other classes are scanned.
    """
    if M.m > M.n:
        pair = disc0_plus(M.transpose(), cfg)
        return SignVectorPair(x=pair.y, y=pair.x, value=pair.value)
    _require_oracle_size(M.m, cfg)
    rows = _row_scores(M)

    def signed_total(low, high, out, acc, run):
        return (_abs_sum(low, high[:, None], out, acc, run),)

    # the high halves start from -s([m]), so high is 2 s(high half) - s([m]);
    # the last class holds row m-1, which the smallest optimum leaves out
    ((val, mask),) = _scan(M, 2 * rows, _row_classes(M.entries)[:-1],
                           signed_total, None, -rows.sum(axis=0))
    x = 2 * ((mask >> np.arange(M.m)) & 1) - 1
    y = np.where(_scores(M.int_entries(), M.ones, x) >= 0, 1, -1)
    return SignVectorPair(x=tuple(x.tolist()), y=tuple(y.tolist()),
                          value=Fraction(val, M.m * M.n))


def heuristic_rect(M: BinaryMatrix, sign: str, seed: int = 0) -> Rectangle:
    """Best-response search for a large-|disc| rectangle at any size.

    Not an oracle: the returned value is an exact disc value for the
    returned rectangle, hence a valid one-sided bound, but it is not
    certified optimal.  Deterministic given seed: `_best_response_search`
    without sizes, from all columns and then from seeded random column
    sets until its swap budget is spent.
    """
    return _best_response_search(M, sign, seed=seed)
