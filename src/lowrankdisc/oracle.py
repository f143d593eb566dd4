"""Exact discrepancy oracles for small matrices.

For a 0/1 matrix M with density p = |M|/(mn), the rectangle discrepancy is

    disc(X, Y) = |M[X x Y]| - p * |X| * |Y|.

Everything here is computed in integers scaled by mn (so disc values are
Fractions with denominator dividing mn) and is exact.  The oracles
enumerate the row sets X of the smaller side; for a fixed X the optimal
column set follows from the column scores

    mn * s_j(X) = mn * |M[X x {j}]| - |M| * |X|,

which makes the oracle exact rather than heuristic.  Scores add up over
rows, so one split-table scan serves all three oracles: the low L bits of
the row mask index a table of the scores of all 2^L low-half row sets, built
once, and each chunk of the scan is the masks sharing one high half, scored
by one broadcast add of that half's score row onto the table, in int64.  L
is chosen from n so that a chunk (and the table) holds at most 2^18 scores,
2 MiB, whatever the number of columns.

Tie-breaking is deterministic everywhere: masks are scanned in increasing
order (also when only masks of one popcount are scanned) and ties keep the
first (smallest-mask) winner; column ties prefer the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import DEFAULT, Config
from .errors import CapacityError
from .matrix import BinaryMatrix

_CHUNK_BITS = 18
_RESTARTS = 8


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


def _require_oracle_size(m: int, cfg: Config) -> None:
    if m > cfg.oracle_limit:
        raise CapacityError(
            f"exact enumeration over {m} rows exceeds the oracle limit of "
            f"{cfg.oracle_limit}; use the spectral/heuristic path instead")


def _scan(M: BinaryMatrix, sign: str, popcount: int | None = None):
    """Yield (masks, scores) chunks over the row sets of M, masks ascending.

    scores[j, t] is mn * s_j(X) for the row set X with bitmask masks[t],
    negated for sign '-' so that every oracle maximises.  With a popcount,
    only the masks of that many rows are scanned.
    """
    m, n = M.shape
    rows = _scores(M.int_entries(), M.ones, np.eye(m, dtype=np.int64))
    if sign == "-":
        rows = -rows
    low = min(m, max(0, _CHUNK_BITS - (n - 1).bit_length()))
    table = np.zeros((n, 1 << low), dtype=np.int64)
    sizes = np.zeros(1 << low, dtype=np.int64)
    for i in range(low):
        table[:, 1 << i:2 << i] = table[:, :1 << i] + rows[i][:, None]
        sizes[1 << i:2 << i] = sizes[:1 << i] + 1
    lo_masks = np.arange(1 << low, dtype=np.int64)
    if popcount is not None:
        # group the low halves by popcount, ascending within each group
        lo_masks = np.argsort(sizes, kind="stable")
        table = table[:, lo_masks]
        starts = np.searchsorted(sizes[lo_masks], np.arange(low + 2))
    high_bits = np.arange(m - low)
    part = slice(None)
    for high in range(1 << (m - low)):
        if popcount is not None:
            need = popcount - high.bit_count()
            if not 0 <= need <= low:
                continue
            part = slice(starts[need], starts[need + 1])
        high_row = ((high >> high_bits) & 1) @ rows[low:]
        yield (high << low) | lo_masks[part], table[:, part] + high_row[:, None]


def _first_max(chunks, value) -> tuple[int, int]:
    """(value, mask) of the first mask of the scan with the largest value.

    value maps a scores chunk (which it may overwrite) to one int per mask.
    """
    best_val, best_mask = None, 0
    for masks, scores in chunks:
        vals = value(scores)
        idx = int(np.argmax(vals))
        if best_val is None or vals[idx] > best_val:
            best_val, best_mask = int(vals[idx]), int(masks[idx])
    return best_val, best_mask


def _rect_of_mask(M: BinaryMatrix, sign: str, best: tuple[int, int],
                  col_size: int | None = None) -> Rectangle:
    """The row set of the winning mask with its best-response columns."""
    val, mask = best
    xmask = (mask >> np.arange(M.m)) & 1
    ymask = _respond(_scores(M.int_entries(), M.ones, xmask), sign, col_size)
    return Rectangle(X=tuple(np.flatnonzero(xmask).tolist()),
                     Y=tuple(np.flatnonzero(ymask).tolist()),
                     value=Fraction(val if sign == "+" else -val, M.m * M.n))


# -- exact oracles ------------------------------------------------------------------

def best_rect(M: BinaryMatrix, sign: str, cfg: Config = DEFAULT) -> Rectangle:
    """Exact optimum of disc(X, Y) over all rectangles.

    sign '+' maximizes disc, '-' minimizes it (so the negative discrepancy
    is -best_rect(M, '-').value).  Enumerates subsets of the smaller side;
    for fixed X the optimal Y is {j : s_j(X) > 0} (resp. < 0).
    """
    _check_sign(sign)
    if M.m > M.n:
        r = best_rect(M.transpose(), sign, cfg)
        return Rectangle(X=r.Y, Y=r.X, value=r.value)
    _require_oracle_size(M.m, cfg)

    def positive_part(scores):
        return np.maximum(scores, 0, out=scores).sum(axis=0)

    return _rect_of_mask(M, sign, _first_max(_scan(M, sign), positive_part))


def disc_plus(M: BinaryMatrix, cfg: Config = DEFAULT) -> Fraction:
    return best_rect(M, "+", cfg).value


def disc_minus(M: BinaryMatrix, cfg: Config = DEFAULT) -> Fraction:
    """Negative discrepancy as a nonnegative Fraction."""
    return -best_rect(M, "-", cfg).value


def disc_max(M: BinaryMatrix, cfg: Config = DEFAULT) -> Fraction:
    return max(disc_plus(M, cfg), disc_minus(M, cfg))


def best_half_rect(M: BinaryMatrix, sign: str,
                   row_size: int | None = None, col_size: int | None = None,
                   cfg: Config = DEFAULT) -> Rectangle:
    """Exact optimum of disc(X, Y) over |X| = row_size, |Y| = col_size.

    A missing size defaults to half its side, which must then be even.  For
    fixed X the optimal Y consists of the col_size largest (sign '+') or
    smallest (sign '-') column scores, ties to the lowest index.
    """
    _check_sign(sign)
    row_size, col_size = _half_sizes(M, row_size, col_size)
    _require_oracle_size(M.m, cfg)
    top = M.n - col_size

    def largest(scores):
        scores.partition(top, axis=0)
        return scores[top:].sum(axis=0)

    best = _first_max(_scan(M, sign, row_size), largest)
    return _rect_of_mask(M, sign, best, col_size)


def disc0_plus(M: BinaryMatrix, cfg: Config = DEFAULT) -> SignVectorPair:
    """Exact max of x^T (M - pJ) y over x in [-1,1]^m, y in [-1,1]^n.

    The objective is linear in every coordinate, so the optimum sits at a
    +-1 vertex; for fixed x the optimal y_j is the sign of the column score
    (zero scores get +1).  With x = +1 on X and -1 elsewhere, the column
    scores are 2 s(X) - s([m]).
    """
    if M.m > M.n:
        pair = disc0_plus(M.transpose(), cfg)
        return SignVectorPair(x=pair.y, y=pair.x, value=pair.value)
    _require_oracle_size(M.m, cfg)
    E = M.int_entries()
    full = _scores(E, M.ones, np.ones(M.m, dtype=np.int64))

    def signed_total(scores):
        scores *= 2
        scores -= full[:, None]
        return np.abs(scores, out=scores).sum(axis=0)

    val, mask = _first_max(_scan(M, "+"), signed_total)
    x = 2 * ((mask >> np.arange(M.m)) & 1) - 1
    y = np.where(_scores(E, M.ones, x) >= 0, 1, -1)
    return SignVectorPair(x=tuple(x.tolist()), y=tuple(y.tolist()),
                          value=Fraction(val, M.m * M.n))


def heuristic_rect(M: BinaryMatrix, sign: str, seed: int = 0) -> Rectangle:
    """Alternating best-response search for a large-|disc| rectangle.

    Not an oracle: the returned value is an exact disc value for the
    returned rectangle, hence a valid one-sided bound, but it is not
    certified optimal.  Works at any size.  Deterministic given seed: the
    descents start from all columns and from seven seeded random column
    sets.
    """
    from .rng import STREAM_SEARCH, generator  # local import to avoid cycle

    _check_sign(sign)
    E = M.int_entries()
    gain = 1 if sign == "+" else -1

    def descend(ymask: np.ndarray):
        val = 0
        for _ in range(64):
            xmask = _respond(_scores(E.T, M.ones, ymask), sign)
            col = _scores(E, M.ones, xmask)
            ymask = _respond(col, sign)
            new = int(col[ymask].sum())
            if new == val:
                break
            val = new
        return val, xmask, ymask

    starts = [np.ones(M.n, dtype=bool)]
    gen = generator(seed, STREAM_SEARCH)
    for _ in range(_RESTARTS - 1):
        starts.append(gen.random(M.n) < 0.5)

    best = (0, np.zeros(M.m, dtype=bool), np.zeros(M.n, dtype=bool))
    for ymask in starts:
        val, xm, ym = descend(ymask)
        if gain * val > gain * best[0]:
            best = (val, xm, ym)
    val, xm, ym = best
    X = tuple(int(i) for i in np.nonzero(xm)[0])
    Y = tuple(int(j) for j in np.nonzero(ym)[0])
    return Rectangle(X=X, Y=Y, value=Fraction(val, M.m * M.n))
