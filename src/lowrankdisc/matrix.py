"""Dense binary matrices with exact integer/rational bookkeeping.

Everything downstream (discrepancy oracles, spectral certificates, the
density-decrement loop) leans on these invariants:

  * entries are 0/1, stored dense, immutable after construction;
  * counts (ones, degrees) are integers, densities are Fractions;
  * rank is exact over the rationals: elimination over GF(p) on the
    distinct rows and columns, in float64 block updates, gives a lower
    bound, a p-adic certificate in float64 matmuls proves it is also an
    upper bound, and the result is memoized on the matrix.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .config import DEFAULT
from .errors import CapacityError, MatrixParseError

# First prime of the exact rank; the primes after it are tried only when it
# divides a minor that decides the rank.
_MODP = 1_000_003


class BinaryMatrix:
    """Immutable dense 0/1 matrix with cached degree vectors."""

    __slots__ = ("entries", "m", "n", "ones", "row_deg", "col_deg", "_digest",
                 "_rank")

    def __init__(self, entries, capacity: int = DEFAULT.dense_capacity):
        E = np.ascontiguousarray(entries, dtype=np.uint8)
        if E.ndim != 2 or E.shape[0] < 1 or E.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-d 0/1 array")
        if E.size > capacity:
            raise CapacityError(
                f"matrix with {E.shape[0]}x{E.shape[1]} = {E.size} entries "
                f"exceeds the dense capacity of {capacity}")
        if E.max(initial=0) > 1:
            raise ValueError("entries must be 0 or 1")
        E.setflags(write=False)
        self.entries = E
        self.m, self.n = (int(E.shape[0]), int(E.shape[1]))
        self.row_deg = E.sum(axis=1, dtype=np.int64)
        self.col_deg = E.sum(axis=0, dtype=np.int64)
        self.row_deg.setflags(write=False)
        self.col_deg.setflags(write=False)
        self.ones = int(self.row_deg.sum())
        self._digest = None
        self._rank = None

    # -- basic accessors ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.m, self.n)

    def density(self) -> Fraction:
        return Fraction(self.ones, self.m * self.n)

    def avg_degree(self) -> Fraction:
        return Fraction(2 * self.ones, self.m + self.n)

    def max_degree(self) -> int:
        return max(int(self.row_deg.max()), int(self.col_deg.max()))

    def int_entries(self) -> np.ndarray:
        return self.entries.astype(np.int64)

    def transpose(self) -> "BinaryMatrix":
        return BinaryMatrix(self.entries.T)

    def __eq__(self, other) -> bool:
        return (isinstance(other, BinaryMatrix)
                and self.shape == other.shape
                and bool(np.array_equal(self.entries, other.entries)))

    def __hash__(self):
        return hash((self.shape, self.digest()))

    def __repr__(self):
        return f"BinaryMatrix({self.m}x{self.n}, ones={self.ones})"

    def digest(self) -> str:
        """Hex digest of the canonical text form, used as matrix_id."""
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_text().encode()).hexdigest()[:16]
        return self._digest

    # -- text format ---------------------------------------------------------
    # First line "m n", then m newline-terminated lines of exactly n chars
    # from {0,1}.  Ragged or malformed input is rejected.

    def to_text(self) -> str:
        buf = np.empty((self.m, self.n + 1), dtype=np.uint8)
        buf[:, :-1] = self.entries + ord("0")
        buf[:, -1] = ord("\n")
        return f"{self.m} {self.n}\n" + buf.tobytes().decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "BinaryMatrix":
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines = lines[:-1]
        if not lines:
            raise MatrixParseError("empty input")
        header = lines[0].split()
        if len(header) != 2:
            raise MatrixParseError(f"header must be 'm n', got {lines[0]!r}")
        try:
            m, n = int(header[0]), int(header[1])
        except ValueError as exc:
            raise MatrixParseError(f"non-integer header {lines[0]!r}") from exc
        if m < 1 or n < 1:
            raise MatrixParseError(f"dimensions must be positive, got {m}x{n}")
        if len(lines) - 1 != m:
            raise MatrixParseError(
                f"expected {m} rows, found {len(lines) - 1}")
        rows = np.empty((m, n), dtype=np.uint8)
        for i, line in enumerate(lines[1:]):
            if len(line) != n:
                raise MatrixParseError(
                    f"row {i} has {len(line)} characters, expected {n}")
            if line.strip("01") != "":
                raise MatrixParseError(f"row {i} contains characters outside 0/1")
            rows[i] = np.frombuffer(line.encode("ascii"), dtype=np.uint8) - ord("0")
        return cls(rows)


# -- exact rank ---------------------------------------------------------------

def _row_classes(E: np.ndarray) -> list[list[int]]:
    """The classes of identical rows of the 0/1 array E, each in ascending
    row order, ordered by their highest row.

    Rows are grouped by the bytes of their packed bits, not sorted.  Under
    this order a union of classes compares by class mask as by row mask,
    which the exact oracles rely on.
    """
    packed = np.packbits(E, axis=1)
    data, width = packed.tobytes(), packed.shape[1]
    classes: dict[bytes, list[int]] = {}
    for i in range(E.shape[0]):
        classes.setdefault(data[i * width:(i + 1) * width], []).append(i)
    return sorted(classes.values(), key=lambda rows: rows[-1])


def _distinct(E: np.ndarray) -> np.ndarray:
    """E restricted to its first copy of every row and every column, in
    their order in E.  Copies add no rank, so the rank is E's."""
    E = E[sorted(rows[0] for rows in _row_classes(E))]
    return E[:, sorted(cols[0] for cols in _row_classes(E.T))]


# Pivots of _pivots_mod_p kept pending before they update the trailing
# matrix: the block of one float64 matmul.
_PENDING = 128


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x minus the multiple of p nearest to it, in place: zero iff p
    divides x, and strictly between -p and p otherwise.

    Needs integers with |x| < 2^53, which float64 holds exactly, and
    |x| / p < 2^31, so that the float64 quotient is off by less than 2^-21
    and the rounded one by at most one from the nearest: the result, at
    most p/2 + p * 2^-21 in absolute value, is exact.  For p < 2^20 it is
    the balanced residue, at most p/2 in absolute value: x / p is then a
    half-integer or at least 1/(2p) > 2^-21 away from one.
    """
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


def _pivots_mod_p(E: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot rows and pivot columns of Gaussian elimination over GF(p).

    Their number is the rank over GF(p), a lower bound on the rational rank.
    Rows come in pivot order, so every leading principal minor of the pivot
    block E[rows][:, cols] is nonzero mod p.  The pivot in each column is
    the first entry not divisible by p below the pivots found so far.

    Updates are delayed: the multipliers L and reduced rows U of up to
    _PENDING pivots are kept aside, each column is brought up to date by
    one matvec before its pivot search, and a full block enters the
    trailing matrix as one float64 matmul.  Every stored residue lies
    strictly between -p and p (`_reduce`), so every sum is below
    p + _PENDING * p^2 < 2^53 and exact.
    """
    b = _PENDING
    assert p + b * p * p < 2 ** 53, "modulus too large for float64"
    A = _reduce(np.asfortranarray(E, dtype=np.float64), p)
    m, n = A.shape
    perm = np.arange(m)
    L = np.zeros((m, b))  # multipliers, by current row position
    Ut = np.zeros((n, b))  # reduced pivot rows, one per column of Ut
    cols = []
    r = k = 0
    for c in range(n):
        if r == m:
            break
        col = _reduce(A[r:, c] - L[r:, :k] @ Ut[c, :k], p)
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        i = int(nz[0])
        inv = pow(int(col[i]), -1, p)
        if i:
            A[[r, r + i]] = A[[r + i, r]]
            L[[r, r + i]] = L[[r + i, r]]
            perm[[r, r + i]] = perm[[r + i, r]]
            col[i] = col[0]  # col[0], the pivot, gets no multiplier
        L[r + 1:, k] = _reduce(col[1:] * inv, p)
        Ut[c + 1:, k] = _reduce(A[r, c + 1:] - Ut[c + 1:, :k] @ L[r, :k], p)
        cols.append(c)
        r += 1
        k += 1
        if k == b:
            A[r:, c + 1:] -= (Ut[c + 1:] @ L[r:].T).T
            _reduce(A[r:, c + 1:], p)
            k = 0
    return perm[:r], np.array(cols, dtype=np.int64)


def _inverse_mod_p(B: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a float64 matrix whose leading principal minors are
    all nonzero mod p, by 2 x 2 block elimination (no pivoting needed).

    B and every block are balanced residues (`_reduce`), at most p/2 in
    absolute value, so a product sums at most side * p^2/4, and p/2 more
    where a block is added to it: within what `_reduce` needs.
    """
    r = len(B)
    bound = r * p * p / 4 + p / 2
    assert p < 2 ** 20 and bound < min(2 ** 53, p * 2 ** 31), \
        "modulus too large for float64"
    if r <= 1:
        return _reduce(np.array([pow(int(b), -1, p) for b in B.flat],
                                dtype=np.float64).reshape(B.shape), p)
    h = r // 2
    Ai = _inverse_mod_p(B[:h, :h], p)
    T = _reduce(Ai @ B[:h, h:], p)
    Si = _inverse_mod_p(_reduce(B[h:, h:] - B[h:, :h] @ T, p), p)
    X21 = _reduce(-_reduce(Si @ B[h:, :h], p) @ Ai, p)
    out = np.empty_like(B)
    out[:h, :h] = _reduce(Ai - T @ X21, p)
    out[:h, h:] = _reduce(-T @ Si, p)
    out[h:, :h] = X21
    out[h:, h:] = Si
    return out


def _schur_vanishes(E: np.ndarray, R: np.ndarray, C: np.ndarray,
                    p: int) -> bool:
    """True iff rank(E) over the rationals equals len(R).

    B = E[R, C] is nonsingular mod p, hence over Q, so the rank is len(R)
    plus the rank of the Schur complement S = E[R', C'] - E[R', C] B^-1
    E[R, C'] on the other rows R' and columns C'.  det(B) * S holds
    bordered 0/1 minors, each at most H = (r+1)^((r+1)/2) in absolute
    value.  X = B^-1 E[R, C'] is lifted p-adically (Dixon) digit by digit;
    W tracks (E[R', C'] - E[R', C] X_<k) / p^k, which must stay integral.
    Once p^k > H, det(B) * S is divisible by p^k and so zero.  If the
    residual rhs reaches zero, X is exact and S = p^k W.  False means p
    divided a nonzero minor: the GF(p) rank was too small.
    """
    r = len(R)
    # digits of X are balanced residues, at most p/2 in absolute value
    # (`_reduce`), so a step takes a bound c on |rhs| and |W| to c/p + r/2,
    # and c = r holds throughout; every sum (Bi @ rhs, rhs - B @ X,
    # W - A @ X) is then at most r(r+1)p/2, within what `_reduce` needs
    bound = r * (r + 1) * p / 2
    assert p < 2 ** 20 and bound < min(2 ** 53, p * 2 ** 31), \
        "modulus too large for float64"
    Rc = np.delete(np.arange(E.shape[0]), R)
    Cc = np.delete(np.arange(E.shape[1]), C)
    B = E[np.ix_(R, C)].astype(np.float64)
    A = E[np.ix_(Rc, C)].astype(np.float64)
    rhs = E[np.ix_(R, Cc)].astype(np.float64)
    W = E[np.ix_(Rc, Cc)].astype(np.float64)
    Bi = _inverse_mod_p(B, p)
    hadamard_sq, pk_sq = (r + 1) ** (r + 1), 1
    while pk_sq <= hadamard_sq:
        if not rhs.any():
            return not W.any()
        X = _reduce(Bi @ rhs, p)
        rhs = (rhs - B @ X) / p
        W -= A @ X
        Q = np.rint(W / p)  # exact quotient iff p divides every entry
        if (Q * p != W).any():
            return False
        W = Q
        pk_sq *= p * p
    return True


def _next_prime(p: int) -> int:
    p += 1
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    return p


def rank(M: BinaryMatrix) -> int:
    """Exact rank over the rationals, memoized on M.

    Everything runs on the distinct rows and columns of M, which have its
    rank.  Elimination over GF(p) gives pivot rows R and columns C; full
    rank is then certain, and otherwise `_schur_vanishes` proves rank <= |R|
    with float64 matmuls.  If p divided a minor, the next prime is tried.
    """
    if M._rank is None:
        E = _distinct(M.entries)
        p = _MODP
        R, C = _pivots_mod_p(E, p)
        while len(R) < min(E.shape) and not _schur_vanishes(E, R, C, p):
            p = _next_prime(p)
            R, C = _pivots_mod_p(E, p)
        M._rank = len(R)
    return M._rank


# -- structural operations ----------------------------------------------------

def blow_up(M: BinaryMatrix, a: int, b: int,
            capacity: int = DEFAULT.dense_capacity) -> BinaryMatrix:
    """Repeat every row a times and every column b times.

    Entry (i, j) of the result is M[i // a, j // b].  Rank and density are
    preserved; discrepancy scales by a*b.
    """
    if a < 1 or b < 1:
        raise ValueError("blow-up factors must be positive")
    if a * M.m * b * M.n > capacity:
        raise CapacityError(
            f"blow-up to {a * M.m}x{b * M.n} exceeds the dense capacity "
            f"of {capacity} entries")
    return BinaryMatrix(np.repeat(np.repeat(M.entries, a, axis=0), b, axis=1))


def _check_indices(idx, bound: int, what: str) -> tuple[int, ...]:
    out = tuple(int(i) for i in idx)
    if len(out) == 0:
        raise ValueError(f"empty {what} selection")
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate {what} indices")
    for i in out:
        if not 0 <= i < bound:
            raise IndexError(f"{what} index {i} out of range [0, {bound})")
    return tuple(sorted(out))


def submatrix(M: BinaryMatrix, X, Y) -> BinaryMatrix:
    """Submatrix induced by row set X and column set Y (0-based, nonempty)."""
    Xs = _check_indices(X, M.m, "row")
    Ys = _check_indices(Y, M.n, "column")
    return BinaryMatrix(M.entries[np.ix_(Xs, Ys)])


def complement(M: BinaryMatrix) -> BinaryMatrix:
    """Entrywise 1 - M.  Rank can grow by at most one."""
    return BinaryMatrix(np.uint8(1) - M.entries)


class WeightedBinaryMatrix:
    """A base matrix plus positive row/column multiplicities.

    Represents the matrix in which row i appears row_mult[i] times and
    column j appears col_mult[j] times, without materializing it;
    `materialize` builds the dense blow-up only when it fits the capacity
    budget.
    """

    __slots__ = ("base", "row_mult", "col_mult")

    def __init__(self, base: BinaryMatrix, row_mult, col_mult):
        rm = np.asarray(row_mult, dtype=np.int64)
        cm = np.asarray(col_mult, dtype=np.int64)
        if rm.shape != (base.m,) or cm.shape != (base.n,):
            raise ValueError("multiplicity vectors must match base dimensions")
        if rm.min() < 1 or cm.min() < 1:
            raise ValueError("all multiplicities must be >= 1")
        rm.setflags(write=False)
        cm.setflags(write=False)
        self.base = base
        self.row_mult = rm
        self.col_mult = cm

    @property
    def eff_rows(self) -> int:
        return int(self.row_mult.sum())

    @property
    def eff_cols(self) -> int:
        return int(self.col_mult.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return (self.eff_rows, self.eff_cols)

    def materialize(self, capacity: int = DEFAULT.dense_capacity) -> BinaryMatrix:
        if self.eff_rows * self.eff_cols > capacity:
            raise CapacityError(
                f"materializing {self.eff_rows}x{self.eff_cols} exceeds the "
                f"dense capacity of {capacity} entries")
        E = np.repeat(np.repeat(self.base.entries, self.row_mult, axis=0),
                      self.col_mult, axis=1)
        return BinaryMatrix(E)

    @classmethod
    def squared(cls, M: BinaryMatrix) -> "WeightedBinaryMatrix":
        """Smallest uniform blow-up of M that is square (side lcm(m, n)).

        Further uniform blow-up of the result reproduces the full
        (mn)x(mn) row/column repetition, so density, rank and normalized
        discrepancy are all unchanged; the advantage is that the side is
        lcm(m, n) instead of m*n.
        """
        side = lcm(M.m, M.n)
        return cls(M,
                   np.full(M.m, side // M.m, dtype=np.int64),
                   np.full(M.n, side // M.n, dtype=np.int64))

    def __repr__(self):
        return (f"WeightedBinaryMatrix(base={self.base.m}x{self.base.n}, "
                f"effective={self.eff_rows}x{self.eff_cols})")
