"""Dense binary matrices with exact integer/rational bookkeeping.

Everything downstream (discrepancy oracles, spectral certificates, the
density-decrement loop) leans on these invariants:

  * entries are 0/1, stored dense, immutable after construction;
  * counts (ones, degrees) are integers, densities are Fractions;
  * rank is exact over the rationals, via fraction-free elimination.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .config import DEFAULT
from .errors import CapacityError, MatrixParseError

_MODP = 1_000_003  # prime for the exact full-rank fast path


class BinaryMatrix:
    """Immutable dense 0/1 matrix with cached degree vectors."""

    __slots__ = ("entries", "m", "n", "ones", "row_deg", "col_deg", "_digest")

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


@dataclass(frozen=True)
class DensityStats:
    """Exact density p, average degree d, and maximum degree."""

    p: Fraction
    d: Fraction
    delta_max: int


def density_stats(M: BinaryMatrix) -> DensityStats:
    return DensityStats(p=M.density(), d=M.avg_degree(), delta_max=M.max_degree())


# -- exact rank ---------------------------------------------------------------

def _rank_mod_p(E: np.ndarray, p: int = _MODP) -> int:
    """Rank over GF(p); always a lower bound on the rational rank."""
    A = (E.astype(np.int64)) % p
    m, n = A.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            A[[r, i]] = A[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        if r + 1 < m:
            factors = (A[r + 1:, c] * inv) % p
            A[r + 1:, c + 1:] = (A[r + 1:, c + 1:]
                                 - factors[:, None] * A[r, c + 1:][None, :]) % p
            A[r + 1:, c] = 0
        r += 1
    return r


def _rank_bareiss(E: np.ndarray, pivot: str = "first") -> int:
    """Fraction-free (integer-preserving) elimination; exact rational rank.

    Entries stay integers throughout (they are minors of the original
    matrix), so there is no rounding anywhere.  `pivot` selects which
    nonzero candidate becomes the pivot; any choice yields the same rank.
    """
    A = E.astype(object)
    m, n = A.shape
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        col = A[r:, c]
        nz = [i for i, v in enumerate(col) if v != 0]
        if not nz:
            continue
        i = r + (nz[0] if pivot == "first" else nz[-1])
        if i != r:
            A[[r, i]] = A[[i, r]]
        piv = A[r, c]
        if r + 1 < m:
            block = piv * A[r + 1:, c + 1:] - np.outer(A[r + 1:, c], A[r, c + 1:])
            if prev != 1:
                block //= prev
            A[r + 1:, c + 1:] = block
            A[r + 1:, c] = 0
        prev = piv
        r += 1
    return r


def rank(M: BinaryMatrix) -> int:
    """Exact rank over the rationals.

    A single modular elimination certifies full rank outright (rank over
    GF(p) never exceeds the rational rank); otherwise fraction-free
    elimination settles it exactly.
    """
    rp = _rank_mod_p(M.entries)
    if rp == min(M.m, M.n):
        return rp
    return _rank_bareiss(M.entries)


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
    column j appears col_mult[j] times, without materializing it.  All
    density/degree statistics are exact and weighted; `materialize` builds
    the dense blow-up only when it fits the capacity budget.
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

    def ones(self) -> int:
        E = self.base.int_entries()
        return int(self.row_mult @ E @ self.col_mult)

    def density(self) -> Fraction:
        return Fraction(self.ones(), self.eff_rows * self.eff_cols)

    def row_copy_degrees(self) -> np.ndarray:
        """Degree of each copy of base row i (length m, int64)."""
        return self.base.int_entries() @ self.col_mult

    def col_copy_degrees(self) -> np.ndarray:
        return self.row_mult @ self.base.int_entries()

    def max_degree(self) -> int:
        return max(int(self.row_copy_degrees().max()),
                   int(self.col_copy_degrees().max()))

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

    @classmethod
    def full_blowup(cls, M: BinaryMatrix) -> "WeightedBinaryMatrix":
        """Row i repeated n times, column j repeated m times ((mn)x(mn))."""
        return cls(M,
                   np.full(M.m, M.n, dtype=np.int64),
                   np.full(M.n, M.m, dtype=np.int64))

    def __repr__(self):
        return (f"WeightedBinaryMatrix(base={self.base.m}x{self.base.n}, "
                f"effective={self.eff_rows}x{self.eff_cols})")
