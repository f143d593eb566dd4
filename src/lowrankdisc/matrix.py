"""Dense binary matrices with exact integer/rational bookkeeping.

Everything downstream (discrepancy oracles, spectral certificates, the
density-decrement loop) leans on these invariants:

  * entries are 0/1, stored dense, immutable after construction;
  * counts (ones, degrees) are integers, densities are Fractions;
  * rank is exact over the rationals, computed on the distinct nonzero
    rows and columns and memoized on the matrix: a verified Cholesky
    factorization of the Gram matrix proves full rank where the smaller
    side is short; otherwise elimination over GF(p), in float64 block
    updates, gives a lower bound, and a p-adic lift in float64 matmuls,
    from whichever side ends first, proves it is also an upper bound.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import isqrt, lcm

import numpy as np

from .config import DENSE_CAPACITY
from .errors import CapacityError, MatrixParseError

# First prime of the exact rank; the primes after it are tried only when it
# divides a minor that decides the rank.
_MODP = 1_000_003


class BinaryMatrix:
    """Immutable dense 0/1 matrix with cached degree vectors."""

    __slots__ = ("entries", "m", "n", "ones", "row_deg", "col_deg", "_digest",
                 "_rank")

    def __init__(self, entries):
        E = np.asarray(entries)
        if E.ndim != 2 or E.shape[0] < 1 or E.shape[1] < 1:
            raise ValueError("entries must be a nonempty 2-d 0/1 array")
        if E.size > DENSE_CAPACITY:
            raise CapacityError(
                f"matrix with {E.shape[0]}x{E.shape[1]} = {E.size} entries "
                f"exceeds the dense capacity of {DENSE_CAPACITY}")
        # values are checked before the cast, which would truncate 0.5 to 0
        # and wrap -1 or 256; uint8 input, as every internal caller passes,
        # needs one pass for entries above 1
        if E.dtype == np.uint8:
            bad = E.max() > 1
        else:
            bad = E.dtype != np.bool_ and not ((E == 0) | (E == 1)).all()
        if bad:
            raise ValueError("entries must be 0 or 1")
        E = np.ascontiguousarray(E, dtype=np.uint8)
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
        """Hex digest of the canonical text form, used as matrix_id: the
        header and the line bytes are hashed without building the text."""
        if self._digest is None:
            h = hashlib.sha256(self._header().encode())
            h.update(self._lines())
            self._digest = h.hexdigest()[:16]
        return self._digest

    # -- text format ---------------------------------------------------------
    # First line "m n", then m newline-terminated lines of exactly n chars
    # from {0,1}.  Ragged or malformed input is rejected.

    def _header(self) -> str:
        return f"{self.m} {self.n}\n"

    def _lines(self) -> np.ndarray:
        """The m lines of the text form as ASCII bytes, one row each."""
        buf = np.empty((self.m, self.n + 1), dtype=np.uint8)
        np.add(self.entries, ord("0"), out=buf[:, :-1])
        buf[:, -1] = ord("\n")
        return buf

    def to_text(self) -> str:
        return self._header() + self._lines().tobytes().decode("ascii")

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
    """E restricted to its first copy of every nonzero row and every
    nonzero column, in their order in E.  Copies and zero lines add no
    rank, so the rank is E's; a zero E leaves a 0 x 0 array."""
    E = E[E.any(axis=1)][:, E.any(axis=0)]
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


# Side at or below which `_inverse_mod_p` inverts a block by Gauss-Jordan
# steps instead of splitting it again.
_GAUSS_JORDAN = 32


def _inverse_mod_p(B: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of a float64 matrix whose leading principal minors are
    all nonzero mod p, by 2 x 2 block elimination (no pivoting needed) down
    to blocks of side `_GAUSS_JORDAN`, which Gauss-Jordan steps invert.

    B and every block are balanced residues (`_reduce`), at most p/2 in
    absolute value, so a product sums at most side * p^2/4, and p/2 more
    where a block is added to it: within what `_reduce` needs.
    """
    r = len(B)
    bound = r * p * p / 4 + p / 2
    assert p < 2 ** 20 and bound < min(2 ** 53, p * 2 ** 31), \
        "modulus too large for float64"
    if r <= _GAUSS_JORDAN:
        return _gauss_jordan_mod_p(B, p)
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


def _gauss_jordan_mod_p(B: np.ndarray, p: int) -> np.ndarray:
    """Inverse mod p of B as `_inverse_mod_p` takes it, by Gauss-Jordan
    elimination on [B | I] without pivoting: the k-th pivot is the ratio
    of two consecutive leading principal minors, so it is nonzero mod p.

    Every step scales the pivot row to a pivot of 1 and subtracts its
    multiples from the other rows, then reduces all to balanced residues:
    the scaled row is below p^2/2 before its reduction, and every other
    entry below p^2/4 + p/2 before its own.
    """
    r = len(B)
    A = np.hstack([B, np.eye(r)])
    for k in range(r):
        row = _reduce(A[k] * pow(int(A[k, k]), -1, p), p)
        A -= np.outer(A[:, k], row)
        A[k] = row
        _reduce(A, p)
    return A[:, r:]


def _lift_digit(B: np.ndarray, Bi: np.ndarray, A: np.ndarray,
                rhs: np.ndarray, W: np.ndarray, p: int):
    """One p-adic digit X of B^-1 rhs: the next rhs (rhs - B X) / p, and
    (W - A X) / p, or None where p does not divide W - A X."""
    X = _reduce(Bi @ rhs, p)
    rhs = (rhs - B @ X) / p
    W = W - A @ X
    Q = np.rint(W / p)  # exact quotient iff p divides every entry
    return rhs, (Q if (Q * p == W).all() else None)


def _schur_vanishes(E: np.ndarray, R: np.ndarray, C: np.ndarray,
                    p: int) -> bool:
    """True iff rank(E) over the rationals equals len(R).

    B = E[R, C] is nonsingular mod p, hence over Q, so the rank is len(R)
    plus the rank of the Schur complement S = E[R', C'] - E[R', C] B^-1
    E[R, C'] on the other rows R' and columns C'.  det(B) * S holds
    bordered 0/1 minors, each at most H = (r+1)^((r+1)/2) in absolute
    value.  S is lifted p-adically (Dixon) digit by digit from either side:
    the column side lifts X = B^-1 E[R, C'], the row side Y = E[R', C] B^-1
    as the column side of the transpose, with (B^T)^-1 = (B^-1)^T.  Each
    side tracks W = (E[R', C'] - E[R', C] X_<k) / p^k, or the same with
    Y_<k E[R, C'], which must stay integral.  Once p^k > H on either side,
    det(B) * S is divisible by p^k and so zero.  If a side's residual rhs
    reaches zero, its X (or Y) is exact and S = p^k W.  A relation with
    small integer coefficients ends its side's lift in a step or two while
    the other side runs to H, so the sides take turns, the column side
    first, and one step ends the lift where p > H.  False means p divided
    a nonzero minor: the GF(p) rank was too small.
    """
    r = len(R)
    # digits are balanced residues, at most p/2 in absolute value
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
    # per side: B, B^-1, the other side's block, and its (rhs, W)
    sides = [(B, Bi, A), (B.T, Bi.T, rhs.T)]
    state = [(rhs, W), (A.T, W.T)]
    hadamard_sq, pk_sq = (r + 1) ** (r + 1), [1, 1]
    side = 0
    while True:
        rhs, W = _lift_digit(*sides[side], *state[side], p)
        if W is None:
            return False
        if not rhs.any():
            return not W.any()
        pk_sq[side] *= p * p
        if pk_sq[side] > hadamard_sq:
            return True
        state[side] = (rhs, W)
        side = 1 - side


def _next_prime(p: int) -> int:
    p += 1
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _gram_certifies(E: np.ndarray) -> bool:
    """True only if the 0/1 array E has full rank min(E.shape); False
    proves nothing.

    F is the smaller side of E (E or its transpose, k rows), G = F F^T its
    Gram matrix, exact in float64 (integers below 2^53), and E has full
    rank iff G is positive definite.  The proof is a floating-point
    Cholesky factorization of G - cI that runs to completion (Rump 2006,
    "Verification of positive definiteness", BIT 46), with

        c = 2 (a tr(G) + u max_j G_jj),   a = g / (1 - g),

    g = (k+1)u / (1 - (k+1)u) and u = 2^-53 the unit roundoff.  The
    shifted matrix is G~ = G - cI + D1, D1 diagonal with |D1| <= u
    (max_j G_jj + c), the rounding of the subtraction; as c exceeds
    u G_jj, G~_jj <= G_jj.  A completed Cholesky factor R of G~ satisfies
    R^T R = G~ + D2 with |D2| <= g |R^T| |R| (Higham 2002, Thm 10.3; it
    holds for any order of the inner products, so for LAPACK's blocked
    factorization too).  Column j of R has squared norm G~_jj + (D2)_jj,
    hence at most G~_jj / (1 - g), so ||D2||_2 <= g ||R||_F^2 <= a tr(G~)
    <= a tr(G).  R^T R is positive semidefinite, so
    lambda_min(G) >= c - ||D1||_2 - ||D2||_2 >= c (1 - u) - u max_j G_jj
    - a tr(G) > 0: the factor 2 in c covers u c and the rounding of c
    itself.  Any `LinAlgError` means no proof.
    """
    F = (E if E.shape[0] <= E.shape[1] else E.T).astype(np.float64)
    G = F @ F.T
    k = len(G)
    u = 2.0 ** -53
    g = (k + 1) * u / (1 - (k + 1) * u)
    diag = np.diag_indices(k)
    G[diag] -= 2 * (g / (1 - g) * G[diag].sum() + u * G[diag].max(initial=0))
    try:
        np.linalg.cholesky(G)
    except np.linalg.LinAlgError:
        return False
    return True


def rank(M: BinaryMatrix) -> int:
    """Exact rank over the rationals, memoized on M.

    Everything runs on the distinct nonzero rows and columns of M, which
    have its rank.  Where the smaller side has at most `_PENDING` of them,
    `_gram_certifies` first tries to prove full rank without elimination:
    there elimination is one pending block of per-column steps.  Otherwise,
    or when that proof fails, elimination over GF(p) gives pivot rows R and
    columns C; full rank is then certain, and otherwise `_schur_vanishes`
    proves rank <= |R| with float64 matmuls.  If p divided a minor, the
    next prime is tried.  The BLAS (its thread count included) can decide
    whether the Cholesky proof succeeds, and so which certificate proves a
    full rank, but never the rank.
    """
    if M._rank is None:
        E = _distinct(M.entries)
        if min(E.shape) <= _PENDING and _gram_certifies(E):
            M._rank = min(E.shape)
        else:
            p = _MODP
            R, C = _pivots_mod_p(E, p)
            while len(R) < min(E.shape) and not _schur_vanishes(E, R, C, p):
                p = _next_prime(p)
                R, C = _pivots_mod_p(E, p)
            M._rank = len(R)
    return M._rank


# -- structural operations ----------------------------------------------------

def blow_up(M: BinaryMatrix, a: int, b: int) -> BinaryMatrix:
    """Repeat every row a times and every column b times.

    Entry (i, j) of the result is M[i // a, j // b].  Rank and density are
    preserved; discrepancy scales by a*b.
    """
    if a < 1 or b < 1:
        raise ValueError("blow-up factors must be positive")
    if a * M.m * b * M.n > DENSE_CAPACITY:
        raise CapacityError(
            f"blow-up to {a * M.m}x{b * M.n} exceeds the dense capacity "
            f"of {DENSE_CAPACITY} entries")
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
    """The smallest uniform blow-up of a base matrix that is square, side
    lcm(m, n), held unbuilt: `squared` makes one, and `materialize` builds
    the dense square with `blow_up` when it fits the dense capacity.

    Further uniform blow-up of the square reproduces the full (mn)x(mn)
    row/column repetition, so density, rank and normalized discrepancy are
    all unchanged; the advantage is that the side is lcm(m, n) instead of
    m*n.
    """

    __slots__ = ("base", "side")

    def __init__(self, base: BinaryMatrix, side: int):
        if side < 1 or side % base.m or side % base.n:
            raise ValueError(
                f"side {side} is not a common multiple of {base.m} and "
                f"{base.n}")
        self.base = base
        self.side = side

    @classmethod
    def squared(cls, M: BinaryMatrix) -> "WeightedBinaryMatrix":
        return cls(M, lcm(M.m, M.n))

    def materialize(self) -> BinaryMatrix:
        side = self.side
        if side * side > DENSE_CAPACITY:
            raise CapacityError(
                f"materializing {side}x{side} exceeds the dense capacity of "
                f"{DENSE_CAPACITY} entries")
        return blow_up(self.base, side // self.base.m, side // self.base.n)
