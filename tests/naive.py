"""Independent brute-force oracles used only by the tests.

These deliberately avoid the production shortcuts: rectangle optima come
from enumerating *all* (X, Y) pairs, the relaxation optimum from both sign
vectors, and rank from Gaussian elimination over Fractions.  Everything is
exact; values are integers scaled by m*n unless stated otherwise.  The
spectral references build the dense (m+n) x (m+n) objects that the package
never forms: eigenvectors, witness matrices and the witness value
disc_M(X) = <X, A> - p <X, L> (floats, not scaled).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from lowrankdisc import (BinaryMatrix, CertificateError, DiscCertificate,
                         SpectralData)
from lowrankdisc.config import DEFAULT, Config
from lowrankdisc.oracle import Rectangle, SignVectorPair
from lowrankdisc.rng import STREAM_ROUND, generator


def _indicator_table(size: int) -> np.ndarray:
    """Row k is the 0/1 indicator of bitmask k (all 2^size masks)."""
    masks = np.arange(1 << size, dtype=np.int64)
    return (masks[:, None] >> np.arange(size, dtype=np.int64)[None, :]) & 1


def naive_best_rect(M: BinaryMatrix, sign: str) -> Rectangle:
    """Optimum of disc(X, Y) by enumerating every (X, Y) pair."""
    E = M.int_entries()
    mn = M.m * M.n
    IX = _indicator_table(M.m)
    IY = _indicator_table(M.n)
    counts = IX @ E @ IY.T
    sizes = np.outer(IX.sum(axis=1), IY.sum(axis=1))
    scaled = mn * counts - M.ones * sizes
    if sign == "+":
        flat = int(np.argmax(scaled))
    else:
        flat = int(np.argmin(scaled))
    xm, ym = divmod(flat, 1 << M.n)
    X = tuple(i for i in range(M.m) if (xm >> i) & 1)
    Y = tuple(j for j in range(M.n) if (ym >> j) & 1)
    return Rectangle(X=X, Y=Y, value=Fraction(int(scaled.flat[flat]), mn))


def naive_best_half_rect(M: BinaryMatrix, sign: str,
                         row_size: int | None = None,
                         col_size: int | None = None) -> Rectangle:
    """Optimal rectangle over |X| = row_size, |Y| = col_size (by default
    m/2 and n/2, which must then be whole) by full enumeration.

    Ties keep the smallest X mask, then the smallest Y mask.
    """
    if row_size is None:
        assert M.m % 2 == 0
        row_size = M.m // 2
    if col_size is None:
        assert M.n % 2 == 0
        col_size = M.n // 2
    E = M.int_entries()
    mn = M.m * M.n
    IX = _indicator_table(M.m)
    IY = _indicator_table(M.n)
    IX = IX[IX.sum(axis=1) == row_size]
    IY = IY[IY.sum(axis=1) == col_size]
    scaled = mn * (IX @ E @ IY.T) - M.ones * row_size * col_size
    flat = int(np.argmax(scaled) if sign == "+" else np.argmin(scaled))
    xi, yi = divmod(flat, len(IY))
    return Rectangle(X=tuple(int(i) for i in np.flatnonzero(IX[xi])),
                     Y=tuple(int(j) for j in np.flatnonzero(IY[yi])),
                     value=Fraction(int(scaled.flat[flat]), mn))


def naive_disc0(M: BinaryMatrix) -> SignVectorPair:
    """max x^T (M - pJ) y over sign vectors, by enumerating both sides.

    x and y are +1 on the bits of their masks.  Ties keep the smallest x
    mask and, for that x, the largest y mask (+1 wherever y_j is free).
    """
    E = M.int_entries()
    mn = M.m * M.n
    SX = 2 * _indicator_table(M.m) - 1
    SY = (2 * _indicator_table(M.n) - 1)[::-1]
    scaled_M = mn * E - M.ones
    vals = SX @ scaled_M @ SY.T
    xi, yi = divmod(int(np.argmax(vals)), len(SY))
    return SignVectorPair(x=tuple(int(v) for v in SX[xi]),
                          y=tuple(int(v) for v in SY[yi]),
                          value=Fraction(int(vals[xi, yi]), mn))


def _row_set_scores(M: BinaryMatrix):
    """(mask, mn * s_j(X) as Python ints) for every row set X, ascending.

    Only the row sets are enumerated, so this reference also runs on very
    wide matrices, where the values outgrow 32-bit integers.
    """
    E = M.int_entries()
    mn = M.m * M.n
    for mask in range(1 << M.m):
        X = [i for i in range(M.m) if (mask >> i) & 1]
        counts = E[X].sum(axis=0).tolist()
        yield mask, [mn * c - M.ones * len(X) for c in counts]


def _bits(mask: int, size: int) -> tuple[int, ...]:
    return tuple(i for i in range(size) if (mask >> i) & 1)


def rowwise_best_rect_pair(M: BinaryMatrix) -> tuple[Rectangle, Rectangle]:
    """Max and min of disc(X, Y): every X with its best-response columns.

    Ties keep the smallest X mask; Y holds the columns of positive
    (resp. negative) score.
    """
    mn = M.m * M.n
    best = {"+": None, "-": None}
    for mask, s in _row_set_scores(M):
        for sign, gain in (("+", 1), ("-", -1)):
            Y = tuple(j for j, v in enumerate(s) if gain * v > 0)
            value = sum(s[j] for j in Y)
            if best[sign] is None or gain * value > gain * best[sign][0]:
                best[sign] = (value, mask, Y)
    return tuple(Rectangle(X=_bits(mask, M.m), Y=Y, value=Fraction(value, mn))
                 for value, mask, Y in (best["+"], best["-"]))


def rowwise_disc0(M: BinaryMatrix) -> SignVectorPair:
    """max x^T (M - pJ) y over sign vectors: every x with its best y.

    x is +1 on the bits of the mask and y_j the sign of the column score,
    +1 when it is zero; ties keep the smallest mask.
    """
    scores = dict(_row_set_scores(M))
    full = scores[(1 << M.m) - 1]
    best = None
    for mask, s in scores.items():
        c = [2 * a - b for a, b in zip(s, full)]
        value = sum(abs(v) for v in c)
        if best is None or value > best[0]:
            best = (value, mask, c)
    value, mask, c = best
    return SignVectorPair(
        x=tuple(1 if (mask >> i) & 1 else -1 for i in range(M.m)),
        y=tuple(1 if v >= 0 else -1 for v in c),
        value=Fraction(value, M.m * M.n))


def fraction_rank(M: BinaryMatrix) -> int:
    """Rank over the rationals by plain Gaussian elimination on Fractions."""
    rows = [[Fraction(int(v)) for v in row] for row in M.entries]
    m, n = M.m, M.n
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, m):
            if rows[i][c] != 0:
                factor = rows[i][c] / piv
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == m:
            break
    return r


def minor_rank(M: BinaryMatrix) -> int:
    """Largest k with a nonzero k x k minor (determinants over ints).

    Exponential; only for matrices up to ~6x6.
    """
    from itertools import combinations

    def det(rows, cols):
        k = len(rows)
        if k == 1:
            return int(M.entries[rows[0], cols[0]])
        total = 0
        for t, c in enumerate(cols):
            a = int(M.entries[rows[0], c])
            if a:
                rest = cols[:t] + cols[t + 1:]
                total += (-1) ** t * a * det(rows[1:], rest)
        return total

    best = 0
    for k in range(1, min(M.m, M.n) + 1):
        found = False
        for rows in combinations(range(M.m), k):
            for cols in combinations(range(M.n), k):
                if det(rows, cols) != 0:
                    found = True
                    break
            if found:
                break
        if found:
            best = k
        else:
            break
    return best


def largest_permutation_submatrix(E: np.ndarray) -> int:
    """The largest k such that some k x k submatrix E[R, C] is a
    permutation matrix, by trying every pair of index sets; 0 if none."""
    m, n = E.shape
    for k in range(min(m, n), 0, -1):
        for R in itertools.combinations(range(m), k):
            sub = E[list(R)]
            for C in itertools.combinations(range(n), k):
                S = sub[:, list(C)]
                if (S.sum(axis=0) == 1).all() and (S.sum(axis=1) == 1).all():
                    return k
    return 0


def pivots_mod_p(E: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Pivot rows and columns of GF(p) elimination, one rank-1 int64 update
    of the whole trailing matrix per pivot (first nonzero entry of each
    column below the pivots found so far)."""
    A = (E.astype(np.int64)) % p
    m, n = A.shape
    perm = np.arange(m)
    cols = []
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
            perm[[r, i]] = perm[[i, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        if r + 1 < m:
            factors = (A[r + 1:, c] * inv) % p
            A[r + 1:, c + 1:] = (A[r + 1:, c + 1:]
                                 - factors[:, None] * A[r, c + 1:]) % p
            A[r + 1:, c] = 0
        cols.append(c)
        r += 1
    return perm[:r], np.array(cols, dtype=np.int64)


def trialwise_round_to_rect(M: BinaryMatrix, grams, trials: int, seed: int,
                            stream: tuple[int, ...] = ()) -> Rectangle:
    """Hyperplane rounding scored one trial and one quadrant at a time; the
    first strictly smallest value below 0 wins, in (trial, quadrant) order."""
    V, W = grams
    m, n = M.shape
    E = M.int_entries()
    best_val, best = 0, Rectangle(X=(), Y=(), value=Fraction(0))
    for t in range(trials):
        g = generator(seed, STREAM_ROUND, *stream, t)
        g = g.standard_normal(V.shape[1])
        x_pos = (V @ g) >= 0
        y_pos = (W @ g) >= 0
        for xmask in (x_pos, ~x_pos):
            for ymask in (y_pos, ~y_pos):
                count = int(E[np.ix_(xmask, ymask)].sum())
                size = int(xmask.sum()) * int(ymask.sum())
                val = m * n * count - M.ones * size
                if val < best_val:
                    best_val = val
                    best = Rectangle(X=tuple(np.flatnonzero(xmask).tolist()),
                                     Y=tuple(np.flatnonzero(ymask).tolist()),
                                     value=Fraction(val, m * n))
    return best


def vectors(S: SpectralData) -> np.ndarray:
    """N x N orthonormal eigenvectors of A = [[0, M], [M^T, 0]], columns
    ordered as S.lambdas.

    vectors(S)[:, N-1-i] = f * vectors(S)[:, i] with f = +1 on rows, -1 on
    columns.
    """
    s = 1.0 / math.sqrt(2.0)
    top = np.hstack([S.U, S.U[:, ::-1]])
    bottom = np.hstack([S.V, -S.V[:, ::-1]])
    return s * np.vstack([top, bottom])


def psd_matrix(cert: DiscCertificate) -> np.ndarray:
    """The dense witness X = factor @ factor.T of a certificate."""
    return cert.factor @ cert.factor.T


def _sign_vector(m: int, n: int) -> np.ndarray:
    """+1 on row vertices, -1 on column vertices."""
    f = np.ones(m + n)
    f[m:] = -1.0
    return f


def disc_of_psd(M: BinaryMatrix, X: np.ndarray, cfg: Config = DEFAULT) -> float:
    """disc_M(X) = <X, A> - p <X, L> for a symmetric PSD-shaped X.

    X must be (m+n) x (m+n), symmetric, with diagonal at most 1 + diag_tol.
    """
    m, n = M.shape
    N = m + n
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (N, N):
        raise ValueError(f"witness must be {N}x{N}, got {X.shape}")
    if float(np.abs(X - X.T).max()) > cfg.diag_tol:
        raise ValueError("witness must be symmetric")
    if float(X.diagonal().max()) > 1.0 + cfg.diag_tol:
        raise CertificateError(
            f"witness diagonal {float(X.diagonal().max()):.9f} exceeds "
            f"1 + {cfg.diag_tol}")
    E = M.entries.astype(np.float64)
    inner_A = 2.0 * float((E * X[:m, m:]).sum())
    e = X.sum()
    f_vec = _sign_vector(m, n)
    inner_L = 0.5 * float(e - f_vec @ X @ f_vec)
    p = M.ones / (m * n)
    return inner_A - p * inner_L


def discX_bound(S: SpectralData, coeffs, p) -> float:
    """Closed-form lower bound on disc(X) for eigenbasis-diagonal X.

    With X = sum_i a_i v_i v_i^T (a_i >= 0):
        disc(X) >= sum_i a_i lambda_i - (p N / 2) * max_i (a_i + a_{N+1-i}).
    """
    a = np.asarray(coeffs, dtype=np.float64)
    if a.shape != (S.N,):
        raise ValueError(f"need {S.N} coefficients, got shape {a.shape}")
    if a.min(initial=0.0) < 0:
        raise ValueError("coefficients must be nonnegative")
    lead = float(a @ S.lambdas)
    pair_max = float((a + a[::-1]).max())
    return lead - float(p) * S.N / 2.0 * pair_max
