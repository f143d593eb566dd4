"""Eigendecomposition and PSD discrepancy certificates.

For a square 0/1 matrix M, its symmetrization A is the (2n)x(2n) adjacency
matrix of the corresponding bipartite graph.  The spectrum of A is symmetric
about zero and is read off one SVD of M, without forming A.  The PSD witness

    X = (1/Delta) * sum_{i<=n} lambda_i^2 v_i v_i^T

has diagonal at most 1 and certifies the cube-sum lower bound
(1/Delta) * sum_{i=2..n} lambda_i^3 on the semidefinite relaxation of the
discrepancy.  `lower_bound_disc` wraps the witness in the degree-truncation
case split so the bound applies without any maximum-degree assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import (DEFAULT, DIAG_TOL, EIG_TOL_FLOOR, STRIP_FRAC,
                     TRUNCATE_DELTA, Config, num_tol)
from .errors import CertificateError, EigenError, RegimeError
from .matrix import BinaryMatrix, rank as exact_rank
from .oracle import Rectangle, disc_value


# no caller in the package, but it stays: perfbench/tracer.py wraps it
def symmetrize(M: BinaryMatrix) -> np.ndarray:
    """The (m+n)x(m+n) symmetric matrix [[0, M], [M^T, 0]] as float64."""
    m, n = M.shape
    A = np.zeros((m + n, m + n))
    A[:m, m:] = M.entries
    A[m:, :m] = M.entries.T
    return A


@dataclass
class SpectralData:
    """Validated spectrum of the symmetrization of a square matrix M.

    Holds the singular triples of M: U and V are orthonormal with
    M v_k = sigma_k u_k.  lambdas are descending and exactly paired,
    lambdas = (sigma, -sigma reversed), so lambdas[N-1-i] = -lambdas[i].
    The eigenvectors of A = [[0, M], [M^T, 0]] are (u_k, +-v_k)/sqrt2.
    """

    N: int
    n: int
    lambdas: np.ndarray
    U: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    residual: float
    ortho_error: float
    eig_tol: float
    M: BinaryMatrix = field(repr=False)


def eigendecompose(M: BinaryMatrix, cfg: Config = DEFAULT) -> SpectralData:
    """Spectrum of the symmetrization of M from one SVD of M.

    Each singular triple (sigma, u, v) yields the eigenpairs
    (+sigma, (u, v)/sqrt2) and (-sigma, (u, -v)/sqrt2) of
    A = [[0, M], [M^T, 0]], so the +-lambda pairing and the row/column sign
    relation between paired eigenvectors are exact even for degenerate
    eigenvalues, which a generic symmetric solver does not guarantee.  A is
    never formed: the eigenpair residual, orthonormality and trace identity
    are all checked on the n x n factors.  Deterministic given M.
    """
    if M.m != M.n:
        raise ValueError("eigendecompose expects a square matrix")
    n = M.n
    N = 2 * n
    # ||A||_F = sqrt(2 |M|)
    eig_tol = max(cfg.eig_tol_factor * math.sqrt(2.0 * M.ones), EIG_TOL_FLOOR)

    E = M.entries.astype(np.float64)
    try:
        U, sigma, Vt = np.linalg.svd(E)
    except np.linalg.LinAlgError as exc:
        raise EigenError(f"decomposition did not converge: {exc}") from exc
    V = Vt.T
    # deterministic sign: largest-|entry| coordinate of each u is positive
    lead = U[np.argmax(np.abs(U), axis=0), np.arange(n)]
    signs = np.where(lead < 0, -1.0, 1.0)
    U *= signs
    V *= signs
    lambdas = np.concatenate([sigma, -sigma[::-1]])

    # eigenpair residual ||A w - lambda w|| of w = (u, +-v)/sqrt2, the same
    # for both members of a pair
    res = E @ V
    res -= U * sigma
    sq = (res ** 2).sum(axis=0)
    res = E.T @ U
    res -= V * sigma
    sq += (res ** 2).sum(axis=0)
    residual = float(np.sqrt(sq / 2.0).max())
    # one n x n Gram matrix at a time, checked in place: the peak memory
    # of a certificate call is set here
    del res
    ortho_error = 0.0
    for F in (U, V):
        gram = F.T @ F
        gram[np.diag_indices(n)] -= 1.0
        ortho_error = max(ortho_error, float(np.abs(gram, out=gram).max()))
    if residual > eig_tol:
        raise EigenError(
            f"eigendecomposition residual {residual:.3e} exceeds "
            f"tolerance {eig_tol:.3e}", residual=residual)
    if ortho_error > eig_tol:
        raise EigenError(
            f"orthonormality error {ortho_error:.3e} exceeds tolerance "
            f"{eig_tol:.3e}", residual=residual)

    trace_gap = abs(2.0 * float((sigma ** 2).sum()) - 2.0 * M.ones)
    if trace_gap > N * eig_tol:
        raise EigenError(
            f"eigenvalue trace defect {trace_gap:.3e} exceeds "
            f"{N} * {eig_tol:.3e}", residual=residual)
    return SpectralData(N=N, n=n, lambdas=lambdas, U=U, V=V,
                        residual=residual, ortho_error=ortho_error,
                        eig_tol=eig_tol, M=M)


@dataclass
class DiscCertificate:
    """A PSD witness X = factor @ factor.T with its certified disc value.

    kind 'spectral': factor comes from the eigenbasis square root and
    coeffs holds the eigenbasis coefficients of X.  kind 'strip': X is the
    rank-one indicator witness of a high-degree strip rectangle and `rect`
    records that rectangle.  In both cases disc_value is the directly
    evaluated disc_M(X), a true lower bound on the PSD relaxation, and
    bound is the certified closed-form lower bound it must dominate.
    """

    kind: str
    n_side: int
    coeffs: np.ndarray | None
    factor: np.ndarray
    disc_value: float
    diag_max: float
    bound: float
    matrix_hash: str
    lambda_head: tuple[float, ...]
    residual: float
    rect: Rectangle | None = None

    @property
    def N(self) -> int:
        return 2 * self.n_side

    def to_json_obj(self) -> dict:
        return {
            "bound": self.bound,
            "disc_value": self.disc_value,
            "diag_max": self.diag_max,
            "lambda_head": list(self.lambda_head),
            "residual": self.residual,
            "matrix_hash": self.matrix_hash,
        }


def _disc_of_factor(M: BinaryMatrix, G: np.ndarray) -> float:
    """disc_M(G G^T) without materializing the N x N witness."""
    m, n = M.shape
    Gr, Gc = G[:m], G[m:]
    E = M.entries.astype(np.float64)
    inner_A = 2.0 * float(((E @ Gc) * Gr).sum())
    e_part = G.sum(axis=0)
    f_part = Gr.sum(axis=0) - Gc.sum(axis=0)
    inner_L = 0.5 * float((e_part ** 2).sum() - (f_part ** 2).sum())
    p = M.ones / (m * n)
    return inner_A - p * inner_L


def witness(S: SpectralData) -> DiscCertificate:
    """Cube-sum PSD witness built from the top half of the spectrum.

    Delta is the maximum degree of S.M, the matrix the spectrum came from.
    Coefficients are lambda_i^2 / Delta for the n nonnegative eigenvalues
    and exactly zero beyond; (1/Delta) A^2 - X being PSD forces the witness
    diagonal below 1.  The certified bound is (1/Delta) sum_{i>=2} lambda_i^3.
    """
    delta_max = S.M.max_degree()
    if delta_max < 1:
        raise ValueError("maximum degree must be at least 1")
    h = S.n
    lam = S.lambdas[:h]
    coeffs = np.zeros(S.N)
    coeffs[:h] = lam ** 2 / delta_max
    # G = (s [U; V]) sqrt(c): the nonnegative-half eigenvectors, scaled in place
    G = np.vstack([S.U, S.V])
    G *= 1.0 / math.sqrt(2.0)
    G *= np.sqrt(coeffs[:h])[None, :]
    # G squared in two halves: the same row sums, half the temporary
    diag = np.concatenate([(B ** 2).sum(axis=1) for B in (G[:h], G[h:])])
    diag_max = float(diag.max())
    if diag_max > 1.0 + DIAG_TOL:
        raise CertificateError(
            f"witness diagonal {diag_max:.9f} exceeds 1 + {DIAG_TOL}; "
            f"eigendecomposition is suspect")
    bound = float((lam[1:] ** 3).sum() / delta_max)

    # direct evaluation of disc(X) on the matrix the spectrum came from
    disc_val = _disc_of_factor(S.M, G)

    if disc_val < bound - num_tol(bound):
        raise CertificateError(
            f"witness disc value {disc_val:.9e} fell below its certified "
            f"bound {bound:.9e}")
    return DiscCertificate(
        kind="spectral", n_side=h, coeffs=coeffs, factor=G,
        disc_value=disc_val, diag_max=diag_max, bound=bound,
        matrix_hash=S.M.digest(),
        lambda_head=tuple(float(x) for x in S.lambdas[:16]),
        residual=S.residual)


def truncate_high_degree(M: BinaryMatrix):
    """Zero out rows/columns of degree >= (1+delta) * d, delta TRUNCATE_DELTA.

    Returns (M', t_r, t_c, U_r, U_c) where t_r / t_c count the 1 entries in
    the cleared row / column strips of the original matrix.  Every degree
    of M' is below (1+delta) * d(M), and |M'| >= |M| - t_r - t_c.
    """
    if M.m != M.n:
        raise ValueError("degree truncation expects a square matrix")
    n = M.n
    d = Fraction(M.ones, n)
    thr = (1 + TRUNCATE_DELTA) * d
    # deg >= thr  <=>  deg * den >= num   (exact integer comparison)
    num, den = thr.numerator, thr.denominator
    U_r = tuple(int(i) for i in np.nonzero(M.row_deg * den >= num)[0])
    U_c = tuple(int(j) for j in np.nonzero(M.col_deg * den >= num)[0])
    t_r = int(M.row_deg[list(U_r)].sum()) if U_r else 0
    t_c = int(M.col_deg[list(U_c)].sum()) if U_c else 0
    E = M.entries.copy()
    if U_r:
        E[list(U_r), :] = 0
    if U_c:
        E[:, list(U_c)] = 0
    return BinaryMatrix(E), t_r, t_c, U_r, U_c


def _trivial_certificate(M: BinaryMatrix) -> DiscCertificate:
    N = 2 * M.n
    return DiscCertificate(
        kind="spectral", n_side=M.n, coeffs=np.zeros(N),
        factor=np.zeros((N, 1)), disc_value=0.0, diag_max=0.0, bound=0.0,
        matrix_hash=M.digest(), lambda_head=(0.0,) * min(16, N), residual=0.0)


def _strip_certificate(M: BinaryMatrix, U: tuple[int, ...], rows: bool,
                       bound: float) -> DiscCertificate:
    n = M.n
    u = np.zeros(2 * n)
    if rows:
        u[list(U)] = 1.0
        u[n:] = 1.0
        rect = Rectangle(X=U, Y=tuple(range(n)),
                         value=disc_value(M, U, range(n)))
    else:
        u[:n] = 1.0
        u[[n + j for j in U]] = 1.0
        rect = Rectangle(X=tuple(range(n)), Y=U,
                         value=disc_value(M, range(n), U))
    G = u[:, None]
    disc_val = _disc_of_factor(M, G)
    if disc_val < bound - num_tol(bound):
        raise CertificateError(
            f"strip certificate value {disc_val:.9e} below bound {bound:.9e}")
    return DiscCertificate(
        kind="strip", n_side=n, coeffs=None, factor=G, disc_value=disc_val,
        diag_max=1.0, bound=bound, matrix_hash=M.digest(),
        lambda_head=(), residual=0.0, rect=rect)


def lower_bound_disc(M: BinaryMatrix, r: int | None = None,
                     cfg: Config = DEFAULT) -> DiscCertificate:
    """Certified lower bound on the PSD discrepancy relaxation of M.

    Requires m = n and average degree d <= n/2.  If the maximum degree
    already satisfies Delta <= 1.1 d, the cube-sum witness applies directly
    and certifies at least d^(1/2) n^(3/2) / (7 sqrt(r)).  Otherwise the
    high-degree strips are examined: if they carry at least a STRIP_FRAC
    share of D = min(dn, d^(1/2) n^(3/2) / (7 sqrt(r))), the strip itself is
    a rank-one certificate; if not, the witness is built on the truncated
    matrix and evaluated directly on M, with the transfer loss bounded by
    4 (|M| - |M'|).  disc_value is always the direct evaluation on M.
    """
    if M.m != M.n:
        raise ValueError(
            "lower_bound_disc expects a square matrix; square rectangular "
            "input via WeightedBinaryMatrix.squared first")
    n = M.n
    if M.ones == 0:
        return _trivial_certificate(M)
    d = Fraction(M.ones, n)
    if d > Fraction(n, 2):
        raise RegimeError(
            f"average degree {float(d):.3f} exceeds n/2 = {n / 2}; "
            f"run on the complement instead")
    if M.max_degree() * 10 <= 11 * d:  # Delta <= 1.1 d, exact comparison
        return witness(eigendecompose(M, cfg))

    if r is None:
        r = exact_rank(M)
    D = min(float(d) * n, math.sqrt(float(d)) * n ** 1.5 / (7.0 * math.sqrt(r)))
    Mp, t_r, t_c, U_r, U_c = truncate_high_degree(M)
    if t_r + t_c >= STRIP_FRAC * D:
        # the heavy strips alone certify disc(U_r, [n]) >= (delta/2) t_r
        t_best = max(t_r, t_c)
        bound = float(TRUNCATE_DELTA * t_best)
        if t_r >= t_c:
            return _strip_certificate(M, U_r, True, bound)
        return _strip_certificate(M, U_c, False, bound)

    if Mp.ones == 0:
        # would imply t_r + t_c >= |M| >= dn >= strip threshold; unreachable
        return _trivial_certificate(M)
    base = witness(eigendecompose(Mp, cfg))
    disc_val = _disc_of_factor(M, base.factor)
    transfer = 4.0 * (M.ones - Mp.ones)
    bound = base.bound - transfer
    if disc_val < bound - num_tol(bound):
        raise CertificateError(
            f"transferred witness value {disc_val:.9e} fell below "
            f"bound {bound:.9e}")
    return DiscCertificate(
        kind="spectral", n_side=n, coeffs=base.coeffs, factor=base.factor,
        disc_value=disc_val, diag_max=base.diag_max, bound=bound,
        matrix_hash=M.digest(), lambda_head=base.lambda_head,
        residual=base.residual)
