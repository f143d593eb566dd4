"""Spectral module: symmetrization, eigendecomposition, PSD certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowrankdisc import (BinaryMatrix, CertificateError, RegimeError, blow_up,
                         disc_plus, disc_value, eigendecompose, fixtures,
                         lower_bound_disc, random_dense, rank, regular_blowup,
                         symmetrize, truncate_high_degree, witness)
from lowrankdisc.config import DEFAULT, Config
from lowrankdisc.rng import generator

from conftest import random_corpus
from naive import disc_of_psd, discX_bound, psd_matrix, vectors


# -- symmetrize ------------------------------------------------------------------

def test_symmetrize_identity2_is_matching():
    A = symmetrize(fixtures("identity(2)"))
    expected = np.array([[0, 0, 1, 0],
                         [0, 0, 0, 1],
                         [1, 0, 0, 0],
                         [0, 1, 0, 0]], dtype=float)
    assert np.array_equal(A, expected)


def test_symmetrize_all_ones_is_complete_bipartite():
    n = 3
    A = symmetrize(fixtures(f"all_ones({n},{n})"))
    assert A.sum() == 2 * n * n
    assert np.array_equal(A[:n, n:], np.ones((n, n)))
    assert np.array_equal(np.diag(A), np.zeros(2 * n))


def test_symmetrize_doubles_rank():
    for seed in range(5):
        M = blow_up(random_dense(3, 3, "1/2", seed=seed), 2, 2)
        from lowrankdisc import BinaryMatrix
        A = BinaryMatrix(symmetrize(M).astype(np.uint8))
        assert rank(A) == 2 * rank(M)


# -- eigendecompose ---------------------------------------------------------------

def test_eigen_identity_spectrum():
    for n in (2, 5, 8):
        S = eigendecompose(fixtures(f"identity({n})"))
        assert np.allclose(S.lambdas[:n], 1.0)
        assert np.allclose(S.lambdas[n:], -1.0)


def test_eigen_all_ones_spectrum():
    n = 4
    S = eigendecompose(fixtures(f"all_ones({n},{n})"))
    assert abs(S.lambdas[0] - n) < 1e-9
    assert abs(S.lambdas[-1] + n) < 1e-9
    assert np.allclose(S.lambdas[1:-1], 0.0, atol=1e-9)


def test_eigen_trace_identity():
    for seed in range(6):
        M = random_dense(8, 8, "1/2", seed=seed)
        S = eigendecompose(M)
        assert abs(float((S.lambdas ** 2).sum()) - 2 * M.ones) < 1e-9


def test_eigen_descending_and_paired():
    M = random_dense(7, 7, "2/5", seed=50)
    S = eigendecompose(M)
    assert all(S.lambdas[i] >= S.lambdas[i + 1] - 1e-12 for i in range(S.N - 1))
    assert np.array_equal(S.lambdas, -S.lambdas[::-1])
    assert S.residual <= S.eig_tol
    assert S.ortho_error <= S.eig_tol


@pytest.mark.parametrize("field, value", [
    ("eig_tol_factor", math.nan), ("eig_tol_factor", math.inf),
    ("oracle_limit", math.inf), ("rounding_trials", math.nan)])
def test_config_rejects_nonfinite_overrides(field, value):
    # eig_tol_factor = nan made eig_tol nan, so `residual > eig_tol` never
    # fired and lower_bound_disc certified without any eigensolver check
    with pytest.raises(ValueError, match="must be a positive"):
        DEFAULT.with_overrides(**{field: value})
    with pytest.raises(ValueError, match="must be a positive"):
        Config(**{field: value})


def test_eigenvector_pairing_relation():
    # v_{N+1-i} agrees with v_i on rows and is opposite on columns
    M = random_dense(6, 6, "1/2", seed=51)
    S = eigendecompose(M)
    f = np.ones(S.N)
    f[S.m:] = -1.0
    W = vectors(S)
    for i in range(S.N):
        flipped = f * W[:, S.N - 1 - i]
        assert abs(abs(float(flipped @ W[:, i])) - 1.0) <= 1e-9


def test_eigen_lambda1_between_avg_and_max_degree():
    for M in random_corpus(15, 8, 8, seed=52, min_m=8, min_n=8):
        if M.ones == 0:
            continue
        S = eigendecompose(M)
        d = float(M.avg_degree())
        assert S.lambdas[0] >= d - 1e-9
        assert S.lambdas[0] <= M.max_degree() + 1e-9


def test_eigen_rejects_non_square():
    with pytest.raises(ValueError):
        eigendecompose(fixtures("all_ones(2,3)"))


def test_eigen_deterministic():
    M = random_dense(6, 6, "1/2", seed=53)
    S1, S2 = eigendecompose(M), eigendecompose(M)
    assert np.array_equal(S1.lambdas, S2.lambdas)
    assert np.array_equal(vectors(S1), vectors(S2))


# -- witness -----------------------------------------------------------------------

def test_witness_identity2_exact():
    I2 = fixtures("identity(2)")
    cert = witness(eigendecompose(I2), 1)
    assert np.allclose(cert.coeffs, [1, 1, 0, 0])
    assert abs(cert.disc_value - 1.0) < 1e-9
    assert abs(cert.bound - 1.0) < 1e-9


def test_witness_all_ones_bound_zero():
    n = 4
    J = fixtures(f"all_ones({n},{n})")
    cert = witness(eigendecompose(J), n)
    assert abs(cert.bound) < 1e-9


def test_witness_identity4_diag_half():
    cert = witness(eigendecompose(fixtures("identity(4)")), 1)
    assert abs(cert.diag_max - 0.5) < 1e-9


def test_witness_diag_bounded_on_corpus():
    for M in random_corpus(15, 8, 8, seed=54, min_m=8, min_n=8):
        if M.ones == 0:
            continue
        cert = witness(eigendecompose(M), M.max_degree())
        assert cert.diag_max <= 1.0 + DEFAULT.diag_tol
        assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)


def test_witness_rejects_tiny_degree():
    with pytest.raises(ValueError):
        witness(eigendecompose(fixtures("identity(2)")), 0)


# -- disc_of_psd --------------------------------------------------------------------

def test_disc_of_psd_zero():
    M = fixtures("identity(3)")
    assert disc_of_psd(M, np.zeros((6, 6))) == 0


def test_disc_of_psd_matches_witness_value():
    M = random_dense(6, 6, "1/2", seed=55)
    cert = witness(eigendecompose(M), M.max_degree())
    direct = disc_of_psd(M, psd_matrix(cert))
    assert abs(direct - cert.disc_value) < 1e-8


def test_disc_of_psd_eigenbasis_inner_product():
    # <X, A> equals sum a_i lambda_i for eigenbasis-diagonal X
    M = random_dense(5, 5, "1/2", seed=56)
    S = eigendecompose(M)
    gen = generator(57, 99)
    a = gen.random(S.N)
    W = vectors(S)
    X = (W * a[None, :]) @ W.T
    inner_A = float((symmetrize(M) * X).sum())
    assert abs(inner_A - float(a @ S.lambdas)) < 1e-9


def test_disc_of_psd_rect_indicator_doubles_disc():
    M = random_dense(6, 6, "1/2", seed=58)
    X_idx, Y_idx = (0, 2, 3), (1, 4)
    u = np.zeros(12)
    u[list(X_idx)] = 1.0
    u[[6 + j for j in Y_idx]] = 1.0
    got = disc_of_psd(M, np.outer(u, u))
    assert abs(got - 2.0 * float(disc_value(M, X_idx, Y_idx))) < 1e-9


def test_disc_of_psd_shape_mismatch():
    with pytest.raises(ValueError):
        disc_of_psd(fixtures("identity(3)"), np.zeros((4, 4)))


def test_disc_of_psd_rejects_large_diagonal():
    with pytest.raises(CertificateError):
        disc_of_psd(fixtures("identity(3)"), 2.0 * np.eye(6))


# -- discX_bound --------------------------------------------------------------------

def test_discX_bound_zero_coeffs():
    S = eigendecompose(fixtures("identity(3)"))
    assert discX_bound(S, np.zeros(6), Fraction(1, 3)) == 0


def test_discX_bound_identity2_witness():
    S = eigendecompose(fixtures("identity(2)"))
    cert = witness(S, 1)
    assert abs(discX_bound(S, cert.coeffs, Fraction(1, 2)) - 1.0) < 1e-9


def test_discX_bound_rejects_negative():
    S = eigendecompose(fixtures("identity(2)"))
    with pytest.raises(ValueError):
        discX_bound(S, [-1, 0, 0, 0], 0.5)


def test_discX_bound_below_disc_of_psd():
    for seed in range(8):
        M = random_dense(6, 6, "1/2", seed=seed)
        if M.ones == 0:
            continue
        S = eigendecompose(M)
        gen = generator(seed, 98)
        a = gen.random(S.N) * 0.1
        W = vectors(S)
        X = (W * a[None, :]) @ W.T
        # rescale so the diagonal stays below 1
        scale = max(float(X.diagonal().max()), 1e-9)
        if scale > 1:
            a /= scale
            X /= scale
        got = disc_of_psd(M, X)
        assert got >= discX_bound(S, a, M.density()) - 1e-9


# -- truncate_high_degree --------------------------------------------------------------

def test_truncate_regular_unchanged():
    M = regular_blowup(4, 2, 16, seed=60)
    Mp, t_r, t_c, U_r, U_c = truncate_high_degree(M)
    assert Mp == M
    assert t_r == 0 and t_c == 0
    assert U_r == () and U_c == ()


def test_truncate_star_row():
    # one full row, a couple of diagonal singletons elsewhere
    E = np.zeros((4, 4), dtype=np.uint8)
    E[0, :] = 1
    E[2, 2] = 1
    E[3, 3] = 1
    from lowrankdisc import BinaryMatrix
    M = BinaryMatrix(E)
    Mp, t_r, t_c, U_r, U_c = truncate_high_degree(M)
    assert 0 in U_r
    assert t_r >= 4


def test_truncate_degree_and_count_bounds():
    for M in random_corpus(20, 10, 10, seed=61, min_m=10, min_n=10):
        if M.ones == 0:
            continue
        Mp, t_r, t_c, U_r, U_c = truncate_high_degree(M)
        d = M.avg_degree()
        assert Fraction(Mp.max_degree()) <= Fraction(101, 100) * d
        assert Mp.ones >= M.ones - t_r - t_c
        # clearing full rows/columns cannot raise the rank
        assert rank(Mp) <= rank(M)


# -- lower_bound_disc -------------------------------------------------------------------

def test_lower_bound_all_ones_regime_error():
    with pytest.raises(RegimeError):
        lower_bound_disc(fixtures("all_ones(6,6)"))


def test_lower_bound_identity8():
    cert = lower_bound_disc(fixtures("identity(8)"))
    assert cert.disc_value >= 6.0
    assert abs(cert.bound - 7.0) < 1e-6


def test_lower_bound_all_zeros_trivial():
    cert = lower_bound_disc(fixtures("all_zeros(4,4)"))
    assert cert.disc_value == 0.0 and cert.bound == 0.0


def test_lower_bound_lowrank_formula_on_blowup():
    # regular blow-ups satisfy the max-degree condition exactly
    for seed in range(5):
        M = regular_blowup(6, 2, 36, seed=seed)
        r = rank(M)
        if r < 2:
            continue
        d = float(M.avg_degree())
        cert = lower_bound_disc(M, r=r)
        target = math.sqrt(d) * M.n ** 1.5 / (7.0 * math.sqrt(r))
        assert cert.disc_value >= target - DEFAULT.num_tol(target)


def test_lower_bound_disc_value_dominates_bound():
    for M in random_corpus(20, 12, 12, seed=62, min_m=12, min_n=12):
        if M.ones == 0 or M.avg_degree() > Fraction(M.n, 2):
            continue
        cert = lower_bound_disc(M)
        assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)
        assert cert.diag_max <= 1.0 + DEFAULT.diag_tol


def test_lower_bound_is_true_psd_value():
    # disc_value must be reproducible by direct evaluation of the witness
    M = random_dense(10, 10, "1/3", seed=63)
    cert = lower_bound_disc(M)
    direct = disc_of_psd(M, psd_matrix(cert))
    assert abs(direct - cert.disc_value) < 1e-8


def test_grothendieck_sandwich():
    # PSD certificate value <= 24 K disc+ on oracle-sized matrices
    K = DEFAULT.grothendieck_k
    for M in random_corpus(25, 10, 10, seed=64, min_m=10, min_n=10):
        if M.ones == 0 or M.avg_degree() > Fraction(M.n, 2):
            continue
        cert = lower_bound_disc(M)
        cap = 24.0 * K * float(disc_plus(M))
        assert cert.disc_value <= cap + DEFAULT.num_tol(cap)


def _nearly_regular(n_side: int, r_base: int, extra_ones: int) -> "BinaryMatrix":
    """Regular blow-up with one row pushed just over the (1+delta)d cutoff."""
    from lowrankdisc import BinaryMatrix

    M = regular_blowup(r_base, 2, n_side, seed=1)
    E = M.entries.copy()
    zeros = np.nonzero(E[0] == 0)[0]
    E[0, zeros[:extra_ones]] = 1
    return BinaryMatrix(E)


def test_truncated_witness_path_with_lowered_threshold():
    # a tiny strip share forces the witness onto the truncated matrix
    M = _nearly_regular(64, 16, 2)
    d = M.avg_degree()
    assert M.max_degree() > Fraction(11, 10) * d  # direct path unavailable
    cfg = DEFAULT.with_overrides(strip_frac=0.99)
    cert = lower_bound_disc(M, cfg=cfg)
    assert cert.kind == "spectral"
    assert cert.bound > 0
    assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)
    assert abs(disc_of_psd(M, psd_matrix(cert)) - cert.disc_value) < 1e-7


def test_truncated_witness_path_default_threshold():
    # at this scale the heavy strip carries less than a hundredth of D,
    # so the default case split transfers the truncated witness to M
    M = _nearly_regular(2048, 16, 26)
    d = M.avg_degree()
    assert M.max_degree() > Fraction(11, 10) * d
    _, t_r, t_c, U_r, U_c = truncate_high_degree(M)
    assert U_r == (0,) and t_r > 0
    cert = lower_bound_disc(M)
    assert cert.kind == "spectral"
    assert cert.bound > 0
    assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)


def _heavy_row_sparse() -> "BinaryMatrix":
    """One full row in an otherwise sparse matrix: the strip branch."""
    from lowrankdisc import BinaryMatrix

    E = np.zeros((16, 16), dtype=np.uint8)
    E[0, :] = 1
    E[np.arange(4, 10), np.arange(4, 10)] = 1
    return BinaryMatrix(E)


def test_strip_certificate_path():
    cert = lower_bound_disc(_heavy_row_sparse())
    assert cert.kind == "strip"
    assert cert.rect is not None
    assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)
    # strip value is exactly twice the rectangle disc
    assert abs(cert.disc_value - 2.0 * float(cert.rect.value)) < 1e-9


def test_direct_branch_skips_rank(monkeypatch):
    # Delta <= 1.1 d: the direct witness never reads r, so rank is not computed
    import lowrankdisc.spectral as spectral

    def no_rank(M):
        raise AssertionError("rank computed on the direct branch")

    monkeypatch.setattr(spectral, "exact_rank", no_rank)
    cert = lower_bound_disc(regular_blowup(4, 2, 16, seed=60))
    assert cert.kind == "spectral" and cert.bound > 0


def test_certificate_branches_never_symmetrize(monkeypatch):
    import lowrankdisc.spectral as spectral

    def no_symmetrize(M):
        raise AssertionError("symmetrization built on the certificate path")

    monkeypatch.setattr(spectral, "symmetrize", no_symmetrize)
    runs = [(regular_blowup(4, 2, 16, seed=60), DEFAULT, "spectral"),
            (_heavy_row_sparse(), DEFAULT, "strip"),
            (_nearly_regular(64, 16, 2),
             DEFAULT.with_overrides(strip_frac=0.99), "spectral")]
    for M, cfg, kind in runs:
        cert = lower_bound_disc(M, cfg=cfg)
        assert cert.kind == kind
        assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)


@st.composite
def certificate_inputs(draw):
    """Square 0/1 matrices up to 12 x 12 with average degree <= n/2 (the
    denser ones complemented): random bits of a drawn density, or
    blow-ups of a random base with rows and columns permuted."""
    n = draw(st.integers(1, 12))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        E = (gen.random((n, n)) < draw(st.sampled_from([0.1, 0.3, 0.5])))
    else:
        k = draw(st.integers(1, 4))
        base = gen.random((k, k)) < 0.5
        E = base[np.ix_(gen.integers(0, k, n), gen.integers(0, k, n))]
    E = E.astype(np.uint8)
    return BinaryMatrix(1 - E if 2 * int(E.sum()) > n * n else E)


@given(certificate_inputs())
def test_every_certificate_holds_its_bound(M):
    # whatever branch builds it, a certificate's directly evaluated value
    # reaches its bound, and its witness diagonal stays within 1
    cert = lower_bound_disc(M)
    assert cert.disc_value >= cert.bound - DEFAULT.num_tol(cert.bound)
    assert cert.diag_max <= 1.0 + DEFAULT.diag_tol
