"""Matrix core: construction, stats, rank, blow-up, submatrix, complement."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowrankdisc import (BinaryMatrix, CapacityError, MatrixParseError,
                         WeightedBinaryMatrix, blow_up, complement, fixtures,
                         random_dense, rank, submatrix)
from lowrankdisc import matrix
from lowrankdisc.matrix import _MODP, _pivots_mod_p, _schur_vanishes

from conftest import random_corpus
from naive import (fraction_rank, largest_permutation_submatrix,
                   minor_rank, pivots_mod_p)


# -- construction and stats ----------------------------------------------------

def test_density_stats_all_ones():
    M = fixtures("all_ones(2,2)")
    assert M.density() == 1 and M.avg_degree() == 2 and M.max_degree() == 2


def test_density_stats_all_zeros():
    M = fixtures("all_zeros(3,3)")
    assert M.density() == 0 and M.avg_degree() == 0 and M.max_degree() == 0


def test_density_stats_identity():
    M = fixtures("identity(4)")
    assert M.density() == Fraction(1, 4)
    assert M.avg_degree() == 1 and M.max_degree() == 1


def test_density_stats_exact_rational():
    M = random_dense(5, 7, "1/3", seed=9)
    assert M.density() == Fraction(M.ones, 35)
    assert M.avg_degree() == Fraction(2 * M.ones, 12)
    assert M.avg_degree() <= M.max_degree() <= max(M.m, M.n)


def test_entries_immutable():
    M = fixtures("identity(3)")
    with pytest.raises(ValueError):
        M.entries[0, 0] = 0


def test_rejects_non_binary():
    with pytest.raises(ValueError):
        BinaryMatrix(np.array([[0, 2]], dtype=np.uint8))


# -- rank -----------------------------------------------------------------------

def test_rank_identity():
    assert rank(fixtures("identity(4)")) == 4


def test_rank_all_ones():
    assert rank(fixtures("all_ones(3,5)")) == 1


def test_rank_blowup_of_identity():
    M = blow_up(fixtures("identity(2)"), 3, 2)
    assert M.shape == (6, 4)
    assert rank(M) == 2
    assert fraction_rank(M) == 2


def test_rank_matches_fraction_elimination_on_corpus():
    for M in random_corpus(40, 6, 6, seed=7):
        assert rank(M) == fraction_rank(M)


def test_rank_matches_minor_expansion_small():
    for M in random_corpus(15, 4, 4, seed=8):
        assert rank(M) == minor_rank(M)


def test_rank_matches_fraction_rank_up_to_7x7():
    for M in random_corpus(30, 7, 7, seed=10):
        assert rank(M) == fraction_rank(M)


def test_rank_mod_p_is_lower_bound():
    for M in random_corpus(20, 6, 6, seed=11):
        rows, cols = _pivots_mod_p(M.entries, _MODP)
        assert len(rows) == len(cols) <= rank(M)


@st.composite
def pivot_matrices(draw):
    """0/1 matrices up to 64 x 64: random, blow-ups, permuted identities, and
    near full rank (random with the last row a copy of the first)."""
    m, n = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(
        ["random", "blow_up", "identity", "near_full"]))
    if kind == "random":
        E = gen.random((m, n)) < gen.random()
    elif kind == "blow_up":
        k = draw(st.integers(1, 6))
        base = gen.random((k, k)) < 0.5
        E = base[np.ix_(gen.integers(0, k, m), gen.integers(0, k, n))]
    elif kind == "identity":
        E = np.eye(m, n, dtype=bool)[gen.permutation(m)]
    else:
        E = gen.random((m, n)) < 0.5
        E[-1] = E[0]
    return E.astype(np.uint8)


@given(pivot_matrices(), st.sampled_from([2, 3, _MODP]))
def test_pivots_match_per_pivot_elimination(E, p):
    # delayed block updates are exact, so the pivots are those of one
    # rank-1 update per pivot; blocks of 1 to 3 pending pivots flush in
    # the middle of the matrix
    expected = pivots_mod_p(E, p)
    for pending in (1, 2, 3, matrix._PENDING):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "_PENDING", pending)
            rows, cols = _pivots_mod_p(E, p)
        assert np.array_equal(rows, expected[0])
        assert np.array_equal(cols, expected[1])


def test_pivots_refuse_a_modulus_past_float64():
    # p + _PENDING * p^2 must stay below 2^53 for the block update
    with pytest.raises(AssertionError, match="float64"):
        _pivots_mod_p(np.eye(2, dtype=np.uint8), 10**7 + 19)


@st.composite
def rank_matrices(draw):
    """0/1 matrices up to 8 x 8: plain, with rows and columns duplicated
    into shuffled positions, or blow-ups."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    E = (np.random.default_rng(seed).random((m, n)) < 0.5).astype(np.uint8)
    kind = draw(st.sampled_from(["plain", "duplicated", "blow_up"]))
    if kind == "duplicated":
        rows = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=8))
        cols = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
        E = E[np.ix_(rows, cols)]
    elif kind == "blow_up":
        a, b = draw(st.integers(1, 8 // m)), draw(st.integers(1, 8 // n))
        E = blow_up(BinaryMatrix(E), a, b).entries
    return E


@given(rank_matrices())
def test_rank_exact_whatever_the_first_prime(E):
    # p = 2 and p = 3 divide some nonzero minors, so for some of these
    # matrices the certificate rejects the GF(p) rank and the next prime
    # is tried
    expected = fraction_rank(BinaryMatrix(E))
    for p in (2, 3, _MODP):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matrix, "_MODP", p)
            assert rank(BinaryMatrix(E)) == expected


@given(rank_matrices())
def test_rank_at_least_any_permutation_submatrix(E):
    # a k x k permutation submatrix is nonsingular, so rank(M) >= k; the
    # largest is found by brute force on the leading 6 x 6 block
    E = E[:6, :6]
    assert rank(BinaryMatrix(E)) >= largest_permutation_submatrix(E)


@pytest.mark.parametrize("E", [
    [[1, 1, 0], [0, 1, 1], [1, 0, 1]],
    # the same columns reordered: the pivot block is the identity, so the
    # lift ends exactly after one step with a nonzero remainder
    [[1, 0, 1], [0, 1, 1], [1, 1, 0]],
])
def test_rank_retries_after_unlucky_prime(monkeypatch, E):
    # det = 2: singular over GF(2), nonsingular over Q
    E = np.array(E, dtype=np.uint8)
    assert len(_pivots_mod_p(E, 2)[0]) == 2
    monkeypatch.setattr(matrix, "_MODP", 2)
    assert rank(BinaryMatrix(E)) == 3 == fraction_rank(BinaryMatrix(E))


def test_rank_certified_with_duplicated_rows_and_columns():
    # The expected rank comes from the construction: N is nonsingular over
    # GF(p), hence over Q, and copies of rows or columns add no rank.  The
    # second matrix appends random columns before copying rows, so the
    # columns outside the pivots are not copies and the certificate lifts
    # through all its p-adic steps (22 at rank 120).
    k, s = 120, 6
    gen = np.random.default_rng(12)
    N = (gen.random((k, k)) < 0.5).astype(np.uint8)
    assert len(_pivots_mod_p(N, _MODP)[0]) == k
    rows = gen.permutation(np.concatenate([np.arange(k), gen.choice(k, s)]))
    cols = gen.permutation(np.concatenate([np.arange(k), gen.choice(k, s)]))
    assert rank(BinaryMatrix(N[np.ix_(rows, cols)])) == k
    wide = np.hstack([N, (gen.random((k, s)) < 0.5).astype(np.uint8)])
    assert rank(BinaryMatrix(wide[np.ix_(rows, gen.permutation(k + s))])) == k


@st.composite
def near_full_rank(draw):
    """A random 0/1 square matrix up to 24 x 24 in which one row, or one
    column, is the sum of two others with disjoint supports: rank below
    full, usually with no row or column repeated."""
    n = draw(st.integers(3, 24))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = (gen.random((n, n)) < 0.5).astype(np.uint8)
    i, j, k = gen.permutation(n)[:3]
    E[j] &= 1 - E[i]
    E[k] = E[i] + E[j]
    return E.T if draw(st.booleans()) else E


@given(near_full_rank())
def test_rank_near_full_with_a_row_or_column_relation(E):
    # below full rank the p-adic lift decides: for small primes the GF(p)
    # rank often falls short, and the lift must reject it then and accept
    # it whenever it is the rational rank
    expected = fraction_rank(BinaryMatrix(E))
    for p in (3, 5, _MODP):
        R, C = _pivots_mod_p(E, p)
        assert _schur_vanishes(E, R, C, p) == (len(R) == expected)
    assert rank(BinaryMatrix(E)) == expected


# -- blow_up ---------------------------------------------------------------------

def test_blow_up_identity_structure():
    M = blow_up(fixtures("identity(2)"), 2, 2)
    expected = np.array([[1, 1, 0, 0],
                         [1, 1, 0, 0],
                         [0, 0, 1, 1],
                         [0, 0, 1, 1]], dtype=np.uint8)
    assert np.array_equal(M.entries, expected)


def test_blow_up_preserves_density():
    M = random_dense(5, 7, "1/2", seed=3)
    B = blow_up(M, 3, 2)
    assert B.density() == M.density()
    assert B.ones == 6 * M.ones


def test_blow_up_preserves_rank():
    base = random_dense(6, 6, "1/2", seed=4)
    # random 6x6 may have any rank; check equality regardless
    assert rank(blow_up(base, 2, 3)) == rank(base)


def test_blow_up_entry_formula():
    M = random_dense(3, 4, "1/2", seed=5)
    B = blow_up(M, 2, 3)
    for i in range(B.m):
        for j in range(B.n):
            assert B.entries[i, j] == M.entries[i // 2, j // 3]


def test_blow_up_capacity_error():
    with pytest.raises(CapacityError):
        blow_up(fixtures("all_ones(100,100)"), 1000, 1000)


# -- submatrix -------------------------------------------------------------------

def test_submatrix_identity_off_diagonal():
    S = submatrix(fixtures("identity(4)"), (0, 1), (2, 3))
    assert S.ones == 0 and S.shape == (2, 2)


def test_submatrix_full_is_identity_op():
    M = random_dense(4, 5, "1/2", seed=6)
    assert submatrix(M, range(4), range(5)) == M


def test_submatrix_ones_count():
    S = submatrix(fixtures("identity(4)"), (0, 1), (0, 1))
    assert S.ones == 2


def test_submatrix_composes():
    M = random_dense(6, 6, "1/2", seed=12)
    X, Y = (0, 2, 4, 5), (1, 2, 3)
    X2, Y2 = (1, 3), (0, 2)
    inner = submatrix(submatrix(M, X, Y), X2, Y2)
    composed = submatrix(M, [X[i] for i in X2], [Y[j] for j in Y2])
    assert inner == composed


def test_submatrix_rejects_bad_indices():
    M = fixtures("identity(3)")
    with pytest.raises(IndexError):
        submatrix(M, (0, 3), (0,))
    with pytest.raises(ValueError):
        submatrix(M, (), (0,))
    with pytest.raises(ValueError):
        submatrix(M, (0, 0), (1,))


# -- complement ------------------------------------------------------------------

def test_complement_all_ones():
    assert complement(fixtures("all_ones(3,3)")) == fixtures("all_zeros(3,3)")


def test_complement_involution():
    M = random_dense(5, 6, "1/2", seed=13)
    assert complement(complement(M)) == M


def test_complement_rank_bound():
    I4 = fixtures("identity(4)")
    C = complement(I4)
    assert rank(C) == 4
    assert rank(C) <= rank(I4) + 1
    for M in random_corpus(20, 6, 6, seed=14):
        assert rank(complement(M)) <= rank(M) + 1


# -- text format -----------------------------------------------------------------

def test_text_round_trip():
    M = random_dense(4, 7, "1/2", seed=15)
    assert BinaryMatrix.from_text(M.to_text()) == M


def test_text_format_shape():
    text = fixtures("identity(2)").to_text()
    assert text == "2 2\n10\n01\n"


def test_digest_pinned_to_text_hash():
    M = BinaryMatrix(np.array([[1, 0, 1], [0, 1, 1]]))
    expected = hashlib.sha256(b"2 3\n101\n011\n").hexdigest()[:16]
    assert expected == "61ee88a0741904fb"
    assert M.digest() == expected


def test_parse_rejects_ragged():
    with pytest.raises(MatrixParseError):
        BinaryMatrix.from_text("2 3\n101\n10\n")


def test_parse_rejects_bad_chars():
    with pytest.raises(MatrixParseError):
        BinaryMatrix.from_text("1 3\n1x1\n")


def test_parse_rejects_bad_header():
    with pytest.raises(MatrixParseError):
        BinaryMatrix.from_text("3\n111\n")
    with pytest.raises(MatrixParseError):
        BinaryMatrix.from_text("2 3\n101\n")


# -- weighted matrices -----------------------------------------------------------

def test_weighted_matches_materialized():
    M = random_dense(3, 5, "1/2", seed=16)
    rm, cm = np.array([2, 1, 3]), np.array([1, 2, 1, 1, 2])
    W = WeightedBinaryMatrix(M, rm, cm)
    D = W.materialize()
    # the weighted counts of the base agree with the dense blow-up's
    E = M.int_entries()
    ones = int(rm @ E @ cm)
    assert W.shape == D.shape == (rm.sum(), cm.sum())
    assert D.ones == ones
    assert D.density() == Fraction(ones, int(rm.sum() * cm.sum()))
    assert D.max_degree() == max(int((E @ cm).max()), int((rm @ E).max()))


def test_weighted_requires_positive_multiplicities():
    M = fixtures("identity(2)")
    with pytest.raises(ValueError):
        WeightedBinaryMatrix(M, [1, 0], [1, 1])


def test_squared_side_is_lcm():
    M = random_dense(4, 6, "1/2", seed=17)
    W = WeightedBinaryMatrix.squared(M)
    assert W.shape == (12, 12)
    S = W.materialize()
    assert S.density() == M.density()
    assert rank(S) == rank(M)


def test_full_blowup_dims_and_density():
    M = random_dense(3, 4, "1/2", seed=18)
    B = blow_up(M, M.n, M.m)
    assert B.shape == (12, 12)
    assert B.density() == M.density()
