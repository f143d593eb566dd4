"""Matrix core: construction, stats, rank, blow-up, submatrix, complement."""

import hashlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowrankdisc import (BinaryMatrix, CapacityError, MatrixParseError,
                         WeightedBinaryMatrix, blow_up, complement, fixtures,
                         random_dense, rank, submatrix)
from lowrankdisc import matrix
from lowrankdisc.matrix import (_MODP, _distinct, _gram_certifies,
                                _inverse_mod_p, _pivots_mod_p, _reduce,
                                _schur_vanishes)

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


@pytest.mark.parametrize("entries", [
    [[0.5, 1.7]],  # the uint8 cast would truncate these to [[0, 1]]
    [[-1, 0]], [[256, 1]],  # and wrap these, or overflow
    [[0.0, float("nan")]], np.array([[0, 2]], dtype=np.int64)])
def test_rejects_non_binary_before_the_cast(entries):
    with pytest.raises(ValueError, match="^entries must be 0 or 1$"):
        BinaryMatrix(entries)


def test_accepts_binary_of_any_dtype():
    want = BinaryMatrix(np.array([[0, 1], [1, 1]], dtype=np.uint8))
    for entries in ([[0, 1], [1, 1]], [[-0.0, 1.0], [1.0, 1.0]],
                    np.array([[False, True], [True, True]])):
        M = BinaryMatrix(entries)
        assert M == want and M.entries.dtype == np.uint8


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


def modular_path(mp) -> Counter:
    """Switch the Gram certificate off through the MonkeyPatch mp, so that
    rank runs the GF(p) path, and count that path's calls."""
    calls = Counter()
    mp.setattr(matrix, "_gram_certifies", lambda E: False)
    for name in ("_pivots_mod_p", "_schur_vanishes"):
        real = getattr(matrix, name)
        mp.setattr(matrix, name, lambda *args, name=name, real=real:
                   calls.update([name]) or real(*args))
    return calls


@given(rank_matrices())
def test_rank_exact_whatever_the_first_prime(E):
    # p = 2 and p = 3 divide some nonzero minors, so for some of these
    # matrices the certificate rejects the GF(p) rank and the next prime
    # is tried; the Gram certificate is off, or it would settle every
    # full-rank input before any prime
    expected = fraction_rank(BinaryMatrix(E))
    for p in (2, 3, _MODP):
        with pytest.MonkeyPatch.context() as mp:
            calls = modular_path(mp)
            mp.setattr(matrix, "_MODP", p)
            assert rank(BinaryMatrix(E)) == expected
        assert calls["_pivots_mod_p"] >= 1


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
    # det = 2: singular over GF(2), nonsingular over Q; the Gram
    # certificate is off, or it would prove full rank before any prime
    E = np.array(E, dtype=np.uint8)
    assert len(_pivots_mod_p(E, 2)[0]) == 2
    calls = modular_path(monkeypatch)
    monkeypatch.setattr(matrix, "_MODP", 2)
    assert rank(BinaryMatrix(E)) == 3 == fraction_rank(BinaryMatrix(E))
    assert calls == {"_pivots_mod_p": 2, "_schur_vanishes": 1}


def test_rank_certified_with_duplicated_rows_and_columns(monkeypatch):
    # The expected rank comes from the construction: N is nonsingular over
    # GF(p), hence over Q, and copies of rows or columns add no rank.  The
    # second matrix appends random columns before copying rows, so the
    # columns outside the pivots are not copies; its 120 distinct rows
    # are then of full rank, which GF(p) elimination proves, here with the
    # Gram certificate off.
    k, s = 120, 6
    gen = np.random.default_rng(12)
    N = (gen.random((k, k)) < 0.5).astype(np.uint8)
    assert len(_pivots_mod_p(N, _MODP)[0]) == k
    rows = gen.permutation(np.concatenate([np.arange(k), gen.choice(k, s)]))
    cols = gen.permutation(np.concatenate([np.arange(k), gen.choice(k, s)]))
    assert rank(BinaryMatrix(N[np.ix_(rows, cols)])) == k
    wide = np.hstack([N, (gen.random((k, s)) < 0.5).astype(np.uint8)])
    calls = modular_path(monkeypatch)
    assert rank(BinaryMatrix(wide[np.ix_(rows, gen.permutation(k + s))])) == k
    assert calls == {"_pivots_mod_p": 1}


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


@given(st.one_of(pivot_matrices(), rank_matrices(), near_full_rank()))
def test_gram_certificate_implies_full_rank(E):
    # the certificate proves full rank or proves nothing: on the matrix as
    # given and on its distinct nonzero rows and columns, as rank calls it
    # (none when E is zero: full rank 0)
    for F in (E, _distinct(E)):
        if F.size and _gram_certifies(F):
            assert fraction_rank(BinaryMatrix(F)) == min(F.shape)


def test_gram_certificate_needs_its_shift():
    # rank 3 (row 1 = row 0 + row 2) with no zero or repeated line, and the
    # float64 Cholesky factorization of its unshifted Gram matrix completes:
    # its third pivot, exactly 0, is computed as about 4e-16; so the shift
    # c alone keeps rank from reporting 4
    E = np.array([[1, 0, 1, 0], [1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
                 dtype=np.uint8)
    assert _distinct(E).shape == E.shape
    F = E.astype(np.float64)
    np.linalg.cholesky(F @ F.T)
    assert not _gram_certifies(E)
    assert rank(BinaryMatrix(E)) == 3 == fraction_rank(BinaryMatrix(E))
    assert _gram_certifies(E[1:]) and _gram_certifies(np.eye(5, 9) == 1)


@pytest.mark.parametrize("r", [*range(1, 41), 70])
def test_inverse_mod_p_is_an_inverse(r):
    # random balanced residues: every leading principal minor is nonzero
    # mod p for this seed, and the product is taken in Python integers;
    # sides up to 32 are one Gauss-Jordan block, 33 to 40 split once and
    # 70 twice
    p = _MODP
    gen = np.random.default_rng(r)
    B = _reduce(gen.integers(0, p, (r, r)).astype(np.float64), p)
    Bi = _inverse_mod_p(B, p)
    assert np.abs(Bi).max() <= p // 2
    product = B.astype(np.int64).astype(object) @ Bi.astype(np.int64).astype(
        object)
    assert ((product % p) == np.eye(r, dtype=np.int64)).all()


def test_schur_lift_takes_the_side_of_a_small_relation(monkeypatch):
    # row 2 = row 0 + row 1: the row side's lift ends after its first
    # digit, while the column side's would run to the Hadamard bound (ten
    # digits at rank 63); the same on the transpose, with the sides swapped
    gen = np.random.default_rng(8)
    E = (gen.random((64, 64)) < 0.5).astype(np.uint8)
    E[1] &= 1 - E[0]
    E[2] = E[0] + E[1]
    digits = []
    real = matrix._lift_digit
    monkeypatch.setattr(matrix, "_lift_digit", lambda *args: digits.append(
        args[0].shape) or real(*args))
    for F in (E, E.T):
        R, C = _pivots_mod_p(F, _MODP)
        digits.clear()
        assert len(R) == 63 and _schur_vanishes(F, R, C, _MODP)
        assert len(digits) <= 2


# -- rank invariants -----------------------------------------------------------


def rank_with(E, gram: bool) -> int:
    """rank of the 0/1 array E, with the Gram certificate on or off."""
    with pytest.MonkeyPatch.context() as mp:
        if not gram:
            mp.setattr(matrix, "_gram_certifies", lambda E: False)
        return rank(BinaryMatrix(E))


@pytest.mark.parametrize("gram", [True, False])
@given(E=pivot_matrices(), a=st.integers(1, 4), b=st.integers(1, 4))
def test_rank_of_a_blow_up_is_the_rank(gram, E, a, b):
    assert (rank_with(blow_up(BinaryMatrix(E), a, b).entries, gram)
            == rank_with(E, gram))


@pytest.mark.parametrize("gram", [True, False])
@given(pivot_matrices())
def test_rank_of_the_transpose_is_the_rank(gram, E):
    assert rank_with(E.T, gram) == rank_with(E, gram)


@pytest.mark.parametrize("gram", [True, False])
@given(E=pivot_matrices(), seed=st.integers(0, 2**32 - 1))
def test_rank_is_invariant_under_permutations(gram, E, seed):
    gen = np.random.default_rng(seed)
    P = E[gen.permutation(E.shape[0])][:, gen.permutation(E.shape[1])]
    assert rank_with(P, gram) == rank_with(E, gram)


@pytest.mark.parametrize("gram", [True, False])
@given(st.one_of(pivot_matrices(), near_full_rank()))
def test_rank_of_the_complement_moves_by_at_most_one(gram, E):
    # J - M = 1 u^T - M, a rank-one change
    assert abs(rank_with(1 - E, gram) - rank_with(E, gram)) <= 1


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


@pytest.mark.parametrize("m, n", [(1, 1), (6, 6), (3, 11), (11, 3)])
def test_digest_is_the_hash_of_the_text_form(m, n):
    # digest() hashes the header and line bytes without building the text;
    # it must stay the hash of the text that to_text() writes
    for M in (random_dense(m, n, "1/2", seed=m * n),
              random_dense(n, m, "1/3", seed=m + n).transpose()):
        assert (M.digest()
                == hashlib.sha256(M.to_text().encode()).hexdigest()[:16])


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

def test_squared_side_is_lcm():
    M = random_dense(4, 6, "1/2", seed=17)
    W = WeightedBinaryMatrix.squared(M)
    assert W.side == 12
    S = W.materialize()
    assert S == blow_up(M, 3, 2)
    assert S.density() == M.density()
    assert rank(S) == rank(M)


def test_squared_over_capacity_names_the_side():
    M = random_dense(67, 71, "1/4", seed=1)  # lcm side 4757
    with pytest.raises(CapacityError, match="^materializing 4757x4757 "
                       "exceeds the dense capacity of 16777216 entries$"):
        WeightedBinaryMatrix.squared(M).materialize()
    with pytest.raises(ValueError, match="common multiple"):
        WeightedBinaryMatrix(M, 71)


def test_full_blowup_dims_and_density():
    M = random_dense(3, 4, "1/2", seed=18)
    B = blow_up(M, M.n, M.m)
    assert B.shape == (12, 12)
    assert B.density() == M.density()
