"""Exact discrepancy oracle: values, optima, invariants, tie-breaking."""

import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowrankdisc import (BinaryMatrix, CapacityError, Rectangle,
                         best_half_rect, best_rect, best_rect_pair, blow_up,
                         disc0_plus, disc_minus, disc_plus, disc_value,
                         fixtures, heuristic_rect, oracle, random_dense)
from conftest import random_corpus, small_fixtures
from naive import naive_best_half_rect, naive_best_rect, naive_disc0


# -- disc_value -----------------------------------------------------------------

def test_disc_value_identity_cell():
    assert disc_value(fixtures("identity(2)"), (0,), (0,)) == Fraction(1, 2)


def test_disc_value_full_matrix_is_zero():
    for M in random_corpus(10, 6, 6, seed=20):
        assert disc_value(M, range(M.m), range(M.n)) == 0


def test_disc_value_identity4_block():
    assert disc_value(fixtures("identity(4)"), (0, 1), (0, 1)) == 1


def test_disc_value_empty_sets():
    M = fixtures("identity(3)")
    assert disc_value(M, (), ()) == 0
    assert disc_value(M, (0, 1), ()) == 0


def test_disc_value_out_of_range():
    with pytest.raises(IndexError):
        disc_value(fixtures("identity(3)"), (3,), (0,))


def test_disc_value_rejects_duplicate_indices():
    # a repeated index would count its row or column twice
    M = random_dense(4, 4, "1/2", seed=3)
    assert disc_value(M, [0], [1]) == Fraction(-7, 16)
    for X, Y in (([0, 0], [1]), ([0], [1, 1])):
        with pytest.raises(ValueError):
            disc_value(M, X, Y)
    with pytest.raises(ValueError):
        Rectangle(X=(0, 0), Y=(1,), value=Fraction(-7, 8)).verify(M)


def test_disc_value_additive_over_disjoint_rows():
    for M in random_corpus(15, 6, 6, seed=21):
        X1 = tuple(range(0, M.m, 2))
        X2 = tuple(range(1, M.m, 2))
        Y = tuple(range(0, M.n, 2))
        assert (disc_value(M, X1 + X2, Y)
                == disc_value(M, X1, Y) + disc_value(M, X2, Y))


def test_quadrant_identity_exact():
    for M in random_corpus(15, 7, 7, seed=22):
        X = tuple(range(M.m // 2))
        Xc = tuple(range(M.m // 2, M.m))
        Y = tuple(range((M.n + 1) // 2))
        Yc = tuple(range((M.n + 1) // 2, M.n))
        total = (disc_value(M, X, Y) + disc_value(M, Xc, Y)
                 + disc_value(M, X, Yc) + disc_value(M, Xc, Yc))
        assert total == 0


# -- best_rect --------------------------------------------------------------------

def test_best_rect_all_ones_zero():
    assert disc_plus(fixtures("all_ones(3,3)")) == 0


def test_best_rect_identity2():
    r = best_rect(fixtures("identity(2)"), "+")
    assert r.value == Fraction(1, 2)
    assert r.X == (0,) and r.Y == (0,)


def test_best_rect_identity4():
    assert disc_plus(fixtures("identity(4)")) == 1


def test_best_rect_matches_naive_on_corpus():
    for M in random_corpus(120, 5, 5, seed=23) + small_fixtures(5):
        for sign in "+-":
            got = best_rect(M, sign)
            want = naive_best_rect(M, sign)
            assert got.value == want.value, (M.entries, sign)
            assert got.verify(M)
            if M.m <= M.n:
                # same enumeration side, so ties resolve identically
                assert got == want


def test_best_rect_enumerates_smaller_side():
    M = random_dense(3, 12, "1/2", seed=24)  # wide: enumerate rows
    T = M.transpose()                        # tall: enumerate columns
    for sign in "+-":
        a = best_rect(M, sign)
        b = best_rect(T, sign)
        assert a.value == b.value
        assert (a.X, a.Y) == (b.Y, b.X)


def test_best_rect_capacity_error():
    M = random_dense(30, 30, "1/2", seed=25)
    with pytest.raises(CapacityError):
        best_rect(M, "+")


def test_trivial_cap():
    for M in random_corpus(25, 6, 6, seed=26):
        assert disc_plus(M) <= M.ones
        assert disc_minus(M) <= M.ones


def test_pos_neg_factor_three():
    for M in random_corpus(60, 7, 7, seed=27) + small_fixtures(5):
        dp, dm = disc_plus(M), disc_minus(M)
        assert dp <= 3 * dm
        assert dm <= 3 * dp


def test_blow_up_disc_scaling():
    for M in random_corpus(10, 5, 5, seed=28) + random_corpus(4, 6, 6, seed=33,
                                                              min_m=6, min_n=6):
        B = blow_up(M, 2, 3)
        assert disc_plus(B) == 6 * disc_plus(M)
        assert disc_minus(B) == 6 * disc_minus(M)


def test_best_rect_deterministic():
    M = random_dense(6, 6, "1/2", seed=29)
    assert best_rect(M, "+") == best_rect(M, "+")
    assert best_rect(M, "-") == best_rect(M, "-")


# -- best_half_rect ----------------------------------------------------------------

def test_half_rect_identity4_negative():
    r = best_half_rect(fixtures("identity(4)"), "-")
    assert r.value == -1
    assert r.shape == (2, 2)
    assert r.verify(fixtures("identity(4)"))


def test_half_rect_all_zeros():
    r = best_half_rect(fixtures("all_zeros(4,6)"), "-")
    assert r.value == 0


def test_half_rect_rejects_odd():
    with pytest.raises(ValueError):
        best_half_rect(fixtures("identity(3)"), "-")


def test_half_rect_matches_naive(corpus_8x8):
    for M in corpus_8x8[:25]:
        for sign in "+-":
            got = best_half_rect(M, sign)
            assert got == naive_best_half_rect(M, sign)
            assert got.verify(M)
            assert got.shape == (4, 4)


def test_half_rect_claim_bound(corpus_8x8):
    # a half-by-half rectangle at most -disc^-(M)/12 always exists
    for M in corpus_8x8:
        assert best_half_rect(M, "-").value <= -disc_minus(M) / 12


def test_half_rect_explicit_sizes():
    M = random_dense(5, 5, "1/2", seed=30)
    r = best_half_rect(M, "-", row_size=2, col_size=2)
    assert r.shape == (2, 2)
    assert r.verify(M)


def test_half_rect_defaults_only_the_missing_side():
    # 3 rows, but the row size is given: only the 4 columns must halve
    M = random_dense(3, 4, "1/2", seed=35)
    r = best_half_rect(M, "-", row_size=1)
    assert r.shape == (1, 2)
    assert r.verify(M)
    with pytest.raises(ValueError):
        best_half_rect(M.transpose(), "-", row_size=2)


# -- disc0_plus --------------------------------------------------------------------

def test_disc0_all_zeros():
    assert disc0_plus(fixtures("all_zeros(3,3)")).value == 0


def test_disc0_identity2_value():
    # enumeration gives 2: x = y = (1, -1) works since M - pJ = [[.5,-.5],[-.5,.5]]
    pair = disc0_plus(fixtures("identity(2)"))
    assert pair.value == 2
    assert pair.verify(fixtures("identity(2)"))


def test_disc0_matches_naive(corpus_mixed):
    for M in corpus_mixed[:40]:
        got = disc0_plus(M)
        assert got.value == naive_disc0(M).value
        assert got.verify(M)


def test_disc0_transposes_tall_matrices(corpus_mixed):
    M = random_dense(30, 5, "1/2", seed=34)  # 30 rows, but 5 columns is fine
    pair = disc0_plus(M)
    assert pair.verify(M)
    assert pair.value == disc0_plus(M.transpose()).value


def test_disc0_sandwich(corpus_mixed):
    for M in corpus_mixed:
        d0 = disc0_plus(M).value
        dp, dm = disc_plus(M), disc_minus(M)
        assert dp <= d0 <= 4 * max(dp, dm) <= 12 * dp


# -- heuristic rectangles ------------------------------------------------------------

def test_heuristic_is_valid_lower_bound():
    for M in random_corpus(10, 8, 8, seed=31):
        for sign in "+-":
            r = heuristic_rect(M, sign, seed=1)
            assert r.verify(M)
            exact = best_rect(M, sign)
            if sign == "+":
                assert 0 <= r.value <= exact.value
            else:
                assert exact.value <= r.value <= 0


def test_heuristic_works_above_oracle_limit():
    M = random_dense(40, 40, "1/2", seed=32)
    r = heuristic_rect(M, "-", seed=1)
    assert r.verify(M)
    assert r.value < 0


def test_disc0_full_blowup_scaling():
    # (1/(mn)^2) disc0+ of the full row/column repetition equals
    # (1/(mn)) disc0+ of the base, exactly
    from lowrankdisc import WeightedBinaryMatrix

    for seed in (0, 1, 2):
        M = random_dense(3, 4, "1/2", seed=seed)
        big = WeightedBinaryMatrix.full_blowup(M).materialize()
        mn = M.m * M.n
        assert (Fraction(disc0_plus(big).value, mn * mn)
                == Fraction(disc0_plus(M).value, mn))


def test_oracle_memory_bounded_on_wide_matrix():
    # the enumeration works in chunks of bounded size whatever the width
    M = random_dense(10, 8000, "1/2", seed=36)
    for call in (lambda: best_rect(M, "+"), lambda: disc0_plus(M)):
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20


# -- tie-breaking against the naive oracles -------------------------------------------

@st.composite
def small_wide_matrices(draw):
    """0/1 matrices up to 6 x 6 with m <= n; half are tie-heavy blow-ups."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        a = draw(st.integers(1, 6 // k))
        b = draw(st.integers(a, 6 // k))
        return blow_up(fixtures(f"identity({k})"), a, b)
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 6))
    bits = draw(st.lists(st.integers(0, 1), min_size=m * n, max_size=m * n))
    return BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(m, n))


@given(small_wide_matrices(), st.sampled_from([oracle._CHUNK_BITS, 4]))
def test_oracles_break_ties_like_naive(M, chunk_bits):
    # smallest row mask first, then the naive oracles' column choice; with
    # 4 chunk bits a chunk holds 2 to 16 masks, so ties also span chunks
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        for sign in "+-":
            assert best_rect(M, sign) == naive_best_rect(M, sign)
            if M.m % 2 == 0 and M.n % 2 == 0:
                assert best_half_rect(M, sign) == naive_best_half_rect(M, sign)
        assert disc0_plus(M) == naive_disc0(M)


@st.composite
def small_matrices(draw):
    """small_wide_matrices or their transposes (the transpose path)."""
    M = draw(small_wide_matrices())
    return M.transpose() if draw(st.booleans()) else M


@given(small_matrices(), st.sampled_from([oracle._CHUNK_BITS, 4]))
def test_rect_pair_equals_both_naive_optima(M, chunk_bits):
    # one scan, each sign with its own smallest-mask tie-breaking; a tall
    # matrix is enumerated over its columns, so its reference is the naive
    # optimum of the transpose, transposed back
    wide = M if M.m <= M.n else M.transpose()
    expected = tuple(naive_best_rect(wide, sign) for sign in "+-")
    if wide is not M:
        expected = tuple(Rectangle(X=r.Y, Y=r.X, value=r.value)
                         for r in expected)
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        assert best_rect_pair(M) == expected
        assert tuple(best_rect(M, sign) for sign in "+-") == expected
