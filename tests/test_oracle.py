"""Exact discrepancy oracle: values, optima, invariants, tie-breaking."""

import contextlib
import math
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lowrankdisc import (BinaryMatrix, CapacityError, Rectangle,
                         SignVectorPair, best_half_rect, best_rect,
                         best_rect_pair, blow_up, complement, disc0_plus,
                         disc_minus, disc_plus, disc_value, fixtures,
                         heuristic_rect, oracle, random_dense)
from lowrankdisc.config import DEFAULT

from conftest import random_corpus, small_fixtures
from naive import (naive_best_half_rect, naive_best_rect, naive_disc0,
                   rowwise_best_half_rect, rowwise_best_rect_pair,
                   rowwise_disc0)


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


def test_class_scan_reaches_63_rows_of_a_blow_up():
    # a 63 x 63 blow-up has 3 classes of identical rows, so its exact
    # optima are cheap above the default limit; disc and disc0 scale by
    # the 21 * 21 cells of a block.  Row masks are int64, so 64 rows are
    # refused whatever the limit
    M = random_dense(3, 3, "1/2", seed=41)
    cfg = DEFAULT.with_overrides(oracle_limit=100)
    big = blow_up(M, 21, 21)
    plus, minus = best_rect_pair(big, cfg)
    assert (plus.value, minus.value) == tuple(
        441 * r.value for r in best_rect_pair(M))
    assert plus.verify(big) and minus.verify(big)
    assert disc0_plus(big, cfg).value == 441 * disc0_plus(M).value
    with pytest.raises(CapacityError):
        best_rect_pair(blow_up(M, 22, 22), cfg)


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
        X, Y = tuple(range((M.m + 1) // 2)), tuple(range(0, M.n, 2))
        start = Rectangle(X=X, Y=Y, value=disc_value(M, X, Y))
        for sign in "+-":
            r = heuristic_rect(M, sign, seed=1)
            assert r.verify(M)
            exact = best_rect(M, sign)
            if sign == "+":
                assert 0 <= r.value <= exact.value
            else:
                assert exact.value <= r.value <= 0
            # the search behind it, unsized and at the start's sizes (the
            # decrement's fallback): sizes kept, never worse than the start
            # or better than the optimum, one rectangle per seed
            gain = 1 if sign == "+" else -1
            for sizes, best in (((None, None), exact),
                                (start.shape,
                                 best_half_rect(M, sign, *start.shape))):
                found = oracle._best_response_search(
                    M, sign, *sizes, start, seed=2, stream=(4,))
                assert found.verify(M)
                assert sizes == (None, None) or found.shape == sizes
                assert gain * start.value <= gain * found.value
                assert gain * found.value <= gain * best.value
                assert found == oracle._best_response_search(
                    M, sign, *sizes, start, seed=2, stream=(4,))


def test_heuristic_works_above_oracle_limit():
    M = random_dense(40, 40, "1/2", seed=32)
    r = heuristic_rect(M, "-", seed=1)
    assert r.verify(M)
    assert r.value < 0


def test_disc0_full_blowup_scaling():
    # (1/(mn)^2) disc0+ of the full row/column repetition equals
    # (1/(mn)) disc0+ of the base, exactly
    for seed in (0, 1, 2):
        M = random_dense(3, 4, "1/2", seed=seed)
        big = blow_up(M, M.n, M.m)
        mn = M.m * M.n
        assert (Fraction(disc0_plus(big).value, mn * mn)
                == Fraction(disc0_plus(M).value, mn))


def scanned_chunks(call) -> list[tuple[int, np.dtype]]:
    """(row masks, lane dtype) of every chunk the objectives of call()'s
    dense scans see and of every tile its bounded scans evaluate."""
    seen = []
    scan, pair_parts = oracle._scan, oracle._pair_parts

    def recording(M, rows, classes, values, *rest, **kwargs):
        def recorded(low, *args):
            seen.append((low.shape[1], low.dtype))
            return values(low, *args)
        return scan(M, rows, classes, recorded, *rest, **kwargs)

    def tile(lo, hi, out, *args):
        parts = pair_parts(lo, hi, out, *args)
        seen.append((parts[0].size, out.dtype))
        return parts

    with patch.multiple(oracle, _scan=recording, _pair_parts=tile):
        call()
    return seen


def scanned_masks(call) -> int:
    """How many row masks the objectives of call()'s scans see."""
    return sum(masks for masks, _ in scanned_chunks(call))


def scanned_lanes(call) -> set[np.dtype]:
    """The lane dtypes of call()'s scans."""
    return {lanes for _, lanes in scanned_chunks(call)}


def scan_widths(call) -> list[tuple[type, type, int | None]]:
    """The (lane, accumulator, run) widths worked out for call()'s scans,
    one entry per `_widths` call: a bounded scan works them out once, and
    again in the dense scan it falls back to."""
    widths = []
    real = oracle._widths

    def recording(*args):
        widths.append(real(*args))
        return widths[-1]

    with patch.object(oracle, "_widths", recording):
        call()
    return widths


@pytest.mark.parametrize("chunk_bits", [oracle._CHUNK_BITS, 2])
def test_disc0_scans_half_the_sign_vectors(chunk_bits):
    # x and -x tie, so only the unions of the classes of identical rows
    # without the class of the last row are scanned (2^(K-1) of them for
    # K distinct rows), and the result is still the naive optimum
    cases = [random_dense(1, 5, "1/2", seed=37), fixtures("all_zeros(3,4)"),
             blow_up(fixtures("identity(2)"), 2, 3),
             blow_up(fixtures("identity(3)"), 1, 2),
             random_dense(5, 7, "1/2", seed=38),
             random_dense(8, 3, "1/2", seed=39)]
    for M in cases:
        wide = M if M.m <= M.n else M.transpose()
        expected = naive_disc0(wide)
        if wide is not M:
            expected = SignVectorPair(x=expected.y, y=expected.x,
                                      value=expected.value)
        got = []
        with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
            masks = scanned_masks(lambda: got.append(disc0_plus(M)))
        assert got == [expected]
        distinct = len(np.unique(wide.entries, axis=0))
        assert masks == 1 << (distinct - 1)


@pytest.mark.parametrize("n", [23170, 23172, 46342])
def test_oracles_exact_at_the_int32_boundary(n):
    # both rows are ones on the first half of the columns, so A(X) reaches
    # (mn)^2 / 2: mn = 46340 is the widest int32 scan, and at 2 x 46342
    # that is 4.3e9, past int32
    E = np.zeros((2, n), dtype=np.uint8)
    E[:, :n // 2] = 1
    M = BinaryMatrix(E)
    assert (M.m * M.n <= oracle._INT32_MAX_MN) == (n == 23170)
    assert best_rect_pair(M) == rowwise_best_rect_pair(M)
    assert disc0_plus(M) == rowwise_disc0(M)


def int16_boundary_input(m: int, n: int, ones: int) -> BinaryMatrix:
    """ones random ones at density about 0.9 on the first columns of an
    m x n matrix, zero columns after them.

    With density at least 1/2 a score mn E_ij - |M| is at most |M| in
    magnitude, and -|M| on a zero column, so a zero column has the largest
    sum_i |score_ij|: m |M| for the rectangle scans, and (3m - 2) |M| for
    the relaxation's scan (base s([m]) plus the doubled rows but the last)
    when the last row is in a class of its own.
    """
    E = np.zeros((m, n), dtype=np.uint8)
    width = math.ceil(ones / (0.9 * m))
    cells = np.random.default_rng(m).permutation(m * width)[:ones]
    E[:, :width].flat[cells] = 1
    return BinaryMatrix(E)


@pytest.mark.parametrize("m, n, ones, rect_bound, disc0_bound", [
    (7, 1000, 4681, 32767, 88939), (8, 1000, 4096, 32768, 90112),
    (3, 2000, 4681, 14043, 32767), (6, 400, 2048, 12288, 32768),
    (5, 1000, 4369, 21845, 56797)])
def test_oracles_exact_at_the_int16_boundary(m, n, ones, rect_bound,
                                             disc0_bound):
    # the largest magnitude a stored value can take, max_j |base_j| +
    # sum_i |step_ij|, is exactly 32767 (int16 lanes) or 32768 (int32
    # lanes, since |-32768| wraps in int16) for the rectangle scans or the
    # relaxation's; on the first two the whole row set stores -32767 and
    # -32768 on the zero columns and is the minimum rectangle.  On the
    # last the rectangle scans sum their uint16 abs values in runs of
    # 65535 // 21845 = 3 columns, and 1000 = 3 * 333 + 1 leaves one
    # remainder row: a run of zero columns of the whole row set, the
    # minimum rectangle, sums to exactly 65535.  The rectangle oracle is
    # run with the default chunks (a dense scan: at most 8 classes) and
    # with 2^12-score chunks, where its bounded scan tiles the grid
    M = int16_boundary_input(m, n, ones)
    assert 2 * M.ones >= M.m * M.n
    scores = M.m * M.n * M.int_entries() - M.ones
    assert np.abs(scores).sum(axis=0).max() == rect_bound
    rest = (M.entries != M.entries[-1]).any(axis=1)
    assert rest.sum() == m - 1
    assert (np.abs(scores.sum(axis=0))
            + 2 * np.abs(scores[rest]).sum(axis=0)).max() == disc0_bound

    def lanes(bound):
        return {np.dtype(np.int16 if bound <= 32767 else np.int32)}

    expected = rowwise_best_rect_pair(M)
    if rect_bound in (32767, 32768, 21845):
        assert expected[1].X == tuple(range(m))
    for chunk_bits in (oracle._CHUNK_BITS, 12):
        pair = []
        with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
            widths = scan_widths(lambda: pair.append(best_rect_pair(M)))
            assert scanned_lanes(lambda: best_rect_pair(M)) \
                == lanes(rect_bound)
        assert {np.dtype(lane) for lane, _, _ in widths} == lanes(rect_bound)
        assert pair == [expected]
    relaxed = []
    assert scanned_lanes(lambda: relaxed.append(disc0_plus(M))) \
        == lanes(disc0_bound)
    assert relaxed == [rowwise_disc0(M)]
    for sign in "+-":
        for row_size in range(1, m + 1):
            half = []
            assert scanned_lanes(lambda: half.append(
                best_half_rect(M, sign, row_size))) == lanes(rect_bound)
            assert half == [rowwise_best_half_rect(M, sign, row_size,
                                                   n // 2)]


@pytest.mark.parametrize("m, n, run", [
    pytest.param(m, n, run, id=f"{m}-{n}") for m, n, run in [
        (18, 18, 18), (19, 19, 18), (20, 20, 16), (21, 21, 14),
        (22, 22, 12), (20, 40, 8), (26, 26, 7)]])
def test_disc_scans_in_int16_lanes(m, n, run):
    # the disc shapes of perfbench's small_n workload, and the oracle
    # limit, must not silently widen: sum_i |score_ij| is at most
    # m * mn = 17576 at 26 x 26, whatever the density.  The abs values
    # are summed in uint16 runs of 65535 // max_j sum_i |score_ij|
    # columns, at most n: 18 x 18 (bound 2976) folds all 18 columns in
    # one run, 19 x 19 (bound 3454) one run of 18 and one remainder row,
    # and 26 x 26 (bound 8908) runs of 7
    widths = scan_widths(
        lambda: best_rect_pair(random_dense(m, n, "1/2", seed=m + n)))
    assert widths == [(np.int16, np.int32, run)]


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


def test_high_half_table_bounded_like_a_chunk():
    # at 2^14 scores per chunk, 12 x 2000 splits into 3 low bits and 9 high
    # bits: a table of all 2^9 high halves would take 4 MB, but blocks of
    # 2^3 high halves keep it as small as a chunk (64 KB)
    M = random_dense(12, 2000, "1/2", seed=36)
    with patch.object(oracle, "_CHUNK_BITS", 14):
        for call in (lambda: best_rect_pair(M), lambda: disc0_plus(M),
                     lambda: best_half_rect(M, "-")):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20


# -- tie-breaking against the naive oracles -------------------------------------------

@st.composite
def small_wide_matrices(draw):
    """0/1 matrices up to 6 x 6 with m <= n: random bits, tie-heavy
    blow-ups of identities, and blow-ups of random bases with their rows
    and columns permuted, so that classes of identical rows interleave,
    some rows zeroed."""
    kind = draw(st.sampled_from(["bits", "identity", "permuted"]))
    if kind == "identity":
        k = draw(st.integers(1, 3))
        a = draw(st.integers(1, 6 // k))
        b = draw(st.integers(a, 6 // k))
        return blow_up(fixtures(f"identity({k})"), a, b)
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 6))
    if kind == "bits":
        bits = draw(st.lists(st.integers(0, 1), min_size=m * n,
                             max_size=m * n))
        return BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(m, n))
    k = draw(st.integers(1, 3))
    l = draw(st.integers(1, 3))
    base = np.array(draw(st.lists(st.integers(0, 1), min_size=k * l,
                                  max_size=k * l)), dtype=np.uint8)
    rows = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    cols = draw(st.lists(st.integers(0, l - 1), min_size=n, max_size=n))
    E = base.reshape(k, l)[np.ix_(rows, cols)]
    E[draw(st.lists(st.booleans(), min_size=m, max_size=m))] = 0
    return BinaryMatrix(E)


def widths():
    """Patches for four scan widths: the real rule (int16 lanes and int32
    sums on these inputs, their abs values summed in one uint16 run), the
    same with uint16 runs of 2 (so several runs and odd remainders; any
    run no longer than the real one is exact), int32 throughout and int64
    throughout."""
    real = oracle._widths

    def runs_of_two(*args):
        lane, acc, run = real(*args)
        return lane, acc, run and min(run, 2)

    return [contextlib.nullcontext(),
            patch.object(oracle, "_widths", runs_of_two),
            patch.object(oracle, "_INT16_MAX", -1),
            patch.multiple(oracle, _INT16_MAX=-1, _INT32_MAX_MN=0)]


@given(small_wide_matrices(), st.sampled_from([oracle._CHUNK_BITS, 4]),
       st.data())
def test_oracles_break_ties_like_naive(M, chunk_bits, data):
    # smallest row mask first, then the naive oracles' column choice; with
    # 4 chunk bits a chunk holds 1 to 16 vectors, so ties also span chunks.
    # The half rectangle is checked at drawn sizes (odd sides included)
    # and, on even sides, at its default half sizes
    row_size = data.draw(st.integers(1, M.m))
    col_size = data.draw(st.integers(1, M.n))
    for width in widths():
        with patch.object(oracle, "_CHUNK_BITS", chunk_bits), width:
            for sign in "+-":
                assert best_rect(M, sign) == naive_best_rect(M, sign)
                assert (best_half_rect(M, sign, row_size, col_size)
                        == naive_best_half_rect(M, sign, row_size, col_size))
                if M.m % 2 == 0 and M.n % 2 == 0:
                    assert (best_half_rect(M, sign)
                            == naive_best_half_rect(M, sign))
            assert disc0_plus(M) == naive_disc0(M)


@pytest.mark.parametrize("chunk_bits", [oracle._CHUNK_BITS, 4])
@pytest.mark.parametrize("rows, sign, row_size, col_size", [
    ([[0, 0, 0], [1, 1, 0], [0, 0, 0]], "-", 1, 1),
    ([[0, 0, 0, 1, 1, 1], [1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1],
      [0, 0, 0, 1, 1, 1]], "+", 1, 5)])
def test_half_rect_count_vector_ties_go_to_the_smallest_mask(
        rows, sign, row_size, col_size, chunk_bits):
    # the class of row 1 comes first (its highest row is lowest), so in
    # class order X = {1} comes before X = {0}, which ties with it; in one
    # chunk the low halves are sorted by mask, and with 4 chunk bits the
    # two lie in different chunks, where the smaller mask must win
    M = BinaryMatrix(np.array(rows, dtype=np.uint8))
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        got = best_half_rect(M, sign, row_size, col_size)
    assert got == naive_best_half_rect(M, sign, row_size, col_size)
    assert got.X == (0,)


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
    for width in widths():
        with patch.object(oracle, "_CHUNK_BITS", chunk_bits), width:
            assert best_rect_pair(M) == expected
            assert tuple(best_rect(M, sign) for sign in "+-") == expected


@given(small_matrices(), st.sampled_from([oracle._CHUNK_BITS, 4]))
def test_disc0_equals_naive_on_both_orientations(M, chunk_bits):
    # a tall matrix is enumerated over its columns, so its reference is the
    # naive optimum of the transpose, transposed back
    wide = M if M.m <= M.n else M.transpose()
    expected = naive_disc0(wide)
    if wide is not M:
        expected = SignVectorPair(x=expected.y, y=expected.x,
                                  value=expected.value)
    for width in widths():
        with patch.object(oracle, "_CHUNK_BITS", chunk_bits), width:
            assert disc0_plus(M) == expected


@st.composite
def rect_scan_inputs(draw):
    """Wide 0/1 matrices up to 12 x 14, often 9 rows or more: random bits
    at a density of 1/8 to 7/8 with some rows copied from earlier ones, or
    the identity, all-zero or all-one fixture."""
    kind = draw(st.sampled_from(["bits", "identity", "all_zeros",
                                 "all_ones"]))
    m = draw(st.integers(1, 12) | st.integers(9, 12))
    n = draw(st.integers(m, 14))
    if kind == "identity":
        return fixtures(f"identity({m})")
    if kind != "bits":
        return fixtures(f"{kind}({m},{n})")
    eighths = draw(st.integers(1, 7))
    cells = draw(st.lists(st.integers(0, 7), min_size=m * n, max_size=m * n))
    E = (np.array(cells).reshape(m, n) < eighths).astype(np.uint8)
    sources = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    return BinaryMatrix(E[[min(i, s) for i, s in enumerate(sources)]])


@given(rect_scan_inputs(), st.sampled_from([oracle._CHUNK_BITS, 4, 6]))
def test_bounded_scan_equals_dense_scan_and_rowwise(M, chunk_bits):
    # the bounded scan keeps the dense scan's values and smallest-mask
    # ties.  At the default chunks these inputs are scanned densely at
    # once; with 4 or 6 chunk bits a chunk holds 1 to 32 halves, so the
    # classes split into low, high and top blocks: staircases of several
    # tiles, blocks of one union that the corner covers, and grids where
    # the bound does not pay and the dense scan follows the corner
    rows, classes = oracle._row_scores(M), oracle._row_classes(M.entries)
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        bounded = oracle._bounded_scan(M, rows, classes)
        pair = best_rect_pair(M)
    assert bounded == oracle._scan(M, rows, classes, oracle._doubled_parts(),
                                   totals=True)
    assert pair == rowwise_best_rect_pair(M)


@pytest.mark.parametrize("rows", [
    [[0, 0, 1, 1, 1], [1, 0, 0, 1, 1], [0, 0, 0, 1, 1], [1, 0, 0, 1, 0]],
    [[1, 0, 1, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 0], [0, 1, 1, 0, 1]],
    [[1, 0, 1, 1, 0, 1], [0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 0, 1],
     [0, 0, 0, 1, 1, 0]]])
def test_bounded_scan_keeps_the_smaller_of_two_optimal_unions(rows):
    # each input has, for one sign, two optimal unions of its four one-row
    # classes, one of them the other plus a class (class masks 7 and 15,
    # 10 and 11, 14 and 15).  With 4 chunk bits the low and high halves
    # hold a class each and the other two classes make the top blocks, so
    # the two unions lie in different blocks, and the second one's bound
    # can equal the incumbent the first one set
    M = BinaryMatrix(np.array(rows, dtype=np.uint8))
    with patch.object(oracle, "_CHUNK_BITS", 4):
        pair = best_rect_pair(M)
    assert pair == rowwise_best_rect_pair(M)


@given(small_matrices(), st.sampled_from([oracle._CHUNK_BITS, 4]))
def test_rect_pair_of_the_complement_swaps_the_signs(M, chunk_bits):
    # disc of J - M is -disc of M on every rectangle, with the same
    # classes of identical rows: the max of the complement is the min of
    # M, on the same rectangle (smallest mask first), and the other way
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        plus, minus = best_rect_pair(M)
        flipped = best_rect_pair(complement(M))
    assert flipped == (Rectangle(X=minus.X, Y=minus.Y, value=-minus.value),
                       Rectangle(X=plus.X, Y=plus.Y, value=-plus.value))


@given(small_matrices(), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([oracle._CHUNK_BITS, 4]))
def test_rect_pair_of_a_blow_up_scales_by_ab(M, a, b, chunk_bits):
    # identical rows (and columns) go in or out together, so every a x b
    # blow-up has a times b the values of M
    with patch.object(oracle, "_CHUNK_BITS", chunk_bits):
        values = [r.value for r in best_rect_pair(blow_up(M, a, b))]
    assert values == [a * b * r.value for r in best_rect_pair(M)]


@pytest.mark.parametrize("m, n", [(18, 18), (20, 20), (22, 22), (20, 40)])
def test_bounded_scan_skips_most_of_the_grid(m, n):
    # on random disc inputs of the sizes of perfbench's small_n workload
    # the bound leaves a small staircase: these evaluate 0.4 to 13 % of
    # the 2^m unions, corner tiles included, and a bound that stopped
    # pruning would evaluate them all (or fall back to the dense scan)
    M = random_dense(m, n, "1/2", seed=m + n)
    rows, classes = oracle._row_scores(M), oracle._row_classes(M.entries)
    found = []
    masks = scanned_masks(
        lambda: found.append(oracle._bounded_scan(M, rows, classes)))
    assert masks <= 1 << (m - 2)
    assert found == [oracle._scan(M, rows, classes, oracle._doubled_parts(),
                                  totals=True)]


def test_blow_up_scans_count_vectors_not_row_sets():
    # a 12 x 12 blow-up of a 4 x 4 base with interleaved rows has at most 4
    # classes of identical rows, so the scans see at most 2^4 unions and
    # prod_k (s_k + 1) count vectors instead of 2^12 row sets and
    # C(12, 6) = 924 half sets; the results are the row-level optima
    base = random_dense(4, 4, "1/2", seed=40)
    rows = np.random.default_rng(40).permutation(np.arange(12) % 4)
    M = BinaryMatrix(base.entries[rows][:, np.arange(12) % 4])
    sizes = np.unique(M.entries, axis=0, return_counts=True)[1]
    assert scanned_masks(lambda: best_rect_pair(M)) <= 1 << len(sizes)
    assert scanned_masks(lambda: disc0_plus(M)) == 1 << (len(sizes) - 1)
    assert scanned_masks(lambda: best_half_rect(M, "-")) < np.prod(sizes + 1)
    assert best_rect_pair(M) == rowwise_best_rect_pair(M)
    assert disc0_plus(M) == rowwise_disc0(M)
    for sign in "+-":
        assert best_half_rect(M, sign) == naive_best_half_rect(M, sign)
