"""Decrement module: rounding, half adjustment, steps, sparse endgame, pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from lowrankdisc import (BinaryMatrix, DecrementStalled, MonoResult,
                         PermutationWitness, adjust_to_half, best_half_rect,
                         best_rect, blow_up, complement, decrement_step,
                         disc_minus, find_mono, fixtures, gram_vectors,
                         lower_bound_disc, planted_sparse, random_binary,
                         random_dense, rank, round_to_rect, submatrix,
                         witness, zero_submatrix_sparse)
from lowrankdisc.config import DEFAULT
from lowrankdisc.oracle import Rectangle
from lowrankdisc.rng import STREAM_ROUND, generator
from lowrankdisc.spectral import eigendecompose

from conftest import random_corpus
from naive import naive_best_half_rect, psd_matrix, trialwise_round_to_rect

# measured per-step density decrement: >= C_DECREMENT * sqrt(p)/sqrt(r)
# on exactly solvable sizes (observed minimum 0.45; pinned well below).
C_DECREMENT = 0.05
# measured dyadic band-occupancy constant for decrement traces:
# number of steps with p_i in [x, 2x] is <= C_BAND * sqrt(r) * sqrt(x)
# (observed maximum 2.31; pinned well above).
C_BAND = 12.0


# -- gram_vectors -----------------------------------------------------------------

def test_gram_vectors_zero_witness():
    cert = lower_bound_disc(fixtures("all_zeros(4,4)"))
    V, W = gram_vectors(cert)
    assert np.allclose(V, 0) and np.allclose(W, 0)


def test_gram_vectors_reconstruct_identity2_witness():
    I2 = fixtures("identity(2)")
    cert = witness(eigendecompose(I2))
    V, W = gram_vectors(cert)
    G = np.vstack([V, W])
    assert np.abs(G @ G.T - psd_matrix(cert)).max() < 1e-7


def test_gram_vectors_norms_bounded():
    for M in random_corpus(10, 10, 10, seed=70, min_m=10, min_n=10):
        if M.ones == 0 or M.avg_degree() > Fraction(M.n, 2):
            continue
        cert = lower_bound_disc(M)
        V, W = gram_vectors(cert)
        norms = np.sqrt((np.vstack([V, W]) ** 2).sum(axis=1))
        assert norms.max() <= 1.0 + 1e-8


# -- round_to_rect ----------------------------------------------------------------

def test_round_all_zeros_value_zero():
    Z = fixtures("all_zeros(6,6)")
    cert = lower_bound_disc(Z)
    r = round_to_rect(Z, gram_vectors(cert), trials=8, seed=0)
    assert r.value == 0


def test_round_identity8_finds_negative():
    I8 = fixtures("identity(8)")
    cert = lower_bound_disc(I8)
    r = round_to_rect(I8, gram_vectors(cert), trials=64, seed=1)
    assert r.value <= -1
    assert r.verify(I8)
    # cannot beat the exact optimum -disc^-(M) = -(n/4)
    assert r.value >= -disc_minus(I8)


def test_round_never_beats_oracle(corpus_8x8):
    for M in corpus_8x8[:10]:
        if M.ones == 0 or M.avg_degree() > Fraction(M.n, 2):
            continue
        cert = lower_bound_disc(M)
        r = round_to_rect(M, gram_vectors(cert), trials=16, seed=2)
        assert r.verify(M)
        assert r.value >= -disc_minus(M)


def test_round_deterministic():
    I8 = fixtures("identity(8)")
    grams = gram_vectors(lower_bound_disc(I8))
    a = round_to_rect(I8, grams, trials=16, seed=5)
    b = round_to_rect(I8, grams, trials=16, seed=5)
    assert a == b


def test_round_matches_trialwise_reference(corpus_8x8):
    cases = [fixtures("identity(8)"), fixtures("all_zeros(6,6)"),
             blow_up(random_dense(8, 8, "1/4", seed=3), 8, 8)]
    cases += [M for M in corpus_8x8[:20]
              if M.ones and M.avg_degree() <= Fraction(M.n, 2)]
    for M in cases:
        grams = gram_vectors(lower_bound_disc(M))
        for seed in range(3):
            expected = trialwise_round_to_rect(M, grams, 16, seed, (seed,))
            assert round_to_rect(M, grams, 16, seed, (seed,)) == expected


def test_round_ties_go_to_the_earliest_trial():
    # every trial's best quadrants are the two off-diagonal blocks of
    # identity(8), both of value -2; the sign of the first trial's g says
    # which of them is its first quadrant
    I8 = fixtures("identity(8)")
    half = np.repeat([1.0, -1.0], 4)[:, None]
    for seed in range(6):
        g0 = generator(seed, STREAM_ROUND, 0).standard_normal(1)[0]
        top = tuple(range(4)) if g0 >= 0 else tuple(range(4, 8))
        bottom = tuple(sorted(set(range(8)) - set(top)))
        r = round_to_rect(I8, (half, -half), trials=8, seed=seed)
        assert (r.X, r.Y, r.value) == (top, bottom, -2)
        assert r == trialwise_round_to_rect(I8, (half, -half), 8, seed)


# -- adjust_to_half ----------------------------------------------------------------

def test_adjust_already_half_unchanged():
    I4 = fixtures("identity(4)")
    R = Rectangle(X=(2, 3), Y=(0, 1), value=Fraction(-1))
    out = adjust_to_half(I4, R)
    assert out == R


def test_adjust_grows_and_shrinks():
    M = random_dense(8, 8, "1/2", seed=71)
    small = Rectangle(X=(1,), Y=(2, 3, 4, 5, 6), value=Fraction(0))
    out = adjust_to_half(M, small)
    assert out.shape == (4, 4)
    assert out.verify(M)


def test_adjust_defaults_only_the_missing_side():
    # 3 rows, but the row size is given: only the 4 columns must halve
    M = random_dense(3, 4, "1/2", seed=72)
    R = Rectangle(X=(0, 2), Y=(1,), value=Fraction(0))
    out = adjust_to_half(M, R, row_size=1)
    assert out.shape == (1, 2)
    assert out.verify(M)
    with pytest.raises(ValueError):
        adjust_to_half(M, R, row_size=4, col_size=2)  # more rows than M has


def test_adjust_from_oracle_rect_meets_claim_bound(corpus_8x8):
    # growing the optimal negative rectangle greedily keeps a twelfth of it
    for M in corpus_8x8:
        R = best_rect(M, "-")
        out = adjust_to_half(M, R)
        assert out.verify(M)
        assert out.value <= -disc_minus(M) / 12


# -- decrement_step ----------------------------------------------------------------

def test_step_identity8_exact_path():
    st = decrement_step(fixtures("identity(8)"))
    assert st.strategy == "exact"
    assert st.p_after == 0
    assert set(st.rect.X).isdisjoint(st.rect.Y)


def test_step_blowup_12x12_decreases():
    from lowrankdisc import complement

    base = random_binary(3, "1/2", 7)
    M = blow_up(base, 4, 4)
    if M.density() > Fraction(1, 2):
        M = complement(M)  # out-of-regime callers complement first
    assert Fraction(1, 8 * rank(M)) <= M.density() <= Fraction(1, 2)
    st = decrement_step(M, seed=0)
    assert st.p_after < st.p_i
    sub = submatrix(M, st.rect.X, st.rect.Y)
    assert sub.density() == st.p_after


def test_step_postconditions_sweep():
    for seed in range(6):
        M = random_dense(12, 12, "1/2", seed=seed)
        p = M.density()
        r = rank(M)
        if not Fraction(1, 8 * r) <= p <= Fraction(1, 2):
            continue
        st = decrement_step(M, seed=seed)
        assert st.rect.shape == (6, 6)
        assert st.p_after <= st.p_i
        assert st.p_after < st.p_i  # strict per contract
        assert st.rect.verify(M)


def test_step_rejects_out_of_regime():
    with pytest.raises(ValueError):
        decrement_step(fixtures("all_ones(4,4)"))  # p = 1 > 1/2


def test_step_stall_carries_best_candidate(monkeypatch):
    import lowrankdisc.decrement as dec

    zero = Rectangle(X=(0, 1), Y=(0, 1), value=Fraction(0))
    monkeypatch.setattr(dec, "best_half_rect", lambda *a, **k: zero)
    M = fixtures("identity(4)")
    with pytest.raises(DecrementStalled) as info:
        decrement_step(M)
    assert info.value.best == zero


def test_step_falls_back_to_local_search(monkeypatch):
    import lowrankdisc.decrement as dec

    # force stages 1 (size) and 2 (degenerate adjustment) to fail
    forced = DEFAULT.with_overrides(oracle_limit=4)
    full = Rectangle(X=tuple(range(16)), Y=tuple(range(16)), value=Fraction(0))
    monkeypatch.setattr(dec, "adjust_to_half", lambda *a, **k: full)
    M = blow_up(random_binary(4, "1/2", 1), 4, 4)
    if M.density() > Fraction(1, 2):
        from lowrankdisc import complement
        M = complement(M)
    st = decrement_step(M, seed=0, cfg=forced)
    assert st.strategy == "local_search"
    assert st.p_after < st.p_i


# -- zero_submatrix_sparse ------------------------------------------------------------

def test_sparse_all_zeros_prefix_quarter():
    Z = fixtures("all_zeros(8,8)")
    res = zero_submatrix_sparse(Z, 2)
    assert isinstance(res, MonoResult)
    assert res.X == (0, 1) and res.Y == (0, 1)
    assert res.verify(Z)


def test_sparse_identity64_permutation_witness():
    I64 = fixtures("identity(64)")
    assert I64.density() == Fraction(1, 64)  # = 1/(8r) for r = 8
    res = zero_submatrix_sparse(I64, 8)
    assert isinstance(res, PermutationWitness)
    assert res.k == 9
    assert res.verify(I64)


def test_sparse_planted_returns_quarter_block():
    M = planted_sparse(4, 256, seed=9)
    assert M.density() <= Fraction(1, 8 * 4)
    res = zero_submatrix_sparse(M, 4)
    assert isinstance(res, MonoResult)
    assert res.dims[0] >= 64 and res.dims[1] >= 64
    assert res.verify(M)


def test_sparse_rejects_dense_input():
    with pytest.raises(ValueError):
        zero_submatrix_sparse(fixtures("all_ones(8,8)"), 2)


def test_sparse_permutation_unreachable_for_true_rank():
    for r, n in ((2, 64), (4, 64), (8, 128)):
        M = planted_sparse(r, n, seed=r + n)
        res = zero_submatrix_sparse(M, r)
        assert isinstance(res, MonoResult)
        assert min(res.dims) >= n // 4
        assert res.verify(M)


# -- find_mono -------------------------------------------------------------------------

def test_find_mono_all_ones_full():
    J = fixtures("all_ones(16,16)")
    res, trace = find_mono(J)
    assert res.color == 1
    assert res.dims == (16, 16)
    assert trace.iterations == 0
    assert res.verify(J)


def test_find_mono_all_zeros_full():
    Z = fixtures("all_zeros(8,8)")
    res, _ = find_mono(Z)
    assert res.color == 0 and res.dims == (8, 8)


def test_find_mono_blowup_fixed_seed():
    base = random_binary(4, "1/2", 3)
    M = blow_up(base, 64, 64)
    r = rank(M)
    res, trace = find_mono(M, seed=0)
    assert res.verify(M)
    assert min(res.dims) >= 16
    assert trace.iterations <= 20 * math.sqrt(r)


def test_find_mono_rectangular_maps_back():
    M = blow_up(fixtures("identity(2)"), 4, 16)  # 8 x 32, rank 2
    assert rank(M) == 2
    res, _ = find_mono(M, seed=0)
    assert res.verify(M)
    assert all(0 <= i < 8 for i in res.X)
    assert all(0 <= j < 32 for j in res.Y)


def test_find_mono_identity16():
    res, _ = find_mono(fixtures("identity(16)"), seed=0)
    assert res.color == 0
    assert min(res.dims) >= 4
    assert res.verify(fixtures("identity(16)"))


def test_find_mono_trace_invariants():
    M = blow_up(random_binary(4, "1/2", 12), 32, 32)
    r = rank(M)
    res, trace = find_mono(M, seed=3)
    assert res.verify(M)
    densities = [s.p_i for s in trace.steps]
    assert all(densities[i + 1] <= densities[i] for i in range(len(densities) - 1))
    sides = [s.n_i for s in trace.steps]
    assert all(sides[i + 1] == sides[i] // 2 for i in range(len(sides) - 1))
    if trace.steps:
        last = trace.steps[-1]
        final_p = last.p_i + Fraction(last.rect.value,
                                      (last.n_i // 2) ** 2)
        assert final_p < Fraction(1, 8 * r)


@st.composite
def low_rank_blowups(draw):
    """Square blow-ups, sides even and at most 12, of random bases of at
    most 4 x 4 (so rank at most 4): every decrement step is exact."""
    n = draw(st.sampled_from([2, 4, 6, 8, 10, 12]))
    a, b = (draw(st.sampled_from([d for d in (1, 2, 3, 4) if n % d == 0]))
            for _ in range(2))
    bits = draw(st.lists(st.integers(0, 1), min_size=a * b, max_size=a * b))
    base = BinaryMatrix(np.array(bits, dtype=np.uint8).reshape(a, b))
    return blow_up(base, n // a, n // b)


@settings(max_examples=60)
@given(low_rank_blowups(), st.integers(0, 3))
def test_exact_decrement_steps_are_naive_optima(M, seed):
    # replay the trace: each step's half-rectangle is the brute-force
    # optimum (ties included) of the matrix that step saw
    result, trace = find_mono(M, seed=seed)
    assert result.verify(M)
    current = complement(M) if M.density() > Fraction(1, 2) else M
    for step in trace.steps:
        half = current.n // 2
        assert (step.n_i, step.p_i, step.strategy) == (
            current.n, current.density(), "exact")
        assert step.rect == naive_best_half_rect(current, "-", half, half)
        current = submatrix(current, step.rect.X, step.rect.Y)


def test_find_mono_json_lines_shape():
    M = blow_up(random_binary(3, "1/2", 5), 16, 16)
    res, trace = find_mono(M, seed=1)
    lines = trace.to_json_lines().strip().split("\n")
    assert len(lines) == trace.iterations + 1
    import json
    last = json.loads(lines[-1])
    assert last["color"] == res.color
    assert last["dims"] == list(res.dims)
    for line, step in zip(lines, trace.steps):
        obj = json.loads(line)
        assert set(obj) == {"i", "n_i", "p_num", "p_den", "strategy_used",
                            "disc_num", "disc_den"}


def test_find_mono_deterministic():
    M = blow_up(random_binary(4, "1/2", 6), 16, 16)
    r1, t1 = find_mono(M, seed=11)
    r2, t2 = find_mono(M, seed=11)
    assert r1 == r2
    assert t1.to_json_lines() == t2.to_json_lines()


def test_permutation_witness_certifies_rank():
    I64 = fixtures("identity(64)")
    res = zero_submatrix_sparse(I64, 8)
    assert isinstance(res, PermutationWitness)
    assert rank(I64) >= res.k
    W = submatrix(I64, res.rows, res.cols)
    assert rank(W) == res.k


def test_step_decrement_meets_measured_constant():
    # per-step decrement >= C_DECREMENT * sqrt(p) / sqrt(r) on exact sizes
    from lowrankdisc.rng import generator

    gen = generator(778, 3001)
    checked = 0
    for _ in range(60):
        n = int(gen.integers(3, 11)) * 2
        p = float(gen.uniform(0.05, 0.5))
        M = BinaryMatrix((gen.random((n, n)) < p).astype(np.uint8))
        r = rank(M)
        pd = M.density()
        if not Fraction(1, 8 * r) <= pd <= Fraction(1, 2):
            continue
        st = decrement_step(M, r=r, seed=0)
        floor = C_DECREMENT * math.sqrt(float(pd)) / math.sqrt(r)
        assert float(st.decrement) >= floor
        checked += 1
    assert checked >= 30


def test_trace_band_occupancy_meets_measured_constant():
    # steps with p_i in [x, 2x] number at most C_BAND * sqrt(r) * sqrt(x)
    for r, n, seed in ((4, 256, 3), (16, 256, 2), (8, 256, 1)):
        M = tightness_matrix_for(r, n, seed)
        rk = max(rank(M), 1)
        _, trace = find_mono(M, seed=1)
        ps = [float(s.p_i) for s in trace.steps]
        for k in range(40):
            x = 2.0 ** (-k - 1)
            occ = sum(1 for p in ps if x <= p <= 2 * x)
            assert occ <= C_BAND * math.sqrt(rk) * math.sqrt(x)


def tightness_matrix_for(r, n, seed):
    from lowrankdisc import tightness_matrix

    return tightness_matrix(r, "1/2", n, n, seed=seed)
