"""Cross-checks and fuzz sweeps for the decrement pipeline."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lowrankdisc import (BinaryMatrix, CapacityError, Rectangle,
                         best_half_rect, blow_up, complement, decrement_step,
                         find_mono, random_dense, rank, submatrix)
from lowrankdisc.config import DEFAULT
from lowrankdisc.decrement import _half_local_search
from lowrankdisc.rng import generator


def test_heuristic_ladder_vs_exact_oracle():
    # force the spectral/rounding path at sizes the exact oracle can verify
    forced = DEFAULT.with_overrides(oracle_limit=4)
    gen = generator(900, 4000)
    checked = 0
    for _ in range(40):
        n = int(gen.integers(6, 11)) * 2
        p = float(gen.uniform(0.1, 0.5))
        M = BinaryMatrix((gen.random((n, n)) < p).astype(np.uint8))
        # the local-search fallback alone, from the full rectangle
        full = Rectangle(X=tuple(range(n)), Y=tuple(range(n)),
                         value=Fraction(0))
        assert _half_local_search(M, "-", n // 2, n // 2, full, 3, (0,),
                                  forced).value < 0
        r = rank(M)
        pd = M.density()
        if not Fraction(1, 8 * r) <= pd <= Fraction(1, 2):
            continue
        st = decrement_step(M, r=r, seed=3, cfg=forced)
        assert st.strategy in ("rounding", "local_search")
        assert st.p_after < st.p_before
        # cannot beat the exact optimum over half rectangles
        exact = best_half_rect(M, "-")
        assert st.rect.value >= exact.value
        checked += 1
    assert checked >= 20


def test_find_mono_fuzz_low_rank():
    gen = generator(901, 4001)
    for trial in range(25):
        r = int(gen.integers(1, 5))
        base = BinaryMatrix(
            (gen.random((r, r)) < float(gen.uniform(0.2, 0.8))).astype(np.uint8))
        a = int(gen.integers(2, 9))
        b = int(gen.integers(2, 9))
        M = blow_up(base, a, b)
        res, trace = find_mono(M, seed=trial)
        assert res.verify(M)
        assert min(res.dims) >= 1
        true_rank = rank(M)
        if true_rank:
            assert trace.iterations <= 20 * math.sqrt(true_rank) + 1


def test_find_mono_fuzz_unstructured():
    # full-rank random matrices still terminate and verify (r = n regime)
    gen = generator(902, 4002)
    for trial in range(10):
        n = int(gen.integers(8, 17))
        M = BinaryMatrix(
            (gen.random((n, n)) < float(gen.uniform(0.1, 0.9))).astype(np.uint8))
        res, _ = find_mono(M, seed=trial)
        assert res.verify(M)


def test_find_mono_dense_complement_color():
    M = complement(blow_up(BinaryMatrix(np.eye(3, dtype=np.uint8)), 8, 8))
    assert M.density() > Fraction(1, 2)
    res, _ = find_mono(M, seed=2)
    assert res.color == 1
    assert res.verify(M)


def test_find_mono_odd_square():
    M = blow_up(BinaryMatrix(np.eye(3, dtype=np.uint8)), 9, 9)  # 27x27
    res, trace = find_mono(M, seed=4)
    assert res.verify(M)
    for earlier, later in zip(trace.steps, trace.steps[1:]):
        assert later.n_i == earlier.n_i // 2


def test_find_mono_rectangular_capacity_error():
    M = random_dense(100, 99, "1/2", seed=5)  # lcm side 9900 is over budget
    with pytest.raises(CapacityError):
        find_mono(M)


def test_decrement_submatrix_chain_consistency():
    # replaying the trace reproduces the recorded densities
    M = blow_up(random_dense(4, 4, "1/2", seed=31), 32, 32)
    if M.density() > Fraction(1, 2):
        M = complement(M)
    res, trace = find_mono(M, seed=9)
    current = M
    for step in trace.steps:
        assert current.density() == step.p_i
        assert current.n == step.n_i
        assert step.rect.verify(current)
        current = submatrix(current, step.rect.X, step.rect.Y)
    assert res.verify(M)
