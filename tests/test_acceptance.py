"""Acceptance suite: one test per criterion, printing one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance and measured constant is pinned here; the measured
constants are treated as configuration, not theorems.
"""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from lowrankdisc import (BinaryMatrix, MonoResult, best_half_rect, best_rect,
                         blow_up, disc0_plus, disc_minus, disc_plus,
                         eigendecompose, find_mono, fixtures,
                         lower_bound_disc, planted_sparse, random_binary,
                         rank, regular_blowup, tightness_matrix,
                         witness, zero_submatrix_sparse)
from lowrankdisc.config import DEFAULT
from lowrankdisc.rng import generator

from conftest import small_fixtures
from naive import disc_of_psd, naive_best_rect, psd_matrix

# measured constant for the exact-discrepancy lower-bound sweep:
# disc(M) >= C0_EXACT_DISC * mn * min(p, sqrt(p)/sqrt(r)).
C0_EXACT_DISC = 0.01


def report(num: int, message: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {message}")


def _sized_corpus(count: int, max_dim: int, seed: int) -> list[BinaryMatrix]:
    gen = generator(seed, 2000)
    out = []
    for _ in range(count):
        m = int(gen.integers(1, max_dim + 1))
        n = int(gen.integers(1, max_dim + 1))
        p = float(gen.uniform(0.0, 1.0))
        out.append(BinaryMatrix((gen.random((m, n)) < p).astype(np.uint8)))
    return out


def test_criterion_01_oracle_vs_naive_enumeration():
    start = time.time()
    corpus = _sized_corpus(10_000, 5, seed=101) + small_fixtures(5)
    for M in corpus:
        for sign in "+-":
            assert best_rect(M, sign).value == naive_best_rect(M, sign).value
    elapsed = time.time() - start
    assert elapsed < 120
    report(1, f"best_rect == naive double enumeration on {len(corpus)} "
              f"matrices up to 5x5 in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def corpus_10():
    return _sized_corpus(1_000, 10, seed=202)


def test_criterion_02_pos_neg_factor_three(corpus_10):
    for M in corpus_10:
        dp, dm = disc_plus(M), disc_minus(M)
        assert dp <= 3 * dm
        assert dm <= 3 * dp
    report(2, f"disc+ <= 3 disc- and disc- <= 3 disc+ exactly on "
              f"{len(corpus_10)} matrices up to 10x10")


def test_criterion_03_half_rectangle_claim(corpus_10):
    checked = 0
    for M in corpus_10:
        if M.m % 2 or M.n % 2:
            continue  # half sizes are only defined for even dimensions
        assert best_half_rect(M, "-").value <= -disc_minus(M) / 12
        checked += 1
    assert checked >= 200
    report(3, f"best half rectangle <= -disc^-/12 exactly on {checked} "
              f"even-dimension corpus matrices")


def test_criterion_04_relaxation_sandwich(corpus_10):
    gen = generator(404, 2001)
    square_sparse = []
    for _ in range(80):
        n = int(gen.integers(4, 11))
        p = float(gen.uniform(0.05, 0.5))
        square_sparse.append(
            BinaryMatrix((gen.random((n, n)) < p).astype(np.uint8)))
    checked_cert = 0
    for M in corpus_10 + square_sparse:
        dp = disc_plus(M)
        d0 = disc0_plus(M).value
        assert dp <= d0 <= 12 * dp
        if M.m == M.n and M.ones > 0 and M.avg_degree() <= Fraction(M.n, 2):
            cert = lower_bound_disc(M)
            cap = 43.0 * float(dp)
            assert cert.disc_value <= cap + DEFAULT.num_tol(cap)
            checked_cert += 1
    assert checked_cert >= 100
    report(4, f"disc+ <= disc0+ <= 12 disc+ exactly on "
              f"{len(corpus_10) + len(square_sparse)} matrices; certificate "
              f"<= 43 disc+ on {checked_cert} square ones")


def test_criterion_05_cubesum_certificate(corpus_10):
    checked = 0
    for M in corpus_10:
        if M.m != M.n or M.ones == 0:
            continue
        S = eigendecompose(M)
        cert = witness(S, M.max_degree(), matrix_hash=M.digest())
        assert cert.diag_max <= 1 + 1e-8
        cubesum = float((S.lambdas[1:S.n] ** 3).sum()) / M.max_degree()
        direct = disc_of_psd(M, psd_matrix(cert))
        assert direct >= cubesum - DEFAULT.num_tol(cubesum)
        checked += 1
    I8 = fixtures("identity(8)")
    cert8 = witness(eigendecompose(I8), 1)
    assert abs(cert8.bound - 7.0) <= 1e-6
    assert cert8.disc_value >= 7.0 - 1e-6
    report(5, f"witness diag <= 1+1e-8 and disc(X) >= cube-sum bound on "
              f"{checked} square matrices; identity(8) bound = 7 +- 1e-6")


def test_criterion_06_lowrank_formula():
    cases = []
    for r_base in (4, 5, 6, 8):
        for k in range(2, r_base // 2 + 1):
            for n_mult in (4, 6, 8):
                cases.append((r_base, k, r_base * n_mult))
    seeds = range(10)
    checked = 0
    for seed in seeds:
        for r_base, k, n in cases:
            if checked >= 200:
                break
            M = regular_blowup(r_base, k, n, seed=seed)
            d = float(M.avg_degree())
            assert M.max_degree() <= 1.1 * d
            assert d <= n / 2
            r = rank(M)
            assert r >= 2
            cert = lower_bound_disc(M, r=r)
            target = math.sqrt(d) * n ** 1.5 / (7.0 * math.sqrt(r))
            assert cert.disc_value >= target - DEFAULT.num_tol(target)
            checked += 1
    assert checked >= 200
    report(6, f"certificate >= d^1/2 n^3/2 / (7 sqrt(r)) on {checked} "
              f"regular low-rank matrices")


def test_criterion_07_exact_disc_lower_bound(corpus_10):
    c0 = C0_EXACT_DISC
    checked = 0
    corpus = corpus_10 + small_fixtures(5) + [
        regular_blowup(4, 2, 12, seed=s) for s in range(3)]
    for M in corpus:
        p = M.density()
        if p > Fraction(1, 2):
            continue
        if M.ones == 0:
            rhs = 0.0
        else:
            r = rank(M)
            rhs = c0 * M.m * M.n * min(float(p), math.sqrt(float(p)) / math.sqrt(r))
        disc = float(max(disc_plus(M), disc_minus(M)))
        assert disc >= rhs, (M.entries, disc, rhs)
        checked += 1
    assert checked >= 400
    report(7, f"exact disc >= {c0} * mn * min(p, sqrt(p/r)) on {checked} "
              f"corpus matrices with p <= 1/2")


def test_criterion_08_blow_up_laws():
    corpus = _sized_corpus(60, 5, seed=303) + small_fixtures(3)
    for M in corpus:
        for a, b in ((2, 2), (3, 2), (2, 3)):
            B = blow_up(M, a, b)
            assert B.density() == M.density()
            assert rank(B) == rank(M)
            assert disc_plus(B) == a * b * disc_plus(M)
    report(8, f"blow-up preserves density and rank and scales disc+ by a*b "
              f"on {len(corpus)} matrices")


def test_criterion_09_sparse_dichotomy():
    start = time.time()
    checked = 0
    for r in (2, 4, 8):
        for n in (64, 256):
            for seed in range(17):
                M = planted_sparse(r, n, seed=seed)
                assert M.density() <= Fraction(1, 8 * r)
                res = zero_submatrix_sparse(M, r)
                assert isinstance(res, MonoResult), "permutation branch fired"
                assert res.dims[0] >= n / 4 and res.dims[1] >= n / 4
                assert res.verify(M)
                checked += 1
                if checked >= 100:
                    break
    elapsed = time.time() - start
    assert checked >= 100
    assert elapsed < 60
    report(9, f"all-zero quarter block found on {checked} planted sparse "
              f"instances in {elapsed:.1f}s; permutation branch never fired")


def test_criterion_10_find_mono_end_to_end():
    start = time.time()
    lines = []
    for r, n in ((4, 512), (9, 504), (16, 512)):
        # n must be a multiple of r; 504 = 9 * 56 stands in for 512
        M = tightness_matrix(r, "1/2", n, n, seed=7)
        res, trace = find_mono(M, seed=1)
        assert res.verify(M)
        assert min(res.dims) >= n / 2 ** (10 * math.sqrt(r))
        assert trace.iterations <= 20 * math.sqrt(r)
        lines.append(f"r={r}: dims={res.dims}, I={trace.iterations}")
    elapsed = time.time() - start
    assert elapsed < 300
    report(10, f"monochromatic extraction on tightness fixtures "
               f"({'; '.join(lines)}) in {elapsed:.1f}s")


def test_criterion_11_tightness_scaling():
    start = time.time()
    ratios = []
    for r in (12, 16, 20):
        M = random_binary(r, "1/2", seed=100 + r)
        disc = float(max(disc_plus(M), disc_minus(M)))
        ratio = disc / (math.sqrt(0.5) * r ** 1.5)
        assert 0.05 <= ratio <= 5.0
        ratios.append(f"r={r}: {ratio:.3f}")
    elapsed = time.time() - start
    assert elapsed < 600
    report(11, f"disc/(sqrt(p) r^1.5) in [0.05, 5] ({'; '.join(ratios)}) "
               f"in {elapsed:.1f}s")


def test_criterion_12_determinism(tmp_path):
    env_base = dict(os.environ)

    # byte-identical mono traces across two CLI runs
    M = blow_up(random_binary(4, "1/2", 3), 32, 32)
    mfile = tmp_path / "m.txt"
    mfile.write_text(M.to_text())

    def run_mono():
        proc = subprocess.run(
            [sys.executable, "-m", "lowrankdisc.cli", "mono", str(mfile),
             "--seed", "5"],
            capture_output=True, env=env_base, check=True)
        return proc.stdout

    trace_a, trace_b = run_mono(), run_mono()
    assert trace_a == trace_b and trace_a

    # byte-identical experiment reports across runs and thread counts
    config = {
        "gens": [{"kind": "blowup_random", "r": 2, "p": "1/2",
                  "m": 32, "n": 32},
                 {"kind": "identity", "n": 12}],
        "ops": ["disc_exact", "bound", "mono"],
        "seeds": [1, 2, 3],
        "timing": False,
    }
    cfile = tmp_path / "config.json"
    cfile.write_text(json.dumps(config))

    def run_experiment_cli(threads: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "lowrankdisc.cli", "experiment",
             str(cfile), "--threads", threads],
            capture_output=True, env=env_base, check=True)
        return proc.stdout

    rep_1a = run_experiment_cli("1")
    rep_1b = run_experiment_cli("1")
    rep_8 = run_experiment_cli("8")
    assert rep_1a == rep_1b == rep_8 and rep_1a
    report(12, "identical seeds give byte-identical traces and reports "
               "across two runs and thread counts 1 and 8")
