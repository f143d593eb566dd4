"""The two workloads: inputs made from the seed, CLI argv and output checks.

Inputs come from the package's public generators and are written with the
benchmark's own canonical writer; the program sees only the files.  Every
generator/op pair is inside the program's documented regime, so no call is
expected to fail.  Why each workload exists is recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("large_n", "small_n")


@dataclass
class Case:
    """One user call: the CLI argv, where its output lands, and its check."""

    label: str
    argv: list[str]
    # check(stdout_or_file_text) -> (error or None, {quality metric: value})
    check: Callable[[str], tuple[str | None, dict[str, float]]]
    out_file: Path | None = None
    normalize: Callable[[str], str] = field(default=lambda text: text)


def _write(workdir: Path, name: str, E: np.ndarray) -> tuple[str, bytes]:
    text = checks.matrix_text(E)
    path = workdir / name
    path.write_bytes(text)
    return str(path), text


def _mono_case(workdir: Path, label: str, E: np.ndarray, seed: int) -> Case:
    path, _ = _write(workdir, label + ".txt", E)

    def check(out):
        err, frac = checks.check_mono(E, out)
        return err, ({} if err else {"mono_side_frac": frac})

    return Case(label, ["mono", path, "--seed", str(seed)], check)


def _bound_case(workdir: Path, label: str, E: np.ndarray,
                rank_bound: int) -> Case:
    path, text = _write(workdir, label + ".txt", E)

    def check(out):
        err, frac = checks.check_bound(E, text, out, rank_bound)
        return err, ({} if err else {"cert_frac": frac})

    return Case(label, ["bound", path], check)


def _disc_case(workdir: Path, label: str, E: np.ndarray) -> Case:
    path, _ = _write(workdir, label + ".txt", E)
    reference = []

    def check(out):
        if not reference:
            reference.append(checks.exact_disc(E))
        return checks.check_disc(E, out, reference[0]), {}

    return Case(label, ["disc", path], check)


def _sub_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# -- large_n ----------------------------------------------------------------

def _heavy_row(lrd, seed: int) -> np.ndarray:
    """Blow-up to n=1024 of an 8 x 8 permutation base, with 20 extra ones in
    row 0.

    Row 0 exceeds 1.1 d, so the direct witness is unavailable, but its strip
    carries less than a hundredth of D: the witness is built on the
    truncated matrix and transferred back.
    """
    E = lrd.regular_blowup(8, 1, 1024, seed).entries.copy()
    zeros = np.nonzero(E[0] == 0)[0]
    E[0, np.random.default_rng(seed).choice(zeros, size=20, replace=False)] = 1
    return E


def _sparse_tightness(lrd, seed: int, n: int) -> np.ndarray:
    """First tightness matrix among the seed's sub-seeds with d <= n/2
    (denser ones are out of bound's regime)."""
    for k in range(100):
        M = lrd.tightness_matrix(8, Fraction(1, 2), n, n, _sub_seed(seed, k))
        if 2 * M.ones <= n * n:
            return M.entries
    raise RuntimeError("no tightness matrix with density <= 1/2")


def _cliff(lrd, seed: int) -> np.ndarray:
    """p=1/4 random 192 x 192 whose last row copies row 0: the rank is below
    n, so the modular full-rank shortcut misses."""
    E = lrd.random_dense(192, 192, Fraction(1, 4), seed).entries.copy()
    E[-1] = E[0]
    return E


def large_n(lrd, seed: int, workdir: Path, workers: int):
    """`mono` and `bound` (rank left to the program) at n >= 1024.

    mono runs the decrement through rounding, with the direct witness on the
    blow-up, the complement on the dense input and the squaring on the
    384 x 512 one.  bound covers the other two certificate branches
    (truncated-witness transfer, strip) and the exact-rank cliff.  Calls
    alternate between the two commands so that a cycle samples both evenly.
    """
    half = Fraction(1, 2)
    cases = [
        _mono_case(workdir, "mono_regular_blowup_16_5_n1024",
                   lrd.regular_blowup(16, 5, 1024, seed).entries, seed),
        _bound_case(workdir, "bound_heavy_row_8_1_n1024",
                    _heavy_row(lrd, seed), 9),
        # squared through the smallest uniform blow-up, side lcm = 1536
        _mono_case(workdir, "mono_tightness_8_half_384x512",
                   lrd.tightness_matrix(8, half, 384, 512, seed).entries, seed),
        _bound_case(workdir, "bound_random_quarter_dup_row_n192",
                    _cliff(lrd, seed), 191),
        # density 13/16, so the program complements it first
        _mono_case(workdir, "mono_dense_complement_16_3_n1024",
                   lrd.complement(lrd.regular_blowup(16, 3, 1024, seed)).entries,
                   seed),
        _bound_case(workdir, "bound_tightness_8_half_n1024",
                    _sparse_tightness(lrd, seed, 1024), 8),
    ]
    warmup = [_mono_case(workdir, "warmup_regular_blowup_n256",
                         lrd.regular_blowup(16, 5, 256, seed).entries, seed)]
    return cases, warmup


# -- small_n ----------------------------------------------------------------

# Fourteen of the twenty disc calls are 18-sided, so the median call of a run
# is one of them; they are spread over the cycle so the median samples all of
# it, and enough calls repeat for a tail percentile.
DISC_SHAPES = ((18, 18), (18, 18), (22, 22), (18, 18), (18, 18), (19, 19),
               (18, 18), (18, 18), (21, 21), (18, 18), (18, 18), (18, 18),
               (20, 20), (18, 18), (18, 18), (19, 19), (18, 18), (18, 18),
               (20, 40), (18, 18))


def _disc_cases(lrd, seed: int, workdir: Path) -> list[Case]:
    """Exact subset enumeration; 20 x 40 takes the transpose path."""
    cases = []
    for i, (m, n) in enumerate(DISC_SHAPES):
        M = lrd.random_dense(m, n, Fraction(1, 2), _sub_seed(seed, i))
        cases.append(_disc_case(workdir, f"disc_random_half_{m}x{n}_{i}",
                                M.entries))
    return cases


ALL_OPS = ["disc_exact", "disc0", "bound", "mono"]

# (name, generators, ops).  Mono only on sides <= 26, so the decrement runs
# through the exact half-rectangle oracle; bound on sides up to 256.
EXPERIMENT_CONFIGS = (
    ("experiment_small", [
        {"kind": "blowup_random", "r": 4, "p": "1/4", "m": 16, "n": 16},
        {"kind": "blowup_random", "r": 2, "p": "1/4", "m": 16, "n": 16},
        {"kind": "random_dense", "p": "1/8", "m": 16, "n": 16},
        {"kind": "identity", "n": 16},
    ], ALL_OPS),
    ("experiment_mid", [
        {"kind": "blowup_random", "r": 4, "p": "1/4", "m": 20, "n": 20},
        {"kind": "blowup_random", "r": 3, "p": "1/4", "m": 18, "n": 18},
    ], ALL_OPS),
    ("experiment_bound", [
        {"kind": "blowup_random", "r": 8, "p": "1/4", "m": 64, "n": 64},
        {"kind": "blowup_random", "r": 8, "p": "1/4", "m": 128, "n": 128},
        {"kind": "blowup_random", "r": 8, "p": "1/4", "m": 256, "n": 256},
        {"kind": "blowup_random", "r": 4, "p": "1/4", "m": 16, "n": 48},
        {"kind": "random_dense", "p": "1/4", "m": 96, "n": 96},
        {"kind": "identity", "n": 64},
        {"kind": "identity", "n": 128},
    ], ["bound"]),
)


def _in_regime(lrd, gens, ops, seed: int) -> bool:
    """bound needs average degree <= n/2; the other ops accept any input."""
    if "bound" not in ops:
        return True
    for g in gens:
        M = lrd.GenSpec.from_json_obj(g).build(seed)
        if 2 * M.ones > M.m * M.n:
            return False
    return True


def small_n(lrd, seed: int, workdir: Path, workers: int):
    """`disc` on sides 18 to 22 and `experiment` on many small matrices.

    disc spends nearly all its time in subset enumeration.  experiment runs
    the decrement through the exact half-rectangle oracle, makes many small
    spectral calls and is the only user of the worker pool.  One experiment
    call follows every seventh disc call.
    """
    disc = _disc_cases(lrd, seed, workdir)
    experiments = [_experiment_case(lrd, workdir, name, gens, ops, seed, 2,
                                    workers)
                   for name, gens, ops in EXPERIMENT_CONFIGS]
    cases = []
    for k, experiment in enumerate(experiments):
        cases += disc[7 * k:7 * k + 7] + [experiment]
    cases += disc[7 * len(experiments):]
    warmup = [
        _disc_case(workdir, "warmup_disc_random_half_14x14",
                   lrd.random_dense(14, 14, Fraction(1, 2), seed).entries),
        _experiment_case(
            lrd, workdir, "warmup_experiment",
            [{"kind": "blowup_random", "r": 2, "p": "1/4", "m": 8, "n": 8}],
            ALL_OPS, seed, 1, workers),
    ]
    return cases, warmup


def _experiment_case(lrd, workdir: Path, name: str, gens, ops, seed: int,
                     n_seeds: int, workers: int) -> Case:
    seeds = [s for s in (_sub_seed(seed, k) for k in range(100))
             if _in_regime(lrd, gens, ops, s)][:n_seeds]
    config = workdir / f"{name}.json"
    out = workdir / f"{name}.csv"
    config.write_text(json.dumps({"gens": gens, "ops": ops, "seeds": seeds}))
    expected = [f"{lrd.GenSpec.from_json_obj(g).label()}|seed={s}|{op}"
                for g in gens for s in seeds for op in ops]

    def check(text):
        err = checks.check_experiment(text, expected)
        if err:
            return err, {}
        mono, cert = checks.csv_quality(text)
        quality = {}
        if mono:
            quality["mono_side_frac"] = sum(mono) / len(mono)
        if cert:
            quality["cert_frac"] = sum(cert) / len(cert)
        return None, quality

    return Case(name, ["experiment", str(config), "--out", str(out),
                       "--threads", str(workers)],
                check, out_file=out, normalize=checks.without_wall_time)


def build(workload: str, lrd, seed: int, workdir: Path, workers: int):
    """(measured cases, warm-up cases) for one workload."""
    os.makedirs(workdir, exist_ok=True)
    return {"large_n": large_n, "small_n": small_n}[workload](
        lrd, seed, workdir, workers)
