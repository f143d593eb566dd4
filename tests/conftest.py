"""Shared corpus builders for the test suite.

Corpora are generated from fixed seeds through the package's own
counter-based streams, so every run sees the same matrices.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings

import lowrankdisc
from lowrankdisc import BinaryMatrix, fixtures
from lowrankdisc.rng import generator

# Property tests draw the same examples on every run (derandomize also turns
# off the example database), and a slow machine cannot fail them on time.
settings.register_profile("lowrankdisc", derandomize=True, deadline=None)
settings.load_profile("lowrankdisc")

# CLI tests start `python -m lowrankdisc.cli` in a child interpreter; let it
# import the same checkout the suite imports, installed or not.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(lowrankdisc.__file__)),
    os.environ.get("PYTHONPATH"))))


def random_corpus(count: int, max_m: int, max_n: int, seed: int,
                  min_m: int = 1, min_n: int = 1) -> list[BinaryMatrix]:
    """Random matrices with mixed densities and dimensions."""
    gen = generator(seed, 1000)
    out = []
    for _ in range(count):
        m = int(gen.integers(min_m, max_m + 1))
        n = int(gen.integers(min_n, max_n + 1))
        p = float(gen.uniform(0.05, 0.95))
        out.append(BinaryMatrix((gen.random((m, n)) < p).astype(np.uint8)))
    return out


def small_fixtures(limit: int = 5) -> list[BinaryMatrix]:
    out = []
    for n in range(1, limit + 1):
        out.append(fixtures(f"identity({n})"))
        out.append(fixtures(f"all_zeros({n},{n})"))
        out.append(fixtures(f"all_ones({n},{n})"))
        if n >= 2:
            out.append(fixtures(f"matching_complement({n})"))
    out.append(fixtures(f"all_ones(2,{limit})"))
    out.append(fixtures(f"all_zeros({limit},3)"))
    return out


@pytest.fixture(scope="session")
def corpus_8x8() -> list[BinaryMatrix]:
    return random_corpus(60, 8, 8, seed=42, min_m=8, min_n=8)


@pytest.fixture(scope="session")
def corpus_mixed() -> list[BinaryMatrix]:
    return random_corpus(80, 7, 7, seed=43)
