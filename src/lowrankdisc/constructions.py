"""Generators for test and experiment matrices.

All generators are pure functions of their parameters and a 64-bit seed,
drawing from the same counter-based streams as the rest of the package, so
outputs are byte-identical across runs and platforms.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .matrix import BinaryMatrix, blow_up, complement
from .rng import STREAM_GEN, generator


def _as_fraction(p) -> Fraction:
    if isinstance(p, Fraction):
        return p
    if isinstance(p, int):
        return Fraction(p)
    if isinstance(p, str):
        return Fraction(p)
    if isinstance(p, float):
        return Fraction(str(p))
    raise TypeError(f"cannot interpret {p!r} as an exact probability")


def random_dense(m: int, n: int, p_target, seed: int) -> BinaryMatrix:
    """i.i.d. 0/1 entries, each 1 with probability p_target."""
    p = _as_fraction(p_target)
    if not 0 <= p <= 1:
        raise ValueError(f"probability {p} outside [0, 1]")
    gen = generator(seed, STREAM_GEN)
    E = (gen.random((m, n)) < float(p)).astype(np.uint8)
    return BinaryMatrix(E)


def random_binary(r: int, p_target, seed: int) -> BinaryMatrix:
    """Random square r x r matrix with i.i.d. Bernoulli(p_target) entries."""
    return random_dense(r, r, p_target, seed)


def tightness_matrix(r: int, p_target, m: int, n: int, seed: int) -> BinaryMatrix:
    """Blow-up of a random r x r matrix to m x n; rank <= r.

    Discrepancy scales exactly with the blow-up factors, so these matrices
    realize the extremal sqrt(p) * r^(3/2) scaling at every size.
    """
    if m % r or n % r:
        raise ValueError(f"blow-up requires r | m and r | n, got r={r}, "
                         f"m={m}, n={n}")
    return blow_up(random_binary(r, p_target, seed), m // r, n // r)


def regular_blowup(r: int, k: int, n: int, seed: int) -> BinaryMatrix:
    """Blow-up of a k-regular r x r base (union of k disjoint circulant
    shifts), so every row/column degree equals exactly k * n / r.

    Useful for exercising spectral bounds whose preconditions cap the
    maximum degree at a constant multiple of the average degree.
    """
    if not 1 <= k <= r:
        raise ValueError("regularity k must be in [1, r]")
    if n % r:
        raise ValueError(f"blow-up requires r | n, got r={r}, n={n}")
    gen = generator(seed, STREAM_GEN, 1)
    shifts = gen.permutation(r)[:k]
    base = np.zeros((r, r), dtype=np.uint8)
    for s in shifts:
        base[np.arange(r), (np.arange(r) + s) % r] = 1
    return blow_up(BinaryMatrix(base), n // r, n // r)


def planted_sparse(r: int, n: int, seed: int) -> BinaryMatrix:
    """Rank <= r planted instance with density 1/(16r).

    r disjoint all-ones blocks of side n // (4r) are placed on the diagonal
    of an all-zero n x n matrix, then rows and columns are shuffled (which
    preserves rank and density).
    """
    s = n // (4 * r)
    if s < 1:
        raise ValueError(f"n={n} too small for r={r} planted blocks")
    E = np.zeros((n, n), dtype=np.uint8)
    for t in range(r):
        E[t * s:(t + 1) * s, t * s:(t + 1) * s] = 1
    gen = generator(seed, STREAM_GEN, 2)
    E = E[gen.permutation(n)][:, gen.permutation(n)]
    return BinaryMatrix(E)


_FIXTURE_RE = re.compile(r"^([a-z_]+)\((\d+(?:\s*,\s*\d+)*)\)$")


def fixtures(name: str) -> BinaryMatrix:
    """Canonical deterministic matrices by name.

    Supported: identity(n), all_ones(m,n), all_zeros(m,n),
    matching_complement(n).
    """
    match = _FIXTURE_RE.match(name.strip())
    if not match:
        raise ValueError(f"unknown fixture {name!r}")
    kind = match.group(1)
    args = [int(a) for a in match.group(2).split(",")]
    if kind == "identity" and len(args) == 1:
        return BinaryMatrix(np.eye(args[0], dtype=np.uint8))
    if kind == "all_ones" and len(args) == 2:
        return BinaryMatrix(np.ones((args[0], args[1]), dtype=np.uint8))
    if kind == "all_zeros" and len(args) == 2:
        return BinaryMatrix(np.zeros((args[0], args[1]), dtype=np.uint8))
    if kind == "matching_complement" and len(args) == 1:
        return complement(BinaryMatrix(np.eye(args[0], dtype=np.uint8)))
    raise ValueError(f"unknown fixture {name!r}")


GEN_KINDS = ("identity", "all_ones", "all_zeros", "random_dense",
             "blowup_random")


@dataclass(frozen=True)
class GenSpec:
    """Declarative matrix generator, accepted as CLI flags and in configs.

    The seed is not part of the spec: `build(seed)` takes it, from
    --gen-seed or from each of an experiment's "seeds".
    """

    kind: str
    r: int | None = None
    p: Fraction | None = None
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}; "
                             f"choose from {GEN_KINDS}")
        for name in ("r", "m", "n"):
            value = getattr(self, name)
            if value is not None and (type(value) is not int or value < 1):
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        if self.p is not None:
            if (isinstance(self.p, bool)
                    or not isinstance(self.p, (Fraction, int, str, float))):
                raise ValueError(f"p must be a fraction string or a number, "
                                 f"got {self.p!r}")
            object.__setattr__(self, "p", _as_fraction(self.p))
            if not 0 <= self.p <= 1:
                raise ValueError(f"p_target {self.p} outside [0, 1]")

    def _require(self, **fields):
        for name, value in fields.items():
            if value is None:
                raise ValueError(f"generator {self.kind!r} needs {name}")

    def build(self, seed: int = 0) -> BinaryMatrix:
        if self.kind == "identity":
            self._require(n=self.n)
            return fixtures(f"identity({self.n})")
        if self.kind == "all_ones":
            self._require(m=self.m, n=self.n)
            return fixtures(f"all_ones({self.m},{self.n})")
        if self.kind == "all_zeros":
            self._require(m=self.m, n=self.n)
            return fixtures(f"all_zeros({self.m},{self.n})")
        if self.kind == "random_dense":
            self._require(m=self.m, n=self.n, p=self.p)
            return random_dense(self.m, self.n, self.p, seed)
        self._require(r=self.r, p=self.p, m=self.m, n=self.n)
        return tightness_matrix(self.r, self.p, self.m, self.n, seed)

    def label(self) -> str:
        parts = []
        for name in ("r", "m", "n"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.p is not None:
            parts.append(f"p={self.p.numerator}/{self.p.denominator}")
        return f"{self.kind}({','.join(parts)})"

    @classmethod
    def from_json_obj(cls, obj: dict) -> "GenSpec":
        if not isinstance(obj, dict) or "kind" not in obj:
            raise ValueError(f"generator spec must be an object with 'kind', "
                             f"got {obj!r}")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown generator fields {sorted(extra)}")
        return cls(**obj)
