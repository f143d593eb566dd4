"""The three user-settable limits, and the package's fixed numeric constants."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

# eigensolver acceptance: absolute floor under eig_tol_factor * ||A||_F.
EIG_TOL_FLOOR = 1e-13
# PSD witnesses: diagonal entries may exceed 1 by at most DIAG_TOL.
DIAG_TOL = 1e-8
# generic numeric slack for certificate inequalities, scaled by value.
NUM_TOL_BASE = 1e-7
# dense matrices are refused above this many entries (4096 x 4096).
DENSE_CAPACITY = 1 << 24
# local search: total pair-swap budget is this factor times n.
LOCAL_BUDGET_FACTOR = 50
# degree-truncation threshold delta (rows/cols above (1+delta)*d go).
TRUNCATE_DELTA = Fraction(1, 100)
# strip-vs-witness case split fires when t_r + t_c >= STRIP_FRAC * D.
STRIP_FRAC = 0.01
# Grothendieck constant upper bound used in sandwich sanity checks.
GROTHENDIECK_K = 1.7823


def num_tol(value: float) -> float:
    return NUM_TOL_BASE * (1.0 + abs(value))


@dataclass(frozen=True)
class Config:
    # eigensolver acceptance: residual and orthonormality error must be
    # below eig_tol_factor * ||A||_F (at least EIG_TOL_FLOOR).
    eig_tol_factor: float = 1e-10
    # exact subset enumeration is refused above this many rows.
    oracle_limit: int = 26
    # hyperplane-rounding trials per certificate.
    rounding_trials: int = 64

    def __post_init__(self):
        """Raise ValueError for a value out of range.

        oracle_limit and rounding_trials must be positive integers (the
        error calls rounding_trials `trials`, as the CLI and experiment
        configs do) and eig_tol_factor a positive finite number: a nan or
        inf tolerance would pass every eigensolver check.  Types are checked
        too, because JSON values arrive unconverted ("20" or true must not
        reach the oracles).
        """
        for name, value in (("oracle_limit", self.oracle_limit),
                            ("trials", self.rounding_trials)):
            if type(value) is not int or value < 1:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}")
        tol = self.eig_tol_factor
        if type(tol) not in (int, float) or not 0 < tol < math.inf:
            raise ValueError(
                f"eig_tol_factor must be a positive finite number, "
                f"got {tol!r}")

    def with_overrides(self, **kwargs) -> "Config":
        return replace(self, **kwargs)


DEFAULT = Config()


def runtime_config(oracle_limit: int | None = None, trials: int | None = None,
                   eig_tol_factor: float | None = None) -> Config:
    """DEFAULT with the user-settable overrides applied; None keeps a default.

    Raises ValueError for an override out of range (Config checks them).
    """
    overrides = {name: value for name, value in (
        ("oracle_limit", oracle_limit), ("rounding_trials", trials),
        ("eig_tol_factor", eig_tol_factor)) if value is not None}
    return DEFAULT.with_overrides(**overrides)
