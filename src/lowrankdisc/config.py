"""Tunable constants: tolerances, enumeration limits, case-split thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction


@dataclass(frozen=True)
class Config:
    # eigensolver acceptance: residual and orthonormality error must be
    # below eig_tol_factor * ||A||_F (with a small absolute floor).
    eig_tol_factor: float = 1e-10
    eig_tol_floor: float = 1e-13
    # PSD witnesses: diagonal entries may exceed 1 by at most diag_tol.
    diag_tol: float = 1e-8
    # generic numeric slack for certificate inequalities, scaled by value.
    num_tol_base: float = 1e-7
    # exact subset enumeration is refused above this many rows.
    oracle_limit: int = 26
    # dense matrices are refused above this many entries (4096 x 4096).
    dense_capacity: int = 1 << 24
    # hyperplane-rounding trials per certificate.
    rounding_trials: int = 64
    # local search: total pair-swap budget is this factor times n.
    local_budget_factor: int = 50
    # degree-truncation threshold delta (rows/cols above (1+delta)*d go).
    truncate_delta: Fraction = Fraction(1, 100)
    # strip-vs-witness case split fires when t_r + t_c >= strip_frac * D.
    strip_frac: float = 0.01
    # Grothendieck constant upper bound used in sandwich sanity tests.
    grothendieck_k: float = 1.7823

    def __post_init__(self):
        """Raise ValueError for a user-settable value out of range.

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

    def num_tol(self, value: float) -> float:
        return self.num_tol_base * (1.0 + abs(value))

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
