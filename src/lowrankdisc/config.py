"""Tunable constants: tolerances, enumeration limits, measured constants.

Asymptotic statements about discrepancy come with unspecified constants;
the ones exposed here (c0_exact_disc, c_decrement, c_band) were measured on
the generator families shipped in `constructions` and are deliberately
conservative.  Tests treat them as configuration, not as proven bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction


def check_overrides(oracle_limit=None, trials=None,
                    eig_tol_factor=None) -> None:
    """Raise ValueError for a user-settable override out of range.

    None keeps a default.  oracle_limit and trials must be positive
    integers and eig_tol_factor a positive finite number: a nan or inf
    tolerance would pass every eigensolver check.  Types are checked too,
    because JSON values arrive unconverted ("20" or true must not reach
    the oracles).
    """
    for name, value in (("oracle_limit", oracle_limit), ("trials", trials)):
        if value is not None and (type(value) is not int or value < 1):
            raise ValueError(
                f"{name} must be a positive integer, got {value!r}")
    tol = eig_tol_factor
    if tol is not None and (type(tol) not in (int, float)
                            or not 0 < tol < math.inf):
        raise ValueError(
            f"eig_tol_factor must be a positive finite number, got {tol!r}")


@dataclass(frozen=True)
class Config:
    # eigensolver acceptance: residual / orthonormality / pairing must be
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
    # measured constant for the exact-discrepancy lower-bound sweep:
    # disc(M) >= c0_exact_disc * mn * min(p, sqrt(p)/sqrt(r)).
    c0_exact_disc: float = 0.01
    # measured per-step density decrement: >= c_decrement * sqrt(p)/sqrt(r)
    # on exactly solvable sizes (observed minimum 0.45; pinned well below).
    c_decrement: float = 0.05
    # measured dyadic band-occupancy constant for decrement traces:
    # number of steps with p_i in [x, 2x] is <= c_band * sqrt(r) * sqrt(x)
    # (observed maximum 2.31; pinned well above).
    c_band: float = 12.0

    def __post_init__(self):
        check_overrides(self.oracle_limit, self.rounding_trials,
                        self.eig_tol_factor)

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
