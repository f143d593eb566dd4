"""Independent checks of CLI outputs; imports numpy and the stdlib only.

Nothing here calls into ``lowrankdisc``: the exact discrepancy reference is
its own split-table enumeration, rectangles are re-evaluated with plain
integer numpy, and mono blocks are compared entry by entry with the input.
Each checker returns an error message, or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

import numpy as np

# the package's certificate slack, 1e-7 * (1 + |value|)
NUM_TOL_BASE = 1e-7
DIAG_TOL = 1e-8

CSV_HEADER = ("matrix_id,m,n,r,p_num,p_den,disc_num,disc_den,bound,"
              "mono_rows,mono_cols,iterations,wall_time_ms,status")


def matrix_text(E: np.ndarray) -> bytes:
    """Canonical text form: "m n" header, then one 0/1 line per row."""
    m, n = E.shape
    body = np.empty((m, n + 1), dtype=np.uint8)
    body[:, :n] = E + ord("0")
    body[:, n] = ord("\n")
    return f"{m} {n}\n".encode() + body.tobytes()


def text_digest(text: bytes) -> str:
    """The package's matrix_hash: sha256 of the canonical text, 16 hex."""
    return hashlib.sha256(text).hexdigest()[:16]


def paper_target(d: float, n: int, r: int) -> float:
    """The paper's certified lower bound d^(1/2) n^(3/2) / (7 sqrt r)."""
    return math.sqrt(d) * n ** 1.5 / (7.0 * math.sqrt(r))


# -- exact discrepancy reference --------------------------------------------

def _subset_counts(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column counts and sizes of every subset of `rows`, indexed by mask."""
    k, n = rows.shape
    counts = np.zeros((1 << k, n), dtype=np.int64)
    sizes = np.zeros(1 << k, dtype=np.int64)
    for i in range(k):
        half = 1 << i
        counts[half:2 * half] = counts[:half] + rows[i]
        sizes[half:2 * half] = sizes[:half] + 1
    return counts, sizes


def exact_disc(E: np.ndarray) -> tuple[Fraction, Fraction]:
    """(max, min) of disc(X, Y) over all rectangles, by enumerating the
    subsets of the smaller side as a low half times a high half."""
    E = np.asarray(E, dtype=np.int64)
    if E.shape[0] > E.shape[1]:
        E = E.T
    m, n = E.shape
    mn = m * n
    ones = int(E.sum())
    low_c, low_s = _subset_counts(E[:m // 2])
    high_c, high_s = _subset_counts(E[m // 2:])
    low = mn * low_c - ones * low_s[:, None]
    best_pos = 0
    best_neg = 0
    for h in range(high_c.shape[0]):
        scores = low + (mn * high_c[h] - ones * high_s[h])
        best_pos = max(best_pos, int(np.maximum(scores, 0).sum(axis=1).max()))
        best_neg = min(best_neg, int(np.minimum(scores, 0).sum(axis=1).min()))
    return Fraction(best_pos, mn), Fraction(best_neg, mn)


def rect_value(E: np.ndarray, X, Y) -> Fraction:
    m, n = E.shape
    if not X or not Y:
        return Fraction(0)
    sub = int(E[np.ix_(list(X), list(Y))].sum(dtype=np.int64))
    return Fraction(m * n * sub - int(E.sum(dtype=np.int64)) * len(X) * len(Y),
                    m * n)


def _index_set(idx, bound: int) -> bool:
    return (all(isinstance(i, int) and 0 <= i < bound for i in idx)
            and list(idx) == sorted(set(idx)))


# -- per-command checks --------------------------------------------------------

def check_disc(E: np.ndarray, out: str, reference) -> str | None:
    """`reference` is exact_disc(E), computed once per input."""
    obj = json.loads(out)
    m, n = E.shape
    if (obj["m"], obj["n"], obj["ones"]) != (m, n, int(E.sum())):
        return "disc: wrong m, n or ones"
    if obj["heuristic"]:
        return "disc: heuristic result inside the oracle limit"
    want_plus, want_minus = reference
    for key, sign, want in (("plus", "+", want_plus), ("minus", "-", want_minus)):
        rect = obj[key]
        if rect["sign"] != sign:
            return f"disc: {key} rectangle carries sign {rect['sign']}"
        if not (_index_set(rect["X"], m) and _index_set(rect["Y"], n)):
            return f"disc: {key} rectangle has bad indices"
        value = Fraction(rect["value_num"], rect["value_den"])
        if rect_value(E, rect["X"], rect["Y"]) != value:
            return f"disc: {key} rectangle value does not re-evaluate"
        if value != want:
            return f"disc: {key} optimum {value} but the reference gives {want}"
    if Fraction(obj["disc_plus"]) != want_plus:
        return "disc: disc_plus disagrees with the reference"
    if Fraction(obj["disc_minus"]) != -want_minus:
        return "disc: disc_minus disagrees with the reference"
    return None


def check_bound(E: np.ndarray, text: bytes, out: str,
                rank_bound: int) -> tuple[str | None, float]:
    """Returns (error, disc_value / paper target at rank_bound)."""
    obj = json.loads(out)
    n = E.shape[0]
    value, bound = float(obj["disc_value"]), float(obj["bound"])
    if obj["matrix_hash"] != text_digest(text):
        return "bound: matrix_hash is not the digest of the input", 0.0
    if obj["diag_max"] > 1.0 + DIAG_TOL:
        return f"bound: witness diagonal {obj['diag_max']} exceeds 1", 0.0
    if value < bound - NUM_TOL_BASE * (1.0 + abs(bound)):
        return f"bound: disc_value {value} below its bound {bound}", 0.0
    d = float(E.sum(dtype=np.int64)) / n
    target = paper_target(d, n, rank_bound)
    degree_max = max(int(E.sum(axis=0).max()), int(E.sum(axis=1).max()))
    if 10 * degree_max <= 11 * d and value < target - NUM_TOL_BASE * (1 + target):
        return (f"bound: disc_value {value} below the paper target {target} "
                f"with max degree <= 1.1 d"), 0.0
    return None, value / target


def check_mono(E: np.ndarray, out: str) -> tuple[str | None, float]:
    """Returns (error, min(|X|,|Y|) / min(m, n))."""
    lines = out.splitlines()
    if not lines:
        return "mono: empty output", 0.0
    final = json.loads(lines[-1])
    m, n = E.shape
    X, Y, color = final["X"], final["Y"], final["color"]
    if not X or not Y or not (_index_set(X, m) and _index_set(Y, n)):
        return "mono: block has empty or bad index sets", 0.0
    if final["dims"] != [len(X), len(Y)] or color not in (0, 1):
        return "mono: dims or color malformed", 0.0
    if not (E[np.ix_(X, Y)] == color).all():
        return "mono: block is not monochromatic", 0.0
    for line in lines[:-1]:
        step = json.loads(line)
        if step["strategy_used"] not in ("exact", "rounding", "local_search"):
            return f"mono: unknown strategy {step['strategy_used']}", 0.0
        if step["disc_num"] >= 0:
            return "mono: a decrement step did not lower the density", 0.0
    return None, min(len(X), len(Y)) / min(m, n)


def csv_rows(csv_text: str) -> list[list[str]]:
    """Rows of a report CSV, header first.

    matrix_id holds unquoted commas (e.g. "blowup_random(r=4,m=16,...)"),
    so fields are split from the right: the 13 after it never hold one.
    """
    return [line.rsplit(",", 13) for line in csv_text.splitlines()]


def check_experiment(csv_text: str, expected_ids: list[str]) -> str | None:
    lines = csv_text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return "experiment: CSV header differs"
    rows = csv_rows(csv_text)[1:]
    if [r[0] for r in rows] != expected_ids:
        return "experiment: rows missing or out of order"
    for row in rows:
        if len(row) != 14:
            return f"experiment: row {row[0]} has {len(row)} fields"
        if row[13] != "ok":
            return f"experiment: row {row[0]} has status {row[13]}"
    return None


def csv_quality(csv_text: str) -> tuple[list[float], list[float]]:
    """mono side fractions and certified-bound / paper-target fractions."""
    mono, cert = [], []
    for f in csv_rows(csv_text)[1:]:
        m, n, r = int(f[1]), int(f[2]), int(f[3])
        p = Fraction(int(f[4]), int(f[5]))
        if f[0].endswith("|mono"):
            mono.append(min(int(f[9]), int(f[10])) / min(m, n))
        elif f[0].endswith("|bound") and m == n and r > 0 and p > 0:
            cert.append(float(f[8]) / paper_target(float(p * n), n, r))
    return mono, cert


def without_wall_time(csv_text: str) -> str:
    """The CSV with its one physical measurement, wall_time_ms, dropped."""
    col = CSV_HEADER.split(",").index("wall_time_ms")
    return "\n".join(",".join(f[:col] + f[col + 1:]) for f in csv_rows(csv_text))
