"""Golden CLI corpus: the exit code, stdout and stderr of every case, byte
for byte.

data/cli_corpus.json holds each case's argv, its stdin (matrix text or
null), its experiment config (or null) and the recorded outputs.  To record
them again from the package on the path (the module reads the file when
it is imported, so a first recording starts from a file holding `[]`):

    PYTHONPATH=src python tests/test_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

from lowrankdisc import (BinaryMatrix, fixtures, random_dense, regular_blowup,
                         tightness_matrix)
from lowrankdisc.cli import main

CORPUS = os.path.join(os.path.dirname(__file__), "data", "cli_corpus.json")
CONFIG = "{config}"  # argv placeholder for the experiment config's path


def run_case(case: dict, tmp_dir: str) -> dict:
    """Run one case through cli.main in this process."""
    argv = list(case["argv"])
    if case["config"] is not None:
        path = os.path.join(tmp_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(case["config"], fh)
        argv = [path if arg == CONFIG else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(case["stdin"] or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
    finally:
        sys.stdin = stdin
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _load() -> list[dict]:
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", _load(), ids=lambda case: case["name"])
def test_cli_corpus(case, tmp_path):
    got = run_case(case, str(tmp_path))
    assert got == {key: case[key] for key in ("exit", "stdout", "stderr")}


# -- recording -------------------------------------------------------------------

def _heavy(rows=(), cols=()) -> BinaryMatrix:
    """A 4-regular 16 x 16 base blown up to 128 x 128, with the first half
    of the given rows and columns set to one: heavy strips."""
    E = regular_blowup(16, 4, 128, 0).entries.copy()
    for i in rows:
        E[i, :64] = 1
    for j in cols:
        E[:64, j] = 1
    return BinaryMatrix(E)


def _gen(kind: str, m: int, n: int, seed: int, r: int = 4,
         p: str = "1/2") -> list[str]:
    return ["--gen-kind", kind, "--gen-r", str(r), "--gen-p", p,
            "--gen-m", str(m), "--gen-n", str(n), "--gen-seed", str(seed)]


def _fixture(kind: str, *sides: int) -> list[str]:
    """Flags of a fixture generator: one side is n, two are m and n."""
    names = ["--gen-m", "--gen-n"][-len(sides):]
    return ["--gen-kind", kind,
            *(arg for name, side in zip(names, sides)
              for arg in (name, str(side)))]


def _cases():
    """(name, argv, stdin, config) of every case."""
    def stdin(name, argv, M):
        return (name, argv, M if isinstance(M, str) else M.to_text(), None)

    def gen(name, argv):
        return (name, argv, None, None)

    def blowup(m, n, seed, **kw):
        return _gen("blowup_random", m, n, seed, **kw)

    def dense(m, n, seed, p="1/2"):
        return _gen("random_dense", m, n, seed, p=p)

    experiment = {
        "gens": [{"kind": "identity", "n": 8},
                 {"kind": "random_dense", "m": 6, "n": 10, "p": "1/3"},
                 {"kind": "blowup_random", "r": 4, "p": "1/2", "m": 32,
                  "n": 32},
                 {"kind": "random_dense", "m": 67, "n": 71, "p": "1/4"}],
        "ops": ["disc_exact", "disc0", "bound", "mono"],
        "seeds": [1, 2],
        "timing": False,
    }
    stdin_disc = ["disc", "-"]
    return [
        stdin("disc_exact_square", stdin_disc,
              random_dense(12, 12, "1/2", 1)),
        stdin("disc_exact_transposed", stdin_disc,
              random_dense(20, 9, "1/3", 2)),
        gen("disc_exact_identity", ["disc", *_fixture("identity", 5)]),
        gen("disc_class_scan", ["disc", *blowup(24, 24, 3)]),
        gen("disc_class_scan_raised_limit",
            ["disc", *blowup(64, 48, 4), "--oracle-limit", "48"]),
        stdin("disc_heuristic", [*stdin_disc, "--heuristic", "--seed", "2"],
              random_dense(64, 64, "1/2", 3)),
        gen("disc_heuristic_rect",
            ["disc", *dense(200, 256, 5, p="1/4"), "--heuristic"]),
        gen("disc_capacity", ["disc", *dense(30, 30, 1)]),
        stdin("disc_capacity_lowered_limit",
              [*stdin_disc, "--oracle-limit", "8"],
              random_dense(10, 12, "1/2", 4)),
        stdin("disc_parse_ragged", stdin_disc, "2 3\n101\n10\n"),
        stdin("disc_parse_characters", stdin_disc, "2 2\n10\n1x\n"),
        stdin("disc_parse_header", stdin_disc, "2\n10\n01\n"),
        stdin("disc_parse_row_count", stdin_disc, "3 2\n10\n01\n"),
        stdin("disc_parse_empty", stdin_disc, ""),
        gen("disc_parse_no_matrix", ["disc"]),
        gen("disc_parse_argv", [*stdin_disc, "--oracle-limit", "ten"]),
        stdin("disc_oracle_limit_zero", [*stdin_disc, "--oracle-limit", "0"],
              fixtures("identity(3)")),
        stdin("bound_direct", ["bound", "-"], regular_blowup(16, 5, 128, 0)),
        stdin("bound_strip_rows", ["bound", "-"], _heavy(cols=(5, 6, 7))),
        stdin("bound_strip_cols", ["bound", "-"], _heavy(rows=(0, 1, 2))),
        gen("bound_trivial", ["bound", *_fixture("all_zeros", 9, 9)]),
        gen("bound_regime", ["bound", *_fixture("all_ones", 8, 8)]),
        gen("bound_rect_autosquare", ["bound", *blowup(48, 64, 6, p="1/4")]),
        gen("bound_rect_capacity", ["bound", *dense(67, 71, 1, p="1/4")]),
        gen("bound_tol_nan",
            ["bound", *_fixture("identity", 4), "--tol-eig", "nan"]),
        gen("mono_exact", ["mono", *blowup(16, 16, 2)]),
        stdin("mono_exact_seeded", ["mono", "-", "--seed", "4"],
              tightness_matrix(4, "1/2", 24, 24, 3)),
        gen("mono_rounding",
            ["mono", *blowup(32, 32, 2), "--oracle-limit", "4"]),
        gen("mono_rounding_trials",
            ["mono", *blowup(64, 64, 5, r=8), "--oracle-limit", "4",
             "--trials", "5", "--seed", "1"]),
        gen("mono_spectral_n256",
            ["mono", *blowup(256, 256, 1, r=8), "--seed", "1"]),
        gen("mono_complemented", ["mono", *blowup(32, 32, 3, p="3/4")]),
        gen("mono_rect_squared", ["mono", *blowup(24, 32, 2)]),
        gen("mono_rect_squared_complemented",
            ["mono", *blowup(40, 24, 4, p="3/4")]),
        gen("mono_all_zeros", ["mono", *_fixture("all_zeros", 3, 7)]),
        gen("mono_square_capacity", ["mono", *dense(67, 71, 1, p="1/4")]),
        gen("mono_square_capacity_complemented",
            ["mono", *dense(71, 67, 2, p="3/4")]),
        gen("mono_trials_zero",
            ["mono", *_fixture("identity", 4), "--trials", "0"]),
        ("experiment", ["experiment", CONFIG], None, experiment),
        ("experiment_threads", ["experiment", CONFIG, "--threads", "2"],
         None, experiment),
        ("experiment_bad_config", ["experiment", CONFIG], None,
         {**experiment, "trials": 0}),
    ]


def record() -> None:
    import tempfile

    corpus = []
    with tempfile.TemporaryDirectory() as tmp_dir:
        for name, argv, stdin, config in _cases():
            case = {"name": name, "argv": argv, "stdin": stdin,
                    "config": config}
            case.update(run_case(case, tmp_dir))
            corpus.append(case)
    with open(CORPUS, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record()
