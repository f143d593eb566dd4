"""CLI surface: exit codes, JSON shapes, experiment CSV, reproducibility."""

import json
import os
from fractions import Fraction

import pytest

from lowrankdisc import (DecrementStalled, Rectangle, fixtures, matrix, oracle,
                         random_dense)
from lowrankdisc.cli import main
from lowrankdisc.experiment import CSV_HEADER, ExperimentConfig, render_csv, run_experiment


def write_matrix(tmp_path, M, name="m.txt"):
    path = tmp_path / name
    path.write_text(M.to_text())
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- disc ---------------------------------------------------------------------

def test_disc_identity4(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("identity(4)"))
    code, out, _ = run_cli(["disc", path], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["disc_plus"] == "1/1"
    assert obj["disc_minus"] == "1/1"
    assert obj["plus"]["value_num"] == 1 and obj["plus"]["value_den"] == 1
    assert not obj["heuristic"]


def test_disc_all_zeros(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("all_zeros(3,3)"))
    code, out, _ = run_cli(["disc", path], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["disc_plus"] == "0/1" and obj["disc_minus"] == "0/1"


def test_disc_capacity_exit_3(tmp_path, capsys):
    path = write_matrix(tmp_path, random_dense(30, 30, "1/2", seed=1))
    code, _, err = run_cli(["disc", path], capsys)
    assert code == 3
    assert "26" in err  # names the oracle limit


def test_disc_heuristic_above_limit(tmp_path, capsys):
    path = write_matrix(tmp_path, random_dense(30, 30, "1/2", seed=1))
    code, out, _ = run_cli(["disc", path, "--heuristic"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["heuristic"] is True


def test_disc_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("2 3\n101\n10\n")
    code, _, err = run_cli(["disc", str(path)], capsys)
    assert code == 2


DISC_64 = ["disc", "--gen-kind", "random_dense", "--gen-p", "1/2",
           "--gen-m", "64", "--gen-n", "64"]


@pytest.mark.parametrize("args, want", [
    (DISC_64, 3), (DISC_64 + ["--heuristic"], 0),
    (["mono", "--gen-kind", "blowup_random", "--gen-r", "4", "--gen-p", "1/4",
      "--gen-m", "64", "--gen-n", "64", "--gen-seed", "5"], 0),
])
def test_oracle_limit_above_63_acts_as_63(capsys, args, want):
    # row masks are int64: a limit of 100 sent 64-row inputs to the exact
    # oracle, which refused them, instead of to the heuristic or rounding
    code, out, err = run_cli(args + ["--oracle-limit", "100"], capsys)
    assert code == want
    assert (code, out, err) == run_cli(args + ["--oracle-limit", "63"], capsys)


def test_disc_from_genspec_flags(capsys):
    code, out, _ = run_cli(["disc", "--gen-kind", "identity", "--gen-n", "4"],
                           capsys)
    assert code == 0
    assert json.loads(out)["disc_plus"] == "1/1"


# -- bound ---------------------------------------------------------------------

def test_bound_identity8(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("identity(8)"))
    code, out, _ = run_cli(["bound", path], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["bound"] >= 7 * (1 - 1e-6)
    assert set(obj) == {"bound", "disc_value", "diag_max", "lambda_head",
                        "residual", "matrix_hash"}


@pytest.mark.parametrize("command, option, value", [
    ("bound", "--tol-eig", "nan"), ("bound", "--tol-eig", "inf"),
    ("bound", "--tol-eig", "0"), ("bound", "--tol-eig", "-1e-10"),
    ("disc", "--oracle-limit", "0"), ("disc", "--oracle-limit", "-1"),
    ("mono", "--oracle-limit", "0"), ("mono", "--trials", "0"),
    ("mono", "--trials", "-3")])
def test_cli_rejects_out_of_range_overrides(tmp_path, capsys, command,
                                            option, value):
    # a nan or inf tolerance would skip every eigensolver check and print
    # an uncertified bound; the CLI shares the experiment config's checks
    path = write_matrix(tmp_path, fixtures("identity(8)"))
    code, out, err = run_cli([command, path, f"{option}={value}"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and value in err


def test_bound_all_ones_regime_exit_4(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("all_ones(6,6)"))
    code, _, err = run_cli(["bound", path], capsys)
    assert code == 4


def test_bound_tightness_formula(tmp_path, capsys):
    import math
    from lowrankdisc import rank, tightness_matrix

    # seed 380 is the first whose (complemented) blow-up is degree-regular
    # enough for the closed-form bound; other seeds would be skipped
    M = tightness_matrix(4, "1/2", 32, 32, seed=380)
    if M.density() > 0.5:
        from lowrankdisc import complement
        M = complement(M)
    d = float(M.avg_degree())
    if M.max_degree() > 1.1 * d:
        pytest.skip("seed violates the max-degree condition")
    path = write_matrix(tmp_path, M)
    code, out, _ = run_cli(["bound", path], capsys)
    assert code == 0
    bound = json.loads(out)["disc_value"]
    assert bound >= math.sqrt(d) * 32 ** 1.5 / (7 * math.sqrt(rank(M))) - 1e-6


def test_bound_rectangular_autosquares(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("identity(4)").transpose())
    # 4x4 already square; use a genuinely rectangular low-rank matrix
    from lowrankdisc import blow_up, fixtures as fx
    path = write_matrix(tmp_path, blow_up(fx("identity(2)"), 2, 4), "r.txt")
    code, out, _ = run_cli(["bound", path], capsys)
    assert code == 0
    assert json.loads(out)["disc_value"] > 0


# -- mono ---------------------------------------------------------------------

def test_mono_all_zeros(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("all_zeros(8,8)"))
    code, out, _ = run_cli(["mono", path], capsys)
    assert code == 0
    last = json.loads(out.strip().split("\n")[-1])
    assert last["color"] == 0 and last["dims"] == [8, 8]


def test_mono_identity16_dims(tmp_path, capsys):
    path = write_matrix(tmp_path, fixtures("identity(16)"))
    code, out, _ = run_cli(["mono", path, "--seed", "0"], capsys)
    assert code == 0
    last = json.loads(out.strip().split("\n")[-1])
    assert min(last["dims"]) >= 4


def test_mono_trace_lines_are_json(tmp_path, capsys):
    from lowrankdisc import blow_up, random_binary
    M = blow_up(random_binary(4, "1/2", 3), 16, 16)
    path = write_matrix(tmp_path, M)
    code, out, _ = run_cli(["mono", path, "--seed", "1"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    for line in lines[:-1]:
        obj = json.loads(line)
        assert obj["n_i"] >= 2
        assert obj["p_den"] > 0


# -- experiment ------------------------------------------------------------------

def exp_config(tmp_path, timing=False, seeds=(1,), ops=("disc_exact",)):
    cfg = {
        "gens": [{"kind": "identity", "n": 8},
                 {"kind": "blowup_random", "r": 2, "p": "1/2",
                  "m": 16, "n": 16}],
        "ops": list(ops),
        "seeds": list(seeds),
        "timing": timing,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_experiment_single_row_csv(tmp_path, capsys):
    cfg = {
        "gens": [{"kind": "identity", "n": 4}],
        "ops": ["disc_exact"],
        "seeds": [1],
        "timing": False,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["experiment", str(path)], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].endswith(",ok")


def test_experiment_all_ops(tmp_path, capsys):
    path = exp_config(tmp_path, ops=("disc_exact", "disc0", "bound", "mono"))
    out_file = tmp_path / "report.csv"
    code, _, _ = run_cli(["experiment", path, "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 1 * 4  # gens x seeds x ops


def test_experiment_rows_in_config_order(tmp_path):
    config = ExperimentConfig.from_file(exp_config(tmp_path, seeds=(1, 2)))
    rows = run_experiment(config)
    ids = [r.matrix_id for r in rows]
    assert ids == sorted(ids, key=lambda s: ids.index(s))  # stable
    assert ids[0].startswith("identity(n=8)|seed=1")
    assert ids[1].startswith("identity(n=8)|seed=2")
    assert ids[2].startswith("blowup_random")


@pytest.mark.parametrize("via_cli", [False, True])
def test_experiment_runs_every_bundle_on_the_calling_thread(
        tmp_path, capsys, monkeypatch, via_cli):
    # --threads is still accepted, and changes nothing
    import threading
    import lowrankdisc.experiment as exp

    threads = []
    real = exp._run_bundle
    monkeypatch.setattr(exp, "_run_bundle", lambda *args: threads.append(
        threading.get_ident()) or real(*args))
    path = exp_config(tmp_path, seeds=(1, 2))
    if via_cli:
        assert run_cli(["experiment", path, "--threads", "2"], capsys)[0] == 0
    else:
        run_experiment(ExperimentConfig.from_file(path))
    assert threads == [threading.get_ident()] * 4


def test_experiment_eliminates_each_matrix_once(tmp_path, monkeypatch):
    # the bundle's rank is memoized on the matrix, so find_mono reuses it
    # (one seed: identity(8) is the same matrix under every seed)
    seen = []
    eliminate = matrix._pivots_mod_p
    monkeypatch.setattr(matrix, "_pivots_mod_p", lambda E, p: seen.append(
        (E.shape, E.tobytes())) or eliminate(E, p))
    config = ExperimentConfig.from_file(
        exp_config(tmp_path, ops=("bound", "mono")))
    run_experiment(config)
    assert seen and len(seen) == len(set(seen))


def test_disc_and_disc_exact_scan_once(tmp_path, capsys, monkeypatch):
    # both signs of disc come from one rectangle scan: a bounded scan,
    # which on a grid of a few chunks hands over to one pass of the dense
    # split-table scan, and on a random 20 x 20 evaluates its staircase
    # without one
    calls = []
    for name in ("_bounded_scan", "_scan"):
        real = getattr(oracle, name)
        monkeypatch.setattr(oracle, name, lambda *args, name=name, real=real,
                            **kwargs: calls.append(name) or real(*args,
                                                                 **kwargs))
    for M, scans in ((random_dense(12, 10, "1/2", seed=4),
                      ["_bounded_scan", "_scan"]),
                     (random_dense(20, 20, "1/2", seed=4), ["_bounded_scan"])):
        calls.clear()
        path = write_matrix(tmp_path, M)
        assert run_cli(["disc", path], capsys)[0] == 0
        assert calls == scans
    calls.clear()
    config = ExperimentConfig.from_file(exp_config(tmp_path))
    run_experiment(config)
    assert calls == ["_bounded_scan", "_scan"] * len(config.gens)


def test_experiment_invalid_config(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gens": [], "ops": ["disc_exact"], "seeds": [1]}))
    code, _, err = run_cli(["experiment", str(path)], capsys)
    assert code == 1


def test_experiment_rejects_a_generator_seed(tmp_path, capsys):
    # "seeds" alone seeds the generators; a gen's "seed" was ignored
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gens": [{"kind": "identity", "n": 4,
                                          "seed": 99}],
                                "ops": ["disc_exact"], "seeds": [1]}))
    code, out, err = run_cli(["experiment", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: unknown generator fields "
                                       "['seed']\n")


@pytest.mark.parametrize("field, value", [
    ("oracle_limit", "20"), ("oracle_limit", True), ("oracle_limit", 0),
    ("oracle_limit", 2.0), ("trials", "5"), ("trials", False),
    ("trials", -1), ("eig_tol_factor", "1e-10"), ("eig_tol_factor", True),
    ("eig_tol_factor", 0), ("eig_tol_factor", -1e-10),
    ("eig_tol_factor", float("nan")), ("eig_tol_factor", float("inf")),
    ("timing", "false"), ("timing", 0), ("timing", None), ("seeds", [1.9]),
    ("seeds", [True]), ("seeds", ["1"]), ("seeds", 3), ("gens", 5),
    ("gens", {"kind": "identity", "n": 4}), ("ops", "bound"), ("output", 5),
    ("output", ["a.csv"]), ("config", 5), ("config", "abc"),
    ("config", [])])
def test_experiment_rejects_mistyped_fields(tmp_path, capsys, field, value):
    # a typed error and exit 1, not a traceback or a silently truthy string
    # ("config" stands for the whole file; an integer output must not be
    # opened as a file descriptor)
    config = {"gens": [{"kind": "identity", "n": 4}], "ops": ["disc_exact"],
              "seeds": [1]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(value if field == "config"
                               else {**config, field: value}))
    code, out, err = run_cli(["experiment", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {field} must be ")


def test_experiment_reports_an_unreadable_config(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    code, out, err = run_cli(["experiment", path], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read config {path}: ")


def test_experiment_reports_an_unwritable_output(tmp_path, capsys):
    out_path = str(tmp_path / "no" / "such" / "x.csv")
    code, out, err = run_cli(["experiment", exp_config(tmp_path), "--out",
                              out_path], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {out_path}: ")


@pytest.mark.parametrize("value", ["0", "-2"])
def test_experiment_rejects_thread_counts_below_one(tmp_path, capsys, value):
    # these used to run one worker silently
    path = exp_config(tmp_path)
    code, out, err = run_cli(["experiment", path, f"--threads={value}"],
                             capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: threads") and value in err


def test_experiment_accepts_typed_fields(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"gens": [{"kind": "identity", "n": 4}],
                                "ops": ["disc_exact", "bound"], "seeds": [1],
                                "oracle_limit": 20, "trials": 5,
                                "eig_tol_factor": 1, "timing": False}))
    code, out, _ = run_cli(["experiment", str(path)], capsys)
    assert code == 0
    assert [line.split(",")[-2:] for line in out.splitlines()[1:]] == [
        ["0", "ok"], ["0", "ok"]]


def test_experiment_capacity_rows_marked(tmp_path, capsys):
    cfg = {
        "gens": [{"kind": "random_dense", "m": 30, "n": 30, "p": "1/2"}],
        "ops": ["disc_exact"],
        "seeds": [1],
        "timing": False,
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run_cli(["experiment", str(path)], capsys)
    # all rows failed -> exit 1, but the row itself records the error
    assert code == 1
    assert "error:CapacityError" in out


# -- golden bytes ------------------------------------------------------------------

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data")


def test_mono_trace_golden_bytes():
    from lowrankdisc import blow_up, find_mono, random_binary
    M = blow_up(random_binary(4, "1/2", 3), 16, 16)
    _, trace = find_mono(M, seed=1)
    got = trace.to_json_lines()
    with open(os.path.join(GOLDEN_DIR, "mono_trace_seed1.jsonl")) as fh:
        assert got == fh.read()


def test_mono_trace_golden_bytes_n256():
    import math
    from lowrankdisc import blow_up, find_mono, random_binary, rank
    M = blow_up(random_binary(4, "1/2", 3), 64, 64)
    res, trace = find_mono(M, seed=1)
    assert min(res.dims) >= 16
    assert trace.iterations <= 40
    with open(os.path.join(GOLDEN_DIR, "mono_trace_n256_seed1.jsonl")) as fh:
        assert trace.to_json_lines() == fh.read()


def test_experiment_csv_golden_bytes(tmp_path):
    path = exp_config(tmp_path, ops=("disc_exact", "bound", "mono"),
                      seeds=(1,))
    config = ExperimentConfig.from_file(path)
    got = render_csv(run_experiment(config))
    with open(os.path.join(GOLDEN_DIR, "experiment_golden.csv")) as fh:
        assert got == fh.read()


def test_experiment_sandwich_check_fires(tmp_path, monkeypatch):
    # a certificate claiming more than 24 K disc+ must be flagged
    import lowrankdisc.experiment as exp

    real = exp.lower_bound_disc

    def inflated(M, r=None, cfg=None):
        cert = real(M, r=r, cfg=cfg or exp.DEFAULT)
        cert.disc_value = 1e9
        return cert

    monkeypatch.setattr(exp, "lower_bound_disc", inflated)
    config = ExperimentConfig.from_json_obj({
        "gens": [{"kind": "identity", "n": 8}],
        "ops": ["disc_exact", "bound"],
        "seeds": [1],
        "timing": False,
    })
    rows = run_experiment(config)
    bound_rows = [r for r in rows if r.matrix_id.endswith("|bound")]
    assert bound_rows[0].status == "sandwich_violation"


def test_experiment_disc0_op(tmp_path):
    config = ExperimentConfig.from_json_obj({
        "gens": [{"kind": "identity", "n": 2}],
        "ops": ["disc0"],
        "seeds": [1],
        "timing": False,
    })
    rows = run_experiment(config)
    assert rows[0].disc == 2  # exact relaxation optimum for identity(2)


def test_experiment_bound_autosquares_rectangular(tmp_path):
    config = ExperimentConfig.from_json_obj({
        "gens": [{"kind": "random_dense", "m": 4, "n": 6, "p": "1/4"}],
        "ops": ["bound", "disc_exact"],
        "seeds": [3],
        "timing": False,
    })
    rows = run_experiment(config)
    by_op = {r.matrix_id.rsplit("|", 1)[1]: r for r in rows}
    assert by_op["bound"].status == "ok"
    assert by_op["bound"].bound is not None


def test_console_script_entrypoint(tmp_path):
    import subprocess
    import sys

    path = write_matrix(tmp_path, fixtures("identity(4)"))
    proc = subprocess.run(
        [sys.executable, "-m", "lowrankdisc.cli", "disc", path],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["disc_plus"] == "1/1"


def run_fresh(args):
    """(exit code, stdout, stderr) of args in a new interpreter."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "lowrankdisc.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


WIDE = ["--gen-kind", "random_dense", "--gen-p", "1/2", "--gen-m", "30",
        "--gen-n", "30", "--gen-seed", "1"]
BLOWUP = ["--gen-kind", "blowup_random", "--gen-r", "4", "--gen-p", "1/2",
          "--gen-m", "16", "--gen-n", "16", "--gen-seed", "2"]


@pytest.mark.parametrize("first, second", [
    (["disc", *WIDE, "--heuristic", "--seed", "3"], ["disc", *WIDE]),
    (["mono", *BLOWUP, "--trials", "5", "--oracle-limit", "4"],
     ["mono", *BLOWUP])])
def test_cached_parser_leaks_no_state(capsys, first, second):
    # main reuses one parser per process; the options of one call must not
    # reach the next (here --heuristic would turn exit 3 into 0, and
    # --oracle-limit 4 the exact strategy into rounding)
    fresh = [run_fresh(args) for args in (first, second)]
    assert fresh[0] != fresh[1]
    assert [run_cli(args, capsys) for args in (first, second)] == fresh


def test_stdin_input():
    import io
    import sys as _sys

    from lowrankdisc.cli import main as cli_main

    text = fixtures("identity(4)").to_text()
    old = _sys.stdin
    _sys.stdin = io.StringIO(text)
    try:
        code = cli_main(["disc", "-"])
    finally:
        _sys.stdin = old
    assert code == 0


def test_mono_tiny_inputs(tmp_path, capsys):
    for name in ("all_ones(1,1)", "all_zeros(1,1)", "all_ones(2,3)"):
        path = write_matrix(tmp_path, fixtures(name), f"{name[:4]}.txt")
        code, out, _ = run_cli(["mono", path], capsys)
        assert code == 0
        last = json.loads(out.strip().split("\n")[-1])
        assert last["dims"][0] >= 1 and last["dims"][1] >= 1


@pytest.mark.parametrize("best, tail", [
    (Rectangle(X=(0, 1), Y=(2,), value=Fraction(-3, 4)),
     '{"sign": "-", "X": [0, 1], "Y": [2], "value_num": -3, '
     '"value_den": 4}\n'),
    (None, ""),
])
def test_mono_stall_exit_5_with_best_candidate(capsys, monkeypatch, best,
                                               tail):
    import lowrankdisc.cli as cli

    def stalled(M, seed, cfg):
        raise DecrementStalled("no half-rectangle", best=best)

    monkeypatch.setattr(cli, "find_mono", stalled)
    code, out, err = run_cli(["mono", "--gen-kind", "identity", "--gen-n",
                              "4"], capsys)
    assert (code, out) == (5, "")
    assert err == "decrement stalled: no half-rectangle\n" + tail


def _tracer_bindings():
    """FUNCTION_BINDINGS and METHOD_BINDINGS of perfbench/tracer.py, read
    as literals: nothing under perfbench/ is imported or written."""
    import ast
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    values = {node.targets[0].id: node.value
              for node in ast.parse(path.read_text()).body
              if isinstance(node, ast.Assign)
              and isinstance(node.targets[0], ast.Name)}
    return (ast.literal_eval(values["FUNCTION_BINDINGS"]),
            ast.literal_eval(values["METHOD_BINDINGS"]))


def test_traced_bindings_and_public_names_resolve():
    # `perfbench/run.py --trace 1` wraps these names by getattr and fails
    # if one is missing, so removing one from the package breaks it
    import importlib

    import lowrankdisc

    functions, methods = _tracer_bindings()
    assert functions and methods
    for modname, attr, _ in functions:
        value = getattr(importlib.import_module(modname), attr, None)
        assert callable(value), f"{modname}.{attr}"
    for modname, clsname, attr, _ in methods:
        cls = getattr(importlib.import_module(modname), clsname)
        assert attr in cls.__dict__, f"{clsname}.{attr}"
    names = lowrankdisc.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(lowrankdisc, name)]
    assert missing == []


# Config field -> (subcommand, CLI flag, value, experiment key): the only
# settings a user reaches; every other tunable is a constant in config.py
USER_SETTINGS = {
    "oracle_limit": ("disc", "--oracle-limit", 7, "oracle_limit"),
    "rounding_trials": ("mono", "--trials", 7, "trials"),
    "eig_tol_factor": ("bound", "--tol-eig", 1e-9, "eig_tol_factor"),
}


def test_config_fields_are_the_user_settings(capsys, monkeypatch):
    import dataclasses

    import lowrankdisc.cli as cli
    from lowrankdisc.config import DEFAULT, Config

    assert {f.name for f in dataclasses.fields(Config)} == set(USER_SETTINGS)
    built = []
    real = cli.runtime_config
    monkeypatch.setattr(cli, "runtime_config",
                        lambda **kw: built.append(real(**kw)) or built[-1])
    for name, (command, flag, value, key) in USER_SETTINGS.items():
        want = dataclasses.replace(DEFAULT, **{name: value})
        built.clear()
        code, _, _ = run_cli([command, "--gen-kind", "identity", "--gen-n",
                              "2", flag, str(value)], capsys)
        assert code == 0 and built == [want], name
        config = ExperimentConfig.from_json_obj({
            "gens": [{"kind": "identity", "n": 2}], "ops": ["disc0"],
            "seeds": [1], key: value})
        assert config.cfg == want, name


def test_input_fixed_values_take_no_parameter():
    # Delta, the matrix hash, the eigensolver tolerance, the truncation
    # delta and a generator's seed all follow from the input or a setting
    import dataclasses
    import inspect

    from lowrankdisc import (GenSpec, eigendecompose, truncate_high_degree,
                             witness)

    assert [f.name for f in dataclasses.fields(GenSpec)] == [
        "kind", "r", "p", "m", "n"]
    params = {fn.__name__: list(inspect.signature(fn).parameters)
              for fn in (witness, eigendecompose, truncate_high_degree)}
    assert params == {"witness": ["S"], "eigendecompose": ["M", "cfg"],
                      "truncate_high_degree": ["M"]}
