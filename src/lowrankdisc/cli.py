"""Command-line surface: disc, bound, mono, experiment.

A thin shell over the library: every printed number is recomputable by the
corresponding library call.  Exit codes: 0 ok, 2 parse error, 3 capacity,
4 regime, 5 decrement stall.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .config import runtime_config
from .constructions import GEN_KINDS, GenSpec
from .decrement import find_mono
from .errors import (CapacityError, DecrementStalled, LowRankDiscError,
                     MatrixParseError, RegimeError)
from .experiment import ExperimentConfig, render_csv, run_experiment
from .matrix import BinaryMatrix, WeightedBinaryMatrix
# best_rect is unused here but stays bound: perfbench/tracer.py wraps it
from .oracle import (best_rect, best_rect_pair, exact_row_limit,  # noqa: F401
                     heuristic_rect)
from .spectral import lower_bound_disc

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_CAPACITY = 3
EXIT_REGIME = 4
EXIT_STALL = 5


def _add_matrix_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("matrix_file", nargs="?",
                     help="matrix text file ('-' for stdin); omit when "
                          "generating with --gen-kind")
    sub.add_argument("--gen-kind", choices=GEN_KINDS)
    sub.add_argument("--gen-r", type=int)
    sub.add_argument("--gen-p", type=str)
    sub.add_argument("--gen-m", type=int)
    sub.add_argument("--gen-n", type=int)
    sub.add_argument("--gen-seed", type=int, default=0)


def _load_matrix(args) -> BinaryMatrix:
    if args.gen_kind is not None:
        spec = GenSpec(kind=args.gen_kind, r=args.gen_r, p=args.gen_p,
                       m=args.gen_m, n=args.gen_n)
        return spec.build(args.gen_seed)
    if args.matrix_file is None:
        raise MatrixParseError("no matrix given: pass a file or --gen-kind")
    if args.matrix_file == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.matrix_file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise MatrixParseError(f"cannot read {args.matrix_file}: {exc}") from exc
    return BinaryMatrix.from_text(text)


def _frac_str(f) -> str:
    return f"{f.numerator}/{f.denominator}"


def cmd_disc(args) -> int:
    cfg = runtime_config(oracle_limit=args.oracle_limit)
    M = _load_matrix(args)
    out = {"m": M.m, "n": M.n, "ones": M.ones, "heuristic": False}
    limit = exact_row_limit(cfg)
    if min(M.m, M.n) > limit:
        if not args.heuristic:
            raise CapacityError(
                f"matrix side {min(M.m, M.n)} exceeds the exact oracle "
                f"limit of {limit}; pass --heuristic for uncertified bounds")
        plus = heuristic_rect(M, "+", seed=args.seed)
        minus = heuristic_rect(M, "-", seed=args.seed)
        out["heuristic"] = True
    else:
        plus, minus = best_rect_pair(M, cfg)
    out["disc_plus"] = _frac_str(plus.value)
    out["disc_minus"] = _frac_str(-minus.value)
    out["plus"] = plus.to_json_obj("+")
    out["minus"] = minus.to_json_obj("-")
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_bound(args) -> int:
    cfg = runtime_config(eig_tol_factor=args.tol_eig)
    M = _load_matrix(args)
    if M.m != M.n:
        M = WeightedBinaryMatrix.squared(M).materialize()
    cert = lower_bound_disc(M, cfg=cfg)
    print(json.dumps(cert.to_json_obj(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_mono(args) -> int:
    cfg = runtime_config(oracle_limit=args.oracle_limit, trials=args.trials)
    M = _load_matrix(args)
    result, trace = find_mono(M, seed=args.seed, cfg=cfg)
    if not result.verify(M):
        raise AssertionError("result failed entrywise verification")
    sys.stdout.write(trace.to_json_lines())
    return EXIT_OK


def cmd_experiment(args) -> int:
    try:
        config = ExperimentConfig.from_file(args.config)
    except OSError as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if args.threads < 1:
        raise ValueError(
            f"threads must be a positive integer, got {args.threads!r}")
    rows = run_experiment(config)
    csv_text = render_csv(rows)
    out_path = args.out or config.output
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(csv_text)
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc}") from exc
    else:
        sys.stdout.write(csv_text)
    statuses = [row.status for row in rows]
    if statuses and all(s.startswith("error") for s in statuses):
        return EXIT_ERROR
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parse_args
    returns a fresh namespace each call and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="lowrankdisc",
        description="Discrepancy oracles, spectral certificates, and "
                    "monochromatic-submatrix extraction for 0/1 matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p_disc = sub.add_parser("disc", help="exact discrepancy via enumeration")
    _add_matrix_args(p_disc)
    p_disc.add_argument("--heuristic", action="store_true",
                        help="allow uncertified bounds above the oracle limit")
    p_disc.add_argument("--seed", type=int, default=0)
    p_disc.add_argument("--oracle-limit", type=int)
    p_disc.set_defaults(func=cmd_disc)

    p_bound = sub.add_parser("bound", help="certified spectral lower bound")
    _add_matrix_args(p_bound)
    p_bound.add_argument("--tol-eig", type=float,
                         help="eigensolver tolerance factor (times ||A||_F)")
    p_bound.set_defaults(func=cmd_bound)

    p_mono = sub.add_parser("mono", help="monochromatic submatrix extraction")
    _add_matrix_args(p_mono)
    p_mono.add_argument("--seed", type=int, default=0)
    p_mono.add_argument("--trials", type=int)
    p_mono.add_argument("--oracle-limit", type=int)
    p_mono.set_defaults(func=cmd_mono)

    p_exp = sub.add_parser("experiment", help="run a JSON experiment config")
    p_exp.add_argument("config")
    p_exp.add_argument("--out", help="CSV output path (default: config or stdout)")
    p_exp.add_argument("--threads", type=int, default=1,
                       help="ignored: bundles run one after another on one "
                            "thread; the flag goes once perfbench stops "
                            "passing it")
    p_exp.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MatrixParseError as exc:
        sys.stderr.write(f"parse error: {exc}\n")
        return EXIT_PARSE
    except CapacityError as exc:
        sys.stderr.write(f"capacity error: {exc}\n")
        return EXIT_CAPACITY
    except RegimeError as exc:
        sys.stderr.write(f"regime error: {exc}\n")
        return EXIT_REGIME
    except DecrementStalled as exc:
        sys.stderr.write(f"decrement stalled: {exc}\n")
        if exc.best is not None:
            sys.stderr.write(json.dumps(exc.best.to_json_obj("-")) + "\n")
        return EXIT_STALL
    except (ValueError, LowRankDiscError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
