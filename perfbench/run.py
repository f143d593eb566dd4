"""Benchmark of the four CLI paths: disc, bound, mono and experiment.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload large_n --seed 1 --seconds 45 --trace 0

The package is imported from ``src/`` of the checkout and driven in process
through ``lowrankdisc.cli.main``, one closed-loop client, on input files
made from ``--seed`` during set-up.  The measured calls cycle over the
workload's inputs in whole cycles until about ``--seconds`` have passed.
A set-up (import, inputs, warm-up calls) is made before the first cycle and
after each one, and ``setup_s`` is their median.  Every output is checked
afterwards, outside the timed region, by ``checks.py``.

Lines starting with ``#`` report the machine, the settings and every
end-to-end figure; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json.  With ``--trace 1`` every other
call runs with spans recorded around the package's functions (see
``tracer.py``), and the calls in between run untraced; the metrics are the
per-layer ones, and the span tree is printed above them.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread: fixed, so traces are reproducible and timings steady.
# Set before numpy is imported anywhere in this process.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("LOWRANKDISC_THREADS", None)  # the pool gets exactly nproc

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXIT_NO_PACKAGE = 2


def import_package():
    """Import lowrankdisc from this checkout's src/, never from elsewhere.

    Any earlier import of the package is dropped first, so each call times
    the import of the package's own modules; numpy and the standard library
    stay loaded.  Returns (package, seconds), or None when it cannot be
    imported from src/.
    """
    for name in [n for n in sys.modules
                 if n == "lowrankdisc" or n.startswith("lowrankdisc.")]:
        del sys.modules[name]
    start = time.perf_counter()
    try:
        lowrankdisc = importlib.import_module("lowrankdisc")
        importlib.import_module("lowrankdisc.cli")
    except ImportError as exc:
        sys.stderr.write(f"cannot import lowrankdisc from {SRC}: {exc}\n")
        return None
    seconds = time.perf_counter() - start
    if not Path(lowrankdisc.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"lowrankdisc was imported from {lowrankdisc.__file__}, "
                         f"not from {SRC}\n")
        return None
    return lowrankdisc, seconds


# -- one call ---------------------------------------------------------------

class Call:
    __slots__ = ("case", "code", "latency", "output", "error", "traced")

    def __init__(self, case, code, latency, output, error):
        self.case, self.code, self.latency = case, code, latency
        self.output, self.error = output, error
        self.traced = False


def invoke(cli, case) -> Call:
    """One user call through cli.main; only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(case.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed call, recorded with its traceback
            code = None
            error = traceback.format_exc()
    latency = time.perf_counter() - start
    if case.out_file is not None and code == 0:
        output = case.out_file.read_text()
    else:
        output = out.getvalue()
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue().strip()[-500:]}"
    return Call(case, code, latency, output, error)


def run_phase(cli, cases, set_up, target_s: float,
              tracer: Tracer | None = None) -> tuple[list[Call], float]:
    """Whole cycles over `cases`, stopping at the cycle boundary nearest
    target_s.  Returns the calls and the phase's wall time.

    After each cycle, set_up() makes a fresh set-up and returns its cli and
    cases, which the next cycle uses; so set-up time is sampled across the
    whole run, as the calls are.  Its time is not part of the phase.

    With a tracer, a cycle is two passes over the cases and the tracer is
    installed for every other call, shifted by one in the second pass, so
    each case runs once traced and once untraced per cycle, close in time.
    """
    passes = 1 if tracer is None else 2
    calls: list[Call] = []
    wall = 0.0
    while True:
        cycle_start = time.perf_counter()
        for shift in range(passes):
            for j, case in enumerate(cases):
                traced = tracer is not None and (j + shift) % 2 == 0
                if traced:
                    tracer.install()
                try:
                    call = invoke(cli, case)
                finally:
                    if traced:
                        tracer.uninstall()
                call.traced = traced
                calls.append(call)
        cycle = time.perf_counter() - cycle_start
        wall += cycle
        cli, cases = set_up()
        if wall + cycle / 2 >= target_s:
            return calls, wall


# -- checking ---------------------------------------------------------------

class Checker:
    """Checks each distinct output once and keeps per-case output digests."""

    def __init__(self):
        self.verdicts: dict[tuple[str, str], tuple[str | None, dict]] = {}
        self.first_digest: dict[str, str] = {}
        self.repeats_agree = True
        self.failures: list[str] = []
        self.quality: dict[str, list[float]] = {}
        self.attempted = 0

    def __call__(self, calls: list[Call], measured: bool = True) -> None:
        """Check `calls`; quality figures are kept for measured calls only."""
        for call in calls:
            self.attempted += 1
            label = call.case.label
            if call.error is not None:
                self.failures.append(f"{label}: {call.error}")
                continue
            digest = hashlib.sha256(
                call.case.normalize(call.output).encode()).hexdigest()
            if self.first_digest.setdefault(label, digest) != digest:
                self.repeats_agree = False
            key = (label, digest)
            if key not in self.verdicts:
                try:
                    self.verdicts[key] = call.case.check(call.output)
                except (KeyError, ValueError, TypeError, IndexError) as exc:
                    self.verdicts[key] = (f"unreadable output: {exc!r}", {})
            err, quality = self.verdicts[key]
            if err is not None:
                self.failures.append(f"{label}: {err}")
                continue
            if measured:
                for name, value in quality.items():
                    self.quality.setdefault(name, []).append(value)

    def outputs_sha256(self, cases) -> str:
        h = hashlib.sha256()
        for case in cases:
            h.update(f"{case.label}={self.first_digest.get(case.label)}\n".encode())
        return h.hexdigest()


# -- figures ----------------------------------------------------------------

def latency_figures(calls: list[Call], wall: float) -> dict:
    lat = sorted(c.latency for c in calls)
    out = {"ops_per_s": len(calls) / wall, "call_p50_s": statistics.median(lat),
           "calls": len(lat)}
    if len(lat) >= 20:
        # the highest percentile with at least ten calls beyond it
        out["call_tail_s"] = lat[len(lat) - 11]
        out["call_tail_pct"] = 100.0 * (len(lat) - 10) / len(lat)
    return out


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        return {"name": None, "version": None}


def environment(args, workers: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10
                                ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        src.update(path.read_bytes())
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit,
            "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_info(), "blas_threads": BLAS_THREADS,
            "experiment_workers": workers}


def per_layer(tracer, calls: list[Call]) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced phase.

    Counts and seconds are per traced user call (cli.main call).
    """
    stats = tracer.layer_stats()
    traced = [c for c in calls if c.traced]
    users = len(traced)
    counts, maxima = tracer.counts, tracer.maxima
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def layer(name, *fields):
        st = stats.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        for f in fields:
            unit = "1/call" if f == "calls" else "s/call"
            put(f"{name}.{f}", st[f] / users, unit)

    layer("matrix.rank", "calls", "s")
    put("matrix.rank.repeat_calls", counts["matrix.rank.repeat_calls"] / users,
        "1/call")
    layer("matrix.digest", "calls", "s")
    for name in ("matrix.from_text", "matrix.submatrix", "matrix.materialize"):
        layer(name, "s")
    for name in ("oracle.best_rect", "oracle.disc0_plus", "oracle.best_half_rect"):
        layer(name, "calls", "s")
    oracle_s = sum(stats.get(n, {"s": 0.0})["s"] for n in
                   ("oracle.best_rect", "oracle.disc0_plus", "oracle.best_half_rect"))
    put("oracle.masks", counts["oracle.masks"] / users, "1/call")
    put("oracle.masks_per_s", counts["oracle.masks"] / oracle_s if oracle_s else 0.0,
        "1/s")
    layer("spectral.lower_bound_disc", "calls", "self_s")
    layer("spectral.eigendecompose", "calls", "s")
    put("spectral.eigendecompose.bytes",
        maxima.get("spectral.eigendecompose.bytes", 0.0), "B")
    put("spectral.eigendecompose.max_residual",
        maxima.get("spectral.eigendecompose.max_residual", 0.0), "norm")
    for name in ("spectral.symmetrize", "spectral.witness",
                 "spectral.truncate_high_degree", "spectral.strip_certificate"):
        layer(name, "s")
    for kind in ("spectral", "strip"):
        put(f"spectral.cert.{kind}", counts[f"spectral.cert.{kind}"] / users,
            "1/call")
    layer("decrement.find_mono", "self_s")
    layer("decrement.decrement_step", "calls", "self_s")
    for name in ("decrement.round_to_rect", "decrement.adjust_to_half",
                 "decrement.local_search", "decrement.zero_submatrix_sparse"):
        layer(name, "s")
    for strategy in ("exact", "rounding", "local_search"):
        put(f"decrement.strategy.{strategy}",
            counts[f"decrement.strategy.{strategy}"] / users, "1/call")
    spectral_steps = counts["decrement.spectral_path_steps"]
    put("decrement.rounding_win_ratio",
        counts["decrement.strategy.rounding"] / spectral_steps
        if spectral_steps else 0.0, "ratio")
    layer("experiment.run_experiment", "s")
    put("experiment.bundles", stats.get("experiment.bundle", {"calls": 0})["calls"]
        / users, "1/call")
    row_ms = 0
    for call in traced:
        if call.case.out_file is not None and call.code == 0:
            row_ms += sum(int(f[12]) for f in checks.csv_rows(call.output)[1:])
    put("experiment.row_s_sum", row_ms / 1000.0 / users, "s/call")
    layer("cli.main", "self_s")
    # Every case runs as often traced as untraced, so the two sums cover
    # the same calls.
    put("trace.overhead", sum(c.latency for c in traced)
        / sum(c.latency for c in calls if not c.traced), "ratio")
    return metrics


# -- main -------------------------------------------------------------------

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report(tag: str, obj) -> None:
    print(f"# {tag} {json.dumps(obj, sort_keys=True)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(SRC))
    workers = len(os.sched_getaffinity(0))
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    checker = Checker()
    try:
        setup_parts = []  # (import, generate and write, warm-up) seconds

        def set_up():
            """Import the package afresh, write the inputs and make the
            warm-up calls; (cli, cases), or None without a package."""
            imported = import_package()
            if imported is None:
                return None
            lrd, import_s = imported
            start = time.perf_counter()
            cases, warmup = workloads.build(args.workload, lrd, args.seed,
                                            workdir, workers)
            built = time.perf_counter()
            warm_calls = [invoke(lrd.cli, case) for case in warmup]
            setup_parts.append((import_s, built - start,
                                time.perf_counter() - built))
            checker(warm_calls, measured=False)
            return lrd.cli, cases

        first = set_up()
        if first is None:
            return EXIT_NO_PACKAGE
        tracer = Tracer() if args.trace else None
        calls, wall = run_phase(*first, set_up, args.seconds, tracer)
        cases = first[1]
        setup_s = statistics.median(sum(parts) for parts in setup_parts)

        if tracer is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            checker(calls)
            figures = latency_figures(calls, wall)
            metrics = {
                "ops_per_s": {"value": figures["ops_per_s"], "unit": "1/s"},
                "call_p50_s": {"value": figures["call_p50_s"], "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
            summary = dict(figures, peak_rss_mb=peak_rss_mb, wall_s=wall)
        else:
            checker(calls)
            metrics = per_layer(tracer, calls)
            for depth, name, n, total, own in tracer.span_tree():
                print(f"# span {'  ' * depth}{name} calls={n} s={total:.4f} "
                      f"self_s={own:.4f}")
            by_case: dict[str, dict[str, list[float]]] = {}
            traced = [c for c in calls if c.traced]
            for call, layers in zip(traced, tracer.per_root()):
                case = by_case.setdefault(call.case.label, {})
                for name, secs in layers.items():
                    case.setdefault(name, []).append(secs)
            report("layers_by_case_s", {
                label: {name: statistics.median(v) for name, v in layers.items()}
                for label, layers in by_case.items()})
            summary = {"traced_calls": len(traced),
                       "untraced_calls": len(calls) - len(traced),
                       "wall_s": wall}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = len(checker.failures)
    summary.update(setup_s=setup_s, setup_parts_s=setup_parts,
                   fail_ratio=failed / checker.attempted,
                   exit_codes=dict(Counter(str(c.code) for c in calls)))
    for name, values in checker.quality.items():
        summary[name] = sum(values) / len(values)
    report("env", environment(args, workers))
    report("end_to_end", summary)
    per_case = {}
    for call in calls:
        per_case.setdefault(call.case.label, []).append(call.latency)
    report("case_p50_s", {k: statistics.median(v) for k, v in per_case.items()})
    report("outputs", {"sha256": checker.outputs_sha256(cases),
                       "repeats_agree": checker.repeats_agree,
                       "per_case": checker.first_digest})
    for failure in checker.failures[:20]:
        print(f"# FAIL {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": checker.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
