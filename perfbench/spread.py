"""Run the benchmark over several seeds and report run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 --out runs_a.jsonl
    python3 perfbench/spread.py --compare runs_a.jsonl runs_b.jsonl

Runs every workload of BENCHMARK.json at each seed, one benchmark process at
a time, from the checkout root.  For each workload and end-to-end metric it
prints the median, the quartiles from ``statistics.quantiles(values, n=4)``
and the spread (q3 - q1) / median against the metric's bound.  ``--compare``
does the same for two sets, checks that the second set's medians lie within
the bounds of the first set's in either direction, and that runs with the
same workload and seed produced the same output digest.  The exit code is 1
when any spread or change exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    record = {"workload": workload, "seed": seed, "exit": done.returncode,
              "elapsed_s": time.perf_counter() - start}
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        record["stderr"] = done.stderr[-2000:]
        return record
    record["result"] = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# outputs "):
            outputs = json.loads(line[len("# outputs "):])
            record["outputs_sha256"] = outputs["sha256"]
            record["repeats_agree"] = outputs["repeats_agree"]
        elif line.startswith("# end_to_end "):
            record["end_to_end"] = json.loads(line[len("# end_to_end "):])
    return record


def summarize(spec: dict, records: list[dict]) -> tuple[dict, bool]:
    """({workload: {metric: median}}, every spread within its bound);
    prints a table."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    medians: dict = {}
    ok = True
    for workload in dict.fromkeys(r["workload"] for r in records):
        mine = [r for r in records if r["workload"] == workload]
        runs = [r for r in mine if "result" in r]
        wrong = [r["seed"] for r in runs if not r["result"]["correct"]]
        longest = max(r["elapsed_s"] for r in mine)
        print(f"{workload}: {len(runs)} runs, {len(mine) - len(runs)} crashed, "
              f"incorrect seeds {wrong}, longest run {longest:.1f} s")
        ok &= len(runs) == len(mine) and not wrong
        if not runs:
            continue
        medians[workload] = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) >= 2
                         else (med, med, med))
            spread = (q3 - q1) / med
            medians[workload][name] = med
            flag = ("ok" if spread < bound / 3 else
                    "within bound" if spread <= bound else "OVER BOUND")
            ok &= spread <= bound
            print(f"  {name:16s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:7.4f}  bound {bound}  {flag}")
    return medians, ok


def compare(spec: dict, first: list[dict], second: list[dict]) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("== first set")
    a, ok_a = summarize(spec, first)
    print("== second set")
    b, ok_b = summarize(spec, second)
    ok = ok_a and ok_b
    print("== second median against first")
    for workload in a:
        for name, med_a in a[workload].items():
            med_b = b.get(workload, {}).get(name)
            if med_b is None:
                ok = False
                print(f"  {workload:10s} {name:16s} missing from the second set")
                continue
            change = (med_b - med_a) / med_a
            verdict = "ok" if abs(change) <= bounds[name] else "OVER BOUND"
            ok &= verdict == "ok"
            print(f"  {workload:10s} {name:16s} {med_a:12.6g} -> {med_b:12.6g}"
                  f"  change {change:+.4f} (bound {bounds[name]})  {verdict}")
    digests: dict = {}
    for r in first + second:
        if "outputs_sha256" in r:
            digests.setdefault((r["workload"], r["seed"]), set()).add(
                r["outputs_sha256"])
    split = sorted(k for k, v in digests.items() if len(v) > 1)
    unstable = [(r["workload"], r["seed"]) for r in first + second
                if r.get("repeats_agree") is False]
    print(f"output digests: {len(digests)} (workload, seed) pairs, "
          f"{len(split)} disagree {split}; runs whose repeated calls "
          f"disagreed: {unstable}")
    return ok and not split and not unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="append one JSON line per run here")
    parser.add_argument("--compare", nargs=2, metavar="RUNS_JSONL")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        sets = [[json.loads(line) for line in Path(p).read_text().splitlines()]
                for p in args.compare]
        return 0 if compare(spec, *sets) else 1
    records = []
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            record = run_once(spec, workload, seed)
            records.append(record)
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")
            print(f"ran {workload} seed {seed}: exit {record['exit']} "
                  f"in {record['elapsed_s']:.1f} s", file=sys.stderr)
    return 0 if summarize(spec, records)[1] else 1


if __name__ == "__main__":
    sys.exit(main())
