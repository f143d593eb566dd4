"""Experiment harness: run operations over generated matrices, emit CSV.

Rows are written in configuration order (generators x seeds x ops) no
matter how the worker pool schedules them, and every computed value is a
pure function of (generator, seed, config), so reports are reproducible.
Wall-clock timing is the one physical measurement; set "timing": false in
the config to zero that column when byte-identical reports are required.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from fractions import Fraction

from .config import GROTHENDIECK_K, Config, num_tol, runtime_config
from .constructions import GenSpec
from .decrement import find_mono
from .errors import LowRankDiscError
from .matrix import WeightedBinaryMatrix, rank
from .oracle import best_rect_pair, disc0_plus
from .spectral import lower_bound_disc

OPS = ("disc_exact", "disc0", "bound", "mono")

CSV_HEADER = ("matrix_id,m,n,r,p_num,p_den,disc_num,disc_den,bound,"
              "mono_rows,mono_cols,iterations,wall_time_ms,status")


@dataclass
class ExperimentConfig:
    gens: list[GenSpec]
    ops: list[str]
    seeds: list[int]
    output: str | None = None
    oracle_limit: int | None = None
    trials: int | None = None
    eig_tol_factor: float | None = None
    timing: bool = True
    # DEFAULT with the overrides above, built and checked once
    cfg: Config = field(init=False, repr=False)

    def __post_init__(self):
        if not self.gens:
            raise ValueError("config needs at least one generator")
        if not self.ops:
            raise ValueError("config needs at least one op")
        if not self.seeds:
            raise ValueError("config needs at least one seed")
        for op in self.ops:
            if op not in OPS:
                raise ValueError(f"unknown op {op!r}; choose from {OPS}")
        # JSON values arrive unconverted: "false" must not count as true,
        # and seed 1.9 must not run as seed 1 (Config types the overrides)
        if (not isinstance(self.seeds, list)
                or any(type(seed) is not int for seed in self.seeds)):
            raise ValueError(
                f"seeds must be a list of integers, got {self.seeds!r}")
        self.cfg = runtime_config(self.oracle_limit, self.trials,
                                  self.eig_tol_factor)
        if type(self.timing) is not bool:
            raise ValueError(
                f"timing must be true or false, got {self.timing!r}")

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ExperimentConfig":
        extra = set(obj) - {f.name for f in fields(cls) if f.init}
        if extra:
            raise ValueError(f"unknown config fields {sorted(extra)}")
        gens = [GenSpec.from_json_obj(g) for g in obj.get("gens", [])]
        return cls(gens=gens, ops=list(obj.get("ops", [])),
                   seeds=obj.get("seeds", []),
                   output=obj.get("output"),
                   oracle_limit=obj.get("oracle_limit"),
                   trials=obj.get("trials"),
                   eig_tol_factor=obj.get("eig_tol_factor"),
                   timing=obj.get("timing", True))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json_obj(json.load(fh))


@dataclass
class ReportRow:
    matrix_id: str
    m: int
    n: int
    r: int
    p: Fraction
    disc: Fraction | None = None
    bound: float | None = None
    mono_rows: int | None = None
    mono_cols: int | None = None
    iterations: int | None = None
    wall_time_ms: int = 0
    status: str = "ok"

    def to_csv(self) -> str:
        def opt(v):
            return "" if v is None else str(v)

        disc_num = "" if self.disc is None else str(self.disc.numerator)
        disc_den = "" if self.disc is None else str(self.disc.denominator)
        bound = "" if self.bound is None else repr(self.bound)
        return ",".join([
            self.matrix_id, str(self.m), str(self.n), str(self.r),
            str(self.p.numerator), str(self.p.denominator),
            disc_num, disc_den, bound,
            opt(self.mono_rows), opt(self.mono_cols), opt(self.iterations),
            str(self.wall_time_ms), self.status,
        ])


def _run_bundle(gen: GenSpec, seed: int, ops: list[str], cfg: Config,
                timing: bool) -> list[ReportRow]:
    """All requested ops for one (generator, seed) pair, one row per op."""
    M = gen.build(seed)
    r = rank(M)
    p = M.density()
    base_id = f"{gen.label()}|seed={seed}"
    cache: dict[str, object] = {}
    rows = []
    for op in ops:
        row = ReportRow(matrix_id=f"{base_id}|{op}", m=M.m, n=M.n, r=r, p=p)
        start = time.perf_counter()
        try:
            if op == "disc_exact":
                plus, minus = best_rect_pair(M, cfg)
                cache["disc_plus"] = plus.value
                row.disc = max(plus.value, -minus.value)
            elif op == "disc0":
                row.disc = disc0_plus(M, cfg).value
            elif op == "bound":
                target = M
                if M.m != M.n:
                    target = WeightedBinaryMatrix.squared(M).materialize()
                cert = lower_bound_disc(target, r=r, cfg=cfg)
                if M.m == M.n:
                    # the sandwich check compares against disc+ of M itself
                    cache["bound_value"] = cert.disc_value
                row.bound = cert.disc_value
            elif op == "mono":
                result, trace = find_mono(M, seed=seed, cfg=cfg)
                row.mono_rows, row.mono_cols = result.dims
                row.iterations = trace.iterations
        except (LowRankDiscError, ValueError) as exc:
            row.status = f"error:{type(exc).__name__}"
        if timing:
            row.wall_time_ms = round_ms(start)
        rows.append(row)

    # sandwich sanity when both sides were computed: the PSD certificate
    # cannot exceed 24 K * disc+ (quadrant factor 4, pos/neg factor 3,
    # Grothendieck K, relaxation doubling).
    if "disc_plus" in cache and "bound_value" in cache:
        envelope = 24.0 * GROTHENDIECK_K * float(cache["disc_plus"])
        value = float(cache["bound_value"])
        if value > envelope + num_tol(envelope):
            for row in rows:
                if row.matrix_id.endswith("|bound"):
                    row.status = "sandwich_violation"
    return rows


def round_ms(start: float) -> int:
    return int(round((time.perf_counter() - start) * 1000.0))


def run_experiment(config: ExperimentConfig,
                   threads: int = 1) -> list[ReportRow]:
    """The report rows of every (generator, seed) bundle, in config order.

    threads > 1 runs the bundles on a pool of that many threads; the rows
    do not depend on it.  Raises ValueError for a count below 1.
    """
    if type(threads) is not int or threads < 1:
        raise ValueError(
            f"threads must be a positive integer, got {threads!r}")
    tasks = [(gen, seed) for gen in config.gens for seed in config.seeds]
    if threads == 1:
        bundles = [_run_bundle(g, s, config.ops, config.cfg, config.timing)
                   for g, s in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            bundles = list(pool.map(
                lambda t: _run_bundle(t[0], t[1], config.ops, config.cfg,
                                      config.timing), tasks))
    return [row for bundle in bundles for row in bundle]


def render_csv(rows: list[ReportRow]) -> str:
    return "\n".join([CSV_HEADER] + [row.to_csv() for row in rows]) + "\n"
