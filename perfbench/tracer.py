"""In-memory span recorder that wraps the package's functions from outside.

Modules of the package import each other's names directly
(``from .matrix import rank``), so a function is wrapped at every binding
through which the measured paths call it, not only where it is defined.
Methods are wrapped on their class.  Nothing under ``src/`` is edited:
``install`` swaps attributes in place and ``uninstall`` puts the originals
back.

Each span records (id, name, start, end, parent id, thread id).  A span
opened on a worker thread whose own stack is empty takes as parent the span
open on the thread that installed the tracer (for the experiment pool that
is ``experiment.run_experiment``).  Alongside the spans, hooks keep counts
that do not depend on timing: strategies, certificate kinds, enumerated
masks and repeated rank calls.  The tracer may be installed and uninstalled
many times; spans and counts accumulate across installs.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from math import comb

# (module, attribute, span name): every binding the four CLI paths call through.
FUNCTION_BINDINGS = (
    ("lowrankdisc.cli", "main", "cli.main"),
    ("lowrankdisc.cli", "find_mono", "decrement.find_mono"),
    ("lowrankdisc.cli", "run_experiment", "experiment.run_experiment"),
    ("lowrankdisc.cli", "best_rect", "oracle.best_rect"),
    ("lowrankdisc.cli", "lower_bound_disc", "spectral.lower_bound_disc"),
    ("lowrankdisc.experiment", "_run_bundle", "experiment.bundle"),
    ("lowrankdisc.experiment", "find_mono", "decrement.find_mono"),
    ("lowrankdisc.experiment", "rank", "matrix.rank"),
    ("lowrankdisc.experiment", "disc0_plus", "oracle.disc0_plus"),
    ("lowrankdisc.experiment", "lower_bound_disc", "spectral.lower_bound_disc"),
    # disc_plus / disc_minus and the transpose recursion call this binding
    ("lowrankdisc.oracle", "best_rect", "oracle.best_rect"),
    ("lowrankdisc.decrement", "rank", "matrix.rank"),
    ("lowrankdisc.decrement", "submatrix", "matrix.submatrix"),
    ("lowrankdisc.decrement", "best_half_rect", "oracle.best_half_rect"),
    ("lowrankdisc.decrement", "lower_bound_disc", "spectral.lower_bound_disc"),
    ("lowrankdisc.decrement", "decrement_step", "decrement.decrement_step"),
    ("lowrankdisc.decrement", "round_to_rect", "decrement.round_to_rect"),
    ("lowrankdisc.decrement", "adjust_to_half", "decrement.adjust_to_half"),
    ("lowrankdisc.decrement", "_half_local_search", "decrement.local_search"),
    ("lowrankdisc.decrement", "zero_submatrix_sparse",
     "decrement.zero_submatrix_sparse"),
    ("lowrankdisc.spectral", "exact_rank", "matrix.rank"),
    ("lowrankdisc.spectral", "symmetrize", "spectral.symmetrize"),
    ("lowrankdisc.spectral", "eigendecompose", "spectral.eigendecompose"),
    ("lowrankdisc.spectral", "witness", "spectral.witness"),
    ("lowrankdisc.spectral", "truncate_high_degree",
     "spectral.truncate_high_degree"),
    ("lowrankdisc.spectral", "_strip_certificate", "spectral.strip_certificate"),
)

# (module, class, method, span name)
METHOD_BINDINGS = (
    ("lowrankdisc.matrix", "BinaryMatrix", "digest", "matrix.digest"),
    ("lowrankdisc.matrix", "BinaryMatrix", "from_text", "matrix.from_text"),
    ("lowrankdisc.matrix", "WeightedBinaryMatrix", "materialize",
     "matrix.materialize"),
)

ROOT = "cli.main"


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[tuple[int, str]] = []
        self._owner_thread = threading.get_ident()
        self._ranked: set = set()
        self._patches: list[tuple[object, str, object]] = []
        self._oracle_limit = None

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._owner_thread:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        sig = inspect.signature(fn)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent, parent_name = stack[-1]
            elif tracer._owner_stack:
                parent, parent_name = tracer._owner_stack[-1]
            else:
                parent, parent_name = None, None
            reentrant = parent_name == name
            if before is not None and not reentrant:
                before(sig.bind(*args, **kwargs).arguments)
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append((sid, name, start, end, parent,
                                         threading.get_ident()))
            if after is not None and not reentrant:
                after(sig.bind(*args, **kwargs).arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        from lowrankdisc.config import DEFAULT

        self._oracle_limit = DEFAULT.oracle_limit
        for modname, attr, name in FUNCTION_BINDINGS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            self._patches.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, name))
        for modname, clsname, attr, name in METHOD_BINDINGS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(original.__func__, name)))
            else:
                setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- counting hooks (named after the span, dots as underscores) ----------

    def _count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def _maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.maxima[key] = max(self.maxima.get(key, value), value)

    def _before_cli_main(self, a) -> None:
        with self._lock:
            self._ranked.clear()

    def _before_matrix_rank(self, a) -> None:
        E = a["M"].entries
        key = (E.shape, hashlib.sha1(E.tobytes()).digest())
        with self._lock:
            repeat = key in self._ranked
            self._ranked.add(key)
        if repeat:
            self._count("matrix.rank.repeat_calls")

    def _before_oracle_best_rect(self, a) -> None:
        self._count("oracle.masks", 1 << min(a["M"].m, a["M"].n))

    _before_oracle_disc0_plus = _before_oracle_best_rect

    def _before_oracle_best_half_rect(self, a) -> None:
        M = a["M"]
        rows = a.get("row_size")
        self._count("oracle.masks", comb(M.m, M.m // 2 if rows is None else rows))

    def _after_spectral_eigendecompose(self, a, S) -> None:
        self._maximum("spectral.eigendecompose.max_residual", S.residual)
        # bytes of one dense N x N float64 array, computed from N
        self._maximum("spectral.eigendecompose.bytes", 8.0 * S.N * S.N)

    def _after_spectral_lower_bound_disc(self, a, cert) -> None:
        self._count(f"spectral.cert.{cert.kind}")

    def _before_decrement_decrement_step(self, a) -> None:
        cfg = a.get("cfg")
        limit = self._oracle_limit if cfg is None else cfg.oracle_limit
        if a["M"].n > limit:
            self._count("decrement.spectral_path_steps")

    def _after_decrement_decrement_step(self, a, step) -> None:
        self._count(f"decrement.strategy.{step.strategy}")

    # -- aggregation ---------------------------------------------------------

    def _child_time(self, by_id) -> dict[int, float]:
        """Seconds each span spent in direct children on its own thread."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent, thread in self.spans:
            if parent in by_id and by_id[parent][5] == thread:
                child_time[parent] += end - start
        return child_time

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """calls / inclusive s / self s per span name.

        A span whose parent has the same name (the oracle's transpose
        recursion) is folded into its parent.  Self time subtracts only the
        direct children on the same thread.
        """
        by_id = {s[0]: s for s in self.spans}
        child_time = self._child_time(by_id)
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for sid, name, start, end, parent, thread in self.spans:
            if parent in by_id and by_id[parent][1] == name:
                continue
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += end - start - child_time[sid]
        return dict(stats)

    def per_root(self) -> list[dict[str, float]]:
        """Inclusive seconds per span name under each cli.main span, in
        call order (recursion folded as in layer_stats)."""
        by_id = {s[0]: s for s in self.spans}
        roots = sorted((s for s in self.spans if s[1] == ROOT), key=lambda s: s[2])
        index = {s[0]: i for i, s in enumerate(roots)}
        out: list[dict[str, float]] = [defaultdict(float) for _ in roots]
        for sid, name, start, end, parent, thread in self.spans:
            if parent in by_id and by_id[parent][1] == name:
                continue
            top = sid
            while by_id[top][4] in by_id:
                top = by_id[top][4]
            if top in index:
                out[index[top]][name] += end - start
        return [dict(d) for d in out]

    def span_tree(self) -> list[tuple[int, str, int, float, float]]:
        """Spans aggregated by call path: (depth, name, calls, s, self s)."""
        by_id = {s[0]: s for s in self.spans}
        child_time = self._child_time(by_id)
        paths: dict[int, tuple[str, ...]] = {}

        def path_of(sid):
            if sid not in paths:
                _, name, _, _, parent, _ = by_id[sid]
                paths[sid] = (path_of(parent) if parent in by_id else ()) + (name,)
            return paths[sid]

        agg: dict[tuple[str, ...], list[float]] = {}
        for span in sorted(self.spans, key=lambda s: s[2]):
            sid, _, start, end, _, _ = span
            row = agg.setdefault(path_of(sid), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[sid]
        out = []

        def emit(prefix):
            for path in agg:
                if path[:-1] == prefix:
                    calls, total, own = agg[path]
                    out.append((len(path) - 1, path[-1], int(calls), total, own))
                    emit(path)

        emit(())
        return out
