"""Per-layer tracing of srbetti from outside the program.

``install`` wraps the public functions listed in ``WRAPPED``.  The layers are
the modules of the package.  A wrapper records one span per call (name,
parent span, start, end) and, for some functions, counters read from the
arguments and the result.  Because ``from .linalg import rank`` makes a second
binding of the same function object, every ``srbetti.*`` module attribute that
refers to a wrapped object is rebound; a method is patched on its class.

A layer's self time is the span time minus the time of its child spans.  The
time a wrapper spends on its own counters is excluded from the parent's self
time too, so that tracing inflates no layer.

Functions that a later change removes or renames are skipped at install time,
and the metrics that need them are reported as absent (value ``None``).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYERS = ("betti", "complexes", "cohomology", "linalg", "coloring", "tor", "bounds", "cli")


def _omega(counts, args, result, duration):
    counts["omega_visited"] += 1
    counts["omega_nonzero"] += any(result.values())


def _faces_built(counts, args, result, duration):
    counts["faces_built"] += len(result.faces)


def _matrix(counts, args, result, duration):
    M, field = args[0], args[1]
    counts["entries"] += M.rows * M.cols
    counts["nnz"] += sum(1 for row in M.data for x in row if x)
    counts[f"rank_s.{field}"] += duration


def _piece_gens(counts, args, result, duration):
    counts["piece_gens"] += sum(result.sizes.values())


# Every (module, attribute, counter) the traced run wraps.  Per-generator and
# per-bit helpers (vertices_of, koszul_coboundary, ...) are left out: they run
# millions of times, so wrapping them would measure the wrapper.
WRAPPED = (
    ("betti", "betti_table", None),
    ("betti", "betti_number", None),
    ("betti", "subcomplex_cohomology", _omega),
    ("betti", "zk_cohomology_dims", None),
    ("betti", "zk_cohomology_dims_two_routes", None),
    ("complexes", "full_subcomplex", _faces_built),
    ("complexes", "from_facets", None),
    ("complexes", "parse_complex", None),
    ("complexes", "join", None),
    ("cohomology", "reduced_cohomology_dims", None),
    ("cohomology", "cohomology_dims", None),
    ("cohomology", "reduced_cochain_complex", None),
    ("cohomology", "CochainComplex.check_dd_zero", None),
    ("linalg", "rank", _matrix),
    ("linalg", "kernel_dim", None),
    ("coloring", "greedy_coloring", None),
    ("coloring", "minimum_coloring", None),
    ("coloring", "is_nondegenerate", None),
    ("coloring", "omega_L", None),
    ("coloring", "colors_of", None),
    ("coloring", "parse_blocks", None),
    ("coloring", "format_blocks", None),
    ("coloring", "partition_to_json", None),
    ("tor", "tor_dims", None),
    ("tor", "verify_tor_threeway", None),
    ("tor", "koszul_piece", _piece_gens),
    ("tor", "quotient_cochain_complex", None),
    ("tor", "quotient_cohomology_dims", None),
    ("tor", "psi_iota_checks", None),
    ("bounds", "all_bound_checks", None),
    ("bounds", "check_colored_binomial", None),
    ("bounds", "check_colored_total", None),
    ("bounds", "check_ustinovskii", None),
    ("bounds", "check_caolu", None),
    ("bounds", "sharpness_suite", None),
    ("cli", "main", None),
)

CACHED = ("cohomology", "reduced_cohomology_dims")


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: defaultdict = defaultdict(float)
        self.absent: set[str] = set()
        self.failed_counters: set[str] = set()
        self.cache = None
        self.cache_start = None

    def _wrap(self, fn, name: str, counter):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1, 0.0)
            if counter is not None and name not in self.failed_counters:
                try:
                    counter(counts, args, result, t1 - t0)
                except (AttributeError, TypeError, IndexError):
                    self.failed_counters.add(name)
                spans[idx] = (name, parent, t0, t1, clock() - t1)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [
            m for key, m in sys.modules.items()
            if key == "srbetti" or key.startswith("srbetti.")
        ]
        for module_name, attr, counter in WRAPPED:
            name = f"{module_name}.{attr.rsplit('.', 1)[-1]}"
            try:
                owner = importlib.import_module(f"srbetti.{module_name}")
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr.rsplit(".", 1)[-1])
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            wrapper = self._wrap(fn, name, counter)
            if "." in attr:
                setattr(owner, attr.rsplit(".", 1)[-1], wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
            if (module_name, attr) == CACHED and hasattr(fn, "cache_info"):
                self.cache = fn
                self.cache_start = fn.cache_info()

    def summary(self) -> dict:
        """Calls, inclusive and self time per wrapped function, plus counters."""
        n = len(self.spans)
        child = [0.0] * n
        for name, parent, t0, t1, hidden in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0 + hidden
        calls: defaultdict = defaultdict(int)
        incl: defaultdict = defaultdict(float)
        self_s: defaultdict = defaultdict(float)
        for i, (name, parent, t0, t1, _hidden) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += t1 - t0
            self_s[name] += t1 - t0 - child[i]
            if name == "betti.betti_number" and parent >= 0 and self.spans[parent][0].startswith("bounds."):
                calls["bounds>betti.betti_number"] += 1
        out = {
            "calls": dict(calls),
            "incl_s": dict(incl),
            "self_s": dict(self_s),
            "counts": dict(self.counts),
            "absent": sorted(self.absent | self.failed_counters),
        }
        if self.cache is not None:
            info = self.cache.cache_info()
            out["cache"] = {
                "hits": info.hits - self.cache_start.hits,
                "misses": info.misses - self.cache_start.misses,
                "size": info.currsize,
            }
        return out


def merge(summaries: list[dict], scales: list[float]) -> dict:
    """Sum the summaries of several traced processes, each one's times
    multiplied by its scale (see speed.py)."""
    total = {"calls": defaultdict(float), "incl_s": defaultdict(float),
             "self_s": defaultdict(float), "counts": defaultdict(float),
             "cache": defaultdict(float), "absent": set(), "processes": len(summaries)}
    for s, scale in zip(summaries, scales):
        for key in ("calls", "incl_s", "self_s", "counts", "cache"):
            for name, value in s.get(key, {}).items():
                is_time = key in ("incl_s", "self_s") or name.startswith("rank_s.")
                total[key][name] += value * scale if is_time else value
        total["absent"].update(s["absent"])
        if "cache" not in s:
            total["absent"].add(".".join(CACHED))
    return total


def _ratio(num: float, den: float):
    return num / den if den else None


def _per_op(kind: str, key: str):
    return lambda t, ops: t[kind].get(key, 0) / ops


def _layer_self(layer: str):
    return lambda t, ops: sum(v for k, v in t["self_s"].items() if k.startswith(layer + ".")) / ops


# (metric, unit, better, wrapped functions it needs, value from the merged
# summaries and the number of traced operations)
LAYER_METRICS = (
    ("betti.self_s", "s/op", "lower", (), _layer_self("betti")),
    ("betti.omega_visited", "count/op", "lower", ("betti.subcomplex_cohomology",),
     _per_op("counts", "omega_visited")),
    ("betti.omega_nonzero_ratio", "ratio", "higher", ("betti.subcomplex_cohomology",),
     lambda t, ops: _ratio(t["counts"].get("omega_nonzero", 0), t["counts"].get("omega_visited", 0))),
    ("complexes.self_s", "s/op", "lower", (), _layer_self("complexes")),
    ("complexes.full_subcomplex.calls", "count/op", "lower", ("complexes.full_subcomplex",),
     _per_op("calls", "complexes.full_subcomplex")),
    ("complexes.full_subcomplex.self_s", "s/op", "lower", ("complexes.full_subcomplex",),
     _per_op("self_s", "complexes.full_subcomplex")),
    ("complexes.faces_built", "count/op", "lower", ("complexes.full_subcomplex",),
     _per_op("counts", "faces_built")),
    ("cohomology.self_s", "s/op", "lower", (), _layer_self("cohomology")),
    ("cohomology.build.calls", "count/op", "lower", ("cohomology.reduced_cochain_complex",),
     _per_op("calls", "cohomology.reduced_cochain_complex")),
    ("cohomology.build_s", "s/op", "lower", ("cohomology.reduced_cochain_complex",),
     _per_op("incl_s", "cohomology.reduced_cochain_complex")),
    ("cohomology.ddcheck_s", "s/op", "lower", ("cohomology.check_dd_zero",),
     _per_op("incl_s", "cohomology.check_dd_zero")),
    ("cohomology.cache_hit_ratio", "ratio", "higher", ("cohomology.reduced_cohomology_dims",),
     lambda t, ops: _ratio(t["cache"].get("hits", 0), t["cache"].get("hits", 0) + t["cache"].get("misses", 0))),
    ("cohomology.cache_size", "count", "lower", ("cohomology.reduced_cohomology_dims",),
     lambda t, ops: t["cache"].get("size", 0) / max(t["processes"], 1)),
    ("linalg.self_s", "s/op", "lower", (), _layer_self("linalg")),
    ("linalg.rank.calls", "count/op", "lower", ("linalg.rank",), _per_op("calls", "linalg.rank")),
    ("linalg.rank_s.q", "s/op", "lower", ("linalg.rank",), _per_op("counts", "rank_s.q")),
    ("linalg.rank_s.f2", "s/op", "lower", ("linalg.rank",), _per_op("counts", "rank_s.f2")),
    ("linalg.rank_s.f3", "s/op", "lower", ("linalg.rank",), _per_op("counts", "rank_s.f3")),
    ("linalg.entries", "count/op", "lower", ("linalg.rank",), _per_op("counts", "entries")),
    ("linalg.nnz", "count/op", "lower", ("linalg.rank",), _per_op("counts", "nnz")),
    ("tor.self_s", "s/op", "lower", (), _layer_self("tor")),
    ("tor.koszul_piece.calls", "count/op", "lower", ("tor.koszul_piece",),
     _per_op("calls", "tor.koszul_piece")),
    ("tor.koszul_piece.self_s", "s/op", "lower", ("tor.koszul_piece",),
     _per_op("self_s", "tor.koszul_piece")),
    ("tor.piece_gens", "count/op", "lower", ("tor.koszul_piece",), _per_op("counts", "piece_gens")),
    ("tor.quotient.calls", "count/op", "lower", ("tor.quotient_cochain_complex",),
     _per_op("calls", "tor.quotient_cochain_complex")),
    ("tor.quotient_s", "s/op", "lower", ("tor.quotient_cochain_complex",),
     _per_op("incl_s", "tor.quotient_cochain_complex")),
    ("bounds.self_s", "s/op", "lower", (), _layer_self("bounds")),
    ("bounds.betti_number.calls", "count/op", "lower", ("betti.betti_number",),
     _per_op("calls", "bounds>betti.betti_number")),
    ("coloring.self_s", "s/op", "lower", (), _layer_self("coloring")),
    ("cli.self_s", "s/op", "lower", ("cli.main",), _layer_self("cli")),
    ("trace.overhead_ratio", "ratio", "lower", (), lambda t, ops: t["overhead_ratio"]),
)


def layer_metrics(total: dict, ops: int, overhead_ratio: float) -> dict:
    """Per-layer metrics from merged summaries; absent ones are None."""
    total = {**total, "overhead_ratio": overhead_ratio}
    absent = total["absent"]
    metrics = {}
    for name, unit, _better, needs, value in LAYER_METRICS:
        layer = name.split(".")[0]
        whole_layer_gone = name == f"{layer}.self_s" and all(
            f"{m}.{attr.rsplit('.', 1)[-1]}" in absent for m, attr, _ in WRAPPED if m == layer
        )
        gone = whole_layer_gone or any(n in absent for n in needs)
        metrics[name] = {"value": None if gone else value(total, ops), "unit": unit}
    return metrics
