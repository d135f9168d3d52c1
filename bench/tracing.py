"""Span tracing from outside the library.

The tracer replaces, for the length of a traced pass, the library functions
each calling module imported (``mdslab.search.classify``,
``mdslab.codes.rref`` and so on) with wrappers that record one span per call:
name, start, end, parent span and the id of the operation (config or suite)
it belongs to.  Spans stay in memory; self times are computed when the pass
ends.  Nothing under ``src/`` is edited, so untraced runs execute the plain
library code.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable

from mdslab import codes, construction, gf, search, verify

ORACLE = "codes.oracle"

# span name -> layer, where the two differ
_LAYER = {
    "codes.oracle.primal": ORACLE,
    "codes.oracle.dual": ORACLE,
    "codes.oracle.other": ORACLE,
    "search.run": "search",
    "search.config": "search",
}

SUITE_CHECKS = {name: "check_" + name.replace("-", "_")
                for name in verify.SUITE_NAMES}


def layer_of(name: str) -> str:
    return _LAYER.get(name, name)


class Tracer:
    """Records spans as [name, start, end, parent index, op id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.sizes: Counter = Counter()
        self._stack: list[int] = []
        self._op = 0
        self._next_op = 1
        self._classifying = None    # generator array of the code in classify

    def _run(self, name: str, fn: Callable, args, kwargs, new_op: bool = False):
        parent = self._stack[-1] if self._stack else -1
        outer_op = self._op
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        span = [name, time.perf_counter(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
            self._op = outer_op

    def wrap(self, name: str, fn: Callable, new_op: bool = False,
             size: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            result = self._run(name, fn, args, kwargs, new_op)
            if size is not None:
                self.sizes[name] += size(result)
            return result
        return traced

    def wrap_classify(self, fn: Callable) -> Callable:
        """classify(code) enumerates code, then code.dual; remember which is which."""
        def traced(code, *args, **kwargs):
            outer = self._classifying
            self._classifying = code.generator.a
            try:
                return self._run("codes.classify", fn, (code,) + args, kwargs)
            finally:
                self._classifying = outer
        return traced

    def wrap_oracle(self, fn: Callable) -> Callable:
        def traced(field, G, *args, **kwargs):
            role = "other"      # Schur squares and verify's own distance checks
            if self._stack and self.spans[self._stack[-1]][0] == "codes.classify":
                role = "primal" if G is self._classifying else "dual"
            return self._run(f"{ORACLE}.{role}", fn, (field, G) + args, kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]


def _targets(tracer: Tracer, bench) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, wrapper) for every call boundary that is traced.

    ``bench`` is the benchmark's workloads module, which calls the library
    like any other caller does.
    """
    t = tracer
    out = [
        # the table build; from_order itself is mostly a cache lookup
        (gf.Field, "_build_tables", t.wrap("gf.build", gf.Field._build_tables)),
        (codes, "rref", t.wrap("linalg.rref", codes.rref)),
        (codes, "nullspace", t.wrap("linalg.nullspace", codes.nullspace)),
        (verify, "det", t.wrap("linalg.det", verify.det)),
        (codes, "_min_weight", t.wrap_oracle(codes._min_weight)),
        (search, "evaluate_config",
         t.wrap("search.config", search.evaluate_config, new_op=True)),
        (bench, "run_search", t.wrap("search.run", bench.run_search)),
        (bench, "records_to_json",
         t.wrap("search.render", bench.records_to_json, size=len)),
        (bench, "criteria_reports",
         t.wrap("bench.config", bench.criteria_reports, new_op=True)),
        (bench, "run_suites", t.wrap("verify.run_suites", bench.run_suites)),
    ]
    for owner in (search, verify):
        out.append((owner, "classify", t.wrap_classify(owner.classify)))
        out.append((owner, "family_code",
                    t.wrap("construction.family_code", owner.family_code)))
    for owner in (search, construction):
        out.append((owner, "grs_consistency_test",
                    t.wrap("codes.schur", owner.grs_consistency_test)))
    for owner in (search, verify, bench):
        for fn in ("mds_criterion", "amds_criterion", "dual_amds_criterion",
                   "nmds_criterion"):
            out.append((owner, fn, t.wrap("construction.criteria", getattr(owner, fn))))
    out.append((bench, "criteria_class",
                t.wrap("construction.criteria", bench.criteria_class)))
    for suite, fn in SUITE_CHECKS.items():
        out.append((verify, fn, t.wrap(f"verify.{suite}", getattr(verify, fn),
                                       new_op=True)))
    return out


@contextmanager
def instrumented(tracer: Tracer, bench):
    """Install the wrappers; restore the original functions on exit."""
    targets = _targets(tracer, bench)
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, wrapper in targets:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


def layer_table(tracer: Tracer) -> dict[str, tuple[int, float]]:
    """layer -> (calls, self seconds), largest self time first."""
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    for span, own in zip(tracer.spans, tracer.self_times()):
        layer = layer_of(span[0])
        calls[layer] += 1
        busy[layer] += own
    return {layer: (calls[layer], busy[layer])
            for layer in sorted(busy, key=busy.get, reverse=True)}


def _quantile_ms(values: list[float], pct: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0] * 1e3
    return statistics.quantiles(values, n=100)[pct - 1] * 1e3


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float,
                  cache: tuple[int, int, int], checks: int) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json, from one traced pass.

    ``.s`` is self time (children excluded); ``verify.<suite>.s`` is the
    suite's whole duration.  ``cache`` is (hits, misses, peak entries) of the
    subset-sum caches over the pass.
    """
    calls: Counter = Counter()
    own: defaultdict = defaultdict(float)
    durations: defaultdict = defaultdict(list)
    for span, s in zip(tracer.spans, tracer.self_times()):
        name = span[0]
        calls[name] += 1
        own[name] += s
        durations[name].append(span[2] - span[1])
    layers = layer_table(tracer)

    def layer_self(layer: str) -> float:
        return layers.get(layer, (0, 0.0))[1]

    m: dict[str, float] = {
        "gf.build_s": own["gf.build"],
        "gf.fields_built": calls["gf.build"],
    }
    for layer in ("linalg.rref", "linalg.nullspace", "linalg.det", "codes.schur",
                  "construction.family_code", "construction.criteria"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.s"] = own[layer]
    m.update({
        f"{ORACLE}.calls": layers.get(ORACLE, (0, 0.0))[0],
        f"{ORACLE}.s": layer_self(ORACLE),
        f"{ORACLE}.primal_s": own[f"{ORACLE}.primal"],
        f"{ORACLE}.dual_s": own[f"{ORACLE}.dual"],
        f"{ORACLE}.share": layer_self(ORACLE) / wall,
    })
    hits, misses, entries = cache
    m["construction.subset_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["construction.subset_cache.entries"] = entries
    configs = durations["search.config"]
    m.update({
        "search.self_s": layer_self("search"),
        "search.render_s": own["search.render"],
        "search.render_bytes": tracer.sizes["search.render"],
        "search.config_p50_ms": statistics.median(configs) * 1e3 if configs else 0.0,
        "search.config_p99_ms": _quantile_ms(configs, 99),
        "search.config_samples": len(configs),
    })
    for suite in verify.SUITE_NAMES:
        m[f"verify.{suite}.s"] = sum(durations[f"verify.{suite}"])
    m["verify.checks"] = checks
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    return m
