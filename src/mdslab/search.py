"""Parameter-space sweeps over the code family.

A search walks (A, k, delta) triples in a fixed canonical order: node sets
lexicographic by element index, then k ascending, then delta ascending.  Every
visited config is classified twice, once by the distance oracle and once
through its Criteria record, the first witnesses of one subset-sum scan, and
any verdict that breaks the record's rule aborts the whole run; a completed
search doubles as an oracle cross-check over everything it visited.  The
check reads the verdicts off the witnesses; criterion reports are built only
to render output.  A record serializes through the to_json of its parts: its
fields, in declaration order, are its JSON keys, and records_to_json joins
the text json.dumps(..., indent=2) gives each part, rendered once per
distinct part into a bounded memo.

The walk runs in blocks of node sets, about BLOCK_CONFIGS configs each.  Each
k of a block is one stack of generators, every node set times every delta,
built without reducing any matrix.  One stack check, check_stack, serves
search and verify alike: one oracle call gives the stack's (d, d-dual), one
scan per node set over every delta its Criteria records, and the two give
the verdicts that break their rule.  The Schur screen builds no dual code.
A block raises at its first broken entry in visit order, as evaluate_config
would, and builds records only for configs that pass the class filter, in
visit order, so equal inputs give byte-identical output regardless of worker
count: with --jobs, a pool evaluates whole blocks, joined in block order.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import multiprocessing
import os
import random
import sys
from dataclasses import dataclass
from io import StringIO
from typing import Iterable, Iterator

import numpy as np

from . import codes
from .gf import Field
from .linalg import require_distinct
from .codes import (
    AMDS_ONLY_DUAL,
    AMDS_ONLY_PRIMAL,
    Classification,
    DUAL_SQUARE_DISTANCE,
    GrsReport,
    MDS,
    NMDS,
    OTHER,
    classify,
    grs_consistency_reports,
    grs_consistency_test,
    schur_method,
)
from .construction import (
    PARITY_FAULTS,
    Criteria,
    EvalConfig,
    criteria,
    family_code,
    family_generators,
    family_parity_checks,
    parity_faults,
    subset_scan,
    truths,
    verdicts,
)
# the benchmark's tracer (bench/tracing.py) wraps these names in this module
from .construction import (  # noqa: F401
    amds_criterion,
    dual_amds_criterion,
    mds_criterion,
    nmds_criterion,
)

CODE_CLASSES = (MDS, NMDS, AMDS_ONLY_PRIMAL, AMDS_ONLY_DUAL, OTHER)

DEFAULT_BUDGET = 10_000_000
BLOCK_CONFIGS = 1024    # configs per block: bounds its stacks and its records
RENDER_MEMO = 1024      # rendered record parts kept for records_to_json

CSV_COLUMNS = ("q", "n", "k", "delta", "A", "class", "d", "d_dual",
               "grs_verdict", "witness")


class BudgetExceededError(RuntimeError):
    """The sweep would visit more configurations than the budget allows."""

    def __init__(self, needed: int, budget: int):
        super().__init__(needed, budget)
        self.needed = needed
        self.budget = budget

    def __str__(self) -> str:
        return (f"search needs {self.needed} configurations, "
                f"budget is {self.budget}")


class SearchMismatchError(RuntimeError):
    """Criteria and brute force disagreed; carries the offending config."""

    def __init__(self, config: EvalConfig, detail: str):
        super().__init__(config, detail)
        self.config = config
        self.detail = detail

    def __str__(self) -> str:
        return (f"criterion/brute-force disagreement ({self.detail}) "
                f"on config {json.dumps(self.config.to_json())}")


@dataclass(frozen=True)
class SearchJob:
    """One sweep description; see iter_configs for the visit order."""

    field: Field
    n: int
    k_values: tuple[int, ...]
    deltas: tuple[int, ...] | None = None          # None: the whole field
    subsets: tuple[tuple[int, ...], ...] | None = None   # explicit node sets
    sample: int | None = None                      # seeded subset sample size
    seed: int = 0
    target: str | None = None                      # class filter, None: all
    budget: int = DEFAULT_BUDGET
    jobs: int = 1

    def __post_init__(self):
        f = self.field
        if not 3 <= self.n <= f.q:
            raise ValueError(f"need 3 <= n <= q, got n={self.n}, q={f.q}")
        if not self.k_values:
            raise ValueError("no k values")
        if len(set(self.k_values)) < len(self.k_values):
            raise ValueError(f"repeated k in {self.k_values}")
        for k in self.k_values:
            if not 3 <= k <= self.n:
                raise ValueError(f"k={k} outside [3, {self.n}]")
        if self.deltas is not None:
            object.__setattr__(self, "deltas",
                               tuple(f.check(d) for d in self.deltas))
            if not self.deltas:
                raise ValueError("no delta values")
            if len(set(self.deltas)) < len(self.deltas):
                raise ValueError(f"repeated delta in {self.deltas}")
        if self.subsets is not None and self.sample is not None:
            raise ValueError("explicit node sets and sampling are exclusive")
        if self.subsets is not None:
            for pts in self.subsets:
                if len(pts) != self.n:
                    raise ValueError(f"node set {pts} does not have size {self.n}")
            object.__setattr__(self, "subsets", tuple(
                map(tuple, require_distinct(f, self.subsets).tolist())))
            if len(set(map(frozenset, self.subsets))) < len(self.subsets):
                raise ValueError(f"repeated node set in {self.subsets}")
        if self.sample is not None and self.sample < 1:
            raise ValueError("sample size must be positive")
        if self.target is not None and self.target not in CODE_CLASSES:
            raise ValueError(f"unknown class filter {self.target!r}")
        if self.budget < 1:
            raise ValueError("budget must be positive")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")

    def workers(self) -> int:
        """Worker processes for the sweep: jobs, capped at the core count."""
        return min(self.jobs, os.cpu_count() or 1)

    def delta_list(self) -> tuple[int, ...]:
        if self.deltas is not None:
            return self.deltas
        return tuple(self.field.elements())

    def point_set_count(self) -> int:
        if self.subsets is not None:
            return len(self.subsets)
        total = math.comb(self.field.q, self.n)
        if self.sample is not None:
            return min(self.sample, total)
        return total

    def planned_count(self) -> int:
        return self.point_set_count() * len(self.k_values) * len(self.delta_list())


def unrank_combination(pool: int, size: int, index: int) -> tuple[int, ...]:
    """The index-th size-subset of range(pool) in lexicographic order."""
    if not 0 <= index < math.comb(pool, size):
        raise ValueError(f"rank {index} out of range")
    out = []
    x = 0
    for remaining in range(size, 0, -1):
        while True:
            block = math.comb(pool - x - 1, remaining - 1)
            if index < block:
                out.append(x)
                x += 1
                break
            index -= block
            x += 1
    return tuple(out)


def _draw_rejecting_repeats(rng: random.Random, total: int, size: int) -> list[int]:
    """random.sample's draw for a population above its set-size threshold:
    randrange(total) until size distinct values have come up, in draw order."""
    chosen: dict[int, None] = {}          # insertion-ordered set
    while len(chosen) < size:
        chosen.setdefault(rng.randrange(total))
    return list(chosen)


def point_sets(job: SearchJob) -> Iterator[tuple[int, ...]]:
    if job.subsets is not None:
        yield from job.subsets
        return
    q, n = job.field.q, job.n
    total = math.comb(q, n)
    if job.sample is not None and job.sample < total:
        rng = random.Random(job.seed)
        if total <= sys.maxsize:
            ranks = rng.sample(range(total), job.sample)
        else:                   # range() has no len() past sys.maxsize
            ranks = _draw_rejecting_repeats(rng, total, job.sample)
        for r in sorted(ranks):
            yield unrank_combination(q, n, r)
        return
    yield from itertools.combinations(range(q), n)


def iter_configs(job: SearchJob) -> Iterator[EvalConfig]:
    """Canonical visit order: node set, then k, then delta, all ascending."""
    deltas = job.delta_list()
    for pts in point_sets(job):
        for k in job.k_values:
            for delta in deltas:
                yield EvalConfig.ones(job.field, pts, k, delta)


# ---------------------------------------------------------------------------
# per-config evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchRecord:
    """One visited config and its verdicts.  The fields, in this order, are
    the record's JSON keys (RECORD_KEYS), each valued by its to_json."""

    config: EvalConfig
    classification: Classification
    grs: GrsReport
    criteria: Criteria

    def witness_string(self) -> str:
        """The satisfied dual-AMDS clause, which certifies any non-MDS class."""
        rep = self.criteria.dual_amds
        if rep.witness is None:
            return ""
        return rep.clause + ":" + "+".join(str(i) for i in rep.witness)

    def csv_row(self) -> list:
        cfg, cls = self.config, self.classification
        return [cfg.field.q, cfg.n, cfg.k, cfg.delta,
                "+".join(str(a) for a in cfg.alphas),
                cls.kind, cls.min_distance, cls.dual_min_distance,
                self.grs.verdict, self.witness_string()]

    def to_json(self) -> dict:
        return {key: getattr(self, key).to_json() for key in RECORD_KEYS}


RECORD_KEYS = tuple(f.name for f in dataclasses.fields(SearchRecord))


def evaluate_config(cfg: EvalConfig) -> SearchRecord:
    """Classify one config both ways; raise on any disagreement."""
    code = family_code(cfg)     # classify and the Schur screen share code.dual
    cls = classify(code)
    crit = criteria(cfg)
    for name, predicted, actual in crit.checks(cls):
        if predicted != actual:
            raise SearchMismatchError(
                cfg, f"{name} criterion says {predicted}, code says {actual}")
    return SearchRecord(cfg, cls, grs_consistency_test(code), crit)


def check_stack(job: SearchJob, block: tuple[tuple[int, ...], ...], k: int,
                G: np.ndarray) -> tuple[list, list, list[Criteria], np.ndarray]:
    """The job's stack G at k, every node set of the block times every delta,
    checked: each entry's d and d-dual from one oracle call, its Criteria from
    one scan per node set, and the (4, S*D) array of its verdicts, in CRITERIA
    order, that break their rule (verdicts against truths)."""
    # looked up on the module, where the benchmark's tracer wraps it
    d, dual_d = codes._min_weight(job.field, G)
    records = [c for alphas in block
               for c in subset_scan(job.field, alphas, k, job.delta_list())]
    hits = np.array([[w is not None for w in c] for c in records]).T
    broken = np.array(verdicts(*hits)) != truths(job.n + 3 - k - d, k + 1 - dual_d)
    return d.tolist(), dual_d.tolist(), records, broken


def _blocks(job: SearchJob) -> Iterator[tuple[tuple[int, ...], ...]]:
    """The job's node sets in visit order, in blocks of about BLOCK_CONFIGS
    configs (at least one node set)."""
    per_set = len(job.k_values) * len(job.delta_list())
    per_block = max(1, BLOCK_CONFIGS // per_set)
    sets = point_sets(job)
    while block := tuple(itertools.islice(sets, per_block)):
        yield block


def evaluate_block(job: SearchJob,
                   block: tuple[tuple[int, ...], ...]) -> list[SearchRecord]:
    """The records of the job's configs on these node sets that pass its
    class filter, in visit order.

    Raises what evaluate_config would on the first of them, in that order,
    whose verdicts disagree; a shape past the oracle's cap is refused before
    any record, as the first config's code would be.  Each k is one stack of
    generators, every node set times every delta, checked by check_stack;
    its Schur screens come from one batched call, squaring duals from
    family_parity_checks proven by parity_faults; a config they fail, or a
    misshapen stack's first, is a disagreement, raised as the k is reached.
    """
    f, deltas, N = job.field, job.delta_list(), job.n + 2
    stacks = {}
    for k in job.k_values:
        G = family_generators(f, block, k, deltas)
        *checked, broken = check_stack(job, block, k, G)
        H = None
        if schur_method(N, k) == DUAL_SQUARE_DISTANCE:
            H = family_parity_checks(f, block, k, deltas)
            faults = parity_faults(f, G, H)
            b = int(faults.astype(bool).argmax())
            if faults[b]:
                cfg = EvalConfig.ones(f, block[b // len(deltas)], k,
                                      deltas[b % len(deltas)])
                raise SearchMismatchError(
                    cfg, f"parity check fails: {PARITY_FAULTS[faults[b]]}")
        stacks[k] = zip(*checked, broken.T.tolist(), grs_consistency_reports(f, G, H))
    records = []
    for alphas in block:
        for k in job.k_values:
            # zip(deltas, ...) takes the node set's entries of the stack
            for delta, (d, dual_d, crit, broken, screen) in zip(deltas, stacks[k]):
                cls = Classification.of_distances(N, k, d, dual_d)
                if True in broken or job.target in (None, cls.kind):
                    cfg = EvalConfig.ones(f, alphas, k, delta)
                    if True in broken:
                        name, holds, truth = list(crit.checks(cls))[broken.index(True)]
                        raise SearchMismatchError(cfg, f"{name} criterion says "
                                                  f"{holds}, code says {truth}")
                    records.append(SearchRecord(cfg, cls, screen, crit))
    return records


def run_search(job: SearchJob) -> list[SearchRecord]:
    needed = job.planned_count()
    if needed > job.budget:
        raise BudgetExceededError(needed, job.budget)
    evaluate = functools.partial(evaluate_block, job)
    workers = job.workers()
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            # imap keeps input order, so parallel runs emit identical bytes
            blocks = list(pool.imap(evaluate, _blocks(job)))
    else:
        blocks = map(evaluate, _blocks(job))
    return [r for block in blocks for r in block]


# ---------------------------------------------------------------------------
# output formats
# ---------------------------------------------------------------------------

def records_to_csv(records: Iterable[SearchRecord]) -> str:
    buf = StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in records:
        w.writerow(r.csv_row())
    return buf.getvalue()


@functools.lru_cache(maxsize=RENDER_MEMO)
def _member(indent: int, key: str, value) -> str:
    """The `"key": value` member of an object whose members sit at this
    indent, as json.dumps(..., indent=2) renders it there.  value is a part
    with a to_json, or a config entry's value with its lists as tuples,
    which json renders alike."""
    if hasattr(value, "to_json"):
        value = value.to_json()
    pad = " " * indent
    text = json.dumps(value, indent=2).replace("\n", "\n" + pad)
    return f"{pad}{json.dumps(key)}: {text}"


def _record_json(record: SearchRecord) -> str:
    """record's item in records_to_json: its reports and its config's
    entries from the memo, joined in json.dumps's frame."""
    members = []
    for key in RECORD_KEYS:
        part = getattr(record, key)
        if isinstance(part, EvalConfig):
            entries = ",\n".join(
                _member(6, k, tuple(v) if isinstance(v, list) else v)
                for k, v in part.to_json().items())
            members.append(f"    {json.dumps(key)}: {{\n{entries}\n    }}")
        else:
            members.append(_member(4, key, part))
    return "  {\n" + ",\n".join(members) + "\n  }"


def records_to_json(records: Iterable[SearchRecord]) -> str:
    """json.dumps([r.to_json() for r in records], indent=2) and a newline,
    byte for byte, with each distinct part rendered once."""
    items = [_record_json(r) for r in records]
    if not items:
        return "[]\n"
    return "[\n" + ",\n".join(items) + "\n]\n"


def records_to_text(records: Iterable[SearchRecord]) -> str:
    rows = [list(CSV_COLUMNS)]
    for r in records:
        rows.append([str(c) for c in r.csv_row()])
    widths = [max(len(row[i]) for row in rows) for i in range(len(CSV_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    return "\n".join(lines) + "\n"
