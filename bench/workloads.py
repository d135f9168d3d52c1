"""The four benchmark workloads: seeded inputs, the timed call, output checks.

Each workload turns a seed into an endless stream of batches.  A batch is the
input of one timed call; the library sees only those generated inputs.  The
check of a batch runs outside the timed region and counts every operation
(a config, or a suite for verify-quick) whose output is wrong.

Why each workload exists, and which layer it is meant to expose, is written
down in NOTES.md and in the "why" lines of BENCHMARK.json.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from mdslab import construction, gf, verify
from mdslab.codes import AMDS_ONLY_DUAL, AMDS_ONLY_PRIMAL, MDS, NMDS, OTHER
from mdslab.construction import (
    EvalConfig,
    amds_criterion,
    criteria_class,
    dual_amds_criterion,
    mds_criterion,
    nmds_criterion,
)
from mdslab.gf import Field
from mdslab.search import SearchJob, iter_configs, records_to_json, run_search
from mdslab.verify import SUITE_NAMES, run_suites

# check counts of `verify all --quick`; the six sweep suites each visit the
# same 1315 configs, which is what verify-quick counts as configs classified
QUICK_CHECKS = {"powersum": 645, "det": 6774, "parity": 1315, "extend": 1315,
                "mds": 1315, "amds": 1315, "dual-amds": 1315, "nmds": 1315,
                "schur": 18}
QUICK_SWEEP_CONFIGS = QUICK_CHECKS["mds"]

SMALL_ORDERS = (4, 5, 7, 8)
SMALL_SETS_PER_FIELD = 4
LARGE_ORDERS = (64, 1024)
LARGE_LENGTHS = (10, 12)
CRITERIA_BATCH = 100


@dataclass
class Checked:
    """Outcome of the output checks of one batch."""

    configs: int = 0        # configs the timed call classified
    attempted: int = 0      # operations: configs, or suites for verify-quick
    failed: int = 0
    checks: int = 0         # suite checks run (verify-quick only)
    classes: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Checked") -> None:
        self.configs += other.configs
        self.attempted += other.attempted
        self.failed += other.failed
        self.checks += other.checks
        self.classes.update(other.classes)
        self.problems.extend(other.problems)


@dataclass(frozen=True)
class Workload:
    name: str
    orders: tuple[int, ...]      # fields the workload uses, built at set-up
    batches: Callable[[dict, random.Random], Iterator]
    call: Callable               # the timed call
    check: Callable              # (batch, output) -> Checked
    operations: Callable         # batch -> operations it attempts
    fresh_state: bool            # reset module caches before each timed call
    trace_batches: int           # batches in each pass of a traced run
    run_batches: int | None = None   # fixed untraced run length; None: --seconds


def reset_module_caches() -> None:
    """Empty the library's process-wide caches, as a fresh process has them."""
    gf._FIELD_CACHE.clear()
    gf.default_modulus.cache_clear()
    construction._subset_sums.cache_clear()
    construction._subset_delta_values.cache_clear()
    verify.classified.cache_clear()


def subset_cache_info() -> tuple[int, int, int]:
    """(hits, misses, entries) summed over the two subset-sum caches."""
    infos = [construction._subset_sums.cache_info(),
             construction._subset_delta_values.cache_info()]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def implied_class(mds: bool, amds: bool, dual_amds: bool) -> str:
    """The class label that the three criterion verdicts imply."""
    if mds:
        return MDS
    if amds:
        return NMDS if dual_amds else AMDS_ONLY_PRIMAL
    return AMDS_ONLY_DUAL if dual_amds else OTHER


def build_fields(orders: Sequence[int]) -> dict[int, Field]:
    return {q: Field.from_order(q) for q in orders}


# ---------------------------------------------------------------------------
# search workloads: the calls `mdslab search --format json` makes
# ---------------------------------------------------------------------------

def _oracle_batches(fields: dict, rng: random.Random) -> Iterator[list[SearchJob]]:
    f = fields[9]
    while True:
        pts = tuple(sorted(rng.sample(range(f.q), 5)))
        yield [SearchJob(field=f, n=5, k_values=(3, 4, 5), subsets=(pts,))]


def _small_batches(fields: dict, rng: random.Random) -> Iterator[list[SearchJob]]:
    node_sets = {q: list(itertools.combinations(range(q), 4)) for q in SMALL_ORDERS}
    while True:
        batch = []
        for q in SMALL_ORDERS:
            pool = node_sets[q]
            sets = sorted(rng.sample(pool, min(SMALL_SETS_PER_FIELD, len(pool))))
            batch.append(SearchJob(field=fields[q], n=4, k_values=(3, 4),
                                   subsets=tuple(sets)))
        yield batch


def call_search(batch: list[SearchJob]) -> list[tuple[list, str]]:
    out = []
    for job in batch:
        records = run_search(job)
        out.append((records, records_to_json(records)))
    return out


def _record_consistent(obj: dict) -> bool:
    cls, crit = obj["classification"], obj["criteria"]
    mds, amds = crit["mds"]["holds"], crit["amds"]["holds"]
    dual_amds, nmds = crit["dual_amds"]["holds"], crit["nmds"]["holds"]
    return (mds == (cls["singleton_defect"] == 0)
            and amds == (cls["singleton_defect"] == 1)
            and dual_amds == (cls["dual_defect"] == 1)
            and nmds == (cls["class"] == NMDS)
            and cls["class"] == implied_class(mds, amds, dual_amds))


def check_search(batch: list[SearchJob], out: list[tuple[list, str]]) -> Checked:
    res = Checked()
    for job, (records, text) in zip(batch, out):
        expected = [cfg.to_json() for cfg in iter_configs(job)]
        res.attempted += len(expected)
        res.configs += len(expected)
        try:
            parsed = json.loads(text)
        except ValueError:
            parsed = None
        if (len(records) != len(expected) or not isinstance(parsed, list)
                or len(parsed) != len(expected)):
            res.failed += len(expected)
            res.problems.append(
                f"{job.field.spec_string()} n={job.n}: {len(records)} records, "
                f"{len(expected)} configs generated")
            continue
        for cfg, obj in zip(expected, parsed):
            res.classes[obj["classification"]["class"]] += 1
            if obj["config"] != cfg or not _record_consistent(obj):
                res.failed += 1
                res.problems.append(f"bad record for config {json.dumps(cfg)}")
    return res


def _search_operations(batch: list[SearchJob]) -> int:
    return sum(job.planned_count() for job in batch)


# ---------------------------------------------------------------------------
# criteria-large: subset sums only, past the enumeration cap
# ---------------------------------------------------------------------------

def _criteria_batches(fields: dict, rng: random.Random) -> Iterator[list[EvalConfig]]:
    while True:
        batch = []
        for _ in range(CRITERIA_BATCH):
            f = fields[rng.choice(LARGE_ORDERS)]
            n = rng.randint(*LARGE_LENGTHS)
            pts = sorted(rng.sample(range(f.q), n))
            batch.append(EvalConfig.ones(f, pts, rng.randint(3, n), rng.randrange(f.q)))
        yield batch


def criteria_reports(cfg: EvalConfig) -> tuple:
    return (criteria_class(cfg), mds_criterion(cfg), amds_criterion(cfg),
            dual_amds_criterion(cfg), nmds_criterion(cfg))


def call_criteria(batch: list[EvalConfig]) -> list[tuple]:
    return [criteria_reports(cfg) for cfg in batch]


def check_criteria(batch: list[EvalConfig], out: list[tuple]) -> Checked:
    res = Checked(configs=len(batch), attempted=len(batch))
    if len(out) != len(batch):
        res.failed = len(batch)
        res.problems.append(f"{len(out)} results for {len(batch)} configs")
        return res
    for cfg, (label, m, a, da, nm) in zip(batch, out):
        res.classes[label] += 1
        if (m.holds == da.holds or a.holds != nm.holds
                or label != implied_class(m.holds, a.holds, da.holds)):
            res.failed += 1
            res.problems.append(f"inconsistent criteria on {json.dumps(cfg.to_json())}")
    return res


# ---------------------------------------------------------------------------
# verify-quick: `mdslab verify all --quick`
# ---------------------------------------------------------------------------

def _verify_batches(fields: dict, rng: random.Random) -> Iterator[tuple[str, ...]]:
    while True:             # the scope is fixed; the seed has nothing to draw
        yield SUITE_NAMES


def call_verify(batch: tuple[str, ...]) -> list:
    return run_suites(batch, quick=True)


def check_verify(batch: tuple[str, ...], out: list) -> Checked:
    res = Checked(configs=QUICK_SWEEP_CONFIGS, attempted=len(batch))
    seen = {r.suite: r for r in out}
    res.checks = sum(r.checked for r in out)
    for name in batch:
        r = seen.get(name)
        if r is None or not r.passed or r.checked != QUICK_CHECKS[name]:
            res.failed += 1
            res.problems.append(f"suite {name}: " + (
                "missing" if r is None else
                f"passed={r.passed} checked={r.checked}, "
                f"expected {QUICK_CHECKS[name]} checks"))
        res.classes["PASS" if r is not None and r.passed else "FAIL"] += 1
    return res


WORKLOADS = {w.name: w for w in (
    Workload("search-oracle", (9,), _oracle_batches, call_search, check_search,
             _search_operations, fresh_state=True, trace_batches=8),
    Workload("search-small", SMALL_ORDERS, _small_batches, call_search,
             check_search, _search_operations, fresh_state=True,
             trace_batches=30),
    # No cache reset between batches: the subset-sum caches grow over the run
    # as in any long-lived caller (NOTES.md, known defect).  As memory then
    # follows the number of configs done, the run length is a fixed number of
    # configs, so that peak_rss_mb does not follow the speed of the machine.
    Workload("criteria-large", LARGE_ORDERS, _criteria_batches, call_criteria,
             check_criteria, len, fresh_state=False, trace_batches=8,
             run_batches=40),
    Workload("verify-quick", (4, 5, 7, 8, 9, 11, 13), _verify_batches,
             call_verify, check_verify, len, fresh_state=True,
             trace_batches=1),
)}
