"""Invariant sweeps: each suite replays one of the library's guarantees.

A suite walks its scope exhaustively, stops at the first counterexample, and
reports it as a reproducible JSON blob.  The default scope covers field orders
4, 5, 7, 8, 9 with node sets up to size 7 and k capped at 5; --quick trims to
orders 4, 5, 7 and size 5.

The six per-config suites (parity, extend, mds, amds, dual-amds, nmds) are
filters over one sweep on search's blocks: each k of a block is one generator
stack that every suite reads.  The criterion suites read search.check_stack's
broken verdicts on it, the one stack check that serves search and verify (the
oracle's d-dual from G's columns alone, not from the criteria or H); each
suite stops at its own first counterexample; the sweep ends when none is live.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .gf import Field
from .linalg import (
    det,
    matmul,
    power_matrix,
    vandermonde_det_skip_penultimate,
    vandermonde_det_skip_two,
)
from .codes import (
    Classification,
    NON_GRS,
    classify,
    grs_code,
    schur_square,
)
from .construction import (
    PARITY_FAULTS,
    EvalConfig,
    family_code,
    family_generators,
    family_parity_checks,
    lagrange_weights,
    non_grs_certificate,
    parity_faults,
    weighted_power_sum,
)
from .search import SearchJob, _blocks, check_stack, point_sets
# the benchmark's tracer (bench/tracing.py) wraps these names in this module and
# clears the classified cache below; both leave with the library's telemetry
from .construction import (  # noqa: F401
    amds_criterion,
    dual_amds_criterion,
    mds_criterion,
    nmds_criterion,
)

DEFAULT_FIELD_ORDERS = (4, 5, 7, 8, 9)
QUICK_FIELD_ORDERS = (4, 5, 7)
DEFAULT_MAX_N = 7
QUICK_MAX_N = 5
MAX_SWEEP_K = 5
DET_FIELD_ORDERS = (5, 7, 8, 9)
DET_CAP = 1 << 21     # point permutations: ~15 s at ~150 000 a second (size 5)
POWERSUM_CAP = 1 << 20    # checks: ~15-25 s at 45 000-75 000 a second
SWEEP_CAP = 1 << 15   # configs: ~2-6 s at 5500-18 000 a second; the default is 14 925

SUITE_NAMES = ("powersum", "det", "parity", "extend",
               "mds", "amds", "dual-amds", "nmds", "schur")
CRITERION_SUITES = ("mds", "amds", "dual-amds", "nmds")
SWEEP_SUITES = ("parity", "extend") + CRITERION_SUITES


@dataclass
class SuiteResult:
    suite: str
    passed: bool
    checked: int
    counterexample: dict | None = None
    detail: str = ""

    def to_json(self) -> dict:
        return {"suite": self.suite, "passed": self.passed,
                "checked": self.checked, "counterexample": self.counterexample,
                "detail": self.detail}


def sweep_jobs(fields: Sequence[Field], max_n: int) -> list[SearchJob]:
    """The all-ones sweep as search jobs: every node set of size
    3 <= n <= max_n, 3 <= k <= min(n, 5), every delta."""
    return [SearchJob(f, n, tuple(range(3, min(n, MAX_SWEEP_K) + 1)))
            for f in fields for n in range(3, min(f.q, max_n) + 1)]


@lru_cache(maxsize=2048)
def classified(cfg: EvalConfig) -> Classification:
    """Oracle classification of one config, cached.  The sweep reads its
    block's stacks instead; the cache stays for the benchmark, which clears
    it by name before each timed call."""
    return classify(family_code(cfg))


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def check_powersum(fields: Sequence[Field], max_n: int) -> SuiteResult:
    checked = 0
    for job in sweep_jobs(fields, max_n):
        f = job.field
        for pts in point_sets(job):
            u = lagrange_weights(f, pts)
            for ell in range(len(pts) + 2):
                direct = 0
                for ui, a in zip(u, pts):
                    direct = f.add(direct, f.mul(ui, f.pow(a, ell)))
                closed = weighted_power_sum(f, pts, ell)
                checked += 1
                if direct != closed:
                    return SuiteResult("powersum", False, checked, {
                        "field": f.spec_string(), "A": list(pts), "ell": ell,
                        "direct": direct, "closed_form": closed})
    return SuiteResult("powersum", True, checked)


def check_det(fields: Sequence[Field] | None = None,
              sizes: Sequence[int] = (3, 4, 5)) -> SuiteResult:
    """Both Vandermonde-variant closed forms against det, in blocks of 2^16."""
    if fields is None:
        fields = tuple(Field.from_order(q) for q in DET_FIELD_ORDERS)
    checked = 0
    for f in fields:
        for size in sizes:
            table = power_matrix(f, range(f.q), range(size + 2)).a
            perms = itertools.permutations(range(f.q), size)
            while block := list(itertools.islice(perms, 1 << 16)):
                pts = np.array(block)
                powers = table[:, pts].swapaxes(0, 1)  # (perm, exponent, point)
                bad = ((det(f, powers[:, [*range(size - 1), size]])
                        != vandermonde_det_skip_penultimate(f, pts))
                       | (det(f, powers[:, [*range(size - 1), size + 1]])
                          != vandermonde_det_skip_two(f, pts)))
                first = int(bad.argmax())
                if bad[first]:
                    return SuiteResult("det", False, checked + first + 1, {
                        "field": f.spec_string(), "points": pts[first].tolist()})
                checked += len(pts)
    return SuiteResult("det", True, checked)


def _unextended(field: Field, G: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(B,) where extending the one-tail code by w does not give G's code; a
    stack of the wrong shape fails whole.  G's first N-1 columns are the
    one-tail code, of rank k, as gapped_grs_one_column_code is built from
    family_generators' first N-1 columns, so it does iff w != 0, as
    extend_code requires, and G's last column is their product with w."""
    B, _, N = G.shape
    if w.shape != (B, N - 1):
        return np.ones(B, dtype=bool)
    column = matmul(field, G[..., :-1], w[..., None])[..., 0]
    return ~w.any(axis=1) | (column != G[..., -1]).any(axis=1)


def _first_faults(job: SearchJob, block: tuple[tuple[int, ...], ...],
                  live: set[str]) -> dict[str, tuple[int, dict]]:
    """(position in visit order, counterexample) of the first config of the
    block that breaks each live suite it breaks.  Each k is one stack of
    generators, every node set times every delta, that every suite reads;
    the criterion suites read check_stack's verdicts on it."""
    f, deltas, N, S = job.field, job.delta_list(), job.n + 2, len(block)
    shape = (S, len(job.k_values), len(deltas))
    flags = np.zeros((len(SWEEP_SUITES),) + shape, dtype=np.intp)  # SWEEP_SUITES order
    checked = {}            # k -> check_stack's d, d-dual and Criteria
    for ki, k in enumerate(job.k_values):
        G = family_generators(f, block, k, deltas)
        if live & {"parity", "extend"}:
            H = family_parity_checks(f, block, k, deltas)
        if "parity" in live:
            flags[0, :, ki] = parity_faults(f, G, H).reshape(S, -1)
        if "extend" in live:        # H's last row is (w, -1)
            flags[1, :, ki] = _unextended(f, G, H[:, -1, :-1]).reshape(S, -1)
        if live.intersection(CRITERION_SUITES):
            *checked[k], broken = check_stack(job, block, k, G)
            flags[2:, :, ki] = broken.reshape(len(CRITERION_SUITES), S, -1)
    faults = {}
    for suite, flag in zip(SWEEP_SUITES, flags):
        first = int(flag.argmax())
        if suite in live and flag.flat[first]:
            s, ki, i = np.unravel_index(first, shape)
            cfg = EvalConfig.ones(f, block[s], job.k_values[ki], deltas[i])
            found = {"config": cfg.to_json()}
            if suite == "parity":
                found["reason"] = PARITY_FAULTS[flag.flat[first]]
            elif suite in CRITERION_SUITES:
                d, dual_d, crit = (x[s * len(deltas) + i] for x in checked[cfg.k])
                cls = Classification.of_distances(N, cfg.k, d, dual_d)
                found.update({
                    "criterion_holds": crit.report(suite.replace("-", "_")).holds,
                    "class": cls.kind, "singleton_defect": cls.singleton_defect,
                    "dual_defect": cls.dual_defect})
            faults[suite] = first, found
    return faults


def sweep(fields: Sequence[Field], max_n: int,
          suites: Sequence[str]) -> dict[str, SuiteResult]:
    """One walk over search's blocks checking the per-config suites named,
    keyed by suite name.  A suite counts each config up to and including
    its own first counterexample; the walk ends when no suite is live."""
    live = set(suites)
    results = {}
    checked = 0             # configs before the block
    blocks = ((job, block) for job in sweep_jobs(fields, max_n)
              for block in _blocks(job))
    for job, block in blocks:
        if not live:
            break
        for suite, (position, found) in _first_faults(job, block, live).items():
            results[suite] = SuiteResult(suite, False, checked + position + 1, found)
            live.remove(suite)
        checked += len(block) * len(job.k_values) * len(job.delta_list())
    for suite in live:
        results[suite] = SuiteResult(suite, True, checked)
    return results


def check_parity(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("parity",))["parity"]


def check_extend(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("extend",))["extend"]


def check_mds(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("mds",))["mds"]


def check_amds(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("amds",))["amds"]


def check_dual_amds(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("dual-amds",))["dual-amds"]


def check_nmds(fields: Sequence[Field], max_n: int) -> SuiteResult:
    return sweep(fields, max_n, ("nmds",))["nmds"]


def check_schur(quick: bool = False) -> SuiteResult:
    """GRS square laws on controls, non-GRS certificates on the family."""
    checked = 0
    rng = random.Random(9)
    lengths = (8,) if quick else (8, 9, 10)
    for q in (11, 13):
        f = Field.from_order(q)
        for N in lengths:
            sets = [tuple(range(N)), tuple(sorted(rng.sample(range(q), N)))]
            for pts in sets:
                vees = [(1,) * N, tuple(rng.randrange(1, q) for _ in range(N))]
                for v in vees:
                    for k in range(3, N // 2 + 1):
                        sq = schur_square(grs_code(f, pts, v, k))
                        checked += 1
                        if sq.dimension != 2 * k - 1:
                            return SuiteResult("schur", False, checked, {
                                "field": f.spec_string(), "A": list(pts),
                                "v": list(v), "k": k,
                                "square_dimension": sq.dimension})
                        if sq.min_distance < 2:
                            return SuiteResult("schur", False, checked, {
                                "field": f.spec_string(), "A": list(pts),
                                "v": list(v), "k": k,
                                "square_distance": sq.min_distance})
    # (q, nodes, k, certificate): low rates by the square's dimension 2k,
    # high rates by the dual square's distance; --quick keeps one of each
    certified = [(11, tuple(range(7)), 3, ("SquareDimension", 6)),
                 (8, (0, 1, 2, 3, 4, 5), 3, ("SquareDimension", 6)),
                 (9, (0, 1, 2, 3, 4, 5), 5, ("DualSquareDistance", 1)),
                 (8, (0, 1, 2, 3, 4, 5), 5, ("DualSquareDistance", 1))]
    for q, pts, k, (method, evidence) in certified[::2] if quick else certified:
        cfg = EvalConfig.ones(Field.from_order(q), pts, k, 1)
        rep = non_grs_certificate(cfg)
        checked += 1
        if (rep.verdict, rep.method, rep.evidence) != (NON_GRS, method, evidence):
            return SuiteResult("schur", False, checked,
                               {"config": cfg.to_json(), "report": rep.to_json()})
    return SuiteResult("schur", True, checked)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _refuse_past_cap(scope: str, count: int, unit: str, cap: int) -> None:
    if count > cap:
        raise ValueError(f"the {scope} scope has {count} {unit}, "
                         f"more than the cap of {cap}")


def run_suites(names: Sequence[str], fields: Sequence[Field] | None = None,
               max_n: int | None = None, quick: bool = False) -> list[SuiteResult]:
    """Results of the named suites, in the order named; the per-config suites
    among them share one sweep.  A det, powersum or sweep scope past its cap
    is refused before any suite runs."""
    unknown = [name for name in names if name not in SUITE_NAMES]
    if unknown:
        raise ValueError(f"unknown suite {unknown[0]!r}")
    orders = QUICK_FIELD_ORDERS if quick else DEFAULT_FIELD_ORDERS
    sweep_fields = (tuple(fields) if fields
                    else tuple(Field.from_order(q) for q in orders))
    if max_n is None:
        max_n = QUICK_MAX_N if quick else DEFAULT_MAX_N
    det_sizes = (3, 4) if quick else (3, 4, 5)
    det_orders = DET_FIELD_ORDERS if fields is None else [f.q for f in fields]
    jobs = sweep_jobs(sweep_fields, max_n)
    swept_names = [name for name in names if name in SWEEP_SUITES]
    if "det" in names:
        _refuse_past_cap("det", sum(math.perm(q, size) for q in det_orders
                                    for size in det_sizes),
                         "point permutations", DET_CAP)
    if "powersum" in names:
        _refuse_past_cap("powersum", sum(job.point_set_count() * (job.n + 2)
                                         for job in jobs), "checks", POWERSUM_CAP)
    if swept_names:
        _refuse_past_cap("sweep", sum(job.planned_count() for job in jobs),
                         "configs", SWEEP_CAP)
    suites = {
        "powersum": lambda: check_powersum(sweep_fields, max_n),
        "det": lambda: check_det(fields=fields, sizes=det_sizes),
        "schur": lambda: check_schur(quick=quick),
    }
    swept = sweep(sweep_fields, max_n, swept_names)
    return [swept[name] if name in swept else suites[name]() for name in names]
