"""The vectorized subset-sum criteria against a loop-based reference.

The reference below is the straightforward form of the four criteria: every
clause rescans its subsets with itertools.combinations and scalar field
arithmetic.  The library computes the same reports from one vectorized scan
over cached subset tables; these tests require identical JSON reports,
witnesses included, and check the criteria against the distance oracle on
configs beyond the fixed sweeps.  A second reference, the vectorized scan of
one config at a time the library ran before its scan took a vector of
deltas, pins that scan's records for a scalar delta and inside a vector.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from mdslab import construction

from mdslab.codes import AMDS_ONLY_DUAL, AMDS_ONLY_PRIMAL, MDS, NMDS, OTHER, classify
from mdslab.construction import (
    Criteria,
    CriterionReport,
    EvalConfig,
    amds_criterion,
    criteria,
    criteria_class,
    dual_amds_criterion,
    family_code,
    mds_criterion,
    nmds_criterion,
    subset_scan,
)
from mdslab.gf import Field
from mdslab.search import iter_configs
from mdslab.verify import QUICK_FIELD_ORDERS, QUICK_MAX_N, sweep_jobs

QUICK_SWEEP_CONFIG_COUNT = 1315
LARGE_ORDERS = (64, 256, 1024)
SMALL_ORDERS = (4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
                37, 41, 43, 47, 49, 53, 59, 61, 64)


# ---------------------------------------------------------------------------
# reference: one loop per clause, scalar arithmetic
# ---------------------------------------------------------------------------

def ref_subset_sums(field, alphas, t):
    out = []
    for idxs in itertools.combinations(range(len(alphas)), t):
        s = 0
        for i in idxs:
            s = field.add(s, alphas[i])
        out.append((idxs, s))
    return out


def ref_delta_value(field, alphas, idxs):
    s = e2 = 0
    for i in idxs:
        s = field.add(s, alphas[i])
    for i, j in itertools.combinations(idxs, 2):
        e2 = field.add(e2, field.mul(alphas[i], alphas[j]))
    return field.sub(field.mul(s, s), e2)


def ref_subset_delta_values(field, alphas, t):
    return [(idxs, ref_delta_value(field, alphas, idxs))
            for idxs in itertools.combinations(range(len(alphas)), t)]


def ref_dual_amds(cfg):
    f, pts, k = cfg.field, cfg.alphas, cfg.k
    for idxs, s in ref_subset_sums(f, pts, k):
        if s == 0:
            return CriterionReport("dual_amds", True, idxs, "zero_sum_k")
    for idxs, qv in ref_subset_delta_values(f, pts, k - 1):
        if qv == cfg.delta:
            return CriterionReport("dual_amds", True, idxs, "delta_match_k_minus_1")
    return CriterionReport("dual_amds", False)


def ref_mds(cfg):
    rep = ref_dual_amds(cfg)
    return CriterionReport("mds", not rep.holds, rep.witness, rep.clause)


def ref_amds_nmds_shared(cfg, name):
    f, pts, k = cfg.field, cfg.alphas, cfg.k
    n = len(pts)
    sums_k = dict(ref_subset_sums(f, pts, k))
    if k + 1 <= n:
        for big in itertools.combinations(range(n), k + 1):
            if all(sums_k[j] == 0 for j in itertools.combinations(big, k)):
                return CriterionReport(name, False, big, "all_k_subsets_sum_zero")
    qvals = dict(ref_subset_delta_values(f, pts, k - 1))
    for big in itertools.combinations(range(n), k):
        if all(qvals[j] == cfg.delta for j in itertools.combinations(big, k - 1)):
            return CriterionReport(name, False, big,
                                   "all_k_minus_1_subsets_match_delta")
    rep = ref_dual_amds(cfg)
    return CriterionReport(name, rep.holds, rep.witness, rep.clause)


def ref_reports(cfg):
    return (ref_mds(cfg), ref_amds_nmds_shared(cfg, "amds"), ref_dual_amds(cfg),
            ref_amds_nmds_shared(cfg, "nmds"))


def ref_class(reports):
    m, a, da, _ = reports
    if m.holds:
        return MDS
    if a.holds:
        return NMDS if da.holds else AMDS_ONLY_PRIMAL
    return AMDS_ONLY_DUAL if da.holds else OTHER


def assert_matches_reference(cfg):
    got = (mds_criterion(cfg), amds_criterion(cfg), dual_amds_criterion(cfg),
           nmds_criterion(cfg))
    want = ref_reports(cfg)
    assert [r.to_json() for r in got] == [r.to_json() for r in want], cfg.to_json()
    assert got == want, cfg.to_json()
    assert criteria_class(cfg) == ref_class(want), cfg.to_json()
    record = criteria(cfg)
    assert (record.mds, record.amds, record.dual_amds, record.nmds) == want, \
        cfg.to_json()
    assert record.kind == ref_class(want), cfg.to_json()
    return want


# ---------------------------------------------------------------------------
# the fixed sweep
# ---------------------------------------------------------------------------

def test_criteria_match_reference_on_quick_sweep():
    fields = tuple(Field.from_order(q) for q in QUICK_FIELD_ORDERS)
    clauses = set()
    checked = 0
    configs = itertools.chain.from_iterable(
        map(iter_configs, sweep_jobs(fields, QUICK_MAX_N)))
    for cfg in configs:
        for rep in assert_matches_reference(cfg):
            clauses.add(rep.clause)
        checked += 1
    assert checked == QUICK_SWEEP_CONFIG_COUNT
    # every clause that can fail is exercised.  "all_k_subsets_sum_zero"
    # cannot: if every k-subset of a (k+1)-set with sum S sums to 0, then
    # S - a_i = 0 for each i, and the nodes would all equal S
    assert clauses == {None, "zero_sum_k", "delta_match_k_minus_1",
                       "all_k_minus_1_subsets_match_delta"}


# ---------------------------------------------------------------------------
# drawn configs
# ---------------------------------------------------------------------------

@st.composite
def configs(draw, orders, max_n):
    f = Field.from_order(draw(st.sampled_from(orders)))
    n = draw(st.integers(3, min(max_n, f.q)))
    pts = draw(st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n,
                        unique=True))
    k = draw(st.integers(3, n))
    # half the draws take delta from a (k-1)-subset, so the delta clauses
    # fire far more often than a uniform delta in a large field would
    if draw(st.booleans()):
        idxs = draw(st.lists(st.integers(0, n - 1), min_size=k - 1,
                             max_size=k - 1, unique=True))
        delta = ref_delta_value(f, pts, idxs)
    else:
        delta = draw(st.integers(0, f.q - 1))
    return EvalConfig.ones(f, pts, k, delta)


@settings(max_examples=200)
@given(configs(LARGE_ORDERS, 12))
def test_criteria_match_reference_in_large_fields(cfg):
    assert_matches_reference(cfg)


@settings(max_examples=100)
@given(configs(SMALL_ORDERS, 10))
def test_criteria_class_matches_distance_oracle(cfg):
    assert criteria_class(cfg) == classify(family_code(cfg)).kind


# ---------------------------------------------------------------------------
# the per-config scan: one config's subset tables, one scalar delta
# ---------------------------------------------------------------------------

def first_row(mask, rows):
    """The first row of rows where the 1-D mask is set, as a tuple; None if
    none is."""
    i = int(mask.argmax())
    return tuple(rows[i].tolist()) if mask[i] else None


def reference_scan(cfg):
    """cfg's Criteria from one vectorized pass over the subset tables of its
    node set at its one delta.  U2 fails on a row of the faces table whose
    entries all index delta matches; it cannot fail without a single match."""
    f, pts, k, n = cfg.field, cfg.alphas, cfg.k, cfg.n
    match = construction._subset_delta_values(f, pts, k - 1) == cfg.delta
    zero_sum = first_row(construction._subset_sums(f, pts, k) == 0,
                         construction._combinations(n, k))
    delta_match = first_row(match, construction._combinations(n, k - 1))
    u2 = None
    if delta_match is not None:
        u2 = first_row(match[construction._faces(n, k)].all(axis=1),
                       construction._combinations(n, k))
    return Criteria(zero_sum, delta_match, u2)


@st.composite
def blocks(draw):
    """(field, one to three node sets of one size, a vector of distinct
    deltas in drawn order)."""
    f = Field.from_order(draw(st.sampled_from((4, 5, 7, 8, 9, 11, 13))))
    n = draw(st.integers(3, min(8, f.q)))
    nodes = st.lists(st.integers(0, f.q - 1), min_size=n, max_size=n, unique=True)
    block = draw(st.lists(nodes, min_size=1, max_size=3))
    deltas = draw(st.lists(st.integers(0, f.q - 1), min_size=1, unique=True))
    return f, [tuple(pts) for pts in block], deltas


@settings(max_examples=60)
@given(blocks())
def test_block_scan_equals_per_config_reference(drawn):
    """At every k of each node set, subset_scan gives the reference record
    at a scalar delta, and each delta's inside a vector of one, of all the
    field's deltas, and of drawn deltas; so does criteria(cfg)."""
    f, block, deltas = drawn
    every = tuple(f.elements())
    for pts in block:
        for k in range(3, len(pts) + 1):
            want = {d: reference_scan(EvalConfig.ones(f, pts, k, d)) for d in every}
            d = deltas[0]
            scalar = subset_scan(f, pts, k, d)
            assert isinstance(scalar, Criteria) and scalar == want[d]
            assert criteria(EvalConfig.ones(f, pts, k, d)) == want[d]
            assert subset_scan(f, pts, k, (d,)) == [want[d]]
            assert subset_scan(f, pts, k, np.array(every)) == [want[d] for d in every]
            assert subset_scan(f, pts, k, deltas) == [want[d] for d in deltas]
