"""The vectorized subset-sum criteria against a loop-based reference.

The reference below is the straightforward form of the four criteria: every
clause rescans its subsets with itertools.combinations and scalar field
arithmetic.  The library computes the same reports from one vectorized scan
over cached subset tables; these tests require identical JSON reports,
witnesses included, and check the criteria against the distance oracle on
configs beyond the fixed sweeps.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings, strategies as st

from mdslab.codes import AMDS_ONLY_DUAL, AMDS_ONLY_PRIMAL, MDS, NMDS, OTHER, classify
from mdslab.construction import (
    CriterionReport,
    EvalConfig,
    amds_criterion,
    criteria,
    criteria_class,
    dual_amds_criterion,
    family_code,
    mds_criterion,
    nmds_criterion,
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
    assert tuple(record) == want, cfg.to_json()
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
