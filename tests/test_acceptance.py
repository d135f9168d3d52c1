"""Acceptance gate: one test per shipped guarantee, at full stated scope.

Each test pins the scope it covers (field orders, lengths, dimension range)
and the expected number of checks, so a silently narrowed sweep fails the
count assertion even if every remaining check passes.  Wall-clock budgets
are asserted where the guarantee includes one.
"""

from __future__ import annotations

import time

import numpy as np

from mdslab.cli import main
from mdslab.codes import (
    MDS,
    NON_GRS,
    _min_weight,
    _projective_min_weight,
    _rank_scan,
    classify,
    grs_code,
    schur_square,
)
from mdslab.construction import (
    EvalConfig,
    family_code,
    family_generators,
    non_grs_certificate,
)
from mdslab.gf import Field
from mdslab.search import iter_configs, point_sets
from mdslab.verify import (
    QUICK_FIELD_ORDERS,
    QUICK_MAX_N,
    check_amds,
    check_det,
    check_dual_amds,
    check_extend,
    check_mds,
    check_nmds,
    check_parity,
    check_powersum,
    check_schur,
    sweep_jobs,
)

GF4 = Field.from_order(4)
GF5 = Field.from_order(5)
GF7 = Field.from_order(7)
GF9 = Field.from_order(9)
GF11 = Field.from_order(11)

SWEEP_FIELDS = (GF4, GF5, GF7)
SWEEP_MAX_N = 6
# sum over q in {4,5,7}, n in 3..6, k in 3..min(n,5) of C(q,n)*q:
# 24 + 115 + 1323
SWEEP_CONFIG_COUNT = 1462
# the verify --quick sweep: q in {4,5,7}, n in 3..5
QUICK_SWEEP_CONFIG_COUNT = 1315


def elapsed_under(t0: float, budget: float) -> bool:
    return time.monotonic() - t0 < budget


# ---------------------------------------------------------------------------
# worked examples
# ---------------------------------------------------------------------------

def test_criterion_01_quaternary_example():
    """GF(4), A = {0, 1, g}, k = 3, delta = g: a [5, 3] MDS code."""
    t0 = time.monotonic()
    cfg = EvalConfig.ones(GF4, (0, 1, 2), 3, 2)
    code = family_code(cfg)
    assert (code.length, code.dimension) == (5, 3)
    assert code.generator.a.tolist() == [
        [1, 1, 1, 0, 0],
        [0, 1, 2, 0, 1],
        [0, 1, 1, 1, 2],
    ]
    cls = classify(code)
    assert cls.min_distance == 3
    assert cls.kind == MDS
    assert elapsed_under(t0, 1.0)


def test_criterion_02_octal_example():
    """GF(8), A = {1, g, g^2, g^5}, k = 3, delta = g^4: a [6, 3] MDS code."""
    t0 = time.monotonic()
    cfg = EvalConfig.ones(Field.from_order(8), (1, 2, 4, 7), 3, 6)
    code = family_code(cfg)
    assert (code.length, code.dimension) == (6, 3)
    # every entry recomputed from the defining powers; in particular the
    # degree-3 row reads (1, g^3, g^6, g, 1, g^4)
    assert code.generator.a.tolist() == [
        [1, 1, 1, 1, 0, 0],
        [1, 2, 4, 7, 0, 1],
        [1, 3, 5, 2, 1, 6],
    ]
    cls = classify(code)
    assert cls.min_distance == 4
    assert cls.kind == MDS
    assert elapsed_under(t0, 1.0)


# ---------------------------------------------------------------------------
# criteria vs brute force over the full small-field sweep
# ---------------------------------------------------------------------------

def test_criterion_03_mds_criterion_matches_brute_force():
    """Subset-sum MDS test agrees with enumerated distance on every config."""
    t0 = time.monotonic()
    assert sum(j.planned_count() for j in sweep_jobs(SWEEP_FIELDS, SWEEP_MAX_N)) \
        == SWEEP_CONFIG_COUNT
    result = check_mds(SWEEP_FIELDS, SWEEP_MAX_N)
    assert result.passed, result.counterexample
    assert result.checked == SWEEP_CONFIG_COUNT
    assert elapsed_under(t0, 300.0)


def test_criterion_04_amds_criteria_match_brute_force():
    """Defect-one tests (primal, dual, both) agree with enumeration."""
    t0 = time.monotonic()
    for check in (check_dual_amds, check_amds, check_nmds):
        result = check(SWEEP_FIELDS, SWEEP_MAX_N)
        assert result.passed, (result.suite, result.counterexample)
        assert result.checked == SWEEP_CONFIG_COUNT
    assert elapsed_under(t0, 600.0)


# ---------------------------------------------------------------------------
# structural identities over the same sweep
# ---------------------------------------------------------------------------

def test_criterion_05_extension_reproduces_family():
    result = check_extend(SWEEP_FIELDS, SWEEP_MAX_N)
    assert result.passed, result.counterexample
    assert result.checked == SWEEP_CONFIG_COUNT


def test_criterion_06_parity_check_spans_dual():
    result = check_parity(SWEEP_FIELDS, SWEEP_MAX_N)
    assert result.passed, result.counterexample
    assert result.checked == SWEEP_CONFIG_COUNT


def test_criterion_07_power_sum_closed_form():
    result = check_powersum(SWEEP_FIELDS, SWEEP_MAX_N)
    assert result.passed, result.counterexample
    # point sets of each size times the n + 2 admissible exponents:
    # 26 (q=4) + 87 (q=5) + 588 (q=7)
    assert result.checked == 701


def test_criterion_08_determinant_identities():
    """Closed-form dets match generic cofactor expansion, sizes 3 to 5."""
    result = check_det()
    assert result.passed, result.counterexample
    # distinct ordered tuples over GF(5), GF(7), GF(8), GF(9)
    assert result.checked == 31254


# ---------------------------------------------------------------------------
# Schur-square invariants
# ---------------------------------------------------------------------------

def test_criterion_09_schur_square_invariants():
    t0 = time.monotonic()
    # control: a genuine GRS square has dimension exactly 2k - 1
    sq = schur_square(grs_code(GF11, tuple(range(8)), (1,) * 8, 3))
    assert sq.dimension == 5
    assert sq.min_distance >= 2

    low = non_grs_certificate(EvalConfig.ones(GF11, tuple(range(7)), 3, 1))
    assert (low.verdict, low.method, low.evidence) == (
        NON_GRS, "SquareDimension", 6)

    high = non_grs_certificate(EvalConfig.ones(GF9, tuple(range(6)), 5, 1))
    assert (high.verdict, high.method, high.evidence) == (
        NON_GRS, "DualSquareDistance", 1)

    result = check_schur()
    assert result.passed, result.counterexample
    assert result.checked == 60
    assert elapsed_under(t0, 60.0)


# ---------------------------------------------------------------------------
# the distance oracle against plain enumeration
# ---------------------------------------------------------------------------

def plain_min_weight(field: Field, G: np.ndarray) -> int:
    """Third oracle: chunked enumeration of all q^k messages."""
    k, N = G.shape
    q = field.q
    add, mul = field.add_table, field.mul_table
    best = N
    chunk = 1 << 16
    for lo in range(1, q**k, chunk):
        idx = np.arange(lo, min(lo + chunk, q**k), dtype=np.int64)
        words = np.zeros((idx.size, N), dtype=np.int16)
        for r in range(k):
            digit = (idx // q**r) % q
            words = add[words, mul[digit[:, None], G[r][None, :]]]
        best = min(best, int(np.count_nonzero(words, axis=1).min()))
    return best


def test_criterion_11_distance_oracles_agree():
    """Rank scan, projective and plain enumeration agree on d and d-dual, and
    so does the column-rank profile of each (field, n, k) stack of the sweep."""
    fields = tuple(Field.from_order(q) for q in QUICK_FIELD_ORDERS)
    checked = 0
    for job in sweep_jobs(fields, QUICK_MAX_N):
        f, sets = job.field, list(point_sets(job))
        stacks = {k: family_generators(f, sets, k, job.delta_list())
                  for k in job.k_values}
        profiles = {k: zip(G, *_min_weight(f, G)) for k, G in stacks.items()}
        for cfg in iter_configs(job):
            G, stacked_d, stacked_dual_d = next(profiles[cfg.k])
            code = family_code(cfg)
            assert (G == code.generator.a).all(), cfg.to_json()
            for H, stacked in ((code.generator.a, stacked_d),
                               (code.dual.generator.a, stacked_dual_d)):
                d = plain_min_weight(cfg.field, H)
                scan = _rank_scan(cfg.field, H.T[None], len(H), len(H))
                assert scan.tolist() == [d], cfg.to_json()
                assert _projective_min_weight(cfg.field, H) == d, cfg.to_json()
                assert stacked == d, cfg.to_json()
            checked += 1
    assert checked == QUICK_SWEEP_CONFIG_COUNT


# ---------------------------------------------------------------------------
# reproducible search output
# ---------------------------------------------------------------------------

def test_criterion_10_search_determinism(tmp_path):
    """Two runs with the same seed write byte-identical result files."""
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = main([
            "search", "--field", "gf(7)", "--n", "4", "--k", "all",
            "--sample", "12", "--seed", "5", "--format", "csv",
            "--out", str(path),
        ])
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    assert first.startswith(b"q,n,k,delta,A,class,d,d_dual,grs_verdict,witness")
