"""Code-layer tests: distances against a naive oracle, GRS laws, Schur screens."""

from __future__ import annotations

import functools
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdslab import linalg, search
from mdslab.gf import Field
from mdslab.linalg import Matrix, power_matrix, rref
from mdslab.codes import (
    AMDS_ONLY_DUAL,
    ENUMERATION_CAP,
    PROJECTIVE_ENUMERATION,
    RANK_SCAN,
    BadDimensionError,
    Classification,
    CONSISTENT_WITH_GRS,
    DUAL_SQUARE_DISTANCE,
    GrsReport,
    INCONCLUSIVE,
    LengthMismatchError,
    LinearCode,
    MDS,
    NMDS,
    NON_GRS,
    NOT_APPLICABLE,
    RankDeficientError,
    SQUARE_DIMENSION,
    TooLargeToEnumerateError,
    ZeroExtensionVectorError,
    ZeroScaleError,
    _min_weight,
    _oracle_plan,
    _projective_min_weight,
    _rank_scan,
    classify,
    codes_equal,
    extend_code,
    grs_code,
    grs_consistency_reports,
    grs_consistency_test,
    schur_method,
    schur_product,
    schur_square,
)
from mdslab.construction import (
    EvalConfig,
    family_code,
    family_generators,
    family_parity_checks,
)
from mdslab.search import SearchJob
from test_cli import search_jobs

GF4 = Field.from_order(4)
GF7 = Field.from_order(7)
GF8 = Field.from_order(8)

# the two worked example codes, entries written out from the defining rows
# (powers 0, 1, 3 of the nodes, then the two tail columns)
EXAMPLE1 = LinearCode(Matrix(GF4, [
    [1, 1, 1, 0, 0],
    [0, 1, 2, 0, 1],
    [0, 1, 1, 1, 2],
]))
EXAMPLE2 = LinearCode(Matrix(GF8, [
    [1, 1, 1, 1, 0, 0],
    [1, 2, 4, 7, 0, 1],
    [1, 3, 5, 2, 1, 6],
]))


def naive_min_distance(code: LinearCode) -> int:
    """Independent oracle: pure-python message enumeration."""
    f, G = code.field, code.generator.a.tolist()
    best = code.length
    for msg in itertools.product(range(f.q), repeat=code.dimension):
        if not any(msg):
            continue
        w = 0
        for j in range(code.length):
            s = 0
            for r in range(code.dimension):
                s = f.add(s, f.mul(msg[r], G[r][j]))
            if s:
                w += 1
        best = min(best, w)
    return best


def column_rank_kind(code: LinearCode) -> str | None:
    """Independent oracle for MDS/NMDS via column-subset ranks of G."""
    G = code.generator
    k, N = code.dimension, code.length
    cols = list(range(N))

    def sub_rank(sel: tuple[int, ...]) -> int:
        return rref(Matrix(code.field, G.a[:, list(sel)]))[1]

    every_k_full = all(sub_rank(s) == k for s in itertools.combinations(cols, k))
    if every_k_full:
        return MDS
    every_km1_full = all(sub_rank(s) == k - 1 for s in itertools.combinations(cols, k - 1))
    every_kp1_full = all(sub_rank(s) == k for s in itertools.combinations(cols, k + 1))
    if every_km1_full and every_kp1_full:
        return NMDS
    return None


# ---------------------------------------------------------------------------
# construction and basics
# ---------------------------------------------------------------------------

def test_code_construction_and_rank_validation():
    assert (EXAMPLE1.length, EXAMPLE1.dimension) == (5, 3)
    with pytest.raises(RankDeficientError):
        LinearCode(Matrix(GF7, [[1, 2, 3], [2, 4, 6]]))
    full = LinearCode(Matrix(GF7, np.eye(3, dtype=int)))
    assert (full.length, full.dimension) == (3, 3)


def test_min_distance_examples():
    assert EXAMPLE1.min_distance == 3
    assert EXAMPLE2.min_distance == 4
    rep = LinearCode(Matrix(GF7, [[1] * 6]))
    assert rep.min_distance == 6


def test_min_distance_matches_naive_oracle():
    rng = np.random.default_rng(31)
    for q in (2, 3, 4, 5):
        f = Field.from_order(q)
        for _ in range(6):
            k = int(rng.integers(1, 4))
            N = int(rng.integers(k + 1, k + 5))
            a = rng.integers(0, q, size=(k, N))
            try:
                code = LinearCode(Matrix(f, a))
            except RankDeficientError:
                continue
            assert code.min_distance == naive_min_distance(code)


def test_both_distance_methods_match_naive_oracle():
    rng = np.random.default_rng(43)
    for q in (2, 3, 4, 7, 8):
        f = Field.from_order(q)
        for _ in range(8):
            k = int(rng.integers(1, 4))
            N = int(rng.integers(k, k + 5))
            a = rng.integers(0, q, size=(k, N))
            a[:, int(rng.integers(0, N))] *= int(rng.integers(0, 2))
            try:
                code = LinearCode(Matrix(f, a))
            except RankDeficientError:
                continue
            d = naive_min_distance(code)
            assert _rank_scan(f, code.generator.a.T[None], k, k).tolist() == [d]
            assert _projective_min_weight(f, code.generator.a) == d


@given(q=st.sampled_from((2, 3, 4, 5, 7, 8, 9)), k=st.integers(1, 3),
       redundancy=st.integers(1, 3), entries=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_min_weight_matches_naive_oracle(q, k, redundancy, entries, seed):
    """_min_weight of a (B, k, N) stack of full-rank generators gives each
    code's distance and its dual's; a zeroed or repeated column, drawn half
    the time, puts a short dependency among the columns."""
    f = Field.from_order(q)
    rng = np.random.default_rng(seed)
    N = k + redundancy
    stack, codes = [], []
    while len(stack) < entries:
        a = rng.integers(0, q, size=(k, N))
        if rng.integers(2):
            i, j = rng.choice(N, size=2, replace=False)
            a[:, i] = f.mul_table[a[:, j], rng.integers(0, q)]
        try:
            codes.append(LinearCode(Matrix(f, a)))
        except RankDeficientError:
            continue
        stack.append(a)
    d, dual_d = _min_weight(f, np.array(stack, dtype=np.int16))
    assert d.tolist() == [naive_min_distance(c) for c in codes]
    assert dual_d.tolist() == [naive_min_distance(c.dual) for c in codes]


def spanning_set(basis: list[list[int]], size: int = 7) -> np.ndarray:
    """GF(7) rows spanning the row space of basis: its rows, their sum, then
    zero rows up to size."""
    rows = np.array(basis, dtype=np.int16)
    total = functools.reduce(lambda a, b: GF7.add_table[a, b], rows)
    pad = np.zeros((size - len(rows) - 1, rows.shape[1]), dtype=np.int16)
    return np.vstack([rows, total, pad])


def test_rank_scan_of_a_mixed_stack():
    """One _rank_scan call, over spanning sets of codes of different
    dimensions, gives each code's distance, as projective enumeration of a
    basis does: an MDS [5, 3] code, a [5, 3] code with a weight-1 word, and
    the whole space GF(7)^5, of rank N."""
    bases = [grs_code(GF7, range(5), [1] * 5, 3).generator.a.tolist(),
             [[1, 0, 0, 0, 0], [0, 1, 1, 1, 1], [0, 1, 2, 3, 4]],
             np.eye(5, dtype=int).tolist()]
    stack = np.stack([spanning_set(basis) for basis in bases])
    d = _rank_scan(GF7, stack.transpose(0, 2, 1), np.array([3, 3, 5]), 3)
    assert d.tolist() == [3, 1, 1]
    assert d.tolist() == [_projective_min_weight(GF7, np.array(basis, dtype=np.int16))
                          for basis in bases]


def test_min_distance_cap():
    # 64^5 messages are past plain enumeration; the rank scan reaches them
    f = Field.from_order(64)
    code = LinearCode(power_matrix(f, list(range(10)), range(5)))
    assert code.min_distance == 6
    # C(40, 20) column subsets and 1024^19 messages are both past the cap
    big = Field.from_order(1024)
    code = LinearCode(power_matrix(big, list(range(40)), range(20)))
    with pytest.raises(TooLargeToEnumerateError, match="rank scan"):
        code.min_distance


def test_oracle_cost_rule():
    # a binary [20, 5] code has 31 projective messages against C(20, 5)+ subsets
    assert _oracle_plan(2, 20, 5)[0] == PROJECTIVE_ENUMERATION
    # reach members of the family and their duals: [14, 4] / [14, 10] over
    # gf(64) and [12, 5] / [12, 7] over gf(256)
    for q, N, k in ((64, 14, 4), (64, 14, 10), (256, 12, 5), (256, 12, 7)):
        method, work = _oracle_plan(q, N, k)
        assert method == RANK_SCAN
        assert work <= ENUMERATION_CAP


def test_dual_and_orthogonality():
    d = EXAMPLE1.dual
    assert (d.length, d.dimension) == (5, 2)
    assert not (EXAMPLE1.generator @ d.generator.transpose()).a.any()
    assert codes_equal(d.dual, EXAMPLE1)
    rng = np.random.default_rng(37)
    for q in (3, 8):
        f = Field.from_order(q)
        for _ in range(5):
            a = rng.integers(0, q, size=(3, 6))
            try:
                c = LinearCode(Matrix(f, a))
            except RankDeficientError:
                continue
            assert codes_equal(c.dual.dual, c)
    with pytest.raises(BadDimensionError):
        LinearCode(Matrix(GF7, np.eye(3, dtype=int))).dual


@pytest.mark.parametrize("q, nodes, k, delta", [
    (9, (0, 1, 2, 3, 4), 3, 1),
    (7, (1, 2, 3, 4), 3, 0),
    (1024, (1, 2, 3, 4, 5, 6, 7), 4, 5),
])
def test_classify_reduces_each_matrix_once(monkeypatch, q, nodes, k, delta):
    """A code and its dual take two reductions, G's and the dual basis's:
    the basis is read off the code's own RREF, not reduced from G again."""
    seen = []
    reduce = linalg._rref_inplace

    def recording(field, a):
        seen.append((a.shape, a.tobytes()))
        return reduce(field, a)

    monkeypatch.setattr(linalg, "_rref_inplace", recording)
    classify(family_code(EvalConfig.ones(Field.from_order(q), nodes, k, delta)))
    assert len(seen) == len(set(seen)) == 2


def test_codes_equal_semantics():
    g = EXAMPLE1.generator.a.tolist()
    permuted = LinearCode(Matrix(GF4, [g[2], g[0], g[1]]))
    assert codes_equal(EXAMPLE1, permuted)
    scaled = LinearCode(Matrix(GF4, [[GF4.mul(3, x) for x in row] for row in g]))
    assert codes_equal(EXAMPLE1, scaled)
    assert not codes_equal(EXAMPLE1, EXAMPLE1.dual)
    assert not codes_equal(EXAMPLE1, LinearCode(Matrix(GF4, g[:2] + [[1, 0, 0, 0, 0]])))
    assert EXAMPLE1 == permuted
    assert EXAMPLE1 != EXAMPLE2  # different fields compare unequal, no raise


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_examples():
    cls = classify(EXAMPLE1)
    assert cls == Classification(MDS, 0, 0, 3, 4, 5, 3)  # dual is [5,2] MDS, d = 4
    assert classify(EXAMPLE2).kind == MDS

    # gapped evaluation code (powers 0,1,3) on a node set with a zero-sum triple
    gapped = LinearCode(power_matrix(GF7, [1, 2, 4, 5], [0, 1, 3]))
    assert classify(gapped).kind == NMDS

    rep3 = LinearCode(Matrix(Field.from_order(2), [[1, 1, 1]]))
    cls3 = classify(rep3)
    assert (cls3.min_distance, cls3.singleton_defect) == (3, 0)
    assert cls3.kind == MDS

    with pytest.raises(BadDimensionError):
        classify(LinearCode(Matrix(GF7, np.eye(2, dtype=int))))


def test_classification_json_schema():
    rep = classify(EXAMPLE1).to_json()
    assert rep == {
        "length": 5,
        "dimension": 3,
        "min_distance": 3,
        "dual_min_distance": 4,
        "singleton_defect": 0,
        "dual_defect": 0,
        "class": "MDS",
    }


def test_classify_agrees_with_column_rank_oracle():
    rng = np.random.default_rng(41)
    checked = 0
    for q in (4, 5, 7):
        f = Field.from_order(q)
        while checked < 12 * (q - 3):
            k = int(rng.integers(2, 4))
            N = int(rng.integers(k + 2, k + 5))
            a = rng.integers(0, q, size=(k, N))
            try:
                c = LinearCode(Matrix(f, a))
            except RankDeficientError:
                continue
            checked += 1
            kind = classify(c).kind
            oracle = column_rank_kind(c)
            if oracle is None:
                assert kind not in (MDS, NMDS)
            else:
                assert kind == oracle


# ---------------------------------------------------------------------------
# GRS codes
# ---------------------------------------------------------------------------

def test_grs_validation():
    with pytest.raises(ZeroScaleError):
        grs_code(GF7, [1, 2, 3], [1, 0, 1], 2)
    with pytest.raises(BadDimensionError):
        grs_code(GF7, [1, 2, 3], [1, 1, 1], 4)
    with pytest.raises(LengthMismatchError):
        grs_code(GF7, [1, 2, 3], [1, 1], 2)


def test_grs_known_parameters():
    c = grs_code(GF7, list(range(7)), [1] * 7, 3)
    assert (c.length, c.dimension, c.min_distance) == (7, 3, 5)
    sq = grs_code(GF7, [0, 1, 5], [2, 3, 4], 3)
    assert sq.min_distance == 1  # k = n
    c8 = grs_code(GF8, list(range(8)), [1] * 8, 4)
    assert c8.min_distance == 5


@pytest.mark.parametrize("q", [5, 7, 8, 9, 11])
def test_grs_is_mds_exhaustive(q):
    f = Field.from_order(q)
    rng = np.random.default_rng(q * 3)
    for n in range(1, q + 1):
        alphas = list(range(n))
        for k in range(1, n + 1):
            if q**k > 1 << 20:
                break
            v = [1] * n
            if k % 2 == 0:  # exercise nontrivial multipliers on half the cases
                v = [int(x) for x in rng.integers(1, q, size=n)]
            assert grs_code(f, alphas, v, k).min_distance == n - k + 1


# ---------------------------------------------------------------------------
# Schur products and the GRS screen
# ---------------------------------------------------------------------------

def test_schur_product_basics():
    f = Field.from_order(11)
    ones = LinearCode(Matrix(f, [[1] * 5]))
    assert codes_equal(schur_square(ones), ones)
    full = LinearCode(Matrix(f, np.eye(5, dtype=int)))
    assert codes_equal(schur_product(ones, full), full)
    with pytest.raises(LengthMismatchError):
        schur_product(ones, LinearCode(Matrix(f, [[1] * 4])))


def test_grs_square_dimension():
    f = Field.from_order(11)
    c = grs_code(f, list(range(8)), [1] * 8, 3)
    sq = schur_square(c)
    assert sq.dimension == 5  # 2k-1
    assert sq.min_distance >= 2
    rep = grs_consistency_test(c)
    assert rep.verdict == CONSISTENT_WITH_GRS
    assert rep.method == "SquareDimension"
    assert rep.evidence == 5


@pytest.mark.parametrize("q", [11, 13])
def test_grs_square_laws_sampled(q):
    f = Field.from_order(q)
    rng = np.random.default_rng(q)
    for N in (8, 9, 10):
        for k in itertools.count(3):
            if 2 * k >= N + 1:
                break
            alphas = [int(x) for x in rng.choice(q, size=N, replace=False)]
            v = [int(x) for x in rng.integers(1, q, size=N)]
            sq = schur_square(grs_code(f, alphas, v, k))
            assert sq.dimension == 2 * k - 1


def test_grs_consistency_gates():
    f = Field.from_order(11)
    two_dim = grs_code(f, list(range(5)), [1] * 5, 2)
    assert grs_consistency_test(two_dim).verdict == INCONCLUSIVE
    assert grs_consistency_test(two_dim).method == "NotApplicable"
    # k = N: no dual exists, gate must not touch it
    full = LinearCode(Matrix(GF7, np.eye(4, dtype=int)))
    assert grs_consistency_test(full).verdict == INCONCLUSIVE
    # high-rate GRS goes through the dual branch and stays consistent
    high = grs_code(f, list(range(9)), [1] * 9, 6)
    rep = grs_consistency_test(high)
    assert rep.method == "DualSquareDistance"
    assert rep.verdict == CONSISTENT_WITH_GRS
    assert rep.evidence >= 2


def reference_screen(code: LinearCode) -> GrsReport:
    """The Schur screen of one code from LinearCode's own square: the
    dimension of the code's square, or the distance of its dual's."""
    method = schur_method(code.length, code.dimension)
    if method == SQUARE_DIMENSION:
        dim2 = schur_square(code).dimension
        verdict = CONSISTENT_WITH_GRS if dim2 == 2 * code.dimension - 1 else NON_GRS
        return GrsReport(verdict, method, dim2)
    if method == DUAL_SQUARE_DISTANCE:
        d2 = schur_square(code.dual).min_distance
        return GrsReport(NON_GRS if d2 < 2 else CONSISTENT_WITH_GRS, method, d2)
    return GrsReport(INCONCLUSIVE, method, None)


def test_stacked_screen_matches_reference_on_family_blocks():
    """grs_consistency_reports of each (block, k) stack search builds, with
    the stack's closed-form parity checks as H, equals the reference screen
    of every config's code, in all three regimes."""
    regimes = set()

    @settings(max_examples=20)
    @given(job=search_jobs())
    @example(job=SearchJob(Field.from_order(9), 5, (3, 4, 5), sample=3))
    def check(job):
        f, deltas = job.field, job.delta_list()
        for block in search._blocks(job):
            for k in job.k_values:
                G = family_generators(f, block, k, deltas)
                H = family_parity_checks(f, block, k, deltas)
                want = [reference_screen(family_code(EvalConfig.ones(f, pts, k, delta)))
                        for pts in block for delta in deltas]
                assert grs_consistency_reports(f, G, H) == want
                regimes.add(want[0].method)
    check()
    assert regimes == {SQUARE_DIMENSION, DUAL_SQUARE_DISTANCE, NOT_APPLICABLE}


def test_stacked_screen_matches_reference_on_random_codes():
    """The dual-square screen of stacks of random full-rank codes over
    gf(2) to gf(5), H each code's dual basis, equals the reference screen,
    as grs_consistency_test of each code does; some of the squares take the
    projective branch, some the rank scan."""
    methods = set()

    @settings(max_examples=30)
    @given(q=st.sampled_from((2, 3, 4, 5)), redundancy=st.integers(3, 4),
           extra=st.integers(1, 3), entries=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def check(q, redundancy, extra, entries, seed):
        f = Field.from_order(q)
        rng = np.random.default_rng(seed)
        N = 2 * redundancy + extra
        drawn = []
        while len(drawn) < entries:
            try:
                drawn.append(LinearCode(Matrix(f, rng.integers(0, q, (N - redundancy, N)))))
            except RankDeficientError:
                continue
        assert schur_method(N, N - redundancy) == DUAL_SQUARE_DISTANCE
        G = np.stack([c.generator.a for c in drawn])
        H = np.stack([c.dual.generator.a for c in drawn])
        want = [reference_screen(c) for c in drawn]
        assert grs_consistency_reports(f, G, H) == want
        assert [grs_consistency_test(c) for c in drawn] == want
        methods.update(_oracle_plan(q, N, schur_square(c.dual).dimension)[0]
                       for c in drawn)
    check()
    assert methods == {RANK_SCAN, PROJECTIVE_ENUMERATION}


def test_grs_json_shape():
    f = Field.from_order(11)
    rep = grs_consistency_test(grs_code(f, list(range(8)), [1] * 8, 3))
    assert rep.to_json() == {"method": "SquareDimension", "evidence": 5,
                             "verdict": "ConsistentWithGRS"}


# ---------------------------------------------------------------------------
# extended codes
# ---------------------------------------------------------------------------

def test_extend_code_mechanics():
    c = grs_code(GF7, [1, 2, 3, 4], [1] * 4, 2)
    ext = extend_code(c, [1, 0, 0, 6])
    assert (ext.length, ext.dimension) == (5, 2)
    assert ext.min_distance in (c.min_distance, c.min_distance + 1)
    with pytest.raises(ZeroExtensionVectorError):
        extend_code(c, [0, 0, 0, 0])
    with pytest.raises(LengthMismatchError):
        extend_code(c, [1, 2])


def test_extend_by_dual_row_keeps_distance():
    c = EXAMPLE1
    w = [int(x) for x in c.dual.generator.a[0]]
    ext = extend_code(c, w)
    assert ext.min_distance == c.min_distance
    # appended coordinate is identically zero
    assert not ext.generator.a[:, -1].any()
