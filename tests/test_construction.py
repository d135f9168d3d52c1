"""Builders, weights, parity checks, and the subset-sum criteria.

Hand-computed frozen values appear as literals; the sweeps compare the
criteria against brute-force classification of the actual codes.
"""

from __future__ import annotations

import itertools
import random

import pytest

from mdslab.gf import Field
from mdslab.linalg import (
    DuplicatePointsError,
    Matrix,
    power_matrix,
    vandermonde_det_skip_penultimate,
    vandermonde_det_skip_two,
)
from mdslab.codes import (
    AMDS_ONLY_DUAL,
    BadDimensionError,
    LengthMismatchError,
    LinearCode,
    MDS,
    NMDS,
    NON_GRS,
    RankDeficientError,
    ZeroScaleError,
    classify,
    codes_equal,
    extend_code,
    grs_code,
)
from mdslab.construction import (
    CriterionReport,
    EllOutOfRangeError,
    EvalConfig,
    amds_criterion,
    criteria_class,
    dual_amds_criterion,
    extension_vector,
    family_code,
    gapped_grs_code,
    gapped_grs_one_column_code,
    grs_three_column_code,
    grs_two_column_code,
    lagrange_weights,
    mds_criterion,
    nmds_criterion,
    non_grs_certificate,
    parity_check_matrix,
    weighted_power_sum,
)

GF4 = Field.from_order(4)
GF5 = Field.from_order(5)
GF7 = Field.from_order(7)
GF8 = Field.from_order(8)
GF9 = Field.from_order(9)
GF11 = Field.from_order(11)

# GF(4): 2 is the primitive cube root, 3 = 2^2.  GF(8): powers of 2 run
# 1, 2, 4, 3, 6, 7, 5.  The frozen matrices below rely on those labels.

EXAMPLE1_CFG = EvalConfig.ones(GF4, (0, 1, 2), 3, 2)
EXAMPLE2_CFG = EvalConfig.ones(GF8, (1, 2, 4, 7), 3, 6)


def direct_power_sum(field, alphas, ell):
    u = lagrange_weights(field, alphas)
    total = 0
    for ui, a in zip(u, alphas):
        total = field.add(total, field.mul(ui, field.pow(a, ell)))
    return total


def subset_sum(field, alphas, idxs):
    s = 0
    for i in idxs:
        s = field.add(s, alphas[i])
    return s


def subset_delta_value(field, alphas, idxs):
    s = subset_sum(field, alphas, idxs)
    e2 = 0
    for i, j in itertools.combinations(idxs, 2):
        e2 = field.add(e2, field.mul(alphas[i], alphas[j]))
    return field.sub(field.mul(s, s), e2)


def check_witness(cfg, rep):
    """Replay a report's witness against the clause it names."""
    f, pts = cfg.field, cfg.alphas
    if rep.witness is None:
        return
    if rep.clause == "zero_sum_k":
        assert len(rep.witness) == cfg.k
        assert subset_sum(f, pts, rep.witness) == 0
    elif rep.clause == "delta_match_k_minus_1":
        assert len(rep.witness) == cfg.k - 1
        assert subset_delta_value(f, pts, rep.witness) == cfg.delta
    elif rep.clause == "all_k_subsets_sum_zero":
        assert all(subset_sum(f, pts, j) == 0
                   for j in itertools.combinations(rep.witness, cfg.k))
    elif rep.clause == "all_k_minus_1_subsets_match_delta":
        assert all(subset_delta_value(f, pts, j) == cfg.delta
                   for j in itertools.combinations(rep.witness, cfg.k - 1))
    else:
        raise AssertionError(f"unknown clause {rep.clause!r}")


# ---------------------------------------------------------------------------
# weights and power sums
# ---------------------------------------------------------------------------

def test_lagrange_weights_known_values():
    assert lagrange_weights(GF7, (0, 1, 2)) == (4, 6, 4)
    assert lagrange_weights(GF7, (1, 2, 3, 4)) == (1, 4, 3, 6)
    with pytest.raises(DuplicatePointsError):
        lagrange_weights(GF7, (1, 1, 2))
    with pytest.raises(ValueError):
        lagrange_weights(GF7, (3,))


def test_lagrange_weights_defining_product():
    rng = random.Random(11)
    for f in (GF5, GF8, GF9):
        pts = tuple(rng.sample(range(f.q), 4))
        u = lagrange_weights(f, pts)
        for i, ai in enumerate(pts):
            prod = 1
            for j, aj in enumerate(pts):
                if j != i:
                    prod = f.mul(prod, f.sub(ai, aj))
            assert f.mul(u[i], prod) == 1


def test_power_sum_closed_form_matches_direct():
    for pts in itertools.chain(
            itertools.combinations(range(7), 3),
            itertools.combinations(range(7), 4),
            itertools.combinations(range(7), 5)):
        for ell in range(len(pts) + 2):
            assert weighted_power_sum(GF7, pts, ell) == direct_power_sum(GF7, pts, ell)
    for f in (GF4, GF8, GF9):
        for size in range(3, min(f.q, 6) + 1):
            for pts in itertools.combinations(range(f.q), size):
                for ell in range(size + 2):
                    assert weighted_power_sum(f, pts, ell) == direct_power_sum(f, pts, ell)


def test_power_sum_frozen_values():
    # points (0, 1, 2) over GF(7): weights (4, 6, 4)
    assert weighted_power_sum(GF7, (0, 1, 2), 0) == 0
    assert weighted_power_sum(GF7, (0, 1, 2), 1) == 0
    assert weighted_power_sum(GF7, (0, 1, 2), 2) == 1
    assert weighted_power_sum(GF7, (0, 1, 2), 3) == 3
    assert weighted_power_sum(GF7, (0, 1, 2), 4) == 0


def test_power_sum_range_errors():
    with pytest.raises(EllOutOfRangeError):
        weighted_power_sum(GF7, (0, 1, 2), -1)
    with pytest.raises(EllOutOfRangeError):
        weighted_power_sum(GF7, (0, 1, 2), 5)
    with pytest.raises(ValueError):
        weighted_power_sum(GF7, (0, 1), 0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_family_code_frozen_examples():
    g1 = family_code(EXAMPLE1_CFG).generator
    assert g1.a.tolist() == [
        [1, 1, 1, 0, 0],
        [0, 1, 2, 0, 1],
        [0, 1, 1, 1, 2],
    ]
    g2 = family_code(EXAMPLE2_CFG).generator
    assert g2.a.tolist() == [
        [1, 1, 1, 1, 0, 0],
        [1, 2, 4, 7, 0, 1],
        [1, 3, 5, 2, 1, 6],
    ]


def test_family_code_shape_and_rank():
    rng = random.Random(5)
    for f in (GF5, GF7, GF8, GF9):
        for _ in range(6):
            n = rng.randint(3, min(f.q, 7))
            k = rng.randint(3, n)
            pts = tuple(rng.sample(range(f.q), n))
            v = tuple(rng.randrange(1, f.q) for _ in range(n))
            cfg = EvalConfig(f, pts, v, k, rng.randrange(f.q))
            c = family_code(cfg)
            assert c.generator.shape == (k, n + 2)
            assert c.dimension == k
            assert c.length == n + 2


def test_family_code_rank_survives_zero_sum_nodes():
    # nodes summing to zero sink the bare gapped builder at k = n, not this one
    cfg = EvalConfig.ones(GF7, (1, 2, 4), 3, 0)
    assert family_code(cfg).dimension == 3


def test_two_column_builder():
    c = grs_two_column_code(GF7, (1, 2, 3, 4), 3, 5)
    assert c.generator.a.tolist() == [
        [1, 1, 1, 1, 0, 0],
        [1, 2, 3, 4, 0, 1],
        [1, 4, 2, 2, 1, 5],
    ]
    with pytest.raises(BadDimensionError):
        grs_two_column_code(GF7, (1, 2, 3), 3, 5)
    with pytest.raises(BadDimensionError):
        grs_two_column_code(GF7, (1, 2, 3, 4), 2, 5)


def test_three_column_builder():
    c = grs_three_column_code(GF7, (1, 2, 3, 4), 3, 5, 2, 3)
    assert c.generator.a.tolist() == [
        [1, 1, 1, 1, 0, 0, 1],
        [1, 2, 3, 4, 0, 1, 2],
        [1, 4, 2, 2, 1, 5, 3],
    ]
    c4 = grs_three_column_code(GF7, (1, 2, 3, 4, 5), 4, 1, 1, 1)
    assert c4.generator.ncols == 8
    assert c4.generator.a.tolist()[0][-3:] == [0, 0, 0]
    with pytest.raises(BadDimensionError):
        grs_three_column_code(GF7, (1, 2, 3), 3, 5, 2, 3)


def test_gapped_builder():
    c = gapped_grs_code(GF7, (1, 2, 4, 5), 3)
    assert c.generator == power_matrix(GF7, (1, 2, 4, 5), (0, 1, 3))
    assert classify(c).kind == NMDS
    # k = n with nodes summing to zero: the skipped-degree determinant vanishes
    with pytest.raises(RankDeficientError):
        gapped_grs_code(GF7, (1, 2, 4), 3)
    with pytest.raises(BadDimensionError):
        gapped_grs_code(GF7, (1, 2, 4, 5), 2)


def test_gapped_one_column_builder():
    c = gapped_grs_one_column_code(GF7, (1, 2, 3, 4), 3)
    assert c.generator.a.tolist() == [
        [1, 1, 1, 1, 0],
        [1, 2, 3, 4, 0],
        [1, 1, 6, 1, 1],
    ]
    # the tail column rescues the rank even where the bare builder fails
    assert gapped_grs_one_column_code(GF7, (1, 2, 4), 3).dimension == 3


# ---------------------------------------------------------------------------
# extension vector and parity check
# ---------------------------------------------------------------------------

def test_extension_vector_frozen_values():
    assert extension_vector(EvalConfig.ones(GF7, (0, 1, 2), 3, 0)) == (0, 6, 1, 0)
    assert extension_vector(EvalConfig.ones(GF7, (0, 1, 2), 3, 3)) == (0, 6, 1, 3)
    # weights for (1,2,3,4) are (1,4,3,6); alpha^2 u gives (1,2,6,5); e1=3, e2=0
    assert extension_vector(EvalConfig.ones(GF7, (1, 2, 3, 4), 3, 0)) == (1, 2, 6, 5, 5)


def test_extension_column_is_tail_column():
    rng = random.Random(23)
    for f in (GF5, GF8, GF9):
        for _ in range(5):
            n = rng.randint(3, min(f.q, 7))
            k = rng.randint(3, n)
            pts = tuple(rng.sample(range(f.q), n))
            cfg = EvalConfig.ones(f, pts, k, rng.randrange(f.q))
            w = Matrix(f, [[x] for x in extension_vector(cfg)])
            col = gapped_grs_one_column_code(f, pts, k).generator @ w
            assert col.a[:, 0].tolist() == [0] * (k - 2) + [1, cfg.delta]


def test_extend_one_column_code_reproduces_family():
    rng = random.Random(31)
    for f in (GF4, GF5, GF8, GF9):
        for _ in range(8):
            n = rng.randint(3, min(f.q, 7))
            k = rng.randint(3, n)
            pts = tuple(rng.sample(range(f.q), n))
            cfg = EvalConfig.ones(f, pts, k, rng.randrange(f.q))
            base = gapped_grs_one_column_code(f, pts, k)
            extended = extend_code(base, extension_vector(cfg))
            fam = family_code(cfg)
            assert extended.generator == fam.generator
            assert codes_equal(extended, fam)


def test_parity_check_frozen_example():
    H = parity_check_matrix(EXAMPLE1_CFG)
    assert H.a.tolist() == [
        [3, 2, 1, 3, 0],
        [0, 2, 2, 2, 1],
    ]


def test_parity_check_identities():
    rng = random.Random(47)
    cfgs = [EXAMPLE1_CFG, EXAMPLE2_CFG,
            EvalConfig.ones(GF7, (0, 1, 2), 3, 4),      # k = n
            EvalConfig.ones(GF7, (0, 1, 2, 5), 3, 4)]   # k = n - 1
    for f in (GF5, GF8, GF9):
        for _ in range(5):
            n = rng.randint(3, min(f.q, 7))
            k = rng.randint(3, n)
            pts = tuple(rng.sample(range(f.q), n))
            v = tuple(rng.randrange(1, f.q) for _ in range(n))
            cfgs.append(EvalConfig(f, pts, v, k, rng.randrange(f.q)))
    for cfg in cfgs:
        fam = family_code(cfg)
        H = parity_check_matrix(cfg)
        n, k = cfg.n, cfg.k
        assert H.shape == (n - k + 2, n + 2)
        prod = fam.generator @ H.transpose()
        assert not prod.a.any()
        assert codes_equal(LinearCode(H), fam.dual)


# ---------------------------------------------------------------------------
# subset-sum predicates
# ---------------------------------------------------------------------------

def test_criterion_report_json():
    rep = CriterionReport("mds", False, (0, 2), "delta_match_k_minus_1")
    assert rep.to_json() == {
        "criterion": "mds",
        "holds": False,
        "witness": {"indices": [0, 2], "clause": "delta_match_k_minus_1"},
    }
    assert CriterionReport("mds", True).to_json() == {
        "criterion": "mds", "holds": True, "witness": None}


# ---------------------------------------------------------------------------
# classification criteria
# ---------------------------------------------------------------------------

def test_mds_criterion_examples():
    assert mds_criterion(EXAMPLE1_CFG).holds
    assert mds_criterion(EXAMPLE2_CFG).holds
    rep = mds_criterion(EvalConfig.ones(GF7, (1, 2, 4, 3), 3, 0))
    assert (rep.holds, rep.witness, rep.clause) == (False, (0, 1, 2), "zero_sum_k")
    rep = mds_criterion(EvalConfig.ones(GF7, (1, 2, 3), 3, 0))
    assert (rep.holds, rep.witness, rep.clause) == (False, (0, 1), "delta_match_k_minus_1")


def test_dual_amds_criterion_examples():
    assert not dual_amds_criterion(EXAMPLE1_CFG).holds
    rep = dual_amds_criterion(EvalConfig.ones(GF7, (1, 2, 4, 3), 3, 0))
    assert (rep.holds, rep.witness, rep.clause) == (True, (0, 1, 2), "zero_sum_k")
    rep = dual_amds_criterion(EvalConfig.ones(GF7, (1, 2, 3), 3, 0))
    assert (rep.holds, rep.witness, rep.clause) == (True, (0, 1), "delta_match_k_minus_1")


def all_small_configs(field, sizes):
    for n in sizes:
        for pts in itertools.combinations(range(field.q), n):
            for k in range(3, n + 1):
                for delta in range(field.q):
                    yield EvalConfig.ones(field, pts, k, delta)


def test_criteria_against_brute_force_gf5():
    for cfg in all_small_configs(GF5, (3, 4)):
        cls = classify(family_code(cfg))
        m = mds_criterion(cfg)
        a = amds_criterion(cfg)
        da = dual_amds_criterion(cfg)
        assert m.holds == (cls.singleton_defect == 0), cfg
        assert a.holds == (cls.singleton_defect == 1), cfg
        assert da.holds == (cls.dual_defect == 1), cfg
        assert nmds_criterion(cfg).holds == (cls.kind == NMDS), cfg
        assert criteria_class(cfg) == cls.kind, cfg
        assert cls.kind in (MDS, NMDS, AMDS_ONLY_DUAL), cfg
        for rep in (m, a, da):
            check_witness(cfg, rep)


def test_criteria_against_brute_force_sampled_wide():
    rng = random.Random(59)
    for f in (GF8, GF9):
        for _ in range(12):
            n = rng.randint(3, 7)
            k = rng.randint(3, n)
            pts = tuple(rng.sample(range(f.q), n))
            cfg = EvalConfig.ones(f, pts, k, rng.randrange(f.q))
            cls = classify(family_code(cfg))
            assert mds_criterion(cfg).holds == (cls.singleton_defect == 0), cfg
            assert nmds_criterion(cfg).holds == (cls.kind == NMDS), cfg
            assert dual_amds_criterion(cfg).holds == (cls.dual_defect == 1), cfg
            assert criteria_class(cfg) == cls.kind, cfg


def test_criteria_against_distance_oracle_past_enumeration():
    """Members whose dual has 64^10 or 256^7 messages are still classified."""
    gf64, gf256 = Field.from_order(64), Field.from_order(256)
    members = [
        (EvalConfig.ones(gf64, (4, 8, 23, 30, 34, 37, 38, 40, 57, 58, 62, 63),
                         4, 60), AMDS_ONLY_DUAL),
        (EvalConfig.ones(gf256, (48, 71, 96, 121, 137, 155, 182, 223, 237, 239),
                         5, 41), MDS),
    ]
    for cfg, kind in members:
        assert criteria_class(cfg) == kind
        assert classify(family_code(cfg)).kind == kind


def test_amds_and_nmds_criteria_coincide():
    for cfg in all_small_configs(GF4, (3, 4)):
        a, nm = amds_criterion(cfg), nmds_criterion(cfg)
        assert (a.holds, a.witness, a.clause) == (nm.holds, nm.witness, nm.clause)
        assert a.criterion == "amds" and nm.criterion == "nmds"


def test_criteria_ignore_column_scaling():
    rng = random.Random(67)
    for _ in range(8):
        n = rng.randint(3, 6)
        k = rng.randint(3, n)
        pts = tuple(rng.sample(range(7), n))
        delta = rng.randrange(7)
        v = tuple(rng.randrange(1, 7) for _ in range(n))
        plain = EvalConfig.ones(GF7, pts, k, delta)
        scaled = EvalConfig(GF7, pts, v, k, delta)
        assert criteria_class(plain) == criteria_class(scaled)
        assert criteria_class(scaled) == classify(family_code(scaled)).kind


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def test_eval_config_validation():
    with pytest.raises(DuplicatePointsError):
        EvalConfig.ones(GF7, (1, 1, 2), 3, 0)
    with pytest.raises(ZeroScaleError):
        EvalConfig(GF7, (1, 2, 3), (1, 0, 1), 3, 0)
    with pytest.raises(LengthMismatchError):
        EvalConfig(GF7, (1, 2, 3), (1, 1), 3, 0)
    with pytest.raises(BadDimensionError):
        EvalConfig.ones(GF7, (1, 2, 3), 2, 0)
    with pytest.raises(BadDimensionError):
        EvalConfig.ones(GF7, (1, 2, 3), 4, 0)
    with pytest.raises(ValueError):
        EvalConfig.ones(GF4, (0, 1, 2), 3, 9)


@pytest.mark.parametrize("outside", [-1, 7])
@pytest.mark.parametrize("build", [
    lambda pts: grs_code(GF7, pts, (1,) * 4, 3),
    lambda pts: grs_two_column_code(GF7, pts, 3, 1),
    lambda pts: grs_three_column_code(GF7, pts, 3, 1, 2, 3),
    lambda pts: gapped_grs_code(GF7, pts, 3),
    lambda pts: gapped_grs_one_column_code(GF7, pts, 3),
    lambda pts: lagrange_weights(GF7, pts),
    lambda pts: weighted_power_sum(GF7, pts, 2),
    lambda pts: vandermonde_det_skip_penultimate(GF7, pts),
    lambda pts: vandermonde_det_skip_two(GF7, pts),
    lambda pts: EvalConfig.ones(GF7, pts, 3, 0),
], ids=["grs", "grs-two-column", "grs-three-column", "gapped",
        "gapped-one-column", "lagrange", "power-sum", "det-skip-penultimate",
        "det-skip-two", "config"])
def test_builders_refuse_points_outside_the_field(build, outside):
    """-1 is not read as the last element, nor q past the tables' end."""
    with pytest.raises(ValueError, match=f"^{outside} is not an element index "
                                         "of gf\\(7\\)$"):
        build((0, 1, 2, outside))


def test_eval_config_json_round_trip():
    cfg = EvalConfig.from_json({
        "field": "gf(4)", "A": [0, 1, "g"], "k": 3, "delta": "g"})
    assert cfg == EXAMPLE1_CFG
    assert cfg.to_json() == {
        "field": "gf(2^2):1,1,1", "A": [0, 1, 2], "v": "ones",
        "k": 3, "delta": 2}
    assert EvalConfig.from_json(cfg.to_json()) == cfg

    scaled = EvalConfig(GF7, (1, 2, 3), (2, 2, 1), 3, 6)
    again = EvalConfig.from_json(scaled.to_json())
    assert again == scaled
    assert again.to_json()["v"] == [2, 2, 1]


@pytest.mark.parametrize("key, value, message", [
    ("A", [0, 1, [1, 2.5], 3], "digit 2.5 is not an integer"),
    ("A", [0, 1, [1, True], 3], "digit True is not an integer"),
    ("delta", [0, 1.9], "digit 1.9 is not an integer"),
    ("delta", 1.5, "expected a field element, got 1.5"),
    ("delta", None, "expected a field element, got None"),
    ("A", [0, 1, 2.0, 3], "expected a field element, got 2.0"),
])
def test_eval_config_json_refuses_non_integer_elements(key, value, message):
    """Floats and bools, as elements or as digits, are refused, never
    truncated (before, [1, 2.5] over gf(9) read as 7 and delta [0, 1.9] as 3)."""
    obj = {"field": "gf(9)", "A": [0, 1, 2, 3], "k": 3, "delta": 0, key: value}
    with pytest.raises(ValueError) as err:
        EvalConfig.from_json(obj)
    assert str(err.value) == f"config field {key!r}: {message}"


def test_eval_config_json_errors_name_the_field():
    with pytest.raises(ValueError, match="'field'"):
        EvalConfig.from_json({"field": "gf(6)", "A": [0, 1, 2], "k": 3, "delta": 0})
    with pytest.raises(ValueError, match="'A'"):
        EvalConfig.from_json({"field": "gf(7)", "A": [0, 1, "x"], "k": 3, "delta": 0})
    with pytest.raises(ValueError, match="'delta'"):
        EvalConfig.from_json({"field": "gf(7)", "A": [0, 1, 2], "k": 3, "delta": "g^"})
    with pytest.raises(ValueError, match="'k'"):
        EvalConfig.from_json({"field": "gf(7)", "A": [0, 1, 2], "k": "3", "delta": 0})
    with pytest.raises(ValueError, match="v has 2 entries"):
        EvalConfig.from_json({"field": "gf(7)", "A": [0, 1, 2], "v": [1, 1], "k": 3,
                              "delta": 0})
    with pytest.raises(ValueError, match="'v'"):
        EvalConfig.from_json({"field": "gf(7)", "A": [0, 1, 2], "v": [1, 1, "x"],
                              "k": 3, "delta": 0})
    with pytest.raises(ValueError, match="'A'"):
        EvalConfig.from_json({"field": "gf(7)", "k": 3, "delta": 0})


# ---------------------------------------------------------------------------
# non-GRS certificates
# ---------------------------------------------------------------------------

def test_non_grs_certificate_low_rate():
    rep = non_grs_certificate(EvalConfig.ones(GF11, tuple(range(7)), 3, 1))
    assert rep.verdict == NON_GRS
    assert rep.method == "SquareDimension"
    assert rep.evidence == 6          # a GRS square would have dimension 5


def test_non_grs_certificate_high_rate():
    rep = non_grs_certificate(EvalConfig.ones(GF9, tuple(range(6)), 5, 1))
    assert rep.verdict == NON_GRS
    assert rep.method == "DualSquareDistance"
    assert rep.evidence == 1
