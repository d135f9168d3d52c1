"""The per-config sweep of verify: one build, one scan and one classification
per config, each suite stopping at its own first counterexample."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from mdslab import verify
from mdslab.cli import main
from mdslab.codes import AMDS_ONLY_PRIMAL, MDS, NMDS
from mdslab.construction import EvalConfig, extension_vector, parity_check_matrix
from mdslab.gf import Field
from mdslab.linalg import Matrix
from mdslab.verify import (
    CRITERION_SUITES,
    SWEEP_SUITES,
    SuiteResult,
    run_suites,
    sweep_configs,
    sweep_jobs,
)

FIELDS = (Field.from_order(4), Field.from_order(5))
MAX_N = 4
SWEEP_COUNT = 124
# an MDS config at 1-based position 30 of the sweep
CHOSEN = EvalConfig.ones(Field.from_order(5), (0, 1, 3), 3, 0)
CHOSEN_POSITION = 30
CHOSEN_JSON = {"field": "gf(5)", "A": [0, 1, 3], "v": "ones", "k": 3, "delta": 0}


def misclassify_chosen(monkeypatch, **wrong) -> None:
    """Make verify.classified return a wrong Classification for CHOSEN only."""
    classified = verify.classified

    def faulty(cfg):
        cls = classified(cfg)
        return dataclasses.replace(cls, **wrong) if cfg == CHOSEN else cls
    monkeypatch.setattr(verify, "classified", faulty)


@pytest.fixture
def built(monkeypatch) -> list:
    """Every config verify.family_code builds during the test, in order."""
    log = []
    family_code = verify.family_code

    def logged(cfg):
        log.append(cfg)
        return family_code(cfg)
    monkeypatch.setattr(verify, "family_code", logged)
    return log


def other_delta_at_chosen(build):
    """build, but given CHOSEN it builds for delta = 1 instead: a wrong
    parity-check matrix (G.H^T != 0) or a wrong extension vector."""
    def faulty(cfg):
        return build(dataclasses.replace(cfg, delta=1) if cfg == CHOSEN else cfg)
    return faulty


def test_chosen_config_position():
    configs = list(sweep_configs(FIELDS, MAX_N))
    assert len(configs) == SWEEP_COUNT
    assert sum(j.planned_count() for j in sweep_jobs(FIELDS, MAX_N)) == SWEEP_COUNT
    assert configs.index(CHOSEN) + 1 == CHOSEN_POSITION
    assert verify.classified(CHOSEN).kind == MDS


@pytest.mark.parametrize("suite, cap", [("powersum", "POWERSUM_CAP"),
                                        ("mds", "SWEEP_CAP")])
def test_scope_cap_counts_the_checks_a_suite_makes(monkeypatch, suite, cap):
    """A cap equal to the checks a suite makes lets it run; one below refuses
    it before it runs, naming that count."""
    (result,) = run_suites([suite], fields=FIELDS, max_n=MAX_N)
    monkeypatch.setattr(verify, cap, result.checked)
    assert run_suites([suite], fields=FIELDS, max_n=MAX_N) == [result]
    monkeypatch.setattr(verify, cap, result.checked - 1)
    with pytest.raises(ValueError, match=f"scope has {result.checked} "):
        run_suites([suite], fields=FIELDS, max_n=MAX_N)


def test_default_scopes_are_under_their_caps(monkeypatch):
    """verify all and verify all --quick pass every cap (suites stubbed)."""
    monkeypatch.setattr(verify, "sweep", lambda fields, max_n, names: {
        name: SuiteResult(name, True, 0) for name in names})
    for suite in ("powersum", "det", "schur"):
        monkeypatch.setattr(verify, f"check_{suite}", lambda *a, **kw: None)
    for quick in (False, True):
        assert len(run_suites(verify.SUITE_NAMES, quick=quick)) == 9


def test_four_suites_scan_each_config_once(scanned):
    results = run_suites(["nmds", "powersum", "mds", "dual-amds", "amds"],
                         fields=FIELDS, max_n=MAX_N)
    assert [r.suite for r in results] == ["nmds", "powersum", "mds",
                                          "dual-amds", "amds"]
    assert all(r.passed for r in results)
    assert [r.checked for r in results if r.suite != "powersum"] == [SWEEP_COUNT] * 4
    assert scanned == list(sweep_configs(FIELDS, MAX_N))


def test_wrong_classification_fails_only_the_affected_suites(monkeypatch):
    # an MDS code reported as AMDS on the primal side only: the mds and amds
    # verdicts break the rule, the dual-amds and nmds verdicts still hold
    misclassify_chosen(monkeypatch, kind=AMDS_ONLY_PRIMAL, singleton_defect=1,
                       min_distance=2)
    results = run_suites(CRITERION_SUITES, fields=FIELDS, max_n=MAX_N)

    def counterexample(holds):
        return {"config": CHOSEN_JSON, "criterion_holds": holds,
                "class": AMDS_ONLY_PRIMAL, "singleton_defect": 1,
                "dual_defect": 0}
    assert results == [
        SuiteResult("mds", False, CHOSEN_POSITION, counterexample(True)),
        SuiteResult("amds", False, CHOSEN_POSITION, counterexample(False)),
        SuiteResult("dual-amds", True, SWEEP_COUNT),
        SuiteResult("nmds", True, SWEEP_COUNT),
    ]
    assert verify.check_mds(FIELDS, MAX_N) == results[0]
    assert verify.check_nmds(FIELDS, MAX_N) == results[3]


def test_parity_and_extend_build_each_config_once(built):
    results = run_suites(["extend", "parity"], fields=FIELDS, max_n=MAX_N)
    assert results == [SuiteResult("extend", True, SWEEP_COUNT),
                       SuiteResult("parity", True, SWEEP_COUNT)]
    assert built == list(sweep_configs(FIELDS, MAX_N))


def test_wrong_parity_check_fails_only_parity(monkeypatch):
    monkeypatch.setattr(verify, "parity_check_matrix",
                        other_delta_at_chosen(parity_check_matrix))
    results = run_suites(SWEEP_SUITES, fields=FIELDS, max_n=MAX_N)
    assert results == [
        SuiteResult("parity", False, CHOSEN_POSITION,
                    {"config": CHOSEN_JSON, "reason": "G.H^T != 0"}),
    ] + [SuiteResult(suite, True, SWEEP_COUNT) for suite in SWEEP_SUITES[1:]]
    assert verify.check_parity(FIELDS, MAX_N) == results[0]


def chosen_parity_check(wrong):
    """parity_check_matrix, but wrong(H) at CHOSEN."""
    def faulty(cfg):
        H = parity_check_matrix(cfg)
        return Matrix(H.field, wrong(H.a)) if cfg == CHOSEN else H
    return faulty


@pytest.mark.parametrize("wrong, reason", [
    # the last row repeats the first: G.H^T is still 0, but H is rank-deficient
    (lambda a: np.vstack([a[:-1], a[:1]]), "row space is not the dual"),
    # one zero column too many: G.H^T would not even multiply
    (lambda a: np.hstack([a, np.zeros_like(a[:, :1])]), "bad shape"),
], ids=["rank-deficient", "one-column-wide"])
def test_broken_parity_check_is_a_counterexample(capsys, monkeypatch, wrong, reason):
    monkeypatch.setattr(verify, "parity_check_matrix", chosen_parity_check(wrong))
    code = main(["verify", "parity", "--orders", "4,5", "--max-n", str(MAX_N),
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == [SuiteResult(
        "parity", False, CHOSEN_POSITION,
        {"config": CHOSEN_JSON, "reason": reason}).to_json()]


def test_refused_extension_vector_is_a_counterexample(capsys, monkeypatch):
    # one entry short: extend_code refuses it with a length mismatch
    def short(cfg):
        w = extension_vector(cfg)
        return w[:-1] if cfg == CHOSEN else w
    monkeypatch.setattr(verify, "extension_vector", short)
    code = main(["verify", "extend", "--orders", "4,5", "--max-n", str(MAX_N),
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == [SuiteResult(
        "extend", False, CHOSEN_POSITION, {"config": CHOSEN_JSON}).to_json()]


def test_sweep_ends_when_every_suite_has_failed(monkeypatch, scanned, built):
    verify.classified.cache_clear()         # so classified builds what it sees
    # reported NMDS, every one of the four verdicts breaks the rule
    misclassify_chosen(monkeypatch, kind=NMDS, singleton_defect=1,
                       dual_defect=1, min_distance=2, dual_min_distance=3)
    monkeypatch.setattr(verify, "parity_check_matrix",
                        other_delta_at_chosen(parity_check_matrix))
    monkeypatch.setattr(verify, "extension_vector",
                        other_delta_at_chosen(extension_vector))
    results = run_suites(SWEEP_SUITES, fields=FIELDS, max_n=MAX_N)
    assert [(r.suite, r.passed, r.checked) for r in results] == [
        (suite, False, CHOSEN_POSITION) for suite in SWEEP_SUITES]
    assert results[:2] == [
        SuiteResult("parity", False, CHOSEN_POSITION,
                    {"config": CHOSEN_JSON, "reason": "G.H^T != 0"}),
        SuiteResult("extend", False, CHOSEN_POSITION, {"config": CHOSEN_JSON}),
    ]
    assert [r.counterexample["criterion_holds"] for r in results[2:]] == [
        True, False, False, False]
    assert len(scanned) == CHOSEN_POSITION
    # one build shared by parity and extend, one inside classified
    assert len(built) == 2 * CHOSEN_POSITION


def test_classified_cache_is_bounded(monkeypatch):
    # stubbed classification: the test is about the cache, not the oracle
    monkeypatch.setattr(verify, "family_code", lambda cfg: None)
    monkeypatch.setattr(verify, "classify", lambda code: None)
    acceptance = list(sweep_configs(
        [Field.from_order(q) for q in (4, 5, 7)], 6))
    verify.classified.cache_clear()
    try:
        for _ in range(2):
            for cfg in acceptance:
                verify.classified(cfg)
        info = verify.classified.cache_info()
        # the 1462-config acceptance sweep fits: its second pass only hits
        assert (info.hits, info.misses) == (1462, 1462)
        assert info.maxsize is not None
        for cfg in sweep_configs([Field.from_order(9)], 6):
            verify.classified(cfg)
        assert verify.classified.cache_info().currsize == info.maxsize
    finally:
        verify.classified.cache_clear()


# the 444th of the 840 gf(7) size-4 permutations: inside its det stack
DET_BROKEN = (3, 5, 0, 6)


@pytest.mark.parametrize("quick, checked", [(False, 954), (True, 834)])
def test_det_failure_inside_a_stack_replays(monkeypatch, quick, checked):
    # checked and the counterexample were recorded from the scalar det loop:
    # 300 (full) or 180 (quick) gf(5) checks, 210 gf(7) size-3, then 444
    f7 = Field.from_order(7)
    closed_form = verify.vandermonde_det_skip_two

    def faulty(f, pts):
        """The closed forms of a (B, n) stack, one more at DET_BROKEN."""
        d = closed_form(f, pts)
        if f == f7 and pts.shape[-1] == len(DET_BROKEN):
            hit = (pts == DET_BROKEN).all(axis=-1)
            d = np.where(hit, f.add_table[d, 1], d)
        return d
    monkeypatch.setattr(verify, "vandermonde_det_skip_two", faulty)
    (result,) = run_suites(["det"], quick=quick)
    assert result.to_json() == {
        "suite": "det", "passed": False, "checked": checked,
        "counterexample": {"field": "gf(7)", "points": [3, 5, 0, 6]},
        "detail": ""}
