"""The criterion sweep of verify: one scan and one classification per config,
each suite stopping at its own first counterexample."""

from __future__ import annotations

import dataclasses

from mdslab import verify
from mdslab.codes import AMDS_ONLY_PRIMAL, MDS, NMDS
from mdslab.construction import EvalConfig
from mdslab.gf import Field
from mdslab.verify import (
    CRITERION_SUITES,
    SuiteResult,
    run_suites,
    sweep_configs,
    sweep_size,
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


def test_chosen_config_position():
    configs = list(sweep_configs(FIELDS, MAX_N))
    assert len(configs) == sweep_size(FIELDS, MAX_N) == SWEEP_COUNT
    assert configs.index(CHOSEN) + 1 == CHOSEN_POSITION
    assert verify.classified(CHOSEN).kind == MDS


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


def test_sweep_ends_when_every_suite_has_failed(monkeypatch, scanned):
    # reported NMDS, every one of the four verdicts breaks the rule
    misclassify_chosen(monkeypatch, kind=NMDS, singleton_defect=1,
                       dual_defect=1, min_distance=2, dual_min_distance=3)
    results = run_suites(CRITERION_SUITES, fields=FIELDS, max_n=MAX_N)
    assert [(r.suite, r.passed, r.checked) for r in results] == [
        (suite, False, CHOSEN_POSITION) for suite in CRITERION_SUITES]
    assert [r.counterexample["criterion_holds"] for r in results] == [
        True, False, False, False]
    assert len(scanned) == CHOSEN_POSITION
