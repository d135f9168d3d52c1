"""The block sweep of verify: one generator stack per (block, k) that every
suite reads, one criteria scan per (node set, k) over every delta, each suite
stopping at its own first counterexample; and the per-config sweep it
replaced, kept here as the reference the block sweep must equal."""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdslab import construction, codes, search, verify
from mdslab.cli import main
from mdslab.codes import (
    AMDS_ONLY_PRIMAL,
    Classification,
    MDS,
    NMDS,
    classify,
    codes_equal,
    extend_code,
)
from mdslab.construction import (
    EvalConfig,
    criteria,
    extension_vector,
    family_code,
    gapped_grs_one_column_code,
    parity_check_matrix,
)
from mdslab.gf import Field
from mdslab.linalg import Matrix, rref
from mdslab.search import SearchJob, iter_configs, run_search
from mdslab.verify import (
    CRITERION_SUITES,
    SWEEP_SUITES,
    SuiteResult,
    run_suites,
    sweep_jobs,
)
from test_cli import search_jobs

FIELDS = (Field.from_order(4), Field.from_order(5))
MAX_N = 4
SWEEP_COUNT = 124
# an MDS config at 1-based position 30 of the sweep, inside the gf(5), n = 3
# block, which starts at position 25 with BLOCK_START
CHOSEN = EvalConfig.ones(Field.from_order(5), (0, 1, 3), 3, 0)
CHOSEN_POSITION = 30
CHOSEN_JSON = {"field": "gf(5)", "A": [0, 1, 3], "v": "ones", "k": 3, "delta": 0}
BLOCK_START = 25
BLOCK_START_JSON = {"field": "gf(5)", "A": [0, 1, 2], "v": "ones", "k": 3,
                    "delta": 0}


# ---------------------------------------------------------------------------
# the per-config reference
# ---------------------------------------------------------------------------

def sweep_configs(fields, max_n):
    """The sweep's configs, one at a time in visit order."""
    for job in sweep_jobs(fields, max_n):
        yield from iter_configs(job)


def reference_sweep(fields, max_n, suites, parity_check=parity_check_matrix,
                    extension=extension_vector,
                    classification=lambda cfg: classify(family_code(cfg)),
                    criteria_of=criteria):
    """verify.sweep's results for suites, in that order, from each config's
    own code, parity-check matrix, extension, classification and criteria."""
    live = dict.fromkeys(suites, 0)         # suite -> configs checked
    results = {}
    for cfg in sweep_configs(fields, max_n):
        if not live:
            break
        for suite in live:
            live[suite] += 1
        fam = family_code(cfg)
        found = {}
        if "parity" in live:
            H = parity_check(cfg)
            if H.shape != (cfg.n - cfg.k + 2, cfg.n + 2):
                found["parity"] = "bad shape"
            elif (fam.generator @ H.transpose()).a.any():
                found["parity"] = "G.H^T != 0"
            elif rref(H)[1] < H.nrows:
                found["parity"] = "row space is not the dual"
            if "parity" in found:
                found["parity"] = {"config": cfg.to_json(), "reason": found["parity"]}
        if "extend" in live:
            base = gapped_grs_one_column_code(cfg.field, cfg.alphas, cfg.k)
            try:        # a vector extend_code refuses is a counterexample too
                extends = codes_equal(extend_code(base, extension(cfg)), fam)
            except ValueError:
                extends = False
            if not extends:
                found["extend"] = {"config": cfg.to_json()}
        if live.keys() & set(CRITERION_SUITES):
            cls = classification(cfg)
            for name, holds, truth in criteria_of(cfg).checks(cls):
                suite = name.replace("_", "-")
                if suite in live and holds != truth:
                    found[suite] = {
                        "config": cfg.to_json(), "criterion_holds": holds,
                        "class": cls.kind, "singleton_defect": cls.singleton_defect,
                        "dual_defect": cls.dual_defect}
        for suite, counterexample in found.items():
            results[suite] = SuiteResult(suite, False, live.pop(suite), counterexample)
    for suite, checked in live.items():
        results[suite] = SuiteResult(suite, True, checked)
    return [results[suite] for suite in suites]


# ---------------------------------------------------------------------------
# faults injected into the batched builders
# ---------------------------------------------------------------------------

def stack_entry(field, nodes, k, deltas, cfg):
    """cfg's entry in the (node set, delta) stack of a batched builder's
    arguments, or None if the stack does not hold it."""
    rows = [tuple(r) for r in np.asarray(nodes).tolist()]
    if ((field, k) != (cfg.field, cfg.k) or cfg.alphas not in rows
            or cfg.delta not in deltas):
        return None
    return rows.index(cfg.alphas) * len(deltas) + list(deltas).index(cfg.delta)


def at_configs(build, wrongs):
    """The batched builder build, but each stack entry of a config cfg in
    wrongs replaced by wrongs[cfg](entry)."""
    def faulty(field, nodes, k, deltas):
        out = build(field, nodes, k, deltas).copy()
        for cfg, wrong in wrongs.items():
            b = stack_entry(field, nodes, k, deltas, cfg)
            if b is not None:
                out[b] = wrong(out[b])
        return out
    return faulty


def generator_entries(field, G, cfg) -> np.ndarray:
    """Indices of the entries of the (B, k, N) generator stack G that are
    cfg's generator."""
    if (field, G.shape[1:]) != (cfg.field, (cfg.k, cfg.n + 2)):
        return np.array([], dtype=np.intp)
    return np.flatnonzero((G == family_code(cfg).generator.a).all(axis=(1, 2)))


def distances_at(wrongs):
    """codes._min_weight, but (d, d-dual) = wrongs[cfg] on the stack entry
    whose generator is cfg's."""
    min_weight = codes._min_weight

    def faulty(field, G):
        out = min_weight(field, G)
        if G.ndim == 3:
            d, dual_d = out
            for cfg, wrong in wrongs.items():
                hit = generator_entries(field, G, cfg)
                d[hit], dual_d[hit] = wrong
        return out
    return faulty


def extensions_at(wrongs):
    """verify._unextended, but first each entry of the w stack whose
    generator is cfg's, for cfg in wrongs, replaced by wrongs[cfg](entry)."""
    unextended = verify._unextended

    def faulty(field, G, w):
        w = w.copy()
        for cfg, wrong in wrongs.items():
            for b in generator_entries(field, G, cfg):
                w[b] = wrong(w[b])
        return unextended(field, G, w)
    return faulty


def scans_at(wrongs):
    """construction.subset_scan, but the record of each config cfg in wrongs,
    at a scalar delta or inside a vector of them, replaced by
    wrongs[cfg](record)."""
    scan = construction.subset_scan

    def faulty(field, alphas, k, delta):
        out = scan(field, alphas, k, delta)
        for cfg, wrong in wrongs.items():
            if (field, tuple(alphas), k) != (cfg.field, cfg.alphas, cfg.k):
                continue
            if np.ndim(delta) == 0 and delta == cfg.delta:
                out = wrong(out)
            elif np.ndim(delta) and cfg.delta in list(delta):
                b = list(delta).index(cfg.delta)
                out[b] = wrong(out[b])
        return out
    return faulty


def first_row_changed(entry):
    """CHOSEN's parity-check matrix with the tail entry of its first row
    changed: G.H^T != 0, while the last row, which holds w, is as it was."""
    entry = entry.copy()
    entry[0, -2] = CHOSEN.field.add(int(entry[0, -2]), 1)
    return entry


def misclassify_chosen(monkeypatch, d, dual_d) -> None:
    """The oracle gives CHOSEN's stack entry distances (d, dual_d)."""
    monkeypatch.setattr(codes, "_min_weight", distances_at({CHOSEN: (d, dual_d)}))


@pytest.fixture
def stacks(monkeypatch) -> list:
    """(q, node sets, k, deltas) of every generator stack verify builds
    during the test, in order."""
    log = []
    family_generators = verify.family_generators

    def logged(field, nodes, k, deltas):
        log.append((field.q, tuple(nodes), k, tuple(deltas)))
        return family_generators(field, nodes, k, deltas)
    monkeypatch.setattr(verify, "family_generators", logged)
    return log


def block_stacks(fields, max_n) -> list:
    """One (q, node sets, k, deltas) per (block, k) of the sweep, in order."""
    return [(job.field.q, block, k, job.delta_list())
            for job in sweep_jobs(fields, max_n)
            for block in search._blocks(job) for k in job.k_values]


def block_scans(fields, max_n) -> list[list]:
    """For each block of the sweep, in order, the (q, node set, k, deltas)
    of each criteria scan verify makes on it: each k, then each node set."""
    return [[(job.field.q, pts, k, job.delta_list())
             for k in job.k_values for pts in block]
            for job in sweep_jobs(fields, max_n) for block in search._blocks(job)]


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_chosen_config_position():
    configs = list(sweep_configs(FIELDS, MAX_N))
    assert len(configs) == SWEEP_COUNT
    assert sum(j.planned_count() for j in sweep_jobs(FIELDS, MAX_N)) == SWEEP_COUNT
    assert configs.index(CHOSEN) + 1 == CHOSEN_POSITION
    assert configs[BLOCK_START - 1].to_json() == BLOCK_START_JSON
    # the stacks before CHOSEN's hold 16 + 4 + 4 configs
    assert [len(nodes) * len(deltas) for _, nodes, _, deltas
            in block_stacks(FIELDS, MAX_N)][:4] == [16, 4, 4, 50]
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


def test_four_suites_scan_each_config_once(scanned, stacks):
    results = run_suites(["nmds", "powersum", "mds", "dual-amds", "amds"],
                         fields=FIELDS, max_n=MAX_N)
    assert [r.suite for r in results] == ["nmds", "powersum", "mds",
                                          "dual-amds", "amds"]
    assert all(r.passed for r in results)
    assert [r.checked for r in results if r.suite != "powersum"] == [SWEEP_COUNT] * 4
    # one criteria scan per (node set, k) over every delta, in block order,
    # on one stack per (block, k)
    assert scanned == sum(block_scans(FIELDS, MAX_N), [])
    assert stacks == block_stacks(FIELDS, MAX_N)


def test_wrong_classification_fails_only_the_affected_suites(monkeypatch):
    # an MDS [5, 3] code reported with d = 2 (AMDS on the primal side only):
    # the mds and amds verdicts break the rule, dual-amds and nmds still hold
    misclassify_chosen(monkeypatch, 2, 4)
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


def test_parity_and_extend_build_each_config_once(stacks):
    results = run_suites(["extend", "parity"], fields=FIELDS, max_n=MAX_N)
    assert results == [SuiteResult("extend", True, SWEEP_COUNT),
                       SuiteResult("parity", True, SWEEP_COUNT)]
    # each config sits in exactly one stack, which both suites read
    assert stacks == block_stacks(FIELDS, MAX_N)


def test_wrong_parity_check_fails_only_parity(monkeypatch):
    monkeypatch.setattr(verify, "family_parity_checks", at_configs(
        verify.family_parity_checks, {CHOSEN: first_row_changed}))
    results = run_suites(SWEEP_SUITES, fields=FIELDS, max_n=MAX_N)
    assert results == [
        SuiteResult("parity", False, CHOSEN_POSITION,
                    {"config": CHOSEN_JSON, "reason": "G.H^T != 0"}),
    ] + [SuiteResult(suite, True, SWEEP_COUNT) for suite in SWEEP_SUITES[1:]]
    assert verify.check_parity(FIELDS, MAX_N) == results[0]


def wider_at_chosen(build):
    """The batched H builder, but one zero column too many on the whole
    stack that holds CHOSEN: G.H^T would not even multiply."""
    def faulty(field, nodes, k, deltas):
        H = build(field, nodes, k, deltas)
        if stack_entry(field, nodes, k, deltas, CHOSEN) is None:
            return H
        return np.concatenate([H, np.zeros_like(H[..., :1])], axis=-1)
    return faulty


@pytest.mark.parametrize("wrong, reason, checked, config", [
    # the last row repeats the first: G.H^T is still 0, but H is rank-deficient
    (lambda build: at_configs(build, {CHOSEN: lambda a: np.vstack([a[:-1], a[:1]])}),
     "row space is not the dual", CHOSEN_POSITION, CHOSEN_JSON),
    # a stack of the wrong shape fails as a whole, at its first config
    (wider_at_chosen, "bad shape", BLOCK_START, BLOCK_START_JSON),
], ids=["rank-deficient", "one-column-wide"])
def test_broken_parity_check_is_a_counterexample(capsys, monkeypatch, wrong,
                                                 reason, checked, config):
    monkeypatch.setattr(verify, "family_parity_checks",
                        wrong(verify.family_parity_checks))
    code = main(["verify", "parity", "--orders", "4,5", "--max-n", str(MAX_N),
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == [SuiteResult(
        "parity", False, checked, {"config": config, "reason": reason}).to_json()]


# a gf(5) config whose Schur screen squares the dual: n = 5, k = 4, N - k = 3
UNPROVEN = EvalConfig.ones(Field.from_order(5), (0, 1, 2, 3, 4), 4, 2)
UNPROVEN_STACK_START = dataclasses.replace(UNPROVEN, delta=0)


def widened(build):
    """The batched H builder, but one zero column too many on every stack."""
    def faulty(field, nodes, k, deltas):
        H = build(field, nodes, k, deltas)
        return np.concatenate([H, np.zeros_like(H[..., :1])], axis=-1)
    return faulty


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("wrong, reason, config", [
    (lambda build: at_configs(build, {UNPROVEN: first_row_changed}),
     "G.H^T != 0", UNPROVEN),
    # a stack of the wrong shape fails as a whole, at its first config
    (widened, "bad shape", UNPROVEN_STACK_START),
], ids=["first-row-changed", "one-column-wide"])
def test_search_refuses_an_unproven_parity_check(capsys, monkeypatch, wrong,
                                                 reason, config, jobs):
    """Search squares the dual from family_parity_checks only once they are
    proven: a faulty one is a disagreement, never a silent fallback."""
    monkeypatch.setattr(search, "family_parity_checks",
                        wrong(search.family_parity_checks))
    code = main(["search", "--field", "gf(5)", "--n", "5", "--k", "3-5",
                 "--format", "json", "--jobs", jobs])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ("error: criterion/brute-force disagreement (parity check "
                   f"fails: {reason}) on config {json.dumps(config.to_json())}\n")


def test_refused_extension_vector_is_a_counterexample(capsys, monkeypatch):
    # the zero vector, which extend_code refuses
    monkeypatch.setattr(verify, "_unextended", extensions_at({CHOSEN: np.zeros_like}))
    code = main(["verify", "extend", "--orders", "4,5", "--max-n", str(MAX_N),
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == [SuiteResult(
        "extend", False, CHOSEN_POSITION, {"config": CHOSEN_JSON}).to_json()]


@pytest.mark.parametrize("reshape", [
    lambda w: w[:, :-1],
    lambda w: np.concatenate([w, np.zeros_like(w[:, :1])], axis=1),
], ids=["one-entry-short", "one-entry-wide"])
def test_extension_stack_of_wrong_shape_is_a_counterexample(capsys, monkeypatch,
                                                            reshape):
    """A w stack of the wrong shape fails as a whole, at its first config, as
    a parity-check stack of the wrong shape does."""
    unextended = verify._unextended

    def faulty(field, G, w):
        if len(generator_entries(field, G, CHOSEN)):
            w = reshape(w)
        return unextended(field, G, w)
    monkeypatch.setattr(verify, "_unextended", faulty)
    code = main(["verify", "extend", "--orders", "4,5", "--max-n", str(MAX_N),
                 "--format", "json"])
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert json.loads(out) == [SuiteResult(
        "extend", False, BLOCK_START, {"config": BLOCK_START_JSON}).to_json()]


def test_sweep_ends_when_every_suite_has_failed(monkeypatch, scanned, stacks):
    # reported NMDS, every one of the four verdicts breaks the rule
    misclassify_chosen(monkeypatch, 2, 3)
    monkeypatch.setattr(verify, "family_parity_checks", at_configs(
        verify.family_parity_checks, {CHOSEN: first_row_changed}))
    monkeypatch.setattr(verify, "_unextended", extensions_at(
        {CHOSEN: lambda w: np.asarray(extension_vector(
            dataclasses.replace(CHOSEN, delta=1)))}))
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
    # no criteria scan and no stack is made past CHOSEN's block, the third
    assert scanned == sum(block_scans(FIELDS, MAX_N)[:3], [])
    assert (CHOSEN.field.q, CHOSEN.alphas, CHOSEN.k, tuple(CHOSEN.field.elements())) \
        in block_scans(FIELDS, MAX_N)[2]
    assert stacks == block_stacks(FIELDS, MAX_N)[:4]


def test_sweep_scans_each_node_set_once_per_k(scanned):
    """verify and search make one criteria scan per (node set, k), over all
    its deltas, not one per config."""
    run_suites(CRITERION_SUITES, fields=FIELDS, max_n=MAX_N)
    scans = sum(job.point_set_count() * len(job.k_values)
                for job in sweep_jobs(FIELDS, MAX_N))
    assert (len(scanned), scans) == (26, 26)
    job = SearchJob(Field.from_order(7), 4, (3, 4))
    run_search(job)
    assert len(scanned) - 26 == job.point_set_count() * 2 < job.planned_count()


# configs in the middle of the gf(5), n = 3 block and of their node set's
# deltas: an MDS one, and an NMDS one two node sets on
INSIDE_MDS = EvalConfig.ones(Field.from_order(5), (0, 1, 3), 3, 2)
INSIDE_NMDS = EvalConfig.ones(Field.from_order(5), (0, 1, 4), 3, 3)


@pytest.mark.parametrize("suite", CRITERION_SUITES)
@pytest.mark.parametrize("cfg, position, wrong, broken", [
    # an E1 witness: every verdict of an MDS config breaks its rule
    (INSIDE_MDS, 32, lambda c: c._replace(zero_sum=(0, 1, 2)),
     {"mds": (False, "MDS", 0, 0), "amds": (True, "MDS", 0, 0),
      "dual-amds": (True, "MDS", 0, 0), "nmds": (True, "MDS", 0, 0)}),
    # a U2 failure: amds and nmds no longer hold on an NMDS config
    (INSIDE_NMDS, 38, lambda c: c._replace(u2_failure=(0, 1, 2)),
     {"amds": (False, "NMDS", 1, 1), "nmds": (False, "NMDS", 1, 1)}),
], ids=["E1-on-MDS", "U2-on-NMDS"])
def test_wrong_verdict_inside_a_block_is_the_reference_counterexample(
        monkeypatch, suite, cfg, position, wrong, broken):
    """A wrong first witness at a fixed config inside a block, and inside its
    node set's vector of deltas, fails the suites whose rule it breaks
    there, with the counterexample the per-config reference reports."""
    assert list(sweep_configs(FIELDS, MAX_N)).index(cfg) + 1 == position
    assert position > BLOCK_START
    want = reference_sweep(FIELDS, MAX_N, [suite], criteria_of=lambda c: (
        wrong(criteria(c)) if c == cfg else criteria(c)))
    monkeypatch.setattr(search, "subset_scan", scans_at({cfg: wrong}))
    got = run_suites([suite], fields=FIELDS, max_n=MAX_N)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    if suite not in broken:
        assert got == [SuiteResult(suite, True, SWEEP_COUNT)]
        return
    holds, kind, defect, dual_defect = broken[suite]
    assert got[0].to_json() == {
        "suite": suite, "passed": False, "checked": position,
        "counterexample": {"config": cfg.to_json(), "criterion_holds": holds,
                           "class": kind, "singleton_defect": defect,
                           "dual_defect": dual_defect},
        "detail": ""}


def witness_flipped(crit: construction.Criteria, k: int) -> construction.Criteria:
    """crit with "E1 or E2" negated, so mds and dual-amds both break their
    rule: a zero-sum witness where there was none, else no witness at all."""
    if crit.zero_sum is None and crit.delta_match is None:
        return crit._replace(zero_sum=tuple(range(k)))
    return crit._replace(zero_sum=None, delta_match=None, u2_failure=None)


@settings(max_examples=20)
@given(job=search_jobs(), data=st.data())
def test_check_stack_equals_the_per_config_reference(job, data):
    """check_stack on a drawn block, entry by entry, against each config's
    own code and scan; then one wrong witness at a drawn config, which
    search reports as evaluate_config does and verify as the reference."""
    job = dataclasses.replace(job, jobs=1)
    f, deltas = job.field, job.delta_list()
    block = data.draw(st.sampled_from(list(search._blocks(job))))
    for k in job.k_values:
        G = construction.family_generators(f, block, k, deltas)
        d, dual_d, crits, broken = search.check_stack(job, block, k, G)
        assert broken.shape == (4, len(block) * len(deltas))
        for b, (pts, delta) in enumerate(itertools.product(block, deltas)):
            cfg = EvalConfig.ones(f, pts, k, delta)
            cls = classify(family_code(cfg))
            assert (d[b], dual_d[b]) == (cls.min_distance, cls.dual_min_distance)
            assert crits[b] == criteria(cfg)
            assert broken[:, b].tolist() == [
                p != a for _, p, a in crits[b].checks(cls)]

    bad = data.draw(st.sampled_from(list(iter_configs(job))))
    wrong = {bad: lambda c: witness_flipped(c, bad.k)}
    faulty = scans_at(wrong)
    with pytest.MonkeyPatch.context() as mp:
        for module in (construction, search):
            mp.setattr(module, "subset_scan", faulty)
        with pytest.raises(search.SearchMismatchError) as per_config:
            search.evaluate_config(bad)
        with pytest.raises(search.SearchMismatchError) as searched:
            run_search(job)
    assert str(searched.value) == str(per_config.value)
    assert searched.value.config == bad

    cfg = data.draw(st.sampled_from(list(sweep_configs(FIELDS, MAX_N))))
    wrong = {cfg: lambda c: witness_flipped(c, cfg.k)}
    want = reference_sweep(FIELDS, MAX_N, CRITERION_SUITES, criteria_of=lambda c: (
        wrong[c](criteria(c)) if c in wrong else criteria(c)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "subset_scan", scans_at(wrong))
        got = run_suites(CRITERION_SUITES, fields=FIELDS, max_n=MAX_N)
    assert got == want
    assert not got[0].passed and not got[2].passed


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


# ---------------------------------------------------------------------------
# drawn scopes, blocks and faults against the reference
# ---------------------------------------------------------------------------

SCOPE_LIMIT = 800       # configs per drawn scope, so the reference stays quick


@st.composite
def faulty_scopes(draw):
    """(fields, max_n, block size, {suite: (1-based position, fault)},
    (1-based position, generator fault))."""
    orders = draw(st.lists(st.sampled_from((4, 5, 7, 8, 9)), min_size=1,
                           max_size=2, unique=True))
    fields = tuple(Field.from_order(q) for q in orders)

    def count(max_n):
        return sum(job.planned_count() for job in sweep_jobs(fields, max_n))
    max_n = draw(st.sampled_from([m for m in range(3, 7)
                                  if m == 3 or count(m) <= SCOPE_LIMIT]))
    faults = {}
    for suite in SWEEP_SUITES:
        position = draw(st.integers(1, count(max_n)))
        if suite == "parity":
            # one tail entry of H, or its last row replaced by its first
            fault = draw(st.one_of(
                st.tuples(st.just("tail"), st.integers(0, 100),
                          st.sampled_from((-2, -1)), st.integers(1, 8)),
                st.just(("rank",))))
        elif suite == "extend":
            fault = draw(st.one_of(st.just(("zero",)),
                                   st.tuples(st.just("entry"), st.integers(0, 100),
                                             st.integers(1, 8))))
        else:
            fault = ("distances", draw(st.integers(1, 7)), draw(st.integers(1, 7)))
        faults[suite] = position, fault
    # one entry of the generator's first n+1 columns: (row, column, addend)
    generator_fault = (draw(st.integers(1, count(max_n))),
                       (draw(st.integers(0, 100)), draw(st.integers(0, 100)),
                        draw(st.integers(1, 8))))
    # blocks of one to three node sets, and in some draws the default size,
    # whose blocks hold many node sets
    block_configs = draw(st.integers(1, 12) | st.just(search.BLOCK_CONFIGS))
    return fields, max_n, block_configs, faults, generator_fault


def parity_fault(fault, field):
    """The 2-D H a parity fault makes of H."""
    if fault[0] == "rank":
        return lambda a: np.vstack([a[:-1], a[:1]])
    _, row, col, add = fault

    def tail_entry(a):
        a = a.copy()
        r = row % a.shape[0]
        a[r, col] = field.add(int(a[r, col]), add % (field.q - 1) + 1)
        return a
    return tail_entry


def extend_fault(fault, field):
    """The w an extend fault makes of w."""
    if fault[0] == "zero":
        return np.zeros_like
    _, entry, add = fault

    def changed(w):
        w = w.copy()
        w[entry % len(w)] = field.add(int(w[entry % len(w)]), add % (field.q - 1) + 1)
        return w
    return changed


@settings(max_examples=30)
@given(faulty_scopes())
def test_block_sweep_equals_per_config_reference(scope):
    fields, max_n, block_configs, faults, generator_fault = scope
    configs = list(sweep_configs(fields, max_n))
    H_wrongs, w_wrongs, distances = {}, {}, {}
    for suite, (position, fault) in faults.items():
        cfg = configs[position - 1]
        if suite == "parity":
            H_wrongs[cfg] = parity_fault(fault, cfg.field)
        elif suite == "extend":
            w_wrongs[cfg] = extend_fault(fault, cfg.field)
        else:
            N, k = cfg.n + 2, cfg.k
            distances[cfg] = (1 + fault[1] % (N - k + 1), 1 + fault[2] % (k + 1))

    def reference_classification(cfg):
        if cfg in distances:
            return Classification.of_distances(cfg.n + 2, cfg.k, *distances[cfg])
        return classify(family_code(cfg))

    def reference_parity_check(cfg):
        H = parity_check_matrix(cfg)
        return Matrix(H.field, H_wrongs[cfg](H.a)) if cfg in H_wrongs else H

    def reference_extension(cfg):
        # the sweep reads w off H's last row, (w, -1), so a fault of H's
        # last row is a fault of w too
        w = reference_parity_check(cfg).a[-1, :-1]
        return tuple((w_wrongs[cfg](w) if cfg in w_wrongs else w).tolist())

    want = reference_sweep(fields, max_n, SWEEP_SUITES,
                           parity_check=reference_parity_check,
                           extension=reference_extension,
                           classification=reference_classification)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "BLOCK_CONFIGS", block_configs)
        mp.setattr(verify, "family_parity_checks",
                   at_configs(verify.family_parity_checks, H_wrongs))
        mp.setattr(verify, "_unextended", extensions_at(w_wrongs))
        mp.setattr(codes, "_min_weight", distances_at(distances))
        got = run_suites(SWEEP_SUITES, fields=fields, max_n=max_n)
    assert got == want
    # a tail entry of H changed always fails the parity suite
    position, fault = faults["parity"]
    if fault[0] == "tail":
        assert (got[0].passed, got[0].checked, got[0].counterexample["reason"]) \
            == (False, position, "G.H^T != 0")

    # a changed entry of the one-tail columns of G: parity sees it exactly
    # where that column of H is nonzero.  Extend trusts family_generators for
    # those columns and sees the change only through G's product with w, so
    # exactly where w's entry for that column is nonzero
    position, (row, col, add) = generator_fault
    cfg = configs[position - 1]
    row, col = row % cfg.k, col % (cfg.n + 1)

    def changed(g):
        g = g.copy()
        g[row, col] = cfg.field.add(int(g[row, col]), add % (cfg.field.q - 1) + 1)
        return g
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "BLOCK_CONFIGS", block_configs)
        mp.setattr(verify, "family_generators",
                   at_configs(verify.family_generators, {cfg: changed}))
        got = run_suites(["parity", "extend"], fields=fields, max_n=max_n)
    found = {"config": cfg.to_json()}
    assert got == [
        SuiteResult("parity", False, position, {**found, "reason": "G.H^T != 0"})
        if parity_check_matrix(cfg).a[:, col].any()
        else SuiteResult("parity", True, len(configs)),
        SuiteResult("extend", False, position, found)
        if extension_vector(cfg)[col]
        else SuiteResult("extend", True, len(configs)),
    ]


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
