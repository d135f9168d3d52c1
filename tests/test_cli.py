"""Search layer and command-line behaviour, including output determinism."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import random
import re
import shlex
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mdslab.gf import Field
from mdslab.cli import build_parser, main
from mdslab import search
from mdslab.construction import EvalConfig
from mdslab.search import (
    BudgetExceededError,
    SearchJob,
    iter_configs,
    records_to_csv,
    records_to_json,
    run_search,
    unrank_combination,
)
from mdslab.verify import QUICK_FIELD_ORDERS, QUICK_MAX_N, SWEEP_SUITES, sweep_jobs

DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"
# sha256 of `search --field gf(7) --n 4 --k all --format json`, recorded from
# the loop-based criteria before they were vectorized
GOLDEN_GF7_N4_JSON_SHA256 = (
    "fef1e16cc4805c89daf3c79e337fa12d443ab5270c35925cc6e474b2845764d8")
# sha256 of `search --field gf(9) --n 5 --k all --format csv`, recorded from
# the search that classified one config at a time
GOLDEN_GF9_N5_CSV_SHA256 = (
    "90326257a892f6d4a6f30cc013afe4f040885e237d924e0e3f9513761d538534")
# sha256 of `search --field gf(9) --n 5 --k all --format json` (all five
# classes, both Schur regimes), recorded from the single json.dumps renderer
GOLDEN_GF9_N5_JSON_SHA256 = (
    "4c29794a5b807be125c08d09db166c76c387cb0aabb39b8e55f866bfe6de4ebb")
# sha256 of `verify all --quick --format json`, recorded from the four
# separate criterion sweeps before they became one
GOLDEN_VERIFY_QUICK_JSON_SHA256 = (
    "c8e896033b63d5fbbfda9eccb89e86551c45b004d53d67062b13bd884ac088f7")
# sha256 of `verify all --format json` (the full default scope), recorded
# from the sweep that built, reduced and classified one config at a time
GOLDEN_VERIFY_ALL_JSON_SHA256 = (
    "238eb9cc39250818591b1b49ae42e5968b86b4aa51e27d28261f6497322e2dd9")

GF4 = Field.from_order(4)
GF5 = Field.from_order(5)
GF7 = Field.from_order(7)

EXAMPLE1_ARGS = ["--field", "gf(4)", "--points", "0,1,g", "--k", "3",
                 "--delta", "g"]


# ---------------------------------------------------------------------------
# search layer
# ---------------------------------------------------------------------------

def test_unrank_combination_matches_lex_order():
    for pool in (4, 6, 8):
        for size in (2, 3):
            expected = list(itertools.combinations(range(pool), size))
            got = [unrank_combination(pool, size, i)
                   for i in range(math.comb(pool, size))]
            assert got == expected
    with pytest.raises(ValueError):
        unrank_combination(5, 3, math.comb(5, 3))


def test_search_job_validation():
    with pytest.raises(ValueError):
        SearchJob(GF5, 6, (3,))                      # n > q
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, (5,))                      # k > n
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, ())
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, (3,), subsets=((0, 1, 2, 3),), sample=2)
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, (3,), subsets=((0, 1, 2),))
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, (3,), target="MDSish")
    with pytest.raises(ValueError):
        SearchJob(GF5, 4, (3,), budget=0)


def test_search_visit_order_and_count():
    job = SearchJob(GF5, 4, (3, 4), deltas=(0, 2))
    cfgs = list(iter_configs(job))
    assert len(cfgs) == job.planned_count() == math.comb(5, 4) * 2 * 2
    assert [c.alphas for c in cfgs[:4]] == [(0, 1, 2, 3)] * 4
    assert [(c.k, c.delta) for c in cfgs[:4]] == [(3, 0), (3, 2), (4, 0), (4, 2)]


def test_search_budget_guard():
    job = SearchJob(GF7, 4, (3,), budget=10)
    with pytest.raises(BudgetExceededError) as exc:
        run_search(job)
    assert exc.value.needed == math.comb(7, 4) * 7
    assert exc.value.budget == 10


def test_search_deterministic_and_parallel_identical():
    job1 = SearchJob(GF5, 4, (3,), seed=7)
    job2 = SearchJob(GF5, 4, (3,), seed=7)
    jobp = SearchJob(GF5, 4, (3,), seed=7, jobs=2)
    out1 = records_to_csv(run_search(job1))
    assert out1 == records_to_csv(run_search(job2))
    assert out1 == records_to_csv(run_search(jobp))


def test_search_sampling_is_seeded():
    full = {c.alphas for c in iter_configs(SearchJob(GF7, 4, (3,)))}
    a = [c.alphas for c in iter_configs(SearchJob(GF7, 4, (3,), sample=5,
                                                  deltas=(0,), seed=3))]
    b = [c.alphas for c in iter_configs(SearchJob(GF7, 4, (3,), sample=5,
                                                  deltas=(0,), seed=3))]
    c = [x.alphas for x in iter_configs(SearchJob(GF7, 4, (3,), sample=5,
                                                  deltas=(0,), seed=4))]
    assert a == b
    assert a != c
    assert set(a) <= full
    assert len(set(a)) == 5
    assert a == sorted(a)


def test_sample_draw_past_sys_maxsize_is_random_sample_draw():
    """The rejection draw used past sys.maxsize is the one random.sample
    makes by itself wherever both can run."""
    for seed, total, size in ((5, 10**6, 7), (9, 3000, 40), (1, 10**15, 2)):
        want = random.Random(seed).sample(range(total), size)
        assert search._draw_rejecting_repeats(random.Random(seed), total, size) == want


def test_jobs_capped_at_core_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert SearchJob(GF5, 4, (3,), jobs=64).workers() == 3
    assert SearchJob(GF5, 4, (3,), jobs=2).workers() == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)   # unknown: one core
    assert SearchJob(GF5, 4, (3,), jobs=64).workers() == 1

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on a one-core machine")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    job = SearchJob(GF5, 4, (3,), deltas=(0,), jobs=64)
    assert len(run_search(job)) == 5


def test_search_filter_and_json():
    job = SearchJob(GF4, 3, (3,), target="MDS")
    records = run_search(job)
    assert [(r.config.alphas, r.config.delta) for r in records] == [
        ((0, 1, 2), 2), ((0, 1, 3), 3), ((0, 2, 3), 1)]
    payload = json.loads(records_to_json(records))
    assert payload[0]["classification"]["class"] == "MDS"
    assert payload[0]["criteria"]["mds"]["holds"] is True
    assert payload[0]["grs"]["verdict"] == "Inconclusive"


def test_search_filters_records_as_they_arrive(monkeypatch):
    """Records the filter drops are freed within the block that built them."""
    built = alive = peak = 0
    record = search.SearchRecord

    def counted(*args):
        nonlocal built, alive, peak
        r = record(*args)
        built += 1
        alive += 1
        peak = max(peak, alive)

        def freed():
            nonlocal alive
            alive -= 1
        weakref.finalize(r, freed)
        return r
    monkeypatch.setattr(search, "SearchRecord", counted)
    monkeypatch.setattr(search, "BLOCK_CONFIGS", 5)     # a node set a block
    assert run_search(SearchJob(GF5, 4, (3,), target="Other")) == []
    assert built == 25
    assert peak <= 5


def reference_records(job: SearchJob) -> list:
    """The job's records through evaluate_config, one config at a time."""
    return [r for r in map(search.evaluate_config, iter_configs(job))
            if job.target is None or r.classification.kind == job.target]


def test_blocks_match_evaluate_config_on_the_quick_sweep():
    fields = tuple(Field.from_order(q) for q in QUICK_FIELD_ORDERS)
    jobs = sweep_jobs(fields, QUICK_MAX_N)
    got = [r for job in jobs for r in run_search(job)]
    want = [r for job in jobs for r in reference_records(job)]
    assert len(got) == 1315
    assert got == want
    assert records_to_json(got) == records_to_json(want)


@st.composite
def search_jobs(draw):
    f = Field.from_order(draw(st.sampled_from((4, 5, 7, 8, 9))))
    n = draw(st.integers(3, min(f.q, 6)))
    k_lo = draw(st.integers(3, n))
    k_values = tuple(range(k_lo, draw(st.integers(k_lo, n)) + 1))
    deltas = draw(st.none() | st.lists(st.sampled_from(range(f.q)), min_size=1,
                                      max_size=4, unique=True).map(tuple))
    nodes = st.lists(st.sampled_from(range(f.q)), min_size=n, max_size=n,
                     unique=True).map(tuple)
    how = draw(st.sampled_from(("points", "sample")))
    subsets = sample = None
    if how == "points":
        subsets = tuple(draw(st.lists(nodes, min_size=1, max_size=3,
                                      unique_by=frozenset)))
    else:
        sample = draw(st.integers(1, 6))
    return SearchJob(f, n, k_values, deltas=deltas, subsets=subsets, sample=sample,
                     seed=draw(st.integers(0, 99)),
                     target=draw(st.none() | st.sampled_from(search.CODE_CLASSES)),
                     jobs=draw(st.sampled_from((1, 2))))


@settings(max_examples=25)
@given(job=search_jobs(), block=st.integers(1, 12))
def test_blocks_match_evaluate_config_on_drawn_jobs(job, block):
    with mock.patch.object(search, "BLOCK_CONFIGS", block):
        got = run_search(job)
    assert got == reference_records(job)
    assert records_to_json(got) == records_to_json(reference_records(job))


def json_reference(records: list) -> str:
    """What records_to_json must return: one json.dumps of every to_json."""
    return json.dumps([r.to_json() for r in records], indent=2) + "\n"


def test_record_keys_are_the_record_fields_in_order():
    record = run_search(SearchJob(GF5, 4, (3,), deltas=(0,)))[0]
    assert search.RECORD_KEYS == ("config", "classification", "grs", "criteria")
    assert tuple(record.to_json()) == search.RECORD_KEYS


@settings(max_examples=30)
@given(job=search_jobs())
@example(job=SearchJob(GF5, 4, (3,), target="Other"))       # no record passes
def test_records_to_json_is_json_dumps_of_to_json(job):
    """The memo's text equals the one-call json.dumps on every class filter,
    on records a pool returned, from a cold memo, and when every lookup
    misses, so the memo's state changes speed and never bytes."""
    for target in (None,) + search.CODE_CLASSES:
        records = run_search(dataclasses.replace(job, target=target, jobs=1))
        assert records_to_json(records) == json_reference(records)
    records = run_search(job)
    want = json_reference(records)
    assert records_to_json(run_search(dataclasses.replace(job, jobs=2))) == want
    search._member.cache_clear()
    assert records_to_json(records) == want
    assert search._member.cache_info().currsize <= search.RENDER_MEMO
    missing = functools.lru_cache(maxsize=0)(search._member.__wrapped__)
    with mock.patch.object(search, "_member", missing):
        assert records_to_json(records) == want
    assert missing.cache_info().hits == 0


def test_mismatch_inside_a_block_replays_the_per_config_error(capsys, monkeypatch):
    """A wrong verdict at config 1500 of the gf(9), n = 5 search, in its
    second block, is reported as evaluate_config reports it."""
    job = SearchJob(Field.from_order(9), 5, (3, 4, 5))
    bad = next(itertools.islice(iter_configs(job), 1500, None))
    crit = search.criteria

    def wrong_at_bad(cfg):
        out = crit(cfg)
        if cfg == bad:
            out = out._replace(mds=dataclasses.replace(out.mds, holds=not out.mds.holds))
        return out
    monkeypatch.setattr(search, "criteria", wrong_at_bad)
    assert len(list(search._blocks(job))) > 2
    with pytest.raises(search.SearchMismatchError) as per_config:
        search.evaluate_config(bad)
    code, out, err = run_cli(capsys, ["search", "--field", "gf(9)", "--n", "5",
                                      "--format", "csv"])
    assert (code, out, err) == (1, "", f"error: {per_config.value}\n")
    assert err == (
        "error: criterion/brute-force disagreement (mds criterion says True, "
        "code says False) on config "
        + json.dumps(bad.to_json()) + "\n")
    assert bad.to_json() == {"field": "gf(3^2):1,0,1", "A": [0, 3, 4, 5, 6],
                             "v": "ones", "k": 4, "delta": 6}


def test_search_witness_column():
    # 1 + 2 + 4 = 0 certifies the dual defect; every pair inside that triple
    # also Q-matches delta = 0, so the primal side is two away from Singleton
    job = SearchJob(GF7, 4, (3,), subsets=((1, 2, 3, 4),), deltas=(0,))
    rec = run_search(job)[0]
    assert rec.classification.kind == "AMDS_only_dual"
    assert rec.classification.min_distance == 2
    assert rec.classification.dual_min_distance == 3
    assert rec.witness_string() == "zero_sum_k:0+1+3"
    assert rec.criteria.amds.clause == "all_k_minus_1_subsets_match_delta"
    assert rec.criteria.amds.witness == (0, 1, 3)


def test_evaluate_config_scans_once(scanned):
    cfg = EvalConfig.ones(GF7, (1, 2, 3, 4), 3, 0)
    record = search.evaluate_config(cfg)
    assert scanned == [cfg]
    assert record.criteria.dual_amds.witness == (0, 1, 3)


# ---------------------------------------------------------------------------
# cli: construct
# ---------------------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_example1(capsys):
    code, out, err = run_cli(capsys, ["construct"] + EXAMPLE1_ARGS)
    assert code == 0
    assert out == "1,1,1,0,0;0,1,g,0,1;0,1,1,1,g\n"


def test_construct_example2(capsys):
    code, out, _ = run_cli(capsys, [
        "construct", "--field", "gf(8)", "--points", "1,g,g^2,g^5",
        "--k", "3", "--delta", "g^4"])
    assert code == 0
    assert out == "1,1,1,1,0,0;1,g,g^2,g^5,0,1;1,g^3,g^6,g,1,g^4\n"


def test_construct_parity_check(capsys):
    code, out, _ = run_cli(capsys, ["construct"] + EXAMPLE1_ARGS
                           + ["--parity-check"])
    assert code == 0
    assert out == ("generator: 1,1,1,0,0;0,1,g,0,1;0,1,1,1,g\n"
                   "parity_check: g^2,g,1,g^2,0;0,g,g,g,1\n")


def test_construct_other_builders(capsys):
    code, out, _ = run_cli(capsys, [
        "construct", "--which", "g4", "--field", "gf(7)",
        "--points", "1,2,3,4", "--k", "3"])
    assert (code, out) == (0, "1,1,1,1,0;1,2,3,4,0;1,1,6,1,1\n")
    code, out, _ = run_cli(capsys, [
        "construct", "--which", "g1", "--field", "gf(7)",
        "--points", "1,2,3,4", "--k", "3", "--delta", "5"])
    assert (code, out) == (0, "1,1,1,1,0,0;1,2,3,4,0,1;1,4,2,2,1,5\n")
    code, out, _ = run_cli(capsys, [
        "construct", "--which", "g2", "--field", "gf(7)",
        "--points", "1,2,3,4", "--k", "3", "--delta", "5",
        "--tau", "2", "--pi", "3"])
    assert (code, out) == (0, "1,1,1,1,0,0,1;1,2,3,4,0,1,2;1,4,2,2,1,5,3\n")
    code, out, _ = run_cli(capsys, [
        "construct", "--which", "grs", "--field", "gf(7)",
        "--points", "0,1,2", "--k", "3"])
    assert (code, out) == (0, "1,1,1;0,1,2;0,1,4\n")


def test_construct_json_format(capsys):
    code, out, _ = run_cli(capsys, ["construct", "--format", "json"]
                           + EXAMPLE1_ARGS)
    assert code == 0
    assert json.loads(out) == {"generator": "1,1,1,0,0;0,1,g,0,1;0,1,1,1,g"}


def test_construct_usage_errors(capsys):
    code, _, err = run_cli(capsys, [
        "construct", "--which", "g3", "--field", "gf(7)",
        "--points", "1,2,3", "--k", "3", "--parity-check"])
    assert code == 2 and "parity-check" in err
    code, _, err = run_cli(capsys, [
        "construct", "--which", "g2", "--field", "gf(7)",
        "--points", "1,2,3,4", "--k", "3", "--delta", "5"])
    assert code == 2 and "tau" in err
    code, _, err = run_cli(capsys, ["construct", "--field", "gf(7)",
                                    "--points", "1,2,3", "--k", "3"])
    assert code == 2 and "delta" in err
    code, _, err = run_cli(capsys, ["construct", "--field", "gf(6)",
                                    "--points", "1,2,3", "--k", "3",
                                    "--delta", "0"])
    assert code == 2 and "error" in err
    code, _, err = run_cli(capsys, ["construct", "--format", "csv"]
                           + EXAMPLE1_ARGS)
    assert code == 2 and "csv" in err


@pytest.mark.parametrize("which, flag", [
    ("g1", "--v"), ("g2", "--v"), ("g3", "--v"), ("g4", "--v"),
    ("gk", "--tau"), ("g1", "--tau"), ("g3", "--pi"), ("grs", "--pi"),
    ("g3", "--delta"), ("g4", "--delta"), ("grs", "--delta"),
])
def test_construct_refuses_flags_its_family_ignores(capsys, which, flag):
    code, out, err = run_cli(capsys, [
        "construct", "--which", which, "--field", "gf(7)",
        "--points", "1,2,3,4", "--k", "3", "--delta", "5", flag, "2"])
    assert (code, out, err) == (
        2, "", f"error: {flag} does not apply to --which {which}\n")


MATRIX_ARGS = ["--field", "gf(7)", "--matrix", "1,1,1,1;0,1,2,3"]


@pytest.mark.parametrize("command", ["classify", "schur"])
@pytest.mark.parametrize("extra, flag", [
    (["--k", "4"], "--k"), (["--delta", "5"], "--delta"),
    (["--v", "1,2,3,4"], "--v"), (["--points", "1,2,3,4"], "--points"),
    (["--config", "cfg.json"], "--config"),
])
def test_matrix_refuses_flags_it_ignores(capsys, command, extra, flag):
    code, out, err = run_cli(capsys, [command] + MATRIX_ARGS + extra)
    assert (code, out, err) == (2, "", f"error: {flag} does not apply to --matrix\n")


@pytest.mark.parametrize("command", ["construct", "classify", "schur"])
@pytest.mark.parametrize("extra, flag", [
    (["--field", "gf(5)"], "--field"), (["--k", "4"], "--k"),
    (["--delta", "1"], "--delta"), (["--v", "1,1,1"], "--v"),
    (["--points", "0,1,2"], "--points"),
])
def test_config_refuses_flags_it_ignores(capsys, tmp_path, command, extra, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"field": "gf(8)", "A": [0, 1, "g"],
                                "v": "ones", "k": 3, "delta": "g"}))
    code, out, err = run_cli(capsys, [command, "--config", str(path)] + extra)
    assert (code, out, err) == (2, "", f"error: {flag} does not apply to --config\n")


def test_construct_g2_from_config_reads_tau_and_pi(capsys, tmp_path):
    # a config carries no --tau or --pi, so g2 still takes them as flags
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"field": "gf(7)", "A": [1, 2, 3, 4],
                                "v": "ones", "k": 3, "delta": 5}))
    from_flags = run_cli(capsys, [
        "construct", "--which", "g2", "--field", "gf(7)", "--points", "1,2,3,4",
        "--k", "3", "--delta", "5", "--tau", "2", "--pi", "3"])
    from_config = run_cli(capsys, [
        "construct", "--which", "g2", "--config", str(path), "--tau", "2", "--pi", "3"])
    assert from_config == from_flags
    assert from_config[:2] == (0, "1,1,1,1,0,0,1;1,2,3,4,0,1,2;1,4,2,2,1,5,3\n")


@pytest.mark.parametrize("which, flag", [("g1", "--tau"), ("gk", "--pi")])
def test_config_refuses_tau_and_pi_outside_g2(capsys, tmp_path, which, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"field": "gf(7)", "A": [1, 2, 3, 4],
                                "v": "ones", "k": 3, "delta": 5}))
    code, out, err = run_cli(capsys, [
        "construct", "--which", which, "--config", str(path), flag, "2"])
    assert (code, out, err) == (2, "", f"error: {flag} does not apply to --config\n")


def test_construct_from_config_file(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"field": "gf(4)", "A": [0, 1, "g"],
                                "v": "ones", "k": 3, "delta": "g"}))
    code, out, _ = run_cli(capsys, ["construct", "--config", str(path)])
    assert (code, out) == (0, "1,1,1,0,0;0,1,g,0,1;0,1,1,1,g\n")


@pytest.mark.parametrize("bad, field", [
    ({"A": 5}, "'A'"),
    ({"A": "0,1,g"}, "'A'"),
    ({"k": True}, "'k'"),
    ({"delta": True}, "'delta'"),
])
def test_config_file_type_errors_exit_2(capsys, tmp_path, bad, field):
    obj = {"field": "gf(4)", "A": [0, 1, "g"], "k": 3, "delta": "g"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**obj, **bad}))
    code, out, err = run_cli(capsys, ["classify", "--config", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: config field " + field)
    assert err.count("\n") == 1


def test_unexpected_exception_is_one_line_exit_2(capsys, monkeypatch):
    def broken(job):
        raise RuntimeError("multi\nline")
    monkeypatch.setattr("mdslab.cli.run_search", broken)
    code, out, err = run_cli(capsys, ["search", "--field", "gf(5)", "--n", "4"])
    assert (code, out) == (2, "")
    assert err.startswith("error: unexpected RuntimeError at test_cli.py:")
    assert err.endswith(": multi line\n")


CLASSIFY_1234 = ["--points", "1,2,3,4", "--k", "3", "--delta", "1"]


@pytest.mark.parametrize("argv", [
    # 2^61 - 1: factoring it by trial division would take minutes
    ["classify", "--field", "gf(2305843009213693951)"] + CLASSIFY_1234,
    ["classify", "--field", "gf(2^100000)"] + CLASSIFY_1234,
    ["verify", "all", "--orders", "2305843009213693951"],
])
def test_oversized_field_refused_at_once(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: q = ") and err.count("\n") == 1
    assert err.endswith(" exceeds the supported cap 1024\n")


# ---------------------------------------------------------------------------
# cli: classify and schur
# ---------------------------------------------------------------------------

def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, ["classify", "--format", "json"]
                           + EXAMPLE1_ARGS)
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 5
    assert payload["dimension"] == 3
    assert payload["min_distance"] == 3
    assert payload["class"] == "MDS"
    assert payload["criteria_class"] == "MDS"
    assert payload["criteria"]["mds"]["holds"] is True
    assert payload["criteria"]["dual_amds"]["holds"] is False


def test_classify_raw_matrix(capsys):
    code, out, _ = run_cli(capsys, [
        "classify", "--field", "gf(2)", "--matrix", "1,1,1"])
    assert code == 0
    assert "class: MDS" in out
    assert "criteria_class" not in out


def test_classify_full_rank_square_matrix_rejected(capsys):
    code, _, err = run_cli(capsys, [
        "classify", "--field", "gf(2)", "--matrix", "1,0;0,1"])
    assert code == 2
    assert "error" in err


def test_classify_g3_config_is_nmds(capsys):
    code, out, _ = run_cli(capsys, [
        "construct", "--which", "g3", "--field", "gf(7)",
        "--points", "1,2,4,5", "--k", "3"])
    assert code == 0
    code, out2, _ = run_cli(capsys, [
        "classify", "--field", "gf(7)", "--matrix", out.strip()])
    assert code == 0
    assert "class: NMDS" in out2


def test_classify_past_message_enumeration(capsys):
    # the [10, 7] dual has 16^7 messages; the rank scan needs C(10, 7)
    code, out, _ = run_cli(capsys, [
        "classify", "--field", "gf(16)", "--points", "0,1,2,3,4,5,6,7",
        "--k", "3", "--delta", "1"])
    assert code == 0
    assert "class: NMDS\ncriteria_class: NMDS" in out


def test_classify_scans_once(capsys, scanned):
    code, out, _ = run_cli(capsys, ["classify"] + EXAMPLE1_ARGS)
    assert code == 0
    assert "criteria_class: MDS\nmds: holds\n" in out
    assert len(scanned) == 1


def test_schur_text_and_json(capsys):
    code, out, _ = run_cli(capsys, [
        "schur", "--field", "gf(11)", "--points", "0,1,2,3,4,5,6",
        "--k", "3", "--delta", "1"])
    assert code == 0
    assert out == "method: SquareDimension\nevidence: 6\nverdict: NonGRS\n"
    code, out, _ = run_cli(capsys, [
        "schur", "--format", "json", "--field", "gf(9)",
        "--points", "0,1,2,3,4,5", "--k", "5", "--delta", "1"])
    assert json.loads(out) == {"method": "DualSquareDistance", "evidence": 1,
                               "verdict": "NonGRS"}
    # dimension 2 sits outside both applicability gates
    code, out, _ = run_cli(capsys, [
        "schur", "--field", "gf(7)", "--matrix", "1,1,1,1;0,1,2,3"])
    assert out == "method: NotApplicable\nevidence: none\nverdict: Inconclusive\n"


# ---------------------------------------------------------------------------
# cli: search
# ---------------------------------------------------------------------------

def test_search_cli_example1_shows_up(capsys):
    code, out, _ = run_cli(capsys, [
        "search", "--field", "gf(4)", "--n", "3", "--k", "3",
        "--filter", "MDS", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "q,n,k,delta,A,class,d,d_dual,grs_verdict,witness"
    assert "4,3,3,2,0+1+2,MDS,3,4,Inconclusive," in lines


def test_search_cli_byte_identical_across_runs_and_jobs(tmp_path):
    base = ["search", "--field", "gf(5)", "--n", "4", "--k", "3-4",
            "--format", "csv", "--seed", "11"]
    paths = [tmp_path / name for name in ("a.csv", "b.csv", "c.csv")]
    assert main(base + ["--out", str(paths[0])]) == 0
    assert main(base + ["--out", str(paths[1])]) == 0
    assert main(base + ["--jobs", "2", "--out", str(paths[2])]) == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]
    assert blobs[0].startswith(b"q,n,k,delta,A,class,d,d_dual")


def test_search_cli_budget_exceeded(capsys):
    code, _, err = run_cli(capsys, [
        "search", "--field", "gf(7)", "--n", "4", "--k", "3",
        "--budget", "10"])
    assert code == 2
    assert "245" in err and "budget" in err


def test_search_cli_empty_result_is_fine(capsys):
    code, out, _ = run_cli(capsys, [
        "search", "--field", "gf(4)", "--n", "3", "--k", "3",
        "--delta", "0", "--filter", "MDS", "--format", "csv"])
    assert code == 0
    assert out == "q,n,k,delta,A,class,d,d_dual,grs_verdict,witness\n"


def test_search_cli_explicit_points_and_sample(capsys):
    code, out, _ = run_cli(capsys, [
        "search", "--field", "gf(7)", "--n", "3", "--k", "3",
        "--points", "1,2,4", "--delta", "0,1", "--format", "csv"])
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert rows[0].startswith("7,3,3,0,1+2+4,")
    code, out, _ = run_cli(capsys, [
        "search", "--field", "gf(7)", "--n", "4", "--k", "3",
        "--sample", "3", "--delta", "0", "--format", "csv", "--seed", "2"])
    assert code == 0
    assert len(out.splitlines()) == 4


def test_search_cli_sample_past_sys_maxsize(capsys):
    """C(1024, 10) node sets exceed 2^63; sampling two of them still works."""
    code, out, err = run_cli(capsys, [
        "search", "--field", "gf(1024)", "--n", "10", "--k", "3",
        "--delta", "1", "--sample", "2", "--format", "csv"])
    assert (code, err) == (0, "")
    rows = out.splitlines()[1:]
    assert len(rows) == 2
    assert all(row.startswith("1024,10,3,1,") for row in rows)


def test_search_cli_golden_gf7_n4(capsys, tmp_path):
    """CSV and JSON of a full gf(7), n = 4 search are byte-identical to the
    output recorded from the loop-based criteria."""
    path = tmp_path / "out.csv"
    base = ["search", "--field", "gf(7)", "--n", "4", "--k", "all"]
    assert main(base + ["--format", "csv", "--out", str(path)]) == 0
    assert path.read_bytes() == (DATA / "search_gf7_n4.csv").read_bytes()
    code, out, _ = run_cli(capsys, base + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GF7_N4_JSON_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_cli_golden_gf9_n5_csv(capsys, jobs):
    code, out, err = run_cli(capsys, ["search", "--field", "gf(9)", "--n", "5",
                                      "--k", "all", "--format", "csv",
                                      "--jobs", jobs])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GF9_N5_CSV_SHA256


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_cli_golden_gf9_n5_json(capsys, jobs):
    code, out, err = run_cli(capsys, ["search", "--field", "gf(9)", "--n", "5",
                                      "--k", "all", "--format", "json",
                                      "--jobs", jobs])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_GF9_N5_JSON_SHA256


@pytest.mark.parametrize("argv, message", [
    (["--field", "gf(1024)", "--n", "40", "--k", "20"],
     "rank scan of a [42,20] code over GF(1024) would take about 2.7e+16 "
     "table lookups, which exceeds the cap of 2^31"),
    # the primal [40,4] is in reach; its dual is not
    (["--field", "gf(256)", "--n", "38", "--k", "4"],
     "rank scan of a [40,36] code over GF(256) would take about 4.8e+09 "
     "table lookups, which exceeds the cap of 2^31"),
])
def test_search_cli_refuses_codes_past_the_oracle_cap(capsys, argv, message):
    code, out, err = run_cli(capsys, ["search"] + argv
                             + ["--sample", "1", "--delta", "1"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_search_cli_bad_k_spec(capsys):
    code, _, err = run_cli(capsys, [
        "search", "--field", "gf(7)", "--n", "4", "--k", "x-y"])
    assert code == 2 and "--k" in err


@pytest.mark.parametrize("repeat, message", [
    (["--delta", "1,1"], "repeated delta in (1, 1)"),
    (["--points", "1,2,3,4", "--points", "4,3,2,1"],
     "repeated node set in ((1, 2, 3, 4), (4, 3, 2, 1))"),
])
def test_search_cli_refuses_repeated_inputs(capsys, repeat, message):
    code, out, err = run_cli(capsys, [
        "search", "--field", "gf(7)", "--n", "4", "--k", "3"] + repeat)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# cli: verify
# ---------------------------------------------------------------------------

def test_verify_cli_quick_pass(capsys):
    code, out, _ = run_cli(capsys, ["verify", "powersum", "--quick"])
    assert code == 0
    assert out == "powersum: PASS (645 checks)\n"


def test_verify_cli_scoped(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "mds", "--orders", "5", "--max-n", "4"])
    assert code == 0
    assert out == "mds: PASS (100 checks)\n"


def test_verify_cli_refuses_field(capsys):
    code, out, err = run_cli(capsys, [
        "verify", "mds", "--field", "gf(64)", "--orders", "5", "--max-n", "4"])
    assert (code, out) == (2, "")
    assert err == "error: unrecognized arguments: --field gf(64)\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", "mds", "--orders", "5", "--max-n", "2"],
     "--max-n must be at least 3, got 2"),
    (["verify", "mds", "--orders", "5", "--max-n", "-3"],
     "--max-n must be at least 3, got -3"),
    (["verify", "mds", "--orders", "2", "--max-n", "4"],
     "--orders: field orders must be at least 3, got 2"),
    (["verify", "mds", "--orders", "5,x"], "bad --orders value '5,x'"),
    (["verify", "mds", "--orders", ""], "bad --orders value ''"),
    (["verify", "powersum", "--quick", "--format", "csv"],
     "argument --format: invalid choice: 'csv' (choose from 'text', 'json')"),
    # P(1024, 3) + P(1024, 4) point permutations, refused before any suite
    # runs (powersum, first in "all", would not end on gf(1024) either)
    (["verify", "det", "--orders", "1024", "--quick"],
     "the det scope has 1094151303168 point permutations, "
     "more than the cap of 2097152"),
    (["verify", "all", "--orders", "1024", "--quick"],
     "the det scope has 1094151303168 point permutations, "
     "more than the cap of 2097152"),
    # sum over node sets of size 3..5 of gf(1024) of n + 2 checks each
    (["verify", "powersum", "--orders", "1024", "--quick"],
     "the powersum scope has 65312464290304 checks, "
     "more than the cap of 1048576"),
    (["verify", "mds", "--orders", "64", "--max-n", "7"],
     "the sweep scope has 135216488448 configs, more than the cap of 32768"),
    # a flag the suite does not read, and an order that would be swept twice
    (["verify", "schur", "--orders", "4", "--quick"],
     "--orders does not apply to verify schur"),
    (["verify", "schur", "--max-n", "4"], "--max-n does not apply to verify schur"),
    (["verify", "det", "--max-n", "4", "--quick"],
     "--max-n does not apply to verify det"),
    (["verify", "det", "--orders", "4,4", "--quick"],
     "repeated field order 4 in --orders"),
    (["verify", "powersum", "--orders", "5,7,5", "--max-n", "3"],
     "repeated field order 5 in --orders"),
    # --quick picks the default orders and n, which both flags override
    *[(["verify", suite, "--orders", "5", "--max-n", "4", "--quick"],
       f"--quick does not apply to verify {suite} with --orders and --max-n")
      for suite in ("powersum",) + SWEEP_SUITES],
])
def test_verify_cli_input_errors_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_cli_golden_quick_json(capsys):
    """`verify all --quick --format json` is byte-identical to the output
    recorded from the four separate criterion sweeps."""
    code, out, _ = run_cli(capsys, ["verify", "all", "--quick", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_QUICK_JSON_SHA256


def test_verify_cli_golden_full_json(capsys):
    """`verify all --format json` over the default scope, every suite
    passing, is byte-identical to the per-config sweep's output."""
    code, out, _ = run_cli(capsys, ["verify", "all", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_VERIFY_ALL_JSON_SHA256


def test_verify_cli_json(capsys):
    code, out, _ = run_cli(capsys, [
        "verify", "powersum", "--format", "json", "--orders", "5",
        "--max-n", "4"])
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["suite"] == "powersum"
    assert payload[0]["passed"] is True
    assert payload[0]["counterexample"] is None


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "m.txt"
    code, out, _ = run_cli(capsys, ["construct", "--out", str(target)]
                           + EXAMPLE1_ARGS)
    assert code == 0
    assert out == ""
    assert target.read_text() == "1,1,1,0,0;0,1,g,0,1;0,1,1,1,g\n"


# ---------------------------------------------------------------------------
# cli: parser and docs
# ---------------------------------------------------------------------------

CODE_INPUT_FLAGS = {"--format", "--out", "--field", "--config", "--points",
                    "--v", "--k", "--delta"}
SUBCOMMAND_FLAGS = {
    "construct": CODE_INPUT_FLAGS | {"--which", "--tau", "--pi",
                                     "--parity-check"},
    "classify": CODE_INPUT_FLAGS | {"--matrix"},
    "schur": CODE_INPUT_FLAGS | {"--matrix"},
    "search": {"--format", "--out", "--field", "--n", "--k", "--delta",
               "--points", "--sample", "--seed", "--filter", "--budget",
               "--jobs"},
    "verify": {"--format", "--out", "--quick", "--max-n", "--orders"},
}


def test_each_subcommand_declares_only_the_flags_it_reads():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in p._actions for s in a.option_strings
                    if s.startswith("--") and s != "--help"}
             for name, p in sub.choices.items()}
    assert flags == SUBCOMMAND_FLAGS
    assert sum(map(len, flags.values())) == 47
    assert [name for name, p in sub.choices.items()
            if "csv" in p._option_string_actions["--format"].choices] == ["search"]


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                "'construct', 'classify', 'schur', 'search', 'verify')"),
    (["search", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["construct", "--jobs", "2"] + EXAMPLE1_ARGS,
     "unrecognized arguments: --jobs 2"),
    (["classify", "--format", "csv"] + EXAMPLE1_ARGS,
     "argument --format: invalid choice: 'csv' (choose from 'text', 'json')"),
    (["verify", "mds", "--field", "gf(64)"],
     "unrecognized arguments: --field gf(64)"),
])
def test_parser_errors_are_one_line_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mdslab search")


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    """Every `mdslab` line of README's sh blocks exits 0, and the library
    quick start prints MDS twice."""
    blocks = re.findall(r"```(\w+)\n(.*?)```", README.read_text(), re.S)
    commands = [line for lang, body in blocks if lang == "sh"
                for line in body.splitlines() if line.startswith("mdslab ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for line in commands:
        assert main(shlex.split(line)[1:]) == 0, line
    capsys.readouterr()
    (quick_start,) = [body for lang, body in blocks if lang == "python"]
    exec(quick_start, {})
    assert capsys.readouterr().out == "MDS\nMDS\n"
