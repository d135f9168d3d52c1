"""Test-suite set-up: a deterministic hypothesis profile, a fixture logging
the criteria scans, and a terminal summary listing each acceptance criterion
with its outcome."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from mdslab import construction, search
from mdslab.construction import EvalConfig

# derandomized, no example database and no deadline: every run draws the same
# examples, and a slow shared machine cannot turn a pass into a failure
settings.register_profile("mdslab", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("mdslab")


@pytest.fixture
def scanned(monkeypatch) -> list:
    """Every subset-sum scan made during the test, in order: a scan at one
    scalar delta as its all-ones config, a scan over a vector of deltas as
    (q, node set, k, deltas)."""
    log = []
    scan = construction.subset_scan

    def logged(field, alphas, k, delta):
        if np.ndim(delta) == 0:
            log.append(EvalConfig.ones(field, alphas, k, delta))
        else:
            log.append((field.q, tuple(alphas), k, tuple(delta)))
        return scan(field, alphas, k, delta)
    for module in (construction, search):
        monkeypatch.setattr(module, "subset_scan", logged)
    return log


_acceptance: dict[str, tuple[str, float]] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance[name] = (report.outcome, report.duration)
    elif report.when == "setup" and report.outcome != "passed":
        _acceptance[name] = (report.outcome, 0.0)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_acceptance):
        outcome, duration = _acceptance[name]
        status = {"passed": "PASS", "failed": "FAIL"}.get(outcome,
                                                          outcome.upper())
        terminalreporter.write_line(f"{status}  {name}  ({duration:.1f}s)")
