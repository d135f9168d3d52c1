"""Test-suite set-up: a deterministic hypothesis profile, a fixture logging
the criteria scans, and a terminal summary listing each acceptance criterion
with its outcome."""

from __future__ import annotations

import pytest
from hypothesis import settings

from mdslab import construction

# derandomized, no example database and no deadline: every run draws the same
# examples, and a slow shared machine cannot turn a pass into a failure
settings.register_profile("mdslab", derandomize=True, deadline=None,
                          database=None, max_examples=50)
settings.load_profile("mdslab")



@pytest.fixture
def scanned(monkeypatch) -> list:
    """Every config construction._scan is called on during the test, in order."""
    log = []
    scan = construction._scan

    def logged(cfg):
        log.append(cfg)
        return scan(cfg)
    monkeypatch.setattr(construction, "_scan", logged)
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
