"""The degree-5 cross-check tier: the selftest one degree beyond the default.

Marked slow, so the default run deselects it; run it with

    python3 -m pytest -m slow
"""

import time

import pytest

from gradedpi.selftest import run_selftest


@pytest.mark.slow
def test_selftest_catalog_closure_at_degree_5():
    t0 = time.time()
    report = run_selftest(max_degree=5)
    elapsed = time.time() - t0
    for section in report["sections"]:
        assert section.ok, f"{section.name}: {section.failures}"
    assert sum(len(s.failures) for s in report["sections"]) == 0
    assert report["ok"] is True
    assert elapsed <= 400, f"degree-5 selftest took {elapsed:.0f}s, budget is 400s"
