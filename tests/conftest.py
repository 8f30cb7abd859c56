"""Shared fixtures, plus the acceptance-criteria result summary hook."""

import contextlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SPEC_DIR = REPO_ROOT / "specs"

_ACCEPTANCE_LINES = []


def _record(num: int, ok: bool, detail: str = "") -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    _ACCEPTANCE_LINES.append(line)
    print(line)
    return line


@pytest.fixture
def criterion():
    """Context manager that records one pass/fail line per criterion.

    Usage::

        with criterion(3) as check:
            check(x < tol, f"x={x:.3g}")
    """

    @contextlib.contextmanager
    def run(num: int):
        checks = []

        def check(ok, detail=""):
            checks.append((bool(ok), detail))

        try:
            yield check
        except Exception as exc:  # record the line even on a blow-up
            _record(num, False, f"error: {exc}")
            raise
        ok = all(c for c, _ in checks)
        detail = "; ".join(d for _, d in checks if d)
        _record(num, ok, detail)
        assert ok, detail

    return run


@pytest.fixture
def huge_order_sfm():
    """A valid sfm spec (beta = 5e8) whose closed forms would need Bessel
    orders near 5e8, that is a 2^32-point coefficient FFT."""
    return {
        "family": "sfm", "T": 0.5, "f_c": 2000.0, "delta_f": 1000.0,
        "f_m": 1e-6,
    }


@pytest.fixture
def no_allocation(monkeypatch):
    """Fail the test if it reaches the closed-form coefficient FFT or its
    traced allocations peak above 4 MiB."""

    def refuse(*args, **kwargs):
        pytest.fail("closed-form coefficient FFT reached")

    monkeypatch.setattr("sonarwave.gbf._coeffs_fft", refuse)
    tracemalloc.start()
    try:
        yield
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, f"peak traced allocation {peak} B"


@pytest.fixture(scope="session")
def spec_dir():
    return SPEC_DIR


@pytest.fixture(scope="session")
def pool_specs():
    """Every distinct spec dict of the specs/ corpus and of the benchmark's
    drawn pools, seeds 1-5."""
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        import specgen
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    docs = [json.loads(p.read_text()) for p in sorted(SPEC_DIR.rglob("*.json"))
            if not p.name.startswith("response_")]
    for seed in range(1, 6):
        for draw in specgen.DRAW.values():
            docs += specgen.all_specs(draw(seed))
    return list({json.dumps(d, sort_keys=True): d for d in docs}.values())


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
