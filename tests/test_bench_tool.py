"""Unit tests for tools/bench.py — the observability overhead gate."""

import importlib.util
from pathlib import Path

import pytest

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_tool", TOOL_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FakeClock:
    """Manually-advanced perf_counter stand-in."""

    def __init__(self) -> None:
        self.t = 0.0

    def advance(self, dt: float) -> None:
        self.t += dt

    def __call__(self) -> float:
        return self.t


def test_obs_overhead_gate_document(bench):
    """Gate structure with a deterministic fake clock (each leg reads the
    clock twice, so every leg measures exactly 0.5 fake seconds and both
    overheads are 0%)."""
    clock = FakeClock()

    def reading():
        clock.advance(0.5)
        return clock.t

    result = bench.measure_obs_overhead(
        repeats=1, scale=0.01, threshold_pct=3.0, clock=reading
    )
    assert result["name"] == "obs-overhead-gate"
    assert result["off_s"] == result["null_s"] == result["on_s"] == 0.5
    assert result["overhead_disabled_pct"] == 0.0
    assert result["pass"] is True
    assert result["matrix"]["repeats"] == 1
