"""Ablations beyond the paper's figures (design choices DESIGN.md calls out).

* **specBuf capacity** — Section 4.5 notes 64 entries exceed what the
  benchmarks need; shrinking below the workload's endpoint count must
  degrade gracefully (the OS would manage the overflow).
* **interconnect latency** — the substitution's main free parameter: the
  speculation win should grow with the request-leg latency it hides.
* **fixed-delay control** — a naive constant delay bridges 0-delay and the
  adaptive algorithms.
"""

import pytest

from _shared import BENCH_SCALE, BENCH_SEED

from repro.config import SystemConfig
from repro.eval import Setting, run_workload, standard_settings
from repro.eval.report import format_speedup, format_table
from repro.spamer.delay import FixedDelay, ZeroDelay


def test_ablation_bus_latency(benchmark):
    """Speedup vs interconnect latency: more latency, more to hide."""

    def sweep():
        out = {}
        for latency in (18, 36, 72):
            # The library's refetch threshold is defined relative to the
            # platform round trip; scale it along or the slower platform's
            # prerequests turn into systematic prefetching.
            cfg = SystemConfig(
                bus_latency=latency,
                refetch_interval=max(64, 160 * latency // 36),
            )
            vl, zero = standard_settings()[:2]
            base = run_workload("incast", vl, scale=BENCH_SCALE, config=cfg,
                                seed=BENCH_SEED)
            spec = run_workload("incast", zero, scale=BENCH_SCALE, config=cfg,
                                seed=BENCH_SEED)
            out[latency] = spec.speedup_over(base)
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[lat, format_speedup(sp)] for lat, sp in result.items()]
    print("\n" + format_table(["bus latency (cycles)", "incast speedup"],
                              rows, title="Ablation: interconnect latency"))
    assert result[72] > result[18]


def test_ablation_specbuf_capacity(benchmark):
    """A specBuf big enough for every endpoint behaves like the default."""

    def sweep():
        out = {}
        for entries in (2, 8, 64):
            cfg = SystemConfig(specbuf_entries=entries)
            zero = standard_settings()[1]
            try:
                m = run_workload("incast", zero, scale=BENCH_SCALE, config=cfg,
                                 seed=BENCH_SEED)
                out[entries] = m.exec_cycles
            except Exception as exc:  # registration overflow
                out[entries] = f"refused ({type(exc).__name__})"
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[k, v] for k, v in result.items()]
    print("\n" + format_table(["specBuf entries", "incast exec cycles"],
                              rows, title="Ablation: specBuf capacity"))
    # incast registers a single entry, so even tiny specBufs suffice.
    assert result[2] == result[64]


def test_ablation_fixed_delay(benchmark):
    """FixedDelay sits between 0-delay and an over-delayed control."""

    def sweep():
        out = {}
        for delay in (0, 64, 512, 4096):
            setting = Setting(
                f"SPAMeR(fixed:{delay})", "spamer",
                (lambda d=delay: ZeroDelay() if d == 0 else FixedDelay(d)),
            )
            m = run_workload("incast", setting, scale=BENCH_SCALE, seed=BENCH_SEED)
            out[delay] = m.exec_cycles
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[k, v] for k, v in result.items()]
    print("\n" + format_table(["fixed delay (cycles)", "incast exec cycles"],
                              rows, title="Ablation: fixed speculative delay"))
    # Extreme over-delay costs performance relative to prompt pushes.
    assert result[4096] > min(result[0], result[64])


def test_ablation_spin_then_yield(benchmark):
    """The optional spin-then-yield dequeue discipline coarsens delivery
    detection: it must never help, and usually hurts, the VL baseline."""

    def sweep():
        vl = standard_settings()[0]
        spin = SystemConfig(spin_then_yield=True)
        base = run_workload("incast", vl, scale=BENCH_SCALE, seed=BENCH_SEED)
        yielding = run_workload("incast", vl, scale=BENCH_SCALE, config=spin,
                                seed=BENCH_SEED)
        return base.exec_cycles, yielding.exec_cycles

    pure_spin, with_yield = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\nAblation spin-then-yield: pure spin {pure_spin} cycles, "
          f"with yield {with_yield} cycles")
    assert with_yield >= pure_spin * 0.98
