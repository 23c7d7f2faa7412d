"""Extensions beyond the paper: multi-router scaling and the
per-benchmark parameter search (the paper's future work).
"""

from _shared import BENCH_SCALE, BENCH_SEED

from repro.config import SystemConfig
from repro.eval import run_workload, standard_settings
from repro.eval.autotune import autotune
from repro.eval.report import format_speedup, format_table


def test_multirouter_scaling(benchmark):
    """More routing devices relieve buffer pressure when entries are scarce
    (the paper leaves multi-router topologies to future work)."""

    def sweep():
        setting = standard_settings()[1]  # 0delay
        out = {}
        for routers in (1, 2, 4):
            cfg = SystemConfig(num_srds=routers, prodbuf_entries=8)
            m = run_workload("FIR", setting, scale=BENCH_SCALE, config=cfg,
                             seed=BENCH_SEED)
            out[routers] = m.exec_cycles
        return out

    result = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[k, v] for k, v in result.items()]
    print("\n" + format_table(["routers", "FIR exec cycles (prodBuf=8 each)"],
                              rows, title="Extension: multi-router scaling"))
    assert result[4] <= result[1]


def test_autotune_future_work(benchmark):
    """Section 3.5 future work: per-benchmark parameter search."""

    def search():
        return {
            name: autotune(name, scale=BENCH_SCALE * 0.6, seed=BENCH_SEED,
                           max_evaluations=15)
            for name in ("FIR", "incast")
        }

    results = benchmark.pedantic(search, rounds=1, iterations=1)
    rows = [
        [name, r.best_params.label(), f"{r.best_score:.3f}",
         f"{r.paper_score:.3f}", format_speedup(r.improvement_over_paper),
         r.evaluations]
        for name, r in results.items()
    ]
    print("\n" + format_table(
        ["benchmark", "best params", "best score", "paper score",
         "improvement", "sims"],
        rows, title="Extension: per-benchmark parameter search"))
    for r in results.values():
        # The search never regresses below the paper's fixed set, and the
        # paper's FIR-tuned choice is already near-optimal on FIR.
        assert r.best_score <= r.paper_score + 1e-9
    assert results["FIR"].improvement_over_paper < 1.2
