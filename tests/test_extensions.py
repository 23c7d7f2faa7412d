"""Tests for the extensions beyond the paper's minimum: multi-router
systems, autotuning and the CLI."""

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigError
from repro.eval.autotune import SEARCH_SPACE, autotune
from repro.eval.runner import run_workload, standard_settings
from repro.spamer.delay import TunedParams
from repro.system import System

SCALE = 0.06


# ---------------------------------------------------------------- multi-router
def test_multirouter_shards_sqis():
    cfg = SystemConfig(num_srds=2)
    system = System(config=cfg, device="vl")
    sqis = [system.library.create_queue() for _ in range(4)]
    owners = {s: system.device_for(s) for s in sqis}
    assert len({id(d) for d in owners.values()}) == 2
    for s, d in owners.items():
        assert s in d.linktab


def test_multirouter_runs_workload_correctly():
    cfg = SystemConfig(num_srds=4)
    setting = standard_settings()[1]  # 0delay
    m = run_workload("halo", setting, scale=SCALE, config=cfg, limit=100_000_000)
    assert m.messages_delivered == m.messages_produced


def test_multirouter_aggregates_stats():
    cfg = SystemConfig(num_srds=2)
    setting = standard_settings()[0]
    m = run_workload("firewall", setting, scale=SCALE, config=cfg,
                     limit=100_000_000)
    assert m.push_attempts >= m.messages_delivered


def test_multirouter_relieves_buffer_pressure():
    """With tiny prodBufs, more routers mean more aggregate entries."""
    setting = standard_settings()[1]
    cycles = {}
    for routers in (1, 4):
        cfg = SystemConfig(num_srds=routers, prodbuf_entries=8)
        m = run_workload("FIR", setting, scale=SCALE, config=cfg,
                         limit=100_000_000)
        cycles[routers] = m.exec_cycles
    assert cycles[4] <= cycles[1]


def test_invalid_router_count_rejected():
    with pytest.raises(ConfigError):
        SystemConfig(num_srds=0)


# -------------------------------------------------------------------- autotune
def test_autotune_respects_budget():
    result = autotune("ping-pong", scale=SCALE, max_evaluations=4)
    assert result.evaluations <= 4
    assert result.best_params is not None


def test_autotune_never_worse_than_paper_start():
    result = autotune("incast", scale=SCALE, max_evaluations=8)
    assert result.best_score <= result.paper_score + 1e-9
    assert result.improvement_over_paper >= 1.0


def test_autotune_search_space_includes_paper_values():
    paper = TunedParams()
    assert paper.zeta in SEARCH_SPACE["zeta"]
    assert paper.tau in SEARCH_SPACE["tau"]
    assert paper.delta in SEARCH_SPACE["delta"]


def test_autotune_validation():
    with pytest.raises(ConfigError):
        autotune("incast", max_evaluations=0)


# ------------------------------------------------------------------------- CLI
def test_cli_table_commands(capsys):
    from repro.cli import main

    assert main(["table1"]) == 0
    assert "16xAArch64" in capsys.readouterr().out
    assert main(["table2"]) == 0
    assert "bitonic" in capsys.readouterr().out
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "ping-pong" in out and "tuned" in out
    assert "perceptron" not in out


def test_cli_run_command(capsys):
    from repro.cli import main

    assert main(["run", "ping-pong", "--setting", "0delay", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "execution" in out and "speculative pushes" in out


def test_cli_area_power(capsys):
    from repro.cli import main

    assert main(["area"]) == 0
    assert "0.1700" in capsys.readouterr().out
    assert main(["power"]) == 0
    assert "47.75" in capsys.readouterr().out


def test_cli_rejects_unknown_workload():
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["run", "not-a-workload"])
