"""The component registry: round-trips, error reporting, System integration."""

import pytest

from repro.errors import ConfigError
from repro.registry import (
    algorithm_names,
    device_names,
    register_algorithm,
    register_device,
    resolve_algorithm,
    resolve_device,
    unregister_algorithm,
)
from repro.spamer.delay import DelayAlgorithm, TunedDelay


def test_builtin_devices_registered():
    assert "vl" in device_names()
    assert "spamer" in device_names()


def test_builtin_algorithms_registered():
    assert set(algorithm_names()) == {
        "0delay", "adapt", "fixed", "multipush", "never", "tuned",
    }


def test_parameterized_algorithms_excluded_from_zero_config_list():
    zero_config = algorithm_names(include_parameterized=False)
    assert "fixed" not in zero_config          # needs its delay argument
    # "never" is offered: its by-construction stall is caught by the stall
    # watchdog (SimDeadlockError diagnostics) instead of hanging the run.
    assert "never" in zero_config
    assert "tuned" in zero_config


def test_device_spec_round_trip():
    spec = resolve_device("spamer")
    assert spec.name == "spamer"
    assert spec.accepts_algorithm and spec.accepts_security
    assert spec.default_algorithm == "tuned"
    assert spec.factory.registry_name == "spamer"


def test_algorithm_resolve_round_trip():
    algo = resolve_algorithm("tuned")
    assert isinstance(algo, TunedDelay)
    assert isinstance(algo, DelayAlgorithm)


def test_unknown_device_lists_available():
    with pytest.raises(ConfigError) as exc:
        resolve_device("quantum")
    message = str(exc.value)
    assert "quantum" in message
    assert "vl" in message and "spamer" in message


def test_unknown_algorithm_lists_available():
    with pytest.raises(ConfigError) as exc:
        resolve_algorithm("oracle")
    message = str(exc.value)
    assert "oracle" in message
    assert "tuned" in message and "0delay" in message


def test_duplicate_device_registration_rejected():
    with pytest.raises(ConfigError):
        @register_device("vl")
        class Impostor:  # pragma: no cover - never constructed
            pass


def test_duplicate_algorithm_registration_rejected():
    with pytest.raises(ConfigError):
        @register_algorithm("tuned")
        class Impostor:  # pragma: no cover - never constructed
            pass


def test_register_and_unregister_algorithm():
    @register_algorithm("test-echo", requires_params=True)
    class EchoDelay(DelayAlgorithm):
        name = "test-echo"

        def __init__(self, delay):
            self.delay = delay

        def send_tick(self, entry, now):
            return now + self.delay

        def on_response(self, entry, hit, now):
            pass

    try:
        algo = resolve_algorithm("test-echo", delay=7)
        assert algo.delay == 7
        assert "test-echo" not in algorithm_names(include_parameterized=False)
    finally:
        unregister_algorithm("test-echo")
    assert "test-echo" not in algorithm_names()


def test_system_rejects_algorithm_for_non_speculating_device():
    from repro import System

    with pytest.raises(ConfigError) as exc:
        System(device="vl", algorithm="tuned")
    assert "does not take one" in str(exc.value)


def test_system_device_defaults():
    from repro import System

    # The spamer -> tuned default is tests/test_cpu_system.py's case.
    assert System().device_name == "vl"
