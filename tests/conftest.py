"""Shared scenario builders for the test suite."""

import copy

import pytest

from dispatchsim.config import parse_scenario

# A tiny, fast baseline scenario; tests deep-copy and tweak it.
BASE_SCENARIO = {
    "cluster": {
        "nodes": 1,
        "mem_capacity": 1024,
        "store_capacity": 1000,
        "network": {"latency_ms": 1, "bandwidth_mb_per_s": 100},
    },
    "workload": {
        "horizon_ms": 1000,
        "arrival": {"kind": "fixed_interval", "interval_ms": 100},
        "functions": [
            {"name": "f1", "code_size": 10, "flavor": 128, "compute_ms": 50},
        ],
        "objects": {"count": 0},
        "refs_per_invocation": 0,
    },
    "strategy": {"name": "round_robin"},
    "seeds": [1],
    "output": {"dir": "out", "formats": ["csv"]},
}


def scenario_dict(**sections) -> dict:
    """Deep-copied base scenario with whole sections replaced or merged; a
    strategies list replaces the base strategy block."""
    raw = copy.deepcopy(BASE_SCENARIO)
    if "strategies" in sections:
        del raw["strategy"]
    for key, value in sections.items():
        if isinstance(value, dict) and isinstance(raw.get(key), dict):
            raw[key].update(copy.deepcopy(value))
        else:
            raw[key] = copy.deepcopy(value)
    return raw


@pytest.fixture
def base_scenario():
    return parse_scenario(scenario_dict())
