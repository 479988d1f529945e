"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the registered experiment tables (E1–E6
and F1–F4).  The runs are macro-benchmarks — a single execution of an
experiment spec — so they use ``benchmark.pedantic`` with a
single round and print the resulting table, which therefore also ends up in
``bench_output.txt`` when the suite is run with ``--benchmark-only``.
"""

from __future__ import annotations

import pytest

from repro.exploration.cost_model import PaperCostModel, SimulationCostModel


@pytest.fixture(scope="session")
def sim_model() -> SimulationCostModel:
    """Cost model used by every executed (measured) benchmark."""
    return SimulationCostModel()


@pytest.fixture(scope="session")
def paper_model() -> PaperCostModel:
    """Cost model used by the analytic-bound benchmarks."""
    return PaperCostModel()
