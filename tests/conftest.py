"""Shared fixtures and configuration for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.exploration.cost_model import SimulationCostModel
from repro.exploration.uxs import PseudoRandomUXS
from repro.exploration.cost_model import CostModel
from repro.graphs import families

# Hypothesis: no deadline (the walks are CPU-bound and timing-sensitive on CI
# machines), a moderate number of examples, and no health-check noise for
# function-scoped fixtures.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
settings.load_profile("repro")


class TinyCostModel(CostModel):
    """A cost model with a very short exploration sequence (``P(k) = k + 2``).

    Used by structural tests that must *execute* nested trajectories end to
    end; the default simulation model's sequences would make that needlessly
    slow.  The tiny sequences are generally *not* integral, which is fine for
    structural (length / anchoring) assertions.
    """

    def __init__(self) -> None:
        super().__init__(
            PseudoRandomUXS(
                length_coefficient=1, length_exponent=1, length_offset=2, seed=7
            ),
            name="tiny",
        )


@pytest.fixture(scope="session")
def sim_model() -> SimulationCostModel:
    """The default simulation cost model (shared across the whole session)."""
    return SimulationCostModel()


@pytest.fixture(scope="session")
def tiny_model() -> TinyCostModel:
    """A cost model with very short exploration sequences (structural tests)."""
    return TinyCostModel()


@pytest.fixture(scope="session")
def ring6():
    """A 6-node ring."""
    return families.ring(6)


@pytest.fixture(scope="session")
def ring4():
    """A 4-node ring."""
    return families.ring(4)


@pytest.fixture(scope="session")
def oring6():
    """A consistently oriented 6-node ring (port 0 is clockwise everywhere)."""
    return families.oriented_ring(6)


@pytest.fixture(scope="session")
def path5():
    """A 5-node path."""
    return families.path(5)


@pytest.fixture(scope="session")
def small_er():
    """A small connected Erdős–Rényi graph (deterministic seed)."""
    return families.random_connected(7, 0.4, rng_seed=2)
