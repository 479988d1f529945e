"""Tests of the runtime registries (decorator API, duplicates, lookups)."""

from __future__ import annotations

import pytest

from repro.exceptions import RegistryError, ReproError
from repro.runtime import (
    COST_MODELS,
    GRAPH_FAMILIES,
    INTERLEAVERS,
    PROBLEMS,
    SCHEDULERS,
    Registry,
)
from repro.runtime import runner as _runner  # noqa: F401  (populates the registries)


class TestRegistry:
    def test_register_decorator_and_create(self):
        registry = Registry("gadget")

        @registry.register("double")
        def _double(value):
            return 2 * value

        assert "double" in registry
        assert registry.create("double", 21) == 42
        assert registry.names() == ("double",)

    def test_register_direct_callable(self):
        registry = Registry("gadget")
        registry.register("id", lambda value: value)
        assert registry.create("id", 7) == 7

    def test_duplicate_names_rejected(self):
        registry = Registry("gadget")
        registry.register("x", lambda: 1)
        with pytest.raises(RegistryError):
            registry.register("x", lambda: 2)

    def test_unknown_names_rejected(self):
        registry = Registry("gadget")
        with pytest.raises(RegistryError) as excinfo:
            registry.resolve("nope")
        assert "gadget" in str(excinfo.value)
        with pytest.raises(RegistryError):
            registry.create("nope")

    def test_parameters_the_factory_cannot_take_name_the_entry(self):
        registry = Registry("gadget")
        registry.register("double", lambda value: 2 * value)
        with pytest.raises(RegistryError, match="gadget 'double'.*'factor'"):
            registry.create("double", 1, factor=3)

    def test_type_errors_from_inside_a_factory_propagate_unchanged(self):
        registry = Registry("gadget")
        registry.register("broken", lambda value: value + "x")
        with pytest.raises(TypeError) as excinfo:
            registry.create("broken", 1)
        assert not isinstance(excinfo.value, RegistryError)

    def test_registry_errors_are_repro_errors(self):
        assert issubclass(RegistryError, ReproError)

    def test_invalid_name_rejected(self):
        registry = Registry("gadget")
        with pytest.raises(RegistryError):
            registry.register("", lambda: 1)

    def test_mapping_protocol(self):
        registry = Registry("gadget")
        registry.register("b", lambda: 2)
        registry.register("a", lambda: 1)
        assert sorted(registry) == ["a", "b"]
        assert len(registry) == 2


class TestGlobalRegistries:
    def test_graph_families_registered(self):
        for name in ("ring", "path", "erdos_renyi", "hypercube"):
            assert name in GRAPH_FAMILIES
        graph = GRAPH_FAMILIES.create("ring", 6, 0)
        assert graph.size == 6

    def test_schedulers_registered(self):
        assert SCHEDULERS.names() == (
            "round_robin",
            "random",
            "lazy",
            "delay_until_stop",
            "avoider",
        )
        assert SCHEDULERS.create("avoider", seed=0, patience=4) is not None

    def test_scheduler_factories_ignore_foreign_params(self):
        # One parameter bag serves every adversary; unused keys are ignored.
        assert SCHEDULERS.create("round_robin", seed=3, patience=9, starved="x") is not None

    def test_interleaver_rejects_a_foreign_parameter(self):
        from repro.ticksim import interleavers as _interleavers  # noqa: F401

        with pytest.raises(RegistryError, match="interleaver 'random'.*'patience'"):
            INTERLEAVERS.create("random", seed=0, patience=5)
        assert INTERLEAVERS.create("lag", seed=0, patience=5) is not None

    def test_problems_registered(self):
        assert sorted(PROBLEMS) == [
            "baseline",
            "bounds",
            "esst",
            "figures",
            "rendezvous",
            "teams",
            "tick_gathering",
            "tick_gossip",
            "tick_leader",
        ]

    def test_cost_models_registered(self):
        assert {"simulation", "paper", "default"} <= set(COST_MODELS)

    def test_every_registered_scheduler_builds(self):
        for name in SCHEDULERS.names():
            assert SCHEDULERS.create(name, seed=0, patience=64, starved="agent-2") is not None
