"""Tests of the graph families used in the experiments."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, RegistryError
from repro.graphs import families
from repro.runtime.registry import GRAPH_FAMILIES


class TestBasicFamilies:
    def test_ring(self):
        graph = families.ring(7)
        assert graph.size == 7
        assert graph.num_edges == 7
        assert graph.is_regular() and graph.max_degree() == 2

    def test_ring_too_small(self):
        with pytest.raises(GraphError):
            families.ring(2)

    def test_oriented_ring_ports_are_consistent(self):
        graph = families.oriented_ring(5)
        for node in graph.nodes():
            clockwise = graph.succ(node, 0)
            assert graph.succ(clockwise, 0) != node  # keeps going clockwise
        # Following port 0 repeatedly walks the whole ring.
        node, seen = 0, set()
        for _ in range(5):
            seen.add(node)
            node = graph.succ(node, 0)
        assert seen == set(range(5)) and node == 0

    def test_path(self):
        graph = families.path(6)
        assert graph.size == 6 and graph.num_edges == 5
        assert graph.diameter() == 5

    def test_star(self):
        graph = families.star(7)
        assert graph.degree(0) == 6
        assert all(graph.degree(v) == 1 for v in range(1, 7))

    def test_complete(self):
        graph = families.complete_graph(6)
        assert graph.num_edges == 15
        assert graph.is_regular() and graph.max_degree() == 5

    def test_binary_tree(self):
        graph = families.binary_tree(7)
        assert graph.size == 7 and graph.num_edges == 6
        assert graph.degree(0) == 2

    def test_grid(self):
        graph = families.grid(3, 4)
        assert graph.size == 12
        assert graph.num_edges == 3 * 3 + 4 * 2  # horizontal + vertical

    def test_torus(self):
        graph = families.torus(3, 3)
        assert graph.size == 9
        assert graph.is_regular() and graph.max_degree() == 4

    def test_torus_too_small(self):
        with pytest.raises(GraphError):
            families.torus(2, 5)

    def test_hypercube(self):
        graph = families.hypercube(3)
        assert graph.size == 8
        assert graph.is_regular() and graph.max_degree() == 3
        assert graph.diameter() == 3

    def test_lollipop(self):
        graph = families.lollipop(4, 3)
        assert graph.size == 7
        assert graph.degree(graph.size - 1) == 1  # tip of the tail

    def test_barbell(self):
        graph = families.barbell(3, 2)
        assert graph.size == 3 + 1 + 3
        assert graph.num_edges == 3 + 3 + 2

    def test_invalid_parameters(self):
        with pytest.raises(GraphError):
            families.lollipop(2, 1)
        with pytest.raises(GraphError):
            families.barbell(3, 0)
        with pytest.raises(GraphError):
            families.star(1)
        with pytest.raises(GraphError):
            families.hypercube(0)


class TestRandomFamilies:
    def test_random_connected_is_deterministic(self):
        a = families.random_connected(9, 0.3, rng_seed=5)
        b = families.random_connected(9, 0.3, rng_seed=5)
        assert a == b

    def test_random_connected_different_seeds_differ(self):
        a = families.random_connected(9, 0.3, rng_seed=5)
        b = families.random_connected(9, 0.3, rng_seed=6)
        assert a != b

    def test_random_connected_is_connected_for_zero_probability(self):
        graph = families.random_connected(8, 0.0, rng_seed=1)
        assert graph.num_edges == 7  # exactly a spanning tree

    def test_random_connected_probability_validation(self):
        with pytest.raises(GraphError):
            families.random_connected(5, 1.5)

    def test_random_regular(self):
        graph = families.random_regular(8, 3, rng_seed=0)
        assert graph.is_regular() and graph.max_degree() == 3

    def test_random_regular_parity_validation(self):
        with pytest.raises(GraphError):
            families.random_regular(7, 3, rng_seed=0)

    def test_random_regular_degree_validation(self):
        with pytest.raises(GraphError):
            families.random_regular(5, 5)

    def test_random_tree(self):
        graph = families.random_tree(10, rng_seed=3)
        assert graph.size == 10 and graph.num_edges == 9


class TestRegistry:
    @pytest.mark.parametrize("family", sorted(GRAPH_FAMILIES))
    def test_every_registered_family_builds(self, family):
        graph = GRAPH_FAMILIES.create(family, 8, 1)
        assert graph.size >= 2

    def test_unknown_family(self):
        with pytest.raises(RegistryError):
            GRAPH_FAMILIES.create("moebius", 8)
