"""Tests of the port-labeled graph substrate."""

from __future__ import annotations

import pytest

from repro.exceptions import GraphError, InvalidPortError
from repro.graphs import PortGraphBuilder, PortLabeledGraph, edge_key
from repro.graphs import families


def triangle() -> PortLabeledGraph:
    return PortGraphBuilder("triangle").add_edges([(0, 1), (1, 2), (2, 0)]).build()


class TestEdgeKey:
    def test_orders_endpoints(self):
        assert edge_key(3, 1) == (1, 3)
        assert edge_key(1, 3) == (1, 3)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            edge_key(2, 2)


class TestBuilder:
    def test_builds_triangle(self):
        graph = triangle()
        assert graph.size == 3
        assert graph.num_edges == 3
        assert sorted(graph.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_ports_assigned_in_insertion_order(self):
        graph = triangle()
        # node 0: first edge (0,1) -> port 0, then (2,0) -> port 1.
        assert graph.succ(0, 0) == 1
        assert graph.succ(0, 1) == 2

    def test_chaining_returns_builder(self):
        builder = PortGraphBuilder()
        assert builder.add_node(0) is builder
        assert builder.add_edge(0, 1) is builder

    def test_duplicate_edge_rejected(self):
        builder = PortGraphBuilder().add_edge(0, 1)
        with pytest.raises(GraphError):
            builder.add_edge(1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            PortGraphBuilder().add_edge(4, 4)

    def test_disconnected_graph_rejected(self):
        builder = PortGraphBuilder().add_edge(0, 1).add_edge(2, 3)
        with pytest.raises(GraphError):
            builder.build()

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            PortLabeledGraph({})


class TestValidation:
    def test_asymmetric_port_labels_rejected(self):
        # Edge {0,1}: port 0 at 0 says it enters 1 by port 0, but port 0 at 1
        # points back to 0 by port 1 -> inconsistent.
        adjacency = {0: [(1, 0)], 1: [(0, 1)]}
        with pytest.raises(GraphError):
            PortLabeledGraph(adjacency)

    def test_unknown_neighbour_rejected(self):
        adjacency = {0: [(7, 0)]}
        with pytest.raises(GraphError):
            PortLabeledGraph(adjacency)

    def test_port_out_of_range_rejected(self):
        adjacency = {0: [(1, 5)], 1: [(0, 0)]}
        with pytest.raises((GraphError, InvalidPortError)):
            PortLabeledGraph(adjacency)

    def test_multi_edge_rejected(self):
        adjacency = {0: [(1, 0), (1, 1)], 1: [(0, 0), (0, 1)]}
        with pytest.raises(GraphError):
            PortLabeledGraph(adjacency)


class TestNavigation:
    def test_succ_and_traverse_agree(self, ring6):
        for node in ring6.nodes():
            for port in range(ring6.degree(node)):
                target = ring6.succ(node, port)
                traversed, entry = ring6.traverse(node, port)
                assert traversed == target
                # Symmetry: going back through the entry port returns here.
                assert ring6.succ(target, entry) == node

    def test_traverse_invalid_port(self, ring6):
        with pytest.raises(InvalidPortError):
            ring6.traverse(0, 5)

    def test_unknown_node(self, ring6):
        with pytest.raises(GraphError):
            ring6.degree(99)
        with pytest.raises(GraphError):
            ring6.succ(99, 0)

    def test_port_towards(self, ring6):
        for key in ring6.edges():
            u, v = key
            assert ring6.succ(u, ring6.port_towards(u, v)) == v
            assert ring6.succ(v, ring6.port_towards(v, u)) == u

    def test_port_towards_non_neighbour(self, ring6):
        with pytest.raises(GraphError):
            ring6.port_towards(0, 3)

    def test_neighbours_in_port_order(self):
        graph = triangle()
        assert graph.neighbours(0) == [graph.succ(0, 0), graph.succ(0, 1)]


class TestStructure:
    def test_len_and_contains(self, ring6):
        assert len(ring6) == 6
        assert 0 in ring6
        assert 17 not in ring6

    def test_degrees(self, ring6, path5):
        assert ring6.max_degree() == 2
        assert path5.max_degree() == 2
        assert ring6.is_regular()
        assert not path5.is_regular()

    def test_shortest_paths_and_diameter(self, ring6, path5):
        distances = ring6.shortest_path_lengths(0)
        assert distances[3] == 3
        assert ring6.diameter() == 3
        assert path5.diameter() == 4

    def test_equality_and_hash(self):
        a = triangle()
        b = triangle()
        assert a == b
        assert hash(a) == hash(b)
        assert a != families.ring(4)

    def test_relabeled_preserves_structure(self, ring6):
        mapping = {v: v + 100 for v in ring6.nodes()}
        relabeled = ring6.relabeled(mapping)
        assert relabeled.size == ring6.size
        assert relabeled.num_edges == ring6.num_edges
        for v in ring6.nodes():
            for port in range(ring6.degree(v)):
                assert relabeled.succ(mapping[v], port) == mapping[ring6.succ(v, port)]

    def test_relabeled_requires_bijection(self, ring6):
        with pytest.raises(GraphError):
            ring6.relabeled({v: 0 for v in ring6.nodes()})
        with pytest.raises(GraphError):
            ring6.relabeled({0: 1})
