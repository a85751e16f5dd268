"""graph6 encoding, cross-checked against networkx's encoder and decoder."""

import random

import networkx as nx

from conftest import from_edges, nx_decode
from rooklab.graphio import to_graph6
from rooklab.graphs import (Graph, complete_graph, cycle_graph, johnson_graph,
                            sr_graph)


def nx_encode(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.order))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


class TestGraph6:
    def test_known_strings(self):
        assert to_graph6(complete_graph(5)) == "D~{"
        assert to_graph6(cycle_graph(4)) == "Cl"
        assert to_graph6(Graph([0], [0])) == "@"

    def test_matches_networkx_on_standard_graphs(self):
        for g in (complete_graph(7), cycle_graph(9), sr_graph(3, 3),
                  sr_graph(4, 2), johnson_graph(5, 2)):
            assert to_graph6(g) == nx_encode(g)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(7)
        for trial in range(30):
            n = rng.randrange(1, 40)
            h = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(10**6))
            g = from_edges(range(n), h.edges())
            assert to_graph6(g) == nx.to_graph6_bytes(h, header=False).decode().strip()

    def test_matches_networkx_at_the_header_boundary_and_empty(self):
        # 62 vertices take the last one-byte header and 63 the first
        # four-byte one; the graph with no vertices is its header alone.
        rng = random.Random(5)
        for n in (0, 62, 63):
            h = nx.gnp_random_graph(n, 0.5, seed=rng.randrange(10**6))
            assert to_graph6(from_edges(range(n), h.edges())) == \
                nx.to_graph6_bytes(h, header=False).decode().strip()

    def test_roundtrip(self):
        rng = random.Random(11)
        for trial in range(20):
            n = rng.randrange(1, 70)
            h = nx.gnp_random_graph(n, rng.random(), seed=rng.randrange(10**6))
            g = from_edges(range(n), h.edges())
            back = nx_decode(to_graph6(g))
            assert back.order == g.order
            assert back.rows == g.rows

    def test_large_order_encoding(self):
        # Orders above 62 switch to the multi-byte length prefix.
        g = complete_graph(80)
        assert nx_decode(to_graph6(g)).rows == g.rows
        assert to_graph6(g) == nx_encode(g)

