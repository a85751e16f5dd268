"""Graph constructors: orders, valencies, adjacency rules, products.

networkx serves as the independent oracle for structural properties; the
constructors under test never call it.
"""

import operator
import random
import sys
from itertools import product
from math import comb

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, from_edges, property_test, to_nx
from rooklab.graphs import (Graph, _permuted_rows, _sr_rows,
                            cartesian_product, complete_bipartite,
                            complete_graph, cube_graph, cycle_graph,
                            johnson_graph, sr_graph, sr_order, sr_vertices)


def induced_subgraph(g, indices):
    """The subgraph of g induced on the vertex indices, in sorted order,
    read off g's rows bit by bit: the oracle for _sr_rows on a subset."""
    idx = sorted(indices)
    rows = [sum(1 << b for b, y in enumerate(idx) if g.rows[x] >> y & 1)
            for x in idx]
    return Graph([g.labels[x] for x in idx], rows)


@st.composite
def sr_vertex_subsets(draw):
    g = sr_graph(draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    keep = draw(st.lists(st.booleans(), min_size=g.order, max_size=g.order))
    return g, [i for i, k in enumerate(keep) if k]


@st.composite
def equal_sum_vectors(draw):
    """Distinct vectors of one length and one sum, in any order: integer
    tuples, or 0/1 vectors as bool tuples."""
    pool = sr_vertices(draw(st.integers(0, 7)), draw(st.integers(0, 7)))
    if draw(st.booleans()):
        pool = [tuple(map(bool, x)) for x in pool if max(x, default=0) <= 1]
    if not pool:
        return []
    return draw(st.lists(st.sampled_from(pool), max_size=40, unique=True))


@st.composite
def dense_relabelings(draw):
    """A graph on up to 40 vertices, most of its rows more than half full,
    and a permutation of its vertices."""
    v = draw(st.integers(0, 40))
    p = draw(st.sampled_from((0.5, 0.8, 0.95, 1.0)))
    seed = draw(st.integers(0, 2**32 - 1))
    h = nx.gnp_random_graph(v, p, seed=seed)
    perm = draw(st.permutations(range(v)))
    return from_edges(range(v), h.edges()), perm


class TestSRVertices:
    def test_count_matches_stars_and_bars(self):
        for m in range(1, 7):
            for n in range(0, 7):
                assert len(sr_vertices(m, n)) == comb(n + m - 1, n)
                assert sr_order(m, n) == comb(n + m - 1, n)

    def test_lexicographic_order(self):
        vs = sr_vertices(3, 4)
        assert vs == sorted(vs)
        assert vs[0] == (0, 0, 4)
        assert vs[-1] == (4, 0, 0)
        points = [(m, n) for m in range(1, 6) for n in range(0, 6)]
        for m, n in points + [(2, 10), (7, 5)]:
            brute = [x for x in product(range(n + 1), repeat=m) if sum(x) == n]
            assert sr_vertices(m, n) == brute

    def test_sums_and_nonnegativity(self):
        for v in sr_vertices(4, 5):
            assert sum(v) == 5
            assert min(v) >= 0

    def test_degenerate_shapes(self):
        assert sr_vertices(0, 0) == [()]
        assert sr_vertices(0, 3) == []
        assert sr_vertices(1, 5) == [(5,)]

    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            sr_vertices(-1, 2)
        with pytest.raises(ValueError):
            sr_vertices(2, -1)

    def test_no_recursion_proportional_to_m(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            vs = sr_vertices(1500, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert len(vs) == 1500
        assert vs[0] == (0,) * 1499 + (1,) and vs[-1] == (1,) + (0,) * 1499


class TestSRGraph:
    def test_adjacency_is_two_coordinate_difference(self):
        for m, n in ((3, 3), (0, 0), (1, 3), (2, 0), (5, 1), (4, 3)):
            g = sr_graph(m, n)
            for i, u in enumerate(g.labels):
                for j, v in enumerate(g.labels):
                    differ = sum(1 for a, b in zip(u, v) if a != b)
                    assert g.rows[i] >> j & 1 == (differ == 2)

    @property_test
    @given(sr_vertex_subsets())
    def test_rows_of_a_vertex_subset_are_induced(self, case):
        g, idx = case
        rows = _sr_rows([g.labels[i] for i in idx])
        assert tuple(rows) == induced_subgraph(g, idx).rows

    @property_test
    @given(equal_sum_vectors())
    def test_rows_differ_in_exactly_two_places(self, vectors):
        rows = _sr_rows(vectors)
        assert rows == [sum(1 << j for j, y in enumerate(vectors)
                            if sum(map(operator.ne, x, y)) == 2)
                        for x in vectors]
        assert _sr_rows([tuple(map(int, x)) for x in vectors]) == rows

    def test_row_corners(self):
        assert _sr_rows([]) == []
        for m in (0, 1, 4, 100_000):
            assert _sr_rows([(0,) * m]) == [0]
        assert sr_graph(100_000, 0).rows == (0,)
        assert _sr_rows([(False, True, True), (True, False, True)]) == \
            _sr_rows([(0, 1, 1), (1, 0, 1)]) == [2, 1]

    def test_regular_of_valency_n_times_m_minus_1(self):
        for m in range(2, 6):
            for n in range(1, 5):
                g = sr_graph(m, n)
                assert set(g.degrees()) == {n * (m - 1)}

    def test_small_cases_are_complete_graphs(self):
        # One coordinate: a single vertex.  Two coordinates: any two
        # distinct vertices differ in both, so SR(2,n) = K_{n+1}.
        assert sr_graph(1, 7).order == 1
        g = sr_graph(2, 4)
        assert g.order == 5
        assert all(d == 4 for d in g.degrees())
        # n=1: the m unit vectors pairwise differ in two coordinates.
        g = sr_graph(5, 1)
        assert nx.is_isomorphic(to_nx(g), nx.complete_graph(5))

    def test_family_tagging(self):
        g = sr_graph(4, 3)
        assert g.family == "sr"
        assert g.params == (4, 3)

    def test_connected(self):
        for m, n in ((3, 3), (4, 2), (5, 3)):
            assert nx.is_connected(to_nx(sr_graph(m, n)))


class TestJohnson:
    def test_order_and_valency(self):
        for v in range(2, 8):
            for n in range(1, v):
                g = johnson_graph(v, n)
                assert g.order == comb(v, n)
                assert set(g.degrees()) == {n * (v - n)}

    def test_adjacency_is_intersection_size(self):
        for v, n in ((5, 2), (6, 3), (4, 0), (3, 3)):
            g = johnson_graph(v, n)
            for i, s in enumerate(g.labels):
                for j, t in enumerate(g.labels):
                    if i == j:
                        continue
                    meet = len(set(s) & set(t))
                    assert g.rows[i] >> j & 1 == (meet == n - 1)

    def test_j_v_1_is_complete(self):
        assert nx.is_isomorphic(to_nx(johnson_graph(6, 1)), nx.complete_graph(6))
        # Complements give J(v, v-1) = J(v, 1) = K_v = SR(v, 1); wide 0/1
        # and unit vectors.
        k600 = complete_graph(600).rows
        assert johnson_graph(600, 1).rows == k600
        assert johnson_graph(600, 599).rows == k600
        assert sr_graph(600, 1).rows == k600

    def test_j_4_2_is_octahedron(self):
        assert nx.is_isomorphic(to_nx(johnson_graph(4, 2)),
                                nx.octahedral_graph())

    def test_triangular_graph(self):
        # J(v,2) is the line graph of K_v.
        for v in (4, 5, 6):
            assert nx.is_isomorphic(to_nx(johnson_graph(v, 2)),
                                    nx.line_graph(nx.complete_graph(v)))


class TestStandardGraphs:
    def test_complete(self):
        g = complete_graph(6)
        assert g.edge_count() == 15
        assert set(g.degrees()) == {5}

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.order == 7
        assert g.edge_count() == 12
        assert nx.is_isomorphic(to_nx(g), nx.complete_bipartite_graph(3, 4))

    def test_cycle(self):
        g = cycle_graph(7)
        assert nx.is_isomorphic(to_nx(g), nx.cycle_graph(7))

    def test_cube(self):
        for d in range(1, 5):
            assert nx.is_isomorphic(to_nx(cube_graph(d)), nx.hypercube_graph(d))

    def test_cartesian_product(self):
        g, h = cycle_graph(4), complete_graph(3)
        p = cartesian_product(g, h)
        assert p.order == 12
        assert nx.is_isomorphic(
            to_nx(p), nx.cartesian_product(nx.cycle_graph(4), nx.complete_graph(3)))

    def test_cube_is_iterated_product(self):
        k2 = complete_graph(2)
        q3 = cartesian_product(cartesian_product(k2, k2), k2)
        assert nx.is_isomorphic(to_nx(q3), to_nx(cube_graph(3)))


def oracle_permuted_rows(rows, pos):
    """Relabel by pos one bit at a time, each image bit built as used, and
    dense rows through their complements."""
    v = len(rows)
    full = (1 << v) - 1
    out = [0] * v
    for i, row in enumerate(rows):
        dense = 2 * row.bit_count() > v
        acc = 0
        for j in bits(full & ~row if dense else row):
            acc |= 1 << pos[j]
        out[pos[i]] = full & ~acc if dense else acc
    return tuple(out)


class TestGraphOps:
    def test_complement(self):
        g = sr_graph(3, 2)
        c = g.complement()
        assert nx.is_isomorphic(to_nx(c), nx.complement(to_nx(g)))

    def test_complement_involution(self):
        g = sr_graph(3, 3)
        assert g.complement().complement().rows == g.rows

    def test_neighbors_match_rows(self):
        g = sr_graph(3, 3)
        for u in range(g.order):
            assert set(g.neighbors(u)) == {v for v in range(g.order)
                                           if g.rows[u] >> v & 1}

    def test_induced_subgraph(self):
        g = sr_graph(3, 3)
        idx = [0, 2, 4, 6, 8]
        h = induced_subgraph(g, idx)
        assert h.order == 5
        for a, i in enumerate(idx):
            for b, j in enumerate(idx):
                assert h.rows[a] >> b & 1 == g.rows[i] >> j & 1
        assert list(h.labels) == [g.labels[i] for i in idx]

    def test_relabeled_moves_labels_and_edges(self):
        g = sr_graph(3, 3)
        perm = list(range(g.order))
        random.Random(5).shuffle(perm)
        h = g.relabeled(perm)
        assert all(h.labels[perm[i]] == lab for i, lab in enumerate(g.labels))
        assert all(h.rows[perm[i]] >> perm[j] & 1 == g.rows[i] >> j & 1
                   for i in range(g.order) for j in range(g.order))
        with pytest.raises(ValueError):
            g.relabeled([0] * g.order)

    def test_permuted_rows_against_oracle(self):
        # Every SR(m, n) with m <= 6 and n <= 5 and its complement, each
        # under a seeded permutation.
        rng = random.Random(24)
        for m in range(7):
            for n in range(6):
                g = sr_graph(m, n)
                for rows in (g.rows, g.complement().rows):
                    pos = rng.sample(range(g.order), g.order)
                    assert _permuted_rows(rows, pos) == \
                        oracle_permuted_rows(rows, pos)

    @property_test
    @given(dense_relabelings())
    def test_permuted_rows_against_oracle_on_dense_graphs(self, case):
        g, perm = case
        assert _permuted_rows(g.rows, perm) == \
            oracle_permuted_rows(g.rows, perm)

    @property_test
    @given(dense_relabelings())
    def test_relabeled_dense_rows_match_edge_by_edge(self, case):
        g, perm = case
        edges = [(perm[i], perm[j]) for i, j in g.edges()]
        assert g.relabeled(perm).rows == \
            from_edges(range(g.order), edges).rows

    def test_adjacency_matrix(self):
        # Orders 0, 1, 6, 9 and 66 (rows wider than one 64-bit word), and a
        # relabelling, whose rows set bits in no particular order.
        big = sr_graph(3, 10)
        pi = list(range(big.order))
        random.Random(3).shuffle(pi)
        for g in (Graph((), ()), complete_graph(1), sr_graph(3, 2),
                  cycle_graph(9), big, big.relabeled(pi)):
            a = g.adjacency_matrix()
            assert a.dtype == np.int64 and a.shape == (g.order, g.order)
            assert all(a[i, j] == g.rows[i] >> j & 1
                       for i in range(g.order) for j in range(g.order))
