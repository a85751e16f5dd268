"""Structural invariants against networkx oracles and brute force.

Every search routine (clique, independence, canonical labeling,
automorphism counting) is cross-checked on graphs where networkx or
exhaustive enumeration supplies the answer independently.
"""

import hashlib
import random
import sys
from itertools import combinations, islice
from math import factorial

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bits, from_edges, property_test, to_nx
from rooklab import invariants
from rooklab.eigenvectors import gamma_graph
from rooklab.formulas import independence_formula
from rooklab.graphs import (Graph, _bit_matrix, cartesian_product,
                            complete_bipartite, complete_graph, cube_graph,
                            cycle_graph, johnson_graph, sr_graph, sr_order,
                            sr_vertices)
from rooklab.invariants import (CanonicalForm, CliqueType, Disconnected,
                                NotAClique, SizeLimit, automorphism_count,
                                canonical_form, classify_clique, clique_number,
                                coordinate_symmetries, diameter, eccentricity,
                                has_induced_k114, independence_number,
                                is_isomorphic, maximal_cliques, vertex_orbits)
from rooklab.switching import (gm_switch, named_switching_set,
                               switching_closure)


def random_graph(rng, n, p):
    h = nx.gnp_random_graph(n, p, seed=rng.randrange(10**6))
    return from_edges(range(n), h.edges()), h


def nx_aut_count(h, cap=None):
    """|Aut| by VF2 enumeration; with a cap, min(|Aut|, cap + 1)."""
    gm = nx.algorithms.isomorphism.GraphMatcher(h, h)
    return sum(1 for _ in islice(gm.isomorphisms_iter(), cap and cap + 1))


def unpruned(g):
    """g's labels and rows with no family: a graph with no symmetry to
    prune by, so its clique searches are the plain ones."""
    return Graph(g.labels, g.rows)


def paley_graph(q):
    squares = {x * x % q for x in range(1, q)}
    return from_edges(range(q), [(a, b) for a, b in combinations(range(q), 2)
                                 if (b - a) % q in squares])


@st.composite
def relabeled_graphs(draw, max_order=10):
    """A graph on up to max_order vertices and a random relabeling of it."""
    n = draw(st.integers(0, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edges(range(n), [e for e, k in zip(pairs, keep) if k])
    return g, g.relabeled(draw(st.permutations(range(n))))


@st.composite
def circulants(draw, max_order=16):
    """A circulant C_n(S) on up to max_order vertices and its rotation
    i -> i + 1, an automorphism whose one orbit is every vertex."""
    n = draw(st.integers(1, max_order))
    keep = draw(st.lists(st.booleans(), min_size=n // 2, max_size=n // 2))
    jumps = [d for d, k in zip(range(1, n // 2 + 1), keep) if k]
    edges = [(i, (i + d) % n) for i in range(n) for d in jumps]
    return from_edges(range(n), edges), [(i + 1) % n for i in range(n)]


@st.composite
def relabeled_sr_graphs(draw):
    """SR(m, n) with m <= 5 and at most 84 vertices, randomly relabelled:
    the labels still give the coordinate symmetries, the order does not."""
    m, n = draw(st.sampled_from([(m, n) for m in range(1, 6) for n in range(8)
                                 if sr_order(m, n) <= 84]))
    g = sr_graph(m, n)
    return g.relabeled(draw(st.permutations(range(g.order))))


@st.composite
def invariant_sr_graphs(draw):
    """SR(m, n)'s labels, family and params on a graph that every coordinate
    permutation preserves: a union of orbits of vertex pairs, on up to 35
    vertices.  Two pairs lie in one orbit when their multisets of
    coordinate pairs agree up to swapping the ends."""
    grid = [(m, n) for m in range(2, 5) for n in range(1, 5)
            if sr_order(m, n) <= 35]
    m, n = draw(st.sampled_from(grid))
    labels = sr_vertices(m, n)
    keys = {}
    for i, j in combinations(range(len(labels)), 2):
        x, y = labels[i], labels[j]
        key = min(tuple(sorted(zip(x, y))), tuple(sorted(zip(y, x))))
        keys.setdefault(key, []).append((i, j))
    size = len(keys)
    keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    rows = [0] * len(labels)
    for pairs, kept in zip(keys.values(), keep):
        for i, j in pairs if kept else ():
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(labels, rows, "sr", (m, n))


@st.composite
def planted_k114(draw, max_order=10):
    """A K_{1,1,4} planted on vertices 0..5 of a graph on up to max_order
    vertices, then some vertex pairs flipped: both hits and near-misses."""
    n = draw(st.integers(6, max_order))
    edges = {(0, 1)} | {(a, k) for a in (0, 1) for k in range(2, 6)}
    for pair in draw(st.lists(st.sampled_from(list(combinations(range(n), 2))),
                              max_size=8)):
        edges ^= {pair}
    return from_edges(range(n), edges)


class TestDistances:
    def test_eccentricity_against_networkx(self):
        rng = random.Random(2)
        for _ in range(10):
            g, h = random_graph(rng, rng.randrange(2, 15), 0.5)
            if not nx.is_connected(h):
                continue
            ecc = nx.eccentricity(h)
            for v in range(g.order):
                assert eccentricity(g, v) == ecc[v]

    def test_diameter_against_networkx(self):
        for g in (sr_graph(3, 3), sr_graph(4, 2), sr_graph(5, 3),
                  johnson_graph(6, 3), cycle_graph(9)):
            assert diameter(g) == nx.diameter(to_nx(g))

    def test_disconnected_raises(self):
        g = from_edges([0, 1, 2, 3], [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            diameter(g)


class TestCliqueNumber:
    def test_against_networkx_on_random_graphs(self):
        rng = random.Random(4)
        for _ in range(25):
            g, h = random_graph(rng, rng.randrange(1, 18), rng.random())
            expected = max((len(c) for c in nx.find_cliques(h)), default=1)
            assert clique_number(g) == expected

    def test_known_values(self):
        assert clique_number(complete_graph(7)) == 7
        assert clique_number(cycle_graph(6)) == 2
        assert clique_number(complete_bipartite(3, 3)) == 2
        assert clique_number(cube_graph(3)) == 2

    def test_sr_formula(self):
        for m in range(2, 6):
            for n in range(1, 5):
                assert clique_number(sr_graph(m, n)) == max(m, n + 1)

    def test_orbit_pruning_agrees_with_plain_search(self):
        for m, n in ((4, 3), (5, 2), (3, 4)):
            g = sr_graph(m, n)
            syms = coordinate_symmetries(g)
            assert (clique_number(g, aut_generators=syms)
                    == clique_number(unpruned(g)))

    def test_empty_graph(self):
        assert clique_number(Graph([], [])) == 0

    def test_no_recursion_proportional_to_clique_size(self):
        # The search descends once per clique vertex; K_400 goes 400 deep.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert clique_number(complete_graph(400)) == 400
        finally:
            sys.setrecursionlimit(limit)

    @property_test
    @given(circulants())
    def test_property_orbit_pruning_on_circulants(self, circulant):
        g, rotation = circulant
        h = to_nx(g)
        omega = max(len(c) for c in nx.find_cliques(h))
        alpha = max(len(c) for c in nx.find_cliques(nx.complement(h)))
        assert clique_number(g, aut_generators=[rotation]) == omega
        assert independence_number(g, aut_generators=[rotation]) == alpha


class TestSRDefaultSymmetries:
    """Without explicit generators, the searches prune an SR graph by its
    coordinate symmetries and leave every other graph unpruned; the
    diameter and K_{1,1,4} checks take the same symmetries."""

    SEARCHES = [clique_number, independence_number, diameter, has_induced_k114]

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def spy(g):
            seen.append(g)
            return coordinate_symmetries(g)

        monkeypatch.setattr(invariants, "coordinate_symmetries", spy)
        return seen

    @pytest.mark.parametrize("search", SEARCHES)
    def test_sr_graphs_take_their_labels(self, calls, search):
        relabeled = sr_graph(4, 4).relabeled(
            random.Random(3).sample(range(35), 35))
        for g in (sr_graph(4, 3), relabeled):
            calls.clear()
            search(g)
            assert calls == [g]

    @pytest.mark.parametrize("search", SEARCHES)
    def test_other_graphs_are_not_pruned(self, calls, search):
        search(johnson_graph(6, 3))
        search(gamma_graph((1, 3, 0, 2)))
        assert calls == []

    def test_each_distinct_generator_checked_once(self, monkeypatch):
        # Generators that repeat the coordinate symmetries, as a caller
        # passing coordinate_symmetries(g) gives them, are checked and
        # joined into orbits once each; at m = 2 the transposition is the
        # cycle.
        seen = []
        check, orbits = invariants._check_automorphisms, invariants._orbits

        def spy(name, fn):
            def call(first, gens):
                seen.append((name, [tuple(p) for p in gens]))
                return fn(first, gens)
            return call

        monkeypatch.setattr(invariants, "_check_automorphisms",
                            spy("check", check))
        monkeypatch.setattr(invariants, "_orbits", spy("orbits", orbits))
        for m, n in ((2, 3), (4, 3), (3, 4)):
            g = sr_graph(m, n)
            sym = map(tuple, coordinate_symmetries(g))
            distinct = list(dict.fromkeys(sym))
            assert len(distinct) == (1 if m == 2 else 2)
            for search in (clique_number, independence_number):
                seen.clear()
                value = search(g, aut_generators=coordinate_symmetries(g))
                assert seen == [("check", distinct), ("orbits", distinct)]
                assert value == search(unpruned(g))

    def test_default_agrees_with_plain_search(self):
        for m in range(2, 6):
            for n in range(1, 5):
                g = sr_graph(m, n)
                assert clique_number(g) == clique_number(unpruned(g))
                assert (independence_number(g)
                        == independence_number(unpruned(g)))


class TestOrbitalBranching:
    """The SR searches drop orbits of the clique's stabiliser at every node;
    they must agree with the plain search, refuse labels whose coordinate
    permutations are not automorphisms, and stay inside the node budget."""

    @property_test
    @given(relabeled_sr_graphs())
    def test_property_agrees_with_plain_search(self, g):
        syms = coordinate_symmetries(g)
        for search in (clique_number, independence_number):
            plain = search(unpruned(g))
            assert search(g) == plain
            assert search(g, aut_generators=syms) == plain

    @property_test
    @given(relabeled_graphs(max_order=24))
    def test_property_degeneracy_order(self, pair):
        # Reference: remove a least-degree vertex, the lowest index among
        # ties, and lower its neighbours' degrees.
        g, _ = pair
        degs, left, expected = g.degrees(), set(range(g.order)), []
        while left:
            u = min(left, key=lambda x: (degs[x], x))
            expected.append(u)
            left.discard(u)
            for w in g.neighbors(u):
                degs[w] -= 1
        order = invariants._degeneracy_order(_bit_matrix(g.rows))
        assert order.tolist() == expected

    def test_flipped_edge_is_refused(self):
        # No pair of SR(3, 3) is fixed by all of S_3, so flipping any one
        # breaks the coordinate symmetry that the labels claim.
        g = sr_graph(3, 3)
        for u, w in combinations(range(g.order), 2):
            rows = list(g.rows)
            rows[u] ^= 1 << w
            rows[w] ^= 1 << u
            broken = Graph(g.labels, rows, g.family, g.params)
            for search in (clique_number, independence_number):
                with pytest.raises(ValueError, match="preserve adjacency"):
                    search(broken)
                with pytest.raises(ValueError, match="preserve adjacency"):
                    search(broken, aut_generators=coordinate_symmetries(g))
                search(unpruned(broken))

    def test_battery_points_fit_a_small_budget(self, monkeypatch):
        # The orbital search needs 1 759 and 2 268 nodes; pruning at the
        # root alone needs far more than 2 500, and so does a search that
        # drops each vertex's orbit but keeps walking its colour class
        # (3 242 nodes at alpha(9, 3)).
        monkeypatch.setattr(invariants, "NODE_BUDGET", 2500)
        assert independence_number(sr_graph(8, 3)) == 13
        assert independence_number(sr_graph(9, 3)) == 18
        with pytest.raises(SizeLimit, match="budget of 2500 nodes"):
            independence_number(unpruned(sr_graph(8, 3)))

    # The exact nodes each battery point's search takes: a change that
    # costs a node, or saves one, shows here and is re-pinned on purpose.
    NODES = [("independence_number", 8, 3, 1759),
             ("independence_number", 9, 3, 2268),
             ("independence_number", 3, 10, 368),
             *(("clique_number", m, 3, nodes) for m, nodes
               in zip(range(3, 10), (4, 7, 6, 9, 9, 10, 11)))]

    @pytest.mark.parametrize("search, m, n, nodes", NODES)
    def test_node_counts_are_pinned(self, monkeypatch, search, m, n, nodes):
        g, search = sr_graph(m, n), getattr(invariants, search)
        expected = (independence_formula(m, n) if search is independence_number
                    else max(m, n + 1))
        monkeypatch.setattr(invariants, "NODE_BUDGET", nodes)
        assert search(g) == expected
        monkeypatch.setattr(invariants, "NODE_BUDGET", nodes - 1)
        with pytest.raises(SizeLimit, match=f"budget of {nodes - 1} nodes"):
            search(g)


class TestIndependenceNumber:
    def test_against_networkx_complement(self):
        rng = random.Random(9)
        for _ in range(15):
            g, h = random_graph(rng, rng.randrange(1, 15), rng.random())
            hc = nx.complement(h)
            expected = max((len(c) for c in nx.find_cliques(hc)), default=1)
            assert independence_number(g) == expected

    def test_known_values(self):
        assert independence_number(complete_graph(5)) == 1
        assert independence_number(cycle_graph(7)) == 3
        assert independence_number(cube_graph(3)) == 4


class TestMaximalCliques:
    def test_against_networkx(self):
        rng = random.Random(14)
        for _ in range(15):
            g, h = random_graph(rng, rng.randrange(1, 14), rng.random())
            ours = {frozenset(c) for c in maximal_cliques(g)}
            theirs = {frozenset(c) for c in nx.find_cliques(h)}
            assert ours == theirs

    def test_sr_43_count(self):
        # max(m, n+1)-sized cliques: the coordinate-pair lines plus the
        # unit-vector displacements.
        cliques = list(maximal_cliques(sr_graph(4, 3)))
        assert all(len(c) >= 2 for c in cliques)
        sizes = sorted(len(c) for c in cliques)
        assert sizes[-1] == 4

    def test_no_recursion_proportional_to_clique_size(self):
        # Bron-Kerbosch descends once per clique vertex; K_400 goes 400 deep.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert maximal_cliques(complete_graph(400)) == [tuple(range(400))]
        finally:
            sys.setrecursionlimit(limit)


class TestClassifyClique:
    def test_line_cliques_are_type1(self):
        g = sr_graph(4, 3)
        idx = [g.index[lab] for lab in [(0, 0, 0, 3), (0, 0, 1, 2),
                                        (0, 0, 2, 1), (0, 0, 3, 0)]]
        t = classify_clique(g, idx)
        assert t.tag == "type1"
        assert t.params == (2, 3)

    def test_pairs_default_to_type1(self):
        g = sr_graph(3, 3)
        u, v = 0, next(iter(g.neighbors(0)))
        assert classify_clique(g, [u, v]).tag == "type1"

    def test_unit_vector_cliques(self):
        # {x + e_i : i in I} with x = (0,1,1,1) - e_i forms a clique of
        # the displacement kind.
        g = sr_graph(4, 3)
        members = [g.index[(1, 1, 1, 0)], g.index[(1, 1, 0, 1)],
                   g.index[(1, 0, 1, 1)], g.index[(0, 1, 1, 1)]]
        t = classify_clique(g, members)
        assert t.tag in ("type2", "type3")

    def test_every_maximal_clique_classifies(self):
        for m, n in ((3, 3), (4, 3), (3, 4), (4, 4)):
            g = sr_graph(m, n)
            for c in maximal_cliques(g):
                t = classify_clique(g, c)
                assert isinstance(t, CliqueType)

    def test_non_clique_rejected(self):
        g = sr_graph(3, 3)
        non_adjacent = [g.index[(0, 0, 3)], g.index[(1, 1, 1)]]
        assert not g.rows[non_adjacent[0]] >> non_adjacent[1] & 1
        with pytest.raises(NotAClique):
            classify_clique(g, non_adjacent)
        with pytest.raises(NotAClique):
            classify_clique(g, [0])


class TestLocalStructure:
    def test_k114_free_on_sr(self):
        for m, n in ((3, 3), (4, 3), (3, 4)):
            assert not has_induced_k114(sr_graph(m, n))

    def test_k114_detected_when_planted(self):
        # K_{1,1,4}: an edge joined to four pairwise non-adjacent vertices.
        edges = [("a", "b")]
        for k in range(4):
            edges += [("a", k), ("b", k)]
        g = from_edges(["a", "b", 0, 1, 2, 3], edges)
        assert has_induced_k114(g)

    def test_k114_absent_in_clique(self):
        assert not has_induced_k114(complete_graph(6))

    @property_test
    @given(planted_k114())
    def test_property_k114_matches_networkx(self, g):
        k114 = nx.complete_multipartite_graph(1, 1, 4)
        gm = nx.algorithms.isomorphism.GraphMatcher(to_nx(g), k114)
        assert has_induced_k114(g) == gm.subgraph_is_isomorphic()


def oracle_maximal_cliques(g):
    """Pivoted Bron-Kerbosch with nodes as generators on a stack."""
    out, rows = [], g.rows

    def extend(r, p, x):
        most, top = -1, p.bit_count()
        for u in bits(p | x):
            c = (p & rows[u]).bit_count()
            if c > most:
                most, pivot = c, u
                if c == top:
                    break
        for u in bits(p & ~rows[pivot]):
            pu, xu = p & rows[u], x & rows[u]
            if pu or xu:
                yield r + [u], pu, xu
            else:
                out.append(tuple(sorted(r + [u])))
            p &= ~(1 << u)
            x |= 1 << u

    if g.order:
        stack = [extend([], (1 << g.order) - 1, 0)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            else:
                stack.append(extend(*child))
    return out


def oracle_classify_clique(g, clique):
    """The trichotomy, testing every ordered pair for an edge."""
    verts = sorted(set(clique))
    if len(verts) < 2:
        raise NotAClique("need at least two vertices")
    for a in verts:
        for b in verts:
            if a != b and not g.rows[a] >> b & 1:
                raise NotAClique(f"vertices {a} and {b} are not adjacent")
    vecs = [g.labels[i] for i in verts]
    m = len(vecs[0])
    diff_coords = {i for v in vecs for i in range(m) if v[i] != vecs[0][i]}
    if len(diff_coords) <= 2:
        j, k = sorted(diff_coords) if len(diff_coords) == 2 else (0, 1)
        return CliqueType("type1", (j, k))
    lo = tuple(min(v[i] for v in vecs) for i in range(m))
    a = sum(vecs[0]) - sum(lo)
    deltas = [tuple(v[i] - lo[i] for i in range(m)) for v in vecs]
    if all(sorted(d) == [0] * (m - 1) + [a] for d in deltas):
        support = tuple(sorted(d.index(a) for d in deltas))
        return CliqueType("type2", (a, lo, support))
    hi = tuple(max(v[i] for v in vecs) for i in range(m))
    a = sum(hi) - sum(vecs[0])
    deltas = [tuple(hi[i] - v[i] for i in range(m)) for v in vecs]
    if all(sorted(d) == [0] * (m - 1) + [a] for d in deltas):
        support = tuple(sorted(d.index(a) for d in deltas))
        if all(hi[i] >= a for i in support):
            return CliqueType("type3", (a, hi, support))
    raise RuntimeError(f"clique {verts} fits no type; trichotomy violated")


def oracle_diameter(g):
    """The largest eccentricity over every source."""
    if g.order == 0:
        raise Disconnected("the empty graph has no diameter")
    return max(eccentricity(g, s) for s in range(g.order))


def oracle_has_induced_k114(g):
    """An edge whose ends' common neighbourhood has four independent
    vertices, searched on every edge with neighbour sets built from the
    edge list: every 4-subset of the common neighbours that each miss at
    least three others there (as each vertex of such a subset does) is
    tested pair by pair."""
    adj = [set() for _ in range(g.order)]
    for u, v in g.edges():
        adj[u].add(v)
        adj[v].add(u)
    for u, v in g.edges():
        common = adj[u] & adj[v]
        loose = sorted(w for w in common if len(common - adj[w] - {w}) >= 3)
        for four in combinations(loose, 4):
            if all(b not in adj[a] for a, b in combinations(four, 2)):
                return True
    return False


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as exc:  # noqa: BLE001 - the oracles raise alike
        return type(exc), str(exc)


def sr_grid_variants():
    """Every SR(m, n) with m <= 6 and n <= 5 (at most 252 vertices), the
    same relabelled by a seeded permutation (family kept) and its
    complement, with the SR family and without; each with whether its
    maximal cliques are few enough to list in the suite's time (the
    complements of SR(4, 4) and SR(5, 3) have 658 and 634, those of the
    56-vertex SR(4, 5) and SR(6, 3) 13 220 and 17 080)."""
    rng = random.Random(24)
    for m in range(7):
        for n in range(6):
            if sr_order(m, n) > 300:
                continue
            g = sr_graph(m, n)
            c = g.complement()
            few = g.order <= 35
            yield g, True
            yield g.relabeled(rng.sample(range(g.order), g.order)), True
            yield Graph(g.labels, c.rows, g.family, g.params), few
            yield c, few


class TestScansAgainstOracles:
    """The bit-loop scans and the orbit-representative searches give the
    lists, clique types, values and errors of the plain scans above."""

    def check(self, g, cliques=True):
        assert outcome(diameter, g) == outcome(oracle_diameter, g)
        assert outcome(has_induced_k114, g) == \
            outcome(oracle_has_induced_k114, g)
        if not cliques:
            return
        cliques = maximal_cliques(g)
        assert cliques == oracle_maximal_cliques(g)
        outside = (1 << g.order) - 1
        for c in cliques:
            # A maximal clique plus its first outside vertex is no clique.
            rest = outside & ~sum(1 << u for u in c)
            for members in (c, c + tuple(bits(rest & -rest))):
                assert outcome(classify_clique, g, members) == \
                    outcome(oracle_classify_clique, g, members)

    def test_sr_grid(self):
        for g, cliques in sr_grid_variants():
            self.check(g, cliques)

    def test_named_graphs(self):
        for g in (complete_graph(50), cycle_graph(9), johnson_graph(6, 3),
                  gamma_graph((1, 3, 0, 2)), Graph((), ())):
            self.check(g)

    def test_labels_on_other_rows_are_refused(self):
        # SR(3, 2)'s labels on C_6's rows: the labels claim a coordinate
        # symmetry that the edges do not have.
        g = Graph(sr_graph(3, 2).labels, cycle_graph(6).rows, "sr", (3, 2))
        for search in (diameter, has_induced_k114, clique_number):
            with pytest.raises(ValueError, match="preserve adjacency"):
                search(g)

    @property_test
    @given(relabeled_sr_graphs())
    def test_property_relabeled_sr_graphs(self, g):
        self.check(g)

    @property_test
    @given(invariant_sr_graphs())
    def test_property_invariant_sr_graphs(self, g):
        self.check(g)

    @property_test
    @given(relabeled_graphs(max_order=14))
    def test_property_relabeled_graphs(self, pair):
        for g in pair:
            self.check(g)

    @property_test
    @given(planted_k114())
    def test_property_planted_k114(self, g):
        self.check(g)

    @property_test
    @given(circulants())
    def test_property_circulants(self, circulant):
        self.check(circulant[0])


class TestCanonicalForm:
    def test_certificate_invariant_under_relabeling(self):
        # A relabeled copy has the same certificate, and each of the two
        # relabeled by its own canonical relabeling gives the same rows.
        rng = random.Random(21)
        sr43 = sr_graph(4, 3)

        def graphs():
            for _ in range(20):
                yield random_graph(rng, rng.randrange(1, 16), rng.random())[0]
            yield from (sr43, gm_switch(sr43, named_switching_set(sr43, "v1")),
                        paley_graph(13), cube_graph(4))

        for g in graphs():
            perm = list(range(g.order))
            rng.shuffle(perm)
            relabeled = from_edges(
                range(g.order), [(perm[a], perm[b]) for a, b in g.edges()])
            cg, ch = canonical_form(g), canonical_form(relabeled)
            assert cg.certificate == ch.certificate
            assert g.relabeled(cg.relabeling).rows == \
                relabeled.relabeled(ch.relabeling).rows

    def test_distinguishes_nonisomorphic(self):
        a = cycle_graph(6)
        b = from_edges(range(6), [(0, 1), (1, 2), (2, 0),
                                  (3, 4), (4, 5), (5, 3)])
        assert canonical_form(a).certificate != canonical_form(b).certificate

    def test_is_isomorphic_matches_networkx(self):
        rng = random.Random(30)
        for _ in range(25):
            n = rng.randrange(1, 12)
            g, hg = random_graph(rng, n, rng.random())
            f, hf = random_graph(rng, n, rng.random())
            assert is_isomorphic(g, f) == nx.is_isomorphic(hg, hf)

    def test_size_limit(self):
        # One guard, in canonical_form, serves every entry point.
        big = Graph(range(2001), [0] * 2001)
        for entry in (canonical_form, automorphism_count):
            with pytest.raises(SizeLimit, match="2001 vertices exceeds limit"):
                entry(big)

    def test_empty_graph(self):
        empty = Graph((), ())
        assert canonical_form(empty) == CanonicalForm((), b"0:0:", (), 1)
        assert automorphism_count(empty) == 1

    @property_test
    @given(relabeled_graphs())
    def test_property_certificate_and_relabeling(self, pair):
        # Each graph relabeled by its own canonical relabeling gives the
        # same rows; the certificate encodes exactly those rows.
        g, h = pair
        cg, ch = canonical_form(g), canonical_form(h)
        assert cg.certificate == ch.certificate
        assert sorted(cg.relabeling) == list(range(g.order))
        assert g.relabeled(cg.relabeling).rows == h.relabeled(ch.relabeling).rows

    @property_test
    @given(relabeled_graphs(), relabeled_graphs())
    def test_property_is_isomorphic_matches_networkx(self, first, second):
        for g, h in ((first[0], first[1]), (first[0], second[1])):
            assert is_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))

    def test_no_recursion_proportional_to_order(self):
        edgeless = Graph(range(200), [0] * 200)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            assert automorphism_count(edgeless) == factorial(200)
            assert sorted(canonical_form(edgeless).relabeling) == list(range(200))
        finally:
            sys.setrecursionlimit(limit)

    def test_golden_digest(self):
        # One SHA-256 over every output of canonical_form on a fixed graph
        # list, so that a change to the search which moves no count still
        # fails here if it moves a relabeling, certificate or generator.  A
        # change to the search's choices re-pins it and says why.
        digest = hashlib.sha256()
        for g in golden_graphs():
            form = canonical_form(g)
            digest.update(repr((form.relabeling, form.certificate,
                                form.generators, form.aut_order)).encode())
        assert digest.hexdigest() == GOLDEN_DIGEST


class TestAutomorphisms:
    def test_known_groups(self):
        assert automorphism_count(complete_graph(5)) == factorial(5)
        assert automorphism_count(cycle_graph(7)) == 14
        assert automorphism_count(complete_bipartite(3, 3)) == 72
        assert automorphism_count(cube_graph(3)) == 48
        # Orbit pruning and back-jumps both fire on these.
        assert automorphism_count(paley_graph(13)) == 78
        assert automorphism_count(cube_graph(4)) == 384
        k33_k2 = cartesian_product(complete_bipartite(3, 3), complete_graph(2))
        assert automorphism_count(k33_k2) == 144
        assert automorphism_count(sr_graph(5, 4)) == 120
        assert automorphism_count(complete_graph(13)) == factorial(13)
        assert automorphism_count(Graph(range(13), [0] * 13)) == factorial(13)

    @property_test
    @given(relabeled_graphs())
    def test_property_against_vf2(self, pair):
        # VF2 enumerates every automorphism, so it is capped; groups larger
        # than the cap only have to be larger on both sides.
        g, _ = pair
        cap = 5000
        assert min(automorphism_count(g), cap + 1) == nx_aut_count(to_nx(g), cap)

    def test_petersen(self):
        h = nx.petersen_graph()
        g = from_edges(range(10), h.edges())
        assert automorphism_count(g) == 120

    def test_sr_m_1_is_symmetric_group(self):
        for m in (3, 4, 5):
            assert automorphism_count(sr_graph(m, 1)) == factorial(m)

    def test_search_generators_are_automorphisms(self):
        sr43 = sr_graph(4, 3)
        mate = gm_switch(sr43, named_switching_set(sr43, "v1"))
        for g in (sr43, sr_graph(5, 3), complete_graph(6), cube_graph(3), mate):
            form = canonical_form(g)
            assert form.aut_order == automorphism_count(g)
            assert form.generators and isinstance(form.generators, tuple)
            for gen in form.generators:
                assert isinstance(gen, tuple)
                assert g.relabeled(gen).rows == g.rows

    def test_dense_leaves_relabel_through_the_complement(self):
        # Every leaf relabels K_300's rows: 89 700 bits edge by edge, 300
        # through the rows' complements.
        assert automorphism_count(complete_graph(300)) == factorial(300)


def paper_aut_order(m, n):
    """|Aut(SR(m, n))| by the paper's theorem, for m >= 1."""
    if m == 1 or n == 0:
        return 1
    if m == 2:
        # SR(2, n) is K_{n+1}.
        return factorial(n + 1)
    if n == 2:
        # SR(m, 2) is J(m + 1, 2), and SR(3, 2) the octahedron.
        return 48 if m == 3 else factorial(m + 1)
    if n == 3:
        # S_m and the digit swap.
        return 2 * factorial(m)
    return factorial(m)


class TestPaperAutomorphismTheorem:
    def test_sr_grid_fits_the_theorem(self):
        # Every SR(m, n) with m, n <= 7 and 1 to 500 vertices.
        points = [(m, n) for m in range(1, 8) for n in range(8)
                  if sr_order(m, n) <= 500]
        assert len(points) == 53
        for m, n in points:
            assert automorphism_count(sr_graph(m, n)) == paper_aut_order(m, n)


def golden_graphs():
    """SR(m, n) up to 120 vertices, some Johnson graphs, Q_4, K_13, seeded
    random graphs and the capped switching closure of SR(4, 3)."""
    graphs = [sr_graph(m, n) for m in range(1, 8) for n in range(1, 10)
              if sr_order(m, n) <= 120 and (m > 1 or n == 1)]
    graphs += [johnson_graph(v, k)
               for v, k in ((5, 2), (6, 3), (7, 2), (7, 3), (8, 4))]
    graphs += [cube_graph(4), complete_graph(13)]
    rng = random.Random(33)
    for _ in range(40):
        n, p = rng.randrange(1, 30), rng.random()
        pairs = combinations(range(n), 2)
        graphs.append(from_edges(range(n), [e for e in pairs
                                            if rng.random() < p]))
    return graphs + list(switching_closure(sr_graph(4, 3), 12).graphs)


GOLDEN_DIGEST = ("8be3246c3c045095f4dfe8978a62efed"
                 "11c4f816097ca3b65b87e4146971b49f")


class TestSearchWork:
    """The canonical search's work, pinned, so that a change to its tree
    (such as losing the root's triangle counts) fails here and not only in
    timings.  "trace" sums the refinement traces' lengths, two entries per
    split and two per fragment (the root's also two per triangle-count
    cell), so it pins the splits too.  A change that moves a count re-pins
    it and says why."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"searches": 0, "refinements": 0, "leaves": 0, "trace": 0}
        search, equitable = invariants._CanonicalSearch, invariants._equitable
        relabeled_rows = invariants._relabeled_rows

        class Counting(search):
            def __init__(self, rows):
                counts["searches"] += 1
                super().__init__(rows)

        def counting_equitable(rows, cells, multi, starts, trace):
            counts["refinements"] += 1
            equitable(rows, cells, multi, starts, trace)
            counts["trace"] += len(trace)

        def counting_relabeled_rows(*args):
            counts["leaves"] += 1
            return relabeled_rows(*args)

        monkeypatch.setattr(invariants, "_CanonicalSearch", Counting)
        monkeypatch.setattr(invariants, "_equitable", counting_equitable)
        monkeypatch.setattr(invariants, "_relabeled_rows",
                            counting_relabeled_rows)
        return counts

    def test_capped_closure(self, counts):
        assert switching_closure(sr_graph(4, 3), 12).count == 12
        assert counts == {"searches": 28, "refinements": 351, "leaves": 132,
                          "trace": 9500}

    def test_sr_4_9(self, counts):
        assert canonical_form(sr_graph(4, 9)).aut_order == 24
        assert counts == {"searches": 1, "refinements": 10, "leaves": 4,
                          "trace": 3982}

    def test_triangle_counts_match_networkx(self):
        rng = random.Random(31)
        for _ in range(20):
            g, h = random_graph(rng, rng.randrange(0, 25), rng.random())
            cells = invariants._triangle_cells(list(g.rows))
            tri = nx.triangles(h)
            assert sum(cells.values()) == (1 << g.order) - 1
            for t, cell in cells.items():
                assert all(2 * tri[v] == t for v in bits(cell))


class TestOrbits:
    def test_coordinate_symmetries_are_automorphisms(self):
        g = sr_graph(4, 3)
        for perm in coordinate_symmetries(g):
            for u in range(g.order):
                for v in g.neighbors(u):
                    assert g.rows[perm[u]] >> perm[v] & 1

    def test_coordinate_symmetries(self):
        for m, n in ((4, 15), (5, 6), (13, 3)):
            g = sr_graph(m, n)
            assert coordinate_symmetries(g) == [
                [g.index[(lab[1], lab[0]) + lab[2:]] for lab in g.labels],
                [g.index[lab[1:] + lab[:1]] for lab in g.labels]]
        # No symmetry: no vertex, one coordinate or labels that are no tuples.
        for g in (sr_graph(0, 3), sr_graph(1, 3), complete_graph(3)):
            assert coordinate_symmetries(g) == []
        # Refused: a later label that is no tuple or has the wrong length,
        # or an image that is no label.
        for labels in ([(0, 1), 5], [(0, 1), (1, 0, 0)], [(0, 1), (1, 2)]):
            with pytest.raises(ValueError, match="not closed"):
                coordinate_symmetries(Graph(labels, [2, 1]))

    def test_sr_m3_has_three_orbits(self):
        # 3e_i / 2e_i + e_j / e_i + e_j + e_k
        g = sr_graph(5, 3)
        orbits = vertex_orbits(g, coordinate_symmetries(g))
        assert sorted(len(o) for o in orbits) == [5, 10, 20]

    def test_orbits_partition_vertices(self):
        g = sr_graph(4, 2)
        orbits = vertex_orbits(g, coordinate_symmetries(g))
        flat = sorted(v for o in orbits for v in o)
        assert flat == list(range(g.order))

    def test_no_generator_gives_singletons(self, monkeypatch):
        # Nothing to check: no adjacency matrix and no union-find.
        def refuse(*args):
            raise AssertionError("orbit machinery run without a generator")

        monkeypatch.setattr(invariants, "_bit_matrix", refuse)
        monkeypatch.setattr(invariants, "_orbits", refuse)
        assert vertex_orbits(cycle_graph(5), []) == [(u,) for u in range(5)]
        assert vertex_orbits(Graph((), ()), ()) == []

    def test_bad_generator_rejected(self):
        g = cycle_graph(5)
        shift = [1, 2, 3, 4, 0]
        vertex_orbits(g, [shift])  # a rotation is fine
        broken = [1, 0, 2, 3, 4]   # transposing one edge endpoint is not
        with pytest.raises(ValueError):
            vertex_orbits(g, [broken])
