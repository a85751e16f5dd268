"""Signed eigenvector families, Gamma subgraphs, and small-n constructions.

Oracles: brute-force permutation enumeration for the inversion machinery,
verify_eigenvector (validated in test_linalg) for eigenvector claims, exact
rank for independence counts, and networkx isomorphism for graph identities.
"""

import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial
from operator import le, sub

import networkx as nx
import numpy as np
import pytest

from conftest import to_nx
from rooklab import eigenvectors
from rooklab.eigenvectors import (InvalidOrbit, SMALL_N_KINDS, canonical_w,
                                  cayley_transpositions, f_pi, f_pw,
                                  f_pw_family, gamma_graph, gamma_order,
                                  inversion_count, inversion_vector,
                                  permutations_with_inversions,
                                  small_n_eigenvalue, small_n_eigenvector)
from rooklab.formulas import mahonian
from rooklab.graphs import (cartesian_product, complete_bipartite,
                            complete_graph, cube_graph, sr_vertices)
from rooklab.linalg import rank, verify_eigenvector


def brute_inversions(pi):
    return sum(1 for i in range(len(pi)) for j in range(i + 1, len(pi))
               if pi[i] > pi[j])


@cache
def brute_sign(pi):
    return -1 if brute_inversions(pi) & 1 else 1


def brute_admissible(pi):
    """(sigma, x(sigma)) for the sigma with sigma_i <= b_i = a_i + i,
    filtered from all of Sym(m) in lexicographic order."""
    b = [a + i for i, a in enumerate(inversion_vector(pi))]
    return [(s, tuple(map(sub, b, s))) for s in permutations(range(len(b)))
            if all(map(le, s, b))]


def admissible(pi):
    """(sigma, x(sigma)) pairs from the one enumerator, in its order, each
    sigma read back as b - x(sigma)."""
    b = [a + i for i, a in enumerate(inversion_vector(pi))]
    xs, _ = eigenvectors._signed_admissible(pi)
    return [(tuple(map(sub, b, x)), x) for x in xs]


def loop_f_pi(pi):
    """F_pi as the loop over the admissible set, signs by inversions."""
    return {x: brute_sign(s) for s, x in brute_admissible(pi)}


def loop_f_pw(p, w, m, n):
    """F_pw point by point in Fractions, the loop f_pw ran before it used
    the table of p_i + w_j."""
    p = tuple(Fraction(t) for t in p)
    w = tuple(Fraction(t) for t in w)
    vec = {}
    for sig in permutations(range(m)):
        point = tuple(p[i] + w[sig[i]] for i in range(m))
        if any(t.denominator != 1 or t < 0 for t in point):
            raise InvalidOrbit(f"orbit point {point} is not a lattice point")
        label = tuple(int(t) for t in point)
        if sum(label) != n:
            raise InvalidOrbit(f"orbit point {label} does not sum to {n}")
        if label in vec:
            raise InvalidOrbit(f"orbit points collide at {label}")
        vec[label] = brute_sign(sig)
    return vec


def outcome(build, *args):
    """A builder's dict as an ordered item list, or its InvalidOrbit text."""
    try:
        return list(build(*args).items())
    except InvalidOrbit as exc:
        return str(exc)


class TestInversions:
    def test_count_matches_brute_force(self):
        for m in range(1, 6):
            for pi in permutations(range(m)):
                assert inversion_count(pi) == brute_inversions(pi)

    def test_vector_entries(self):
        # a_i counts later positions holding smaller values.
        assert inversion_vector((2, 0, 1)) == (2, 0, 0)
        assert inversion_vector((3, 2, 1, 0)) == (3, 2, 1, 0)
        assert inversion_vector((0, 1, 2)) == (0, 0, 0)

    def test_vector_sums_to_count(self):
        for pi in permutations(range(5)):
            assert sum(inversion_vector(pi)) == inversion_count(pi)

    def test_sign_is_inversion_parity(self):
        # The signed table: Sym(m) in lexicographic order, int8 rows and
        # int8 signs, each sign the parity of the row's inversions.
        for m in range(8):
            perms, signs = eigenvectors._signed_table(m)
            assert perms.dtype == signs.dtype == np.int8
            assert perms.shape == (len(signs), m)
            assert list(map(tuple, perms.tolist())) == \
                list(permutations(range(m)))
            assert signs.tolist() == [(-1) ** brute_inversions(pi)
                                      for pi in permutations(range(m))]

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            inversion_vector((0, 0, 2))
        with pytest.raises(ValueError):
            inversion_count((1, 2, 3))
        for pi in ((0, 0, 2), (1, 2, 3), (1, 1)):
            with pytest.raises(ValueError):
                inversion_vector(pi)


class TestPermutationsWithInversions:
    def test_matches_brute_force_filter(self):
        for m in range(1, 6):
            for n in range(0, comb(m, 2) + 1):
                expected = sorted(p for p in permutations(range(m))
                                  if brute_inversions(p) == n)
                got = permutations_with_inversions(m, n)
                assert sorted(got) == expected
                assert len(got) == mahonian(m, n)

    def test_out_of_range_is_empty(self):
        assert permutations_with_inversions(3, 4) == []
        assert permutations_with_inversions(2, -1) == []

    def test_deterministic_order(self):
        once = permutations_with_inversions(5, 4)
        again = permutations_with_inversions(5, 4)
        assert once == again

    def test_one_inversion_at_large_m(self):
        # The adjacent transpositions, the vector's 1 moving leftwards.
        got = permutations_with_inversions(1100, 1)
        assert len(got) == 1099
        assert got == [(*range(i), i + 1, i, *range(i + 2, 1100))
                       for i in range(1098, -1, -1)]

    def test_no_recursion_proportional_to_m(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(150)
        try:
            got = permutations_with_inversions(400, 1)
        finally:
            sys.setrecursionlimit(limit)
        assert len(got) == 399


class TestFPi:
    def test_entries_are_signs(self):
        for pi in permutations_with_inversions(4, 3):
            assert set(f_pi(pi).values()) <= {1, -1}

    def test_identity_gives_unit_vector(self):
        # No inversions: only the identity summand survives.
        vec = f_pi((0, 1, 2))
        assert vec == {(0, 0, 0): 1}

    def test_matches_loop_on_every_permutation(self):
        # Same entries in the same insertion order, for every pi, m <= 6.
        for m in range(1, 7):
            for pi in permutations(range(m)):
                assert admissible(pi) == brute_admissible(pi), pi
                assert list(f_pi(pi).items()) == list(loop_f_pi(pi).items())

    def test_admissible_set_injective(self):
        for pi in permutations(range(4)):
            pairs = admissible(pi)
            xs = [x for _, x in pairs]
            assert len(set(xs)) == len(xs)


class TestSignedAdmissible:
    """X_pi comes off the signed table when m! <= _ROWS_PER_SIGMA |X_pi| and
    from the depth-first search otherwise; both must give the brute force's
    sigma, x(sigma) and signs in the same order, and the search must never
    build a table."""

    @staticmethod
    def outputs(m, pi):
        g = gamma_graph(pi)
        return (admissible(pi), eigenvectors._signed_admissible(pi)[1],
                list(f_pi(pi).items()), g.labels, g.rows)

    @staticmethod
    def spy(monkeypatch, name):
        """The list of m (or b) each call of eigenvectors.<name> gets."""
        calls, real = [], getattr(eigenvectors, name)

        def spied(arg):
            calls.append(arg)
            return real(arg)

        monkeypatch.setattr(eigenvectors, name, spied)
        return calls

    def test_table_matches_search_up_to_the_bound(self, monkeypatch):
        # Every pi up to the exhaustive bound m = 6, by search (ratio 0) and
        # by table (6! |X_pi| >= m!): the same entries in the same insertion
        # order, f_pi too, and the same Gamma labels and rows; both paths'
        # signs are the brute force's.
        bound = 6
        pis = [pi for m in range(bound + 1) for pi in permutations(range(m))]
        runs = []
        for ratio in (0, factorial(bound)):
            monkeypatch.setattr(eigenvectors, "_ROWS_PER_SIGMA", ratio)
            runs.append([self.outputs(len(pi), pi) for pi in pis])
        for pi, search, table in zip(pis, *runs):
            assert table == search, pi
            pairs, signs = table[0], table[1]
            assert signs == [brute_sign(s) for s, _ in pairs], pi

    def test_no_table_above_the_bound(self, monkeypatch):
        # The rule: a table is built exactly when m! <= _ROWS_PER_SIGMA
        # |X_pi|, and on both sides X_pi and F_pi are the brute force's.
        tables = self.spy(monkeypatch, "_signed_table")
        ratio = eigenvectors._ROWS_PER_SIGMA
        rng = random.Random(7)
        for m, n in ((7, 4), (7, 9), (8, 3), (8, 5), (5, 1), (5, 2), (6, 3),
                     (6, 4), (7, 6)):
            for pi in rng.sample(permutations_with_inversions(m, n), 3):
                before = len(tables)
                _, _, vec, labels, _ = self.outputs(m, pi)
                within = factorial(m) <= ratio * gamma_order(pi)
                assert set(tables[before:]) == ({m} if within else set()), pi
                if m <= 7:
                    assert vec == list(loop_f_pi(pi).items()), pi
                assert labels == tuple(x for x, _ in vec)
        assert f_pi(tuple(range(1200))) == {(0,) * 1200: 1}
        assert 1200 not in tables

    def test_search_and_table_work(self, monkeypatch):
        # Work pin, counted: F_pi over the 49 pi of m = 6 with at most 3
        # inversions (|X_pi| <= 8) walks the search 49 times and builds no
        # table; over the 222 pi of m = 7 with 8 inversions and |X_pi| >= 128
        # it reads the table each time and never searches.
        searches = self.spy(monkeypatch, "_admissible_search")
        tables = self.spy(monkeypatch, "_signed_table")
        small = [pi for n in range(4)
                 for pi in permutations_with_inversions(6, n)]
        for pi in small:
            assert gamma_order(pi) <= 8
            f_pi(pi)
        assert (len(small), len(searches), tables) == (49, 49, [])
        large = [pi for pi in permutations_with_inversions(7, 8)
                 if gamma_order(pi) >= 128]
        for pi in large:
            f_pi(pi)
        assert (len(large), len(searches), tables) == (222, 49, [7] * 222)

    def test_one_table_build_per_m(self):
        # Work pin: F_pi families of interleaved m and an F_pw family build
        # each m's table once, so a cache too small for them shows here.
        table = eigenvectors._signed_table
        table.cache_clear()
        for m in (5, 6, 5, 4, 6):
            for n in range(comb(m, 2) + 1):
                for pi in permutations_with_inversions(m, n):
                    f_pi(pi)
        f_pw_family(4, 8)
        f_pi((0, 2, 1, 3, 4, 6, 5))
        assert table.cache_info().misses == 3


class TestFPW:
    def test_canonical_w_is_centered_progression(self):
        w = canonical_w(4)
        assert w == (Fraction(-3, 2), Fraction(-1, 2),
                     Fraction(1, 2), Fraction(3, 2))
        assert sum(canonical_w(5)) == 0

    def test_family_size(self):
        for m in range(2, 5):
            for n in range(comb(m, 2), comb(m, 2) + 4):
                fam = f_pw_family(m, n)
                assert len(fam) == comb(n - comb(m - 1, 2), m - 1)

    def test_empty_below_threshold(self):
        assert f_pw_family(4, 5) == []

    def test_invalid_orbit_rejected(self):
        # Repeated w entries collapse orbit points onto the same vertex.
        with pytest.raises(InvalidOrbit):
            f_pw((1, 1, 1), (0, 0, 1))
        # Non-lattice orbit points: integer p with half-integer w (even m).
        with pytest.raises(InvalidOrbit):
            f_pw((0, 0, 0, 6), canonical_w(4))
        # Negative coordinates.
        with pytest.raises(InvalidOrbit):
            f_pw((0, 0, 3), canonical_w(3))

    def test_invalid_orbit_messages(self):
        # The first failing orbit point names the fault.
        cases = {
            ((1, 1, 1), (0, 0, 1)): "orbit points collide at (1, 1, 2)",
            ((0, 0, 0, 6), canonical_w(4)):
                "orbit point (Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2),"
                " Fraction(15, 2)) is not a lattice point",
        }
        for (p, w), text in cases.items():
            with pytest.raises(InvalidOrbit) as exc:
                f_pw(p, w)
            assert str(exc.value) == text == \
                outcome(loop_f_pw, p, w, len(p), sum(p) + sum(w))

    def test_matches_loop_on_random_orbits(self):
        # Half-integral p and w, valid or not: the same vector in the same
        # order, or the same InvalidOrbit message.  Every orbit point sums
        # to sum(p) + sum(w), so the loop's sum check never fires.
        rng = random.Random(43)
        kinds = Counter()
        for _ in range(400):
            m = rng.randrange(1, 5)
            e = rng.randrange(2)
            f = e if rng.random() < 0.8 else 1 - e
            p = [Fraction(2 * rng.randrange(0, 5) + e, 2) for _ in range(m)]
            w = [Fraction(2 * rng.randrange(-2, 3) + f, 2) for _ in range(m)]
            got = outcome(f_pw, p, w)
            assert got == outcome(loop_f_pw, p, w, m, sum(p) + sum(w)), (p, w)
            kinds[next((k for k in ("collide", "lattice")
                        if k in str(got)), "vector")] += 1
        assert min(kinds.values()) >= 40 and len(kinds) == 3, kinds

    def test_family_matches_loop(self):
        for m in range(1, 6):
            w = canonical_w(m)
            for n in range(0, 12):
                fam = f_pw_family(m, n)
                rest = n - comb(m, 2)
                assert [p for p, _ in fam] == [
                    tuple(Fraction(m - 1, 2) + t for t in q)
                    for q in (sr_vertices(m, rest) if rest >= 0 else [])]
                for p, vec in fam:
                    assert list(vec.items()) == outcome(loop_f_pw, p, w, m, n)

    def test_orbit_signs(self):
        fam = f_pw_family(3, 3)
        assert len(fam) == 1
        _, vec = fam[0]
        assert sorted(vec.values()) == [-1, -1, -1, 1, 1, 1]


class TestGammaGraph:
    def test_order_counts_admissible_points(self):
        g = gamma_graph((2, 1, 0))
        assert g.order == 6
        assert g.family == "gamma"

    def test_regular_of_valency_n(self):
        for m, pi in ((3, (2, 1, 0)), (4, (1, 3, 0, 2)), (4, (2, 0, 3, 1))):
            n = inversion_count(pi)
            g = gamma_graph(pi)
            assert set(g.degrees()) == {n}

    def test_edges_join_labels_differing_in_two_places(self):
        for m in range(6):
            for pi in permutations(range(m)):
                g = gamma_graph(pi)
                pairs = {(i, j) for i, j in combinations(range(g.order), 2)
                         if sum(a != b for a, b in zip(g.labels[i], g.labels[j])) == 2}
                assert set(g.edges()) == pairs, pi

    def test_reversal_gives_cayley_graph(self):
        for m in (3, 4):
            rev = tuple(range(m - 1, -1, -1))
            g = gamma_graph(rev)
            assert nx.is_isomorphic(to_nx(g), to_nx(cayley_transpositions(m)))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            gamma_graph((0, 0, 2))

    def test_labels_and_rows_match_loop(self):
        # Labels in admissible order, rows by the SR rule on them.
        for m in range(1, 6):
            for pi in permutations(range(m)):
                g = gamma_graph(pi)
                labels = tuple(x for _, x in brute_admissible(pi))
                rows = [sum(1 << j for j, y in enumerate(labels)
                            if sum(a != b for a, b in zip(x, y)) == 2)
                        for x in labels]
                assert g.labels == labels and list(g.rows) == rows, pi

    def test_order_formula_counts_admissible_set(self):
        for m in range(1, 7):
            for pi in permutations(range(m)):
                assert gamma_order(pi) == len(admissible(pi)), pi


class TestCayley:
    def test_transposition_cayley_graph(self):
        g = cayley_transpositions(3)
        assert g.order == 6
        assert set(g.degrees()) == {3}
        assert nx.is_isomorphic(to_nx(g), nx.complete_bipartite_graph(3, 3))

    def test_order_and_valency(self):
        g = cayley_transpositions(4)
        assert g.order == 24
        assert set(g.degrees()) == {6}
        assert nx.is_bipartite(to_nx(g))


class TestClassifyGamma:
    def test_n1_and_n2(self, gamma_classes):
        for n, target in ((1, complete_graph(2)), (2, cube_graph(2))):
            classes = gamma_classes(n)
            assert len(classes) == 1
            assert nx.is_isomorphic(to_nx(classes[0].graph), to_nx(target))

    def test_n3_classification(self, gamma_classes):
        classes = gamma_classes(3)
        assert len(classes) == 2
        targets = [complete_bipartite(3, 3), cube_graph(3)]
        for target in targets:
            assert any(nx.is_isomorphic(to_nx(c.graph), to_nx(target))
                       for c in classes)
        assert all(c.probe.is_integral for c in classes)

    def test_n4_classification(self, gamma_classes):
        classes = gamma_classes(4)
        assert len(classes) == 2
        targets = [cartesian_product(complete_bipartite(3, 3), complete_graph(2)),
                   cube_graph(4)]
        for target in targets:
            assert any(nx.is_isomorphic(to_nx(c.graph), to_nx(target))
                       for c in classes)

    def test_n0_is_one_vertex(self, gamma_classes):
        [c] = gamma_classes(0)
        assert (c.graph.order, c.m, c.pi, c.occurrences) == (1, 1, (0,), 1)
        assert c.probe.to_json() == {"integral": True, "spectrum": "0^1"}

    def test_occurrence_counts(self, gamma_classes):
        # Total occurrences = sum over m <= 2n of mahonian(m, n).
        for n in (1, 2, 3):
            classes = gamma_classes(n)
            total = sum(c.occurrences for c in classes)
            assert total == sum(mahonian(m, n) for m in range(2, 2 * n + 1))

    def test_json_fields(self, gamma_classes):
        payload = gamma_classes(2)[0].to_json()
        assert payload["order"] == 4
        assert payload["valency"] == 2
        assert payload["bipartite"] is True
        assert payload["integral"] is True
        assert payload["spectrum"] == "2^1 0^2 (-2)^1"


class TestSmallN:
    def test_kind_catalogue(self):
        assert SMALL_N_KINDS == ("n3_m-3", "n4_2m-5", "n4_m-6")

    def test_eigenvalues(self):
        assert small_n_eigenvalue("n3_m-3", 5) == 2
        assert small_n_eigenvalue("n4_2m-5", 5) == 5
        assert small_n_eigenvalue("n4_m-6", 5) == -1
        with pytest.raises(ValueError):
            small_n_eigenvalue("n2_m", 4)

    def test_n3_vectors(self, sr):
        for m in range(3, 7):
            g = sr(m, 3)
            for h in range(m):
                vec = small_n_eigenvector("n3_m-3", m, h)
                assert verify_eigenvector(g, vec, m - 3)

    def test_n4_vectors(self, sr):
        for m in range(4, 7):
            g = sr(m, 4)
            for h in range(m):
                vec = small_n_eigenvector("n4_2m-5", m, h)
                assert verify_eigenvector(g, vec, 2 * m - 5)
            for h in range(m):
                for i in range(m):
                    if i == h:
                        continue
                    vec = small_n_eigenvector("n4_m-6", m, (h, i))
                    assert verify_eigenvector(g, vec, m - 6)

    def test_n3_family_rank(self, sr):
        m = 5
        g = sr(m, 3)
        vecs = [small_n_eigenvector("n3_m-3", m, h) for h in range(m)]
        rows = [[v.get(lab, 0) for lab in g.labels] for v in vecs]
        # The m anchored vectors sum to zero; any m-1 of them are free.
        assert rank(rows) == m - 1

    def test_anchor_validation(self):
        with pytest.raises(ValueError):
            small_n_eigenvector("n3_m-3", 2, 0)
        with pytest.raises(ValueError):
            small_n_eigenvector("n4_m-6", 5, (2, 2))
