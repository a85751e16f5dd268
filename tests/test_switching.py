"""Switching sets, the switch involution, and closure exploration."""

import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_edges, property_test
from rooklab import invariants
from rooklab.graphs import (complete_graph, cycle_graph, cube_graph,
                            johnson_graph, sr_graph)
from rooklab.invariants import canonical_form, is_isomorphic
from rooklab.linalg import integral_spectrum
from rooklab.switching import (NotSwitchable, SwitchingSet, _odd_outside,
                               enumerate_switching_sets, gm_switch,
                               named_switching_set, switching_closure,
                               validate_switching_set)
from rooklab.invariants import SizeLimit


def path_graph(n):
    return from_edges(range(n), [(i, i + 1) for i in range(n - 1)])


def random_graph(rng, v):
    p = rng.random()
    return from_edges(range(v), [(i, j) for i, j in combinations(range(v), 2)
                                 if rng.random() < p])


def quartic_sets(g):
    """Every switching 4-set by a plain quartic loop over the quadruples in
    lexicographic order: the outside parity first, then inner regularity.
    The oracle for the vectorised scan of enumerate_switching_sets."""
    v, rows = g.order, g.rows
    out = []
    for a in range(v):
        for b in range(a + 1, v):
            for c in range(b + 1, v):
                mask3 = (1 << a) | (1 << b) | (1 << c)
                odd3 = rows[a] ^ rows[b] ^ rows[c]
                for d in range(c + 1, v):
                    mask = mask3 | (1 << d)
                    if (odd3 ^ rows[d]) & ~mask:
                        continue
                    inner0 = (rows[a] & mask).bit_count()
                    if all((rows[u] & mask).bit_count() == inner0
                           for u in (b, c, d)):
                        out.append(SwitchingSet((a, b, c, d)))
    return out


def inner_degree(g, members):
    """The common degree of the subgraph induced on members, checked to be
    regular, counted one edge at a time."""
    degrees = {sum(g.rows[u] >> w & 1 for w in members) for u in members}
    assert len(degrees) == 1
    return degrees.pop()


def outside_counts(g, members):
    """Neighbours in `members` of each outside vertex, counted one by one."""
    return {u: sum(g.rows[u] >> b & 1 for b in members)
            for u in range(g.order) if u not in members}


class TestValidate:
    def test_clique_sets_tagged(self):
        g = sr_graph(4, 3)
        b = named_switching_set(g, "ones")
        assert inner_degree(g, b.members) == 3
        assert len(b.members) == 4

    def test_regular_non_clique_sets_tagged(self):
        # The scaled unit vectors are pairwise adjacent, so v1 is also a
        # clique; non-clique regular sets appear in the full enumeration.
        g = sr_graph(4, 3)
        assert inner_degree(g, named_switching_set(g, "v1").members) == 3
        cliques = {inner_degree(g, b.members) == 3
                   for b in enumerate_switching_sets(g)}
        assert cliques == {True, False}

    def test_rejects_duplicates_and_wrong_size(self):
        g = complete_graph(6)
        with pytest.raises(ValueError):
            validate_switching_set(g, (0, 1, 2))
        with pytest.raises(ValueError):
            validate_switching_set(g, (0, 1, 2, 2))

    def test_rejects_irregular_induced_subgraph(self):
        # K_5 minus one edge: degrees inside any 4-set containing both
        # endpoints of the missing edge are unbalanced.
        g = from_edges(range(5), [(i, j) for i in range(5)
                                  for j in range(i + 1, 5)
                                  if (i, j) != (3, 4)])
        with pytest.raises(NotSwitchable):
            validate_switching_set(g, (1, 2, 3, 4))

    def test_rejects_odd_outside_degree(self):
        # P_6 with B = {0,1,4,5}: vertex 2 sees one member.
        g = path_graph(6)
        with pytest.raises(NotSwitchable) as err:
            validate_switching_set(g, (0, 1, 4, 5))
        assert str(err.value) == "vertex 2 is adjacent to 1 members of (0, 1, 4, 5)"

    def test_outside_parity_is_the_count_condition(self):
        # Bit u of the XOR of the members' rows is the parity of u's count,
        # and 0..4 is odd exactly at 1 and 3.  Checked against counting on
        # seeded random graphs, with validate's first witness and message.
        rng = random.Random(9)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(5, 12))
            members = tuple(sorted(rng.sample(range(g.order), 4)))
            mask = sum(1 << u for u in members)
            counts = outside_counts(g, members)
            bad = [u for u, count in counts.items() if count not in (0, 2, 4)]
            odd = _odd_outside(g.rows, members, mask)
            assert [u for u in range(g.order) if (odd >> u) & 1] == bad
            inner = {(g.rows[u] & mask).bit_count() for u in members}
            if len(inner) != 1 or not bad:
                continue
            with pytest.raises(NotSwitchable) as err:
                validate_switching_set(g, members)
            assert str(err.value) == (f"vertex {bad[0]} is adjacent to "
                                      f"{counts[bad[0]]} members of {members}")

    def test_numpy_integer_members_past_63_vertices(self):
        # J(12, 2) has 66 vertices; members given as np.int64 are converted
        # to int before any shift, so bit 64 is not lost or refused.
        g = johnson_graph(12, 2)
        members = np.array([0, 8, 20, 64], dtype=np.int64)
        b = validate_switching_set(g, members)
        assert b.members == (0, 8, 20, 64)
        assert all(type(u) is int for u in b.members)
        assert gm_switch(g, members).rows == gm_switch(g, b).rows
        assert gm_switch(g, members).rows != g.rows

    def test_accepts_valid_set(self):
        g = cycle_graph(4)
        b = validate_switching_set(g, (0, 1, 2, 3))
        assert isinstance(b, SwitchingSet)
        assert b.members == (0, 1, 2, 3)


class TestSwitch:
    def test_involution(self):
        g = sr_graph(4, 3)
        for name in ("v1", "e12", "ones"):
            b = named_switching_set(g, name)
            assert gm_switch(gm_switch(g, b), b).rows == g.rows

    def test_cospectral(self):
        g = sr_graph(4, 3)
        base = integral_spectrum(g).pairs
        for name in ("v1", "e12", "ones"):
            mate = gm_switch(g, named_switching_set(g, name))
            assert integral_spectrum(mate).pairs == base

    def test_non_isomorphic_mates(self):
        g = sr_graph(4, 3)
        for name in ("v1", "e12", "ones"):
            mate = gm_switch(g, named_switching_set(g, name))
            assert not is_isomorphic(mate, g)

    def test_ineffective_set_keeps_graph(self):
        # In K_6, every outside vertex sees all four members: nothing flips.
        g = complete_graph(6)
        mate = gm_switch(g, (0, 1, 2, 3))
        assert mate.rows == g.rows

    def test_switching_set_of_another_graph_raises(self):
        # A SwitchingSet does not hold its graph: gm_switch checks it again.
        g, h = sr_graph(4, 3), sr_graph(4, 4)
        b = SwitchingSet((0, 1, 2, 3))
        assert validate_switching_set(g, b.members) == b
        with pytest.raises(NotSwitchable, match="vertex 8 is adjacent to 1"):
            gm_switch(h, b)
        for b in enumerate_switching_sets(cube_graph(3)):
            with pytest.raises(NotSwitchable):
                gm_switch(cycle_graph(8), b)
        with pytest.raises(ValueError):
            gm_switch(g, SwitchingSet((0, 1, 2)))

    def test_raw_member_tuple_accepted(self):
        g = sr_graph(4, 3)
        named = named_switching_set(g, "v1")
        assert gm_switch(g, named.members).rows == gm_switch(g, named).rows

    def test_degree_sequence_preserved(self):
        g = sr_graph(4, 4)
        mate = gm_switch(g, named_switching_set(g, "v1"))
        assert sorted(mate.degrees()) == sorted(g.degrees())

    def test_switched_graph_keeps_labels(self):
        g = sr_graph(4, 3)
        mate = gm_switch(g, named_switching_set(g, "v1"))
        assert mate.labels == g.labels


class TestNamedSets:
    def test_v1_members_are_scaled_units(self):
        g = sr_graph(4, 5)
        b = named_switching_set(g, "v1")
        labels = {g.labels[i] for i in b.members}
        assert labels == {(5, 0, 0, 0), (0, 5, 0, 0), (0, 0, 5, 0),
                          (0, 0, 0, 5)}

    def test_e12_members_live_on_first_two_coordinates(self):
        g = sr_graph(5, 3)
        b = named_switching_set(g, "e12")
        for i in b.members:
            lab = g.labels[i]
            assert sum(lab[:2]) == 3 and sum(lab[2:]) == 0

    def test_ones_members_are_zero_one_vectors(self):
        g = sr_graph(4, 3)
        b = named_switching_set(g, "ones")
        assert {g.labels[i] for i in b.members} == \
            {(0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)}

    def test_unavailable_names_rejected(self):
        with pytest.raises(ValueError):
            named_switching_set(sr_graph(3, 3), "v1")  # needs m = 4
        with pytest.raises(ValueError):
            named_switching_set(sr_graph(4, 4), "ones")
        with pytest.raises(ValueError):
            named_switching_set(sr_graph(4, 3), "nope")


class TestEnumeration:
    def test_all_enumerated_sets_validate(self):
        g = sr_graph(3, 3)
        sets = enumerate_switching_sets(g)
        assert sets
        for b in sets:
            validate_switching_set(g, b.members)

    def test_named_sets_are_found(self):
        g = sr_graph(4, 3)
        enumerated = {b.members for b in enumerate_switching_sets(g)}
        for name in ("v1", "e12", "ones"):
            assert named_switching_set(g, name).members in enumerated

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng, rng.randrange(4, 10))
            expected = [
                b for b in combinations(range(g.order), 4)
                if len({sum(g.rows[u] >> w & 1 for w in b) for u in b}) == 1
                and all(c in (0, 2, 4) for c in outside_counts(g, b).values())]
            assert [b.members for b in enumerate_switching_sets(g)] == expected

    @pytest.mark.parametrize("v, p", [
        (v, p) for v in (63, 64, 65) for p in (0.02, 0.5, 0.98)] + [(100, 0.02)])
    def test_matches_quartic_loop_across_word_boundary(self, v, p):
        # Rows of one word, of two, and at the 100-vertex cap.  The sparse
        # and dense graphs have over a thousand sets each.
        rng = random.Random(v)
        g = from_edges(range(v), [e for e in combinations(range(v), 2)
                                  if rng.random() < p])
        sets = enumerate_switching_sets(g)
        assert sets == quartic_sets(g)
        if p != 0.5:
            assert len(sets) > 1000
        if (v, p) in ((65, 0.98), (100, 0.02)):
            assert any(b.members[0] < 64 <= b.members[3] for b in sets)

    @pytest.mark.parametrize("v", [0, 1, 2, 3])
    def test_fewer_than_four_vertices(self, v):
        assert enumerate_switching_sets(complete_graph(v)) == []
        assert enumerate_switching_sets(from_edges(range(v), [])) == []

    def test_matches_quartic_loop_on_sr43_mates(self):
        g = sr_graph(4, 3)
        for b in enumerate_switching_sets(g):
            mate = gm_switch(g, b)
            assert enumerate_switching_sets(mate) == quartic_sets(mate)

    def test_johnson_8_2(self):
        g = johnson_graph(8, 2)
        sets = enumerate_switching_sets(g)
        assert len(sets) == 315
        assert sets == quartic_sets(g)

    def test_members_are_python_ints(self):
        for g in (sr_graph(4, 3), johnson_graph(12, 2)):
            sets = enumerate_switching_sets(g)
            assert sets
            assert all(type(u) is int for b in sets for u in b.members)

    @settings(property_test, max_examples=10)
    @given(st.sampled_from([(4, 3), (4, 4)]).flatmap(
        lambda mn: st.tuples(st.just(mn),
                             st.permutations(range(sr_graph(*mn).order)))))
    def test_property_relabelling_maps_sets(self, case):
        # New vertex perm[u] is old vertex u, so each set maps onto the
        # sorted tuple of its members' images.
        (m, n), perm = case
        g = sr_graph(m, n)
        images = sorted(tuple(sorted(perm[u] for u in b.members))
                        for b in enumerate_switching_sets(g))
        assert [b.members for b in
                enumerate_switching_sets(g.relabeled(perm))] == images

    def test_cube_has_switching_sets(self):
        g = cube_graph(3)
        sets = enumerate_switching_sets(g)
        assert sets
        assert all(inner_degree(g, b.members) < 3 for b in sets)

    def test_size_guard(self):
        with pytest.raises(SizeLimit):
            enumerate_switching_sets(sr_graph(5, 5))


class TestClosure:
    def test_cap_reported(self):
        g = sr_graph(4, 3)
        result = switching_closure(g, 10)
        assert result.capped
        assert result.count == 10

    def test_start_graph_included_first(self):
        g = sr_graph(4, 3)
        result = switching_closure(g, 5)
        assert result.graphs[0].rows == g.rows

    def test_closure_members_pairwise_nonisomorphic(self):
        result = switching_closure(sr_graph(4, 3), 12)
        graphs = result.graphs
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert not is_isomorphic(graphs[i], graphs[j])

    def test_closure_members_cospectral(self):
        g = sr_graph(4, 3)
        base = integral_spectrum(g).pairs
        for h in switching_closure(g, 12).graphs:
            assert integral_spectrum(h).pairs == base

    def test_graph_without_sets_is_singleton(self):
        g = cycle_graph(5)
        result = switching_closure(g, 50)
        assert result.count == 1
        assert not result.capped


def reference_closure(g, limit):
    """The closure by plain BFS: every enumerated set of every class is
    switched, and each mate gets a canonical form of its own."""
    seen = {canonical_form(g).certificate}
    reps = [g]
    for current in reps:
        for b in enumerate_switching_sets(current):
            mate = gm_switch(current, b)
            cert = canonical_form(mate).certificate
            if cert in seen:
                continue
            if len(reps) >= limit:
                return reps, True
            seen.add(cert)
            reps.append(mate)
    return reps, False


def assert_closure_matches_reference(g, limit):
    result = switching_closure(g, limit)
    reps, capped = reference_closure(g, limit)
    assert [(h.labels, h.rows) for h in result.graphs] == \
        [(h.labels, h.rows) for h in reps]
    assert result.capped == capped


class TestClosureOrbits:
    """The closure switches one set per orbit of each class's automorphisms
    and still returns what switching every set returns."""

    @pytest.mark.parametrize("g, limit", [
        (sr_graph(4, 3), 1), (sr_graph(4, 3), 12), (sr_graph(4, 3), 60),
        (cube_graph(3), 50), (cycle_graph(5), 50)],
        ids=["sr43-cap1", "sr43-cap12", "sr43-cap60", "cube3", "cycle5"])
    def test_matches_plain_bfs(self, g, limit):
        assert_closure_matches_reference(g, limit)

    @settings(property_test, max_examples=10)
    @given(st.permutations(range(20)))
    def test_property_matches_plain_bfs_relabelled(self, perm):
        assert_closure_matches_reference(sr_graph(4, 3).relabeled(perm), 12)

    def test_one_search_per_switched_orbit(self, monkeypatch):
        # One search for the start graph and one per orbit representative;
        # switching every set takes 74.
        calls = []

        class Counting(invariants._CanonicalSearch):
            def __init__(self, rows):
                calls.append(len(rows))
                super().__init__(rows)

        monkeypatch.setattr(invariants, "_CanonicalSearch", Counting)
        assert switching_closure(sr_graph(4, 3), 12).count == 12
        assert len(calls) == 28
