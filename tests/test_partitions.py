"""Equitable partitions, quotient matrices, and the support-block formula."""

import pytest

from rooklab.graphs import cycle_graph, complete_graph, sr_graph
from rooklab.partitions import (NotEquitable, VertexPartition, check_equitable,
                                e_st_formula, johnson_support_partition,
                                support_partition, weight_partition)


class TestVertexPartition:
    def test_blocks_sorted_by_label(self):
        p = VertexPartition(((3, 1), (0, 2)), ((1, 2), (0, 1)))
        assert p.labels == ((0, 1), (1, 2))
        assert p.blocks == ((0, 2), (1, 3))

    def test_validation(self):
        p = VertexPartition(((0, 1), (2,)), ("a", "b"))
        p.validate(3)
        with pytest.raises(ValueError):
            p.validate(4)  # vertex 3 missing
        with pytest.raises(ValueError):
            VertexPartition(((0, 1), (1, 2)), ("a", "b")).validate(3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            VertexPartition(((0,),), ("a", "b"))


class TestWeightPartition:
    def test_blocks_group_by_nonzero_count(self):
        g = sr_graph(3, 3)
        p = weight_partition(g)
        assert p.labels == (1, 2, 3)
        for block, lab in zip(p.blocks, p.labels):
            for v in block:
                assert sum(1 for x in g.labels[v] if x) == lab

    def test_block_sizes(self):
        # Weight-i block: choose i coordinates, then a positive composition.
        g = sr_graph(4, 3)
        p = weight_partition(g)
        assert tuple(len(b) for b in p.blocks) == (4, 12, 4)

    def test_rejects_non_sr(self):
        with pytest.raises(ValueError):
            weight_partition(complete_graph(4))


class TestSupportPartition:
    def test_blocks_group_by_support(self):
        g = sr_graph(3, 2)
        p = support_partition(g)
        assert set(p.labels) == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}

    def test_johnson_partition_rejects_wrong_graph(self):
        with pytest.raises(ValueError):
            johnson_support_partition(complete_graph(4))


class TestCheckEquitable:
    def test_quotient_rows_sum_to_valency(self):
        g = sr_graph(4, 3)
        q = check_equitable(g, support_partition(g))
        assert {sum(row) for row in q.entries} == {9}

    def test_single_block_gives_valency(self):
        g = sr_graph(3, 3)
        p = VertexPartition((tuple(range(g.order)),), ("all",))
        q = check_equitable(g, p)
        assert q.entries == ((6,),)

    def test_not_equitable_witness(self):
        # Split C_5 into a 2-block and a 3-block: neighbor counts differ
        # inside the 3-block, and the first witness is deterministic.
        g = cycle_graph(5)
        p = VertexPartition(((0, 1), (2, 3, 4)), ("a", "b"))
        with pytest.raises(NotEquitable) as err:
            check_equitable(g, p)
        # Block 1 = {2, 3, 4}: vertex 2 has neighbor 1 in block 0, vertex
        # 3 has none (its neighbors are 2 and 4).
        assert str(err.value) == \
            "block 1 -> 0: vertex 2 has 1 neighbors, vertex 3 has 0"

    def test_weight_quotient_tridiagonal(self):
        # Weight blocks only interact with adjacent weights: moving one
        # unit between coordinates changes the support size by at most 1.
        g = sr_graph(4, 4)
        q = check_equitable(g, weight_partition(g))
        for i in range(len(q.entries)):
            for j in range(len(q.entries)):
                if abs(i - j) > 1:
                    assert q.entries[i][j] == 0

    def test_weight_quotient_known_entries(self):
        # Off-diagonal counts: i(i-1) down, (n-i)(m-i) up.
        g = sr_graph(4, 3)
        q = check_equitable(g, weight_partition(g))
        m, n = 4, 3
        for idx, i in enumerate(q.labels):
            if idx + 1 < len(q.entries):
                assert q.entries[idx][idx + 1] == (n - i) * (m - i)
            if idx > 0:
                assert q.entries[idx][idx - 1] == i * (i - 1)


class TestESTFormula:
    def test_same_support(self):
        # S = T with |S| = i contributes (i-1)(n-i) moves that keep the
        # support; the per-case expansion is exercised against real
        # quotient entries below.
        assert e_st_formula(frozenset({0, 1}), frozenset({0, 1}), 3) == 1
        assert e_st_formula(frozenset({0}), frozenset({0}), 3) == 0

    def test_containment_cases(self):
        s2 = frozenset({0, 1})
        s1 = frozenset({0})
        assert e_st_formula(s2, s1, 3) == 1  # drop a coordinate: i-1 ways
        assert e_st_formula(s1, s2, 3) == 2  # split 3e_0 into a,b >= 1

    def test_disjoint_is_zero(self):
        assert e_st_formula(frozenset({0, 1}), frozenset({2, 3}), 3) == 0
        assert e_st_formula(frozenset({0, 1}), frozenset({2, 3, 4}), 5) == 0

    def test_rejects_empty_or_oversized(self):
        with pytest.raises(ValueError):
            e_st_formula(frozenset(), frozenset({0}), 3)
        with pytest.raises(ValueError):
            e_st_formula(frozenset({0, 1, 2, 3}), frozenset({0}), 3)


class TestQuotientSpectrum:
    def test_serialization(self):
        g = sr_graph(3, 2)
        q = check_equitable(g, support_partition(g))
        payload = q.to_json()
        assert payload["labels"][0] == [0]
        assert len(payload["entries"]) == len(q.entries)
        csv = q.to_csv()
        assert csv.startswith("label,")
        assert len(csv.splitlines()) == len(q.entries) + 1
