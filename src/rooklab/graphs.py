"""Simplicial rook graphs and companion constructions.

The simplicial rook graph SR(m, n) has one vertex for every length-m vector
of nonnegative integers summing to n; two vertices are adjacent when they
differ in exactly two coordinate positions.  Degenerate corners follow the
usual conventions: SR(m, 0) and SR(1, n) are single vertices, SR(0, n) with
n > 0 has no vertices at all, SR(m, 1) is the complete graph K_m and
SR(2, n) is K_{n+1}.

The companion graphs are SR induced on a subset of its vertices: the Johnson
graph J(v, n) is SR(v, n) on the 0/1 vectors, and Gamma(m, n, pi) (built in
eigenvectors) is SR(m, n) on the support X_pi of F_pi.  All three take their
rows from one adjacency rule, _sr_rows, which counts for every pair of
vectors the places where they agree as one matrix product of one-hot
encodings, a block of rows at a time; the counts are small integers, exact in
float32, and a pair is adjacent when it agrees in all but two places.

Vertices carry hashable labels (integer tuples for SR and Johnson graphs);
adjacency is stored as one Python-int bit row per vertex, which keeps edge
tests, common-neighbour counts and induced subgraphs cheap and exact.
"""

from __future__ import annotations

import itertools
from math import comb

import numpy as np


class Graph:
    """Immutable undirected graph with labelled vertices and bitset rows."""

    __slots__ = ("labels", "rows", "index", "family", "params")

    def __init__(self, labels, rows, family=None, params=None):
        self.labels = tuple(labels)
        self.rows = tuple(rows)
        if len(self.labels) != len(self.rows):
            raise ValueError("labels and adjacency rows disagree in length")
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if len(self.index) != len(self.labels):
            raise ValueError("vertex labels must be distinct")
        self.family = family
        self.params = params

    @property
    def order(self):
        return len(self.labels)

    def degrees(self):
        return [r.bit_count() for r in self.rows]

    def neighbors(self, i):
        return list(_bits(self.rows[i]))

    def edge_count(self):
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        """Yield edges as index pairs (i, j) with i < j, in row order."""
        for i, row in enumerate(self.rows):
            for j in _bits(row >> (i + 1)):
                yield (i, i + 1 + j)

    def adjacency_matrix(self):
        """Dense adjacency matrix as an int64 numpy array."""
        return _bit_matrix(self.rows).astype(np.int64)

    def complement(self):
        v = self.order
        full = (1 << v) - 1
        rows = [full & ~(r | (1 << i)) for i, r in enumerate(self.rows)]
        return Graph(self.labels, rows)

    def relabeled(self, perm):
        """Image of the graph under perm: new vertex perm[i] is old vertex i.
        Each vertex keeps its label, so family and params stay true."""
        if sorted(perm) != list(range(self.order)):
            raise ValueError("not a permutation of the vertex indices")
        labels = [None] * self.order
        for lab, p in zip(self.labels, perm):
            labels[p] = lab
        return Graph(labels, _permuted_rows(self.rows, perm), self.family,
                     self.params)

    def __repr__(self):
        fam = f" {self.family}{self.params}" if self.family else ""
        return f"<Graph{fam} v={self.order} e={self.edge_count()}>"


def _bits(row):
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _bit_matrix(rows, v=None):
    """Bit rows over v vertices (default: one row per vertex) as a
    len(rows) x v uint8 0/1 matrix: entry [i, j] is bit j of rows[i]."""
    v = len(rows) if v is None else v
    width = (v + 7) // 8
    # Bit j of a row is bit j % 8 of its byte j // 8, little end first.
    data = b"".join(row.to_bytes(width, "little") for row in rows)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8)
                         .reshape(len(rows), width), axis=1, bitorder="little")
    return bits[:, :v]


def _permuted_rows(rows, pos):
    """Bit rows relabelled by the permutation pos: new vertex pos[i] is old
    vertex i.  The caller validates pos.  A row with more than half of the
    vertices is relabelled through its complement in the full vertex set,
    since a permutation commutes with complement.  The image bits 1 << pos[j]
    are built once per call, and each row is walked lowest bit first."""
    v = len(rows)
    full = (1 << v) - 1
    image = [1 << p for p in pos]
    out = [0] * v
    for i, row in enumerate(rows):
        dense = 2 * row.bit_count() > v
        if dense:
            row = full & ~row
        acc = 0
        while row:
            low = row & -row
            acc |= image[low.bit_length() - 1]
            row ^= low
        out[pos[i]] = full & ~acc if dense else acc
    return tuple(out)


def _sr_rows(vectors):
    """Bit rows of SR induced on distinct vectors (a v x m integer array, or
    tuples of nonnegative integers or bools) that share one sum: x ~ y when
    they differ in exactly two places, that is when they agree in exactly
    m - 2 of their m places.

    Column (b, t) of the one-hot is 1 when coordinate b equals t, for t from
    0 to the largest value of coordinate b, so onehot @ onehot.T counts the
    places where two vectors agree.  A vector agrees with itself in all m
    places, so no loop appears.  Each count is a sum of at most m products
    of 0 and 1, every partial sum an integer at most m, so float32 holds it
    exactly while m <= 2**24; longer vectors are refused.  The product runs
    max(32, 2**18 // v) rows at a time, so a block holds at most 2**18
    counts up to 8 192 vertices, and BLAS packs onehot.T once per block."""
    if not len(vectors):
        return []
    x = np.asarray(vectors, dtype=np.int64)
    v, m = x.shape
    if m > 2**24:
        raise ValueError("agreement counts are exact up to 2**24 places")
    start = np.cumsum([0, *(x.max(axis=0) + 1)])
    onehot = np.zeros((v, start[-1]), dtype=np.float32)
    onehot[np.arange(v)[:, None], start[:-1] + x] = 1
    rows = []
    step = max(32, 2**18 // v)
    for lo in range(0, v, step):
        agree = onehot[lo:lo + step] @ onehot.T
        bits = np.packbits(agree == m - 2, axis=1, bitorder="little")
        data, width = bits.tobytes(), bits.shape[1]
        rows += (int.from_bytes(data[i:i + width], "little")
                 for i in range(0, len(data), width))
    return rows


def _sr_vertex_array(m, n):
    """sr_vertices(m, n) as a v x m int64 array, in the same order."""
    if m < 0 or n < 0:
        raise ValueError("m and n must be nonnegative")
    # Row i counts the copies of each place in the i-th multiset of n
    # places.  Of two multisets, as sorted tuples, the smaller has more
    # copies of the first place where they differ, so the reversed rows
    # ascend.
    v = sr_order(m, n)
    places = np.fromiter(itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(m), n)), np.int64,
        v * n).reshape(v, n)
    counts = np.bincount((np.arange(v)[:, None] * m + places).ravel(),
                         minlength=v * m)
    return counts.reshape(v, m)[::-1]


def sr_vertices(m, n):
    """All length-m nonnegative integer vectors summing to n, lexicographic.

    sr_vertices(0, 0) is [()]: the empty vector is the one way to write 0
    as a sum of zero parts.  sr_vertices(0, n) for n > 0 is empty.
    """
    return list(map(tuple, _sr_vertex_array(m, n).tolist()))


def sr_graph(m, n):
    """The simplicial rook graph SR(m, n).

    Vertices in lexicographic order; x ~ y iff they differ in exactly two
    coordinates.  The graph is n(m-1)-regular with C(n+m-1, n) vertices.
    """
    x = _sr_vertex_array(m, n)
    return Graph(map(tuple, x.tolist()), _sr_rows(x), family="sr",
                 params=(m, n))


def johnson_graph(v, n):
    """The Johnson graph J(v, n): n-subsets of {0..v-1}, adjacent when the
    intersection has size n-1.  Labels are sorted tuples.  J(v, n) is SR(v, n)
    induced on the 0/1 vectors: the rows come from indicators (bools, 0/1)."""
    if v < 0 or n < 0:
        raise ValueError("parameters must be nonnegative")
    verts = list(itertools.combinations(range(v), n))
    return Graph(verts, _sr_rows(_indicators(v, verts)), family="johnson",
                 params=(v, n))


def _indicators(v, subsets):
    """The indicator vector over range(v), as bools, of each subset."""
    return [tuple(map(set(s).__contains__, range(v))) for s in subsets]


def complete_graph(n):
    full = (1 << n) - 1
    rows = [full & ~(1 << i) for i in range(n)]
    return Graph(range(n), rows)


def complete_bipartite(a, b):
    left = (1 << a) - 1
    right = ((1 << b) - 1) << a
    rows = [right] * a + [left] * b
    return Graph(range(a + b), rows)


def cycle_graph(n):
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    rows = [(1 << ((i + 1) % n)) | (1 << ((i - 1) % n)) for i in range(n)]
    return Graph(range(n), rows)


def cartesian_product(g, h):
    """Cartesian product: (a,b) ~ (a',b') iff a=a', b~b' or b=b', a~a'.

    Vertex (i, j) of the product sits at index i*h.order + j and carries
    the label pair (g.labels[i], h.labels[j]).
    """
    hv = h.order
    labels = [(la, lb) for la in g.labels for lb in h.labels]
    rows = [0] * (g.order * hv)
    for i in range(g.order):
        gi = g.rows[i]
        for j in range(hv):
            acc = 0
            for j2 in _bits(h.rows[j]):
                acc |= 1 << (i * hv + j2)
            for i2 in _bits(gi):
                acc |= 1 << (i2 * hv + j)
            rows[i * hv + j] = acc
    return Graph(labels, rows)


def cube_graph(d):
    """The d-dimensional hypercube Q_d as an iterated product of K_2."""
    g = complete_graph(2)
    if d == 0:
        return complete_graph(1)
    out = g
    for _ in range(d - 1):
        out = cartesian_product(out, g)
    return out


def sr_order(m, n):
    """Number of vertices of SR(m, n)."""
    return comb(n + m - 1, n) if m >= 1 else (1 if n == 0 else 0)
