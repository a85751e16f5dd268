"""Equitable partitions and quotient matrices.

Two partitions of SR(m,n) matter here: the coarse weight partition (blocks
V_i of vertices with exactly i nonzero coordinates) and the finer support
partition (one block per support set S).  The support partition has the
same quotient matrix as the corresponding partition of the Johnson graph
J(m+n-1,n) by support in the first m coordinates, which is how the two
graphs share a large common part of their spectra.

Blocks are keyed by canonical labels (the weight i, or the sorted tuple of
nonzero coordinate positions) and ordered by label, so quotient matrices of
different graphs can be compared entrywise with no block-matching search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import modular
from .linalg import Spectrum


class NotEquitable(Exception):
    """A partition is not equitable; the message names the witness, two
    vertices in block i with different neighbor counts into block j."""


def _label_key(label):
    if isinstance(label, tuple):
        return (len(label), label)
    return (0, label)


@dataclass(frozen=True)
class VertexPartition:
    """Disjoint nonempty blocks of vertex indices covering the graph,
    each carrying a canonical label, ordered by label."""

    blocks: tuple  # tuple of tuples of vertex indices
    labels: tuple

    def __post_init__(self):
        if len(self.blocks) != len(self.labels):
            raise ValueError("blocks and labels differ in length")
        order = sorted(range(len(self.labels)), key=lambda t: _label_key(self.labels[t]))
        object.__setattr__(self, "blocks",
                           tuple(tuple(sorted(self.blocks[t])) for t in order))
        object.__setattr__(self, "labels", tuple(self.labels[t] for t in order))

    def validate(self, order):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x in seen:
                    raise ValueError(f"vertex {x} in two blocks")
                seen.add(x)
        if seen != set(range(order)):
            raise ValueError("blocks do not cover the vertex set")

    @property
    def size(self):
        return len(self.blocks)


def _grouped(g, label_of):
    groups = {}
    for i, lab in enumerate(g.labels):
        groups.setdefault(label_of(lab), []).append(i)
    return VertexPartition(tuple(tuple(b) for b in groups.values()),
                           tuple(groups.keys()))


def _check_sr(g, name):
    if g.family != "sr" or g.params[1] < 1:
        raise ValueError(f"{name} partition needs an SR(m,n) graph with n >= 1")
    if g.params[0] < 1:
        raise ValueError(f"SR{g.params} is the empty graph; it has no {name} "
                         "partition")


def weight_partition(g) -> VertexPartition:
    """Partition of SR(m,n) by number of nonzero coordinates.

    Block V_i has size binom(m,i) * binom(n-1,i-1); there are min(m,n)
    blocks, labelled by i.
    """
    _check_sr(g, "weight")
    return _grouped(g, lambda v: sum(1 for x in v if x))


def support_partition(g) -> VertexPartition:
    """Partition of SR(m,n) by support (set of nonzero coordinate positions).

    One block per nonempty support S of size <= n; the block for |S| = i
    has binom(n-1, n-i) vertices.
    """
    _check_sr(g, "support")
    return _grouped(g, lambda v: tuple(i for i, x in enumerate(v) if x))


def johnson_support_partition(g) -> VertexPartition:
    """Partition of J(v,n) = J(m+n-1,n) by support in the first m coordinates.

    The support of an n-subset is its intersection with {0..m-1}; the block
    for a support of size i has binom(n-1, n-i) vertices, matching the
    support partition of SR(m,n) block for block.
    """
    if g.family != "johnson":
        raise ValueError("johnson support partition needs a Johnson graph")
    m = g.params[0] - g.params[1] + 1
    return _grouped(g, lambda s: tuple(x for x in s if x < m))


@dataclass(frozen=True)
class QuotientMatrix:
    """Integer quotient matrix of an equitable partition, rows and columns
    indexed by the partition's blocks in label order."""

    entries: tuple  # tuple of tuples
    labels: tuple

    def to_json(self):
        return {"labels": [list(l) if isinstance(l, tuple) else l for l in self.labels],
                "entries": [list(row) for row in self.entries]}

    def to_csv(self):
        lines = ["label," + ",".join(str(l) for l in self.labels)]
        for label, row in zip(self.labels, self.entries):
            lines.append(f"{label}," + ",".join(str(e) for e in row))
        return "\n".join(lines).replace(" ", "")


def check_equitable(g, p: VertexPartition) -> QuotientMatrix:
    """Verify that p is equitable for g and return the quotient matrix.

    Raises NotEquitable with the first offending (block, block, vertex,
    vertex) witness in canonical order.  As the blocks partition the
    vertices, row i sums to the degree of block i's first vertex, so on a
    k-regular graph every row sums to k.
    """
    p.validate(g.order)
    masks = [0] * p.size
    for j, block in enumerate(p.blocks):
        for x in block:
            masks[j] |= 1 << x
    entries = []
    for i, block in enumerate(p.blocks):
        ref = block[0]
        row = [(g.rows[ref] & masks[j]).bit_count() for j in range(p.size)]
        for x in block[1:]:
            for j in range(p.size):
                c = (g.rows[x] & masks[j]).bit_count()
                if c != row[j]:
                    raise NotEquitable(
                        f"block {i} -> {j}: vertex {ref} has {row[j]} "
                        f"neighbors, vertex {x} has {c}")
        entries.append(tuple(row))
    return QuotientMatrix(tuple(entries), p.labels)


def e_st_formula(s, t, n: int) -> int:
    """Entry e_{ST} of the support-partition quotient matrix of SR(m,n).

    Five cases depending on how the supports S and T relate; |S| = i:
    (i-1)(n-i) on the diagonal, i-1 for T one smaller inside S, n-i for
    T one larger containing S, 1 for same-size supports differing in two
    places, 0 otherwise.
    """
    s, t = frozenset(s), frozenset(t)
    i = len(s)
    if not 1 <= i <= n or not 1 <= len(t) <= n:
        raise ValueError("supports must be nonempty of size <= n")
    if s == t:
        return (i - 1) * (n - i)
    if len(t) == i - 1 and t < s:
        return i - 1
    if len(t) == i + 1 and s < t:
        return n - i
    if len(t) == i and len(s & t) == i - 1:
        return 1
    return 0


def quotient_spectrum(e: QuotientMatrix) -> Spectrum:
    """Exact spectrum of a quotient matrix of an equitable partition.

    The certified modular engine computes it over every integer candidate
    within the largest absolute row sum; equitable quotients of symmetric
    matrices are diagonalizable, so the certificate applies.  Raises
    IncompleteSpectrum when the matrix has non-integer eigenvalues.
    """
    pairs = modular.certified_symmetric_spectrum(
        np.array(e.entries, dtype=np.int64))
    return Spectrum(tuple(pairs))
