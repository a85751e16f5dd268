"""Godsil-McKay switching on 4-sets of vertices.

A 4-set B qualifies when it induces a regular subgraph and every vertex
outside B is adjacent to exactly 0, 2 or 4 of its members.  Switching flips
adjacency between each outside vertex with exactly 2 neighbours in B and all
of B, which preserves the spectrum; repeated switching from SR(4,3) yields
hundreds of pairwise nonisomorphic graphs sharing its spectrum.

Enumeration is one parity scan over pairs of pairs.  A quadruple passes the
outside condition exactly when the XOR of its four rows, outside its
members, is zero: the pairs (a, b) with a < b, for each middle vertex b, are
tested against every pair (c, d) with c > b in one numpy expression on the
rows packed into uint64 words, and only the quadruples that pass are checked
for inner regularity in Python.

Named sets: on SR(4,n) the four vertices n*e_i form a switching 4-clique,
and on SR(m,3) so do the four vertices a*e_1 + b*e_2 with a+b=3.

The closure switches one set per orbit.  If an automorphism s of G maps the
switching set B onto B', then s maps the vertices with 2 neighbours in B onto
those with 2 in B', so it carries every flipped pair of GM(G, B) onto one of
GM(G, B'): s is an isomorphism GM(G, B) -> GM(G, B').  The `generators` of
`canonical_form(G)`, the automorphisms its one search finds on the way,
therefore tell, for free, which mates are isomorphic to one already formed.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _bits
from .invariants import SizeLimit, _orbits, canonical_form


class NotSwitchable(Exception):
    """A 4-set that is no switching set of the graph; the message names the
    first outside vertex violating the 0/2/4 condition, or the
    induced-regularity failure."""


# The scan is quartic: a random 100-vertex graph takes 30-35 ms of CPU and
# holds 1.5 MB of numpy arrays at its peak (tracemalloc), 1.1 MB of them
# the two step buffers; SR(3, 12), 91 vertices, takes 22-25 ms.
_ENUM_LIMIT = 100


@dataclass(frozen=True)
class SwitchingSet:
    """Four vertex indices inducing a regular subgraph such that every
    outside vertex sees 0, 2 or 4 of them, in the graph it was found in;
    the object does not hold that graph, so gm_switch checks it again."""

    members: tuple


def _regular_mask(rows, members):
    """The mask of the four members if they induce a regular subgraph, else
    0 (the mask of four vertices is never 0)."""
    mask = 0
    for u in members:
        mask |= 1 << u
    inner = {(rows[u] & mask).bit_count() for u in members}
    return mask if len(inner) == 1 else 0


def _odd_outside(rows, members, mask):
    """Bit u is set for each vertex u outside `mask` with an odd number of
    neighbours among the four members.  Bit u of the XOR of their rows is
    the parity of u's count, and a count of 0..4 is odd exactly when it is
    1 or 3, so the outside condition holds exactly when this is 0."""
    a, b, c, d = members
    return (rows[a] ^ rows[b] ^ rows[c] ^ rows[d]) & ~mask


def validate_switching_set(g: Graph, b) -> SwitchingSet:
    """Check the Godsil-McKay conditions for the 4-set b, whose members may
    be any integer type (numpy's too, read with operator.index), and return
    the validated SwitchingSet of Python ints; NotSwitchable otherwise."""
    members = tuple(sorted(map(operator.index, b)))
    if len(members) != 4 or len(set(members)) != 4:
        raise ValueError("a switching set consists of 4 distinct vertices")
    if not all(0 <= u < g.order for u in members):
        raise ValueError("vertex index out of range")
    mask = _regular_mask(g.rows, members)
    if not mask:
        raise NotSwitchable(f"induced subgraph on {members} is not regular")
    odd = _odd_outside(g.rows, members, mask)
    if odd:
        u = next(_bits(odd))
        count = (g.rows[u] & mask).bit_count()
        raise NotSwitchable(
            f"vertex {u} is adjacent to {count} members of {members}")
    return SwitchingSet(members)


def gm_switch(g: Graph, b: SwitchingSet) -> Graph:
    """Switched graph: adjacency flipped exactly for pairs (x in B, c not in
    B) where c has 2 neighbours in B.  Same degree sequence, same spectrum;
    applying the same set twice returns the original graph.  b, a
    SwitchingSet or four vertex indices, is validated on g first."""
    if isinstance(b, SwitchingSet):
        b = b.members
    b = validate_switching_set(g, b)
    mask = _regular_mask(g.rows, b.members)
    rows = list(g.rows)
    for c in range(g.order):
        if (mask >> c) & 1:
            continue
        if (rows[c] & mask).bit_count() == 2:
            rows[c] ^= mask
            for u in b.members:
                rows[u] ^= 1 << c
    return Graph(g.labels, rows)


def _words(rows, width):
    """Bit rows as a len(rows) x width uint64 array: bit j of a row is bit
    j % 64 of its word j // 64."""
    data = b"".join(row.to_bytes(8 * width, "little") for row in rows)
    return np.frombuffer(data, dtype="<u8").reshape(len(rows), width)


def enumerate_switching_sets(g: Graph) -> list:
    """Every valid switching 4-set, ordered by sorted member tuple.

    One vectorised parity scan.  With the bit rows packed into uint64
    words, pair (a, b) holds x_ab = rows[a] ^ rows[b] and the member mask
    m_ab; a quadruple a < b < c < d passes the outside parity
    (`_odd_outside`) exactly when (x_ab ^ x_cd) & ~(m_ab | m_cd) is zero in
    every word.  For each middle vertex b one numpy expression tests the b
    pairs (a, b) against the pairs (c, d) with c > b, a suffix of the pairs
    in lexicographic order, so the scan meets each quadruple once in about
    v steps; the few that pass are checked for inner regularity in Python.
    The vertex count is capped: the scan is still quartic, 30-35 ms of CPU
    and 1.5 MB of transient arrays at the cap of 100 vertices."""
    v = g.order
    if v > _ENUM_LIMIT:
        raise SizeLimit(f"switching enumeration is capped at {_ENUM_LIMIT} "
                        f"vertices, got {v}")
    if v < 4:
        return []
    rows = g.rows
    width = (v + 63) // 64
    # Word-major: bits[w, u] is word w of rows[u], units[w, u] of 1 << u.
    bits = _words(rows, width).T
    units = _words([1 << u for u in range(v)], width).T
    first, second = np.triu_indices(v, 1)
    xors = bits[:, first] ^ bits[:, second]
    outside = ~(units[:, first] | units[:, second])
    # starts[c]: index of the first pair (c, d) in lexicographic order.
    starts = np.concatenate(([0], np.cumsum(np.arange(v - 1, 0, -1))))
    # Two buffers sized for the largest step, b * C(v - b - 1, 2) words.
    size = max(b * (len(first) - starts[b + 1]) for b in range(1, v - 2))
    buffers = np.empty((2, size), np.uint64)
    found = []
    for b in range(1, v - 2):
        tail = starts[b + 1]
        # odd[a, k]: the outside vertices with an odd count in the
        # quadruple of pairs (a, b) and tail + k.
        odd, part = buffers[:, :b * (len(first) - tail)].reshape(2, b, -1)
        odd[:] = 0
        for w in range(width):
            np.bitwise_xor((bits[w, :b] ^ bits[w, b])[:, None],
                           xors[w, tail:], out=part)
            part &= outside[w, tail:]
            part &= ~(units[w, :b] | units[w, b])[:, None]
            odd |= part
        a, k = np.nonzero(odd == 0)
        k += tail
        found += zip(a.tolist(), [b] * len(a), first[k].tolist(),
                     second[k].tolist())
    return [SwitchingSet(members) for members in sorted(found)
            if _regular_mask(rows, members)]


@dataclass(frozen=True)
class ClosureResult:
    """Isomorphism classes reachable from the start graph by repeated valid
    switchings.  graphs holds one representative per class in BFS discovery
    order (the start graph first); capped reports whether the class cap cut
    the exploration short, making count a lower bound."""

    graphs: tuple
    capped: bool

    @property
    def count(self):
        return len(self.graphs)


def _orbit_firsts(sets, gens):
    """The first set of each orbit of `sets` under the group the vertex
    automorphisms gens generate, in the order of `sets`, which must be
    every switching set of the graph: an automorphism permutes them."""
    index = {b.members: i for i, b in enumerate(sets)}
    perms = [[index[tuple(sorted(gen[u] for u in b.members))] for b in sets]
             for gen in gens]
    return [sets[orbit[0]] for orbit in sorted(_orbits(len(sets), perms))]


def switching_closure(g: Graph, limit: int) -> ClosureResult:
    """BFS over graphs reachable by repeated switching at any valid 4-set,
    deduplicated by canonical certificate, capped at `limit` classes.

    Each graph switches only the first set of each orbit under the
    `generators` of its own `canonical_form`, the search that also gives
    its certificate (see the module docstring).  A later set B' = s(B) of
    B's orbit gives a mate isomorphic to B's, whose certificate was already
    in `seen` or was added when B was switched, unless the cap ended the
    walk there; so B' would have been passed over anyway, and the result
    is the one of switching every set.
    """
    if g.order > _ENUM_LIMIT:
        raise SizeLimit(f"closure exploration is capped at {_ENUM_LIMIT} "
                        f"vertices, got {g.order}")
    if limit < 1:
        raise ValueError("class cap must be positive")
    form = canonical_form(g)
    seen = {form.certificate}
    reps = [g]
    queue = [(g, form.generators)]
    # The loop reaches each class as it is appended to the queue.
    for current, gens in queue:
        for b in _orbit_firsts(enumerate_switching_sets(current), gens):
            mate = gm_switch(current, b)
            form = canonical_form(mate)
            if form.certificate in seen:
                continue
            if len(reps) >= limit:
                return ClosureResult(tuple(reps), True)
            seen.add(form.certificate)
            reps.append(mate)
            queue.append((mate, form.generators))
    return ClosureResult(tuple(reps), False)


# The names named_switching_set accepts.
NAMED_SETS = ("v1", "e12", "ones")


def named_switching_set(g: Graph, name: str) -> SwitchingSet:
    """The switching set of the SR graph g named `name`, one of NAMED_SETS.

    "v1": the four vertices n*e_i of SR(4, n).
    "e12": the four vertices a*e_1 + b*e_2, a+b = 3, of SR(m, 3), m >= 2.
    "ones": the four vertices with support of size 3 in SR(4, 3).
    """
    if g.family != "sr":
        raise ValueError("named switching sets are defined on SR graphs")
    m, n = g.params
    if name == "v1":
        if m != 4 or n < 1:
            raise ValueError('"v1" needs SR(4, n) with n >= 1')
        labels = [tuple(n if k == i else 0 for k in range(4)) for i in range(4)]
    elif name == "e12":
        if n != 3 or m < 2:
            raise ValueError('"e12" needs SR(m, 3) with m >= 2')
        labels = [(a, 3 - a) + (0,) * (m - 2) for a in range(4)]
    elif name == "ones":
        if (m, n) != (4, 3):
            raise ValueError('"ones" needs SR(4, 3)')
        labels = [tuple(0 if k == i else 1 for k in range(4)) for i in range(4)]
    else:
        raise ValueError(f"unknown switching set name {name!r}")
    return validate_switching_set(g, [g.index[lab] for lab in labels])
