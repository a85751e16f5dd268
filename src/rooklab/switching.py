"""Godsil-McKay switching on 4-sets of vertices.

A 4-set B qualifies when it induces a regular subgraph and every vertex
outside B is adjacent to exactly 0, 2 or 4 of its members.  Switching flips
adjacency between each outside vertex with exactly 2 neighbours in B and all
of B, which preserves the spectrum; repeated switching from SR(4,3) yields
hundreds of pairwise nonisomorphic graphs sharing its spectrum.

Named sets: on SR(4,n) the four vertices n*e_i form a switching 4-clique,
and on SR(m,3) so do the four vertices a*e_1 + b*e_2 with a+b=3.

The closure switches one set per orbit.  If an automorphism s of G maps the
switching set B onto B', then s maps the vertices with 2 neighbours in B onto
those with 2 in B', so it carries every flipped pair of GM(G, B) onto one of
GM(G, B'): s is an isomorphism GM(G, B) -> GM(G, B').  The automorphisms the
canonical search of G finds along the way therefore tell, for free, which
mates are isomorphic to one already formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits
from .invariants import SizeLimit, _canonical_form_and_gens, _orbits


class NotSwitchable(Exception):
    """A 4-set that is no switching set of the graph; the message names the
    first outside vertex violating the 0/2/4 condition, or the
    induced-regularity failure."""


_ENUM_LIMIT = 100


@dataclass(frozen=True)
class SwitchingSet:
    """Four vertex indices inducing a regular subgraph such that every
    outside vertex sees 0, 2 or 4 of them, in the graph it was found in;
    the object does not hold that graph, so gm_switch checks it again."""

    members: tuple


def _odd_outside(rows, members, mask):
    """Bit u is set for each vertex u outside `mask` with an odd number of
    neighbours among the four members.  Bit u of the XOR of their rows is
    the parity of u's count, and a count of 0..4 is odd exactly when it is
    1 or 3, so the outside condition holds exactly when this is 0."""
    a, b, c, d = members
    return (rows[a] ^ rows[b] ^ rows[c] ^ rows[d]) & ~mask


def validate_switching_set(g: Graph, b) -> SwitchingSet:
    """Check the Godsil-McKay conditions for the 4-set b and return the
    validated SwitchingSet; NotSwitchable otherwise."""
    members = tuple(sorted(b))
    if len(members) != 4 or len(set(members)) != 4:
        raise ValueError("a switching set consists of 4 distinct vertices")
    if not all(0 <= u < g.order for u in members):
        raise ValueError("vertex index out of range")
    mask = 0
    for u in members:
        mask |= 1 << u
    inner = [(g.rows[u] & mask).bit_count() for u in members]
    if len(set(inner)) != 1:
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
    mask = 0
    for u in b.members:
        mask |= 1 << u
    rows = list(g.rows)
    for c in range(g.order):
        if (mask >> c) & 1:
            continue
        if (rows[c] & mask).bit_count() == 2:
            rows[c] ^= mask
            for u in b.members:
                rows[u] ^= 1 << c
    return Graph(g.labels, rows)


def enumerate_switching_sets(g: Graph) -> list:
    """Every valid switching 4-set, ordered by sorted member tuple.  The
    vertex count is capped: the scan is quartic.  The outside parity
    (`_odd_outside`), one XOR per quadruple, rejects most of them before
    any induced degree is counted."""
    v = g.order
    if v > _ENUM_LIMIT:
        raise SizeLimit(f"switching enumeration is capped at {_ENUM_LIMIT} "
                        f"vertices, got {v}")
    out = []
    rows = g.rows
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
    automorphisms its own canonical search found (see the module
    docstring).  A later set B' = s(B) of B's orbit gives a mate isomorphic
    to B's, whose certificate was already in `seen` or was added when B was
    switched, unless the cap ended the walk there; so B' would have been
    passed over anyway, and the result is the one of switching every set.
    """
    if g.order > _ENUM_LIMIT:
        raise SizeLimit(f"closure exploration is capped at {_ENUM_LIMIT} "
                        f"vertices, got {g.order}")
    if limit < 1:
        raise ValueError("class cap must be positive")
    form, gens = _canonical_form_and_gens(g)
    seen = {form.certificate}
    reps = [g]
    queue = [(g, gens)]
    # The loop reaches each class as it is appended to the queue.
    for current, gens in queue:
        for b in _orbit_firsts(enumerate_switching_sets(current), gens):
            mate = gm_switch(current, b)
            form, mate_gens = _canonical_form_and_gens(mate)
            if form.certificate in seen:
                continue
            if len(reps) >= limit:
                return ClosureResult(tuple(reps), True)
            seen.add(form.certificate)
            reps.append(mate)
            queue.append((mate, mate_gens))
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
