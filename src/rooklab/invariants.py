"""Exact structural invariants: distances, cliques, independence,
isomorphism certificates and automorphism counting.

The clique classifier implements the trichotomy for cliques of SR(m,n):
type 1 cliques live on a fixed coordinate pair (j,k), type 2 cliques are
{x + a e_i : i in I}, type 3 cliques are {x - a e_i : i in I}, with x the
coordinatewise minimum or maximum; types 2 and 3 are one test, signed.
Edges fit several descriptions at once and classify as type 1 by fiat;
triangles and larger are unambiguous.

Clique and independence numbers come from one colour-class branch-and-bound
with orbital branching (Ostrowski, Linderoth, Rossi & Smriglio, "Orbital
branching").  After a node with clique K branches on u, it drops from its
candidates u's whole orbit under a group H fixing K pointwise.  That is
sound while the candidate set is H-invariant, for then any clique through
an image h(u) maps under h^-1 to one through u, already counted; and it
stays H-invariant: the common neighbourhood of K is invariant under K's
stabiliser, and every earlier exclusion is a whole orbit of a group that
contains the current stabiliser.  On an SR graph, whose coordinate
permutations are automorphisms once a transposition and an m-cycle are
checked, H is the Young subgroup keeping each group of coordinates with
equal values over K, so the orbits come from the labels with no group code.
Each search is bounded by NODE_BUDGET nodes.

The diameter and K_{1,1,4} checks scan the whole graph.  All four searches
take their orbits from one routine, which checks the generators first (on
an SR graph, those two permutations).  Eccentricity is constant on vertex
orbits, so the diameter needs one BFS source per orbit.  An induced
K_{1,1,4} on one edge maps to one on each image of the edge, and every
orbit of edges holds an edge {r, b} with r the lowest vertex of its orbit
and b > r, so only those edges are searched.

Canonical forms come from one individualization-refinement search (McKay &
Piperno, "Practical graph isomorphism, II").  Each node refines an ordered
partition to an equitable one by cell splitting, records the refinement
trace as its invariant, and branches on the first smallest non-singleton
cell.  The root starts from the vertices grouped by their triangle count
t(v), the cells in increasing t, rather than from one cell: on a regular
graph, such as a switching mate of an SR graph, refining one cell splits
nothing, and the root would branch on every vertex.  t depends on the graph
alone, so an isomorphism maps the one seeded partition onto the other and
every automorphism maps each cell onto itself.  The arguments below use
nothing else about the root partition; only which leaf is canonical
changes.  The canonical leaf is the greatest by (traces along the path,
relabeled adjacency rows); two graphs are isomorphic iff their certificates,
the rows of that leaf, are equal.  Leaves that tie with the first or the
best leaf yield automorphisms.  These prune the search: a child in the orbit
of an explored sibling under the automorphisms fixing the node's path is
skipped, and after a tie the walk jumps back to where the two paths diverge,
because the automorphism maps the subtree already walked onto the one being
walked, leaves and keys alike.  So no pruned leaf could have beaten the
canonical one.  The automorphisms found while finishing the node at depth d
on the first path generate the stabilizer G_d of its first d vertices, so
orbit-stabiliser gives |Aut| as the product, along the first path, of the
orbit sizes of the first path's next vertex under G_d.

`canonical_form` runs this search, the only one, and returns all it finds:
the canonical relabeling, the certificate, the automorphisms found and
|Aut|.  `automorphism_count`, `is_isomorphic` and the switching closure
read their answers off that result.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .graphs import Graph, _bit_matrix, _bits, _permuted_rows


class Disconnected(Exception):
    pass


class NotAClique(Exception):
    pass


class SizeLimit(Exception):
    pass


SIZE_LIMIT = 2000

# The clique searches' bound on branch-and-bound nodes.  No battery claim
# needs more than alpha(9, 3)'s 2 268 and alpha(5, 6) needs 35 423, while
# alpha(10, 3), alpha(6, 5) and alpha(6, 6) reach the bound in 1-2 CPU s.
NODE_BUDGET = 100_000


def eccentricity(g: Graph, source: int) -> int:
    rows = g.rows
    full = (1 << g.order) - 1
    visited = frontier = 1 << source
    dist = 0
    while visited != full:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        nxt &= ~visited
        if not nxt:
            raise Disconnected(f"no path out of component of vertex {source}")
        visited |= nxt
        frontier = nxt
        dist += 1
    return dist


def diameter(g: Graph) -> int:
    """Largest BFS eccentricity; raises Disconnected on a broken graph.

    An automorphism maps the BFS layers from u onto those from its image,
    so eccentricity is constant on orbits.  On an SR graph the coordinate
    permutations are first checked to be automorphisms (ValueError
    otherwise), and one source per orbit, the lowest, is searched; vertex 0
    is one of them and goes first, so a disconnected graph is reported from
    vertex 0 on every graph."""
    if g.order == 0:
        raise Disconnected("the empty graph has no diameter")
    orbits, _ = _symmetry_orbits(g)
    return max(eccentricity(g, s) for s in sorted(o[0] for o in orbits))


def _symmetry_orbits(g: Graph, aut_generators=None):
    """(orbits, sym): g's vertex orbits, which every search prunes by, and
    sym, the coordinate symmetries among their generators:
    `coordinate_symmetries(g)` on an SR graph, [] on another.  Any given
    aut_generators join sym, each distinct generator is kept once, and
    `vertex_orbits` checks each one (ValueError unless an automorphism).
    With no generator at all, each orbit is a vertex."""
    sym = coordinate_symmetries(g) if g.family == "sr" else []
    gens = dict.fromkeys(map(tuple, sym + list(aut_generators or ())))
    return vertex_orbits(g, list(gens)), sym


def _color_classes(candidates, nrows):
    """Greedy coloring of the candidate set, one bitmask per color class.
    The class index (1-based) bounds any clique inside the first classes;
    it is the only bound the clique search prunes with.  nrows[u] is the
    complemented adjacency row ~rows[u], which contains u."""
    classes = []
    p = candidates
    while p:
        avail = p
        cls = 0
        while avail:
            low = avail & -avail
            cls |= low
            avail &= nrows[low.bit_length() - 1]
            avail ^= low
        classes.append(cls)
        p &= ~cls
    return classes


def _young_orbits(candidates, labels, groups):
    """u -> the mask of u's orbit among the candidates under the coordinate
    permutations that keep every group of coordinates: the candidates whose
    values, sorted within each group, equal u's."""
    singles = [grp[0] for grp in groups if len(grp) == 1]
    multis = [itemgetter(*grp) for grp in groups if len(grp) > 1]
    fixed = itemgetter(*singles) if singles else tuple
    key_of, masks = {}, {}
    for u in _bits(candidates):
        lab = labels[u]
        key = (fixed(lab), *(tuple(sorted(get(lab))) for get in multis))
        key_of[u] = key
        masks[key] = masks.get(key, 0) | 1 << u
    return {u: masks[key] for u, key in key_of.items()}


def _split(groups, values):
    """The coordinate groups refined by one more clique vertex's values, or
    None once every group is a single coordinate (only the identity fixes
    the clique)."""
    out = []
    for grp in groups:
        if len(grp) == 1:
            out.append(grp)
            continue
        parts = {}
        for i in grp:
            parts.setdefault(values[i], []).append(i)
        out += parts.values()
    return None if len(out) == len(values) else out


def _max_clique_size(rows, nrows, labels, orbits):
    """The clique number of the graph with adjacency bit rows `rows`,
    searched from the whole vertex set with incumbent 0.  Raises SizeLimit
    past NODE_BUDGET nodes.

    `labels` is None or tuples whose coordinate permutations are
    automorphisms.  With tuples, a node drops, after branching on u, u's
    orbit under the permutations that fix its clique pointwise;
    `orbits[u]`, the mask of u's orbit under a larger group, is dropped at
    the root instead.  See `clique_number` for why.  A node is a generator
    that yields the arguments of its children; nodes wait on an explicit
    stack, not in calls, so depth is not bound by the recursion limit."""
    best = nodes = 0

    def node(candidates, size, groups, orbit):
        nonlocal best, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise SizeLimit(f"clique search passed its budget of "
                            f"{NODE_BUDGET} nodes")
        if size + candidates.bit_count() <= best:
            return
        classes = _color_classes(candidates, nrows)
        for c in range(len(classes), 0, -1):
            if size + c <= best:
                return
            cls = classes[c - 1] & candidates
            while cls:
                low = cls & -cls
                u = low.bit_length() - 1
                sub = candidates & rows[u]
                if sub:
                    yield (sub, size + 1,
                           groups and _split(groups, labels[u]), None)
                    if size + c <= best:
                        return
                elif size + 1 > best:
                    best = size + 1
                if groups and orbit is None:
                    orbit = _young_orbits(candidates, labels, groups)
                drop = orbit[u] if orbit else low
                cls &= ~drop
                candidates &= ~drop

    groups = [tuple(range(len(labels[0])))] if labels else None
    stack = [node((1 << len(rows)) - 1, 0, groups, orbits)]
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(node(*child))
    return best


def _degeneracy_order(a):
    """The vertices in degeneracy order: repeatedly remove a vertex of least
    degree among those left, the lowest index among ties.  A good static
    order for branch-and-bound; a is the 0/1 adjacency matrix."""
    v = len(a)
    deg = a.sum(axis=1, dtype=np.int64)
    order = np.empty(v, dtype=np.intp)
    for place in range(v):
        u = deg.argmin()
        order[place] = u
        deg -= a[u]
        # Above every degree left, even after v - 1 more subtractions.
        deg[u] = 2 * v
    return order


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    a, b = _find(parent, x), _find(parent, y)
    if a != b:
        parent[a] = b


def _check_automorphisms(a, generators):
    """Raise ValueError unless every generator is a permutation of the
    vertices that preserves the 0/1 adjacency matrix a."""
    idx = list(range(len(a)))
    for p in generators:
        if sorted(p) != idx:
            raise ValueError("generator is not a permutation of the vertices")
        p = np.array(p, dtype=np.intp)
        if not np.array_equal(a[p][:, p], a):
            raise ValueError("generator does not preserve adjacency")


def _orbits(n, generators):
    """Orbits of the group the permutations generate, largest first."""
    parent = list(range(n))
    for p in generators:
        for u in range(n):
            _union(parent, u, p[u])
    groups = {}
    for u in range(n):
        groups.setdefault(_find(parent, u), []).append(u)
    return sorted((tuple(v) for v in groups.values()), key=lambda t: (-len(t), t))


def vertex_orbits(g: Graph, generators) -> list:
    """Orbits of the group generated by the given vertex permutations.

    Every generator is checked against the adjacency structure first and a
    non-automorphism raises ValueError, so downstream symmetry pruning never
    depends on an unproven claim about the graph.  With no generator there
    is nothing to check, and each vertex is its own orbit.
    """
    if not generators:
        return [(u,) for u in range(g.order)]
    _check_automorphisms(_bit_matrix(g.rows), generators)
    return _orbits(g.order, generators)


def coordinate_symmetries(g: Graph) -> list:
    """Vertex permutations induced by permuting coordinate positions of the
    tuple labels (a transposition and a full cycle, generating all of them).
    ValueError unless the labels are closed under coordinate permutation."""
    labels = g.labels
    m = len(labels[0]) if labels and isinstance(labels[0], tuple) else 0
    if m < 2:
        return []
    swap, turn = itemgetter(1, 0, *range(2, m)), itemgetter(*range(1, m), 0)
    index, swaps, turns = g.index, [], []
    for lab in labels:
        if isinstance(lab, tuple) and len(lab) == m:
            s, t = index.get(swap(lab)), index.get(turn(lab))
            if s is not None and t is not None:
                swaps.append(s)
                turns.append(t)
                continue
        raise ValueError("labels are not closed under coordinate permutation")
    return [swaps, turns]


def clique_number(g: Graph, aut_generators=None) -> int:
    """Exact maximum clique size: colour-class branch-and-bound with orbital
    branching, in degeneracy order from incumbent 0.  The colouring bound
    alone proves optimality, so any incumbent witnessed by a clique is sound.

    After branching on u, a node with clique K drops u's whole orbit under a
    group H fixing K pointwise: a clique through an image h(u) maps under
    h^-1 to one through u, already counted, if the candidates are
    H-invariant.  They stay so: the common neighbourhood of K is invariant
    under K's stabiliser, and every earlier exclusion is a whole orbit of a
    group that contains the current stabiliser.

    On an SR graph (`family` "sr") the transposition and the m-cycle of
    `coordinate_symmetries` are first checked to be automorphisms, which
    proves that every coordinate permutation is one.  H is then the Young
    subgroup keeping each group of coordinates with equal values over K, and
    u's orbit is the candidates whose values, sorted within each group,
    equal u's; a node whose groups are single coordinates drops u alone.
    The root drops orbits of all coordinate permutations together with any
    `aut_generators` given.  On another graph, given generators prune the
    root alone, and with none nothing is pruned.  Every generator is
    verified to be an automorphism (ValueError otherwise).  Raises SizeLimit
    past NODE_BUDGET nodes.
    """
    return _clique_search(g, _bit_matrix(g.rows), aut_generators)


def independence_number(g: Graph, aut_generators=None) -> int:
    """Exact maximum independent set size: the clique number of the
    complement, searched with g's symmetries as `clique_number` would use
    them on g (complementation preserves every automorphism)."""
    a = _bit_matrix(g.rows) ^ 1
    np.fill_diagonal(a, 0)
    return _clique_search(g, a, aut_generators)


def _clique_search(g: Graph, a, aut_generators):
    """The clique number of the graph with 0/1 adjacency matrix a, which has
    g's vertices and automorphisms: g itself or its complement."""
    v = len(a)
    if v == 0:
        return 0
    orbits, sym = _symmetry_orbits(g, aut_generators)
    order = _degeneracy_order(a)
    packed = np.packbits(a[order[:, None], order], axis=1, bitorder="little")
    rows = [int.from_bytes(row, "little") for row in packed]
    nrows = [~row for row in rows]
    pos = np.argsort(order).tolist()
    root = [0] * v
    for orbit in orbits:
        mask = 0
        for u in orbit:
            mask |= 1 << pos[u]
        for u in orbit:
            root[pos[u]] = mask
    labels = [g.labels[u] for u in order] if sym else None
    return _max_clique_size(rows, nrows, labels, root)


def maximal_cliques(g: Graph):
    """All maximal cliques, as sorted vertex tuples (Bron-Kerbosch, pivoted).

    Each node is a frame [clique r, candidates p, excluded x, branch], where
    branch is what is left to try of p minus the pivot's neighbours; the
    frames wait on an explicit stack, so depth is not bound by the recursion
    limit."""
    out, rows = [], g.rows

    def frame(r, p, x):
        # The pivot: the first vertex of p | x with the most neighbours in
        # p.  None has more than all of p, so one that has them ends the scan.
        most, top, scan = -1, p.bit_count(), p | x
        while scan:
            low = scan & -scan
            u = low.bit_length() - 1
            c = (p & rows[u]).bit_count()
            if c > most:
                most, pivot = c, u
                if c == top:
                    break
            scan ^= low
        return [r, p, x, p & ~rows[pivot]]

    stack = [frame([], (1 << g.order) - 1, 0)] if g.order else []
    while stack:
        node = stack[-1]
        r, p, x, branch = node
        if not branch:
            stack.pop()
            continue
        low = branch & -branch
        u = low.bit_length() - 1
        node[1], node[2], node[3] = p ^ low, x | low, branch ^ low
        pu, xu = p & rows[u], x & rows[u]
        if pu:
            stack.append(frame(r + [u], pu, xu))
        elif not xu:
            # Nothing left to add or exclude: r + [u] is maximal.
            out.append(tuple(sorted(r + [u])))
    return out


@dataclass(frozen=True)
class CliqueType:
    """Classification of a clique in SR(m,n).

    tag "type1": all adjacencies on one coordinate pair; params = (j, k).
    tag "type2": {x + a*e_i : i in I};  params = (a, x, I).
    tag "type3": {x - a*e_i : i in I};  params = (a, x, I).
    """

    tag: str
    params: tuple


def classify_clique(g: Graph, clique) -> CliqueType:
    """Match a clique of SR(m,n) against the three structural types.

    Pairs are degenerate (they fit every description) and classify as
    type 1 with their coordinate pair.  A failure to classify a larger
    clique would falsify the trichotomy, so it raises RuntimeError.
    """
    verts = sorted(set(clique))
    if len(verts) < 2:
        raise NotAClique("need at least two vertices")
    rows, mask = g.rows, 0
    for a in verts:
        mask |= 1 << a
    for a in verts:
        # The members other than a that are not a's neighbours, lowest first.
        missing = (mask ^ 1 << a) & ~rows[a]
        if missing:
            b = (missing & -missing).bit_length() - 1
            raise NotAClique(f"vertices {a} and {b} are not adjacent")
    vecs = [g.labels[i] for i in verts]
    m = len(vecs[0])
    columns = list(zip(*vecs))
    lo, hi = tuple(map(min, columns)), tuple(map(max, columns))
    diff_coords = [i for i in range(m) if lo[i] != hi[i]]
    if len(diff_coords) <= 2:
        j, k = diff_coords if len(diff_coords) == 2 else (0, 1)
        return CliqueType("type1", (j, k))
    for tag, x, sign in (("type2", lo, 1), ("type3", hi, -1)):
        deltas = [[sign * (vi - xi) for vi, xi in zip(v, x)] for v in vecs]
        a = sum(deltas[0])
        shape = [0] * (m - 1) + [a]
        if all(sorted(d) == shape for d in deltas):
            support = tuple(sorted(d.index(a) for d in deltas))
            return CliqueType(tag, (a, x, support))
    raise RuntimeError(f"clique {verts} fits no type; trichotomy violated")


def _has_independent_4(crows, mask):
    """Whether mask holds four pairwise nonadjacent vertices: a < b < c < d
    picked in turn, each level's candidates masked by the last pick's
    complement row crows[u], the vertices not adjacent to u."""
    while mask:
        low = mask & -mask
        mask ^= low
        above_a = mask & crows[low.bit_length() - 1]
        while above_a.bit_count() >= 3:
            low = above_a & -above_a
            above_a ^= low
            above_b = above_a & crows[low.bit_length() - 1]
            while above_b.bit_count() >= 2:
                low = above_b & -above_b
                above_b ^= low
                if above_b & crows[low.bit_length() - 1]:
                    return True
    return False


def has_induced_k114(g: Graph) -> bool:
    """Search for an induced K_{1,1,4}: an edge plus four pairwise
    nonadjacent common neighbors of its ends, found by three nested bit
    loops over the common neighborhood (`_has_independent_4`).

    Each edge {a, b} with a < b is searched once.  An automorphism maps an
    induced K_{1,1,4} on one edge to one on the edge's image.  On an SR graph
    the coordinate permutations are first checked to be automorphisms
    (ValueError otherwise), and a runs over the lowest vertex of each orbit
    only.  That still meets every edge orbit: take an edge between orbits O
    and O' (perhaps equal), with r, the lowest vertex of O, below that of
    O'.  A permutation taking the edge's end in O to r maps the edge to
    {r, b} with b in O', and every vertex of O' but r lies above r."""
    rows = g.rows
    orbits, _ = _symmetry_orbits(g)
    full = (1 << g.order) - 1
    crows = [full ^ row for row in rows]
    for a in sorted(o[0] for o in orbits):
        row = rows[a]
        for b in _bits(row >> (a + 1) << (a + 1)):
            if _has_independent_4(crows, row & rows[b]):
                return True
    return False


def _equitable(rows, cells, multi, starts, trace):
    """Split an ordered partition until it is equitable.

    The partition is `cells[s]`, the vertex mask of the cell that starts at
    position s (entries at other positions are stale and never read).
    `multi` lists the starts of the cells with two or more vertices, in
    order; it is updated in place.  The cells at `starts`, a list of
    positions in increasing order, are the first splitters.  Each splitter
    W, smallest start first, splits every cell C by the counts |N(v) & W|,
    v in C.  The fragments take C's positions largest first, equal sizes in
    increasing count order.  Every choice depends only on positions, sizes
    and counts, so an isomorphism that maps one ordered partition onto
    another maps the refined partitions onto each other, and both runs
    append the same `trace`: per split, the cell's start, the number of
    fragments and each fragment's count and size.  The trace thus also fixes
    the cell sizes of the result.

    The fragments become splitters, except that the first one keeps C's start
    and with it C's place in the queue, or its absence: counts into it are
    counts into C minus counts into the other fragments.
    """
    queue = starts[:]
    while queue and multi:
        mask = cells[heappop(queue)]
        single = not mask & (mask - 1)
        if single:
            nbr = rows[mask.bit_length() - 1]
        else:
            nbr, rest = 0, mask
            while rest:
                low = rest & -rest
                nbr |= rows[low.bit_length() - 1]
                rest ^= low
        kept = []
        for t in multi:
            c = cells[t]
            hit = c & nbr
            if not hit or (single and hit == c):
                kept.append(t)
                continue
            if single:
                frags = [(0, c ^ hit), (1, hit)]
            else:
                groups = {0: c ^ hit} if hit != c else {}
                rest = hit
                while rest:
                    low = rest & -rest
                    k = (rows[low.bit_length() - 1] & mask).bit_count()
                    groups[k] = groups.get(k, 0) | low
                    rest ^= low
                if len(groups) == 1:
                    kept.append(t)
                    continue
                frags = sorted(groups.items())
            frags.sort(key=lambda fr: -fr[1].bit_count())
            trace.append(t)
            trace.append(len(frags))
            at = t
            for k, part in frags:
                size = part.bit_count()
                trace.append(k)
                trace.append(size)
                cells[at] = part
                if at != t:
                    heappush(queue, at)
                if size > 1:
                    kept.append(at)
                at += size
        multi[:] = kept


def _relabeled_rows(rows, cells):
    """For a discrete partition (each cells[s] one vertex): lab[s], the vertex
    at s, its inverse pos[v], v's new label, and the rows relabeled by pos."""
    lab = [c.bit_length() - 1 for c in cells]
    pos = [0] * len(lab)
    for s, v in enumerate(lab):
        pos[v] = s
    return lab, pos, _permuted_rows(rows, pos)


class _Leaf(NamedTuple):
    """A discrete partition: the traces along its path, the relabeled rows,
    pos[v] (v's new label), the individualized vertices, and lab = pos^-1."""

    invs: list
    key: tuple
    pos: list
    path: tuple
    lab: list


class _Node:
    """A node of the search tree: the equitable ordered partition `cells`
    reached by individualizing `path`, its refinement trace `inv`, and the
    walk over the children in its target cell, the first smallest, at `start`.
    `first` marks the first path; `on_zeta` says the traces so far equal the
    first leaf's, and `vs_best` compares them with the best leaf's (-1, 0, 1)."""

    __slots__ = ("cells", "multi", "path", "inv", "start", "target",
                 "untried", "tried", "first", "on_zeta", "vs_best")

    def __init__(self, cells, multi, path, inv, first, on_zeta, vs_best):
        self.cells, self.multi = cells, multi
        self.path, self.inv = path, inv
        self.first, self.on_zeta, self.vs_best = first, on_zeta, vs_best
        self.start = min(multi, key=lambda s: cells[s].bit_count())
        self.target = cells[self.start]
        self.untried = _bits(self.target)
        self.tried = []


def _triangle_cells(rows):
    """t -> the mask of the vertices v with t(v) = t, where t(v), the sum of
    |N(u) & N(v)| over the neighbours u of v, is twice the number of
    triangles through v.  Each edge's term is counted once, for both ends."""
    tri = [0] * len(rows)
    for v, row in enumerate(rows):
        for u in _bits(row >> (v + 1) << (v + 1)):
            k = (row & rows[u]).bit_count()
            tri[v] += k
            tri[u] += k
    cells = {}
    for v, t in enumerate(tri):
        cells[t] = cells.get(t, 0) | 1 << v
    return cells


class _CanonicalSearch:
    """Individualization-refinement search with automorphism pruning (see the
    module docstring for why the prunings are sound).

    The root partition's cells are the vertices of equal triangle count, in
    increasing count (`_triangle_cells`), each a first splitter of the root
    refinement; the root trace opens with each cell's (count, size).

    `zeta` is the first leaf and `best` the greatest so far.  A leaf whose
    traces and rows equal zeta's or best's yields the automorphism that maps
    the one discrete partition onto the other; since the traces fix the cell
    sizes of every partition on the way, it also maps the one path onto the
    other.  A child whose traces sort below best's is dropped once it is
    refined, unless they equal zeta's: a subtree that can hold a leaf
    equivalent to zeta is always walked, so that every orbit on zeta's path
    is found.

    A node keeps its partition in the one array `cells`, which a child copies
    and refines; at a leaf each position holds one vertex, in leaf order.

    The walk finishes zeta's path deepest node first, so every automorphism
    found while at zeta's node of depth d fixes zeta's first d vertices;
    `orbits` joins all of them, and when that node is done its target cell's
    orbit of zeta's next vertex is one factor of `order`.  The tree is walked
    with an explicit stack, so no Python recursion grows with the order.
    """

    def __init__(self, rows):
        self.rows = rows
        n = len(rows)
        cells = [0] * n
        multi, starts, trace = [], [], []
        at = 0
        for t, cell in sorted(_triangle_cells(rows).items()):
            size = cell.bit_count()
            cells[at] = cell
            starts.append(at)
            if size > 1:
                multi.append(at)
            trace += (t, size)
            at += size
        _equitable(rows, cells, multi, starts, trace)
        self.gens = []
        self.orbits = list(range(n))
        self.order = 1
        self.zeta = self.best = None
        if not multi:
            lab, pos, key = _relabeled_rows(rows, cells)
            self.best = _Leaf([tuple(trace)], key, pos, (), lab)
            return
        self._walk(_Node(cells, multi, (), tuple(trace), True, True, 0))

    def _next_child(self, node):
        """The next child of node that no known automorphism fixing the
        node's path maps onto an explored sibling, or None."""
        tried = node.tried
        if not tried:
            tried.append(next(node.untried))
            return tried[0]
        if node.first:
            # Every automorphism found so far fixes a first-path node's path.
            parent = self.orbits
        else:
            path = node.path
            parent = {u: u for u in _bits(node.target)}
            for g in self.gens:
                if all(g[u] == u for u in path):
                    for u in parent:
                        _union(parent, u, g[u])
        roots = {_find(parent, c) for c in tried}
        for w in node.untried:
            if _find(parent, w) not in roots:
                tried.append(w)
                return w
        return None

    def _automorphism(self, lab_from, lab_to):
        """Record the automorphism mapping lab_from[i] to lab_to[i]."""
        g = [0] * len(lab_to)
        for a, b in zip(lab_from, lab_to):
            g[a] = b
        self.gens.append(tuple(g))
        for u, v in enumerate(g):
            _union(self.orbits, u, v)

    def _walk(self, root):
        rows = self.rows
        stack = [root]
        while stack:
            node = stack[-1]
            w = self._next_child(node)
            if w is None:
                stack.pop()
                if node.first:
                    parent = self.orbits
                    r = _find(parent, node.tried[0])
                    self.order *= sum(1 for u in _bits(node.target)
                                      if _find(parent, u) == r)
                continue
            # Individualize w: it leaves the target cell for its last position.
            cells, multi = node.cells[:], node.multi[:]
            t = node.start
            rest = cells[t] ^ 1 << w
            at = t + rest.bit_count()
            cells[t], cells[at] = rest, 1 << w
            if not rest & (rest - 1):
                multi.remove(t)
            trace = []
            _equitable(rows, cells, multi, [at], trace)
            inv = tuple(trace)
            path = node.path + (w,)
            if self.zeta is None:
                first, on_zeta, vs_best = True, True, 0
            else:
                first, depth = False, len(stack)
                on_zeta = node.on_zeta and inv == self.zeta.invs[depth]
                vs_best = node.vs_best
                if not vs_best:
                    other = self.best.invs[depth]
                    vs_best = (inv > other) - (inv < other)
                if vs_best < 0 and not on_zeta:
                    continue
            if multi:
                stack.append(_Node(cells, multi, path, inv, first, on_zeta,
                                   vs_best))
                continue
            lab, pos, key = _relabeled_rows(rows, cells)
            leaf = _Leaf([x.inv for x in stack] + [inv], key, pos, path, lab)
            if self.zeta is None:
                self.zeta = self.best = leaf
                continue
            for other, match in ((self.zeta, on_zeta), (self.best, vs_best == 0)):
                if match and key == other.key:
                    self._automorphism(other.lab, lab)
                    c = 0
                    while path[c] == other.path[c]:
                        c += 1
                    del stack[c + 1:]
                    break
            else:
                if vs_best > 0 or (vs_best == 0 and key > self.best.key):
                    self.best = leaf
                    for x in stack:
                        x.vs_best = 0


@dataclass(frozen=True)
class CanonicalForm:
    """What one canonical search finds.  relabeling[old_index] = new_index;
    certificate is a stable encoding of the relabeled graph, equal for two
    graphs iff they are isomorphic; generators are the automorphisms found
    on the way, each a tuple gen with gen[u] the image of vertex u; and
    aut_order is the order of the automorphism group."""

    relabeling: tuple
    certificate: bytes
    generators: tuple
    aut_order: int


def canonical_form(g: Graph) -> CanonicalForm:
    """The one canonical search of g.  |Aut| is the product, along the
    first path, of the orbit sizes of the path's next vertex under the
    automorphisms found, which by then generate the stabilizer of the path
    so far (orbit-stabiliser; see the module docstring).  Raises SizeLimit
    past SIZE_LIMIT vertices."""
    if g.order > SIZE_LIMIT:
        raise SizeLimit(f"{g.order} vertices exceeds limit {SIZE_LIMIT}")
    search = _CanonicalSearch(list(g.rows))
    best = search.best
    width = (g.order + 7) // 8
    cert = (f"{g.order}:{g.edge_count()}:".encode()
            + b"".join(r.to_bytes(width, "big") for r in best.key))
    return CanonicalForm(tuple(best.pos), cert, tuple(search.gens),
                         search.order)


def automorphism_count(g: Graph) -> int:
    """Exact order of the automorphism group, from `canonical_form`."""
    return canonical_form(g).aut_order


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.edge_count() != h.edge_count():
        return False
    return canonical_form(g).certificate == canonical_form(h).certificate
