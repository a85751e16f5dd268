"""Exact structural invariants: distances, cliques, independence,
isomorphism certificates and automorphism counting.

The clique classifier implements the trichotomy for cliques of SR(m,n):
type 1 cliques live on a fixed coordinate pair (j,k), type 2 cliques are
{x + a e_i : i in I}, type 3 cliques are {x - a e_i : i in I}.  Edges fit
several descriptions at once and classify as type 1 by fiat; triangles and
larger are unambiguous.

Canonical forms come from one individualization-refinement search (McKay &
Piperno, "Practical graph isomorphism, II").  Each node refines an ordered
partition to an equitable one by cell splitting, records the refinement
trace as its invariant, and branches on the first smallest non-singleton
cell.  The canonical leaf is the greatest by (traces along the path,
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
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import NamedTuple

from .graphs import (Graph, _bits, _coordinate_permutation, _permuted_rows,
                     induced_subgraph)


class Disconnected(Exception):
    pass


class NotAClique(Exception):
    pass


class SizeLimit(Exception):
    pass


SIZE_LIMIT = 2000


def eccentricity(g: Graph, source: int) -> int:
    full = (1 << g.order) - 1
    visited = frontier = 1 << source
    dist = 0
    while visited != full:
        nxt = 0
        for i in _bits(frontier):
            nxt |= g.rows[i]
        nxt &= ~visited
        if not nxt:
            raise Disconnected(f"no path out of component of vertex {source}")
        visited |= nxt
        frontier = nxt
        dist += 1
    return dist


def diameter(g: Graph) -> int:
    """Largest BFS eccentricity; raises Disconnected on a broken graph."""
    if g.order == 0:
        raise Disconnected("the empty graph has no diameter")
    return max(eccentricity(g, s) for s in range(g.order))


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


def _max_clique_size(rows, nrows, candidates, size, best):
    if size + candidates.bit_count() <= best:
        return best
    classes = _color_classes(candidates, nrows)
    for c in range(len(classes), 0, -1):
        if size + c <= best:
            return best
        cls = classes[c - 1]
        while cls:
            low = cls & -cls
            cls ^= low
            sub = candidates & rows[low.bit_length() - 1]
            if sub:
                best = _max_clique_size(rows, nrows, sub, size + 1, best)
                if size + c <= best:
                    return best
            elif size + 1 > best:
                best = size + 1
            candidates ^= low
    return best


def _degeneracy_pos(g: Graph):
    """pos[v] is v's place in degeneracy order (repeatedly remove a
    minimum-degree vertex); a good static order for branch-and-bound."""
    remaining = set(range(g.order))
    degs = list(g.degrees())
    pos = [0] * g.order
    for place in range(g.order):
        u = min(remaining, key=lambda x: (degs[x], x))
        pos[u] = place
        remaining.discard(u)
        for w in _bits(g.rows[u]):
            if w in remaining:
                degs[w] -= 1
    return pos


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _union(parent, x, y):
    a, b = _find(parent, x), _find(parent, y)
    if a != b:
        parent[a] = b


def vertex_orbits(g: Graph, generators) -> list:
    """Orbits of the group generated by the given vertex permutations.

    Every generator is checked against the adjacency structure first and a
    non-automorphism raises ValueError, so downstream symmetry pruning never
    depends on an unproven claim about the graph.
    """
    n = g.order
    idx = list(range(n))
    for p in generators:
        if sorted(p) != idx:
            raise ValueError("generator is not a permutation of the vertices")
        if _permuted_rows(g.rows, p) != g.rows:
            raise ValueError("generator does not preserve adjacency")
    parent = idx[:]
    for p in generators:
        for u in range(n):
            _union(parent, u, p[u])
    groups = {}
    for u in range(n):
        groups.setdefault(_find(parent, u), []).append(u)
    return sorted((tuple(v) for v in groups.values()), key=lambda t: (-len(t), t))


def coordinate_symmetries(g: Graph) -> list:
    """Vertex permutations induced by permuting coordinate positions of the
    tuple labels (a transposition and a full cycle, generating all of them).
    Requires the label set to be closed under coordinate permutation."""
    labels = g.labels
    m = len(labels[0]) if labels and isinstance(labels[0], tuple) else 0
    if m < 2:
        return []
    gens = [_coordinate_permutation(g, coords)
            for coords in ((1, 0, *range(2, m)), (*range(1, m), 0))]
    if None in gens:
        raise ValueError("labels are not closed under coordinate permutation")
    return gens


def clique_number(g: Graph, aut_generators=None) -> int:
    """Exact maximum clique size, branch-and-bound with coloring bound.

    The search starts from incumbent 0, or from 1 under orbit pruning,
    where the graph has a vertex.  The coloring bound alone proves
    optimality: a branch is cut only when no clique in it can beat the
    incumbent, so any incumbent witnessed by an actual clique is sound.

    `aut_generators` (vertex permutations, each verified to be an
    automorphism) enables isomorph rejection at the root: once every
    clique through one orbit representative is counted, the whole orbit
    is discarded, because any clique meeting the orbit has an image
    through the representative avoiding previously removed orbits
    (orbits are setwise invariant under the whole group).
    """
    if g.order == 0:
        return 0
    pos = _degeneracy_pos(g)
    rows = _permuted_rows(g.rows, pos)
    nrows = [~row for row in rows]
    full = (1 << g.order) - 1
    if not aut_generators:
        return _max_clique_size(rows, nrows, full, 0, 0)
    best = 1
    cands = full
    for orbit in vertex_orbits(g, aut_generators):
        mask = 0
        for u in orbit:
            mask |= 1 << pos[u]
        low = mask & -mask
        sub = cands & rows[low.bit_length() - 1]
        if sub:
            best = _max_clique_size(rows, nrows, sub, 1, best)
        cands &= ~mask
    return best


def independence_number(g: Graph, aut_generators=None) -> int:
    """Exact maximum independent set size (clique number of the complement).
    Automorphism generators carry over: complementation preserves them."""
    return clique_number(g.complement(), aut_generators=aut_generators)


def maximal_cliques(g: Graph):
    """All maximal cliques, as sorted vertex tuples (Bron-Kerbosch, pivoted)."""
    out = []

    def extend(r, p, x):
        if not p and not x:
            out.append(tuple(sorted(r)))
            return
        pivot_pool = p | x
        pivot = max(_bits(pivot_pool), key=lambda u: (p & g.rows[u]).bit_count())
        for u in _bits(p & ~g.rows[pivot]):
            extend(r + [u], p & g.rows[u], x & g.rows[u])
            p &= ~(1 << u)
            x |= 1 << u

    if g.order:
        extend([], (1 << g.order) - 1, 0)
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
    for a in verts:
        for b in verts:
            if a != b and not g.has_edge(a, b):
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


def local_graph(g: Graph, v: int) -> Graph:
    """Induced subgraph on the neighbors of v."""
    return induced_subgraph(g, sorted(g.neighbors(v)))


def has_induced_k114(g: Graph) -> bool:
    """Search for an induced K_{1,1,4}: an edge plus four pairwise
    nonadjacent common neighbors of its ends, that is a 4-clique of the
    complement inside the common neighborhood (the clique search on the
    complement's rows, started from incumbent 3)."""
    crows = [~row ^ (1 << u) for u, row in enumerate(g.rows)]
    nrows = [row | (1 << u) for u, row in enumerate(g.rows)]
    for u, v in g.edges():
        common = g.rows[u] & g.rows[v]
        if (common.bit_count() >= 4
                and _max_clique_size(crows, nrows, common, 0, 3) > 3):
            return True
    return False


def _equitable(rows, cell, cells, multi, start, trace, best=None, zeta=None,
               below=False):
    """Split an ordered partition until it is equitable; return False if
    the run was cut short (see `best` below), else True.

    The partition is `cell[v]`, the start position of v's cell, and
    `cells[s]`, the vertex mask of the cell that starts at position s.
    `multi` lists the starts of the cells with two or more vertices, in
    order; it is updated in place.  The cell at `start` is the first
    splitter.  Each splitter W, smallest start first, splits every cell C by
    the counts |N(v) & W|, v in C.  The fragments take C's positions largest
    first, equal sizes in increasing count order.  Every choice depends only
    on positions, sizes and counts, so an isomorphism that maps one ordered
    partition onto another maps the refined partitions onto each other, and
    both runs append the same `trace`: per split, the cell's start, the
    number of fragments and each fragment's count and size.  The trace thus
    also fixes the cell sizes of the result.

    The fragments become splitters, except that the first one keeps C's start
    and with it C's place in the queue, or its absence: counts into it are
    counts into C minus counts into the other fragments.

    Given `best`, the best leaf's trace at this depth, the run stops once
    the trace is known to sort below it (or `below` says it already does)
    and to differ from `zeta`, the first leaf's trace if the node is still
    on its path: the search drops such a node anyway.
    """
    queue = [start]
    mark = 0
    while queue and multi:
        mask = cells[heappop(queue)]
        single = not mask & (mask - 1)
        if single:
            nbr = rows[mask.bit_length() - 1]
        else:
            nbr = 0
            for u in _bits(mask):
                nbr |= rows[u]
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
                for u in _bits(hit):
                    k = (rows[u] & mask).bit_count()
                    groups[k] = groups.get(k, 0) | 1 << u
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
                    for u in _bits(part):
                        cell[u] = at
                    heappush(queue, at)
                if size > 1:
                    kept.append(at)
                at += size
            if best is not None:
                seg = tuple(trace[mark:])
                if zeta is not None and seg != zeta[mark:len(trace)]:
                    zeta = None
                if not below:
                    ref = best[mark:len(trace)]
                    if seg > ref:
                        best = None
                    below = seg < ref
                if below and zeta is None:
                    return False
                mark = len(trace)
        multi[:] = kept
    return True


def _relabeled_rows(rows, pos):
    """For a discrete partition pos (pos[v] is v's new label): its inverse
    lab and the adjacency rows relabeled by pos, in new-label order."""
    lab = [0] * len(pos)
    for v, p in enumerate(pos):
        lab[p] = v
    return lab, _permuted_rows(rows, pos)


class _Leaf(NamedTuple):
    """A discrete partition: the traces along its path, the relabeled rows,
    pos[v] (v's new label), the individualized vertices, and lab = pos^-1."""

    invs: list
    key: tuple
    pos: list
    path: tuple
    lab: list


class _Node:
    """A node of the search tree: the equitable ordered partition reached by
    individualizing `path`, its refinement trace `inv`, and the state of the
    walk over the children in its target cell, the first smallest one.
    `first` marks the first path; `on_zeta` says the traces so far equal the
    first leaf's, and `vs_best` compares them with the best leaf's (-1, 0, 1)."""

    __slots__ = ("cell", "cells", "multi", "path", "inv", "target",
                 "others", "tried", "first", "on_zeta", "vs_best")

    def __init__(self, cell, cells, multi, path, inv, first, on_zeta, vs_best):
        self.cell, self.cells, self.multi = cell, cells, multi
        self.path, self.inv = path, inv
        self.first, self.on_zeta, self.vs_best = first, on_zeta, vs_best
        self.target = cells[min(multi, key=lambda s: cells[s].bit_count())]
        self.others = None
        self.tried = []


class _CanonicalSearch:
    """Individualization-refinement search with automorphism pruning (see the
    module docstring for why the prunings are sound).

    `zeta` is the first leaf and `best` the greatest so far.  A leaf whose
    traces and rows equal zeta's or best's yields the automorphism that maps
    the one discrete partition onto the other; since the traces fix the cell
    sizes of every partition on the way, it also maps the one path onto the
    other.  A child whose traces sort below best's is dropped, its
    refinement cut short, unless they equal zeta's: a subtree that can hold
    a leaf equivalent to zeta is always walked, so that every orbit on
    zeta's path is found.

    The walk finishes zeta's path deepest node first, so every automorphism
    found while at zeta's node of depth d fixes zeta's first d vertices;
    `orbits` joins all of them, and when that node is done its target cell's
    orbit of zeta's next vertex is one factor of `order`.  The tree is walked
    with an explicit stack, so no Python recursion grows with the order.
    """

    def __init__(self, rows):
        self.rows = rows
        n = len(rows)
        cell, cells = [0] * n, [0] * n
        cells[0] = (1 << n) - 1
        multi = [0] if n > 1 else []
        trace = []
        _equitable(rows, cell, cells, multi, 0, trace)
        self.gens = []
        self.orbits = list(range(n))
        self.order = 1
        self.zeta = self.best = None
        if not multi:
            lab, key = _relabeled_rows(rows, cell)
            self.best = _Leaf([tuple(trace)], key, cell, (), lab)
            return
        self._walk(_Node(cell, cells, multi, (), tuple(trace), True, True, 0))

    def _next_child(self, node):
        """The next child of node that no known automorphism fixing the
        node's path maps onto an explored sibling, or None."""
        tried = node.tried
        if not tried:
            w = (node.target & -node.target).bit_length() - 1
            tried.append(w)
            return w
        if node.others is None:
            node.others = _bits(node.target & (node.target - 1))
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
        for w in node.others:
            if _find(parent, w) not in roots:
                tried.append(w)
                return w
        return None

    def _automorphism(self, lab_from, lab_to):
        """Record the automorphism mapping lab_from[i] to lab_to[i]."""
        g = [0] * len(lab_to)
        for a, b in zip(lab_from, lab_to):
            g[a] = b
        self.gens.append(g)
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
            # Individualize w: it leaves its cell for the cell's last position.
            cell, cells, multi = node.cell[:], node.cells[:], node.multi[:]
            t = cell[w]
            rest = cells[t] ^ 1 << w
            at = t + rest.bit_count()
            cells[t], cells[at], cell[w] = rest, 1 << w, at
            if not rest & (rest - 1):
                multi.remove(t)
            trace = []
            depth = len(stack)
            if self.zeta is None or node.vs_best > 0:
                _equitable(rows, cell, cells, multi, at, trace)
            elif not _equitable(rows, cell, cells, multi, at, trace,
                                () if node.vs_best else self.best.invs[depth],
                                self.zeta.invs[depth] if node.on_zeta else None,
                                node.vs_best < 0):
                continue
            inv = tuple(trace)
            path = node.path + (w,)
            if self.zeta is None:
                first, on_zeta, vs_best = True, True, 0
            else:
                first = False
                on_zeta = node.on_zeta and inv == self.zeta.invs[depth]
                vs_best = node.vs_best
                if not vs_best:
                    other = self.best.invs[depth]
                    vs_best = (inv > other) - (inv < other)
                if vs_best < 0 and not on_zeta:
                    continue
            if multi:
                stack.append(_Node(cell, cells, multi, path, inv, first, on_zeta,
                                   vs_best))
                continue
            lab, key = _relabeled_rows(rows, cell)
            leaf = _Leaf([x.inv for x in stack] + [inv], key, cell, path, lab)
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
    """relabeling[old_index] = new_index; certificate is a stable encoding
    of the relabeled graph, equal for two graphs iff they are isomorphic."""

    relabeling: tuple
    certificate: bytes


def _check_size(g: Graph):
    if g.order > SIZE_LIMIT:
        raise SizeLimit(f"{g.order} vertices exceeds limit {SIZE_LIMIT}")


def canonical_form(g: Graph) -> CanonicalForm:
    _check_size(g)
    if g.order == 0:
        return CanonicalForm((), b"0:0:")
    best = _CanonicalSearch(list(g.rows)).best
    width = (g.order + 7) // 8
    cert = (f"{g.order}:{g.edge_count()}:".encode()
            + b"".join(r.to_bytes(width, "big") for r in best.key))
    return CanonicalForm(tuple(best.pos), cert)


def automorphism_count(g: Graph) -> int:
    """Exact order of the automorphism group: the product, along the first
    path of the canonical search, of the orbit sizes of the path's next
    vertex under the automorphisms found, which by then generate the
    stabilizer of the path so far (orbit-stabiliser; see the module
    docstring)."""
    _check_size(g)
    if g.order == 0:
        return 1
    return _CanonicalSearch(list(g.rows)).order


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g).certificate == canonical_form(h).certificate
