"""Exact structural invariants: distances, cliques, independence,
isomorphism certificates and automorphism counting.

The clique classifier implements the trichotomy for cliques of SR(m,n):
type 1 cliques live on a fixed coordinate pair (j,k), type 2 cliques are
{x + a e_i : i in I}, type 3 cliques are {x - a e_i : i in I}.  Edges fit
several descriptions at once and classify as type 1 by fiat; triangles and
larger are unambiguous.

Canonical forms come from individualization-refinement: iterated color
refinement, branching on the smallest non-singleton class, path pruned by
per-level partition signatures.  Two graphs are isomorphic iff their
certificates are equal, and the number of search leaves attaining the
canonical certificate is exactly the automorphism group order (automorphic
branch choices produce identical signature paths, so none of them is ever
pruned away).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, induced_subgraph


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
        raise Disconnected("empty graph")
    return max(eccentricity(g, s) for s in range(g.order))


def _color_classes(candidates, nrows):
    """Greedy coloring of the candidate set, one bitmask per color class.
    The class index (1-based) bounds any clique inside the first classes.
    nrows[u] is the complemented adjacency row ~rows[u]."""
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


def _renumber(classes, rows, threshold):
    """Shrink the branching set: move vertices out of color classes above
    `threshold` (0-based) into the low classes by a one-swap repair.  The
    result is still a proper coloring, so the bound stays valid; vertices
    that land in a class of 1-based index <= threshold are pruned wholesale
    instead of branched on."""
    for c in range(threshold, len(classes)):
        stay = 0
        cls = classes[c]
        while cls:
            low = cls & -cls
            cls ^= low
            row_u = rows[low.bit_length() - 1]
            relocated = False
            for c1 in range(threshold):
                conflict = classes[c1] & row_u
                if not conflict:
                    classes[c1] |= low
                    relocated = True
                    break
                if conflict & (conflict - 1):
                    continue
                row_w = rows[conflict.bit_length() - 1]
                for c2 in range(threshold):
                    if c2 != c1 and not (classes[c2] & row_w):
                        classes[c1] = (classes[c1] ^ conflict) | low
                        classes[c2] |= conflict
                        relocated = True
                        break
                if relocated:
                    break
            if not relocated:
                stay |= low
        classes[c] = stay
    classes[:] = [cl for cl in classes if cl]


def _max_clique_size(rows, nrows, candidates, size, best):
    if size + candidates.bit_count() <= best:
        return best
    classes = _color_classes(candidates, nrows)
    threshold = best - size
    if threshold >= 2 and len(classes) > threshold:
        _renumber(classes, rows, threshold)
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


def _degeneracy_perm(g: Graph):
    """Vertices in degeneracy order (repeatedly remove a minimum-degree
    vertex); a good static order for branch-and-bound."""
    remaining = set(range(g.order))
    degs = list(g.degrees())
    out = []
    while remaining:
        u = min(remaining, key=lambda x: (degs[x], x))
        out.append(u)
        remaining.discard(u)
        for w in _bits(g.rows[u]):
            if w in remaining:
                degs[w] -= 1
    return out


def _greedy_clique(rows, start_mask, start_size, order) -> int:
    clique_size = start_size
    p = start_mask
    for u in order:
        if (p >> u) & 1:
            clique_size += 1
            p &= rows[u]
            if not p:
                break
    return clique_size


def _greedy_seed(rows) -> int:
    """Best clique over greedy completions from every vertex and every edge.
    Cheap, deterministic, and witnessed, so it is a sound incumbent."""
    n = len(rows)
    order = range(n - 1, -1, -1)
    full = (1 << n) - 1
    best = min(n, 1)
    for s in range(n):
        size = _greedy_clique(rows, rows[s], 1, order)
        if size > best:
            best = size
    for s in range(n):
        srow = rows[s]
        for s2 in _bits(srow >> (s + 1)):
            size = _greedy_clique(rows, srow & rows[s + 1 + s2], 2, order)
            if size > best:
                best = size
    return best


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
        for u in range(n):
            image = 0
            for w in _bits(g.rows[u]):
                image |= 1 << p[w]
            if image != g.rows[p[u]]:
                raise ValueError("generator does not preserve adjacency")
    parent = idx[:]

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in generators:
        for u in range(n):
            a, b = find(u), find(p[u])
            if a != b:
                parent[a] = b
    groups = {}
    for u in range(n):
        groups.setdefault(find(u), []).append(u)
    return sorted((tuple(v) for v in groups.values()), key=lambda t: (-len(t), t))


def coordinate_symmetries(g: Graph) -> list:
    """Vertex permutations induced by permuting coordinate positions of the
    tuple labels (a transposition and a full cycle, generating all of them).
    Requires the label set to be closed under coordinate permutation."""
    labels = g.labels
    m = len(labels[0]) if labels and isinstance(labels[0], tuple) else 0
    if m < 2:
        return []
    gens = []
    for coord_perm in ((1, 0) + tuple(range(2, m)), tuple(range(1, m)) + (0,)):
        p = []
        for lab in labels:
            moved = tuple(lab[coord_perm[i]] for i in range(m))
            if moved not in g.index:
                raise ValueError("labels are not closed under coordinate permutation")
            p.append(g.index[moved])
        gens.append(p)
    return gens


def clique_number(g: Graph, aut_generators=None) -> int:
    """Exact maximum clique size, branch-and-bound with coloring bound.

    The incumbent starts at the best greedy clique found by multi-start
    completion; any greedy result is witnessed by an actual clique, so
    the starting bound is sound and the search only proves optimality
    (or improves on the heuristic).

    `aut_generators` (vertex permutations, each verified to be an
    automorphism) enables isomorph rejection at the root: once every
    clique through one orbit representative is counted, the whole orbit
    is discarded, because any clique meeting the orbit has an image
    through the representative avoiding previously removed orbits
    (orbits are setwise invariant under the whole group).
    """
    if g.order == 0:
        return 0
    perm = _degeneracy_perm(g)
    pos = {old: new for new, old in enumerate(perm)}
    rows = [0] * g.order
    for i, j in g.edges():
        a, b = pos[i], pos[j]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    nrows = [~row for row in rows]
    seed = _greedy_seed(rows)
    full = (1 << g.order) - 1
    if not aut_generators:
        return _max_clique_size(rows, nrows, full, 0, seed)
    best = max(seed, 1)
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
        pivot = max(_bits(pivot_pool), key=lambda u: bin(p & g.rows[u]).count("1"))
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


def _has_coclique(g: Graph, members, size):
    """True iff the vertex set `members` contains `size` pairwise
    nonadjacent vertices (small sets only; plain backtracking)."""
    members = sorted(members)

    def rec(start, chosen, left):
        if left == 0:
            return True
        for t in range(start, len(members) - left + 1):
            u = members[t]
            if all(not g.has_edge(u, w) for w in chosen):
                if rec(t + 1, chosen + [u], left - 1):
                    return True
        return False

    return rec(0, [], size)


def has_induced_k114(g: Graph) -> bool:
    """Search for an induced K_{1,1,4}: an edge plus four pairwise
    nonadjacent common neighbors of its ends."""
    for u, v in g.edges():
        common = g.rows[u] & g.rows[v]
        members = list(_bits(common))
        if len(members) >= 4 and _has_coclique(g, members, 4):
            return True
    return False


def _refine(rows, colors):
    """1-dimensional color refinement to a fixpoint.  Color numbers are
    dense and canonical (sorted by (old color, neighbor color counts)), so
    they are preserved by any isomorphism."""
    n = len(colors)
    while True:
        keys = []
        for v in range(n):
            counts = {}
            for u in _bits(rows[v]):
                c = colors[u]
                counts[c] = counts.get(c, 0) + 1
            keys.append((colors[v], tuple(sorted(counts.items()))))
        mapping = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [mapping[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _signature(colors):
    sizes = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    return tuple(sizes[c] for c in sorted(sizes))


def _leaf_certificate(rows, colors):
    n = len(colors)
    position = [0] * n
    for v, c in enumerate(colors):
        position[c] = v
    bits = 0
    at = 0
    for i in range(n):
        ri = rows[position[i]]
        for j in range(i + 1, n):
            if (ri >> position[j]) & 1:
                bits |= 1 << at
            at += 1
    return bits


class _CanonicalSearch:
    """Individualization-refinement tree walk.

    Tracks the lexicographically smallest (signature path, leaf bits) key;
    the number of leaves attaining it equals the automorphism group order.
    """

    def __init__(self, rows):
        self.rows = rows
        self.best_sigs = None
        self.best_bits = None
        self.best_colors = None
        self.count = 0

    def run(self):
        n = len(self.rows)
        colors = _refine(self.rows, [0] * n)
        self._walk(colors, [])
        return self

    def _target_cell(self, colors):
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        nonsingle = [(len(vs), c) for c, vs in cells.items() if len(vs) > 1]
        if not nonsingle:
            return None
        _, c = min(nonsingle)
        return cells[c]

    def _beats_best(self, sigs):
        """1 when the signature path can no longer reach the incumbent key,
        -1 when it is already strictly smaller, 0 on an equal prefix.
        Compared against the incumbent fresh at every node, because the
        incumbent may have been replaced while this subtree was entered."""
        for d, s in enumerate(sigs):
            if d >= len(self.best_sigs):
                return 1
            if s < self.best_sigs[d]:
                return -1
            if s > self.best_sigs[d]:
                return 1
        return 0

    def _walk(self, colors, sigs):
        sigs = sigs + [_signature(colors)]
        if self.best_sigs is not None and self._beats_best(sigs) > 0:
            return
        cell = self._target_cell(colors)
        if cell is None:
            bits = _leaf_certificate(self.rows, colors)
            if self.best_sigs is None:
                verdict = -1
            else:
                verdict = self._beats_best(sigs) or (bits > self.best_bits) - (bits < self.best_bits)
            if verdict < 0:
                self.best_sigs = sigs
                self.best_bits = bits
                self.best_colors = list(colors)
                self.count = 1
            elif verdict == 0:
                self.count += 1
            return
        fresh = len(set(colors))
        for w in cell:
            child = list(colors)
            child[w] = fresh
            child = _refine(self.rows, child)
            self._walk(child, sigs)


@dataclass(frozen=True)
class CanonicalForm:
    """relabeling[old_index] = new_index; certificate is a stable encoding
    of the relabeled graph, equal for two graphs iff they are isomorphic."""

    relabeling: tuple
    certificate: bytes


def canonical_form(g: Graph) -> CanonicalForm:
    if g.order > SIZE_LIMIT:
        raise SizeLimit(f"{g.order} vertices exceeds limit {SIZE_LIMIT}")
    if g.order == 0:
        return CanonicalForm((), b"0:0:")
    search = _CanonicalSearch(list(g.rows)).run()
    nbits = g.order * (g.order - 1) // 2
    cert = (f"{g.order}:{g.edge_count()}:".encode()
            + search.best_bits.to_bytes((nbits + 7) // 8 or 1, "big"))
    return CanonicalForm(tuple(search.best_colors), cert)


def automorphism_count(g: Graph) -> int:
    """Exact order of the automorphism group via canonical leaf counting."""
    if g.order > SIZE_LIMIT:
        raise SizeLimit(f"{g.order} vertices exceeds limit {SIZE_LIMIT}")
    if g.order == 0:
        return 1
    return _CanonicalSearch(list(g.rows)).run().count


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.order != h.order or g.edge_count() != h.edge_count():
        return False
    if sorted(g.degrees()) != sorted(h.degrees()):
        return False
    return canonical_form(g).certificate == canonical_form(h).certificate
