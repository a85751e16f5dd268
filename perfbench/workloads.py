"""The benchmark's workloads and their oracles.

A workload is a fixed list of tasks.  Each task calls public rooklab
functions (`run`, timed) and is checked afterwards, outside the timed
region: `digest` turns the raw result into plain comparable data, `facts`
derives what the oracle looks at, and the task passes when the facts equal
`expected()`.  The seed only drives task order and the random relabelings;
the program sees nothing but the generated graphs.

Library functions are always reached through their module (`G.sr_graph`,
never a name imported from it), so that the traced run sees every call.
Oracles are the paper's proved formulas and golden table, or independent
numpy and brute-force computations; none of them calls a traced function.
"""

from __future__ import annotations

import random
from math import comb, factorial

import numpy as np

from rooklab import eigenvectors as E
from rooklab import formulas as F
from rooklab import golden
from rooklab import graphs as G
from rooklab import invariants as I
from rooklab import linalg as L
from rooklab import partitions as P
from rooklab import switching as S

# SR(m, n) parameters of the spectra-large pool (126 to 462 vertices).
LARGE_SR = ((4, 8), (4, 9), (4, 10), (4, 11), (3, 16), (3, 17), (3, 18),
            (3, 20), (9, 3), (10, 3), (11, 3), (12, 3), (13, 3), (7, 4),
            (8, 4), (9, 4), (5, 5), (5, 6), (6, 5), (7, 5))

# Class cap of the switching closure on small-many.
CLOSURE_CAP = 12

# Seconds of one untraced round, roughly, on a 2-vCPU x86-64 VM.  They only
# turn --seconds into a fixed number of rounds, so that the number of samples
# does not depend on how fast the code under test is.
ROUND_SECONDS = {"spectra-large": 7.0, "small-many": 10.0}


class Task:
    __slots__ = ("name", "run", "digest", "facts", "expected")

    def __init__(self, name, run, digest, facts, expected):
        self.name = name
        self.run = run
        self.digest = digest
        self.facts = facts
        self.expected = expected


def build(workload, seed):
    """The seeded task list of a workload, in run order."""
    rng = random.Random(seed)
    tasks = _BUILDERS[workload](rng)
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------- oracles

def _identity(x):
    return x


def sr_labels(m, n):
    """SR(m, n) vertex labels in the library's documented (lexicographic)
    order, generated independently of it."""
    if m == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n + 1)
            for rest in sr_labels(m - 1, n - first)]


def sr_adjacency(m, n):
    """Adjacency of SR(m, n) straight from the definition: vectors
    adjacent when they differ in exactly two coordinates."""
    v = np.array(sr_labels(m, n), dtype=np.int64)
    return ((v[:, None, :] != v[None, :, :]).sum(axis=2) == 2).astype(np.int64)


def rows_adjacency(rows):
    v = len(rows)
    return np.array([[(r >> j) & 1 for j in range(v)] for r in rows],
                    dtype=np.int64)


def float_spectrum(values):
    """Integer (eigenvalue, multiplicity) pairs, descending, of floating
    eigenvalues that must all be within 1e-6 of an integer."""
    values = np.real_if_close(np.asarray(values), tol=1e6)
    rounded = np.rint(values)
    if np.iscomplexobj(values) or np.max(np.abs(values - rounded)) > 1e-6:
        return None
    counts = {}
    for x in rounded.astype(np.int64).tolist():
        counts[x] = counts.get(x, 0) + 1
    return tuple((c, counts[c]) for c in sorted(counts, reverse=True))


def sr_spectrum_oracle(m, n):
    """The paper's spectrum of SR(m, n): golden Table 1 for m = 4, the
    proved closed forms for n <= 4 and m = 3, otherwise numpy eigenvalues
    of the adjacency built from the definition."""
    if m == 4 and n in golden.TABLE1:
        return golden.table1_spectrum(n).pairs
    family = f"n{n}" if n <= 4 else "m3" if m == 3 else None
    if family:
        return F.predicted_spectrum(family, m, n).pairs
    return float_spectrum(np.linalg.eigvalsh(sr_adjacency(m, n)))


def _multiplicity(pairs, c):
    return dict(pairs).get(c, 0)


def _spectrum_facts(m, n):
    def facts(pairs):
        return (pairs, sum(k for _, k in pairs), pairs[-1][0],
                _multiplicity(pairs, -comb(m, 2)), _multiplicity(pairs, -n))
    return facts


def _spectrum_expected(m, n):
    def expected():
        return (sr_spectrum_oracle(m, n), comb(n + m - 1, n),
                F.smallest_eigenvalue_formula(m, n),
                F.bottom_multiplicity(m, n), F.mahonian(m, n))
    return expected


def spectrum_task(m, n):
    return Task(f"spectrum SR({m},{n})",
                lambda: L.integral_spectrum(G.sr_graph(m, n)),
                lambda spec: spec.pairs,
                _spectrum_facts(m, n), _spectrum_expected(m, n))


def _relabel_perm(rng, v):
    perm = list(range(v))
    rng.shuffle(perm)
    return perm


def _iso_bruteforce(rows_a, rows_b):
    """Backtracking isomorphism test for small graphs, independent of the
    library's canonical forms."""
    v = len(rows_a)
    if v != len(rows_b):
        return False
    deg_a = [r.bit_count() for r in rows_a]
    deg_b = [r.bit_count() for r in rows_b]
    if sorted(deg_a) != sorted(deg_b):
        return False
    image = [-1] * v
    used = [False] * v

    def extend(i):
        if i == v:
            return True
        for j in range(v):
            if used[j] or deg_a[i] != deg_b[j]:
                continue
            if all(((rows_a[i] >> k) & 1) == ((rows_b[j] >> image[k]) & 1)
                   for k in range(i)):
                image[i], used[j] = j, True
                if extend(i + 1):
                    return True
                used[j] = False
        return False

    return extend(0)


# ---------------------------------------------------------------- spectra-large

def _spectra_large(rng):
    return [spectrum_task(m, n) for m, n in LARGE_SR]


# ---------------------------------------------------------------- small-many

def _mate_task(m, n, members, perm):
    def run():
        mate = S.gm_switch(G.sr_graph(m, n), members)
        return L.integral_spectrum(mate.relabeled(perm))

    return Task(f"mate spectrum SR({m},{n}) at {members}", run,
                lambda spec: spec.pairs, _identity,
                lambda: sr_spectrum_oracle(m, n))


def _quotient_task(m, n, kind):
    partition = getattr(P, f"{kind}_partition")

    def run():
        g = G.sr_graph(m, n)
        q = P.check_equitable(g, partition(g))
        return q, P.quotient_spectrum(q)

    def digest(result):
        q, spec = result
        return q.labels, q.entries, spec.pairs

    if kind == "support":
        def facts(d):
            labels, entries, pairs = d
            formula = all(e == P.e_st_formula(s, t, n)
                          for s, row in zip(labels, entries)
                          for t, e in zip(labels, row))
            return formula, pairs

        def expected():
            return True, F.common_quotient_spectrum(m, n).pairs
    else:
        def facts(d):
            labels, entries, pairs = d
            valency = all(sum(row) == n * (m - 1) for row in entries)
            numeric = float_spectrum(np.linalg.eigvals(
                np.array(entries, dtype=float)))
            return valency, pairs == numeric

        def expected():
            return True, True

    return Task(f"{kind} quotient SR({m},{n})", run, digest, facts, expected)


def _eigvec_rows(labels, vecs):
    return [[vec.get(lab, 0) for lab in labels] for vec in vecs]


def _eigvec_facts(m, n, eigenvalue):
    """Every vector is checked against A v = eigenvalue v with numpy, on the
    adjacency built from the definition."""
    def facts(d):
        oks, r, vecs = d
        a = sr_adjacency(m, n)
        x = np.array(_eigvec_rows(sr_labels(m, n), [dict(v) for v in vecs]),
                     dtype=np.int64).reshape(len(vecs), -1)
        exact = bool(np.array_equal(x @ a, eigenvalue * x)) and all(
            np.any(row) for row in x)
        return all(oks), r, len(vecs), exact
    return facts


def _eigvec_digest(result):
    oks, r, vecs = result
    return tuple(oks), r, tuple(tuple(sorted(v.items())) for v in vecs)


def _fpi_task(m, n):
    def run():
        g = G.sr_graph(m, n)
        vecs = [E.f_pi(pi) for pi in E.permutations_with_inversions(m, n)]
        oks = [L.verify_eigenvector(g, v, -n) for v in vecs]
        return oks, L.rank(_eigvec_rows(g.labels, vecs)), vecs

    count = F.mahonian(m, n)
    return Task(f"f_pi family SR({m},{n})", run, _eigvec_digest,
                _eigvec_facts(m, n, -n), lambda: (True, count, count, True))


def _fpw_task(m, n):
    def run():
        g = G.sr_graph(m, n)
        vecs = [vec for _, vec in E.f_pw_family(m, n)]
        oks = [L.verify_eigenvector(g, v, -comb(m, 2)) for v in vecs]
        return oks, L.rank(_eigvec_rows(g.labels, vecs)), vecs

    count = comb(n - comb(m - 1, 2), m - 1)
    return Task(f"f_pw family SR({m},{n})", run, _eigvec_digest,
                _eigvec_facts(m, n, -comb(m, 2)),
                lambda: (True, count, count, True))


def _halved_task(m, n):
    return Task(f"halved SR({m},{n})",
                lambda: L.halved_factorization_check(m, n),
                _identity, _identity, lambda: True)


def _closure_task():
    def digest(result):
        return result.capped, tuple(g.rows for g in result.graphs)

    def facts(d):
        capped, reps = d
        spectra = {float_spectrum(np.linalg.eigvalsh(rows_adjacency(rows)))
                   for rows in reps}
        return capped, len(reps), spectra

    return Task(f"switching closure SR(4,3) cap {CLOSURE_CAP}",
                lambda: S.switching_closure(G.sr_graph(4, 3), CLOSURE_CAP),
                digest, facts,
                lambda: (True, CLOSURE_CAP, {sr_spectrum_oracle(4, 3)}))


def _small_many(rng):
    tasks = [spectrum_task(m, n)
             for m in range(2, 10) for n in range(1, 15)
             if 4 <= comb(n + m - 1, n) <= 120 and (m > 2 or n <= 8)]
    for m, n in ((4, 3), (4, 4), (5, 3)):
        v = comb(n + m - 1, n)
        for found in S.enumerate_switching_sets(G.sr_graph(m, n)):
            tasks.append(_mate_task(m, n, found.members, _relabel_perm(rng, v)))
    for m in range(2, 6):
        for n in range(1, 6):
            tasks.append(_quotient_task(m, n, "weight"))
            tasks.append(_quotient_task(m, n, "support"))
    for m in range(2, 6):
        for n in range(1, comb(m, 2) + 1):
            tasks.append(_fpi_task(m, n))
    for m in range(2, 5):
        for n in range(1, 9):
            if n - comb(m - 1, 2) >= m - 1:
                tasks.append(_fpw_task(m, n))
    for m in range(1, 6):
        for n in range(1, 6):
            tasks.append(_halved_task(m, n))
    tasks.append(_closure_task())
    return tasks + _symmetric_tasks(rng)


# ---------------------------------------------------------------- small-many: symmetric searches

def _aut_task(name, build, expected):
    return Task(f"automorphism count {name}",
                lambda: I.automorphism_count(build()),
                _identity, _identity, lambda: expected)


def _iso_relabel_task(m, n, perm):
    def run():
        g = G.sr_graph(m, n)
        return I.is_isomorphic(g, g.relabeled(perm))

    return Task(f"isomorphic SR({m},{n}) to a relabeling", run,
                _identity, _identity, lambda: True)


def _iso_mate_task(m, n, name):
    def run():
        g = G.sr_graph(m, n)
        return I.is_isomorphic(g, S.gm_switch(g, S.named_switching_set(g, name)))

    return Task(f"isomorphic SR({m},{n}) to its {name} mate", run,
                _identity, _identity, lambda: False)


def _gamma_task():
    def digest(classes):
        return tuple((c.graph.rows, c.m, c.pi, c.occurrences, c.probe.pairs,
                      c.probe.residual) for c in classes)

    targets = {"K_{3,3}": [(0b111000 if i < 3 else 0b000111) for i in range(6)],
               "Q_3": [sum(1 << (i ^ (1 << b)) for b in range(3))
                       for i in range(8)]}

    def facts(d):
        names = tuple(sorted(name for name, rows in targets.items()
                             if any(_iso_bruteforce(c[0], rows) for c in d)))
        return len(d), names, all(c[5] == 0 for c in d)

    return Task("classify Gamma n=3", lambda: E.classify_gamma(3), digest,
                facts, lambda: (2, ("K_{3,3}", "Q_3"), True))


def _clique_task(m, n, which):
    def run():
        g = G.sr_graph(m, n)
        search = getattr(I, which)
        return search(g, aut_generators=I.coordinate_symmetries(g))

    value = (max(m, n + 1) if which == "clique_number"
             else F.independence_formula(m, n))
    return Task(f"{which} SR({m},{n})", run, _identity, _identity,
                lambda: value)


def _maxclique_task(m, n):
    def run():
        g = G.sr_graph(m, n)
        cliques = I.maximal_cliques(g)
        return cliques, [I.classify_clique(g, c) for c in cliques]

    def digest(result):
        cliques, types = result
        return tuple(cliques), tuple((t.tag, t.params) for t in types)

    def facts(d):
        cliques, types = d
        labels = sr_labels(m, n)
        a = sr_adjacency(m, n)
        sets = [set(c) for c in cliques]
        is_clique = all(a[x, y] for c in cliques for x in c for y in c if x != y)
        maximal = all(not all(a[w, x] for x in c)
                      for c in sets for w in range(len(labels)) if w not in c)
        covered = all(any(x in c and y in c for c in sets)
                      for x, y in zip(*np.nonzero(np.triu(a))))
        consistent = all(_clique_type_holds([labels[x] for x in c], tag, params)
                         for c, (tag, params) in zip(cliques, types))
        return is_clique, maximal, covered, consistent, len(set(cliques)) == len(cliques)

    return Task(f"maximal clique types SR({m},{n})", run, digest, facts,
                lambda: (True, True, True, True, True))


def _clique_type_holds(vecs, tag, params):
    """The trichotomy description of a clique, checked on its labels."""
    m = len(vecs[0])
    if tag == "type1":
        j, k = params
        return all(v[i] == vecs[0][i] for v in vecs for i in range(m)
                   if i not in (j, k))
    a, base, support = params
    sign = 1 if tag == "type2" else -1
    want = {tuple(base[i] + sign * a * (i == s) for i in range(m)) for s in support}
    return tag in ("type2", "type3") and want == set(vecs)


def _k114_task(m, n):
    return Task(f"K_(1,1,4)-free SR({m},{n})",
                lambda: I.has_induced_k114(G.sr_graph(m, n)),
                _identity, _identity, lambda: False)


def _diameter_task(m, n):
    return Task(f"diameter SR({m},{n})",
                lambda: I.diameter(G.sr_graph(m, n)),
                _identity, _identity, lambda: min(m - 1, n))


def _batch(name, tasks):
    """One task made of several small ones, run back to back.  Symmetric
    graphs small enough to search in milliseconds are batched per family, so
    that no task is so short that host noise decides its latency."""
    return Task(name,
                lambda: [t.run() for t in tasks],
                lambda results: tuple(t.digest(r) for t, r in zip(tasks, results)),
                lambda digests: tuple(t.facts(d) for t, d in zip(tasks, digests)),
                lambda: tuple(t.expected() for t in tasks))


def _symmetric_tasks(rng):
    """Searches on highly symmetric graphs, where search leaves grow with
    |Aut|: automorphism counts, isomorphism, Gamma classes, cliques."""
    tasks = [_aut_task(f"SR({m},{n})", lambda m=m, n=n: G.sr_graph(m, n),
                       2 * factorial(m) if n == 3 else factorial(m))
             for m, n in ((4, 3), (4, 4), (4, 5), (5, 3))]
    tasks += [_aut_task(f"K_{k}", lambda k=k: G.complete_graph(k), factorial(k))
              for k in (6, 7)]
    for m, n in ((4, 3), (4, 4)):
        tasks.append(_iso_relabel_task(m, n, _relabel_perm(rng, comb(n + m - 1, n))))
    for m, n, name in ((4, 3, "v1"), (4, 4, "v1"), (4, 3, "e12"), (4, 3, "ones")):
        tasks.append(_iso_mate_task(m, n, name))
    tasks.append(_gamma_task())
    tasks.append(_batch("clique numbers SR(3..9,3)", [
        _clique_task(m, 3, "clique_number") for m in range(3, 10)]))
    tasks.append(_batch("independence numbers SR(3..7,3)", [
        _clique_task(m, 3, "independence_number") for m in range(3, 8)]))
    tasks.append(_batch("independence numbers SR(3,4..10)", [
        _clique_task(3, n, "independence_number") for n in range(4, 11)]))
    small = [(m, n) for m in range(3, 6) for n in range(3, 6)]
    tasks.append(_batch("maximal clique types SR(3..5,3..5)",
                        [_maxclique_task(m, n) for m, n in small]))
    tasks.append(_batch("K_(1,1,4)-free SR(3..5,3..5)",
                        [_k114_task(m, n) for m, n in small]))
    tasks.append(_batch("diameters SR(3..5,3..5)",
                        [_diameter_task(m, n) for m, n in small]))
    return tasks


_BUILDERS = {
    "spectra-large": _spectra_large,
    "small-many": _small_many,
}
