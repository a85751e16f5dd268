"""Verification battery: every structural claim as a pass/fail/report item.

Items are grouped into suites (spectra, partitions, invariants, switching,
gamma); each produces VerificationReport records with millisecond timings.
Comparisons against proved statements emit pass or fail; comparisons against
conjectured formulas emit status "reported" and never fail the battery.
This is the one implementation of each claim: the acceptance criteria in
tests/test_acceptance.py are named groups of these claim ids.

A claim is a plain function of (m, n) that returns (status, expected,
actual).  A suite declares it at its points with one `_points` entry: an id
format such as "integral.m={m}.n={n}" and the function, which `_equal`
builds when the claim compares a formula with a computation.  The Gamma
claims, which have no SR point, are (id, callable) pairs written out.

Items run one after another in submission order, so output is
deterministic.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from itertools import product
from math import comb, factorial

from . import golden
from .eigenvectors import (cayley_transpositions, classify_gamma, f_pi,
                           f_pw_family, gamma_graph,
                           permutations_with_inversions)
from .formulas import (CONJECTURED, bottom_multiplicity,
                       common_quotient_spectrum, independence_formula,
                       independence_upper_bound, mahonian,
                       predicted_spectrum, smallest_eigenvalue_formula)
from .graphs import (cartesian_product, complete_bipartite, complete_graph,
                     cube_graph, johnson_graph, sr_graph, sr_order)
from .invariants import (SIZE_LIMIT, automorphism_count, canonical_form,
                         classify_clique, clique_number, diameter,
                         has_induced_k114, independence_number, is_isomorphic,
                         maximal_cliques, vertex_orbits)
from .linalg import (Spectrum, halved_factorization_check, integral_spectrum,
                     rank, verify_eigenvector)
from .partitions import (check_equitable, e_st_formula,
                         johnson_support_partition, quotient_spectrum,
                         support_partition, weight_partition)
from .switching import (enumerate_switching_sets, gm_switch,
                        named_switching_set, switching_closure)

# Parametric sweeps skip SR graphs above these orders.
_SWEEP_CAP = 1000
_CLIQUE_CAP = 500


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    status: str  # "pass" | "fail" | "reported"
    expected: str
    actual: str
    runtime_ms: int

    def to_json(self):
        return {"claim": self.claim, "status": self.status,
                "expected": self.expected, "actual": self.actual,
                "runtime_ms": self.runtime_ms}


def _run(items):
    """Evaluate (claim, callable) pairs in order, yielding each report as
    its claim finishes; callables return (status, expected, actual).
    Exceptions become failures instead of aborting the battery."""
    for claim, fn in items:
        start = time.monotonic()
        try:
            status, expected, actual = fn()
        except Exception as exc:  # noqa: BLE001 - surfaced in the report
            status, expected, actual = "fail", "no exception", f"error: {exc!r}"
        ms = int((time.monotonic() - start) * 1000)
        yield VerificationReport(claim, status, str(expected), str(actual), ms)


def _eq(expected, actual):
    status = "pass" if expected == actual else "fail"
    return status, expected, actual


def _equal(expected, actual):
    """The claim of (m, n) that the formula expected(m, n) equals the
    computed actual(m, n)."""
    return lambda m, n: _eq(expected(m, n), actual(m, n))


def _points(points, *claims):
    """(claim id, callable) items: for each point (m, n), and then for each
    (fmt, claim) pair in order, the id fmt.format(m=m, n=n) and claim bound
    to (m, n)."""
    for m, n in points:
        for fmt, claim in claims:
            yield fmt.format(m=m, n=n), functools.partial(claim, m, n)


def _grid(ms, ns, cap):
    """The points (m, n), n fastest, whose SR graph has 1 to cap vertices."""
    return [(m, n) for m in ms for n in ns if 0 < sr_order(m, n) <= cap]


class SpectrumCache:
    """Memoized SR graphs, exact SR spectra and Gamma classifications shared
    across battery items."""

    def __init__(self):
        self.graph = functools.cache(sr_graph)
        self.spectrum = functools.cache(
            lambda m, n: integral_spectrum(self.graph(m, n)))
        self.gamma_classes = functools.cache(classify_gamma)


def suite_spectra(cache):
    def family(m, n, fam):
        predicted = str(predicted_spectrum(fam, m, n))
        actual = str(cache.spectrum(m, n))
        if fam not in CONJECTURED:
            return _eq(predicted, actual)
        note = "match" if predicted == actual else "MISMATCH"
        return "reported", f"{fam}: {predicted}", f"{note}: {actual}"

    def n_family(m, n):
        return family(m, n, f"n{n}")

    def m_family(m, n):
        return family(m, n, f"m{m}")

    yield from _points(
        [(4, n) for n in sorted(golden.TABLE1)],
        ("table1.n={n}", _equal(lambda m, n: str(golden.table1_spectrum(n)),
                                lambda m, n: str(cache.spectrum(m, n)))))
    yield from _points(
        [(3, 3)],
        ("complement.sr33",
         _equal(lambda m, n: str(Spectrum.from_string(golden.COMPLEMENT_SR33)),
                lambda m, n: str(integral_spectrum(
                    cache.graph(m, n).complement())))))
    yield from _points(
        _grid(range(1, 7), range(0, 9), _SWEEP_CAP),
        ("integral.m={m}.n={n}",
         _equal(sr_order, lambda m, n: cache.spectrum(m, n).total)),
        ("smallest.m={m}.n={n}",
         _equal(smallest_eigenvalue_formula,
                lambda m, n: cache.spectrum(m, n).min_eigenvalue)),
        ("mult.bottom.m={m}.n={n}",
         _equal(bottom_multiplicity,
                lambda m, n: cache.spectrum(m, n).multiplicity(-comb(m, 2)))),
        ("mult.minus_n.m={m}.n={n}",
         _equal(mahonian, lambda m, n: cache.spectrum(m, n).multiplicity(-n))))
    yield from _points(
        product(range(1, 6), range(1, 6)),
        ("halved.m={m}.n={n}",
         _equal(lambda m, n: True, halved_factorization_check)))
    yield from _points(_grid(range(1, 9), (3, 4), _SWEEP_CAP),
                       ("family.n{n}.m={m}", n_family))
    yield from _points(_grid((3,), range(1, 13), _SWEEP_CAP),
                       ("family.m3.n={n}", m_family))
    yield from _points(_grid(range(1, 12), (5,), _SWEEP_CAP),
                       ("conjectured.n5.m={m}", n_family))
    yield from _points(_grid((4,), (6, *range(8, 21)), SIZE_LIMIT),
                       ("conjectured.m4.n={n}", m_family))


def suite_partitions(cache):
    def weight(m, n):
        g = cache.graph(m, n)
        q = check_equitable(g, weight_partition(g))
        qs = quotient_spectrum(q)
        expected = Spectrum(tuple(((m - i) * (n - i) - n, 1)
                                  for i in range(min(m, n))))
        return _eq(str(expected), str(qs))

    def support(m, n):
        g = cache.graph(m, n)
        j = johnson_graph(m + n - 1, n)
        qg = check_equitable(g, support_partition(g))
        qj = check_equitable(j, johnson_support_partition(j))
        same = (qg.labels == qj.labels and qg.entries == qj.entries)
        return _eq(True, same)

    def spectrum(m, n):
        g = cache.graph(m, n)
        q = check_equitable(g, support_partition(g))
        qs = quotient_spectrum(q)
        expected = common_quotient_spectrum(m, n)
        if str(qs) != str(expected):
            return "fail", str(expected), str(qs)
        full = cache.spectrum(m, n)
        contained = all(full.multiplicity(ev) >= mult
                        for ev, mult in qs.pairs)
        if not contained:
            return ("fail", "quotient spectrum inside full spectrum",
                    f"{qs} not a sub-multiset of {full}")
        return "pass", str(expected), f"{qs} (inside full spectrum)"

    def formula(m, n):
        g = cache.graph(m, n)
        q = check_equitable(g, support_partition(g))
        supports = [frozenset(lab) for lab in q.labels]
        for a, s in enumerate(supports):
            for b, t in enumerate(supports):
                if e_st_formula(s, t, n) != q.entries[a][b]:
                    return ("fail", "formula == quotient entries",
                            f"mismatch at blocks {a},{b}")
        return "pass", "formula == quotient entries", "all entries agree"

    return _points(product(range(2, 6), range(1, 6)),
                   ("quotient.weight.m={m}.n={n}", weight),
                   ("quotient.support.m={m}.n={n}", support),
                   ("quotient.spectrum.m={m}.n={n}", spectrum),
                   ("quotient.formula.m={m}.n={n}", formula))


def suite_invariants(cache):
    def classify(m, n):
        g = cache.graph(m, n)
        for c in maximal_cliques(g):
            classify_clique(g, c)  # raises on an unclassifiable clique
        return "pass", "all maximal cliques classify", "all classified"

    def digitswap(m, n):
        g = cache.graph(m, n)
        swap = {1: 2, 2: 1}
        perm = [g.index[tuple(swap.get(x, x) for x in lab)]
                if 2 in lab else g.index[lab]
                for lab in g.labels]
        vertex_orbits(g, [perm])  # raises ValueError if not an automorphism
        return ("pass", "digit swap 1<->2 is an automorphism",
                "automorphism verified")

    def alpha_bound(m, n):
        formula = independence_formula(m, n)
        bound = independence_upper_bound(m)
        note = "agree" if formula == bound else "DISAGREE"
        return ("reported", f"upper bound {bound}",
                f"{note}: four-case formula {formula}")

    def lemma(m, n):
        g = cache.graph(m, n)
        clique_sets = [set(c) for c in maximal_cliques(g)]
        for u in range(g.order):
            nonzero = sum(1 for x in g.labels[u] if x)
            through_u = [c for c in clique_sets if u in c]
            at_most_two = all(
                sum(1 for c in through_u if w in c) <= 2
                for w in g.neighbors(u))
            if at_most_two != (nonzero == 1):
                return ("fail", "lemma equivalence",
                        f"vertex {g.labels[u]} breaks the equivalence")
        return "pass", "lemma equivalence", "holds for all vertices"

    yield from _points(
        product(range(1, 7), range(0, 7)),
        ("prop.diameter.m={m}.n={n}",
         _equal(lambda m, n: min(m - 1, n),
                lambda m, n: diameter(cache.graph(m, n)))))
    yield from _points(
        _grid(range(2, 7), range(1, 7), _CLIQUE_CAP),
        ("prop.clique.m={m}.n={n}",
         _equal(lambda m, n: max(m, n + 1),
                lambda m, n: clique_number(cache.graph(m, n)))))
    yield from _points(
        [(3, n) for n in range(1, 11)] + [(m, 3) for m in range(4, 10)],
        ("prop.alpha.m={m}.n={n}",
         _equal(independence_formula,
                lambda m, n: independence_number(cache.graph(m, n)))))
    yield from _points(
        product(range(3, 6), range(3, 6)),
        ("prop.cliquetypes.m={m}.n={n}", classify),
        ("prop.k114free.m={m}.n={n}",
         _equal(lambda m, n: False,
                lambda m, n: has_induced_k114(cache.graph(m, n)))))
    yield from _points(
        [(4, 3), (5, 3), (4, 4), (4, 5), (5, 4)],
        ("prop.aut.m={m}.n={n}",
         _equal(lambda m, n: (2 if n == 3 else 1) * factorial(m),
                lambda m, n: automorphism_count(cache.graph(m, n)))))
    yield from _points([(m, 3) for m in range(2, 7)],
                       ("prop.digitswap.m={m}.n={n}", digitswap))
    yield from _points([(m, 3) for m in range(3, 13)],
                       ("bound.alpha.m={m}.n={n}", alpha_bound))
    yield from _points(product((3, 4, 5), (3, 4, 5)),
                       ("lemma.two_cliques.m={m}.n={n}", lemma))


def suite_switching(cache):
    def named_mate(m, n, name):
        g = cache.graph(m, n)
        b = named_switching_set(g, name)
        mate = gm_switch(g, b)
        cospectral = str(integral_spectrum(mate)) == str(cache.spectrum(m, n))
        nonisomorphic = not is_isomorphic(mate, g)
        involution = gm_switch(mate, b).rows == g.rows
        ok = cospectral and nonisomorphic and involution
        return ("pass" if ok else "fail",
                "cospectral, non-isomorphic, involutive",
                f"cospectral={cospectral} non-isomorphic={nonisomorphic} "
                f"involution={involution}")

    def preserve(m, n):
        g = cache.graph(m, n)
        base = str(cache.spectrum(m, n))
        sets = enumerate_switching_sets(g)
        for b in sets:
            if str(integral_spectrum(gm_switch(g, b))) != base:
                return "fail", base, f"spectrum changed at {b.members}"
        return "pass", f"{len(sets)} sets preserve the spectrum", "all preserved"

    def closure(m, n):
        result = switching_closure(cache.graph(m, n), 400)
        base = str(cache.spectrum(m, n))
        cospectral = all(str(integral_spectrum(h)) == base for h in result.graphs)
        ok = result.count >= 336 and cospectral
        return ("pass" if ok else "fail", ">= 336 cospectral classes",
                f"classes={result.count} capped={result.capped} "
                f"all_cospectral={cospectral}")

    for name, points in (("v1", [(4, 3), (4, 4), (4, 5)]),
                         ("e12", [(4, 3), (5, 3), (6, 3)]),
                         ("ones", [(4, 3)])):
        yield from _points(points, (f"switch.{name}.m={{m}}.n={{n}}",
                                    functools.partial(named_mate, name=name)))
    yield from _points(product((3, 4), (3, 4)),
                       ("switch.preserve.m={m}.n={n}", preserve))
    yield from _points([(4, 3)], ("switch.closure.m={m}.n={n}", closure))


def suite_gamma(cache):
    targets = {
        1: [("Q_1", complete_graph(2))],
        2: [("Q_2", cube_graph(2))],
        3: [("K_{3,3}", complete_bipartite(3, 3)), ("Q_3", cube_graph(3))],
        4: [("K_{3,3} x K_2",
             cartesian_product(complete_bipartite(3, 3), complete_graph(2))),
            ("Q_4", cube_graph(4))],
    }

    def classify(n):
        classes = cache.gamma_classes(n)
        expected_names = [name for name, _ in targets[n]]
        if len(classes) != len(targets[n]):
            return ("fail", f"{expected_names}",
                    f"{len(classes)} classes found")
        matched = []
        for name, goal in targets[n]:
            hit = any(is_isomorphic(c.graph, goal) for c in classes)
            matched.append((name, hit))
        integral = all(c.probe.is_integral for c in classes)
        ok = all(hit for _, hit in matched) and integral
        return ("pass" if ok else "fail", f"{expected_names}, all integral",
                f"matched={matched} integral={integral}")

    def cayley(m):
        rev = tuple(range(m - 1, -1, -1))
        return _eq(True, is_isomorphic(gamma_graph(rev),
                                       cayley_transpositions(m)))

    def reduction(n):
        certs = {canonical_form(c.graph).certificate
                 for c in cache.gamma_classes(n)}
        for m in range(2 * n + 1, 8):
            for pi in permutations_with_inversions(m, n):
                g = gamma_graph(pi)
                if canonical_form(g).certificate not in certs:
                    return ("fail", "every large-m gamma reduces",
                            f"no class for m={m} pi={pi}")
        return "pass", "every large-m gamma reduces", "all reduce"

    def fpi(m, n):
        g = cache.graph(m, n)
        pis = permutations_with_inversions(m, n)
        vecs = [f_pi(pi) for pi in pis]
        for pi, vec in zip(pis, vecs):
            if not verify_eigenvector(g, vec, -n):
                return "fail", "exact -n eigenvectors", f"fails at {pi}"
        rows = [[vec.get(lab, 0) for lab in g.labels] for vec in vecs]
        return _eq(mahonian(m, n), rank(rows))

    def fpw(m, n):
        fam = f_pw_family(m, n)
        expected = bottom_multiplicity(m, n)
        if len(fam) != expected:
            return "fail", f"{expected} orbit vectors", f"{len(fam)}"
        if fam:
            g = cache.graph(m, n)
            lam = -comb(m, 2)
            for p, vec in fam:
                if not verify_eigenvector(g, vec, lam):
                    return "fail", "exact eigenvectors", f"fails at p={p}"
            rows = [[vec.get(lab, 0) for lab in g.labels] for _, vec in fam]
            if rank(rows) != expected:
                return "fail", f"rank {expected}", f"rank {rank(rows)}"
        return "pass", f"{expected} independent eigenvectors", f"{len(fam)} verified"

    for n in (1, 2, 3, 4):
        yield f"gamma.classify.n={n}", functools.partial(classify, n)
    for m in (3, 4):
        yield f"gamma.cayley.m={m}", functools.partial(cayley, m)
    for n in (1, 2, 3):
        yield f"gamma.reduction.n={n}", functools.partial(reduction, n)
    yield from _points(
        [(m, n) for m in range(2, 6) for n in range(1, comb(m, 2) + 1)],
        ("gamma.fpi.m={m}.n={n}", fpi))
    yield from _points(product(range(2, 5), range(1, 9)),
                       ("gamma.fpw.m={m}.n={n}", fpw))


_SUITE_BUILDERS = {
    "spectra": suite_spectra,
    "partitions": suite_partitions,
    "invariants": suite_invariants,
    "switching": suite_switching,
    "gamma": suite_gamma,
}
SUITES = tuple(_SUITE_BUILDERS)


def battery(names=SUITES, cache=None) -> list:
    """The (claim, callable) items of the named suites, in order."""
    unknown = [s for s in names if s not in _SUITE_BUILDERS]
    if unknown:
        raise ValueError(f"unknown suite(s): {', '.join(unknown)}")
    cache = cache or SpectrumCache()
    return [item for name in names for item in _SUITE_BUILDERS[name](cache)]


def run_suites(names):
    """Run the named suites, yielding VerificationReport records in order,
    each as its claim finishes.  Unknown names raise ValueError at the
    call, before any claim runs."""
    return _run(battery(names))
