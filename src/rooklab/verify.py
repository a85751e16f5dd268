"""Verification battery: every structural claim as a pass/fail/report item.

Items are grouped into suites (spectra, partitions, invariants, switching,
gamma); each produces VerificationReport records with millisecond timings.
Comparisons against proved statements emit pass or fail; comparisons against
conjectured formulas emit status "reported" and never fail the battery.
This is the one implementation of each claim: the acceptance criteria in
tests/test_acceptance.py are named groups of these claim ids.

Items run one after another in submission order, so output is
deterministic.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
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

SUITES = ("spectra", "partitions", "invariants", "switching", "gamma")

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


class SpectrumCache:
    """Memoized SR graphs, exact SR spectra and Gamma classifications shared
    across battery items."""

    def __init__(self):
        self.graph = functools.cache(sr_graph)
        self.spectrum = functools.cache(
            lambda m, n: integral_spectrum(self.graph(m, n)))
        self.gamma_classes = functools.cache(classify_gamma)


def _integrality_grid():
    for m in range(1, 7):
        for n in range(0, 9):
            if 0 < sr_order(m, n) <= _SWEEP_CAP:
                yield m, n


def suite_spectra(cache):
    items = []
    for n in sorted(golden.TABLE1):
        items.append((
            f"table1.n={n}",
            lambda n=n: _eq(str(golden.table1_spectrum(n)),
                            str(cache.spectrum(4, n)))))
    items.append((
        "complement.sr33",
        lambda: _eq(str(Spectrum.from_string(golden.COMPLEMENT_SR33)),
                    str(integral_spectrum(cache.graph(3, 3).complement())))))
    for m, n in _integrality_grid():
        items.append((
            f"integral.m={m}.n={n}",
            lambda m=m, n=n: _eq(sr_order(m, n), cache.spectrum(m, n).total)))
        items.append((
            f"smallest.m={m}.n={n}",
            lambda m=m, n=n: _eq(smallest_eigenvalue_formula(m, n),
                                 cache.spectrum(m, n).min_eigenvalue)))
        items.append((
            f"mult.bottom.m={m}.n={n}",
            lambda m=m, n=n: _eq(bottom_multiplicity(m, n),
                                 cache.spectrum(m, n).multiplicity(-comb(m, 2)))))
        items.append((
            f"mult.minus_n.m={m}.n={n}",
            lambda m=m, n=n: _eq(mahonian(m, n),
                                 cache.spectrum(m, n).multiplicity(-n))))
    for m in range(1, 6):
        for n in range(1, 6):
            items.append((
                f"halved.m={m}.n={n}",
                lambda m=m, n=n: _eq(True, halved_factorization_check(m, n))))

    def family_item(fam, m, n):
        def run():
            predicted = str(predicted_spectrum(fam, m, n))
            actual = str(cache.spectrum(m, n))
            if fam not in CONJECTURED:
                return _eq(predicted, actual)
            note = "match" if predicted == actual else "MISMATCH"
            return "reported", f"{fam}: {predicted}", f"{note}: {actual}"
        return run

    for m in range(1, 9):
        if sr_order(m, 3) <= _SWEEP_CAP:
            items.append((f"family.n3.m={m}", family_item("n3", m, 3)))
        if sr_order(m, 4) <= _SWEEP_CAP:
            items.append((f"family.n4.m={m}", family_item("n4", m, 4)))
    for n in range(1, 13):
        if sr_order(3, n) <= _SWEEP_CAP:
            items.append((f"family.m3.n={n}", family_item("m3", 3, n)))
    for m in range(1, 12):
        if sr_order(m, 5) <= _SWEEP_CAP:
            items.append((f"conjectured.n5.m={m}", family_item("n5", m, 5)))
    for n in list(range(6, 7)) + list(range(8, 21)):
        if sr_order(4, n) <= SIZE_LIMIT:
            items.append((f"conjectured.m4.n={n}", family_item("m4", 4, n)))
    return items


def suite_partitions(cache):
    items = []

    def weight_item(m, n):
        def run():
            g = cache.graph(m, n)
            q = check_equitable(g, weight_partition(g))
            qs = quotient_spectrum(q)
            expected = Spectrum(tuple(((m - i) * (n - i) - n, 1)
                                      for i in range(min(m, n))))
            return _eq(str(expected), str(qs))
        return run

    def support_item(m, n):
        def run():
            g = cache.graph(m, n)
            j = johnson_graph(m + n - 1, n)
            qg = check_equitable(g, support_partition(g))
            qj = check_equitable(j, johnson_support_partition(j, m))
            same = (qg.labels == qj.labels and qg.entries == qj.entries)
            return _eq(True, same)
        return run

    def spectrum_item(m, n):
        def run():
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
        return run

    def formula_item(m, n):
        def run():
            g = cache.graph(m, n)
            q = check_equitable(g, support_partition(g))
            supports = [frozenset(lab) for lab in q.labels]
            for a, s in enumerate(supports):
                for b, t in enumerate(supports):
                    if e_st_formula(s, t, n) != q.entries[a][b]:
                        return ("fail", "formula == quotient entries",
                                f"mismatch at blocks {a},{b}")
            return "pass", "formula == quotient entries", "all entries agree"
        return run

    for m in range(2, 6):
        for n in range(1, 6):
            items.append((f"quotient.weight.m={m}.n={n}", weight_item(m, n)))
            items.append((f"quotient.support.m={m}.n={n}", support_item(m, n)))
            items.append((f"quotient.spectrum.m={m}.n={n}", spectrum_item(m, n)))
            items.append((f"quotient.formula.m={m}.n={n}", formula_item(m, n)))
    return items


def suite_invariants(cache):
    items = []

    def diameter_item(m, n):
        return lambda: _eq(min(m - 1, n), diameter(cache.graph(m, n)))

    for m in range(1, 7):
        for n in range(0, 7):
            items.append((f"prop.diameter.m={m}.n={n}", diameter_item(m, n)))

    def clique_item(m, n):
        return lambda: _eq(max(m, n + 1), clique_number(cache.graph(m, n)))

    for m in range(2, 7):
        for n in range(1, 7):
            if sr_order(m, n) <= _CLIQUE_CAP:
                items.append((f"prop.clique.m={m}.n={n}", clique_item(m, n)))

    def alpha_item(m, n):
        return lambda: _eq(independence_formula(m, n),
                           independence_number(cache.graph(m, n)))

    for m, n in [(3, n) for n in range(1, 11)] + [(m, 3) for m in range(4, 10)]:
        items.append((f"prop.alpha.m={m}.n={n}", alpha_item(m, n)))

    def classify_item(m, n):
        def run():
            g = cache.graph(m, n)
            for c in maximal_cliques(g):
                classify_clique(g, c)  # raises on an unclassifiable clique
            return "pass", "all maximal cliques classify", "all classified"
        return run

    def k114_item(m, n):
        return lambda: _eq(False, has_induced_k114(cache.graph(m, n)))

    for m in range(3, 6):
        for n in range(3, 6):
            items.append((f"prop.cliquetypes.m={m}.n={n}", classify_item(m, n)))
            items.append((f"prop.k114free.m={m}.n={n}", k114_item(m, n)))

    def aut_item(m, n, expected):
        return lambda: _eq(expected, automorphism_count(cache.graph(m, n)))

    for m in (4, 5):
        items.append((f"prop.aut.m={m}.n=3", aut_item(m, 3, 2 * factorial(m))))
    for m, n in ((4, 4), (4, 5), (5, 4)):
        items.append((f"prop.aut.m={m}.n={n}", aut_item(m, n, factorial(m))))

    def digitswap_item(m):
        def run():
            g = cache.graph(m, 3)
            swap = {1: 2, 2: 1}
            perm = [g.index[tuple(swap.get(x, x) for x in lab)]
                    if 2 in lab else g.index[lab]
                    for lab in g.labels]
            vertex_orbits(g, [perm])  # raises ValueError if not an automorphism
            return ("pass", "digit swap 1<->2 is an automorphism",
                    "automorphism verified")
        return run

    for m in range(2, 7):
        items.append((f"prop.digitswap.m={m}.n=3", digitswap_item(m)))

    def bound_item(m):
        def run():
            formula = independence_formula(m, 3)
            bound = independence_upper_bound(m)
            note = "agree" if formula == bound else "DISAGREE"
            return ("reported", f"upper bound {bound}",
                    f"{note}: four-case formula {formula}")
        return run

    for m in range(3, 13):
        items.append((f"bound.alpha.m={m}.n=3", bound_item(m)))

    def lemma_item(m, n):
        def run():
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
        return run

    for m in (3, 4, 5):
        for n in (3, 4, 5):
            items.append((f"lemma.two_cliques.m={m}.n={n}", lemma_item(m, n)))
    return items


def suite_switching(cache):
    items = []

    def mate_item(m, n, name):
        def run():
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
        return run

    for m, n, name in ((4, 3, "v1"), (4, 4, "v1"), (4, 5, "v1"),
                       (4, 3, "e12"), (5, 3, "e12"), (6, 3, "e12"),
                       (4, 3, "ones")):
        items.append((f"switch.{name}.m={m}.n={n}", mate_item(m, n, name)))

    def preserve_item(m, n):
        def run():
            g = cache.graph(m, n)
            base = str(cache.spectrum(m, n))
            sets = enumerate_switching_sets(g)
            for b in sets:
                if str(integral_spectrum(gm_switch(g, b))) != base:
                    return "fail", base, f"spectrum changed at {b.members}"
            return "pass", f"{len(sets)} sets preserve the spectrum", "all preserved"
        return run

    for m, n in ((3, 3), (3, 4), (4, 3), (4, 4)):
        items.append((f"switch.preserve.m={m}.n={n}", preserve_item(m, n)))

    def closure_item():
        result = switching_closure(cache.graph(4, 3), 400)
        base = str(cache.spectrum(4, 3))
        cospectral = all(str(integral_spectrum(h)) == base for h in result.graphs)
        ok = result.count >= 336 and cospectral
        return ("pass" if ok else "fail", ">= 336 cospectral classes",
                f"classes={result.count} capped={result.capped} "
                f"all_cospectral={cospectral}")

    items.append(("switch.closure.m=4.n=3", closure_item))
    return items


def suite_gamma(cache):
    items = []
    targets = {
        1: [("Q_1", complete_graph(2))],
        2: [("Q_2", cube_graph(2))],
        3: [("K_{3,3}", complete_bipartite(3, 3)), ("Q_3", cube_graph(3))],
        4: [("K_{3,3} x K_2",
             cartesian_product(complete_bipartite(3, 3), complete_graph(2))),
            ("Q_4", cube_graph(4))],
    }

    def classify_item(n):
        def run():
            classes = cache.gamma_classes(n)
            expected_names = [name for name, _ in targets[n]]
            if len(classes) != len(targets[n]):
                return ("fail", f"{expected_names}",
                        f"{len(classes)} classes found")
            matched = []
            for name, goal in targets[n]:
                hit = any(is_isomorphic(c.graph, goal) for c in classes)
                matched.append((name, hit))
            integral = all(c.is_integral for c in classes)
            ok = all(hit for _, hit in matched) and integral
            return ("pass" if ok else "fail", f"{expected_names}, all integral",
                    f"matched={matched} integral={integral}")
        return run

    for n in (1, 2, 3, 4):
        items.append((f"gamma.classify.n={n}", classify_item(n)))

    def cayley_item(m):
        def run():
            rev = tuple(range(m - 1, -1, -1))
            return _eq(True, is_isomorphic(gamma_graph(m, rev),
                                           cayley_transpositions(m)))
        return run

    for m in (3, 4):
        items.append((f"gamma.cayley.m={m}", cayley_item(m)))

    def reduction_item(n):
        def run():
            certs = {canonical_form(c.graph).certificate
                     for c in cache.gamma_classes(n)}
            for m in range(2 * n + 1, 8):
                for pi in permutations_with_inversions(m, n):
                    g = gamma_graph(m, pi)
                    if canonical_form(g).certificate not in certs:
                        return ("fail", "every large-m gamma reduces",
                                f"no class for m={m} pi={pi}")
            return "pass", "every large-m gamma reduces", "all reduce"
        return run

    for n in (1, 2, 3):
        items.append((f"gamma.reduction.n={n}", reduction_item(n)))

    def fpi_item(m, n):
        def run():
            g = cache.graph(m, n)
            pis = permutations_with_inversions(m, n)
            vecs = [f_pi(pi) for pi in pis]
            for pi, vec in zip(pis, vecs):
                if not verify_eigenvector(g, vec, -n):
                    return "fail", "exact -n eigenvectors", f"fails at {pi}"
            rows = [[vec.get(lab, 0) for lab in g.labels] for vec in vecs]
            return _eq(mahonian(m, n), rank(rows))
        return run

    for m in range(2, 6):
        for n in range(1, comb(m, 2) + 1):
            items.append((f"gamma.fpi.m={m}.n={n}", fpi_item(m, n)))

    def fpw_item(m, n):
        def run():
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
        return run

    for m in range(2, 5):
        for n in range(1, 9):
            items.append((f"gamma.fpw.m={m}.n={n}", fpw_item(m, n)))
    return items


_SUITE_BUILDERS = {
    "spectra": suite_spectra,
    "partitions": suite_partitions,
    "invariants": suite_invariants,
    "switching": suite_switching,
    "gamma": suite_gamma,
}


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
