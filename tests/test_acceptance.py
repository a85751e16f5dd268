"""Acceptance battery: the thirteen headline results, tolerance zero.

Each criterion is a named group of claim ids from the verification battery
in rooklab.verify.  The whole battery runs once, through its own runner on
the session's SpectrumCache, and each criterion selects its reports from
that run, so every claim has exactly one implementation; the reports of
the whole run, runtime aside, are pinned by one digest.  Each criterion
emits exactly one line

    ACCEPTANCE <k>: PASS|FAIL|REPORT <summary>

collected in ACCEPTANCE_LINES and printed by the terminal-summary hook in
conftest.py after the run (and immediately under pytest -s).  Criterion 13
covers conjectured spectra only: its claims report comparisons and never
fail.  Runtime budgets are asserted from the claims' runtime_ms.
"""

import hashlib
from dataclasses import dataclass
from math import comb

import pytest

from rooklab.graphs import sr_order
from rooklab.invariants import SIZE_LIMIT
from rooklab.verify import _run, battery


def grid(ms, ns, cap=1000):
    return [(m, n) for m in ms for n in ns if 0 < sr_order(m, n) <= cap]


def ids(fmt, points):
    return tuple(fmt.format(m=m, n=n) for m, n in points)


@dataclass(frozen=True)
class Criterion:
    summary: str
    claims: tuple
    points: int  # reports the group selects, one per checked point
    total_s: float = float("inf")  # budget for the whole group
    each_s: float = float("inf")  # budget for every claim in the group


SPECTRA = grid(range(1, 7), range(0, 9))
QUOTIENTS = grid(range(2, 6), range(1, 6))

CRITERIA = {
    1: Criterion("table rows n=0..15 match golden strings",
                 tuple(f"table1.n={n}" for n in range(16)),
                 16, total_s=300),
    2: Criterion("multiplicities sum to the vertex count on the full grid",
                 ids("integral.m={m}.n={n}", SPECTRA), 53),
    3: Criterion("smallest eigenvalue equals max(-n, -binom(m,2)) on the grid",
                 ids("smallest.m={m}.n={n}", SPECTRA), 53),
    4: Criterion("bottom and -n multiplicities match the closed forms",
                 ids("mult.bottom.m={m}.n={n}", SPECTRA)
                 + ids("mult.minus_n.m={m}.n={n}", SPECTRA), 106),
    5: Criterion("A + nI = N N^T entrywise for m,n <= 5",
                 ids("halved.m={m}.n={n}", grid(range(1, 6), range(1, 6))), 25),
    6: Criterion("n=3, n=4, m=3 closed forms equal exact spectra",
                 ids("family.n3.m={m}", grid(range(1, 9), [3]))
                 + ids("family.n4.m={m}", grid(range(1, 9), [4]))
                 + ids("family.m3.n={n}", grid([3], range(1, 13))), 28),
    7: Criterion("SR and Johnson support quotients agree and match the formula",
                 ids("quotient.support.m={m}.n={n}", QUOTIENTS)
                 + ids("quotient.formula.m={m}.n={n}", QUOTIENTS)
                 + ids("quotient.spectrum.m={m}.n={n}", QUOTIENTS), 60),
    8: Criterion("diameter, clique, and independence formulas hold; "
                 "every search under 2 minutes",
                 ids("prop.diameter.m={m}.n={n}", grid(range(1, 7), range(7)))
                 + ids("prop.clique.m={m}.n={n}",
                       grid(range(2, 7), range(1, 7), cap=500))
                 + ids("prop.alpha.m={m}.n={n}",
                       grid([3], range(1, 11)) + grid(range(4, 10), [3])),
                 88, each_s=120),
    9: Criterion("|Aut| = 2*m! at n=3 and m! at n=4,5; each count under "
                 "2 minutes",
                 ids("prop.aut.m={m}.n={n}",
                     [(4, 3), (5, 3), (4, 4), (4, 5), (5, 4)]),
                 5, each_s=120),
    10: Criterion("switching mates verified; closure finds >= 336 "
                  "cospectral classes in under 10 minutes",
                  ("switch.v1.m=4.n=3", "switch.v1.m=4.n=4",
                   "switch.e12.m=4.n=3", "switch.e12.m=5.n=3",
                   "switch.closure.m=4.n=3"),
                  5, each_s=600),
    11: Criterion("signed families span the -n and -binom(m,2) eigenspaces",
                  ids("gamma.fpi.m={m}.n={n}",
                      [(m, n) for m in range(2, 6)
                       for n in range(1, comb(m, 2) + 1)])
                  + ids("gamma.fpw.m={m}.n={n}", grid(range(2, 5), range(1, 9))),
                  44),
    12: Criterion("Gamma classes for n <= 4 and the reversal Cayley "
                  "isomorphism verified",
                  tuple(f"gamma.classify.n={n}" for n in range(1, 5))
                  + ("gamma.cayley.m=3", "gamma.cayley.m=4"), 6),
    13: Criterion("conjectured spectra",
                  ids("conjectured.n5.m={m}", grid(range(1, 12), [5]))
                  + ids("conjectured.m4.n={n}",
                        grid([4], [6, *range(8, 21)], cap=SIZE_LIMIT)),
                  22, each_s=15),
}

ACCEPTANCE_LINES = []


@pytest.fixture(scope="module")
def reports(spectrum_cache):
    return list(_run(battery(cache=spectrum_cache)))


def select(criterion, reports):
    wanted = set(criterion.claims)
    return [r for r in reports if r.claim in wanted]


def check(k, reports):
    c = CRITERIA[k]
    reports = select(c, reports)
    seconds = sum(r.runtime_ms for r in reports) / 1000
    failures = [(r.claim, r.actual) for r in reports if r.status == "fail"]
    budget = [r.claim for r in reports if r.runtime_ms >= 1000 * c.each_s]
    if seconds >= c.total_s:
        budget.append(f"total {seconds:.1f}s")
    ok = not failures and not budget
    report_only = all(r.status == "reported" for r in reports)
    status = "FAIL" if not ok else "REPORT" if report_only else "PASS"
    line = (f"ACCEPTANCE {k:2d}: {status} {c.summary} "
            f"({len(reports)} claims, {seconds:.1f}s)"
            + "".join(f"; {r.claim} {r.actual.partition(':')[0]}"
                      for r in reports if r.status == "reported")
            + (f"; failures {failures}" if failures else "")
            + (f"; budget {budget}" if budget else ""))
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


def test_groups_name_battery_claims(reports):
    registry = {r.claim for r in reports}
    for k, c in CRITERIA.items():
        assert set(c.claims) <= registry, (k, set(c.claims) - registry)
        assert len(set(c.claims)) == len(c.claims), k
        assert len(select(c, reports)) == c.points, k


def test_battery_reports_are_pinned(reports):
    # Beside the claim-id pin in test_verify.py: every report's claim,
    # status, expected and actual, in battery order.  A change to any
    # output re-pins this and says which claims changed and why.
    digest = hashlib.sha256("\n".join(
        repr((r.claim, r.status, r.expected, r.actual)) for r in reports
    ).encode()).hexdigest()
    assert len(reports) == 584
    assert digest == ("26a54bed7c0a53e5dd961b61257de490"
                      "25f9a7b6e041036e20abe6b6f3a6c1db")


def test_criterion_01_table1_rows_match(reports):
    check(1, reports)


def test_criterion_02_integral_spectra(reports):
    check(2, reports)


def test_criterion_03_smallest_eigenvalue(reports):
    check(3, reports)


def test_criterion_04_extreme_multiplicities(reports):
    check(4, reports)


def test_criterion_05_halved_factorization(reports):
    check(5, reports)


def test_criterion_06_closed_form_spectra(reports):
    check(6, reports)


def test_criterion_07_support_partition_quotients(reports):
    check(7, reports)


def test_criterion_08_metric_invariants(reports):
    check(8, reports)


def test_criterion_09_automorphism_counts(reports):
    check(9, reports)


def test_criterion_10_switching_mates_and_closure(reports):
    check(10, reports)


def test_criterion_11_eigenvector_families(reports):
    check(11, reports)


def test_criterion_12_gamma_classification(reports):
    check(12, reports)


def test_criterion_13_conjectured_families_report_only(reports):
    check(13, reports)
