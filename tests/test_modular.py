"""Modular characteristic-polynomial engine and its integrality certificate.

sympy's charpoly over Z is the oracle for the mod-p coefficient pipeline;
random symmetric integer matrices with planted eigenvalues exercise the
certificate on both integral and non-integral inputs.  The engine split by
the coordinate permutations of SR labels is checked against the unsplit
one (labels=None) and against numpy eigenvalues, on SR graphs, relabelled
SR graphs and switching mates; the one-pass build of the S_m blocks is
checked byte for byte against the per-shape build it replaced.
"""

import ast
import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import property_test
from rooklab import modular
from rooklab.graphs import (complete_graph, cycle_graph, johnson_graph,
                            sr_graph, sr_order)
from rooklab.linalg import integral_spectrum
from rooklab.modular import (_POWER_SUM_ORDER, MAX_ORDER, PRIMES,
                             IncompleteSpectrum, _blocks, _exact_chunks,
                             _hessenberg_charpoly, _join_mod, _reduce,
                             _unitriangular_solve, annihilation_proved,
                             certified_symmetric_spectrum, charpoly_mod,
                             root_multiplicity)
from rooklab.partitions import check_equitable, weight_partition
from rooklab.switching import enumerate_switching_sets, gm_switch


def sympy_charpoly_mod(a, p):
    x = sympy.symbols("x")
    poly = sympy.Matrix(a.tolist()).charpoly(x)
    coeffs = list(reversed(poly.all_coeffs()))  # ascending
    return [int(c) % p for c in coeffs]


def random_symmetric(rng, v, lo=-4, hi=5):
    a = np.zeros((v, v), dtype=np.int64)
    for i in range(v):
        for j in range(i, v):
            a[i, j] = a[j, i] = rng.randrange(lo, hi)
    return a


def random_square(rng, v, lo=-40, hi=41):
    """A seeded random integer matrix, not symmetric, as the S_m blocks
    B_lambda are not."""
    return np.array([[rng.randrange(lo, hi) for _ in range(v)]
                     for _ in range(v)], dtype=np.int64)


class TestCharpolyMod:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(5)
        for p in (10007, 65537):
            for trial in range(10):
                v = rng.randrange(1, 9)
                a = random_symmetric(rng, v)
                assert charpoly_mod(a, p) == sympy_charpoly_mod(a, p)
        # Every order 1-8 at the engine's primes, symmetric and not, with
        # entries far outside [0, p).
        for p in (PRIMES[0], PRIMES[-1]):
            for v in range(1, 9):
                for a in (random_symmetric(rng, v), random_square(rng, v),
                          random_square(rng, v, -2**40, 2**40)):
                    got = charpoly_mod(a, p)
                    assert got == sympy_charpoly_mod(a, p), (p, a.tolist())
                    assert all(type(x) is int for x in got)

    def test_power_sums_match_hessenberg(self):
        # The Hessenberg route is the oracle at every order the engine
        # meets up to 40, and at 77, 120 and both sides of the crossover.
        rng = random.Random(23)
        orders = [*range(1, 41), 77, 120, _POWER_SUM_ORDER - 1,
                  _POWER_SUM_ORDER]
        for p in (PRIMES[0], PRIMES[-1]):
            for v in orders:
                a = (random_symmetric(rng, v) if v % 2 else
                     random_square(rng, v))
                assert charpoly_mod(a, p) == _hessenberg_charpoly(a, p), \
                    (p, v)

    def test_hessenberg_above_the_crossover(self):
        # A direct sum of random blocks, seven of order 40 and one of 21,
        # conjugated by a random signed permutation: at order 301 its
        # charpoly is the product of the blocks', each from the power sums.
        rng = random.Random(51)
        blocks = [random_square(rng, k, -2**40, 2**40)
                  for k in [40] * 7 + [21]]
        v = sum(map(len, blocks))
        a = np.zeros((v, v), dtype=np.int64)
        at = np.cumsum([0, *map(len, blocks)])
        for b, lo, hi in zip(blocks, at, at[1:]):
            a[lo:hi, lo:hi] = b
        perm = np.array(rng.sample(range(v), v))
        signs = np.array([rng.choice((-1, 1)) for _ in range(v)])
        a = a[perm][:, perm] * np.outer(signs, signs)
        assert v == _POWER_SUM_ORDER + 1
        for p in (PRIMES[0], PRIMES[-1]):
            want = [1]
            for b in blocks:
                chi = charpoly_mod(b, p)
                prod = [0] * (len(want) + len(b))
                for i, x in enumerate(want):
                    for j, y in enumerate(chi):
                        prod[i + j] += x * y
                want = [x % p for x in prod]
            assert _hessenberg_charpoly(a, p) == want, p

    def test_top_of_range_in_chunks(self):
        # -J reduces to p - 1 in every entry, so each product sums
        # (p - 1)**2 terms; at order 120 and at the crossover the traces
        # take two and eleven chunks.  det(xI + J) = x^(v-1) (x + v).
        for v in (120, _POWER_SUM_ORDER, _POWER_SUM_ORDER + 1):
            a = -np.ones((v, v), dtype=np.int64)
            for p in (PRIMES[0], PRIMES[-1]):
                assert charpoly_mod(a, p) == [0] * (v - 1) + [v, 1], (v, p)
        assert -(-_POWER_SUM_ORDER**2 // MAX_ORDER) == 11

    def test_route_chosen_by_order(self, monkeypatch):
        # Power sums up to _POWER_SUM_ORDER, Hessenberg reduction above.
        calls = []
        power_sums = modular._power_sums

        def counted(a, p):
            calls.append(len(a))
            return power_sums(a, p)

        monkeypatch.setattr(modular, "_power_sums", counted)
        for v in (1, _POWER_SUM_ORDER, _POWER_SUM_ORDER + 1):
            a = random_symmetric(random.Random(v), v)
            assert charpoly_mod(a, PRIMES[0]) == \
                _hessenberg_charpoly(a, PRIMES[0])
        assert calls == [1, _POWER_SUM_ORDER]

    def test_refuses_primes_outside_the_exact_range(self):
        # At p = 2**31 - 1, products of residues leave the exact range: a
        # float64 sum of them would round silently.
        rng = random.Random(24)
        for p in (2**31 - 1, 2**61 - 1, np.int64(2**61 - 1)):
            for v in range(1, 10):
                with pytest.raises(ValueError):
                    charpoly_mod(random_symmetric(rng, v), p)
            assert charpoly_mod(np.zeros((0, 0), dtype=np.int64), p) == [1]
        # p must exceed the order, for Newton's identities to divide by it.
        a = random_symmetric(rng, 5)
        with pytest.raises(ValueError):
            charpoly_mod(a, 5)
        assert charpoly_mod(a, 7) == sympy_charpoly_mod(a, 7)
        # Past MAX_ORDER the largest engine prime is not exact; refused
        # before any work.
        big = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, MAX_ORDER + 1))
        with pytest.raises(ValueError):
            charpoly_mod(big, PRIMES[0])

    def test_empty_matrix(self):
        assert charpoly_mod(np.zeros((0, 0), dtype=np.int64), 10007) == [1]


class TestRootMultiplicity:
    def test_planted_roots(self):
        p = 10007
        # (x-2)^3 (x+1) mod p, ascending coefficients via sympy expansion.
        x = sympy.symbols("x")
        poly = sympy.Poly((x - 2) ** 3 * (x + 1), x)
        coeffs = [int(c) % p for c in reversed(poly.all_coeffs())]
        assert root_multiplicity(coeffs, 2, p) == 3
        assert root_multiplicity(coeffs, -1, p) == 1
        assert root_multiplicity(coeffs, 5, p) == 0

    def test_negative_root_wraps(self):
        p = 10007
        coeffs = [1, 1]  # x + 1
        assert root_multiplicity(coeffs, -1, p) == 1


def per_candidate_multiplicity(coeffs, c, p):
    """root_multiplicity before it shared the screen's division: repeated
    synthetic division of the whole polynomial by (x - c)."""
    cur = [x % p for x in coeffs]
    cval = c % p
    mult = 0
    while len(cur) > 1:
        rem = 0
        quot = []
        for coef in reversed(cur):
            rem = (rem * cval + coef) % p
            quot.append(rem)
        if quot[-1] != 0:
            break
        mult += 1
        cur = quot[-2::-1]
    return mult


def per_candidate_screen(chi, norm, p):
    """The candidate screen before deflation, kept as its oracle: each c
    from norm down takes its multiplicity in the whole of chi, until the
    multiplicities reach chi's degree."""
    pairs, total = [], 0
    for c in range(norm, -norm - 1, -1):
        if total == len(chi) - 1:
            break
        e = per_candidate_multiplicity(chi, c, p)
        if e:
            pairs.append((c, e))
            total += e
    return pairs


def per_candidate_block_spectrum(b, norm):
    """modular._block_spectrum on the per-candidate screen."""
    for p in PRIMES[:4]:
        pairs = per_candidate_screen(charpoly_mod(b, p), norm, p)
        if sum(e for _, e in pairs) < len(b) or \
                annihilation_proved(b, [c for c, _ in pairs]):
            return pairs
    raise RuntimeError("spectrum certificate failed for the first four primes")


def engine_outcome(a, labels=None):
    """The engine's pairs, or its IncompleteSpectrum's pairs and residual."""
    try:
        return certified_symmetric_spectrum(a, labels)
    except IncompleteSpectrum as e:
        return e.pairs, e.residual


def random_poly_mod(rng, p):
    """A seeded random monic polynomial mod p (ascending): integer roots in
    [-12, 12] of multiplicity 1-3 and irreducible quadratic factors."""
    factors = []
    for _ in range(rng.randrange(0, 7)):
        factors += [[-rng.randrange(-12, 13) % p, 1]] * rng.randrange(1, 4)
    for _ in range(rng.randrange(0, 4)):
        lin, const = 0, 0
        while pow((lin * lin - 4 * const) % p, (p - 1) // 2, p) != p - 1:
            lin, const = rng.randrange(p), rng.randrange(p)
        factors.append([const, lin, 1])
    rng.shuffle(factors)
    poly = [1]
    for f in factors:
        out = [0] * (len(poly) + len(f) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(f):
                out[i + j] = (out[i + j] + x * y) % p
        poly = out
    return poly


class TestDeflatedScreen:
    """The deflated root screen gives what the per-candidate screen gave."""

    def test_random_polynomials(self):
        # Candidate ranges narrower and wider than the roots' [-12, 12],
        # at a small prime and the engine's largest and smallest.
        rng = random.Random(26)
        for p in (10007, PRIMES[0], PRIMES[-1]):
            for _ in range(150):
                chi = random_poly_mod(rng, p)
                norm = rng.randrange(0, 16)
                assert modular._integer_roots(chi, norm, p) == \
                    per_candidate_screen(chi, norm, p), (p, chi, norm)
                for c in range(-norm, norm + 1):
                    assert root_multiplicity(chi, c, p) == \
                        per_candidate_multiplicity(chi, c, p)

    def test_sr_blocks_mates_and_odd_cycles(self, monkeypatch):
        # Every block of SR(m, n) with m, n <= 6, the 73 switching mates of
        # SR(4, 3), SR(4, 4) and SR(5, 3), and the non-integral C_5 and C_7:
        # the same pairs block by block, and the same spectrum or
        # IncompleteSpectrum pairs and residual.
        cases = []
        for m in range(1, 7):
            for n in range(7):
                g = sr_graph(m, n)
                cases.append((g.adjacency_matrix(), g.labels))
        for m, n in ((4, 3), (4, 4), (5, 3)):
            g = sr_graph(m, n)
            cases += [(gm_switch(g, b).adjacency_matrix(), None)
                      for b in enumerate_switching_sets(g)]
        cases += [(cycle_graph(k).adjacency_matrix(), None) for k in (5, 7)]
        assert len(cases) == 42 + 73 + 2
        blocks = [b for a, labels in cases for b, _ in _blocks(a, labels)]
        norms = [int(np.abs(b).sum(axis=1).max()) for b in blocks]
        assert all(modular._block_spectrum(b, norm) ==
                   per_candidate_block_spectrum(b, norm)
                   for b, norm in zip(blocks, norms))
        deflated = [engine_outcome(*case) for case in cases]
        monkeypatch.setattr(modular, "_block_spectrum",
                            per_candidate_block_spectrum)
        assert deflated == [engine_outcome(*case) for case in cases]
        assert deflated[-2:] == [(((2, 1),), 4), (((2, 1),), 6)]


class TestCertificate:
    def test_planted_integer_spectrum(self):
        d = np.diag([3, 3, -1, 0, 5]).astype(np.int64)
        assert certified_symmetric_spectrum(d) == \
            [(5, 1), (3, 2), (0, 1), (-1, 1)]
        ones = np.ones((5, 5), dtype=np.int64)
        assert certified_symmetric_spectrum(ones) == \
            [(5, 1), (0, 4)]
        off = np.array([[0, 2], [2, 0]], dtype=np.int64)
        assert certified_symmetric_spectrum(off) == \
            [(2, 1), (-2, 1)]

    def test_adjacency_matrices(self):
        for g in (complete_graph(6), sr_graph(3, 3), sr_graph(4, 3)):
            a = np.array(g.adjacency_matrix(), dtype=np.int64)
            pairs = certified_symmetric_spectrum(a)
            oracle = sorted(((int(ev), int(mu)) for ev, mu in
                             sympy.Matrix(g.adjacency_matrix()).eigenvals().items()),
                            key=lambda t: -t[0])
            assert pairs == oracle

    def test_non_integral_raises(self):
        g = cycle_graph(5)
        a = np.array(g.adjacency_matrix(), dtype=np.int64)
        with pytest.raises(IncompleteSpectrum) as err:
            certified_symmetric_spectrum(a)
        assert err.value.residual == 4

    def test_failed_certificate_raises(self):
        # A Jordan block: 1 is a double root of the characteristic
        # polynomial, but A - I != 0, so no prime can certify it.
        jordan = np.array([[1, 1], [0, 1]], dtype=np.int64)
        with pytest.raises(RuntimeError):
            certified_symmetric_spectrum(jordan)

    def test_primes_match_trial_division(self):
        # The sieve gives what the definition by trial division gives.
        trial = [x for x in range((1 << 20) - 1, (1 << 20) - 4096, -2)
                 if all(x % d for d in range(3, math.isqrt(x) + 1, 2))]
        assert PRIMES == trial[:96]
        assert len(PRIMES) == 96 and MAX_ORDER == 8192
        assert all(type(p) is int for p in PRIMES)

    def test_order_above_exact_float_range_refused(self):
        assert PRIMES[0] == (1 << 20) - 3 and len(PRIMES) == 96
        assert PRIMES == sorted(PRIMES, reverse=True)
        assert all(sympy.isprime(p) for p in PRIMES)
        assert MAX_ORDER == 8192
        # A broadcast view: the guard must fire before any work touches it,
        # so nothing near its 537 MB as a dense array is ever allocated.
        a = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, MAX_ORDER + 1))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                certified_symmetric_spectrum(a)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_block_norm_where_candidates_collide_refused(self):
        # Once 2 ||B|| >= PRIMES[3], the smallest prime the root screen
        # tries, two candidates share a residue mod it: refused before any
        # block is certified.  One below, the diagonal matrix certifies.
        c = (PRIMES[3] - 1) // 2
        assert c == 524274
        assert certified_symmetric_spectrum(np.diag([c, 0])) == \
            [(c, 1), (0, 1)]
        for big in (c + 1, PRIMES[0]):
            with pytest.raises(ValueError, match="collide"):
                certified_symmetric_spectrum(np.diag([big, 0]))

    def test_norm_guard_reads_the_screen_primes(self, monkeypatch):
        # With a fifth screen prime the guard moves down to PRIMES[4]: a
        # block with 2 ||B|| = PRIMES[4] + 1, below PRIMES[3] and so within
        # the guard of the four primes, is refused.
        c = (PRIMES[4] + 1) // 2
        assert 2 * c < PRIMES[3]
        modular._check_norm(c)
        monkeypatch.setattr(modular, "_SCREEN_PRIMES", tuple(PRIMES[:5]))
        with pytest.raises(ValueError, match=f"collide mod {PRIMES[4]}"):
            certified_symmetric_spectrum(np.diag([c, 0]))

    def test_annihilation_rejects_wrong_eigenvalue_list(self):
        g = sr_graph(4, 1)  # K_4
        a = g.adjacency_matrix()
        assert [(b.tolist(), d) for b, d in _blocks(a, None)] == \
            [(a.tolist(), 1)]
        assert annihilation_proved(a, [3, -1])
        assert not annihilation_proved(a, [3, 1])
        assert not annihilation_proved(a, [3])
        # By its labels, K_4 splits into [3] and [-1] (three times): each
        # block needs only its own root, and another block's will not do.
        (top, d_top), (rest, d_rest) = _blocks(a, g.labels)
        assert (d_top, d_rest) == (1, 3)
        assert annihilation_proved(top, [3])
        assert annihilation_proved(rest, [-1])
        assert not annihilation_proved(top, [-1])
        assert not annihilation_proved(rest, [3])
        assert not annihilation_proved(rest, [])

    def test_entry_bound_uses_block_norms(self, joins):
        # A block's row sums may exceed the matrix's: SR(5, 7) has delta 28
        # and a block of order 25 and row-sum norm 34.  Each factor's bound
        # is then 34 + |c|, not 28 + |c|.  The a-priori bound of its 15
        # roots is 2**80, yet the measured one keeps the product whole: it
        # is proven zero with no prime.
        g = sr_graph(5, 7)
        a = g.adjacency_matrix()
        assert np.abs(a).sum(axis=1).max() == 28
        [block] = [b for b, _ in _blocks(a, g.labels) if len(b) == 25]
        assert modular._norm(block) == 34
        roots = [c for c, _ in modular._block_spectrum(block, 34)]
        assert a_priori_bound(block, roots).bit_length() == 80
        for c in roots:
            [(factor, bound)] = _exact_chunks(block, [c])
            assert bound == 34 + abs(c)
            assert np.array_equal(factor, block - c * np.eye(25))
        [(product, bound)] = assert_exact_chunks(block, roots)
        assert not product.any() and bound < 2**53
        assert certified_symmetric_spectrum(a, g.labels) == numpy_spectrum(a)
        assert joins == []

    def test_one_chunk_reaches_no_prime(self, monkeypatch, joins):
        # The engine's proofs: a block whose product closes one chunk never
        # reaches the join mod a prime.  Every block of SR(4, 11) and
        # SR(7, 5) and of a switching mate of SR(4, 4) does; SR(3, 20)'s
        # two larger blocks close two chunks each, proven at four and three
        # primes.
        calls = []
        proved = modular.annihilation_proved

        def counted(b, roots):
            before = len(joins)
            result = proved(b, roots)
            calls.append((len(_exact_chunks(b, roots)), len(joins) - before))
            return result

        monkeypatch.setattr(modular, "annihilation_proved", counted)
        g = sr_graph(4, 4)
        mate = gm_switch(g, next(iter(enumerate_switching_sets(g))))
        cases = [(sr_graph(m, n), True) for m, n in ((4, 11), (7, 5))]
        cases += [(mate, False), (sr_graph(3, 20), True)]
        for graph, split in cases:
            a = graph.adjacency_matrix()
            assert certified_symmetric_spectrum(
                a, graph.labels if split else None) == numpy_spectrum(a)
        assert all(primes == 0 for chunks, primes in calls if chunks == 1)
        assert len(calls) == 5 + 7 + 1 + 3
        assert calls[-3:] == [(2, 4), (2, 3), (1, 0)]

    def test_annihilation_order_above_exact_float_range_refused(self):
        # annihilation_proved is public: past MAX_ORDER its float64
        # products may round, so it refuses before any work, as the engine
        # does.
        a = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, MAX_ORDER + 1))
        with pytest.raises(ValueError, match="exceeds"):
            annihilation_proved(a, [0])

    def test_annihilation_empty_cases(self):
        assert annihilation_proved(np.zeros((0, 0), dtype=np.int64), [])
        assert annihilation_proved(np.zeros((2, 2), dtype=np.int64), [0])


def exact_product(a, roots):
    """prod over roots of (a - cI), as lists of Python ints."""
    v = len(a)
    out = [[int(i == j) for j in range(v)] for i in range(v)]
    for c in roots:
        shifted = [[int(a[i][j]) - c * (i == j) for j in range(v)]
                   for i in range(v)]
        out = [[sum(out[i][k] * shifted[k][j] for k in range(v))
                for j in range(v)] for i in range(v)]
    return out


def exact_annihilator_mod(a, roots, p):
    """prod over roots of (a - cI), in Python ints, reduced mod p."""
    return [[x % p for x in row] for row in exact_product(a, roots)]


def assert_exact_chunks(a, roots):
    """_exact_chunks(a, roots), checked: the product of its matrices,
    taken in Python ints, is the exact product; each matrix holds integers
    in float64, and each bound is a Python int below 2**53 and at least the
    matrix's max absolute row sum."""
    chunks = _exact_chunks(a, roots)
    v = len(a)
    product = [[int(i == j) for j in range(v)] for i in range(v)]
    for m, bound in chunks:
        assert m.dtype == np.float64
        assert np.array_equal(m, np.rint(m))
        rows = [[int(x) for x in row] for row in m.tolist()]
        assert type(bound) is int and bound < 2**53
        assert max((sum(map(abs, row)) for row in rows), default=0) <= bound
        product = [[sum(product[i][k] * rows[k][j] for k in range(v))
                    for j in range(v)] for i in range(v)]
    assert product == exact_product(a, roots)
    return chunks


def a_priori_bound(a, roots):
    """prod over roots of (||a|| + |c|), the bound on the whole product."""
    return math.prod(modular._norm(a) + abs(c) for c in roots)


def assert_balanced_residues(got, expected, p):
    """got holds float64 integers congruent mod p to expected (in [0, p)),
    each at most p/2 + 2 in magnitude."""
    assert got.dtype == np.float64
    assert np.array_equal(got, np.rint(got))
    assert np.abs(got).max(initial=0) <= p / 2 + 2
    assert (got.astype(np.int64) % p).tolist() == expected


@pytest.fixture
def joins(monkeypatch):
    """The prime of every _join_mod call."""
    primes = []
    join = modular._join_mod

    def counted(chunks, p):
        primes.append(p)
        return join(chunks, p)

    monkeypatch.setattr(modular, "_join_mod", counted)
    return primes


class TestReduction:
    """The annihilation product is exact: its chunks multiply to the exact
    integer product, and their join's balanced residues mod p are congruent
    to it."""

    def test_matches_python_integers(self):
        # Seeded random integer blocks of order 1-12, negative entries
        # included, with 0-6 roots, at the largest and the smallest prime:
        # entries and roots below 40 in magnitude, which fit one chunk, and
        # below 2**24, which close several.
        rng = random.Random(14)
        counts = Counter()
        for p in (PRIMES[0], PRIMES[-1]):
            for width in (40,) * 60 + (2**24,) * 20:
                v = rng.randrange(1, 13)
                a = np.array([[rng.randrange(-width, width + 1)
                               for _ in range(v)] for _ in range(v)],
                             dtype=np.int64)
                roots = [rng.randrange(-width, width + 1)
                         for _ in range(rng.randrange(0, 7))]
                chunks = assert_exact_chunks(a, roots)
                counts[width, len(chunks)] += 1
                got = _join_mod(chunks, p)
                assert_balanced_residues(
                    got, exact_annihilator_mod(a, roots, p), p)
        assert counts[40, 1] == 120
        assert sum(n for (_, k), n in counts.items() if k > 1) == 22

    def test_products_near_the_top_of_the_range(self):
        # h J of order 300 with h = +-(p - 1)/2, the largest balanced
        # residue, and -J.  For the large h each factor is a chunk of its
        # own, whose residues are h J - cI, so every product of the join
        # sums 300 products h**2.  J / 300 is idempotent, so
        # f(h J) = f(300 h) J / 300 + f(0) (I - J / 300) for f = prod (x - c).
        v = 300
        for p in (PRIMES[0], PRIMES[-1]):
            for h in (p // 2, -(p // 2), -1):
                a = np.full((v, v), h, dtype=np.int64)
                for roots in ([5, -3, 299, 0, -17, 1, 42, -299, 7],
                              [1, 2, 3, 4], [-301], list(range(-20, 21))):
                    f0 = f1 = 1
                    for c in roots:
                        f0 *= -c
                        f1 *= v * h - c
                    off = (f1 - f0) // v
                    expected = np.full((v, v), off % p, dtype=np.int64)
                    np.fill_diagonal(expected, (off + f0) % p)
                    chunks = _exact_chunks(a, roots)
                    assert len(chunks) == (len(roots) if h != -1 else
                                           -(-len(roots) // 6))
                    got = _join_mod(chunks, p)
                    assert_balanced_residues(got, expected.tolist(), p)

    def test_block_entries_near_two_to_the_53(self):
        # A block's entries are known only to lie below 2**53, so its
        # characteristic polynomial takes them mod p with integer % before
        # any product.  Past _reduce's range the rounding alone can be off:
        # at PRIMES[8], q p rounds for x = 2**53 - 1.  Any root makes a
        # factor of bound ||b|| + |c| >= 2**53, which the proof refuses
        # before any product.
        top = 2**53 - 1
        p8 = PRIMES[8]
        assert (top - int(_reduce(np.array([top]), p8)[0])) % p8
        rng = random.Random(53)
        for p in (PRIMES[0], p8, PRIMES[-1]):
            for _ in range(20):
                v = rng.randrange(1, 6)
                a = np.array([[rng.choice((top, -top, top - p, 1 - top,
                                           rng.randrange(-top, top + 1)))
                               for _ in range(v)] for _ in range(v)],
                             dtype=np.int64)
                a[0, 0] = top
                roots = [rng.randrange(-30, 31)
                         for _ in range(rng.randrange(0, 5))]
                if roots:
                    with pytest.raises(ValueError, match="2\\*\\*53"):
                        annihilation_proved(a, roots)
                else:
                    got = _join_mod(assert_exact_chunks(a, roots), p)
                    assert_balanced_residues(
                        got, exact_annihilator_mod(a, roots, p), p)
                assert charpoly_mod(a, p) == sympy_charpoly_mod(a, p)

    def test_reduce_matches_python_percent(self):
        # Every integer below 2**52 in magnitude, as float64 or int64,
        # reduces to a congruent balanced residue: multiples of p, their
        # neighbours and the half-way points between them, up to the top.
        rng = random.Random(52)
        for p in (PRIMES[0], PRIMES[-1]):
            top = (2**52 - 1) // p
            xs = [0, 1, p // 2, p // 2 + 1, p - 1, p, p + 1, 2 * p - 1,
                  2 * p, 2 * p + 1, 7 * p + 1, 7 * p + p // 2,
                  7 * p + p // 2 + 1, top * p - 1, top * p, top * p + 1,
                  top * p + p // 2, 2**52 - 1]
            xs += [rng.randrange(2**52) for _ in range(1000)]
            xs += [k * p + d for k in rng.sample(range(top + 1), 200)
                   for d in (-1, 0, 1)]
            xs = [x for x in xs if x < 2**52]
            xs += [-x for x in xs]
            assert max(xs) == 2**52 - 1
            for dtype in (np.float64, np.int64):
                got = _reduce(np.array(xs, dtype=dtype), p)
                assert_balanced_residues(got, [x % p for x in xs], p)

    def test_modular_calls_no_float_remainder(self):
        # np.fmod on float64 calls libm's fmod, whose cost grows with the
        # quotient; np.mod and np.remainder on floats go through the same
        # division.  The engine reduces through _reduce alone.
        tree = ast.parse(Path(modular.__file__).read_text())
        calls = sorted(f"{node.value.id}.{node.attr}"
                       for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name)
                       and node.value.id in ("np", "numpy")
                       and node.attr in ("fmod", "mod", "remainder"))
        assert calls == []


class TestChunkBoundary:
    """Blocks whose a-priori bound prod (||b|| + |c|) crosses 2**53: either
    the measured bound keeps the product whole, or a chunk closes.  Each
    case, true root list and false, is checked against the Python-int
    product."""

    def check(self, a, roots, chunks, zero):
        a = np.array(a, dtype=np.int64)
        assert a_priori_bound(a, roots) >= 2**53
        assert len(assert_exact_chunks(a, roots)) == chunks
        assert (not any(map(any, exact_product(a, roots)))) is zero
        assert annihilation_proved(a, roots) is zero

    def test_measured_bound_keeps_one_chunk(self, joins):
        # h J of order 4, h = 2**12, has eigenvalues 4 h and 0.  Its roots
        # 0 and 4 h +- 1 leave the product at 4 h in norm, far below the
        # bound that grows by about 2**15 per factor.
        h = 2**12
        a = np.full((4, 4), h)
        for last, zero in ((4 * h, True), (4 * h + 2, False)):
            roots = [0, 4 * h + 1, 4 * h - 1, 4 * h + 1, 4 * h - 1, last]
            assert a_priori_bound(a, roots) > 2**88
            self.check(a, roots, 1, zero)
        assert joins == []

    def test_chunk_closes(self, joins):
        # [[1, 2], [2, 1]] with the root -10080 four times: every factor
        # has non-negative entries and row sums 10083, so the bound is the
        # product's true norm, 2**53.2 after four factors, and its entries
        # pass 2**53: the fourth factor starts a second chunk.
        self.check([[1, 2], [2, 1]], [-10080] * 4, 2, False)
        # Upper triangular, eigenvalues 40, 1 and 0: 40 comes first, and
        # the product's norm reaches 2**51 before 1 and 0, the middle
        # roots, come last, in a chunk of their own.
        tri = [[40, 1, 1], [0, 1, 1], [0, 0, 0]]
        for middle, zero in ((0, True), (2, False)):
            roots = [40, 512, 514, 1, middle, -513, -515, -517]
            self.check(tri, roots, 2, zero)
        # The false lists fail at the first prime; the true one takes four.
        assert joins == [PRIMES[0]] + PRIMES[:4] + [PRIMES[0]]

    def test_bounds_past_the_float_range(self, joins):
        # Entries 2**52 with roots 1 - 2**52 make factors of bound
        # 2**53 - 1, each a float64 chunk, as no two fit together.  Roots
        # +-2**52 make factors of bound 2**53, refused before any product.
        n = 2**52
        a = np.array([[0, n], [n, 0]], dtype=np.int64)
        chunks = assert_exact_chunks(a, [1 - n] * 20)
        assert [bound for _, bound in chunks] == [2**53 - 1] * 20
        assert not annihilation_proved(a, [1 - n] * 20)
        for roots in ([n, -n] * 10, [n, 1 - n] * 10):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                annihilation_proved(a, roots)
        for d in ([n, n], [n, n - 1]):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                annihilation_proved(np.diag(d), [n])
        # One below, twenty factors of bound 2**53 - 2 bound the product by
        # 2**1061, past float64's range; 54 primes prove it.
        a = a - np.eye(2, dtype=np.int64)[::-1]
        roots = [n - 1, 1 - n] * 10
        assert [bound for _, bound in assert_exact_chunks(a, roots)] == \
            [2**53 - 2] * 20
        bound = 2 * (2**53 - 2)**20
        assert math.prod(PRIMES[:53]) <= bound < math.prod(PRIMES[:54])
        joins.clear()
        assert annihilation_proved(a, roots)
        assert joins == PRIMES[:54]

    def test_refused_from_two_to_the_53(self, joins):
        # ||b|| + |c| = 2**53 - 1 is proved as below it, for roots of both
        # signs; 2**53 is refused, before any product or join.  [[c, 1],
        # [0, 0]] has norm |c| + 1 and roots c and 0: c alone leaves a
        # nonzero single chunk, tested as it stands; with 0 the two factors
        # close two chunks, joined mod primes.  [[0, t], [0, 0]], t =
        # 2**53 - 1, is nilpotent: 0 is its one root.
        n = 2**52
        t = 2**53 - 1
        for s in (1, -1):
            b = np.array([[s * (n - 1), 1], [0, 0]], dtype=np.int64)
            cases = [([s * (n - 1)], 1, False), ([s * (n - 1), 0], 2, True)]
            for roots, count, zero in cases:
                assert len(assert_exact_chunks(b, roots)) == count
                assert (not any(map(any, exact_product(b, roots)))) is zero
                assert annihilation_proved(b, roots) is zero
            for roots in ([s * n, 0], [0, s * n]):
                with pytest.raises(ValueError, match="2\\*\\*53"):
                    annihilation_proved(b, roots)
        b = np.array([[0, t], [0, 0]], dtype=np.int64)
        assert len(assert_exact_chunks(b, [0, 0])) == 2
        assert not annihilation_proved(b, [0])
        assert annihilation_proved(b, [0, 0])
        joins.clear()
        for roots in ([1], [-1], [0, 0, 1]):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                annihilation_proved(b, roots)
            with pytest.raises(ValueError, match="2\\*\\*53"):
                _exact_chunks(b, roots)
        assert joins == []


@pytest.fixture
def split_builds(monkeypatch):
    """The (arguments, blocks) of every _blocks call the engine makes."""
    builds = []
    blocks = modular._blocks

    def counted(*args):
        builds.append((args, blocks(*args)))
        return builds[-1][1]

    monkeypatch.setattr(modular, "_blocks", counted)
    return builds


def numpy_spectrum(a):
    """Descending integer pairs of a symmetric matrix, or None when an
    eigenvalue is not within 1e-6 of an integer."""
    values = np.linalg.eigvalsh(a.astype(np.float64))
    rounded = np.rint(values)
    if np.max(np.abs(values - rounded), initial=0.0) > 1e-6:
        return None
    ints, counts = np.unique(rounded.astype(np.int64), return_counts=True)
    return [(int(c), int(e)) for c, e in zip(ints[::-1], counts[::-1])]


def per_shape_isotypic(a, lab):
    """modular._isotypic as it was before the one-pass build: every shape
    lambda sorts its own labels, looks up its own orbits and images and
    multiplies A by its own M.  Kept as the oracle of the batched build."""
    v, m = lab.shape

    def keys(rows):  # one opaque scalar per row of m entries
        return np.ascontiguousarray(rows.reshape(-1, m)).view(
            np.dtype((np.void, 8 * m))).ravel()

    order = np.argsort(keys(lab))
    table = keys(lab)[order]
    if np.any(table[1:] == table[:-1]):
        raise ValueError("labels are not distinct")

    def find(rows):  # the index whose label is each row
        q = keys(rows)
        pos = np.minimum(np.searchsorted(table, q), v - 1)
        if np.any(table[pos] != q):
            raise ValueError("labels are not closed under coordinate "
                             "permutation")
        return order[pos]

    nonzero = a != 0
    x, y = np.nonzero(nonzero)
    entries = a[nonzero]
    for perm in find(lab[:, [(1, 0, *range(2, m)),
                             (*range(1, m), 0)]]).reshape(v, 2).T:
        if not np.array_equal(a[perm[x], perm[y]], entries):
            raise ValueError("coordinate permutations are not a "
                             "symmetry of the matrix")
    delta = np.bincount(x, np.abs(entries)).max(initial=0)
    ordered = np.sort(lab, axis=1)
    contents = {tuple(sorted(Counter(t).values(), reverse=True)) for t in
                ordered[np.unique(keys(ordered), return_index=True)[1]]
                .tolist()}
    af = a.astype(np.float64)
    blocks = []
    width = int(lab.max() - lab.min()) + 1
    col = np.empty(v, dtype=np.int64)
    for shape in modular._shapes(m, contents):
        rows, below, above, perms, signs, d = modular._tableau(shape)
        rs = np.sort(lab + rows * width, axis=1) - rows * width
        in_j = (rs[:, below] > rs[:, above]).all(axis=1)
        reps = np.flatnonzero(in_j & (rs == lab).all(axis=1))
        reps = reps[np.lexsort(lab[reps].T[::-1])]
        k, ys = len(reps), np.flatnonzero(in_j)
        col[reps] = np.arange(k)
        js = col[find(rs[ys])]
        mj = np.bincount(find(lab[ys][:, perms]) * k
                         + np.repeat(js, len(signs)),
                         np.tile(signs, len(ys)), v * k).reshape(v, k)
        amj = af @ mj
        b = modular._unitriangular_solve(mj[reps].astype(np.int64),
                                         amj[reps].astype(np.int64))
        bound = np.abs(mj).max() * max(delta, np.abs(b).sum(axis=0).max())
        if bound >= 2**53 or not np.array_equal(mj @ b, amj):
            raise RuntimeError(f"block {shape} failed its exact check")
        blocks.append((b, d))
    if sum(d * len(b) for b, d in blocks) != v:
        raise RuntimeError("the blocks do not add up to the order")
    return blocks


def blocks_by(builder, a, labels):
    """_blocks(a, labels) with builder as modular._isotypic: each block as
    (bytes, dtype, shape, d_lambda), or the (type, message) of what it
    raised."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(modular, "_isotypic", builder)
        try:
            return [(b.tobytes(), b.dtype, b.shape, d)
                    for b, d in _blocks(a, labels)]
        except (ValueError, RuntimeError) as err:
            return type(err), str(err)


def indicator_labels(g):
    """J(v, n)'s vertices as 0/1 indicator vectors of their n-subsets."""
    points = sorted(set().union(*g.labels))
    return [tuple(map(set(s).__contains__, points)) for s in g.labels]


# Every SR(m, n) of at most 200 vertices with m <= 20: all of them for
# n >= 2, and the complete graphs SR(m, 1) up to K_20.
SMALL_SR = [(m, n) for m in range(1, 21) for n in range(25)
            if 0 < sr_order(m, n) <= 200]


def coordinate_generators(labels):
    """The index permutations of the coordinate transposition (0 1) and
    the m-cycle, p[x] the index of x's image, found label by label."""
    index = {lab: i for i, lab in enumerate(labels)}
    m = len(labels[0])
    return [[index[tuple(lab[k] for k in order)] for lab in labels]
            for order in ((1, 0, *range(2, m)), (*range(1, m), 0))]


def preserves(a, p):
    """Whether a[p x, p y] = a[x, y] for every entry, one by one."""
    rows = a.tolist()
    return all(rows[p[x]][p[y]] == rows[x][y]
               for x in range(len(rows)) for y in range(len(rows)))


@functools.cache
def pair_orbits(m, n):
    """SR(m, n)'s labels, adjacency and, for each entry (x, y), the index
    of the S_m-orbit of the unordered pair {x, y}."""
    g = sr_graph(m, n)
    images = [operator.itemgetter(*order)
              for order in itertools.permutations(range(m))]
    ids, orbits = np.empty((g.order, g.order), dtype=np.int64), {}
    for (x, s), (y, t) in itertools.product(enumerate(g.labels), repeat=2):
        key = min(tuple(sorted((image(s), image(t)))) for image in images)
        ids[x, y] = orbits.setdefault(key, len(orbits))
    return g.labels, g.adjacency_matrix(), ids, len(orbits)


def outcome(a, labels=None):
    """The engine's pairs, or the type of what it raised."""
    try:
        return certified_symmetric_spectrum(a, labels)
    except (IncompleteSpectrum, ValueError, RuntimeError) as err:
        return type(err)


INTEGER_DTYPES = (np.int8, np.int16, np.int32, np.int64,
                  np.uint8, np.uint16, np.uint32, np.uint64)


class TestSymmetrySplit:
    def test_sr_graphs_with_coordinate_shift(self):
        # The labels bring every coordinate permutation, the shift among
        # them: on every SR graph in SMALL_SR, and on K_97, the split engine
        # gives the unsplit answer.
        for m, n in SMALL_SR + [(97, 1)]:
            g = sr_graph(m, n)
            a = g.adjacency_matrix()
            assert certified_symmetric_spectrum(a, g.labels) == \
                certified_symmetric_spectrum(a), (m, n)

    def test_block_layout(self):
        # SR(4, 18): one block per partition of 4, (4), (3, 1), (2, 2),
        # (2, 1, 1) and (1, 1, 1, 1), counted d = 1, 3, 2, 3 and 1 times.
        g = sr_graph(4, 18)
        blocks = _blocks(g.adjacency_matrix(), g.labels)
        assert [len(b) for b, _ in blocks] == [84, 190, 111, 140, 34]
        assert [d for _, d in blocks] == [1, 3, 2, 3, 1]
        assert all(b.dtype == np.int64 for b, _ in blocks)
        # K_97 = SR(97, 1) keeps (97) and (96, 1) only: 96 = 1 + 96 * 1.
        g = sr_graph(97, 1)
        assert [(b.tolist(), d) for b, d in
                _blocks(g.adjacency_matrix(), g.labels)] == \
            [([[96]], 1), ([[-1]], 96)]
        # The weighted orders fill the matrix; one coordinate is one block.
        for m, n in SMALL_SR:
            g = sr_graph(m, n)
            blocks = _blocks(g.adjacency_matrix(), g.labels)
            assert sum(d * len(b) for b, d in blocks) == g.order, (m, n)
            assert m > 1 or [len(b) for b, _ in blocks] == [1]

    def test_one_split_and_one_proof_per_spectrum(self, monkeypatch,
                                                  split_builds):
        # The benchmark's per-layer metrics trace modular.annihilation_proved
        # by name; the engine must reach it once per block, and build its
        # split once.
        calls = []
        proved = modular.annihilation_proved

        def counted(*args):
            calls.append(args)
            return proved(*args)

        monkeypatch.setattr(modular, "annihilation_proved", counted)
        g = sr_graph(4, 6)
        spectrum = integral_spectrum(g)
        assert list(spectrum.pairs) == numpy_spectrum(g.adjacency_matrix())
        [(args, blocks)] = split_builds
        assert args[1] == g.labels
        assert len(calls) == len(blocks) == 5
        assert all(b is call[0] for (b, _), call in zip(blocks, calls))

    def test_engine_factors_stay_far_below_two_to_the_53(self, monkeypatch):
        # The proof refuses a factor b - cI with ||b|| + |c| >= 2**53.  The
        # engine never comes near: its root screen takes |c| <= ||b||, and
        # _check_norm keeps 2 ||b|| < PRIMES[3] < 2**20.  Every proof on
        # the 53-point spectra grid (m <= 6, n <= 8, up to 1 000 vertices)
        # and SR(4, 18), each spectrum fresh, stays in that range and
        # returns.
        calls = []
        proved = modular.annihilation_proved

        def recorded(b, roots):
            result = proved(b, roots)
            calls.append((modular._norm(b), roots))
            return result

        monkeypatch.setattr(modular, "annihilation_proved", recorded)
        points = [(m, n) for m in range(1, 7) for n in range(9)
                  if 0 < sr_order(m, n) <= 1000]
        assert len(points) == 53
        for m, n in points + [(4, 18)]:
            integral_spectrum(sr_graph(m, n))
        assert len(calls) == 165
        for norm, roots in calls:
            assert all(norm + abs(c) <= 2 * norm < PRIMES[3] for c in roots)

    def test_one_norm_per_block(self, monkeypatch):
        # Every bound of the split is one _norm: A's row sums once, then
        # each block's column sums (its exact check, on b.T), then each
        # block's row sums, once for the root screen and once more by the
        # annihilation proof, which always sums its matrix itself.
        seen = []
        norm = modular._norm

        def counted(b):
            seen.append(b)
            return norm(b)

        monkeypatch.setattr(modular, "_norm", counted)
        for m, n in ((4, 6), (5, 5), (3, 20)):
            g = sr_graph(m, n)
            a = g.adjacency_matrix()
            blocks = [b for b, _ in _blocks(a, g.labels)]
            seen.clear()
            assert certified_symmetric_spectrum(a, g.labels) == \
                numpy_spectrum(a)
            want = [a] + [b.T for b in blocks] + 2 * blocks
            assert len(seen) == len(want), (m, n)
            assert all(s.dtype == w.dtype and np.array_equal(s, w)
                       for s, w in zip(seen, want)), (m, n)
        seen.clear()
        assert annihilation_proved(np.diag([2, 2]), [2])
        assert len(seen) == 1

    def test_relabelled_sr_graph_keeps_its_split(self, split_builds):
        # Relabelling keeps an SR graph's family: integral_spectrum splits
        # it by its own labels, at their new indices.
        g = sr_graph(4, 5)
        h = g.relabeled(random.Random(7).sample(range(g.order), g.order))
        assert h.family == g.family and h.params == g.params
        assert integral_spectrum(h) == integral_spectrum(g)
        assert split_builds[0][0][1] == h.labels != g.labels
        assert check_equitable(h, weight_partition(h)) == \
            check_equitable(g, weight_partition(g))

    @property_test
    @given(st.data())
    def test_relabelled_sr_graph(self, data):
        # A relabelled graph carries its labels to new indices: the split
        # must find each coordinate permutation by label, not by position.
        m, n = data.draw(st.sampled_from([(3, 3), (4, 2), (4, 3), (5, 2),
                                          (3, 5), (6, 1), (4, 5), (5, 3)]))
        g = sr_graph(m, n)
        h = g.relabeled(data.draw(st.permutations(range(g.order))))
        a = h.adjacency_matrix()
        assert certified_symmetric_spectrum(a, h.labels) == \
            certified_symmetric_spectrum(a) == \
            certified_symmetric_spectrum(g.adjacency_matrix(), g.labels)

    def test_switching_mates_get_no_symmetry(self):
        # Mates lose the family label, so integral_spectrum gives them no
        # symmetry; most are not invariant under SR(4, 3)'s coordinate
        # permutations at all.
        g = sr_graph(4, 3)
        base = certified_symmetric_spectrum(g.adjacency_matrix(), g.labels)
        assert base == numpy_spectrum(g.adjacency_matrix())
        refused = 0
        for b in enumerate_switching_sets(g):
            mate = gm_switch(g, b)
            assert mate.family is None and mate.labels == g.labels
            a = mate.adjacency_matrix()
            assert certified_symmetric_spectrum(a) == base
            try:
                assert certified_symmetric_spectrum(a, g.labels) == base
            except ValueError:
                refused += 1
        assert refused > 0

    def test_refuses_what_is_no_symmetry(self):
        # SR(3, 2)'s labels on C_6's edges are closed under coordinate
        # permutation, but those permutations do not preserve the edges.
        labels = sr_graph(3, 2).labels
        a = cycle_graph(6).adjacency_matrix()
        for bad in (labels,
                    labels[:5] + ((0, 1, 1),),  # a repeated label
                    labels[:5] + ((1, 1, 0, 0),),  # ragged
                    labels[:5],  # too few
                    [lab + (0,) for lab in labels],  # not closed
                    [(x, 2 * y, z) for x, y, z in labels]):  # not closed
            with pytest.raises(ValueError):
                certified_symmetric_spectrum(a, bad)
            # The batched build refuses as the per-shape one did, with the
            # same message.
            refused = blocks_by(modular._isotypic, a, bad)
            assert refused[0] is ValueError
            assert refused == blocks_by(per_shape_isotypic, a, bad)

    @property_test
    @given(st.data())
    def test_symmetry_checked_entry_by_entry(self, data):
        # A symmetric matrix constant on the S_m-orbits of index pairs of
        # SR(m, n), m, n <= 4: one value per orbit, its spectrum integral
        # or not, or c0 I + c1 J + c2 A + c3 A**2, integral.  One entry pair
        # may then be changed.  The labelled engine refuses exactly the
        # matrices some generator fails to preserve, entry by entry, and
        # gives the unlabelled engine's answer for the others.
        m, n = data.draw(st.sampled_from(
            [(m, n) for m in range(2, 5) for n in range(1, 5)]))
        labels, adj, ids, count = pair_orbits(m, n)
        dtype = data.draw(st.sampled_from(INTEGER_DTYPES))
        lo = 0 if np.dtype(dtype).kind == "u" else -3
        small = st.integers(lo, 3)
        if data.draw(st.booleans()):
            a = np.array(data.draw(st.lists(small, min_size=count,
                                            max_size=count)))[ids]
        else:
            c0, c1, c2 = (data.draw(small) for _ in range(3))
            c3 = data.draw(st.integers(max(lo, -1), 1))
            a = c0 * np.eye(len(adj), dtype=np.int64) + c1 + c2 * adj \
                + c3 * (adj @ adj)
        if data.draw(st.booleans()):
            x, y = (data.draw(st.integers(0, len(a) - 1)) for _ in range(2))
            a[x, y] = a[y, x] = data.draw(small)
        a = a.astype(dtype)
        if all(preserves(a, p) for p in coordinate_generators(labels)):
            assert outcome(a, labels) == outcome(a)
        else:
            with pytest.raises(ValueError, match="not a symmetry"):
                certified_symmetric_spectrum(a, labels)

    def test_symmetry_compares_values(self):
        # SR(2, 2)'s swap keeps K_3's zero pattern, but maps the entry 2 at
        # ((0, 2), (1, 1)) onto the entry 1 at ((2, 0), (1, 1)).
        labels = sr_graph(2, 2).labels
        a = complete_graph(3).adjacency_matrix()
        i, j = labels.index((0, 2)), labels.index((1, 1))
        a[i, j] = a[j, i] = 2
        assert not preserves(a, coordinate_generators(labels)[0])
        with pytest.raises(ValueError, match="not a symmetry"):
            certified_symmetric_spectrum(a, labels)
        # Each generator is checked: on SR(3, 4), diag(x_2) is preserved by
        # the transposition (0 1) alone, and diag((x_0 - x_1)(x_1 - x_2)
        # (x_2 - x_0)) by the 3-cycle alone.  Both spectra are integral.
        labels = sr_graph(3, 4).labels
        swap, turn = coordinate_generators(labels)
        for diagonal, kept in (([z for _, _, z in labels], swap),
                               ([(x - y) * (y - z) * (z - x)
                                 for x, y, z in labels], turn)):
            a = np.diag(diagonal)
            assert [preserves(a, p) for p in (swap, turn)] == \
                [p is kept for p in (swap, turn)]
            assert outcome(a) == numpy_spectrum(a)
            with pytest.raises(ValueError, match="not a symmetry"):
                certified_symmetric_spectrum(a, labels)

    def test_refuses_labels_too_wide_to_key(self):
        # The label stack keys m entries of the labels' width in int64:
        # the permutations of (0, 1, w - 1) are refused, with ValueError,
        # once 3 w exceeds 2**63 - 1, and split below that.
        a = np.zeros((6, 6), dtype=np.int64)
        for w, fits in ((2**62 + 1, False), ((2**63 - 1) // 3, True)):
            labels = list(itertools.permutations((0, 1, w - 1)))
            if fits:
                assert certified_symmetric_spectrum(a, labels) == [(0, 6)]
                assert len(_blocks(a, labels)) == 3
            else:
                with pytest.raises(ValueError, match="too wide"):
                    certified_symmetric_spectrum(a, labels)

    def test_failed_integrality_check_raises(self, monkeypatch):
        # A block must satisfy M B = A M exactly over Z; a solver that is one
        # off in a single entry must be caught, not certified.
        solve = modular._unitriangular_solve

        def off_by_one(*args):
            b = solve(*args)
            b[0, 0] += 1
            return b

        monkeypatch.setattr(modular, "_unitriangular_solve", off_by_one)
        g = sr_graph(4, 3)
        with pytest.raises(RuntimeError, match="exact check"):
            certified_symmetric_spectrum(g.adjacency_matrix(), g.labels)

    @pytest.mark.parametrize("point, pick", [((4, 3), "last"),
                                             ((5, 6), "identity"),
                                             ((5, 6), "other")],
                             ids=["last", "identity", "other"])
    def test_exact_check_fires_on_every_block(self, monkeypatch, point,
                                              pick):
        # The exact check must guard each block, not only the first: one
        # entry off in the last block, in a middle block whose U is the
        # identity, or in one whose U is not, is caught.
        g = sr_graph(*point)
        a = g.adjacency_matrix()
        solve = modular._unitriangular_solve
        identity = []

        def recorded(u, c):
            identity.append(np.array_equal(u, np.eye(len(u), dtype=u.dtype)))
            return solve(u, c)

        monkeypatch.setattr(modular, "_unitriangular_solve", recorded)
        _blocks(a, g.labels)
        last = len(identity) - 1
        if pick == "last":
            target = last
        else:  # a middle block with or without an identity U
            target = identity.index(pick == "identity", 1, last)
        calls = []

        def off_by_one(u, c):
            b = solve(u, c)
            if len(calls) == target:
                b[-1, -1] += 1
            calls.append(u)
            return b

        monkeypatch.setattr(modular, "_unitriangular_solve", off_by_one)
        with pytest.raises(RuntimeError, match="exact check"):
            certified_symmetric_spectrum(a, g.labels)
        assert len(calls) == target + 1

    def test_batched_blocks_match_the_per_shape_oracle(self):
        # Byte for byte, in the same order with the same d_lambda: every
        # SR(m, n) of 2 to 500 vertices with 3 <= m <= 20, and SR(2, n),
        # the complete graph K_(n+1), for n < 100 and a sample of the rest,
        # n = 100, 250, 400 and 499, each also relabelled; the Johnson
        # graphs up to J(12, n) by indicator labels; K_97 and SR(4, 18); and
        # SR(3, 3) with its label entries scaled into the int32 and int64
        # ranges of the label stack.
        cases = []
        for m in range(2, 21):
            for n in range(1, 500):
                v = sr_order(m, n)
                if v > 500:
                    break
                if m == 2 and 100 <= n < 499 and n not in (100, 250, 400):
                    continue
                g = sr_graph(m, n)
                h = g.relabeled(random.Random(100 * m + n).sample(range(v),
                                                                  v))
                cases += [(g.adjacency_matrix(), g.labels),
                          (h.adjacency_matrix(), h.labels)]
        for v in range(2, 13):
            for n in range(1, v):
                g = johnson_graph(v, n)
                cases.append((g.adjacency_matrix(), indicator_labels(g)))
        for m, n in ((97, 1), (4, 18)):
            g = sr_graph(m, n)
            cases.append((g.adjacency_matrix(), g.labels))
        g = sr_graph(3, 3)
        for scale in (10**6, 10**12):
            cases.append((g.adjacency_matrix(),
                          [tuple(scale * x - 5 for x in lab)
                           for lab in g.labels]))
        assert len(cases) == 2 * (594 - 396) + 66 + 2 + 2
        for a, labels in cases:
            got = blocks_by(modular._isotypic, a, labels)
            assert got == blocks_by(per_shape_isotypic, a, labels)
            assert got and all(dtype == np.int64 for _, dtype, _, _ in got)

    def test_unitriangular_solve_is_exact(self):
        # Back substitution over the non-identity rows 0 and 1; row 2 is an
        # identity row.  Entries near 2**40 stay exact in int64.
        u = np.array([[1, 2, -1], [0, 1, 3], [0, 0, 1]], dtype=np.int64)
        x = np.array([[5, -(2**40)], [-7, 3], [2**40, 0]], dtype=np.int64)
        got = _unitriangular_solve(u, u @ x)
        assert got.dtype == np.int64 and got.tolist() == x.tolist()
        eye = np.eye(4, dtype=np.int64)
        c = np.arange(8, dtype=np.int64).reshape(4, 2)
        assert _unitriangular_solve(eye, c).tolist() == c.tolist()

    def test_unitriangular_solve_refuses_other_matrices(self):
        # The check is the proof that rank M = |J|: a unit diagonal and
        # nothing below it, or RuntimeError.
        for bad in ([[1, 1], [0, 2]], [[1, 0], [1, 1]], [[0, 1], [1, 0]],
                    [[-1, 0], [0, 1]], [[1, 4, 0], [0, 1, 0], [0, -1, 1]]):
            u = np.array(bad, dtype=np.int64)
            with pytest.raises(RuntimeError, match="unitriangular"):
                _unitriangular_solve(u, np.ones((len(u), 1), dtype=np.int64))

    def test_blocks_do_not_depend_on_vertex_order(self):
        # Columns follow the representatives' numeric labels, not their
        # indices, so a relabelled graph gives the very same blocks.
        for m, n in ((4, 5), (5, 4)):
            g = sr_graph(m, n)
            h = g.relabeled(random.Random(m * n).sample(range(g.order),
                                                        g.order))
            assert h.labels != g.labels
            before = _blocks(g.adjacency_matrix(), g.labels)
            after = _blocks(h.adjacency_matrix(), h.labels)
            assert [d for _, d in after] == [d for _, d in before]
            assert all(np.array_equal(b, c)
                       for (b, _), (c, _) in zip(after, before)), (m, n)

    def test_blocks_need_no_prime(self, monkeypatch):
        g = sr_graph(4, 6)
        a = g.adjacency_matrix()
        expected = [(b.tolist(), d) for b, d in _blocks(a, g.labels)]
        monkeypatch.setattr(modular, "PRIMES", [])
        assert [(b.tolist(), d) for b, d in _blocks(a, g.labels)] == expected
        assert sum(d * len(b) for b, d in expected) == g.order


class TestNarrowTypes:
    def test_norm_sums_rows_exactly(self):
        # An order-1025 matrix whose first row is all 2**53 - 1: its norm,
        # 1025 (2**53 - 1), passes 2**63, where an int64 row sum wraps.  It
        # is refused for that norm instead of screened as if it were 0.
        a = np.zeros((1025, 1025), dtype=np.int64)
        a[0] = 2**53 - 1
        assert modular._norm(a) == 1025 * (2**53 - 1)
        with pytest.raises(ValueError, match="collide"):
            certified_symmetric_spectrum(a)
        # Magnitudes are taken after widening to int64 and read as uint64:
        # np.abs(np.int8(-128)) is -128 and np.abs(np.int64(-2**63)) is
        # -2**63.  Past 2**64 the rows are summed as Python ints.
        assert modular._norm(np.array([[-128, -128]], dtype=np.int8)) == 256
        assert modular._norm(np.array([[-2**63, 1]])) == 2**63 + 1
        assert modular._norm(np.array([[-2**63, -2**63]])) == 2**64
        assert modular._norm(np.zeros((0, 0), dtype=np.int64)) == 0
        for entry, bound in ((np.int8(-128), 256), (np.int64(-2**63), 2**64)):
            assert modular._norm(np.full((2, 2), entry)) == bound
        # An unsigned matrix is summed as it stands, in uint64; past 2**64
        # its rows, too, are summed as Python ints.
        wide = np.full((3, 1000), 255, dtype=np.uint8)
        wide[1:] = 1
        assert modular._norm(wide) == 255_000
        for top in (2**64 - 1, 2**63 + 1):
            big = np.array([[top, top - 2], [1, 0]], dtype=np.uint64)
            assert modular._norm(big) == 2 * top - 2
        assert modular._norm(np.array([[2**63, 1]], dtype=np.uint64)) == \
            2**63 + 1

    def test_input_dtypes_give_the_same_pairs(self):
        # uint8, int8 (with -128 entries), int16 and int64 adjacency give
        # the same pairs, with labels and without.
        g = sr_graph(4, 3)
        a = g.adjacency_matrix()
        pairs = certified_symmetric_spectrum(a)
        for h, dtypes in ((1, (np.uint8, np.int8, np.int16)),
                          (-128, (np.int8, np.int16)),
                          (300, (np.int16,))):
            want = sorted(((h * c, e) for c, e in pairs), reverse=True)
            assert certified_symmetric_spectrum(h * a) == want
            for dtype in dtypes:
                b = (h * a).astype(dtype)
                assert np.array_equal(b, h * a)  # no entry wrapped
                for labels in (None, g.labels):
                    assert certified_symmetric_spectrum(b, labels) == want
                    assert blocks_by(modular._isotypic, b, labels) == \
                        blocks_by(modular._isotypic, h * a, labels)
        # The trap the widening avoids: NumPy 2 refuses a Python int that
        # its array's dtype cannot hold, so uint8 % p raises.
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
            with pytest.raises(OverflowError):
                np.ones(2, dtype=np.uint8) % PRIMES[0]
        [(b, d)] = _blocks(a.astype(np.uint8), None)
        assert b.dtype == np.int64 and np.array_equal(b, a) and d == 1

    def test_ragged_labels_refused(self):
        # Six labels of 18 entries in all, as SR(3, 2)'s, but of lengths 3,
        # 2 and 4: np.fromiter with a count of 18 would take them as six
        # 3-tuples, misaligned.  An integer among tuples is refused too.
        g = sr_graph(3, 2)
        a = g.adjacency_matrix()
        for bad in (g.labels[:4] + ((0, 2), (1, 0, 1, 0)),
                    g.labels[:5] + (7,)):
            with pytest.raises(ValueError):
                certified_symmetric_spectrum(a, bad)

    def test_label_count_is_the_order(self):
        # Read as one v x (size // v) array, K_4's two 2-tuples were four
        # 1-tuples and C_6's three were six: each matrix's unsplit
        # spectrum came back, with no error.
        for a, labels in ((complete_graph(4).adjacency_matrix(),
                           [(0, 1), (1, 0)]),
                          (cycle_graph(6).adjacency_matrix(),
                           [(0, 1), (1, 0), (0, 2)])):
            with pytest.raises(ValueError, match=f"{len(labels)} labels for "
                               f"a matrix of order {len(a)}"):
                certified_symmetric_spectrum(a, labels)

    @pytest.mark.parametrize("entry", [
        certified_symmetric_spectrum,
        lambda a: charpoly_mod(a, PRIMES[0]),
        lambda a: annihilation_proved(a, [0])])
    def test_refuses_all_but_square_integer_arrays(self, entry):
        # A float or object array was truncated to integers: the spectrum of
        # [[0, 2.9], [2.9, 0]] was certified as [(2, 1), (-2, 1)], and the
        # charpoly of [[0, 1.5], [1.5, 0]] came back as x**2 - 2 for
        # x**2 - 2.25.  A 2 x 3 array failed inside numpy.  A uint64 entry
        # above 2**63 - 1 wrapped when widened to int64: diag(2**64 - 1, 1)
        # was certified as [(1, 1), (-1, 1)].
        for a, text in ((np.array([[0, 2.9], [2.9, 0]]), "float64"),
                        (np.array([[0, 1.5], [1.5, 0]]), "float64"),
                        (np.array([[0, 2], [2, 0]], dtype=object), "object"),
                        ([[0, 2], [2, 0]], "list"),
                        (np.zeros((2, 3), dtype=np.int64), r"shape \(2, 3\)"),
                        (np.zeros(4, dtype=np.int64), r"shape \(4,\)"),
                        (np.array([[2**64 - 1, 0], [0, 1]], dtype=np.uint64),
                         "uint64")):
            with pytest.raises(ValueError, match=text):
                entry(a)
        # Bool is an integer dtype here.
        b = np.array([[False, True], [True, False]])
        assert entry(b) == entry(b.astype(np.int64))

    @pytest.mark.parametrize("m, key", [(61, np.int64), (62, np.void)])
    def test_label_keys_on_both_sides_of_the_bound(self, monkeypatch, m,
                                                   key):
        # SR(m, 1) = K_m has labels of width 2: a label is keyed as one
        # int64 while 2**m < 2**62, and as an m-byte record from m = 62.
        g = sr_graph(m, 1)
        a = g.adjacency_matrix()
        tables = []
        searchsorted = np.searchsorted

        def logged(table, *args, **kwargs):
            tables.append(table.dtype)
            return searchsorted(table, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(modular.np, "searchsorted", logged)
            got = blocks_by(modular._isotypic, a, g.labels)
        assert tables and all(np.issubdtype(t, key) for t in tables)
        assert got == blocks_by(per_shape_isotypic, a, g.labels)
        assert certified_symmetric_spectrum(a, g.labels) == \
            [(m - 1, 1), (-1, m - 1)]

    @pytest.mark.parametrize("h, width", [(1864135, np.float32),
                                          (1864136, np.float64)])
    def test_product_width_on_both_sides_of_the_bound(self, h, width):
        # SR(4, 3) has delta = 9 and max|M| = 1, so h A takes A M in float32
        # while 9 h < 2**24 and in float64 from there on.  Its blocks are h
        # times A's, as the per-shape build (always float64) finds them;
        # their norms, 9 h, are past the root screen's, so the spectrum is
        # checked against numpy's.
        assert 9 * (h - 1) < 2**24 <= 9 * (h + 1)
        assert (9 * h < 2**24) == (width == np.float32)
        g = sr_graph(4, 3)
        a = g.adjacency_matrix()
        floats = []

        class Logged(np.ndarray):  # logs the float dtypes it is cast to
            def astype(self, dtype, *args, **kwargs):
                out = np.asarray(self).astype(dtype, *args, **kwargs)
                if out.dtype.kind == "f":
                    floats.append(out.dtype)
                return out

        scaled = _blocks((h * a).view(Logged), g.labels)
        assert floats == [width]
        assert blocks_by(modular._isotypic, h * a, g.labels) == \
            blocks_by(per_shape_isotypic, h * a, g.labels)
        assert [(b.tolist(), d) for b, d in scaled] == \
            [((h * b).tolist(), d) for b, d in _blocks(a, g.labels)]
        assert numpy_spectrum(h * a) == \
            [(h * c, e) for c, e in certified_symmetric_spectrum(a, g.labels)]

    def test_product_width_reads_every_row(self):
        # delta is A's largest row sum, wherever it lies.  On SR(3, 3),
        # h diag(number of nonzero coordinates) has row sum h at index 0,
        # (0, 0, 3), and 3 h elsewhere: past 2**24 and odd, which float32
        # would round.  A M is taken in float64 and the blocks are h
        # times those of the 0/1/2/3 diagonal.
        g = sr_graph(3, 3)
        w = np.array([sum(map(bool, lab)) for lab in g.labels])
        h = 5592407
        assert h % 2 and w[0] * h < 2**24 < 3 * h == w.max() * h
        scaled = _blocks(np.diag(h * w), g.labels)
        assert [(b.tolist(), d) for b, d in scaled] == \
            [((h * b).tolist(), d) for b, d in _blocks(np.diag(w), g.labels)]
