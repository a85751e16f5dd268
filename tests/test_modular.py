"""Modular characteristic-polynomial engine and its integrality certificate.

sympy's charpoly over Z is the oracle for the mod-p coefficient pipeline;
random symmetric integer matrices with planted eigenvalues exercise the
certificate on both integral and non-integral inputs.  The symmetry-split
engine is checked against the unsplit one (perm=None) and against numpy
eigenvalues, on SR graphs, relabelled SR graphs, circulants and switching
mates.
"""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from conftest import property_test
from rooklab import modular
from rooklab.graphs import complete_graph, cycle_graph, sr_graph
from rooklab.linalg import integral_spectrum
from rooklab.modular import (MAX_ORDER, PRIMES, IncompleteSpectrum, _Split,
                             _primes_1_mod, _root_of_unity,
                             annihilation_proved, certified_symmetric_spectrum,
                             charpoly_mod, hessenberg_mod, root_multiplicity)
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


class TestCharpolyMod:
    def test_matches_sympy_on_random_matrices(self):
        rng = random.Random(5)
        for p in (10007, 65537):
            for trial in range(10):
                v = rng.randrange(1, 9)
                a = random_symmetric(rng, v)
                assert charpoly_mod(a, p) == sympy_charpoly_mod(a, p)

    def test_hessenberg_preserves_charpoly(self):
        rng = random.Random(6)
        p = 10007
        a = random_symmetric(rng, 7)
        h = hessenberg_mod(a, p)
        assert charpoly_mod(h.astype(np.int64), p) == sympy_charpoly_mod(a, p)

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

    def test_order_above_exact_float_range_refused(self):
        assert MAX_ORDER == 8192
        # A broadcast view: the guard must fire before any work touches it.
        a = np.broadcast_to(np.int64(0), (MAX_ORDER + 1, MAX_ORDER + 1))
        with pytest.raises(ValueError):
            certified_symmetric_spectrum(a)

    def test_annihilation_rejects_wrong_eigenvalue_list(self):
        g = complete_graph(4)
        a = np.array(g.adjacency_matrix(), dtype=np.int64)
        for perm in (None, [1, 2, 3, 0]):
            split = _Split(a, perm)
            blocks = len(split.sizes)
            assert annihilation_proved(split, [[3, -1]] * blocks, 3)
            assert not annihilation_proved(split, [[3, 1]] * blocks, 3)
            assert not annihilation_proved(split, [[3]] * blocks, 3)
        # Under the 4-cycle, K_4 splits into [3], [-1] (twice) and [-1]:
        # each block needs only its own root, and every block needs one.
        split = _Split(a, [1, 2, 3, 0])
        assert split.weights == [1, 2, 1]
        assert annihilation_proved(split, [[3], [-1], [-1]], 3)
        assert not annihilation_proved(split, [[3], [-1], [3]], 3)
        assert not annihilation_proved(split, [[3], [], [-1]], 3)
        with pytest.raises(ValueError):
            annihilation_proved(split, [[3], [-1]], 3)

    def test_annihilation_empty_cases(self):
        empty = _Split(np.zeros((0, 0), dtype=np.int64), None)
        assert annihilation_proved(empty, [], 0)
        assert annihilation_proved(_Split(np.zeros((2, 2), dtype=np.int64),
                                          None), [[0]], 0)


def coordinate_shift(g):
    return [g.index[lab[1:] + lab[:1]] for lab in g.labels]


def circulant(c):
    n = len(c)
    return np.array([[c[(j - i) % n] for j in range(n)] for i in range(n)],
                    dtype=np.int64)


def reference_blocks(a, perm, p):
    """Every nonempty block B_i of a under sigma mod p, keyed by i, summed
    entry by entry from the definition, and the orbit sizes of each."""
    orbits, seen = [], set()
    for x in range(len(perm)):
        if x not in seen:
            orbit = [x]
            while perm[orbit[-1]] != x:
                orbit.append(perm[orbit[-1]])
            seen.update(orbit)
            orbits.append(orbit)
    k = math.lcm(*map(len, orbits))
    w = _root_of_unity(k, p)
    blocks, sizes = {}, {}
    for i in range(k):
        kept = [o for o in orbits if i * len(o) % k == 0]
        if kept:
            blocks[i] = np.array(
                [[sum(pow(w, -i * t % k, p) * int(a[o2[0], o[t]])
                      for t in range(len(o))) % p for o in kept]
                 for o2 in kept], dtype=np.int64)
            sizes[i] = [len(o) for o in kept]
    return blocks, sizes


def numpy_spectrum(a):
    """Descending integer pairs of a symmetric matrix, or None when an
    eigenvalue is not within 1e-6 of an integer."""
    values = np.linalg.eigvalsh(a.astype(np.float64))
    rounded = np.rint(values)
    if np.max(np.abs(values - rounded), initial=0.0) > 1e-6:
        return None
    ints, counts = np.unique(rounded.astype(np.int64), return_counts=True)
    return [(int(c), int(e)) for c, e in zip(ints[::-1], counts[::-1])]


class TestSymmetrySplit:
    def test_prime_lists(self):
        assert _primes_1_mod(1) is PRIMES
        assert PRIMES[0] == (1 << 20) - 3 and len(PRIMES) == 96
        for k in (2, 3, 13, 97):
            primes = _primes_1_mod(k)
            assert len(primes) == len(PRIMES)
            assert primes == sorted(primes, reverse=True)
            assert all(p % k == 1 and sympy.isprime(p) for p in primes)

    def test_sr_graphs_with_coordinate_shift(self):
        points = [(m, n) for m in range(2, 7) for n in range(6 - m // 2)]
        points += [(1, 0), (1, 3), (97, 1)]
        for m, n in points:
            g = sr_graph(m, n)
            a = g.adjacency_matrix()
            assert certified_symmetric_spectrum(a, coordinate_shift(g)) == \
                certified_symmetric_spectrum(a), (m, n)
        # K_97 under a 97-cycle: 97 blocks of order 1, of which block 0 and
        # one of each conjugate pair {i, 97 - i} are kept; primes = 1 (mod 97).
        g = sr_graph(97, 1)
        split = _Split(g.adjacency_matrix(), coordinate_shift(g))
        assert split.k == 97 and split.sizes == [1] * 49
        assert split.weights == [1] + [2] * 48
        assert split.primes[0] % 97 == 1

    def test_block_orders_follow_orbit_sizes(self):
        # SR(3, 3): the fixed vertex (1, 1, 1) and three 3-cycles; block 0
        # keeps all four orbits, blocks 1 and 2 the three 3-cycles.  Block 2
        # is conjugate to block 1, so only block 1 is kept, counted twice.
        g = sr_graph(3, 3)
        split = _Split(g.adjacency_matrix(), coordinate_shift(g))
        assert split.k == 3 and split.sizes == [4, 3]
        assert split.weights == [1, 2]

    def test_conjugate_blocks_are_similar(self):
        # SR(6, 2) under its shift: three orbits of size 6 and one of size 3
        # (the vertices (1, 0, 0, 1, 0, 0) and shifts), so k = 6 and the even
        # blocks mix both sizes.  Every block, built entry by entry, has
        # B_{k-i}^T = S B_i S^-1 with S the diagonal of its orbit sizes;
        # B_4 is not B_2^T.  The engine keeps blocks 0..3.
        g = sr_graph(6, 2)
        a, perm = g.adjacency_matrix(), coordinate_shift(g)
        split = _Split(a, perm)
        assert split.k == 6
        assert split.sizes == [4, 3, 4, 3] and split.weights == [1, 2, 2, 1]
        for p in split.primes[:2]:
            blocks, sizes = reference_blocks(a, perm, p)
            assert sorted(blocks) == list(range(6))
            for i, b in blocks.items():
                s = np.diag(sizes[i])
                s_inv = np.diag([pow(x, -1, p) for x in sizes[i]])
                assert np.array_equal(blocks[-i % 6].T, s @ b @ s_inv % p), i
            assert sorted(sizes[2]) == [3, 6, 6, 6]
            assert not np.array_equal(blocks[4], blocks[2].T)
            kept = split.blocks(p)
            assert len(kept) == 4
            for i, b in enumerate(kept):
                assert np.array_equal(b, blocks[i]), i

    def test_non_symmetric_matrix_keeps_every_block(self):
        # A directed 5-cycle commutes with its rotation but is not symmetric:
        # its blocks 1 and 4 are not conjugate, so all five are kept, each
        # once, and the engine fails the same way as without the symmetry.
        rotation = [(x + 1) % 5 for x in range(5)]
        a = np.zeros((5, 5), dtype=np.int64)
        a[range(5), rotation] = 1
        split = _Split(a, rotation)
        assert split.k == 5
        assert split.sizes == [1] * 5 and split.weights == [1] * 5
        errors = []
        for perm in (rotation, None):
            with pytest.raises(IncompleteSpectrum) as err:
                certified_symmetric_spectrum(a, perm)
            errors.append((err.value.pairs, err.value.residual))
        assert errors[0] == errors[1] == (((1, 1),), 4)

    def test_one_split_and_one_proof_per_spectrum(self, monkeypatch):
        # The benchmark's per-layer metrics trace modular.annihilation_proved
        # by name; the engine must reach it once, and build its split once.
        calls, builds = [], []
        proved = modular.annihilation_proved

        def counted(*args):
            calls.append(args)
            return proved(*args)

        class CountedSplit(modular._Split):
            def __init__(self, *args):
                builds.append(args)
                super().__init__(*args)

        monkeypatch.setattr(modular, "annihilation_proved", counted)
        monkeypatch.setattr(modular, "_Split", CountedSplit)
        g = sr_graph(4, 6)
        spectrum = integral_spectrum(g)
        assert list(spectrum.pairs) == numpy_spectrum(g.adjacency_matrix())
        assert len(calls) == 1 and len(builds) == 1
        assert builds[0][1] == coordinate_shift(g)

    @property_test
    @given(st.data())
    def test_relabelled_sr_graph(self, data):
        m, n = data.draw(st.sampled_from([(3, 3), (4, 2), (4, 3), (5, 2),
                                          (3, 5), (6, 1)]))
        g = sr_graph(m, n)
        pi = data.draw(st.permutations(range(g.order)))
        h = g.relabeled(pi)
        sigma = coordinate_shift(g)
        # Vertex pi[x] of h is vertex x of g, so pi sigma pi^-1 is h's shift.
        conjugated = [0] * g.order
        for x in range(g.order):
            conjugated[pi[x]] = pi[sigma[x]]
        a = h.adjacency_matrix()
        assert certified_symmetric_spectrum(a, conjugated) == \
            certified_symmetric_spectrum(a) == \
            certified_symmetric_spectrum(g.adjacency_matrix(), sigma)

    def test_circulants_with_rotation(self):
        # One or two integer circulants side by side, each rotated by the
        # symmetry, so orbits of two sizes share the blocks.  A weight that
        # depends only on gcd(t, n) gives an integral spectrum; a random
        # symmetric weight usually does not.
        rng = random.Random(7)
        integral = 0
        for trial in range(40):
            sizes = rng.sample(range(1, 13), rng.randint(1, 2))
            parts, perm = [], []
            for n in sizes:
                if trial % 2:
                    f = {d: rng.randrange(-3, 4) for d in range(1, n + 1)}
                    c = [f[math.gcd(t, n)] for t in range(n)]
                else:
                    c = [rng.randrange(-3, 4) for _ in range(n)]
                    c = [c[min(t, n - t)] for t in range(n)]
                perm += [len(perm) + (x + 1) % n for x in range(n)]
                parts.append(circulant(c))
            v = len(perm)
            a = np.zeros((v, v), dtype=np.int64)
            at = 0
            for part in parts:
                a[at:at + len(part), at:at + len(part)] = part
                at += len(part)
            expected = numpy_spectrum(a)
            if expected is None:
                for p in (perm, None):
                    with pytest.raises(IncompleteSpectrum):
                        certified_symmetric_spectrum(a, p)
            else:
                integral += 1
                assert certified_symmetric_spectrum(a, perm) == \
                    certified_symmetric_spectrum(a) == expected
        assert integral >= 20

    def test_switching_mates_get_no_symmetry(self):
        # Mates lose the family label, so integral_spectrum gives them no
        # symmetry; most are not invariant under SR(4, 3)'s shift at all.
        g = sr_graph(4, 3)
        shift = coordinate_shift(g)
        base = certified_symmetric_spectrum(g.adjacency_matrix(), shift)
        assert base == numpy_spectrum(g.adjacency_matrix())
        refused = 0
        for b in enumerate_switching_sets(g):
            mate = gm_switch(g, b)
            assert mate.family is None
            a = mate.adjacency_matrix()
            assert certified_symmetric_spectrum(a) == base
            if np.array_equal(a[np.ix_(shift, shift)], a):
                assert certified_symmetric_spectrum(a, shift) == base
            else:
                refused += 1
                with pytest.raises(ValueError):
                    certified_symmetric_spectrum(a, shift)
        assert refused > 0

    def test_refuses_what_is_no_symmetry(self):
        a = cycle_graph(5).adjacency_matrix()
        for perm in ([1, 0, 2, 3, 4],  # a transposition: no automorphism
                     [0, 0, 1, 2, 3], [1, 2, 3, 4], [1, 2, 3, 4, 5],
                     [1.0, 2.0, 3.0, 4.0, 0.0]):
            with pytest.raises(ValueError):
                certified_symmetric_spectrum(a, perm)
            with pytest.raises(ValueError):
                _Split(a, perm)

    def test_order_beyond_the_primes(self):
        # Cycles of lengths 2, 3, 5, 7 have order 210: the 17 orbit blocks
        # sit at the multiples of 105, 70, 42 and 30 among 210 characters.
        # Adding cycles up to 23 makes the order 223092870 > 2**20, so no
        # prime p = 1 (mod k) lies below the ceiling and perm is refused.
        def cycles(lengths):
            perm, at = [], 0
            for s in lengths:
                perm += [at + (x + 1) % s for x in range(s)]
                at += s
            return perm

        perm = cycles((2, 3, 5, 7))
        a = np.zeros((17, 17), dtype=np.int64)
        for lo, hi in ((0, 2), (2, 5), (5, 10), (10, 17)):
            a[lo:hi, lo:hi] = 1
        assert certified_symmetric_spectrum(a, perm) == \
            certified_symmetric_spectrum(a) == \
            [(7, 1), (5, 1), (3, 1), (2, 1), (0, 13)]
        assert _Split(a, perm).k == 210
        perm = cycles((2, 3, 5, 7, 11, 13, 17, 19, 23))
        with pytest.raises(ValueError, match="no prime"):
            certified_symmetric_spectrum(np.eye(len(perm), dtype=np.int64),
                                         perm)
