"""Modular characteristic-polynomial engine and its integrality certificate.

sympy's charpoly over Z is the oracle for the mod-p coefficient pipeline;
random symmetric integer matrices with planted eigenvalues exercise the
certificate on both integral and non-integral inputs.
"""

import random

import numpy as np
import pytest
import sympy

from rooklab.graphs import complete_graph, cycle_graph, sr_graph
from rooklab.modular import (MAX_ORDER, IncompleteSpectrum,
                             annihilation_proved,
                             certified_symmetric_spectrum, charpoly_mod,
                             hessenberg_mod, root_multiplicity)


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
        assert annihilation_proved(a, [3, -1], 3)
        assert not annihilation_proved(a, [3, 1], 3)
        assert not annihilation_proved(a, [3], 3)

    def test_annihilation_empty_cases(self):
        assert annihilation_proved(np.zeros((0, 0), dtype=np.int64), [1], 0)
        a = np.zeros((2, 2), dtype=np.int64)
        assert annihilation_proved(a, [0], 0)
