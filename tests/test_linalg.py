"""Exact linear algebra: spectra, rank, nullity, eigenvector checks.

sympy provides the independent exact oracle (charpoly factorization and
rank over the rationals); the code under test never imports it.
"""

import operator
import random
from itertools import combinations
from math import comb

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from rooklab import linalg, modular
from rooklab.eigenvectors import (f_pi, f_pw_family, gamma_graph, gamma_order,
                                  permutations_with_inversions)
from rooklab.formulas import johnson_spectrum
from rooklab.graphs import (Graph, complete_bipartite, complete_graph,
                            cycle_graph, johnson_graph, sr_graph)
from rooklab.linalg import (IncompleteSpectrum, Spectrum, SpectrumProbe,
                            halved_factorization_check, integral_spectrum,
                            merge_pairs, nullity, rank, try_integral_spectrum,
                            verify_eigenvector)
from rooklab.modular import PRIMES, charpoly_mod, root_multiplicity
from rooklab.switching import enumerate_switching_sets, gm_switch

from conftest import from_edges, property_test


def sympy_spectrum(g):
    a = sympy.Matrix(g.adjacency_matrix())
    pairs = sorted(a.eigenvals().items(), key=lambda kv: -kv[0])
    return tuple((int(ev), int(mult)) for ev, mult in pairs)


def bareiss_probe(g):
    """The Bareiss sweep try_integral_spectrum ran before it asked the
    certified engine, kept as its oracle: every integer within the maximum
    degree that is a root of the characteristic polynomial mod PRIMES[0]
    gets the exact nullity of A - cI."""
    v = g.order
    if v == 0:
        return SpectrumProbe((), 0)
    delta = max(g.degrees())
    a = g.adjacency_matrix()
    p = PRIMES[0]
    chi = charpoly_mod(a, p)
    eye = np.eye(v, dtype=np.int64)
    pairs = []
    for c in range(delta, -delta - 1, -1):
        if not root_multiplicity(chi, c, p):
            continue
        mult = nullity((a - c * eye).tolist())
        if mult:
            pairs.append((c, mult))
    return SpectrumProbe(tuple(pairs), v - sum(m for _, m in pairs))


class TestSpectrum:
    def test_merge_and_sort(self):
        s = Spectrum(((1, 2), (3, 1), (1, 1), (-2, 4)))
        assert s.pairs == ((3, 1), (1, 3), (-2, 4))

    def test_zero_multiplicities_dropped(self):
        assert merge_pairs(((2, 0), (1, 3))) == ((1, 3),)

    def test_string_notation(self):
        s = Spectrum(((9, 1), (3, 4), (1, 3), (-1, 6), (-3, 6)))
        assert str(s) == "9^1 3^4 1^3 (-1)^6 (-3)^6"

    def test_from_string_roundtrip(self):
        text = "9^1 3^4 1^3 (-1)^6 (-3)^6"
        assert str(Spectrum.from_string(text)) == text

    def test_from_string_brace_notation(self):
        s = Spectrum.from_string("9^{1} 3^{4} (-3)^{6}")
        assert s.pairs == ((9, 1), (3, 4), (-3, 6))

    def test_accessors(self):
        s = Spectrum(((4, 1), (-1, 4)))
        assert s.total == 5
        assert s.min_eigenvalue == -1
        assert s.multiplicity(4) == 1
        assert s.multiplicity(7) == 0


class TestRankNullity:
    def test_against_sympy_on_random_integer_matrices(self):
        rng = random.Random(3)
        for trial in range(40):
            nr = rng.randrange(1, 8)
            nc = rng.randrange(1, 8)
            rows = [[rng.randrange(-5, 6) for _ in range(nc)]
                    for _ in range(nr)]
            assert rank(rows) == sympy.Matrix(rows).rank()

    def test_rank_deficient_by_construction(self):
        rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
        assert rank(rows) == 2
        assert nullity(rows) == 1

    def test_nullity_of_singular_shift(self):
        g = complete_graph(4)
        a = g.adjacency_matrix()
        shifted = [[a[i][j] - (-1 if i == j else 0) for j in range(4)]
                   for i in range(4)]
        # -1 has multiplicity 3 in K_4.
        assert nullity(shifted) == 3

    def test_empty_and_zero(self):
        assert rank([]) == 0
        assert nullity([[0, 0], [0, 0]]) == 2

    def test_low_rank_products_against_sympy(self):
        # A product of nr x k and k x nc factors has rank at most k, so
        # most of these miss full rank and go to Bareiss.
        rng = random.Random(23)
        for trial in range(40):
            nr, nc, k = (rng.randrange(1, 9) for _ in range(3))
            left = sympy.Matrix(nr, k, lambda i, j: rng.randrange(-4, 5))
            right = sympy.Matrix(k, nc, lambda i, j: rng.randrange(-4, 5))
            rows = (left * right).tolist()
            assert rank(rows) == sympy.Matrix(rows).rank(), rows

    def test_full_rank_but_deficient_mod_p(self):
        # Full rank over Q, yet a multiple of PRIMES[0] in one row drops the
        # rank mod PRIMES[0]: Bareiss must still answer.
        p = PRIMES[0]
        cases = [[[p, 0], [0, 1]], [[1, 2], [3, 6 + p]]]
        rng = random.Random(29)
        for nr, nc in ((3, 3), (4, 6), (6, 4), (5, 5)):
            rows = [[rng.randrange(-9, 10) for _ in range(nc)]
                    for _ in range(nr)]
            i = rng.randrange(nr)
            rows[i] = [p * x for x in rows[i]]
            cases.append(rows)
        for rows in cases:
            assert rank(rows) == sympy.Matrix(rows).rank() == \
                min(len(rows), len(rows[0])), rows

    def test_entries_beyond_int64(self):
        # 2**63 - 2**63 = 0 while int64 wraps, and 2**64 + 1 reduces to 1
        # only as a Python int.
        cases = [[[2**63, 2**62], [2, 1]],
                 [[2**64 + 1, 1], [1, 1]],
                 [[2**100, 3], [2**101, 6]],
                 [[-2**70, 5, 7], [1, 2**65, 0]],
                 [[2**63 - 1, -2**63], [1, 1]]]
        rng = random.Random(31)
        for _ in range(10):
            nr, nc = rng.randrange(1, 6), rng.randrange(1, 6)
            cases.append([[rng.randrange(-2**80, 2**80) for _ in range(nc)]
                          for _ in range(nr)])
        for rows in cases:
            assert rank(rows) == sympy.Matrix(rows).rank(), rows

    def test_shapes(self):
        rng = random.Random(37)
        for nr, nc in ((1, 9), (2, 12), (9, 1), (12, 3), (1, 1), (7, 7)):
            rows = [[rng.randrange(-3, 4) for _ in range(nc)]
                    for _ in range(nr)]
            assert rank(rows) == sympy.Matrix(rows).rank(), rows
            zero = [[0] * nc for _ in range(nr)]
            assert rank(zero) == sympy.Matrix(zero).rank() == 0
        assert rank([]) == sympy.zeros(0, 0).rank() == 0
        assert rank([[], []]) == sympy.zeros(2, 0).rank() == 0

    def test_numpy_integer_entries(self):
        rng = np.random.default_rng(41)
        for dtype in (np.int8, np.int32, np.int64, np.uint8, np.uint64):
            a = rng.integers(0, 3, size=(5, 7)).astype(dtype)
            a[4] = a[0] + a[1]  # rank at most 4
            expected = sympy.Matrix(a.tolist()).rank()
            assert rank(a) == rank(a.tolist()) == expected
            assert rank(list(a)) == expected
            assert rank([[dtype(x) for x in row] for row in a]) == expected
        # uint64 beyond 2**63 must not wrap: rank 1 here, but 2 in int64.
        a = np.array([[2**63, 2**62], [2, 1]], dtype=np.uint64)
        assert rank(a) == sympy.Matrix(a.tolist()).rank() == 1


class TestIntegralSpectrum:
    def test_known_closed_forms(self):
        assert integral_spectrum(sr_graph(0, 3)).pairs == ()
        assert integral_spectrum(complete_graph(5)).pairs == ((4, 1), (-1, 4))
        assert integral_spectrum(complete_bipartite(3, 3)).pairs == \
            ((3, 1), (0, 4), (-3, 1))
        assert integral_spectrum(cycle_graph(4)).pairs == \
            ((2, 1), (0, 2), (-2, 1))

    def test_against_sympy_on_sr_graphs(self, sr_spectrum):
        for m, n in ((3, 3), (4, 2), (4, 3), (5, 2)):
            assert sr_spectrum(m, n).pairs == sympy_spectrum(sr_graph(m, n))

    def test_against_sympy_on_johnson(self):
        g = johnson_graph(6, 3)
        assert integral_spectrum(g).pairs == sympy_spectrum(g)

    def test_johnson_graphs_split_by_indicator_labels(self):
        # J(v, n) reaches the engine with its 0/1 indicator vectors as
        # labels: the pairs are the closed form for every v <= 12, and the
        # unlabelled engine's up to order 300.  A relabelled graph carries
        # its subsets along.
        for v in range(13):
            for n in range(v + 1):
                g = johnson_graph(v, n)
                pairs = integral_spectrum(g).pairs
                assert pairs == johnson_spectrum(v, n).pairs, (v, n)
                if g.order <= 300:
                    assert list(pairs) == modular.certified_symmetric_spectrum(
                        g.adjacency_matrix()), (v, n)
        g = johnson_graph(8, 3)
        h = g.relabeled(random.Random(8).sample(range(g.order), g.order))
        assert integral_spectrum(h) == integral_spectrum(g)

    def test_johnson_graph_reaches_the_symmetry_split(self, monkeypatch):
        seen = []
        isotypic = modular._isotypic

        def counted(a, lab):
            seen.append(lab.tolist())
            return isotypic(a, lab)

        monkeypatch.setattr(modular, "_isotypic", counted)
        g = johnson_graph(6, 3)
        assert integral_spectrum(g).pairs == sympy_spectrum(g)
        assert seen == [[[int(i in s) for i in range(6)] for s in g.labels]]

    def test_engine_agrees_with_bareiss(self):
        g = sr_graph(4, 4)
        for h in [g] + [gm_switch(g, b) for b in enumerate_switching_sets(g)]:
            probe = try_integral_spectrum(h)
            assert probe.to_json() == bareiss_probe(h).to_json()
            assert probe.is_integral
            assert integral_spectrum(h).pairs == probe.pairs

    def test_candidates_do_not_assume_the_theorem(self):
        # K_{3,3} mislabelled as SR(2, 1): the theorem's bound for SR(2, 1)
        # would put the smallest eigenvalue at -1, but it is -3.
        k33 = complete_bipartite(3, 3)
        g = Graph(k33.labels, k33.rows, family="sr", params=(2, 1))
        assert integral_spectrum(g).pairs == ((3, 1), (0, 4), (-3, 1))

    def test_shift_that_is_no_automorphism_refused(self):
        # SR(3, 2)'s labels on C_6's edges: the coordinate shift permutes
        # the labels but not the edges, so the engine refuses it.
        g = Graph(sr_graph(3, 2).labels, cycle_graph(6).rows, family="sr",
                  params=(3, 2))
        with pytest.raises(ValueError):
            integral_spectrum(g)
        with pytest.raises(ValueError):
            try_integral_spectrum(g)

    def test_non_integral_graph_raises(self):
        with pytest.raises(IncompleteSpectrum):
            integral_spectrum(cycle_graph(5))

    def test_probe_reports_residual(self):
        probe = try_integral_spectrum(cycle_graph(5))
        assert not probe.is_integral
        assert probe.residual == 4  # C_5: only the valency 2 is an integer
        probe = try_integral_spectrum(sr_graph(3, 3))
        assert probe.is_integral
        assert probe.residual == 0

    def test_probe_json(self):
        assert try_integral_spectrum(cycle_graph(5)).to_json() == {
            "integral": False, "spectrum": {"pairs": [[2, 1]], "residual": 4}}
        assert try_integral_spectrum(complete_graph(3)).to_json() == {
            "integral": True, "spectrum": "2^1 (-1)^2"}

    def test_probe_agrees_with_bareiss_on_gamma_graphs(self):
        graphs = [gamma_graph(pi) for m in range(1, 7) for k in range(8)
                  for pi in permutations_with_inversions(m, k)
                  if gamma_order(pi) <= 32]
        assert len(graphs) == 278
        for g in graphs:
            assert try_integral_spectrum(g).to_json() == \
                bareiss_probe(g).to_json()

    def test_probe_agrees_with_bareiss_on_small_graphs(self):
        graphs = [cycle_graph(5), cycle_graph(7), cycle_graph(9),
                  complete_graph(3), Graph((), []), from_edges(range(4), [])]
        for g in graphs:
            assert try_integral_spectrum(g).to_json() == \
                bareiss_probe(g).to_json()

    @pytest.fixture
    def nullity_shifts(self, monkeypatch):
        """The shifts c of every nullity(A - cI) the probe asks for."""
        shifts = []

        def spy(rows):
            shifts.append(-rows[0][0])
            return nullity(rows)
        monkeypatch.setattr(linalg, "nullity", spy)
        return shifts

    def test_integral_graphs_skip_bareiss(self, nullity_shifts,
                                          gamma_classes):
        graphs = [c.graph for n in range(5) for c in gamma_classes(n)]
        graphs += [sr_graph(3, 3), complete_graph(3)]
        for g in graphs:
            assert try_integral_spectrum(g).is_integral
        assert nullity_shifts == []

    def test_non_integral_graphs_take_nullity_at_roots_only(
            self, nullity_shifts):
        for n in (5, 7):
            assert try_integral_spectrum(cycle_graph(n)).pairs == ((2, 1),)
        assert set(nullity_shifts) <= {2}


@st.composite
def eigen_problems(draw, max_order=12):
    """A graph on up to max_order vertices (edgeless ones included), a
    sparse integer vector on it and a candidate eigenvalue in -3..3."""
    n = draw(st.integers(1, max_order))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = from_edges(range(n), [e for e, k in zip(pairs, keep) if k])
    vec = draw(st.dictionaries(st.integers(0, n - 1), st.integers(-3, 3),
                               min_size=1, max_size=4))
    return g, vec, draw(st.integers(-3, 3))


def sympy_integer_roots(g):
    """(c, multiplicity) for the integer roots of g's characteristic
    polynomial, descending, from its factorization over Q."""
    x = sympy.Symbol("x")
    chi = sympy.Matrix(g.adjacency_matrix()).charpoly(x)
    return tuple(sorted(((int(-f.TC()), k) for f, k in chi.factor_list()[1]
                         if f.degree() == 1), reverse=True))


class TestProbeSweep:
    @property_test
    @given(eigen_problems())
    def test_property_matches_sympy(self, problem):
        # Adjacency matrices are symmetric, so a root's multiplicity is
        # the nullity of A - cI.
        g = problem[0]
        pairs = sympy_integer_roots(g)
        probe = try_integral_spectrum(g)
        assert probe.pairs == pairs
        assert probe.residual == g.order - sum(k for _, k in pairs)
        assert probe.to_json() == bareiss_probe(g).to_json()


def loop_verify_eigenvector(g, vec, eigenvalue):
    """The dict loop verify_eigenvector used before A x became one array
    product, kept as its oracle: A x summed neighbour by neighbour, seeded
    on the support, then compared with eigenvalue * x on its keys."""
    entries = {}
    for key, val in vec.items():
        idx = (operator.index(key) if isinstance(key, (int, np.integer))
               else g.index[key])
        if not 0 <= idx < g.order:
            raise IndexError(f"vertex index {idx} out of range")
        if val:
            entries[idx] = int(val)
    if not entries:
        raise ValueError("eigenvector must be nonzero")
    image = dict.fromkeys(entries, 0)
    for i, val in entries.items():
        for u in g.neighbors(i):
            image[u] = image.get(u, 0) + val
    return all(lhs == eigenvalue * entries.get(u, 0)
               for u, lhs in image.items())


class TestVerifyEigenvector:
    @property_test
    @given(eigen_problems())
    def test_property_matches_loop(self, problem):
        g, vec, eigenvalue = problem
        try:
            expected = loop_verify_eigenvector(g, vec, eigenvalue)
        except ValueError:
            with pytest.raises(ValueError):
                verify_eigenvector(g, vec, eigenvalue)
        else:
            assert verify_eigenvector(g, vec, eigenvalue) == expected

    def test_families_match_loop(self, sr):
        # F_pi for -n and F_pw for -binom(m, 2), at their own eigenvalue and
        # at wrong ones, keyed by label and by index.
        cases = [(sr(m, n), f_pi(pi), -n)
                 for m in range(2, 6) for n in range(1, comb(m, 2) + 1)
                 for pi in permutations_with_inversions(m, n)[:4]]
        cases += [(sr(m, n), vec, -comb(m, 2))
                  for m, n in ((2, 3), (3, 4), (3, 6), (4, 8))
                  for _, vec in f_pw_family(m, n)[:4]]
        assert len(cases) > 60
        for g, vec, lam in cases:
            by_index = {g.index[x]: s for x, s in vec.items()}
            for guess in (lam, lam + 1, -lam, 0):
                expected = loop_verify_eigenvector(g, vec, guess)
                assert expected == (guess == lam)
                assert verify_eigenvector(g, vec, guess) == expected
                assert verify_eigenvector(g, by_index, guess) == expected

    def test_exact_beyond_int64(self):
        # Sum |x_i| * max(1, |eigenvalue|) < 2**63 keeps int64; from 2**63
        # on the products are Python ints.  Both sides of that bound, on
        # true and perturbed eigenvectors.
        k4 = complete_graph(4)
        edge = 2**63 // 12  # all-t on K_4 at eigenvalue 3: bound 12 t
        for t in (edge - 1, edge, edge + 1, 2**70):
            ones = dict.fromkeys(range(4), t)
            assert verify_eigenvector(k4, ones, 3)
            off = {**ones, 3: t - 1}
            assert not verify_eigenvector(k4, off, 3)
            assert not loop_verify_eigenvector(k4, off, 3)
        for t in (2**61, 2**62 - 1, 2**62, 2**64):
            assert verify_eigenvector(k4, {0: t, 1: -t}, -1)
        # 2**64 - 1 is -1 in wrapped int64: exact, it is no eigenvalue.
        assert not verify_eigenvector(k4, {0: 1, 1: -1}, 2**64 - 1)
        assert verify_eigenvector(k4, {0: 1, 1: -1}, -1)
        # The star K_{1,4} with 2**62 on each leaf: A x at the centre is
        # 2**64, which int64 would wrap to 0 = 0 * x.
        star = complete_bipartite(1, 4)
        leaves = dict.fromkeys(range(1, 5), 2**62)
        assert not verify_eigenvector(star, leaves, 0)
        assert not loop_verify_eigenvector(star, leaves, 0)
        assert verify_eigenvector(star, {1: 2**62, 2: -2**62}, 0)
        # Eigenvalues beyond int64 with entries inside it, and numpy ints.
        assert not verify_eigenvector(k4, {0: 1}, 2**80)
        assert verify_eigenvector(k4, {0: np.int64(2**62), 1: -2**62},
                                  np.int64(-1))

    @property_test
    @given(eigen_problems())
    def test_property_matches_numpy(self, problem):
        g, vec, eigenvalue = problem
        x = np.zeros(g.order, dtype=np.int64)
        for i, val in vec.items():
            x[i] = val
        if not x.any():
            with pytest.raises(ValueError):
                verify_eigenvector(g, vec, eigenvalue)
        else:
            expected = np.array_equal(g.adjacency_matrix() @ x, eigenvalue * x)
            assert verify_eigenvector(g, vec, eigenvalue) == expected

    def test_accepts_true_eigenvector(self):
        g = complete_graph(4)
        assert verify_eigenvector(g, {0: 1, 1: -1}, -1)
        assert verify_eigenvector(g, {0: 1, 1: 1, 2: 1, 3: 1}, 3)

    def test_rejects_wrong_eigenvalue(self):
        g = complete_graph(4)
        assert not verify_eigenvector(g, {0: 1, 1: -1}, 1)

    def test_rejects_non_eigenvector(self):
        g = cycle_graph(6)
        assert not verify_eigenvector(g, {0: 1, 1: 1}, 2)

    def test_label_keys(self):
        g = sr_graph(2, 2)  # K_3 with tuple labels
        vec = {(0, 2): 1, (2, 0): -1}
        assert verify_eigenvector(g, vec, -1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            verify_eigenvector(complete_graph(3), {}, 0)

    def test_numpy_integer_indices(self):
        # F_pi of pi = (2, 0, 1), two inversions, keyed by numpy int64
        # indices: SR(3, 2), eigenvalue -2.  Indices past either end are
        # out of range.
        g = sr_graph(3, 2)
        vec = {np.int64(g.index[x]): s for x, s in f_pi((2, 0, 1)).items()}
        assert len(vec) > 1 and verify_eigenvector(g, vec, -2)
        assert not verify_eigenvector(g, vec, 2)
        for bad in (np.int64(g.order), np.int32(-1)):
            with pytest.raises(IndexError):
                verify_eigenvector(g, {bad: 1}, 0)


class TestHalvedFactorization:
    def test_grid(self):
        for m in range(1, 6):
            for n in range(1, 6):
                assert halved_factorization_check(m, n)

    def test_hand_expansion_sr22(self):
        # SR(2, 2) = K_3, valency 2: A + 2I must equal N N^T, where N joins
        # each vertex u to the sum-<2 vectors u - d e_a, 1 <= d <= u_a.
        g = sr_graph(2, 2)
        assert g.labels == ((0, 2), (1, 1), (2, 0))
        a = g.adjacency_matrix()
        target = [[a[i][j] + (2 if i == j else 0) for j in range(3)]
                  for i in range(3)]
        assert target == [[2, 1, 1], [1, 2, 1], [1, 1, 2]]
        # Columns (0, 0), (0, 1), (1, 0): (0, 2) reaches (0, 1) and (0, 0),
        # (1, 1) reaches (0, 1) and (1, 0), (2, 0) reaches (1, 0) and (0, 0).
        n = [[1, 1, 0],
             [0, 1, 1],
             [1, 0, 1]]
        nnt = [[sum(x * y for x, y in zip(n[i], n[j])) for j in range(3)]
               for i in range(3)]
        assert target == nnt
