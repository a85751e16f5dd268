"""Explicit eigenvector families of SR(m, n) and the graphs they live on.

Two constructions produce exact eigenvectors for the extreme negative
eigenvalues.  For a permutation pi with n inversions, F_pi is a signed
indicator vector supported on X_pi = {x(sigma) : sigma pi-admissible} and is
an eigenvector for -n; the X_pi themselves induce bipartite n-regular
subgraphs Gamma(m, n, pi) whose isomorphism classes are classified here for
small n.  For an orbit {p + sigma(w)} of pairwise distinct vertices, F_pw is
an eigenvector for -binom(m, 2); the canonical half-integral w gives a family
of size binom(n - binom(m-1, 2), m-1).

Permutations and their signs come from one signed table of Sym(m) per m:
its permutations in lexicographic order as int8 rows, and their signs.
F_pw reads every row.  The pi-admissible sigma of F_pi and Gamma(m, n, pi)
are the rows at most b = a + i, found by one comparison, when m! is at most
_ROWS_PER_SIGMA times |X_pi|; otherwise a depth-first search lists X_pi
alone and carries the sign's parity, as the m! rows would cost more time
and memory than X_pi.

The hand-built sparse eigenvectors used in the n = 3 and n = 4 spectrum
proofs (eigenvalues m-3, 2m-5 and m-6) are provided under small_n_eigenvector.

Everything is exact integer or Fraction arithmetic (the table is int8 and
bool); eigenvector claims are meant to be checked exactly with
linalg.verify_eigenvector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial, prod
from operator import getitem, sub

import numpy as np

from .graphs import Graph, _sr_rows, sr_vertices
from .invariants import canonical_form
from .linalg import SpectrumProbe, try_integral_spectrum


class InvalidOrbit(Exception):
    """The points p + sigma(w) fail to be pairwise distinct vertices."""


def _check_permutation(pi):
    pi = tuple(pi)
    if sorted(pi) != list(range(len(pi))):
        raise ValueError(f"{pi!r} is not a permutation of range({len(pi)})")
    return pi


def inversion_vector(pi) -> tuple:
    """a_i = #{j > i : pi_i > pi_j}; entries satisfy a_i <= m-1-i and the sum
    is the inversion count, so a is itself a vertex of SR(m, inversions)."""
    pi = _check_permutation(pi)
    m = len(pi)
    return tuple(sum(1 for j in range(i + 1, m) if pi[i] > pi[j]) for i in range(m))


def inversion_count(pi) -> int:
    return sum(inversion_vector(pi))


def permutations_with_inversions(m: int, n: int):
    """All pi in Sym(m) with exactly n inversions, in lexicographic order of
    the inversion vector.  Decodes the vector like a Lehmer code, so only the
    matching permutations are ever materialized.  The vectors are counted
    like an odometer, in a loop, so m is not bound by the recursion limit."""
    bounds = [m - 1 - i for i in range(m)]
    tails = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        tails[i] = tails[i + 1] + bounds[i]
    if not 0 <= n <= tails[0]:
        return []
    vec, out = [0] * m, []
    i, rest = -1, n
    while True:
        # The least entries after place i that sum to rest: each place
        # takes only what the places after it cannot hold.
        for j in range(i + 1, m):
            vec[j] = max(0, rest - tails[j + 1])
            rest -= vec[j]
        available = list(range(m))
        out.append(tuple(available.pop(a) for a in vec))
        # The last place that can take one more from the places after it.
        rest = 0
        for i in range(m - 1, -1, -1):
            if rest and vec[i] < bounds[i]:
                break
            rest += vec[i]
        else:
            return out
        vec[i] += 1
        rest -= 1


# The table's comparison costs about as much as the search when m! is this
# many times |X_pi| (measured crossover: m!/|X_pi| of 45-60 at m = 6, 52-70
# at m = 7, 56-62 at m = 8; min of 5-15 runs per pi, one core of a 2-vCPU VM).
_ROWS_PER_SIGMA = 56


@lru_cache(maxsize=None)
def _signed_table(m: int) -> tuple:
    """(perms, signs): every permutation of range(m) in lexicographic order
    (the order of itertools.permutations) as the rows of an m!-by-m int8
    array, and their signs as int8 +-1, the parity of the inversions
    counted one pair of columns at a time.  Both arrays are read-only, as
    every caller shares them.  One table is kept per m: f_pi and gamma_graph
    ask for it only when m! <= _ROWS_PER_SIGMA |X_pi|, f_pw for its own m,
    whose m! orbit points it lists anyway."""
    perms = np.array(list(permutations(range(m))), dtype=np.int8)
    odd = np.zeros(len(perms), dtype=bool)
    for i, j in combinations(range(m), 2):
        odd ^= perms[:, i] > perms[:, j]
    signs = np.where(odd, np.int8(-1), np.int8(1))
    perms.flags.writeable = signs.flags.writeable = False
    return perms, signs


def _signed_admissible(pi) -> tuple:
    """(xs, signs): x(sigma) = b - sigma and sgn sigma for each
    pi-admissible sigma, in lexicographic order of sigma.  sigma is
    admissible when sigma_i <= b_i = a_i + i for all i; x(sigma) then sums
    to the inversion count of pi, so it is a vertex of SR(m, n), and X_pi
    is the set of them.  sigma = b - x(sigma), so sigma -> x(sigma) is
    injective.  xs is a list of tuples, signs a list of +-1.  When m! is at
    most _ROWS_PER_SIGMA |X_pi| the rows of the signed table at most b are
    the admissible sigma, found by one comparison; otherwise
    _admissible_search lists them."""
    b = [a + i for i, a in enumerate(inversion_vector(pi))]
    m = len(b)
    if factorial(m) > _ROWS_PER_SIGMA * _admissible_count(b):
        return _admissible_search(b)
    perms, signs = _signed_table(m)
    top = np.array(b, dtype=np.int8)
    keep = (perms <= top).all(axis=1)
    return (list(map(tuple, (top - perms[keep]).tolist())),
            signs[keep].tolist())


def _admissible_search(b) -> tuple:
    """_signed_admissible by depth-first search over sigma, in lexicographic
    order, without a stack frame per depth.  At each depth the candidates
    are the unused values up to b_i in increasing order, and the j-th of
    them (from 0) adds j inversions, as j unused smaller values come later
    in sigma; so each next candidate flips the parity of the prefix, and
    the sign needs no pass over sigma."""
    m = len(b)
    xs, signs = [], []
    sigma, used, parities = [], [False] * m, []
    # nxt is the least value still to try at depth len(sigma), and odd the
    # inversion parity of sigma with nxt appended.
    nxt = odd = 0
    while True:
        i = len(sigma)
        if i == m:
            xs.append(tuple(map(sub, b, sigma)))
            signs.append(-1 if odd else 1)
        else:
            top = b[i]  # below m, as a_i <= m - 1 - i
            while nxt <= top and used[nxt]:
                nxt += 1
            if nxt <= top:
                used[nxt] = True
                sigma.append(nxt)
                parities.append(odd)
                nxt = 0
                continue
        if not sigma:
            return xs, signs
        nxt = sigma.pop()
        used[nxt] = False
        nxt += 1
        odd = parities.pop() ^ 1


def _admissible_count(b) -> int:
    """The number of sigma with sigma_i <= b_i for all i, where b_i >= i:
    with b sorted ascending, b_(j) + 1 - j values are left for the j-th
    smallest bound, at least one because b_(j) >= j."""
    return prod(x + 1 - j for j, x in enumerate(sorted(b)))


def gamma_order(pi) -> int:
    """|X_pi|, the number of pi-admissible sigma (sigma_i <= b_i = a_i + i),
    counted without listing them."""
    return _admissible_count(a + i for i, a in enumerate(inversion_vector(pi)))


def f_pi(pi) -> dict:
    """F_pi = sum over admissible sigma of sgn(sigma) e_{x(sigma)}, as a
    sparse mapping from vertex label to +-1.  Exact eigenvector of
    SR(m, inversions(pi)) for eigenvalue -inversions(pi)."""
    xs, signs = _signed_admissible(pi)
    return dict(zip(xs, signs))


def canonical_w(m: int) -> tuple:
    """w = (1-m, 3-m, ..., m-1)/2: the equally spaced half-integral weight
    whose orbit vectors realize the full -binom(m, 2) multiplicity bound."""
    return tuple(Fraction(2 * j + 1 - m, 2) for j in range(m))


def f_pw(p, w) -> dict:
    """F_pw = sum over sigma in Sym(m) of sgn(sigma) e_{p + sigma(w)}, as a
    sparse mapping from vertex label to +-1, m = len(p) = len(w).  Every
    orbit point sums to n = sum(p) + sum(w), so F_pw is an exact
    eigenvector of SR(m, n) for eigenvalue -binom(m, 2) whenever the orbit
    points are pairwise distinct lattice points; otherwise InvalidOrbit."""
    p = tuple(Fraction(t) for t in p)
    w = tuple(Fraction(t) for t in w)
    m = len(p)
    if len(w) != m:
        raise ValueError("p and w must have the same length")
    # Coordinate i of p + sigma(w) is table[i][sigma_i] = p_i + w_(sigma_i);
    # coords holds it as an int where it is a lattice coordinate, else None.
    table = [[a + b for b in w] for a in p]
    coords = [[int(t) if t.denominator == 1 and t >= 0 else None for t in row]
              for row in table]
    vec = {}
    perms, signs = _signed_table(m)
    for sig, sgn in zip(perms.tolist(), signs.tolist()):
        label = tuple(map(getitem, coords, sig))
        if None in label:
            point = tuple(map(getitem, table, sig))
            raise InvalidOrbit(f"orbit point {point} is not a lattice point")
        if label in vec:
            raise InvalidOrbit(f"orbit points collide at {label}")
        vec[label] = sgn
    return vec


def f_pw_family(m: int, n: int) -> list:
    """All (p, F_pw) for the canonical w, one per base point p = q + (m-1)/2
    with q a vertex of SR(m, n - binom(m, 2)); family size is
    binom(n - binom(m-1, 2), m-1)."""
    rest = n - comb(m, 2)
    if rest < 0:
        return []
    w = canonical_w(m)
    shift = Fraction(m - 1, 2)
    out = []
    for q in sr_vertices(m, rest):
        p = tuple(shift + t for t in q)
        out.append((p, f_pw(p, w)))
    return out


def gamma_graph(pi) -> Graph:
    """Gamma(m, n, pi): SR(m, n) induced on X_pi, m = len(pi) and n =
    inversions(pi), with the rows taken from the labels by the SR adjacency
    rule.  Construction postconditions: every edge joins permutations of
    opposite sign (bipartite by sign) and the graph is n-regular."""
    pi = _check_permutation(pi)
    labels, signs = _signed_admissible(pi)
    n = sum(labels[0])  # every x(sigma) sums to n; sigma = identity is one
    g = Graph(labels, _sr_rows(labels), family="gamma",
              params=(len(pi), n, pi))
    for i, j in g.edges():
        if signs[i] == signs[j]:
            raise RuntimeError("gamma graph edge inside one sign class")
    if any(d != n for d in g.degrees()):
        raise RuntimeError("gamma graph is not n-regular")
    return g


@dataclass(frozen=True)
class GammaClass:
    """One isomorphism class of Gamma(m, n, pi) graphs.

    graph is the first representative found (scan order: m ascending, then
    inversion-vector order); occurrences counts the (m, pi) pairs landing in
    the class; probe is the representative's try_integral_spectrum, whose
    residual is 0 exactly when the spectrum is integral.
    """

    graph: Graph
    m: int
    pi: tuple
    occurrences: int
    probe: SpectrumProbe

    def to_json(self):
        return {
            "order": self.graph.order,
            "valency": self.graph.params[1],
            "bipartite": True,
            "first_m": self.m,
            "first_pi": list(self.pi),
            "occurrences": self.occurrences,
            **self.probe.to_json(),
        }


def classify_gamma(n: int) -> list:
    """Isomorphism classes of Gamma(m, n, pi) over all pi with n inversions
    and all m.  Scanning m <= 2n suffices: larger m reproduce graphs already
    seen there.  Classes come back in first-discovery order."""
    if n < 0:
        raise ValueError("inversion count must be nonnegative")
    found = {}
    for m in range(1, max(2 * n, 1) + 1):
        for pi in permutations_with_inversions(m, n):
            g = gamma_graph(pi)
            cert = canonical_form(g).certificate
            if cert in found:
                found[cert][3] += 1
            else:
                found[cert] = [g, m, pi, 1]
    # Dicts keep insertion order, so this is first-discovery order.
    return [GammaClass(g, m, pi, count, try_integral_spectrum(g))
            for g, m, pi, count in found.values()]


def cayley_transpositions(m: int) -> Graph:
    """Cayley graph of Sym(m) with respect to all transpositions: vertices
    are the permutations of range(m), adjacent when they differ in exactly
    two positions.  Permutations of range(m) share one sum, so this is the
    SR adjacency rule (`_sr_rows`) on them."""
    labels = list(permutations(range(m)))
    return Graph(labels, _sr_rows(labels), family="cayley", params=(m,))


# kind: (least m, eigenvalue a m + b as (a, b), anchor count, terms).  Each
# term (c, amounts) adds c at sum of amount e_x, x running over the anchors
# and then over every ordered choice of distinct other coordinates, so both
# orders of i, j add -1 at 2e_h + e_i + e_j, the -2 of "n4_2m-5".
_SMALL_N = {
    "n3_m-3": (3, (1, -3), 1, ((1, (2, 1)), (-1, (1, 2)))),
    "n4_2m-5": (4, (2, -5), 1, ((-1, (2, 2)), (-1, (3, 1)), (2, (1, 3)),
                                (-1, (2, 1, 1)), (1, (1, 2, 1)))),
    "n4_m-6": (4, (1, -6), 2, ((1, (1, 0, 3)), (1, (0, 2, 2)), (1, (2, 1, 1)),
                               (-1, (0, 1, 3)), (-1, (2, 0, 2)),
                               (-1, (1, 2, 1)))),
}
SMALL_N_KINDS = tuple(_SMALL_N)


def _small_n(kind: str) -> tuple:
    if kind not in _SMALL_N:
        raise ValueError(f"unknown kind {kind!r}")
    return _SMALL_N[kind]


def small_n_eigenvalue(kind: str, m: int) -> int:
    _, (a, b), _, _ = _small_n(kind)
    return a * m + b


def small_n_eigenvector(kind: str, m: int, anchor) -> dict:
    """The hand-built sparse eigenvectors from the n = 3, 4 spectrum proofs.

    kind "n3_m-3" on SR(m, 3), anchor h: +1 on 2e_h + e_i, -1 on e_h + 2e_i.
    kind "n4_2m-5" on SR(m, 4), anchor h: -1 on 2e_h + 2e_i and 3e_h + e_i,
        +2 on e_h + 3e_i, -2 on 2e_h + e_i + e_j, +1 on e_h + 2e_i + e_j.
    kind "n4_m-6" on SR(m, 4), anchor (h, i): +1 on e_h + 3e_j, 2e_i + 2e_j
        and 2e_h + e_i + e_j; -1 on e_i + 3e_j, 2e_h + 2e_j and
        e_h + 2e_i + e_j.

    The matching eigenvalues are m-3, 2m-5 and m-6; coordinates are 0-based,
    and the anchors must be distinct ones in range(m) (ValueError otherwise).
    """
    least, _, count, terms = _small_n(kind)
    if m < least:
        raise ValueError(f"{kind} construction needs m >= {least}")
    anchors = tuple(anchor) if count > 1 else (anchor,)
    if len(anchors) != count or len(set(anchors) & set(range(m))) < count:
        raise ValueError(f"{kind} takes {count} distinct anchors in range(m)")
    others = [x for x in range(m) if x not in anchors]
    vec = {}
    for c, amounts in terms:
        for rest in permutations(others, len(amounts) - count):
            x = [0] * m
            for idx, amount in zip(anchors + rest, amounts):
                x[idx] += amount
            label = tuple(x)
            vec[label] = vec.get(label, 0) + c
    return vec
