"""Exact integer linear algebra: rank, nullity, and integral spectra.

Everything is integer-exact.  integral_spectrum takes its answer from the
certified modular engine in modular.py, which proves it exact before
returning it, and checks it against the graph's edge count.  rank/nullity
run fraction-free Bareiss elimination on Python ints, so entries stay exact
determinantal minors and no rounding ever happens; try_integral_spectrum
uses them for exact multiplicities of the integer eigenvalues of graphs
whose spectrum need not be integral.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import modular
from .graphs import Graph, sr_graph, sr_vertices
from .modular import IncompleteSpectrum

LENIENT_LIMIT = 512


def merge_pairs(items):
    """Combine (eigenvalue, multiplicity) items: equal eigenvalues add,
    zero multiplicities drop, and a negative total is an error.  Returns
    pairs sorted by descending eigenvalue."""
    acc = {}
    for c, m in items:
        acc[c] = acc.get(c, 0) + m
    out = []
    for c in sorted(acc, reverse=True):
        m = acc[c]
        if m < 0:
            raise ValueError(f"negative multiplicity {m} at eigenvalue {c}")
        if m:
            out.append((int(c), int(m)))
    return tuple(out)


@dataclass(frozen=True)
class Spectrum:
    """Integer spectrum as (eigenvalue, multiplicity) pairs, descending."""

    pairs: tuple

    def __post_init__(self):
        object.__setattr__(self, "pairs", merge_pairs(self.pairs))

    @property
    def total(self):
        return sum(m for _, m in self.pairs)

    def multiplicity(self, c):
        for ev, m in self.pairs:
            if ev == c:
                return m
        return 0

    @property
    def min_eigenvalue(self):
        if not self.pairs:
            raise ValueError("empty spectrum")
        return self.pairs[-1][0]

    def __str__(self):
        return " ".join(
            f"{c}^{m}" if c >= 0 else f"({c})^{m}" for c, m in self.pairs)

    @classmethod
    def from_string(cls, text):
        """Parse the exponent notation, e.g. "9^1 3^4 (-1)^6 (-3)^6"."""
        pairs = []
        for tok in text.split():
            m = re.fullmatch(r"\(?(-?\d+)\)?\^\{?(\d+)\}?", tok)
            if not m:
                raise ValueError(f"bad spectrum token {tok!r}")
            pairs.append((int(m.group(1)), int(m.group(2))))
        return cls(tuple(pairs))


@dataclass(frozen=True)
class SpectrumProbe:
    """Lenient sweep result: integer pairs found plus leftover dimensions."""

    pairs: tuple
    residual: int

    @property
    def is_integral(self):
        return self.residual == 0

    def spectrum(self):
        if not self.is_integral:
            raise IncompleteSpectrum(self.pairs, self.residual)
        return Spectrum(self.pairs)

    def to_json(self):
        """The "integral" and "spectrum" keys of a JSON report: the spectrum
        string when integral, else the pairs found and the residual."""
        return {"integral": self.is_integral,
                "spectrum": (str(self.spectrum()) if self.is_integral
                             else {"pairs": [list(p) for p in self.pairs],
                                   "residual": self.residual})}


def rank(rows):
    """Rank of an integer matrix (list of rows) via Bareiss elimination.

    Fraction-free: every intermediate entry is a minor of the input, every
    division is exact.  Pivots are the first nonzero entry in column order.
    """
    m = [[int(x) for x in row] for row in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv_row = None
        for i in range(r, nr):
            if m[i][c]:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            m[r], m[piv_row] = m[piv_row], m[r]
        piv = m[r][c]
        for i in range(r + 1, nr):
            mic = m[i][c]
            row_i = m[i]
            row_r = m[r]
            for j in range(c + 1, nc):
                row_i[j] = (piv * row_i[j] - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = piv
        r += 1
    return r


def nullity(rows):
    """Dimension of the integer kernel: columns minus rank."""
    if not rows:
        raise ValueError("nullity needs a matrix with at least one row")
    return len(rows[0]) - rank(rows)


def _self_check(g, pairs):
    v = g.order
    total = sum(m for _, m in pairs)
    first = sum(c * m for c, m in pairs)
    second = sum(c * c * m for c, m in pairs)
    if total != v or first != 0 or second != 2 * g.edge_count():
        raise RuntimeError("internal spectrum self-check failed "
                           f"(totals {total}/{v}, moments {first}, {second})")


def integral_spectrum(g: Graph) -> Spectrum:
    """Exact spectrum of a graph known to have all-integer eigenvalues.

    Every integer within the maximum degree is a candidate, so the answer
    assumes nothing about the graph's family.  For SR graphs the engine
    also gets the vertex labels, whose coordinate permutations split the
    work into one block per partition of m.  The engine verifies that they
    are automorphisms before using them, and the certified answer is the
    same with or without them.  Raises IncompleteSpectrum when the spectrum
    is not integral after all, and ValueError for a graph labelled as SR
    whose edges the coordinate permutations do not preserve.
    """
    pairs = modular.certified_symmetric_spectrum(
        g.adjacency_matrix(), g.labels if g.family == "sr" else None)
    _self_check(g, pairs)
    return Spectrum(tuple(pairs))


def try_integral_spectrum(g: Graph) -> SpectrumProbe:
    """Lenient sweep: report integer eigenvalues found and the residual
    dimension count instead of raising.  Pure Bareiss, so size-capped."""
    v = g.order
    if v > LENIENT_LIMIT:
        raise ValueError(f"lenient sweep is exact-only and capped at "
                         f"{LENIENT_LIMIT} vertices, got {v}")
    if v == 0:
        return SpectrumProbe((), 0)
    delta = max(g.degrees())
    a = g.adjacency_matrix()
    eye = np.eye(v, dtype=np.int64)
    pairs = []
    for c in range(delta, -delta - 1, -1):
        mult = nullity((a - c * eye).tolist())
        if mult:
            pairs.append((c, mult))
    return SpectrumProbe(tuple(pairs), v - sum(m for _, m in pairs))


def verify_eigenvector(g: Graph, vec, eigenvalue: int) -> bool:
    """Exact check that A @ vec == eigenvalue * vec.

    vec is a sparse mapping whose keys are vertex indices (any integer
    type, numpy's too) or vertex labels; zero entries may be omitted.  An
    all-zero vector is rejected.
    """
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
    # A x, seeded on the support so that a support vertex with no neighbour
    # in the support is checked too.
    image = dict.fromkeys(entries, 0)
    for i, val in entries.items():
        for u in g.neighbors(i):
            image[u] = image.get(u, 0) + val
    return all(lhs == eigenvalue * entries.get(u, 0)
               for u, lhs in image.items())


def halved_factorization_check(m: int, n: int) -> bool:
    """Check A + nI == N N^T for SR(m, n), where N is the bipartite
    incidence between sum-n vectors u and the sum-<n vectors one coordinate
    away from them, u - d e_a with 1 <= d <= u_a."""
    if m < 1 or n < 0:
        raise ValueError("need m >= 1, n >= 0")
    top = sr_vertices(m, n)
    low = {w: j for j, w in enumerate(
        w for s in range(n) for w in sr_vertices(m, s))}
    v = len(top)
    nmat = np.zeros((v, max(len(low), 1)), dtype=np.int64)
    for i, u in enumerate(top):
        for a, x in enumerate(u):
            for d in range(1, x + 1):
                nmat[i, low[u[:a] + (x - d,) + u[a + 1:]]] = 1
    a = sr_graph(m, n).adjacency_matrix()
    return bool(np.array_equal(a + n * np.eye(v, dtype=np.int64),
                               nmat @ nmat.T))
