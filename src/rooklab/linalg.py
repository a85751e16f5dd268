"""Exact integer linear algebra: rank, nullity, and integral spectra.

Everything is integer-exact.  integral_spectrum takes its answer from the
certified modular engine in modular.py, which proves it exact before
returning it, and checks it against the graph's edge count.  rank first
eliminates mod the prime p = modular.PRIMES[0] in int64.  A minor that is
nonzero mod p is nonzero over Q, so rank_p <= rank_Q <= min(rows, cols),
and a mod-p rank of min(rows, cols) is the exact rank.  Every other
matrix, and every nullity, goes to fraction-free Bareiss elimination on
Python ints, whose entries stay exact determinantal minors, so no rounding
ever happens.  try_integral_spectrum asks the engine too; only when the
engine proves the spectrum not integral does it take nullity for the exact
multiplicities, at the integer roots mod p the engine reports, which hold
every integer eigenvalue.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass

import numpy as np

from . import modular
from .graphs import Graph, _bit_matrix, _indicators, sr_graph, sr_vertices
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

    def to_json(self):
        """The "integral" and "spectrum" keys of a JSON report: the spectrum
        string when integral, else the pairs found and the residual."""
        return {"integral": self.is_integral,
                "spectrum": (str(Spectrum(self.pairs)) if self.is_integral
                             else {"pairs": [list(p) for p in self.pairs],
                                   "residual": self.residual})}


def rank(rows):
    """Exact rank of an integer matrix (list of rows).

    Certified mod p = modular.PRIMES[0] first: a minor nonzero mod p is
    nonzero over Q, so rank_p <= rank_Q <= min(rows, cols), and a matrix
    whose mod-p rank is min(rows, cols) has that rank.  Otherwise Bareiss
    elimination decides (_bareiss_rank).
    """
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if _rank_mod(rows, nr, nc, modular.PRIMES[0]) == min(nr, nc):
        return min(nr, nc)
    return _bareiss_rank(rows, nr, nc)


def _bareiss_rank(rows, nr, nc):
    """Rank of the nr x nc integer matrix rows by Bareiss elimination:
    fraction-free, every intermediate entry is a minor of the input and
    every division is exact.  Its pivots are the first nonzero entry in
    column order."""
    m = [[int(x) for x in row] for row in rows]
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


def _rank_mod(rows, nr, nc, p):
    """Rank over GF(p) of the nr x nc integer matrix rows, for a prime
    p < 2**31: Gaussian elimination in int64 over the shorter side's lines,
    whose products of residues stay below p**2 < 2**62.  The dtype numpy
    infers for rows decides how the entries get there: one that casts
    safely to int64 is taken as is; any other (entries beyond int64, which
    numpy holds as uint64, object or even float64) is only looked at, and
    the entries are reduced mod p as Python ints instead."""
    a = np.asarray(rows)
    if not np.can_cast(a.dtype, np.int64):
        a = np.array([[int(x) % p for x in row] for row in rows],
                     dtype=np.int64)
    a = a.astype(np.int64, copy=False).reshape(nr, nc)
    a = (a.T if nr > nc else a) % p
    r = 0
    for i in range(len(a)):
        nz = a[i].nonzero()[0]
        if nz.size:
            r += 1
            below = a[i + 1:]
            f = below[:, nz[0]] * pow(int(a[i, nz[0]]), -1, p) % p
            below -= f[:, None] * a[i]
            below %= p
    return r


def nullity(rows):
    """Dimension of the integer kernel: columns minus rank, by Bareiss
    elimination alone.  rank's mod-p pass only ever proves full rank, and
    a nullity is asked for where a kernel is expected: try_integral_spectrum
    asks at the integer roots c of the characteristic polynomial mod p,
    where A - cI is singular mod p, so that pass could not succeed."""
    if not rows:
        raise ValueError("nullity needs a matrix with at least one row")
    return len(rows[0]) - _bareiss_rank(rows, len(rows), len(rows[0]))


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
    work into one block per partition of m; a Johnson graph J(v, n), SR(v, n)
    on the 0/1 vectors, gets its n-subsets' indicator vectors, split by
    S_v.  The engine verifies that they are automorphisms before using
    them, and the certified answer is the same with or without them.
    Raises IncompleteSpectrum when the spectrum is not integral after all,
    and ValueError for a graph labelled as SR whose edges the coordinate
    permutations do not preserve.
    """
    labels = None
    if g.family == "sr":
        labels = g.labels
    elif g.family == "johnson":
        labels = _indicators(g.params[0], g.labels)
    pairs = modular.certified_symmetric_spectrum(_bit_matrix(g.rows), labels)
    _self_check(g, pairs)
    return Spectrum(tuple(pairs))


def try_integral_spectrum(g: Graph) -> SpectrumProbe:
    """Lenient integral_spectrum: report the integer eigenvalues and the
    residual dimension count instead of raising.  An integral spectrum is
    the certified engine's.  When the engine proves it is not, its pairs
    are the integer roots of the characteristic polynomial mod p, which
    hold every integer eigenvalue, and each one's exact multiplicity is a
    nullity, so the sweep is size-capped.  Raises ValueError, as
    integral_spectrum does, for a graph labelled as SR whose edges the
    coordinate permutations do not preserve."""
    v = g.order
    if v > LENIENT_LIMIT:
        raise ValueError(f"lenient sweep is exact-only and capped at "
                         f"{LENIENT_LIMIT} vertices, got {v}")
    try:
        return SpectrumProbe(integral_spectrum(g).pairs, 0)
    except IncompleteSpectrum as e:
        candidates = [c for c, _ in e.pairs]
    a = g.adjacency_matrix()
    eye = np.eye(v, dtype=np.int64)
    pairs = [(c, k) for c in candidates
             if (k := nullity((a - c * eye).tolist()))]
    return SpectrumProbe(tuple(pairs), v - sum(k for _, k in pairs))


def verify_eigenvector(g: Graph, vec, eigenvalue: int) -> bool:
    """Exact check that A @ vec == eigenvalue * vec.

    vec is a sparse mapping whose keys are vertex indices (any integer
    type, numpy's too) or vertex labels; zero entries may be omitted.  An
    all-zero vector is rejected, and the eigenvalue must be an integer.

    A x is one product, the support's entries times its unpacked bit rows,
    compared with eigenvalue * x at every vertex.  No entry of either side
    exceeds S = sum |x_i| * max(1, |eigenvalue|) in absolute value, so the
    product runs in int64 while S < 2**63 and on exact Python ints (numpy
    dtype object) from there on.
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
    lam = operator.index(eigenvalue)
    vals = list(entries.values())
    bound = sum(map(abs, vals)) * max(1, abs(lam))
    dtype = np.int64 if bound < 2**63 else object
    x = np.zeros(g.order, dtype=dtype)
    x[list(entries)] = vals
    rows = _bit_matrix([g.rows[i] for i in entries], g.order)
    # einsum casts the 0/1 rows buffer by buffer, where a matmul would copy
    # all of them to dtype first.
    image = np.einsum("i,ij->j", np.array(vals, dtype=dtype), rows)
    return bool(np.array_equal(image, lam * x))


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
