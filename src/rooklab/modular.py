"""Certified modular engine: the one way rooklab computes an integral spectrum.

Everything here proves exact integer statements; no step relies on a prime
being lucky.  The argument needs only a square integer matrix A of order v
whose max absolute row sum is delta, which bounds |lambda| for every complex
eigenvalue lambda, so every integer eigenvalue lies in [-delta, delta]:

1. The characteristic polynomial mod p (computed by Hessenberg reduction
   followed by the standard leading-minor recurrence) equals the integer
   characteristic polynomial reduced mod p, for every prime p.
2. Hence the multiplicity e_c of an integer root c mod p is an upper bound
   on the true algebraic multiplicity m_c, for every prime and candidate.
3. The algebraic multiplicities of all complex eigenvalues add up to v.  If
   sum of e_c over the candidates is < v, the spectrum provably is not
   integral.  If it equals v, the claim {(c, e_c)} is certified by proving
   prod over claimed c of (A - cI) = 0 over the integers: entries of that
   product are bounded a priori by prod (delta + |c|) (the row-sum norm is
   submultiplicative), so checking the product mod enough primes proves it
   vanishes exactly.  Then the minimal polynomial divides prod (x - c), so
   every eigenvalue is a claimed c, and m_c <= e_c with both summing to v
   pins m_c = e_c.

A certified claim also proves A diagonalizable (its minimal polynomial has
distinct roots), so a matrix that is not fails the certificate for every
prime.  Adjacency matrices are symmetric and quotient matrices of equitable
partitions are similar to symmetric ones, so both are diagonalizable; for
them a failure takes a mod-p coincidence for every prime tried.

The arithmetic uses int64 numpy (values stay far below 2**63) and float64
BLAS matmuls, both exact integer arithmetic in range: a product of two
matrices with entries below p sums v terms below (p - 1)**2, which stays
below 2**53 while v <= MAX_ORDER.  Larger matrices are refused.
"""

from __future__ import annotations

import math

import numpy as np

_PRIME_CEILING = 1 << 20


def _primes_below(ceiling, count):
    out = []
    x = ceiling - 1
    while len(out) < count:
        if x % 2:
            d = 3
            is_prime = x > 2
            while d * d <= x:
                if x % d == 0:
                    is_prime = False
                    break
                d += 2
            if is_prime:
                out.append(x)
        x -= 1
    return out


PRIMES = _primes_below(_PRIME_CEILING, 96)

# Largest order v with v * (p - 1)**2 < 2**53 for every prime in PRIMES.
MAX_ORDER = (2**53 - 1) // (max(PRIMES) - 1) ** 2


def hessenberg_mod(a, p):
    """Upper Hessenberg form of a mod p under similarity; returns a copy."""
    m = np.array(a, dtype=np.int64) % p
    v = m.shape[0]
    for k in range(v - 2):
        col = m[k + 1:, k]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        r = k + 1 + int(nz[0])
        if r != k + 1:
            m[[k + 1, r], :] = m[[r, k + 1], :]
            m[:, [k + 1, r]] = m[:, [r, k + 1]]
        piv = int(m[k + 1, k])
        inv = pow(piv, p - 2, p)
        f = (m[k + 2:, k] * inv) % p
        # Row operations R_i -= f_i * R_{k+1}, then the inverse column
        # operations C_{k+1} += sum f_i * C_i keep the matrix similar.
        m[k + 2:, k:] = (m[k + 2:, k:] - np.outer(f, m[k + 1, k:])) % p
        m[:, k + 1] = (m[:, k + 1] + m[:, k + 2:] @ f) % p
    return m


def charpoly_mod(a, p):
    """Coefficients of det(xI - a) mod p, ascending, length v+1 (monic)."""
    v = int(a.shape[0])
    if v == 0:
        return [1]
    h = hessenberg_mod(a, p)
    # q_k = charpoly of the leading k x k block; expansion along the last
    # column gives q_k = (x - h[k-1,k-1]) q_{k-1}
    #                    - sum_{i<k-1} h[i,k-1] (prod of subdiagonals) q_i.
    coeffs = np.zeros((v + 1, v + 1), dtype=np.int64)
    coeffs[0, 0] = 1
    cum = np.zeros(v, dtype=np.int64)
    for k in range(1, v + 1):
        if k >= 2:
            beta = int(h[k - 1, k - 2]) % p
            cum[:k - 2] = (cum[:k - 2] * beta) % p
            cum[k - 2] = beta
        hkk = int(h[k - 1, k - 1]) % p
        row = np.zeros(v + 1, dtype=np.int64)
        row[1:k + 1] = coeffs[k - 1, 0:k]
        row[0:k] = (row[0:k] - hkk * coeffs[k - 1, 0:k]) % p
        if k >= 2:
            w = ((h[0:k - 1, k - 1] * cum[0:k - 1]) % p) @ coeffs[0:k - 1, 0:k]
            row[0:k] = (row[0:k] - w) % p
        coeffs[k] = row
    return [int(x) % p for x in coeffs[v]]


def root_multiplicity(coeffs, c, p):
    """Multiplicity of the root c in the mod-p polynomial (ascending coeffs)."""
    cur = [x % p for x in coeffs]
    cval = c % p
    mult = 0
    while len(cur) > 1:
        # Synthetic division by (x - c), descending order internally; the
        # accumulator is both quotient coefficient and running remainder.
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


def _poly_from_roots(roots, p):
    """Coefficients of prod (x - r), ascending, reduced mod p."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, q in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + q) % p
            nxt[i] = (nxt[i] - r * q) % p
        coeffs = nxt
    return coeffs


def _annihilator_mod(a, eigenvalues, p):
    """prod over eigenvalues of (a - cI), reduced mod p, as float64.

    Paterson-Stockmeyer evaluation of the product polynomial: one batch
    of powers a^0..a^s plus a block Horner loop, about 2*sqrt(d) matrix
    products instead of d.  All intermediates stay below 2**53 because
    entries are reduced below p < 2**20 between products and the matrix
    order is at most MAX_ORDER.
    """
    v = a.shape[0]
    d = len(eigenvalues)
    af = np.mod(a.astype(np.float64), p)
    coeffs = _poly_from_roots(eigenvalues, p)
    s = max(2, math.isqrt(d) + 1)
    powers = [np.eye(v), af]
    for _ in range(2, s + 1):
        powers.append(np.fmod(powers[-1] @ af, p))

    def block(j):
        out = np.zeros((v, v))
        for i, q in enumerate(coeffs[j * s:(j + 1) * s]):
            if q:
                out += q * powers[i]
        return np.fmod(out, p)

    nblocks = -(-len(coeffs) // s)
    b = block(nblocks - 1)
    for j in range(nblocks - 2, -1, -1):
        b = np.fmod(b @ powers[s] + block(j), p)
    return b


def annihilation_proved(a, eigenvalues, delta):
    """True iff prod over eigenvalues of (a - cI) is proven zero over Z.

    a: square int64 numpy matrix with max absolute row sum <= delta.
    The proof checks the product modulo enough primes that their product
    exceeds twice the row-norm bound on the entries.
    """
    v = a.shape[0]
    if v == 0 or not eigenvalues:
        return True
    bound_bits = 1.0
    for c in eigenvalues:
        bound_bits += float(np.log2(max(delta + abs(c), 2)))
    used_bits = 0.0
    for p in PRIMES:
        b = _annihilator_mod(a, eigenvalues, p)
        if not np.all(b == 0.0):
            return False
        used_bits += float(np.log2(p))
        if used_bits > bound_bits:
            return True
    return False


class IncompleteSpectrum(Exception):
    """The integer eigenvalues do not account for every dimension: the
    spectrum is not integral.

    residual is the missing dimension count.  pairs holds the integer
    eigenvalues found.  Raised by certified_symmetric_spectrum (and so by
    integral_spectrum and quotient_spectrum), their multiplicities are
    mod-p upper bounds; linalg.try_integral_spectrum gives exact ones.
    """

    def __init__(self, pairs, residual):
        self.pairs = tuple(pairs)
        self.residual = residual
        super().__init__(
            f"integral eigenvalues cover {sum(m for _, m in pairs)} dimensions, "
            f"{residual} unaccounted for")


def certified_symmetric_spectrum(a):
    """Exact integer spectrum of a square int64 matrix.

    Every integer within the max absolute row sum is a candidate.  Returns
    descending (eigenvalue, multiplicity) pairs, proven exact.  Raises
    IncompleteSpectrum when the matrix provably has non-integer eigenvalues,
    and RuntimeError when the annihilation certificate fails for each of the
    first four primes, as it does for every matrix that is not
    diagonalizable.  Raises ValueError for an order above MAX_ORDER.
    """
    v = int(a.shape[0])
    if v > MAX_ORDER:
        raise ValueError(f"matrix order {v} exceeds {MAX_ORDER}, the largest "
                         f"for which float64 products mod p stay exact")
    if v == 0:
        return []
    delta = int(np.abs(a).sum(axis=1).max())
    for p in PRIMES[:4]:
        chi = charpoly_mod(a, p)
        pairs = []
        total = 0
        for c in range(delta, -delta - 1, -1):
            e = root_multiplicity(chi, c, p)
            if e:
                pairs.append((c, e))
                total += e
        if total < v:
            raise IncompleteSpectrum(pairs, v - total)
        if annihilation_proved(a, [c for c, _ in pairs], delta):
            return pairs
    raise RuntimeError("spectrum certificate failed for the first four primes")
