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

A symmetry splits the work without changing the argument.  Let sigma be a
permutation of the indices with A[sigma x, sigma y] = A[x, y], verified
before use, and k its order (the lcm of its cycle lengths).  The engine then
works only with primes p = 1 (mod k), so F_p holds a primitive k-th root of
unity omega.  For an orbit O of size s (s divides k) with representative r,
the vector u_i(O) = sum over t < s of omega^(-i t) e(sigma^t r) is nonzero,
and an omega^i-eigenvector of sigma, exactly when omega^(i s) = 1, that is
when k | i s.  For each O these s vectors are the columns of an invertible
s-point Fourier matrix, so all the u_i(O) together form a basis of F_p^v.
A commutes with sigma, so it maps each eigenspace into itself; on the basis
u_i(O) of the omega^i-eigenspace it acts by the block
B_i[O', O] = sum over t < |O| of omega^(-i t) A[rep(O'), sigma^t rep(O)].
So A mod p is similar to the direct sum of the B_i mod p, hence:

- chi_A = prod over i of chi_{B_i} (mod p), so the root multiplicities of
  step 2 are the sums of the blocks' root multiplicities;
- f(A) = 0 (mod p) iff f(B_i) = 0 (mod p) for every i.

A symmetric A (verified, A = A^T) proves each conjugate pair of blocks
once.  Block k-i keeps the same orbits as block i, since k | i s iff
k | (k-i) s.  Let S be the diagonal of the block's orbit sizes.  Using
A^T = A and the symmetry, B_{k-i}[O, O'] = (|O'| / |O|) B_i[O', O], that is
B_{k-i}^T = S B_i S^(-1) (mod p), and S is invertible because every orbit
size is at most k < p.  So B_{k-i} is similar to B_i: the two have the same
chi, and f(B_{k-i}) = 0 exactly when f(B_i) = 0.  B_{k-i} is B_i^T only
when all of the block's orbits have the same size; on SR(6, 2) blocks 2 and
4 mix orbits of sizes 3 and 6.  The engine keeps block i for i <= k - i
only: the self-conjugate blocks i = 0 and, for even k, i = k/2 count once,
every other kept block twice.

Step 3 then checks each kept block B_i against g_i = prod (x - c) over the
block's own roots c, found in its chi at the charpoly prime, rather than
against F = prod (x - c) over every claimed c.  Each g_i divides F, so
g_i(B_i) = 0 (mod p) proves F(B_i) = 0, hence F(A) = 0 (mod p); the choice
of g_i affects only whether the check succeeds, never what it proves.

Nothing else changes: the candidates, the entry bound and the number of
primes still come from A's own row sums and the full list of claimed
eigenvalues, and steps 1 to 3 hold as stated.  The identity (k = 1), or no
symmetry at all, gives one block, A itself, every prime in PRIMES and the
full list of claimed eigenvalues as its roots.

The arithmetic uses int64 numpy (values stay far below 2**63) and float64
BLAS matmuls, both exact integer arithmetic in range: a product of two
matrices with entries below p sums v terms below (p - 1)**2, which stays
below 2**53 while v <= MAX_ORDER.  Blocks are built by an integer gather
(at most k terms below p**2 per entry), and a block of order above
MAX_ORDER is refused.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_PRIME_CEILING = 1 << 20


def _primes_below(ceiling, count, k=1):
    """The largest count primes p < ceiling with p = 1 (mod k), descending;
    fewer when there are not that many."""
    step = k if k % 2 == 0 else 2 * k  # odd x = 1 (mod k) are 1 (mod step)
    x = ceiling - 1 - (ceiling - 2) % step
    out = []
    while len(out) < count and x > 2:
        if all(x % d for d in range(3, math.isqrt(x) + 1, 2)):
            out.append(x)
        x -= step
    return out


PRIMES = _primes_below(_PRIME_CEILING, 96)

# Largest order v with v * (p - 1)**2 < 2**53 for every prime in PRIMES.
MAX_ORDER = (2**53 - 1) // (max(PRIMES) - 1) ** 2


@functools.cache
def _primes_1_mod(k):
    """The primes a symmetry of order k works with: PRIMES for k = 1, else
    as many primes p = 1 (mod k) below the same ceiling, built on first use."""
    return PRIMES if k == 1 else _primes_below(_PRIME_CEILING, len(PRIMES), k)


def _root_of_unity(k, p):
    """A primitive k-th root of unity mod the prime p, for k dividing p - 1."""
    divisors = [j for j in range(1, k) if k % j == 0]
    for g in range(2, p):
        w = pow(g, (p - 1) // k, p)
        if all(pow(w, j, p) != 1 for j in divisors):
            return w
    raise ValueError(f"{k} does not divide {p} - 1")


class _Split:
    """A square integer matrix a split by a verified symmetry sigma.

    perm lists sigma(x) = perm[x] and must satisfy a[perm][:, perm] == a;
    None is the identity.  k is the order of sigma, primes the primes
    p = 1 (mod k) the proof uses, and sizes and weights the orders of the
    blocks that blocks(p) returns and how many eigenspaces each stands for.
    Block i is a's restriction to the omega^i-eigenspace of sigma mod p, on
    the orbit vectors u(O) = sum over t < |O| of omega^(-i t) e(sigma^t rep(O))
    of the orbits O with k | i |O|:

        B_i[O', O] = sum over t < |O| of omega^(-i t) a[rep(O'), sigma^t rep(O)].

    Every nonempty block is kept, with weight 1, unless a is symmetric: then
    only block i <= k - i of each pair {i, k - i} is, with weight 2 when
    i != k - i (see the module docstring).
    """

    def __init__(self, a, perm):
        v = int(a.shape[0])
        self._a = a
        self._gathers = []
        self.k = 1
        self.sizes = [v] if v else []
        self.weights = [1] * len(self.sizes)
        if perm is not None:
            perm = np.asarray(perm)
            if (perm.shape != (v,) or perm.dtype.kind not in "iu"
                    or not np.array_equal(np.sort(perm), np.arange(v))):
                raise ValueError("perm is not a permutation of the matrix "
                                 "indices")
            if not np.array_equal(a[np.ix_(perm, perm)], a):
                raise ValueError("perm is not a symmetry of the matrix")
            # The cycles of sigma, one after another, each listed as
            # rep, sigma(rep), sigma^2(rep), ... from its smallest index.
            succ = perm.tolist()
            seen = bytearray(v)
            members, sizes = [], []
            for x in range(v):
                if not seen[x]:
                    y, s = x, 0
                    while not seen[y]:
                        seen[y] = 1
                        members.append(y)
                        y, s = succ[y], s + 1
                    sizes.append(s)
            self.k = math.lcm(*sizes)
        self.primes = _primes_1_mod(self.k)
        if not self.primes:
            raise ValueError(f"no prime p = 1 (mod {self.k}) lies below "
                             f"{_PRIME_CEILING}")
        if self.k > 1:
            self._gather(np.array(members), np.array(sizes))

    def _gather(self, members, sizes):
        # Per block, the integer entries a[rep(O'), sigma^t rep(O)] with
        # their exponents -i t mod k; blocks(p) weighs and sums them.
        k = self.k
        starts = np.cumsum(sizes) - sizes
        ts = np.arange(len(members)) - np.repeat(starts, sizes)
        self.sizes, self.weights = [], []
        # Block i is nonempty iff some orbit size s has (k / s) | i.
        nonempty = sorted({j * (k // s) for s in set(sizes.tolist())
                           for j in range(s)})
        paired = np.array_equal(self._a, self._a.T)
        for i in nonempty:
            if paired and 2 * i > k:
                continue
            self.weights.append(2 if paired and 0 < 2 * i < k else 1)
            kept = i * sizes % k == 0
            cols = np.repeat(kept, sizes)
            block_sizes = sizes[kept]
            self._gathers.append((
                self._a[np.ix_(members[starts[kept]], members[cols])],
                -i * ts[cols] % k, np.cumsum(block_sizes) - block_sizes))
            self.sizes.append(len(block_sizes))

    def blocks(self, p):
        """The kept blocks of a mod p, in the order of sizes and weights."""
        if self.k == 1:
            return [self._a]
        w = _root_of_unity(self.k, p)
        powers = np.array([pow(w, e, p) for e in range(self.k)],
                          dtype=np.int64)
        # Each sum has at most k < p terms below p**2 < 2**40: exact in int64.
        return [np.add.reduceat((g % p) * powers[exps], starts, axis=1) % p
                for g, exps, starts in self._gathers]


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


def annihilation_proved(split, roots, delta):
    """True iff prod over the claimed eigenvalues of (a - cI) is proven
    zero over Z, for the matrix a that split holds.

    roots[j] lists the claimed eigenvalues that split's block j should
    satisfy; the claimed eigenvalues are all of them together, and delta
    bounds a's max absolute row sum.  The proof checks prod over roots[j]
    of (B_j - cI) on every kept block modulo enough primes that their
    product exceeds twice the row-norm bound on the entries of the full
    product (see the module docstring).  A nonempty block with no roots
    fails the proof.
    """
    if len(roots) != len(split.sizes):
        raise ValueError(f"{len(roots)} root lists for "
                         f"{len(split.sizes)} blocks")
    eigenvalues = sorted(set().union(*roots), reverse=True)
    bound_bits = 1.0
    for c in eigenvalues:
        bound_bits += float(np.log2(max(delta + abs(c), 2)))
    used_bits = 0.0
    for p in split.primes:
        for b, block_roots in zip(split.blocks(p), roots):
            if np.any(_annihilator_mod(b, block_roots, p)):
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


def certified_symmetric_spectrum(a, perm=None):
    """Exact integer spectrum of a square int64 matrix.

    Every integer within the max absolute row sum is a candidate.  Returns
    descending (eigenvalue, multiplicity) pairs, proven exact.  perm, if
    given, is a symmetry sigma(x) = perm[x] of a: the work splits into one
    block per eigenspace of sigma, or per conjugate pair of eigenspaces when
    a is symmetric, and the answer is the same as without it.
    Raises IncompleteSpectrum when the matrix provably has non-integer
    eigenvalues, and RuntimeError when the annihilation certificate fails
    for each of the first four primes, as it does for every matrix that is
    not diagonalizable.  Raises ValueError when perm is not a permutation
    commuting with a, and for a block order above MAX_ORDER.
    """
    split = _Split(a, perm)
    if max(split.sizes, default=0) > MAX_ORDER:
        raise ValueError(f"block order {max(split.sizes)} exceeds "
                         f"{MAX_ORDER}, the largest for which float64 "
                         f"products mod p stay exact")
    v = int(a.shape[0])
    if v == 0:
        return []
    delta = int(np.abs(a).sum(axis=1).max())
    for p in split.primes[:4]:
        found, roots = {}, []
        for b, weight in zip(split.blocks(p), split.weights):
            chi = charpoly_mod(b, p)
            roots.append([])
            # The block's root multiplicities add up to at most its order,
            # so once they reach it no further candidate is a root.
            total = 0
            for c in range(delta, -delta - 1, -1):
                if total == b.shape[0]:
                    break
                e = root_multiplicity(chi, c, p)
                if e:
                    found[c] = found.get(c, 0) + weight * e
                    roots[-1].append(c)
                    total += e
        pairs = sorted(found.items(), reverse=True)
        total = sum(found.values())
        if total < v:
            raise IncompleteSpectrum(pairs, v - total)
        if annihilation_proved(split, roots, delta):
            return pairs
    raise RuntimeError("spectrum certificate failed for the first four primes")
