"""Certified modular engine: the one way rooklab computes an integral spectrum.

Everything here proves exact integer statements; no step relies on a prime
being lucky.  The unit of proof is a block: a square integer matrix B of
order v whose max absolute row sum ||B|| bounds |lambda| for every complex
eigenvalue lambda, so every integer eigenvalue lies in [-||B||, ||B||].  A
matrix A is one block, or several when labels split it (below):

1. The characteristic polynomial mod p equals the integer characteristic
   polynomial reduced mod p, for every prime p.  charpoly_mod computes it
   from the power sums tr(B^j) mod p by Newton's identities up to order
   _POWER_SUM_ORDER (300), and by Hessenberg reduction followed by the
   standard leading-minor recurrence above it; both work on balanced
   residues (below) and are exact for p > v with v (p - 1)**2 < 2**53.
2. Hence the multiplicity e_c of an integer root c mod p is an upper bound
   on the true algebraic multiplicity m_c, for every prime and candidate.
3. The algebraic multiplicities of all complex eigenvalues add up to v.  If
   sum of e_c over the candidates is < v, B provably has a non-integer
   eigenvalue.  If it equals v, the claim {(c, e_c)} is certified by
   proving prod over claimed c of (B - cI) = 0 over the integers.  The
   factors are multiplied exactly, taken alternately from the top and the
   bottom of the descending roots, while a running bound on the product's
   max absolute row sum keeps every entry and partial sum below 2**53:
   prod (||B|| + |c|) a priori (the norm is submultiplicative), measured
   again from the product itself before the product is given up.  On
   almost every block the whole product fits and is tested for zero as it
   stands, with no prime.  Otherwise its exact pieces are multiplied mod
   enough primes that their product exceeds twice the product of the
   pieces' bounds, which bound every entry of the whole, so the whole
   vanishes iff it does mod each prime.  Then the minimal polynomial
   divides prod (x - c), so every eigenvalue is a claimed c, and
   m_c <= e_c with both summing to v pins m_c = e_c.  The blocks give A's
   spectrum:

   - rho(B) <= ||B||, so the candidates -||B||..||B|| hold every integer
     eigenvalue of B, even where ||B|| exceeds A's max absolute row sum;
   - the verified similarity of A to the sum of the B_lambda (x) I_d_lambda
     gives chi_A = prod chi_(B_lambda)^(d_lambda), over Z, so each block's
     certified pairs, counted d_lambda times, are A's pairs;
   - a block that provably lacks integer roots proves that A does too.

A certified claim also proves B diagonalizable (its minimal polynomial has
distinct roots), so a block that is not fails the certificate for every
prime.  Adjacency matrices are symmetric and quotient matrices of equitable
partitions are similar to symmetric ones, so they and their blocks are
diagonalizable; for them a failure takes a mod-p coincidence for every
prime tried.

The coordinate permutations of an SR graph split the work without changing
the argument.  Let A's indices carry labels, distinct integer m-tuples
closed under permuting coordinates, with A[g x, g y] = A[x, y] for each
coordinate permutation g (verified for a transposition and an m-cycle,
which generate S_m).  For a partition lambda of m, fill its diagram with
0..m-1 row by row; R and C keep each row and each column, and b is the sum
over c in C of sgn(c) c.  J holds the R-orbits of labels whose row-sorted
filling is semistandard (columns strictly increasing), and M the v x |J|
integer columns b u(O), u(O) the indicator of O in J, taken in increasing
order of the orbits' sorted labels.  One pass builds the M of every
lambda: the row-sorted labels of all S shapes are one (S, v, m) stack of
small integers, sorted once; one lookup finds every orbit and one every
image of a label under a c, a label x with entries in [0, w) keyed as the
one int64 sum of x_i w**i while w**m < 2**62 (distinct labels, distinct
keys) and as its m-entry record otherwise; and the M are the column
ranges of one v x K integer matrix, K the sum of the |J|, made by one
bincount, so that one product gives every A M.  Then, lambda by lambda,
the engine checks that M's rows at those labels form an upper
unitriangular U, so rank M = |J|, solves U B = (A M)[those rows] by exact
back substitution, and checks M B = A M exactly over Z on all v rows: A
maps the column space W of M into itself, acting by the integer B_lambda.

With a the sum over R, b a is a multiple of a primitive idempotent for the
irreducible S^lambda, of dimension d_lambda (hook length formula; James,
LNM 682), and W lies in b a Q^v, of dimension mult_lambda, the multiplicity
of S^lambda in Q^v.  As the d_lambda mult_lambda sum to v, the verified sum
of the d_lambda |J| = v forces W = b a Q^v for every lambda, so
mult_lambda = 0 for each lambda skipped as dominating no label's content
(its J is empty).  A commutes with S_m, so on the lambda-isotypic part
S^lambda (x) Hom(S^lambda, Q^v) it is I (x) A_lambda, similar to A on
b a Q^v, which is B_lambda.  So A is similar over Q to the sum of the
B_lambda (x) I_d_lambda, the similarity step 3 uses.  The blocks are built
and checked once; each then runs steps 1-3 with its own primes.

A comes in any integer dtype whose entries fit in int64: an adjacency
matrix as uint8 0/1.  Where labels split it, it is read in that dtype: its
symmetries are checked by comparing it with its permuted copies, and its
max absolute row sum is taken by _norm, which sums an unsigned A as it
stands and a signed one's magnitudes after widening to int64
(np.abs(np.int8(-128)) is -128); otherwise its one block is widened to
int64, as NumPy 2 refuses uint8 % p for p > 255.  The arithmetic uses
int64 numpy (values stay far below 2**63) and float32 and float64 BLAS
matmuls, all exact integer arithmetic in range.  Each partial sum of A M
is an integer of magnitude at most delta max|M|, delta A's max absolute
row sum, so A M is taken in float32 when that is below 2**24 and in
float64 otherwise.  The products M B that check a block, and the running
annihilation product, are bounded below 2**53 before they are trusted, as
is A M in float64, and a block of order above MAX_ORDER is refused.  A
block's own entries are known only to lie below 2**53 in magnitude, so a
characteristic polynomial, and an annihilation product that does not fit
whole, first take their integers mod p with integer % on int64.  From then
on every matrix holds balanced residues r, |r| <= p/2 + 2, and a product
of two such matrices, like each update and recurrence step of the
Hessenberg route, sums at most v <= MAX_ORDER terms of at most
((p + 4)/2)**2, and at most one residue more: below 2**51.01 for
p < 2**20.  _reduce brings such an x back to a balanced residue as
x - q p, q = rint(x fl(1/p)).  For |x| < 2**52 the float product
x fl(1/p) lies within 2/p of x/p, so q lies within 1/2 + 2/p of it and
|x - q p| <= p/2 + 2; q p and x - q p are integers below 2**53, so both
are exact.  Integer % on int64 would be exact too, but its division takes
longer than the matmul it follows at order 77, and libm's fmod, which
np.fmod calls on floats, divides bit by bit, slower still.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter

import numpy as np


def _top_primes(count, below, span):
    """The count largest primes below `below`, descending, sieved from the
    span integers under it by the primes up to its square root, all of
    which must lie under that segment."""
    root = math.isqrt(below - 1)
    small = np.ones(root + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(root) + 1):
        if small[p]:
            small[p * p::p] = False
    low = below - span
    segment = np.ones(span, dtype=bool)
    for p in np.flatnonzero(small).tolist():
        segment[-low % p::p] = False
    return (low + np.flatnonzero(segment)[::-1][:count]).tolist()


# The 96 largest primes below 2**20, descending.
PRIMES = _top_primes(96, 1 << 20, 4096)

# Largest order v with v * (p - 1)**2 < 2**53 for every prime in PRIMES.
MAX_ORDER = (2**53 - 1) // (max(PRIMES) - 1) ** 2

# Largest order whose characteristic polynomial charpoly_mod takes from
# power sums; above it, Hessenberg reduction (see charpoly_mod).
_POWER_SUM_ORDER = 300


def _shapes(m, contents, shape=()):
    """The partitions of m extending shape, descending lexicographically,
    that dominate one of contents: the shapes of its semistandard tableaux."""
    top = sum(shape)
    if top == m:
        yield shape
    for part in range(min(m - top, shape[-1] if shape else m), 0, -1):
        contents = [mu for mu in contents
                    if top + part >= sum(mu[:len(shape) + 1])]
        if not contents:
            break
        yield from _shapes(m, contents, shape + (part,))


@functools.cache
def _tableau(shape):
    """shape's diagram filled with 0..m-1 row by row: the row of each
    position, the positions below another one and those just above them,
    the permutations of 0..m-1 that keep each column (rows of an index
    array, the identity first) with their signs, and d_lambda, m! over the
    hook lengths."""
    parts = np.array(shape)
    rows = np.repeat(np.arange(len(parts)), parts)
    starts = np.cumsum((0, *parts))
    below = np.arange(parts[0], starts[-1])
    above = below - np.repeat(parts[:-1], parts[1:])
    # The columns of two or more positions, as many as the second row.
    columns = [starts[:-1][parts > j] + j for j in range(sum(shape[1:2]))]
    perms, signs = [], []
    for images in itertools.product(*map(itertools.permutations, columns)):
        c = np.arange(starts[-1])
        for col, image in zip(columns, images):
            c[col] = image
        perms.append(c)
        signs.append((-1) ** sum(x > y for image in images
                                 for x, y in itertools.combinations(image, 2)))
    hooks = math.prod(part - j + sum(p > j for p in shape[i + 1:])
                      for i, part in enumerate(shape) for j in range(part))
    return (rows, below, above, np.array(perms), np.array(signs),
            math.factorial(sum(shape)) // hooks)


def _unitriangular_solve(u, c):
    """X with u X = c, exactly, for an upper unitriangular int64 u, by back
    substitution over u's rows that are not identity rows; RuntimeError for
    any other u: one with a row whose first entry off the identity lies on
    or left of the diagonal."""
    off = u - np.eye(len(u), dtype=np.int64)
    nonzero = off != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if rows.size and np.any(nonzero[rows].argmax(axis=1) <= rows):
        raise RuntimeError("a block's M is not unitriangular in label order")
    x = c.copy()
    for i in rows[::-1]:
        x[i] -= off[i] @ x
    return x


def _label_array(labels, v):
    """The v labels as a v x m int64 array: tuples of one length m through
    np.fromiter, and any other labels (integers, 1-tuples, or labels of
    unequal lengths, which np.array refuses) through np.array.  The lengths
    are checked first, as np.fromiter with a count would misalign tuples of
    unequal lengths whose entries add up to v m."""
    lengths = {len(t) if isinstance(t, tuple) else -1 for t in labels}
    m = lengths.pop() if len(lengths) == 1 else -1
    if m >= 0:
        return np.fromiter(itertools.chain.from_iterable(labels), np.int64,
                           v * m).reshape(v, m)
    return np.array(labels, dtype=np.int64).reshape(v, -1)


def _blocks(a, labels):
    """The (B_lambda, d_lambda) pairs of a square integer matrix a, of any
    integer dtype whose entries fit in int64; every B is int64.

    labels, if not None, gives each index of a an integer m-tuple; verified
    closed under permuting coordinates, which must be symmetries of a.  Then
    each partition lambda of m with J nonempty gives a pair (see the module
    docstring), and a is read in its own dtype.  Otherwise, and for m < 2,
    the one pair is a, widened to int64, with d = 1.  ValueError for a
    label count other than the order of a.
    """
    v = int(a.shape[0])
    if labels is not None and len(labels) != v:
        raise ValueError(f"{len(labels)} labels for a matrix of order {v}")
    if labels is not None and v:
        lab = _label_array(labels, v)
        if lab.shape[1] >= 2:
            return _isotypic(a, lab)
    return [(np.asarray(a, dtype=np.int64), 1)] if v else []


def _isotypic(a, lab):
    """The (B_lambda, d_lambda) of a, split by the v x m labels lab, built
    for every shape lambda in one pass (module docstring).

    The labels, less the smallest entry, are held in the narrowest signed
    integer type that holds m times their width, one byte each for SR(m, n)
    when m (n + 1) <= 128; ValueError if not even int64 does.  The S
    shapes' row-sorted labels are one (S, v, m) stack of them, and their
    M_lambda the column ranges of one v x K matrix M, K the sum of the |J|:
    one sort, one lookup of every orbit, one of every column permutation's
    image, one bincount and one product A M serve every shape.  A label is
    looked up by one int64 key while width**m < 2**62, by its record of m
    entries otherwise, and A M is float32 while delta max|M| < 2**24,
    float64 otherwise (module docstring).  The memory goes to the stack,
    the images looked up, two permuted copies of a in its own dtype (the
    symmetry check, one generator at a time), a float copy of a, M
    (v x K float64) and its copy and A M in the product's width.  Each
    block is then solved and checked exactly on its own, shape by shape."""
    v, m = lab.shape
    lo = lab.min()
    width = int(lab.max()) - int(lo) + 1
    if m * width > np.iinfo(np.int64).max:
        raise ValueError("label entries span too wide a range")
    shifted = (lab - lo).astype(np.min_scalar_type(-m * width))

    if width**m < 2**62:
        powers = width ** np.arange(m, dtype=np.int64)

        def keys(rows):  # sum of x_i width**i per row: distinct, in int64
            return rows.reshape(-1, m) @ powers
    else:
        def keys(rows):  # one opaque scalar per row of m entries
            return np.ascontiguousarray(rows.reshape(-1, m)).view(
                np.dtype((np.void, shifted.itemsize * m))).ravel()

    table = keys(shifted)
    order = np.argsort(table)
    table = table[order]
    if np.any(table[1:] == table[:-1]):
        raise ValueError("labels are not distinct")

    def find(rows):  # the index whose label is each row
        q = keys(rows)
        pos = np.minimum(np.searchsorted(table, q), v - 1)
        if np.any(table[pos] != q):
            raise ValueError("labels are not closed under coordinate "
                             "permutation")
        return order[pos]

    # A transposition and an m-cycle of the coordinates generate S_m.
    for p in find(shifted[:, [(1, 0, *range(2, m)),
                              (*range(1, m), 0)]]).reshape(v, 2).T:
        if not np.array_equal(a[p][:, p], a):
            raise ValueError("coordinate permutations are not a "
                             "symmetry of the matrix")
    delta = _norm(a)
    # The contents of the labels, from one label per S_m-orbit.
    ordered = (np.sort(shifted, axis=1) == shifted).all(axis=1)
    contents = {tuple(sorted(Counter(t).values(), reverse=True))
                for t in shifted[ordered].tolist()}
    shapes = list(_shapes(m, contents))
    rows, below, above, perms, signs, ds = zip(*map(_tableau, shapes))
    # Every shape's row-sorted labels in one sort: a label's entries move
    # into the bands of their rows, width apart, so that sorting the label
    # orders it within rows only.
    band = (np.array(rows) * width).astype(shifted.dtype)[:, None]
    rs = shifted + band
    rs.sort(axis=2)
    rs -= band
    # A label's R-orbit is in J iff each entry of rs below the first row
    # exceeds the one above it.
    in_j = np.array([(r[:, lower] > r[:, upper]).all(axis=1)
                     for r, lower, upper in zip(rs, below, above)])
    # Column j of M is the orbit of the j-th representative (a row-sorted
    # label in J), shape by shape and each shape's in numeric label order:
    # the order in which its rows of M at them are upper unitriangular.
    is_rep = in_j & (rs == shifted).all(axis=2)
    reps = np.flatnonzero(is_rep.any(axis=0))
    reps = reps[np.lexsort(shifted[reps].T[::-1])]
    shape_of, at = np.nonzero(is_rep[:, reps])
    reps = reps[at]
    total = len(reps)
    sizes = np.bincount(shape_of, minlength=len(shapes))
    col = np.zeros((len(shapes), v), dtype=np.int64)
    col[shape_of, reps] = np.arange(total)
    # M[x, j] sums sgn(c) over the c in C taking x into orbit j, that is
    # over the c y = x with y in orbit j (sgn(c) = sgn(c^-1)): one term for
    # each y in J and c in its shape's C.  The identity, each shape's first
    # c, takes y to itself; the images under the other c are looked up.
    shape_of, ys = np.nonzero(in_j)
    js = col[shape_of, find(rs[shape_of, ys])]
    first = np.cumsum([0, *map(len, signs)])  # each C's start, concatenated
    pair = np.repeat(np.arange(len(ys)), np.diff(first)[shape_of] - 1)
    c = np.concatenate([np.tile(np.arange(i + 1, j), n) for i, j, n in
                        zip(first, first[1:], np.bincount(shape_of))])
    xs = find(shifted[ys[pair, None], np.concatenate(perms)[c]])
    # mk is M, v x K.  amk is A M, whose partial sums are integers of at
    # most delta max|M|: in float32 below 2**24, and otherwise in float64,
    # exact while below 2**53 (checked with each block).
    mk = np.bincount(
        np.concatenate((ys, xs)) * total + np.concatenate((js, js[pair])),
        np.concatenate((np.ones(len(ys)), np.concatenate(signs)[c])),
        v * total).reshape(v, total)
    top = np.abs(mk).max(axis=0)  # max |M| in each column
    exact = np.float32 if delta * int(top.max()) < 2**24 else np.float64
    amk = a.astype(exact) @ mk.astype(exact)
    blocks = []
    for shape, d, end, k in zip(shapes, ds, np.cumsum(sizes), sizes):
        cols = slice(end - k, end)
        mj, amj, r = mk[:, cols], amk[:, cols], reps[cols]
        b = _unitriangular_solve(mj[r].astype(np.int64),
                                 amj[r].astype(np.int64))
        # M B, and A M in float64, are exact while every partial sum stays
        # below 2**53 (A M in float32 is exact by the choice of its width);
        # only then does the comparison prove M B = A M.
        bound = int(top[cols].max()) * max(delta, _norm(b.T))
        if bound >= 2**53 or not np.array_equal(mj @ b, amj):
            raise RuntimeError(f"block {shape} failed its exact check")
        blocks.append((b, d))
    if sum(d * len(b) for b, d in blocks) != v:
        raise RuntimeError("the blocks do not add up to the order")
    return blocks


def _hessenberg_charpoly(a, p):
    """Coefficients of det(xI - a) mod p, ascending, for a of order v, by
    Hessenberg reduction under similarity and the leading-minor
    recurrence, on balanced residues (module docstring).  a's integers are
    taken mod p with integer % once; every row update, column update and
    recurrence step then sums at most v products of two balanced residues
    and one residue more, and goes back through _reduce.  A balanced
    residue is 0 mod p only when it is 0, so the pivot is read as it
    stands.  Exact where charpoly_mod is."""
    v = len(a)
    h = _reduce(a % p, p)
    for k in range(v - 2):
        nz = np.flatnonzero(h[k + 1:, k])
        if not nz.size:
            continue
        r = k + 1 + int(nz[0])
        h[[k + 1, r]] = h[[r, k + 1]]
        h[:, [k + 1, r]] = h[:, [r, k + 1]]
        # Row operations R_i -= f_i R_(k+1), then the inverse column
        # operations C_(k+1) += sum f_i C_i keep h similar to a.
        f = _reduce(h[k + 2:, k] * pow(int(h[k + 1, k]) % p, -1, p), p)
        h[k + 2:, k:] = _reduce(h[k + 2:, k:] - np.outer(f, h[k + 1, k:]), p)
        h[:, k + 1] = _reduce(h[:, k + 1] + h[:, k + 2:] @ f, p)
    # q_k, the charpoly of h's leading k x k block, expanded along its last
    # column: q_(k+1) = x q_k - sum_(i<=k) h[i, k] cum_i q_i, where cum_i is
    # the product of the subdiagonal entries h[i+1, i] .. h[k, k-1], 1 for
    # i = k.
    q = np.zeros((v + 1, v + 1))
    q[0, 0] = 1
    cum = np.zeros(v)
    for k in range(v):
        cum[:k] = _reduce(cum[:k] * h[k, k - 1], p)
        cum[k] = 1
        q[k + 1, 1:k + 2] = q[k, :k + 1]
        q[k + 1, :k + 1] -= _reduce(h[:k + 1, k] * cum[:k + 1], p) \
            @ q[:k + 1, :k + 1]
        q[k + 1] = _reduce(q[k + 1], p)
    return [int(x) % p for x in q[v]]


def _power_sums(a, p):
    """tr(a^j) mod p for j = 1..v, v >= 1 the order of a, as a list.

    Baby steps a^1..a^b, b = isqrt(v), kept transposed, and giant steps
    a^0, a^b, ..., a^((g - 1) b), g = ceil(v / b): tr(a^(ib + j)) is the
    dot of the flattened a^(ib) and (a^j)^T, so one product of the two
    flattened stacks gives every trace.  The steps take b - 1 and at most
    g - 2 matrix products, about 2 sqrt(v) in all.

    Exact while v (p - 1)**2 < 2**53, which charpoly_mod checks.  a's
    entries are taken mod p with integer % first, and every power is a
    matrix of balanced residues (module docstring).  A power product sums
    v terms of at most ((p + 4)/2)**2 <= (p - 1)**2 / 2 for p >= 17, so
    it stays below 2**52, the range of _reduce; for p < 17, v < p keeps
    every sum, traces included, below 2**14.  A trace sums v**2 such
    terms, so the trace product runs in chunks of
    t = (2**53 - 1) // (p - 1)**2 >= v terms (at least MAX_ORDER at the
    engine's primes, so one chunk up to order 90): each chunk's traces are
    exact in float64, and their residues, taken with integer %, add up in
    int64.
    """
    v = len(a)
    b = math.isqrt(v)
    g = -(-v // b)
    af = _reduce(a % p, p)
    babies = np.empty((b, v, v))
    giants = np.zeros((g, v, v))
    flat, flat_t = giants.reshape(g, v * v), babies.reshape(b, v * v)
    flat[0, ::v + 1] = 1
    babies[0] = af.T
    for j in range(1, b):
        babies[j] = _reduce(babies[j - 1] @ af.T, p)
    if g > 1:
        giants[1] = babies[-1].T
    for i in range(2, g):
        giants[i] = _reduce(giants[i - 1] @ giants[1], p)
    t = (2**53 - 1) // (p - 1) ** 2
    traces = 0
    for lo in range(0, v * v, t):
        traces += (flat[:, lo:lo + t] @ flat_t[:, lo:lo + t].T) \
            .astype(np.int64) % p
    return (traces.ravel()[:v] % p).tolist()


def charpoly_mod(a, p):
    """Coefficients of det(xI - a) mod p, ascending, length v+1 (monic).

    Up to order _POWER_SUM_ORDER, from the power sums s_j = tr(a^j) mod p
    (_power_sums) by Newton's identities: the coefficient c_j of x^(v - j)
    has j c_j = -(s_1 c_(j-1) + ... + s_j c_0), and j <= v < p is
    invertible mod p.  Above it, by Hessenberg reduction and the
    leading-minor recurrence (_hessenberg_charpoly).  The power sums'
    stacks hold about 2 sqrt(v) matrices, 25 MB at order 300, where the
    Hessenberg route needs two; with one BLAS thread the two routes stay
    within about 10 % of each other in CPU time from order 200 to 400 on
    random matrices, 57-76 ms against 62-87 ms at order 300 (2-vCPU x86-64
    VM).

    Both routes are exact for p > v with v (p - 1)**2 < 2**53, so for every
    prime in PRIMES at every order up to MAX_ORDER: a's integers are taken
    mod p with integer % once, and each float64 product of balanced
    residues, with at most one residue added, sums at most v terms of at
    most ((p + 4)/2)**2 <= (p - 1)**2 / 2 for p >= 17 (v < p keeps every
    sum below 2**14 for smaller p), so stays in the range of _reduce (the
    power sums' trace product in chunks, _power_sums); Newton's identities
    divide only by j <= v < p.  ValueError for any other p, and for an a
    that is not a square integer ndarray.
    """
    _check_matrix(a)
    v = int(a.shape[0])
    p = operator.index(p)
    if v * (p - 1) ** 2 >= 2**53 or p <= v:
        raise ValueError(f"p = {p} is outside charpoly_mod's exact range "
                         f"for order {v}")
    if v > _POWER_SUM_ORDER:
        return _hessenberg_charpoly(a, p)
    s = _power_sums(a, p) if v else []
    c = [1 % p]
    for j in range(1, v + 1):
        c.append(-sum(map(operator.mul, reversed(c), s)) % p
                 * pow(j, -1, p) % p)
    return c[::-1]


def _divide_out(coeffs, c, p):
    """(e, q): the multiplicity e of the root c of the mod-p polynomial
    coeffs (ascending), and the quotient q = coeffs / (x - c)**e, reduced
    mod p (coeffs itself when e = 0)."""
    e = 0
    while len(coeffs) > 1:
        # Synthetic division by (x - c), descending order internally; the
        # accumulator is both quotient coefficient and running remainder.
        rem, quot = 0, []
        for coef in reversed(coeffs):
            rem = (rem * c + coef) % p
            quot.append(rem)
        if rem:
            break
        e += 1
        coeffs = quot[-2::-1]
    return e, coeffs


def root_multiplicity(coeffs, c, p):
    """Multiplicity of the root c in the mod-p polynomial (ascending coeffs)."""
    return _divide_out([x % p for x in coeffs], c % p, p)[0]


def _check_matrix(a):
    """ValueError unless a is a square ndarray of integer or bool dtype."""
    if not isinstance(a, np.ndarray) or a.dtype.kind not in "biu":
        raise ValueError(f"expected an integer matrix, got "
                         f"{getattr(a, 'dtype', type(a).__name__)}")
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")


def _check_order(v):
    """ValueError for a block order v above MAX_ORDER."""
    if v > MAX_ORDER:
        raise ValueError(f"block order {v} exceeds {MAX_ORDER}, the largest"
                         f" for which float64 products mod p stay exact")


def _norm(b):
    """||b||, the max absolute row sum of the integer matrix b (any integer
    dtype; 0 if empty), exact.  An unsigned b is its own magnitudes, summed
    as it stands; a signed one's are taken in int64 and read as uint64,
    exact for -2**63 too (np.abs(np.int8(-128)) is -128).  When the row
    length times the largest magnitude is below 2**64, no uint64 row sum
    wraps; otherwise the rows are summed as Python ints."""
    if not b.size:
        return 0
    mag = b if b.dtype.kind == "u" else \
        np.abs(b.astype(np.int64, copy=False)).view(np.uint64)
    if int(mag.max()) * mag.shape[1] < 2**64:
        return int(mag.sum(axis=1, dtype=np.uint64).max())
    return max(sum(abs(int(x)) for x in row) for row in b.tolist())


def _check_norm(norm):
    """ValueError for a block norm with 2 norm >= PRIMES[3], the smallest
    prime of the root screen: two of the candidates -norm..norm would then
    share a residue mod that prime."""
    if 2 * norm >= PRIMES[3]:
        raise ValueError(f"block norm {norm} exceeds {PRIMES[3] // 2}, so "
                         f"the root screen's candidates collide mod "
                         f"{PRIMES[3]}")


def _reduce(x, p):
    """A balanced residue of x mod p, as float64: x - p rint(x fl(1/p)),
    congruent to x and at most p/2 + 2 in magnitude, for an array of
    integers (float64 or int64) below 2**52 in magnitude (module
    docstring)."""
    q = x * (1.0 / p)
    np.rint(q, out=q)
    q *= p
    return np.subtract(x, q, out=q)


def _exact_chunks(b, roots, norm):
    """prod over roots of (b - cI) as a list of (matrix, bound) chunks, the
    product of whose matrices it is: each matrix, a polynomial in b (so the
    chunks commute), holds exact integers in float64, and each bound, a
    Python int below 2**53, is at least its max absolute row sum.  No roots
    give the one chunk (I, 1).  ValueError, before any product, for a root
    c with ||b|| + |c| >= 2**53.

    The roots are taken alternately from the top and the bottom of their
    descending list.  A running product P, exact in float64 with bound
    beta, takes the next factor as P b - c P while beta (||b|| + |c|) is
    below 2**53: every partial sum of P b is at most beta ||b|| and each
    entry of c P at most beta |c|, so P b and P b - c P are integers below
    2**53, exact, and as the row-sum norm is submultiplicative,
    beta (||b|| + |c|) bounds the new P.  Once that bound reaches 2**53,
    beta is measured again as P's max absolute row sum, exact as every
    partial sum stays below beta; if the bound still reaches 2**53, P
    closes a chunk and the next factor starts a new P.  norm is ||b||,
    exact (_norm)."""
    v = len(b)
    desc = sorted(map(operator.index, roots), reverse=True)
    if desc and norm + max(desc[0], -desc[-1]) >= 2**53:
        raise ValueError(f"norm {norm} and root {max(desc, key=abs)} reach "
                         "2**53, past the exact float64 range")
    eye = np.eye(v)
    bf = b.astype(np.float64)
    chunks, run, beta = [], eye, 1
    for c in itertools.islice(itertools.chain(*zip(desc, desc[::-1])),
                              len(desc)):
        f = norm + abs(c)
        if run is not eye and beta * f >= 2**53:
            beta = int(np.abs(run).sum(axis=1).max())
            if beta * f >= 2**53:
                chunks.append((run, beta))
                run, beta = eye, 1
        if run is eye:
            run, beta = bf - c * eye, f
        else:
            run, beta = run @ bf - c * run, beta * f
    if run is not eye or not chunks:
        chunks.append((run, beta))
    return chunks


def _join_mod(chunks, p):
    """The product of the chunks' matrices mod p, in order, as float64
    balanced residues: each chunk's exact integers are taken mod p with
    integer % on int64, and each product of two matrices of balanced
    residues sums v <= MAX_ORDER terms of at most ((p + 4)/2)**2, below
    2**52, the range of _reduce (module docstring)."""
    residues = [_reduce(m.astype(np.int64) % p, p) for m, _ in chunks]
    return functools.reduce(lambda x, y: _reduce(x @ y, p), residues)


def annihilation_proved(b, roots, norm=None):
    """True iff prod over roots of (b - cI) is proven zero over Z.

    The factors are multiplied exactly (_exact_chunks).  A product that
    closes one chunk is zero iff that chunk is, with no prime.  Otherwise
    the chunks are joined mod PRIMES in turn (_join_mod), False at the first
    nonzero residue, until the primes' product exceeds twice the product of
    the chunks' bounds, which bounds every entry of the whole product.  A
    nonempty b with no roots fails the proof; an empty b passes.  ValueError
    for b not a square integer ndarray or of order above MAX_ORDER (float64
    products mod p may round), and for a root c with ||b|| + |c| >= 2**53
    (b - cI may not be exact in float64); the engine's blocks never come
    near it, as its candidates have |c| <= ||b|| < PRIMES[3] / 2.

    norm, if given, must be b's exact max absolute row sum, _norm(b), which
    the exactness of every float64 product rests on: the spectrum engine
    passes the norm it has already taken for each block, so the block is
    summed once.  Without it, _norm(b) is taken here."""
    _check_matrix(b)
    _check_order(len(b))
    chunks = _exact_chunks(b, roots, _norm(b) if norm is None else norm)
    if len(chunks) == 1:
        return not chunks[0][0].any()
    bound = 2 * math.prod(beta for _, beta in chunks)
    modulus = 1
    for p in PRIMES:
        if _join_mod(chunks, p).any():
            return False
        modulus *= p
        if modulus > bound:
            return True
    return False


class IncompleteSpectrum(Exception):
    """The integer eigenvalues do not account for every dimension: the
    spectrum is not integral.

    residual is the missing dimension count.  pairs holds the integer
    eigenvalues found, each block's d_lambda times.  Raised by
    certified_symmetric_spectrum (and so by integral_spectrum and
    quotient_spectrum), their multiplicities are mod-p upper bounds;
    linalg.try_integral_spectrum gives exact ones.
    """

    def __init__(self, pairs, residual):
        self.pairs = tuple(pairs)
        self.residual = residual
        super().__init__(
            f"integral eigenvalues cover {sum(m for _, m in pairs)} dimensions, "
            f"{residual} unaccounted for")


def _integer_roots(chi, norm, p):
    """Descending (c, e) pairs of the integers c in [-norm, norm] that are
    roots of the monic mod-p polynomial chi (ascending, reduced), e being
    c's multiplicity mod p.  Each candidate divides what the earlier roots
    left of chi, and the screen stops once that is constant."""
    pairs = []
    for c in range(norm, -norm - 1, -1):
        if len(chi) == 1:
            break
        e, chi = _divide_out(chi, c, p)
        if e:
            pairs.append((c, e))
    return pairs


def _block_spectrum(b, norm):
    """Descending (eigenvalue, multiplicity) pairs of the block b's integer
    eigenvalues, proven exact if they add up to its order (steps 1-3 of the
    module docstring); RuntimeError if the proof fails at four primes.
    norm is ||b||, which bounds the candidates."""
    for p in PRIMES[:4]:
        pairs = _integer_roots(charpoly_mod(b, p), norm, p)
        if sum(e for _, e in pairs) < len(b) or \
                annihilation_proved(b, [c for c, _ in pairs], norm):
            return pairs
    raise RuntimeError("spectrum certificate failed for the first four primes")


def certified_symmetric_spectrum(a, labels=None):
    """Exact integer spectrum of a square integer matrix, of any integer
    dtype whose entries fit in int64 (uint8 for an adjacency matrix).

    Returns descending (eigenvalue, multiplicity) pairs, proven exact.
    labels, if given, are integer m-tuples whose coordinate permutations are
    symmetries of a: the work splits into one block per partition of m.
    Each block is certified as a matrix of its own, every integer within
    its max absolute row sum a candidate, and the answer is the same as
    without labels.  Raises IncompleteSpectrum when the matrix provably has
    non-integer eigenvalues, and RuntimeError when a block's annihilation
    certificate fails for each of the first four primes, as it does for
    every matrix that is not diagonalizable, or when a block's M is not
    unitriangular in label order or fails its exact check.  Raises
    ValueError for an a that is not a square integer ndarray, for labels not
    one per index, no such symmetry or with entries spanning more than
    (2**63 - 1) / m integers, for a block order above MAX_ORDER, and for a
    block whose max absolute row sum ||B|| has 2 ||B|| >= PRIMES[3], where
    two candidates would share a residue mod the smallest of the four primes
    the root screen tries; every check runs before any block is certified.
    """
    _check_matrix(a)
    blocks = _blocks(a, labels)
    _check_order(max((len(b) for b, _ in blocks), default=0))
    norms = [_norm(b) for b, _ in blocks]
    _check_norm(max(norms, default=0))
    found = Counter()
    for (b, weight), norm in zip(blocks, norms):
        for c, e in _block_spectrum(b, norm):
            found[c] += weight * e
    pairs = sorted(found.items(), reverse=True)
    residual = int(a.shape[0]) - sum(found.values())
    if residual:
        raise IncompleteSpectrum(pairs, residual)
    return pairs
