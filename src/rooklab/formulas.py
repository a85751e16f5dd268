"""Closed-form spectra and counting formulas for simplicial rook graphs.

Every function here is a pure predictor: it evaluates a formula at concrete
(m, n) and returns numbers or a Spectrum.  Nothing in this module looks at
an actual graph, so each prediction can be compared against the exact
spectrum computed elsewhere.  The families named in CONJECTURED (n = 5 and
the m = 4 generator) are compared and reported; every other family is
proved and must match exactly.

Multiplicity bookkeeping follows the convention that multiplicities of
equal eigenvalues are added and eigenvalues of multiplicity 0 are dropped.
With that convention the small-n families below are valid for every m >= 1
(for tiny m some printed terms cancel; Spectrum performs the merge).
"""

from __future__ import annotations

import math

from .graphs import sr_order
from .linalg import Spectrum


class UnsupportedParameters(ValueError):
    """Parameters fall outside the stated range of a formula."""


def binom(a: int, b: int) -> int:
    """Binomial coefficient, 0 whenever a < 0, b < 0 or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


def mahonian(m: int, n: int) -> int:
    """Number of permutations of Sym(m) with exactly n inversions.

    Coefficient of t^n in prod_{i=2}^m (1 + t + ... + t^{i-1}); 0 when
    n exceeds binom(m,2).  Computed by polynomial multiplication over the
    integers, truncated at degree n.
    """
    if m < 1 or n < 0:
        raise UnsupportedParameters(f"mahonian undefined for m={m}, n={n}")
    coeffs = [1]
    for i in range(2, m + 1):
        nxt = [0] * min(len(coeffs) + i - 1, n + 1)
        for j, c in enumerate(coeffs):
            for k in range(i):
                if j + k < len(nxt):
                    nxt[j + k] += c
        coeffs = nxt
    return coeffs[n] if n < len(coeffs) else 0


def smallest_eigenvalue_formula(m: int, n: int) -> int:
    """Smallest eigenvalue of SR(m,n): max(-n, -binom(m,2))."""
    if m < 1 or n < 0:
        raise UnsupportedParameters(f"no vertices for m={m}, n={n}")
    return max(-n, -(m * (m - 1)) // 2)


def bottom_multiplicity(m: int, n: int) -> int:
    """Multiplicity of the eigenvalue -binom(m,2) in SR(m,n).

    Equals binom(n - binom(m-1,2), m-1); zero exactly when n < binom(m,2).
    """
    if m < 1 or n < 0:
        raise UnsupportedParameters(f"no vertices for m={m}, n={n}")
    return binom(n - binom(m - 1, 2), m - 1)


def johnson_spectrum(v: int, n: int) -> Spectrum:
    """Spectrum of the Johnson graph J(v,n).

    Eigenvalues (n-i)(v-n-i) - i with multiplicity binom(v,i) - binom(v,i-1)
    for 0 <= i <= n.  For n > v/2 some printed multiplicities are negative
    and cancel under the merge convention (J(v,n) = J(v,v-n)).
    """
    if not 0 <= n <= v:
        raise UnsupportedParameters(f"J({v},{n}) undefined")
    pairs = [((n - i) * (v - n - i) - i, binom(v, i) - binom(v, i - 1))
             for i in range(n + 1)]
    return Spectrum(pairs)


def common_quotient_spectrum(m: int, n: int) -> Spectrum:
    """Common part of the spectra of SR(m,n) and J(m+n-1,n).

    Eigenvalues (n-i)(m-i) - n with multiplicity binom(m,i) for
    0 <= i <= min(m,n)-1, plus -n with multiplicity binom(m,n) - 1 when
    n < m.  Total multiplicity is sum_{i=1}^{n} binom(m,i).
    """
    if m < 1 or n < 1:
        raise UnsupportedParameters(f"common quotient undefined for m={m}, n={n}")
    pairs = [((n - i) * (m - i) - n, binom(m, i)) for i in range(min(m, n))]
    if n < m:
        pairs.append((-n, binom(m, n) - 1))
    return Spectrum(pairs)


def _rest(pairs, m, n):
    """Multiplicity left for the final eigenvalue once the others are listed."""
    return sr_order(m, n) - sum(mult for _, mult in pairs)


def _family_n0(m, n):
    return [(0, 1)]


def _family_n1(m, n):
    return [(m - 1, 1), (-1, m - 1)]


def _family_n2(m, n):
    pairs = [(2 * m - 2, 1), (m - 3, m)]
    return pairs + [(-2, _rest(pairs, m, n))]


def _family_n3(m, n):
    return [
        (3 * m - 3, 1),
        (2 * m - 5, m),
        (m - 3, m - 1),
        (m - 5, binom(m, 2)),
        (-3, m * (m * m - 7) // 6),
    ]


def _family_n4(m, n):
    return [
        (4 * m - 4, 1),
        (3 * m - 7, m),
        (2 * m - 5, m),
        (2 * m - 8, binom(m, 2)),
        (m - 4, binom(m, 2) - 1),
        (m - 6, binom(m, 2)),
        (m - 7, binom(m, 3)),
        (-4, m * (m ** 3 + 2 * m * m - 13 * m - 14) // 24),
    ]


def _family_n5(m, n):
    pairs = [
        (5 * m - 5, 1),
        (4 * m - 9, m),
        (3 * m - 7, m),
        (3 * m - 11, binom(m, 2)),
        (2 * m - 5, m - 1),
        (2 * m - 7, binom(m, 2)),
        (2 * m - 9, binom(m, 2)),
        (2 * m - 11, binom(m, 3)),
        (m - 5, binom(m, 3) - 1),
        (m - 6, m * (m - 2)),
        (m - 8, 2 * binom(m, 3)),
        (m - 9, binom(m, 4)),
    ]
    return pairs + [(-5, _rest(pairs, m, n))]


def _family_m3(m, n):
    # (2n)^1, b^3 for -2 <= b <= n-2, (-3)^binom(n-1,2), minus the printed
    # exceptions: for n = 2a+3 remove (a-1)^3 and a^1, for n = 2a+4 remove
    # a^3 and (a-1)^1.
    pairs = [(2 * n, 1)]
    pairs += [(b, 3) for b in range(-2, n - 1)]
    pairs.append((-3, binom(n - 1, 2)))
    if n % 2 == 1:
        a = (n - 3) // 2
        pairs += [(a - 1, -3), (a, -1)]
    else:
        a = (n - 4) // 2
        pairs += [(a, -3), (a - 1, -1)]
    return pairs


def _down(a, first_mult, b):
    """The a^first ↓ b rule: eigenvalues a down to b, first multiplicity as
    given, each following multiplicity 2 larger when the new eigenvalue is
    even and 10 larger when odd.  Empty when a < b (then first_mult is
    never used, and may be nonsensical as printed)."""
    if a < b:
        return []
    pairs = [(a, first_mult)]
    mult = first_mult
    for c in range(a - 1, b - 1, -1):
        mult += 2 if c % 2 == 0 else 10
        pairs.append((c, mult))
    return pairs


def _family_m4(m, n):
    pairs = [(3 * n, 1)]
    b = 2 * n - 3
    while b >= n - 1:
        pairs.append((b, 4))
        b -= 2
    if n % 2 == 0:
        pairs += [(n - 4, 3 * n - 1), (n - 6, 6)]
        pairs += _down(n - 7, 16, (n - 8) // 2)
    else:
        pairs += [(n - 2, 3), (n - 4, 3 * n - 3), (n - 6, 9)]
        pairs += _down(n - 7, 12, (n - 7) // 2)
    q = (n - 10) // 3  # ceil(n/3 - 4)
    s = n // 4
    if n % 4 == 0:
        pairs += [(2 * s - 5, 3 * n - 12)]
        pairs += _down(2 * s - 6, 3 * n - 26, q)
    elif n % 4 == 1:
        pairs += [(2 * s - 4, 3 * n - 7), (2 * s - 5, 3 * n - 21)]
        pairs += _down(2 * s - 6, 3 * n - 23, q)
    elif n % 4 == 2:
        pairs += [(2 * s - 4, 3 * n - 16)]
        pairs += _down(2 * s - 5, 3 * n - 22, q)
    else:
        pairs += [(2 * s - 3, 3 * n - 3), (2 * s - 4, 3 * n - 25)]
        pairs += _down(2 * s - 5, 3 * n - 19, q)
    if n % 3 == 0:
        pairs.append((n // 3 - 4, 1))
    t = n // 6
    r = n % 6
    if r == 0:
        pairs += [(2 * t - 5, 4 * n - 12), (2 * t - 6, 4 * n - 16)]
        pairs += _down(2 * t - 7, 4 * n - 16, -5)
    elif r == 1:
        pairs += [(2 * t - 4, 4 * n - 32), (2 * t - 5, 4 * n - 7),
                  (2 * t - 6, 4 * n - 20)]
        pairs += _down(2 * t - 7, 4 * n - 14, -5)
    elif r == 2:
        pairs += [(2 * t - 4, 4 * n - 24), (2 * t - 5, 4 * n - 8),
                  (2 * t - 6, 4 * n - 21)]
        pairs += _down(2 * t - 7, 4 * n - 12, -5)
    elif r == 3:
        pairs += [(2 * t - 4, 4 * n - 16), (2 * t - 5, 4 * n - 12)]
        pairs += _down(2 * t - 6, 4 * n - 20, -5)
    elif r == 4:
        pairs += [(2 * t - 3, 4 * n - 28), (2 * t - 4, 4 * n - 11),
                  (2 * t - 5, 4 * n - 16)]
        pairs += _down(2 * t - 6, 4 * n - 18, -5)
    else:
        pairs += [(2 * t - 3, 4 * n - 20), (2 * t - 4, 4 * n - 12),
                  (2 * t - 5, 4 * n - 17)]
        pairs += _down(2 * t - 6, 4 * n - 16, -5)
    pairs.append((-6, binom(n - 3, 3)))
    return pairs


# family name -> (parameter check, generator)
_FAMILIES = {
    "n0": (lambda m, n: n == 0 and m >= 1, _family_n0),
    "n1": (lambda m, n: n == 1 and m >= 1, _family_n1),
    "n2": (lambda m, n: n == 2 and m >= 1, _family_n2),
    "n3": (lambda m, n: n == 3 and m >= 1, _family_n3),
    "n4": (lambda m, n: n == 4 and m >= 1, _family_n4),
    "n5": (lambda m, n: n == 5 and m >= 1, _family_n5),
    "m3": (lambda m, n: m == 3 and n >= 1, _family_m3),
    "m4": (lambda m, n: m == 4 and n >= 6 and n != 7, _family_m4),
}

# The families whose closed form is conjectured, not proved.
CONJECTURED = frozenset({"n5", "m4"})


def predicted_spectrum(family: str, m: int, n: int) -> Spectrum:
    """Closed-form spectrum of SR(m,n) from one of the named families.

    Families n0..n5 fix n and work for every m >= 1; m3 fixes m=3 (n >= 1)
    and m4 fixes m=4 (n >= 6, n != 7).  Raises UnsupportedParameters when
    (m, n) falls outside the family's range.
    """
    if family not in _FAMILIES:
        raise UnsupportedParameters(f"unknown family {family!r}")
    check, generate = _FAMILIES[family]
    if not check(m, n):
        raise UnsupportedParameters(f"family {family} does not cover (m={m}, n={n})")
    spectrum = Spectrum(generate(m, n))
    if spectrum.total != sr_order(m, n):
        raise RuntimeError(
            f"family {family} at (m={m}, n={n}): total {spectrum.total} != vertex count")
    return spectrum


def independence_upper_bound(m: int) -> int:
    """Edge-covering upper bound for the independence number of SR(m,3)."""
    if m < 1:
        raise UnsupportedParameters(f"m={m}")
    return m + (m * ((m - 3) // 2) + 1) // 3


def independence_formula(m: int, n: int) -> int:
    """Independence number of SR(m,n) for the solved cases m=3 or n=3.

    alpha(3,n) = floor((2n+3)/3); alpha(m,3) splits into four residue
    classes mod 6.  Both expressions agree at (3,3).
    """
    if m == 3 and n >= 0:
        return (2 * n + 3) // 3
    if n == 3 and m >= 1:
        r = m % 6
        if r in (1, 5):
            return (m + 1) * (m + 2) // 6
        if r == 3:
            return m * (m + 3) // 6
        if r in (0, 4):
            return m * (m + 2) // 6
        return (m * m + 2 * m - 2) // 6
    raise UnsupportedParameters(f"no closed form for (m={m}, n={n})")
