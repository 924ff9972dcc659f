"""Exact tables of classical and degenerate combinatorial numbers.

Integer-valued tables (factorials, binomials, Stirling and Lah numbers)
return Python ints; everything parameterized by the degeneracy parameter
``lam`` returns Fractions, or the stored polynomial of a whole row: row n of
the degenerate Stirling numbers is the degenerate Bell polynomial
phi_{n,lam}(x) = sum_k {n brace k}_lam x**k, kept once as a Polynomial. Tables
grow on demand; only ``hooks.clear_caches`` empties them.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from . import hooks
from .poly import Polynomial, weighted_sum
from .rational import ScaledRow, as_rational, scaled


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError("factorial needs n >= 0")
    return hooks.shifted("factorial", (n,), math.factorial(n))


def binomial(n: int, k: int) -> int:
    """Binomial coefficient, generalized to any integer upper index.

    C(n, k) = n(n-1)...(n-k+1) / k! for k >= 0, and 0 for k < 0. For
    negative n this gives C(n, k) = (-1)**k C(-n+k-1, k).
    """
    if k < 0:
        return hooks.shifted("binomial", (n, k), 0)
    if n >= 0:
        val = math.comb(n, k) if k <= n else 0
    else:
        val = (-1) ** k * math.comb(-n + k - 1, k)
    return hooks.shifted("binomial", (n, k), val)


# Row-by-row tables for the Stirling recurrences; row n holds entries 0..n.
_s1_rows: list[list[int]] = hooks.memo([])
_s2_rows: list[list[int]] = hooks.memo([])


def _grow_s1(n: int) -> list[int]:
    while len(_s1_rows) <= n:
        m = len(_s1_rows)
        # row m-1 padded with a zero, so prev[k] exists for k = 0..m
        prev = _s1_rows[-1] + [0] if m else []
        row = [int(m == 0)]
        row.extend(prev[k - 1] - (m - 1) * prev[k] for k in range(1, m + 1))
        _s1_rows.append(row)
    return _s1_rows[n]


def _grow_s2(n: int) -> list[int]:
    while len(_s2_rows) <= n:
        m = len(_s2_rows)
        prev = _s2_rows[-1] + [0] if m else []
        row = [int(m == 0)]
        row.extend(prev[k - 1] + k * prev[k] for k in range(1, m + 1))
        _s2_rows.append(row)
    return _s2_rows[n]


def stirling1(n: int, k: int) -> int:
    """Signed Stirling numbers of the first kind: (x)_n = sum_k s(n,k) x**k."""
    if n < 0 or k < 0:
        raise ValueError("stirling1 needs n, k >= 0")
    val = _grow_s1(n)[k] if k <= n else 0
    return hooks.shifted("stirling1", (n, k), val)


def stirling2(n: int, k: int) -> int:
    """Stirling numbers of the second kind (set partitions into k blocks)."""
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs n, k >= 0")
    val = _grow_s2(n)[k] if k <= n else 0
    return hooks.shifted("stirling2", (n, k), val)


def lah(n: int, k: int) -> int:
    """Lah numbers: rising factorials expanded in falling factorials."""
    if n < 0 or k < 0:
        raise ValueError("lah needs n, k >= 0")
    if k > n or (k == 0 and n > 0):
        val = 0
    elif n == 0:
        val = 1
    else:
        val = math.factorial(n) // math.factorial(k) * math.comb(n - 1, k - 1)
    return hooks.shifted("lah", (n, k), val)


# Rows of the degenerate falling factorials per lam, keyed by its numerator
# and denominator (a tuple of ints hashes without Fraction.__hash__); row n is
# (x)_{n,lam}.
_ff_rows: dict[tuple[int, int], list[Polynomial]] = hooks.memo(
    defaultdict(lambda: [Polynomial([1])])
)


def falling_factorial_polys(n: int, lam) -> list[Polynomial]:
    """(x)_{m,lam} for m = 0..n (at least): the memoised list itself.

    A caller that reads many degrees slices it once; it does not change it.
    """
    if n < 0:
        raise ValueError("falling factorial needs n >= 0")
    lam = as_rational(lam)
    u, v = lam.numerator, lam.denominator
    rows = _ff_rows[u, v]
    while len(rows) <= n:
        m = len(rows)
        # with lam = u/v, row m = (v x - (m-1) u) row(m-1) over v den(m-1)
        prev = rows[m - 1]
        p = prev.nums
        root = (m - 1) * u
        row = [-root * p[0]]
        row.extend(v * p[k - 1] - root * p[k] for k in range(1, m))
        row.append(v * p[m - 1])
        rows.append(Polynomial.from_scaled(row, v * prev.den))
    return rows


def falling_factorial_poly(n: int, lam) -> Polynomial:
    """The degenerate falling factorial (x)_{n,lam} = x(x-lam)...(x-(n-1)lam).

    lam = 1 gives the classical falling factorial, lam = 0 gives x**n.
    """
    return falling_factorial_polys(n, lam)[n]


# The order-r Fubini weights C(k+r-1, k) k!, k = 0, 1, ..., one row per r,
# grown on demand. They are read through binomial and factorial, so under
# hooks.perturb they may be Fractions.
_order_weights: dict[int, ScaledRow] = hooks.memo(defaultdict(ScaledRow))


def order_weights(size: int, r: int) -> ScaledRow:
    """C(k+r-1, k) k! for k < size (at least): the memoised row; read a prefix."""
    row = _order_weights[r]
    if len(row) < size:
        row.extend_ratios((binomial(k + r - 1, k) * factorial(k), 1) for k in range(len(row), size))
    return row


def weighted_by_order(p: Polynomial, r: int) -> Polynomial:
    """sum_k C(k+r-1, k) k! p_k x**k, from the integer numerators of p."""
    weights = order_weights(len(p.nums), r)
    nums = [c * w for c, w in zip(p.nums, weights.nums)]
    return Polynomial.from_scaled(nums, p.den * weights.den)


# Rows of the degenerate Stirling numbers per (lam numerator, lam
# denominator); row n is the degenerate Bell polynomial phi_{n,lam}, whose
# coefficient of x**k is {n brace k}_lam.
_s2_degenerate_rows: dict[tuple[int, int], list[Polynomial]] = hooks.memo(
    defaultdict(list)
)


def stirling2_degenerate_row(n: int, lam) -> Polynomial:
    """{n brace k}_lam for k = 0..n (see stirling2_degenerate): the stored phi_{n,lam}."""
    if n < 0:
        raise ValueError("stirling2_degenerate_row needs n >= 0")
    lam = as_rational(lam)
    rows = _s2_degenerate_rows[lam.numerator, lam.denominator]
    if len(rows) <= n:
        s2 = [scaled([stirling2(j, k) for k in range(j + 1)]) for j in range(n + 1)]
        powers = [lam**i for i in range(n + 1)]
        for m in range(len(rows), n + 1):
            nums, den = weighted_sum(
                (*s2[j], powers[m - j] * stirling1(m, j)) for j in range(m + 1)
            )
            rows.append(Polynomial.from_scaled(nums, den))
    return rows[n]


def stirling2_degenerate(n: int, k: int, lam) -> Fraction:
    """Degenerate Stirling numbers of the second kind.

    Connection coefficients of (x)_{n,lam} in the classical falling-factorial
    basis: (x)_{n,lam} = sum_k {n brace k}_lam (x)_k. Row n composes the two
    classical basis changes: one poly.weighted_sum over m of the rows
    [S(m, k)]_k, weighted by lam**(n-m) s(n, m).
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2_degenerate needs n, k >= 0")
    return stirling2_degenerate_row(n, lam).coefficient(k)


def _partition_multiplicities(n: int, k: int, part: int):
    """Yield [(size, count), ...] with sum(count) = k, sum(size*count) = n."""
    if k == 0:
        if n == 0:
            yield []
        return
    if part < 1 or n < k or n > k * part:
        return
    for c in range(min(k, n // part), -1, -1):
        for rest in _partition_multiplicities(n - c * part, k - c, part - 1):
            yield [(part, c)] + rest if c else rest


# The terms of B_{n,k} per (n, k), one per multiplicity vector: the
# coefficient n! / prod(l_i! (i!)**l_i) and the pairs (i - 1, l_i), i - 1
# indexing x_i in xs. The coefficients are read through factorial, so under
# hooks.perturb they may be Fractions, or None where a zeroed factorial makes
# the divisor 0: such a coefficient has no value.
_bell_terms: dict[tuple[int, int], list[tuple]] = hooks.memo({})


def _partial_bell_terms(n: int, k: int) -> list[tuple]:
    key = n, k
    if key not in _bell_terms:
        terms = []
        for mult in _partition_multiplicities(n, k, n - k + 1):
            div = 1
            for size, count in mult:
                div *= factorial(count) * factorial(size) ** count
            coef = factorial(n)
            if not div:
                coef = None
            elif type(coef) is int and type(div) is int:
                coef //= div
            else:
                coef = Fraction(coef) / div
            terms.append((coef, tuple((size - 1, count) for size, count in mult)))
        _bell_terms[key] = terms
    return _bell_terms[key]


def partial_bell(n: int, k: int, xs) -> Fraction:
    """Partial (incomplete) exponential Bell polynomial B_{n,k}(x_1, x_2, ...).

    Sums n! / prod(l_i! * (i!)**l_i) * prod(x_i**l_i) over all multiplicity
    vectors with sum l_i = k and sum i*l_i = n. Needs xs to supply at least
    x_1..x_{n-k+1}. Every term has degree k in the xs, so with x_i = a_i / d
    over their common denominator the sum runs on the ints a_i and is
    divided by d**k once.
    """
    if n < 0 or not 0 <= k <= n:
        raise ValueError("partial_bell needs 0 <= k <= n")
    xs = [as_rational(x) for x in xs]
    if n > 0 and len(xs) < n - k + 1:
        raise ValueError(f"partial_bell(n={n}, k={k}) needs {n - k + 1} arguments")
    nums, den = scaled(xs[: n - k + 1])
    num = partial_bell_numerator(n, k, nums)
    if num is None:
        raise ZeroDivisionError(f"B_{{{n},{k}}} has a partition coefficient over 0")
    return Fraction(num, den**k)


def partial_bell_numerator(n: int, k: int, nums) -> int:
    """d**k B_{n,k}(x_1, x_2, ...) for x_i = nums[i - 1] / d, any d != 0.

    The sum over partitions on the integer numerators alone; under
    hooks.perturb its coefficients, and so the result, may be Fractions, and
    it is None where a coefficient has no value.
    """
    total = 0
    for coef, mult in _partial_bell_terms(n, k):
        if coef is None:
            return None
        for i, count in mult:
            coef *= nums[i] ** count
        total += coef
    return total
