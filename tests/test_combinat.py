"""Combinatorial tables against independent brute-force oracles."""

import math
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from fubini import combinat, hooks
from fubini.combinat import (
    binomial,
    factorial,
    falling_factorial_poly,
    lah,
    partial_bell,
    stirling1,
    stirling2,
    stirling2_degenerate,
)
from fubini.identities import default_config
from fubini.poly import Polynomial

F = Fraction


# --- oracles, deliberately naive ---


def expand_falling_product(n):
    """Coefficients of x(x-1)...(x-n+1) by direct convolution."""
    coeffs = [1]
    for j in range(n):
        shifted = [0] + coeffs
        scaled = [-j * c for c in coeffs] + [0]
        coeffs = [a + b for a, b in zip(shifted, scaled)]
    return coeffs


def set_partitions(elems):
    if not elems:
        yield []
        return
    first, rest = elems[0], elems[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def count_partitions_into_k(n, k):
    return sum(1 for p in set_partitions(list(range(n))) if len(p) == k)


def classical_falling(x, k):
    v = F(1)
    for j in range(k):
        v *= x - j
    return v


def classical_rising(x, k):
    v = F(1)
    for j in range(k):
        v *= x + j
    return v


# --- basic tables ---


def test_factorial_matches_math():
    for n in range(15):
        assert factorial(n) == math.factorial(n)
    with pytest.raises(ValueError):
        factorial(-1)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(-3, 2) == 6
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0


def test_binomial_negative_upper_identity():
    # C(-r, i)(-1)^i = C(r+i-1, i)
    for r in range(1, 6):
        for i in range(8):
            assert binomial(-r, i) * (-1) ** i == binomial(r + i - 1, i)


@given(st.integers(0, 12), st.integers(0, 12))
def test_binomial_matches_comb(n, k):
    assert binomial(n, k) == math.comb(n, k)


def test_stirling1_examples():
    assert stirling1(3, 1) == 2
    assert stirling1(3, 2) == -3
    assert stirling1(3, 3) == 1
    assert stirling1(4, 2) == 11
    assert stirling1(5, 0) == 0
    assert stirling1(0, 0) == 1
    assert stirling1(2, 5) == 0


@pytest.mark.parametrize("n", range(9))
def test_stirling1_against_product_expansion(n):
    coeffs = expand_falling_product(n)
    for k in range(n + 1):
        assert stirling1(n, k) == coeffs[k]


def test_stirling2_examples():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    for n in range(1, 8):
        assert stirling2(n, 0) == 0
    assert stirling2(0, 0) == 1


@pytest.mark.parametrize("n", range(8))
def test_stirling2_against_partition_count(n):
    for k in range(n + 1):
        assert stirling2(n, k) == count_partitions_into_k(n, k)


def test_lah_examples():
    assert lah(3, 2) == 6
    assert lah(4, 2) == 36
    for n in range(11):
        assert lah(n, n) == 1
    assert lah(3, 0) == 0
    assert lah(0, 0) == 1
    assert lah(2, 4) == 0


@pytest.mark.parametrize("n", range(9))
def test_lah_satisfies_rising_to_falling_conversion(n):
    # <x>_n = sum_k L(n,k)(x)_k at n+1 points determines the row uniquely
    for x in range(n + 1):
        lhs = classical_rising(x, n)
        rhs = sum(lah(n, k) * classical_falling(x, k) for k in range(n + 1))
        assert lhs == rhs


@pytest.mark.parametrize("n", range(9))
def test_stirling1_basis_identity(n):
    # (x)_n = sum_k S1(n,k) x^k at integer points
    for x in range(n + 1):
        assert classical_falling(x, n) == sum(
            stirling1(n, k) * F(x) ** k for k in range(n + 1)
        )


# --- degenerate layer ---


def test_falling_factorial_poly_examples():
    assert falling_factorial_poly(0, F(1, 2)) == Polynomial([1])
    assert falling_factorial_poly(3, F(1, 2)) == Polynomial(
        [0, F(1, 2), F(-3, 2), 1]
    )
    assert falling_factorial_poly(2, 0) == Polynomial([0, 0, 1])


@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(-1, 4), F(2)])
@pytest.mark.parametrize("n", range(7))
def test_falling_factorial_coeffs_are_scaled_stirling1(n, lam):
    poly = falling_factorial_poly(n, lam)
    for k in range(n + 1):
        assert poly.coefficient(k) == lam ** (n - k) * stirling1(n, k)


def test_stirling2_degenerate_examples():
    assert stirling2_degenerate(2, 1, F(1, 2)) == F(1, 2)
    assert stirling2_degenerate(3, 2, F(1, 3)) == 2
    for lam in (F(0), F(1, 2), F(-3)):
        for n in range(11):
            assert stirling2_degenerate(n, n, lam) == 1
    assert stirling2_degenerate(3, 5, F(1, 2)) == 0


@pytest.mark.parametrize("lam", [F(0), F(1, 3), F(1, 2), F(-1, 4), F(5, 2)])
@pytest.mark.parametrize("n", range(11))
def test_degenerate_basis_identity(n, lam):
    # (x)_{n,lam} = sum_k {n brace k}_lam (x)_k at x = 0..n certifies the row
    poly = falling_factorial_poly(n, lam)
    for x in range(n + 1):
        rhs = sum(
            stirling2_degenerate(n, k, lam) * classical_falling(x, k)
            for k in range(n + 1)
        )
        assert poly.evaluate(x) == rhs


def naive_stirling2_degenerate(n, k, lam):
    """sum_m lam**(n-m) s(n, m) S(m, k), entry by entry in Fractions."""
    total = F(0)
    for m in range(k, n + 1):
        total += lam ** (n - m) * stirling1(n, m) * stirling2(m, k)
    return total


@pytest.mark.parametrize("lam", default_config().lambdas, ids=str)
def test_stirling2_degenerate_row_matches_the_fraction_loop(lam):
    # descending, so the first call grows every row at once
    for n in range(20, -1, -1):
        row = combinat.stirling2_degenerate_row(n, lam)
        assert [row.coefficient(k) for k in range(n + 1)] == [
            naive_stirling2_degenerate(n, k, lam) for k in range(n + 1)
        ], n
        assert row.den > 0 and math.gcd(row.den, *row.nums) == 1


def test_stirling2_degenerate_reduces_to_classical():
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_degenerate(n, k, 0) == stirling2(n, k)


# --- partial Bell ---


def egf_power_bell(n, k, xs):
    """n! [t^n] (sum_i x_i t^i / i!)^k / k! by plain list convolution."""
    base = [F(0)] * (n + 1)
    for i in range(1, n + 1):
        if i - 1 < len(xs):
            base[i] = F(xs[i - 1], math.factorial(i))
    power = [F(1)] + [F(0)] * n
    for _ in range(k):
        out = [F(0)] * (n + 1)
        for a in range(n + 1):
            if power[a] == 0:
                continue
            for b in range(n + 1 - a):
                out[a + b] += power[a] * base[b]
        power = out
    return power[n] * math.factorial(n) / math.factorial(k)


def test_partial_bell_examples():
    assert partial_bell(3, 2, [1, 1]) == 3
    for n in range(1, 7):
        xs = [F(i + 2, 3) for i in range(n)]
        assert partial_bell(n, 1, xs) == xs[n - 1]
        assert partial_bell(n, n, [xs[0]]) == xs[0] ** n
    assert partial_bell(0, 0, []) == 1


def test_partial_bell_argument_length_enforced():
    with pytest.raises(ValueError):
        partial_bell(4, 2, [1, 1])
    with pytest.raises(ValueError):
        partial_bell(3, 4, [1, 1, 1])


@pytest.mark.parametrize("n", range(8))
def test_partial_bell_against_series_power(n):
    xs = [F((-1) ** i * (i + 1), i % 3 + 1) for i in range(n + 1)]
    for k in range(n + 1):
        assert partial_bell(n, k, xs[: n - k + 1]) == egf_power_bell(n, k, xs)


def test_partial_bell_counts_partitions():
    # with all arguments 1, B_{n,k} counts partitions into k blocks
    for n in range(7):
        for k in range(n + 1):
            assert partial_bell(n, k, [1] * max(n - k + 1, 0)) == stirling2(n, k)


def fraction_partial_bell(n, k, xs):
    """The Fraction definition partial_bell had before its integer core.

    Walks the multiplicity vectors with its own recursion and reads the
    factorials through combinat.factorial, so a perturbed factorial reaches
    it as it reaches the library.
    """

    def multiplicities(n, k, part):
        if k == 0:
            if n == 0:
                yield []
            return
        if part < 1 or n < k or n > k * part:
            return
        for c in range(min(k, n // part), -1, -1):
            for rest in multiplicities(n - c * part, k - c, part - 1):
                yield [(part, c)] + rest if c else rest

    total = F(0)
    for mult in multiplicities(n, k, n - k + 1):
        term = F(factorial(n))
        for size, count in mult:
            term /= factorial(count) * factorial(size) ** count
            term *= F(xs[size - 1]) ** count
        total += term
    return total


BELL_XS = [F(-7, 3), F(0), F(5, 4), F(-1, 6), F(9, 2), F(0), F(-3), F(2, 9), F(1, 10),
           F(-8, 5), F(11, 7)]


def test_partial_bell_matches_the_fraction_definition():
    # rational xs with zeros, negatives and unlike denominators, n <= 10
    for n in range(11):
        for k in range(n + 1):
            xs = BELL_XS[: n - k + 1]
            got = partial_bell(n, k, xs)
            assert type(got) is F
            assert got == fraction_partial_bell(n, k, xs), (n, k)


@settings(max_examples=40)
@given(st.integers(0, 8), st.data())
def test_partial_bell_matches_the_fraction_definition_property(n, data):
    k = data.draw(st.integers(0, n))
    xs = data.draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=12),
            min_size=n - k + 1,
            max_size=n - k + 3,
        )
    )
    assert partial_bell(n, k, xs) == fraction_partial_bell(n, k, xs)


def test_partial_bell_reads_a_perturbed_factorial():
    # the coefficient table is rebuilt from the perturbed factorial, and
    # dropped again on exit
    cases = [(n, k) for n in range(7) for k in range(n + 1)]
    clean = {(n, k): partial_bell(n, k, BELL_XS[: n - k + 1]) for n, k in cases}
    changed = 0
    with hooks.perturb("factorial", (2,)):
        for (n, k), value in clean.items():
            expected = fraction_partial_bell(n, k, BELL_XS[: n - k + 1])
            assert partial_bell(n, k, BELL_XS[: n - k + 1]) == expected, (n, k)
            changed += expected != value
    assert changed
    for (n, k), value in clean.items():
        assert partial_bell(n, k, BELL_XS[: n - k + 1]) == value


def test_clear_caches_empties_the_partial_bell_table():
    partial_bell(6, 3, BELL_XS[:4])
    assert combinat._bell_terms
    hooks.clear_caches()
    assert not combinat._bell_terms


# --- cache hygiene ---


def test_row_tables_grow_monotonically():
    # interleaved queries at increasing n must stay consistent
    a = stirling1(6, 3)
    b = stirling2(9, 4)
    assert stirling1(6, 3) == a
    assert stirling2(9, 4) == b
    assert stirling1(12, 5) == -1 * (
        11 * stirling1(11, 5)
    ) + stirling1(11, 4)
    assert stirling2(12, 5) == stirling2(11, 4) + 5 * stirling2(11, 5)
