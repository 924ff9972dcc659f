"""Polynomials, truncated series, and the rational wire format."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fubini.poly import Polynomial, convolve, gamma_weight_integral, weighted_sum
from fubini.rational import as_rational, format_rational, parse_rational, scaled
from fubini.series import TruncatedSeries

F = Fraction

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=9
)


def poly_strategy(max_len=6):
    return st.lists(rationals, min_size=0, max_size=max_len).map(Polynomial)


# --- rational boundary ---


def test_wire_format_roundtrip_examples():
    assert format_rational(F(-3, 6)) == "-1/2"
    assert format_rational(F(4, 2)) == "2"
    assert parse_rational("18/25") == F(18, 25)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("+3") == 3


@given(rationals)
def test_wire_format_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize(
    "bad", ["", "1.5", "1/0", "/2", "1/", "1//2", "a", "2/-3", "1 /2"]
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError, match="invalid rational"):
        parse_rational(bad)


def test_as_rational_rejects_float():
    with pytest.raises(TypeError):
        as_rational(0.5)
    assert as_rational(3) == F(3)
    assert type(as_rational(3)) is F
    assert as_rational("-7/2") == F(-7, 2)
    f = F(1, 3)
    assert as_rational(f) is f


@given(rationals, rationals)
def test_field_axioms(a, b):
    assert a + b == b + a
    assert a * b == b * a
    if a and b:
        assert (a / b) * (b / a) == 1


# --- polynomials ---


def test_eval_examples():
    assert Polynomial().evaluate(F(7, 2)) == 0
    assert Polynomial([0, 1, 2]).evaluate(1) == 3
    assert Polynomial([0, F(1, 2), 2]).evaluate(1) == F(5, 2)


# The Fraction loops the integer-scaled kernels replaced, kept as oracles.


def naive_convolve(a, b, size):
    out = [F(0)] * size
    for i, x in enumerate(a[:size]):
        for j, y in enumerate(b[: size - i]):
            out[i + j] += x * y
    return out


def naive_evaluate(coeffs, x):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


KERNEL_CASES = [
    (),
    (F(0),),
    (F(0), F(0), F(0)),
    (F(3),),
    (F(1, 3), F(-2, 5), F(7, 2)),
    (F(0), F(0), F(-9, 4), F(0), F(5, 6)),
    (F(-1), F(2), F(-3), F(4)),
]


@pytest.mark.parametrize("a", KERNEL_CASES)
@pytest.mark.parametrize("b", KERNEL_CASES)
def test_convolve_matches_fraction_loop(a, b):
    # convolve multiplies numerators; the denominators multiply apart
    (xs, da), (ys, db) = scaled(a), scaled(b)
    for size in range(len(a) + len(b) + 1):
        got = convolve(xs, ys, size)
        assert all(type(c) is int for c in got)
        assert [F(c, da * db) for c in got] == naive_convolve(a, b, size)


@pytest.mark.parametrize("coeffs", KERNEL_CASES)
def test_evaluate_matches_fraction_loop(coeffs):
    p = Polynomial(coeffs)
    for x in (0, 1, -1, 3, -4, F(0), F(1, 2), F(-5, 3), F(7, 9)):
        got = p.evaluate(x)
        assert got == naive_evaluate(p.coeffs, F(x))
        assert type(got) is F


@given(
    st.lists(rationals, max_size=7),
    st.lists(rationals, max_size=7),
    st.integers(min_value=0, max_value=15),
)
def test_convolve_matches_fraction_loop_property(a, b, size):
    (xs, da), (ys, db) = scaled(a), scaled(b)
    got = convolve(xs, ys, size)
    assert [F(c, da * db) for c in got] == naive_convolve(a, b, size)


@given(poly_strategy(8), rationals)
def test_evaluate_matches_fraction_loop_property(p, x):
    assert p.evaluate(x) == naive_evaluate(p.coeffs, x)


def test_derivative_examples():
    assert Polynomial([0, 1, 2]).derivative() == Polynomial([1, 4])
    assert Polynomial([5]).derivative(3) == Polynomial()
    assert Polynomial([0, 0, 0, 1]).derivative(2) == Polynomial([0, 6])
    p = Polynomial([1, 2, 3])
    assert p.derivative(0) == p


def test_trailing_zeros_normalized():
    assert Polynomial([1, 0, 0]) == Polynomial([1])
    assert Polynomial([0, 0]).degree == -math.inf
    assert Polynomial([0, 1]).degree == 1
    assert not Polynomial([0])
    assert Polynomial([F(1, 2)])


def test_scale_argument():
    p = Polynomial([1, 2, 3])  # 1 + 2x + 3x^2
    q = p.scale_argument(F(1, 2))
    assert q == Polynomial([1, 1, F(3, 4)])
    assert q.evaluate(2) == p.evaluate(1)


@given(poly_strategy(), poly_strategy(), rationals)
def test_poly_ring_respects_evaluation(p, q, x):
    assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)
    assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
    assert (p - q).evaluate(x) == p.evaluate(x) - q.evaluate(x)


@given(poly_strategy(), poly_strategy())
def test_derivative_is_linear(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()


@given(poly_strategy(4), poly_strategy(4))
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    assert lhs == p.derivative() * q + p * q.derivative()


def test_gamma_weight_integral_examples():
    assert gamma_weight_integral(Polynomial([0, 0, 1]), 1) == 2
    assert gamma_weight_integral(Polynomial([1]), 2) == 1
    assert gamma_weight_integral(Polynomial([0, 1]), 3) == 6
    with pytest.raises(ValueError):
        gamma_weight_integral(Polynomial([1]), 0)


@pytest.mark.parametrize("k", range(21))
def test_gamma_weight_integral_monomials(k):
    # int_0^inf y^k e^{-y} dy = k!
    assert gamma_weight_integral(Polynomial.monomial(k), 1) == math.factorial(k)


# --- truncated series ---


def series_strategy(order, zero_constant=False):
    first = st.just(F(0)) if zero_constant else rationals
    rest = st.lists(rationals, min_size=order, max_size=order)
    return st.tuples(first, rest).map(
        lambda t: TruncatedSeries([t[0]] + t[1])
    )


def test_series_mul_examples():
    one_plus_t = TruncatedSeries([1, 1, 0])
    assert (one_plus_t * one_plus_t).coeffs == (1, 2, 1)
    geom = TruncatedSeries([1, 1, 1])
    assert (geom * TruncatedSeries([1, -1, 0])).coeffs == (1, 0, 0)


def test_series_order_mismatch():
    with pytest.raises(ValueError, match="order mismatch"):
        TruncatedSeries([1, 2]) * TruncatedSeries([1, 2, 3])
    with pytest.raises(ValueError, match="order mismatch"):
        TruncatedSeries([1, 2]) - TruncatedSeries([1, 2, 3])


def test_polynomial_and_series_share_a_base_but_stay_apart():
    p, s = Polynomial([1, F(1, 2), 0]), TruncatedSeries([1, F(1, 2), 0])
    assert (p.nums, p.den) == ((2, 1), 2) and (s.nums, s.den) == ((2, 1, 0), 2)
    assert not isinstance(s, Polynomial) and not isinstance(p, TruncatedSeries)
    assert p != s and s != p
    assert repr(p) == "Polynomial([1, 1/2])"
    assert repr(s) == "TruncatedSeries([1, 1/2, 0])"
    # each operation returns its operand's type
    assert type(p + 1) is type(1 - p) is type(-p) is type(p * p) is Polynomial
    assert type(s + 1) is type(1 - s) is type(-s) is type(s * s) is TruncatedSeries
    with pytest.raises(TypeError):
        p + s


def test_series_reciprocal_examples():
    geom = TruncatedSeries([1, -1, 0, 0]).reciprocal()
    assert geom.coeffs == (1, 1, 1, 1)
    assert TruncatedSeries([1, 0, 0]).reciprocal().coeffs == (1, 0, 0)
    with pytest.raises(ZeroDivisionError):
        TruncatedSeries([0, 1]).reciprocal()


def test_series_reciprocal_fubini_values():
    # 1/(1-t): t^n/n! coefficients are the degenerate Fubini numbers at
    # lambda = 1, x = 1
    s = TruncatedSeries([1, -1, 0]).reciprocal()
    assert [s.egf_coefficient(n) for n in range(3)] == [1, 1, 2]


def test_series_exp_examples():
    assert TruncatedSeries([0, 0, 0]).exp().coeffs == (1, 0, 0)
    e = TruncatedSeries([0, 1, 0, 0]).exp()
    assert e.coeffs == (1, 1, F(1, 2), F(1, 6))
    assert [e.egf_coefficient(n) for n in range(4)] == [1, 1, 1, 1]
    with pytest.raises(ValueError):
        TruncatedSeries([1, 1]).exp()


def test_egf_conversion_roundtrip():
    values = [F(1), F(3, 2), F(-2), F(7)]
    s = TruncatedSeries.from_egf(values)
    assert [s.egf_coefficient(n) for n in range(s.order + 1)] == values
    assert s.coeffs == (1, F(3, 2), -1, F(7, 6))
    with pytest.raises(ValueError):
        s.egf_coefficient(4)


@settings(max_examples=60)
@given(series_strategy(5))
def test_reciprocal_is_inverse(a):
    if a.coeffs[0] == 0:
        with pytest.raises(ZeroDivisionError):
            a.reciprocal()
        return
    prod = a * a.reciprocal()
    assert prod.coeffs == (1,) + (F(0),) * 5


@settings(max_examples=60)
@given(series_strategy(5, zero_constant=True), series_strategy(5, zero_constant=True))
def test_exp_is_homomorphism(a, b):
    assert ((a + b).exp()).coeffs == (a.exp() * b.exp()).coeffs


@settings(max_examples=40)
@given(series_strategy(4), series_strategy(4), series_strategy(4))
def test_series_ring_axioms(a, b, c):
    assert ((a + b) * c).coeffs == (a * c + b * c).coeffs
    assert (a * b).coeffs == (b * a).coeffs


def test_series_scalar_ops():
    s = TruncatedSeries([1, 2, 3])
    assert (s - 1).coeffs == (0, 2, 3)
    assert (1 - s).coeffs == (0, -2, -3)
    assert (s * F(1, 2)).coeffs == (F(1, 2), 1, F(3, 2))


# --- the stored form: integer numerators over one denominator ---
#
# The oracles are the Fraction loops the integer operations replaced. Every
# result is checked in canonical form: a positive den, gcd(den, *nums) == 1,
# no trailing zero numerator (polynomials), and coeffs equal to nums / den.


def assert_canonical(obj, strip=True):
    assert type(obj.nums) is tuple
    assert all(type(c) is int for c in obj.nums)
    assert type(obj.den) is int and obj.den > 0
    assert math.gcd(obj.den, *obj.nums) == 1
    if strip:
        assert not obj.nums or obj.nums[-1] != 0
    assert obj.coeffs == tuple(F(c, obj.den) for c in obj.nums)
    assert all(type(c) is F for c in obj.coeffs)


def stripped(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def naive_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return stripped(x + sign * y for x, y in zip(a, b))


def naive_derivative(cs, r):
    cs = list(cs)
    for _ in range(r):
        cs = [k * c for k, c in enumerate(cs)][1:]
    return stripped(cs)


def naive_reciprocal(a):
    inv0 = 1 / a[0]
    out = [inv0]
    for k in range(1, len(a)):
        acc = F(0)
        for i in range(1, k + 1):
            acc += a[i] * out[k - i]
        out.append(-inv0 * acc)
    return tuple(out)


def naive_exp(a):
    out = [F(1)]
    for k in range(1, len(a)):
        acc = F(0)
        for j in range(1, k + 1):
            acc += j * a[j] * out[k - j]
        out.append(acc / k)
    return tuple(out)


SCALARS = [0, 1, -2, F(-5, 3), F(7, 9), "3/4"]
POLY_CASES = KERNEL_CASES + [
    (F(6, 4), F(-10, 4), F(0)),
    (F(-1, 12), F(0), F(1, 18), F(-1, 8)),
]


def check_poly_ops(a, b):
    p, q = Polynomial(a), Polynomial(b)
    results = {
        "+": (p + q, naive_add(a, b)),
        "-": (p - q, naive_add(a, b, -1)),
        "*": (p * q, stripped(naive_convolve(a, b, max(len(a) + len(b) - 1, 0)))),
        "neg": (-p, stripped(-c for c in a)),
    }
    for name, (got, expected) in results.items():
        assert_canonical(got)
        assert got.coeffs == expected, name


def check_poly_scalar_ops(a, c):
    p, cf = Polynomial(a), as_rational(c)
    results = {
        "p*c": (p * c, stripped(x * cf for x in a)),
        "c*p": (c * p, stripped(x * cf for x in a)),
        "p+c": (p + c, naive_add(a, (cf,))),
        "c+p": (c + p, naive_add(a, (cf,))),
        "p-c": (p - c, naive_add(a, (cf,), -1)),
        "c-p": (c - p, naive_add((cf,), a, -1)),
        "scale": (p.scale_argument(c), stripped(x * cf**k for k, x in enumerate(a))),
        "monomial": (Polynomial.monomial(2, c), stripped((0, 0, cf))),
    }
    for name, (got, expected) in results.items():
        assert_canonical(got)
        assert got.coeffs == expected, name
    assert p.evaluate(c) == naive_evaluate(stripped(a), cf)


@pytest.mark.parametrize("a", POLY_CASES)
@pytest.mark.parametrize("b", POLY_CASES)
def test_polynomial_ops_match_fraction_loops(a, b):
    check_poly_ops(a, b)


@pytest.mark.parametrize("a", POLY_CASES)
def test_polynomial_scalar_ops_and_derivatives_match_fraction_loops(a):
    for c in SCALARS:
        check_poly_scalar_ops(a, c)
    p = Polynomial(a)
    assert_canonical(p)
    for r in range(6):
        got = p.derivative(r)
        assert_canonical(got)
        assert got.coeffs == naive_derivative(a, r), r


def test_from_scaled_reduces_to_the_canonical_form():
    p = Polynomial.from_scaled([2, -4, 6, 0, 0], -6)
    assert (p.nums, p.den) == ((-1, 2, -3), 3)
    assert p == Polynomial([F(-1, 3), F(2, 3), -1])
    zero = Polynomial.from_scaled([0, 0], -5)
    assert (zero.nums, zero.den) == ((), 1)
    assert zero == Polynomial() == Polynomial([0, 0])
    s = TruncatedSeries.from_scaled([0, 4, -8, 0], 12)
    assert (s.nums, s.den, s.order) == ((0, 1, -2, 0), 3, 3)
    z = TruncatedSeries.zero(2)
    assert (z.nums, z.den) == ((0, 0, 0), 1)


@pytest.mark.parametrize("a", POLY_CASES)
@pytest.mark.parametrize("b", POLY_CASES)
def test_equality_and_hash_follow_fraction_coefficients(a, b):
    p, q = Polynomial(a), Polynomial(b)
    assert (p == q) == (stripped(a) == stripped(b))
    # the same polynomial built over an unreduced, negative denominator
    nums, den = scaled([F(c) for c in b])
    r = Polynomial.from_scaled([-6 * c for c in nums], -6 * den)
    assert r == q and hash(r) == hash(q)
    if p == q:
        assert hash(p) == hash(q)


SERIES_CASES = [
    (F(0), F(0), F(0), F(0)),
    (F(1), F(0), F(0), F(0)),
    (F(-3, 2), F(1, 3), F(0), F(5, 7)),
    (F(2), F(-1, 4), F(3, 10), F(-7, 6)),
    (F(0), F(2, 9), F(-1), F(1, 6)),
    (F(-1), F(12), F(-30), F(4, 15)),
]


@pytest.mark.parametrize("a", SERIES_CASES)
@pytest.mark.parametrize("b", SERIES_CASES)
def test_series_ops_match_fraction_loops(a, b):
    s, t = TruncatedSeries(a), TruncatedSeries(b)
    results = {
        "+": (s + t, tuple(x + y for x, y in zip(a, b))),
        "-": (s - t, tuple(x - y for x, y in zip(a, b))),
        "*": (s * t, tuple(naive_convolve(a, b, len(a)))),
        "neg": (-s, tuple(-x for x in a)),
    }
    for c in SCALARS:
        cf = as_rational(c)
        results[f"*{c}"] = (s * c, tuple(x * cf for x in a))
        results[f"{c}-"] = (c - s, (cf - a[0],) + tuple(-x for x in a[1:]))
    if a[0]:
        results["reciprocal"] = (s.reciprocal(), naive_reciprocal(a))
    else:
        results["exp"] = (s.exp(), naive_exp(a))
    for name, (got, expected) in results.items():
        assert_canonical(got, strip=False)
        assert got.order == len(a) - 1
        assert got.coeffs == expected, name
    assert (s == t) == (a == b)
    if s == t:
        assert hash(s) == hash(t)
    assert [s.egf_coefficient(n) for n in range(s.order + 1)] == [
        x * math.factorial(n) for n, x in enumerate(a)
    ]


@settings(max_examples=80)
@given(poly_strategy(7), poly_strategy(7), rationals)
def test_polynomial_ops_match_fraction_loops_property(p, q, c):
    check_poly_ops(p.coeffs, q.coeffs)
    check_poly_scalar_ops(p.coeffs, c)
    for r in range(3):
        assert p.derivative(r).coeffs == naive_derivative(p.coeffs, r)


@settings(max_examples=80)
@given(series_strategy(6))
def test_reciprocal_and_exp_match_fraction_loops_property(s):
    a = s.coeffs
    assert_canonical(s, strip=False)
    if a[0]:
        got = s.reciprocal()
        assert got.coeffs == naive_reciprocal(a)
        assert_canonical(got, strip=False)
    shifted = s - a[0]
    got = shifted.exp()
    assert got.coeffs == naive_exp(shifted.coeffs)
    assert_canonical(got, strip=False)


# --- weighted_sum: the n-ary kernel behind +, - and the recurrence sums ---

weights = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=8)
)


@st.composite
def weighted_terms(draw):
    """(nums, den, weight) with a common factor of nums and den left in."""
    nums = draw(st.lists(st.integers(-40, 40), max_size=6))
    den = draw(st.integers(1, 12)) * draw(st.sampled_from([1, -1]))
    common = draw(st.integers(1, 6))
    return [c * common for c in nums], den * common, draw(weights)


def fold(terms):
    # the accumulation the kernel replaced: one reduced Polynomial per step
    acc = Polynomial()
    for nums, den, weight in terms:
        acc = acc + Polynomial.from_scaled(nums, den) * weight
    return acc


def fraction_sum(terms):
    size = max((len(nums) for nums, _, _ in terms), default=0)
    out = [F(0)] * size
    for nums, den, weight in terms:
        for k, c in enumerate(nums):
            out[k] += F(c, den) * weight
    return stripped(out)


@settings(max_examples=150)
@given(st.lists(weighted_terms(), max_size=5))
def test_weighted_sum_matches_the_fold_of_polynomial_ops(terms):
    nums, den = weighted_sum(terms)
    assert den != 0 and all(type(c) is int for c in nums)
    got = Polynomial.from_scaled(nums, den)
    assert_canonical(got)
    assert got == fold(terms)
    assert got.coeffs == fraction_sum(terms)


def test_weighted_sum_edge_cases():
    assert weighted_sum([]) == ([], 1)
    assert Polynomial.from_scaled(*weighted_sum([])) == Polynomial()
    assert Polynomial.from_scaled(*weighted_sum([((1, 2), 3, 0)])) == Polynomial()
    # a raw convolve product, unreduced, with a Fraction and a negative weight
    a, b = Polynomial([F(1, 2), F(1, 3)]), Polynomial([F(2, 3), 2])
    product = convolve(a.nums, b.nums, 3), a.den * b.den
    got = Polynomial.from_scaled(*weighted_sum([(*product, F(-3, 4)), (a.nums, a.den, 5)]))
    assert got == a * b * F(-3, 4) + a * 5
    # the denominator grows only when a term's does not divide it
    assert weighted_sum([((1,), 6, 1), ((1,), 3, 1), ((1,), 2, 1)]) == ([6], 6)
    assert weighted_sum([((1,), 2, 1), ((1,), 3, 1)]) == ([5], 6)
    assert weighted_sum([((1,), 2, 1), ((1, 1), 1, F(1, 3))]) == ([5, 2], 6)


@settings(max_examples=80)
@given(series_strategy(4), series_strategy(4), rationals)
def test_series_add_and_sub_match_fraction_loops_property(s, t, c):
    a, b = s.coeffs, t.coeffs
    results = {
        "+": (s + t, tuple(x + y for x, y in zip(a, b))),
        "-": (s - t, tuple(x - y for x, y in zip(a, b))),
        "+c": (s + c, (a[0] + c,) + a[1:]),
        "c-": (c - s, (c - a[0],) + tuple(-x for x in a[1:])),
    }
    for name, (got, expected) in results.items():
        assert_canonical(got, strip=False)
        assert got.order == s.order
        assert got.coeffs == expected, name
