"""The integer cores of the probabilistic layer against naive Fraction loops.

The triangle, the Miller recurrence for sum moments and the moment
contraction sum in Python ints over one common denominator; the moment rows
are stored in that form (rational.ScaledRow). The oracles below are the same
recurrences written as plain Fraction loops; they share only the raw moments
and the falling factorials with the library.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fubini import combinat, hooks, probabilistic
from fubini.combinat import falling_factorial_poly, stirling2_degenerate
from fubini.distributions import Bernoulli, PointMass
from fubini.families import degenerate_fubini_poly_order
from fubini.identities import (
    CheckConfig,
    _difference_weights,
    _stirling2_by_difference,
    default_config,
    run_suite,
)
from fubini.probabilistic import (
    degenerate_moment,
    prob_fubini_poly_order,
    prob_stirling2,
    raw_moment,
    sum_degenerate_moment,
    sum_degenerate_row,
    sum_raw_moment,
)
from fubini.rational import ScaledRow, scaled

F = Fraction

GRID_DISTS = list(default_config().dists)
ZERO_MOMENT_DISTS = [Bernoulli(F(0)), PointMass(F(0))]
TINY_LAMBDA = F(1, 99999999999999999999)


def _ids(dist):
    return dist.spec_string()


def _naive_sum_raw_row(dist, k, m):
    row = [F(1)]
    for n in range(1, m + 1):
        total = F(0)
        for j in range(1, n + 1):
            mu = raw_moment(dist, j)
            if mu:
                total += ((k + 1) * j - n) * math.comb(n, j) * mu * row[n - j]
        row.append(total / n)
    return row


def _naive_contract(n, lam, moment):
    coeffs = falling_factorial_poly(n, lam).coeffs
    return sum((c * moment(m) for m, c in enumerate(coeffs) if c), start=F(0))


def _naive_triangle(dist, n_max, lam):
    a = [
        _naive_contract(j, lam, lambda m: raw_moment(dist, m))
        for j in range(n_max + 1)
    ]
    rows = [[F(1)]]
    for m in range(1, n_max + 1):
        row = [F(0)] * (m + 1)
        for k in range(1, m + 1):
            total = F(0)
            for j in range(1, m - k + 2):
                total += math.comb(m, j) * a[j] * rows[m - j][k - 1]
            row[k] = total / k
        rows.append(row)
    return rows


def test_scaled_puts_values_over_their_lcm():
    assert scaled([]) == ([], 1)
    assert scaled([F(1, 2), F(0), F(-5, 6), F(3)]) == ([3, 0, -5, 18], 6)


def _assert_canonical(row, values):
    assert row.den > 0
    assert all(type(c) is int for c in row.nums)
    assert math.gcd(row.den, *row.nums) == 1
    assert [F(c, row.den) for c in row.nums] == values
    assert [row[m] for m in range(len(row))] == values


def test_scaled_row_rescales_only_when_a_denominator_does_not_divide():
    values = [F(1), F(-1, 2), F(0), F(5, 6), 7, F(-3, 4), F(1, 3), F(9, 8), F(2)]
    row = ScaledRow()
    _assert_canonical(row, [])
    dens = []
    for i, v in enumerate(values):
        row.append(v)
        _assert_canonical(row, [F(x) for x in values[: i + 1]])
        dens.append(row.den)
    assert dens == [1, 2, 2, 6, 6, 12, 12, 24, 24]
    assert ScaledRow(values).nums == row.nums


def test_scaled_row_extends_by_unreduced_pairs_as_by_appends():
    head, tail = [F(1, 2), F(0)], [F(-5, 6), 7, F(-3, 4), F(1, 3), F(9, 8)]
    row = ScaledRow(head)
    nums = row.nums
    # each pair scaled by a different factor, so none is in lowest terms
    row.extend_ratios((v.numerator * g, v.denominator * g) for g, v in enumerate(tail, 2))
    _assert_canonical(row, head + [F(v) for v in tail])
    assert (row.nums, row.den) == (ScaledRow(head + tail).nums, 24)
    assert nums == [1, 0]  # rescaled once, into a new list
    row.extend_ratios([])
    row.extend_ratios([(4, 2)])
    _assert_canonical(row, head + [F(v) for v in tail] + [F(2)])


def _stored_moment_rows(dist, k):
    return [
        probabilistic._raw_moment_rows[dist],
        probabilistic._sum_moment_rows[dist, k],
    ]


# GRID_DISTS[5] is gamma:3/2,2: E[Y**m] and E[S_k**m] have denominator 4**m,
# so every appended moment rescales its row.
@pytest.mark.parametrize("dist", GRID_DISTS + ZERO_MOMENT_DISTS, ids=_ids)
@pytest.mark.parametrize("k", [1, 3])
def test_moment_rows_grown_in_steps_equal_rows_grown_at_once(dist, k):
    lam = F(-7, 2)

    def grow(steps):
        hooks.clear_caches()
        for m in steps:
            sum_raw_moment(dist, k, m)
            sum_degenerate_moment(dist, k, m, lam)
        return [(list(row.nums), row.den) for row in _stored_moment_rows(dist, k)]

    stepped = grow([3, 9, 20])
    assert stepped == grow([20])
    raw, miller = _stored_moment_rows(dist, k)
    expected = _naive_sum_raw_row(dist, k, 20)
    _assert_canonical(raw, [raw_moment(dist, j) for j in range(len(raw))])
    _assert_canonical(miller, expected)
    # the row as its readers see it, outside hooks.perturb the stored row itself
    reads = probabilistic._sum_raw_moments(dist, k, 20)
    assert reads is miller
    _assert_canonical(reads, expected)
    assert [sum_degenerate_moment(dist, k, n, lam) for n in range(21)] == [
        _naive_contract(n, lam, lambda m: expected[m]) for n in range(21)
    ]


def test_unperturbed_row_read_is_the_stored_row():
    dist, k = GRID_DISTS[5], 3
    hooks.clear_caches()
    read = probabilistic._sum_raw_moments(dist, k, 6)
    assert read is probabilistic._sum_moment_rows[dist, k]
    assert hooks.shifted_row("sum_moment", (dist, k), read) is read
    # a perturbation of another entry or table leaves the read alone
    with hooks.perturb("sum_moment", (dist, k + 1, 2)):
        row = probabilistic._sum_raw_moments(dist, k, 6)
        assert row is probabilistic._sum_moment_rows[dist, k]
    with hooks.perturb("binomial", (4, 2)):
        row = probabilistic._sum_raw_moments(dist, k, 6)
        assert row is probabilistic._sum_moment_rows[dist, k]


def test_sum_moment_fault_shifts_one_entry_of_the_read_only():
    dist, k, m, delta, top = GRID_DISTS[5], 2, 3, F(1, 3), 8
    expected = _naive_sum_raw_row(dist, k, top)
    with hooks.perturb("sum_moment", (dist, k, m), delta):
        read = probabilistic._sum_raw_moments(dist, k, top)
        stored = probabilistic._sum_moment_rows[dist, k]
        assert read is not stored
        # the read: entry m shifted, every other entry as the recurrence gives it
        _assert_canonical(read, [v + delta if i == m else v for i, v in enumerate(expected)])
        # the stored Miller row, and E[S_k**(m+1)] grown from it, are unshifted
        _assert_canonical(stored, expected)
        assert sum_raw_moment(dist, k, m + 1) == expected[m + 1]
        assert sum_raw_moment(dist, k, m) == expected[m] + delta


def _fraction_sequences(value):
    """The lists and tuples inside value (itself included) that hold a Fraction."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        if any(type(v) is Fraction for v in value):
            yield value
        for v in value:
            yield from _fraction_sequences(v)


def test_memo_tables_hold_no_fraction_rows_after_a_suite():
    cfg = CheckConfig(
        lambdas=(F(0), F(1, 2), F(-1, 4)),
        n_max=4,
        r_max=2,
        dists=tuple(GRID_DISTS),
        x_points=(F(1), F(-1, 3)),
        series_order=5,
        coeff_depth=8,
    )
    run_suite(cfg)
    tables = [
        (module.__name__, name, table)
        for module in (probabilistic, combinat)
        for name, table in vars(module).items()
        if any(table is memo for memo in hooks._memos)
    ]
    assert {name for _, name, _ in tables} >= {
        "_raw_moment_rows",
        "_sum_moment_rows",
        "_degenerate_rows",
        "_sum_degenerate_rows",
        "_triangles",
        "_s2_degenerate_rows",
    }
    for module, name, table in tables:
        assert table, f"{module}.{name} was not grown"
        assert not list(_fraction_sequences(table)), f"{module}.{name} holds Fractions"


def test_sum_moment_fault_reaches_the_contraction_and_the_difference_and_is_undone():
    dist, k, m, lam, delta, order, n_max = GRID_DISTS[5], 2, 3, F(-7, 2), F(1, 3), 3, 8

    def by_difference(n):
        # a row longer than order + 1 entries, as _eq20_gf passes it
        row = scaled([sum_degenerate_moment(dist, j, n, lam) for j in range(order + 2)])
        return F(*_stirling2_by_difference(row, _difference_weights(order)))

    def tables():
        return (
            [sum_degenerate_moment(dist, k, n, lam) for n in range(n_max + 1)],
            [by_difference(n) for n in range(n_max + 1)],
        )

    def oracle(shifted):
        def degenerate(j, n):
            row = _naive_sum_raw_row(dist, j, n_max)
            if shifted and j == k:
                row[m] += delta
            return _naive_contract(n, lam, lambda i: row[i])

        def difference(n):
            total = sum(
                math.comb(order, j) * (-1) ** (order - j) * degenerate(j, n)
                for j in range(order + 1)
            )
            return total / math.factorial(order)

        return (
            [degenerate(k, n) for n in range(n_max + 1)],
            [difference(n) for n in range(n_max + 1)],
        )

    before = tables()
    assert before == oracle(False)
    with hooks.perturb("sum_moment", (dist, k, m), delta):
        inside = tables()
        assert inside == oracle(True)
    assert inside[0][m:] != before[0][m:] and inside[1][m:] != before[1][m:]
    assert tables() == before


@pytest.mark.parametrize("dist", GRID_DISTS + ZERO_MOMENT_DISTS, ids=_ids)
def test_sum_degenerate_row_grown_at_once_equals_row_grown_entry_by_entry(dist):
    k, lam, n = 3, F(-7, 2), 12

    hooks.clear_caches()
    for m in range(n + 1):
        stepped = sum_degenerate_row(dist, k, m, lam)
    stepped = list(stepped.nums), stepped.den
    hooks.clear_caches()
    row = sum_degenerate_row(dist, k, n, lam)
    assert (row.nums, row.den) == stepped
    expected = _naive_sum_raw_row(dist, k, n)
    _assert_canonical(row, [_naive_contract(m, lam, lambda i: expected[i]) for m in range(n + 1)])
    assert sum_degenerate_row(dist, k, 5, lam) is row  # a shorter request reads it as it is


# lam = 0, negative lam and lam not an integer, drawn apart so each is tried
LAMBDAS = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=F(-6), max_value=F(-1, 12), max_denominator=12),
    st.fractions(min_value=F(-6), max_value=F(6), max_denominator=12).filter(
        lambda v: v.denominator > 1
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(GRID_DISTS + ZERO_MOMENT_DISTS),
    st.integers(0, 30),
    st.integers(0, 40),
    LAMBDAS,
)
def test_sum_degenerate_moment_matches_the_fraction_contraction(dist, k, n, lam):
    got = sum_degenerate_moment(dist, k, n, lam)
    assert type(got) is Fraction
    assert got == _naive_contract(n, lam, lambda m: sum_raw_moment(dist, k, m))


@pytest.mark.parametrize("dist", GRID_DISTS + ZERO_MOMENT_DISTS, ids=_ids)
@pytest.mark.parametrize("k", [0, 1, 2, 500])
def test_miller_core_matches_fraction_loop(dist, k):
    expected = _naive_sum_raw_row(dist, k, 16)
    # descending, so the first call grows the whole row at once
    got = [sum_raw_moment(dist, k, m) for m in range(16, -1, -1)][::-1]
    assert got == expected


@pytest.mark.parametrize("dist", GRID_DISTS + ZERO_MOMENT_DISTS, ids=_ids)
@pytest.mark.parametrize("lam", [F(0), F(-7, 2), TINY_LAMBDA], ids=str)
def test_contraction_core_matches_fraction_loop(dist, lam):
    for n in range(21):
        assert degenerate_moment(dist, n, lam) == _naive_contract(
            n, lam, lambda m: raw_moment(dist, m)
        ), n
    for k in (0, 1, 3):
        for n in range(13):
            assert sum_degenerate_moment(dist, k, n, lam) == _naive_contract(
                n, lam, lambda m: sum_raw_moment(dist, k, m)
            ), (k, n)


@pytest.mark.parametrize("dist", GRID_DISTS + ZERO_MOMENT_DISTS, ids=_ids)
def test_triangle_core_matches_fraction_loop(dist):
    for lam in default_config().lambdas + (TINY_LAMBDA,):
        expected = _naive_triangle(dist, 20, lam)
        for n in range(20, -1, -1):
            assert [prob_stirling2(dist, n, k, lam) for k in range(n + 1)] == (
                expected[n]
            ), (lam, n)


def test_raw_moment_fault_reaches_every_integer_core_and_is_undone():
    dist, lam, k, n = GRID_DISTS[5], F(1, 3), 3, 8

    def tables():
        return (
            [prob_stirling2(dist, n, j, lam) for j in range(n + 1)],
            [sum_degenerate_moment(dist, k, m, lam) for m in range(n + 1)],
        )

    def oracle():
        return (
            _naive_triangle(dist, n, lam)[n],
            [
                _naive_contract(
                    m, lam, lambda i: _naive_sum_raw_row(dist, k, m)[i]
                )
                for m in range(n + 1)
            ],
        )

    before = tables()  # grows every row before the fault
    assert before == oracle()
    with hooks.perturb("raw_moment", (dist, 2)):
        inside = tables()
        assert inside == oracle()
    assert inside[0] != before[0] and inside[1] != before[1]
    assert tables() == before


def test_raw_moment_fault_reaches_the_memoised_order_polynomials_and_is_undone():
    dist, lam, n, r = GRID_DISTS[5], F(1, 3), 6, 2

    def oracle():
        row = _naive_triangle(dist, n, lam)[n]
        return [
            math.comb(k + r - 1, k) * math.factorial(k) * t for k, t in enumerate(row)
        ]

    before = prob_fubini_poly_order(dist, n, r, lam)
    assert prob_fubini_poly_order(dist, n, r, lam) is before  # memoised
    assert [before.coefficient(k) for k in range(n + 1)] == oracle()
    with hooks.perturb("raw_moment", (dist, 2)):
        inside = prob_fubini_poly_order(dist, n, r, lam)
        assert [inside.coefficient(k) for k in range(n + 1)] == oracle()
        assert prob_fubini_poly_order(dist, n, r, lam) is inside
    assert inside != before
    after = prob_fubini_poly_order(dist, n, r, lam)
    assert after is not inside and after == before


# Under hooks.perturb, factorial and binomial return Fractions; the order-r
# weights C(k+r-1, k) k! are then rational and must still reach the result.
@pytest.mark.parametrize(
    "table, key", [("factorial", (2,)), ("binomial", (3, 2)), ("binomial", (4, 4))]
)
@pytest.mark.parametrize("r", [1, 2])
def test_perturbed_order_weights_reach_the_fubini_polynomials(table, key, r):
    dist, lam, n, delta = GRID_DISTS[3], F(-1, 4), 5, F(1, 3)

    def weight(k):
        b = math.comb(k + r - 1, k) + (delta if hits("binomial", (k + r - 1, k)) else 0)
        f = math.factorial(k) + (delta if hits("factorial", (k,)) else 0)
        return b * f

    def hits(*slot):
        return slot == (table, key)

    def oracle():
        return (
            [weight(k) * prob_stirling2(dist, n, k, lam) for k in range(n + 1)],
            [weight(k) * stirling2_degenerate(n, k, lam) for k in range(n + 1)],
        )

    def polys():
        return (
            prob_fubini_poly_order(dist, n, r, lam),
            degenerate_fubini_poly_order(n, r, lam),
        )

    before = polys()
    with hooks.perturb(table, key, delta):
        inside = polys()
        expected = oracle()
        for got, want in zip(inside, expected):
            assert [got.coefficient(k) for k in range(n + 1)] == want
            assert math.gcd(got.den, *got.nums) == 1
    if any(weight(k) != math.comb(k + r - 1, k) * math.factorial(k) for k in range(n + 1)):
        assert inside[0] != before[0] and inside[1] != before[1]
    assert polys() == before
