"""The lambda-degree premise of verify, checked symbolically with sympy.

Passing on more than d distinct lambdas certifies an identity for every
lambda only if its sides are polynomials in lambda of degree <= d. Here
(x)_{n,lam}, E[(S_k)_{n,lam}] and {n brace k}_{Y,lam} are built with a
symbolic lambda from closed-form moments (not from the library's
recurrences), their lambda-degrees are bounded by n and n - k, and they are
compared with the library at random rational lambdas.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from fubini.combinat import falling_factorial_poly  # noqa: E402
from fubini.distributions import parse_distribution  # noqa: E402
from fubini.probabilistic import prob_stirling2, sum_degenerate_moment  # noqa: E402

LAM, X, T = sympy.symbols("lam x t")
N_MAX = 6
K_MAX = 3
R = sympy.Rational


def _gamma_sum_moment(k, m):
    # S_k ~ Gamma(3k/2, 2): E[S_k**m] = (3k/2)^(rising m) / 2**m
    return sympy.rf(R(3, 2) * k, m) / 2**m


_ATOMS = {0: R(1, 6), 1: R(1, 2), 3: R(1, 3)}


def _discrete_sum_moment(k, m):
    # the law of S_k by k-fold convolution of the atoms
    law = {0: R(1)}
    for _ in range(k):
        step = {}
        for s, p in law.items():
            for v, w in _ATOMS.items():
                step[s + v] = step.get(s + v, 0) + p * w
        law = step
    return sum(p * sympy.Integer(s) ** m for s, p in law.items())


DISTS = {
    "gamma:3/2,2": _gamma_sum_moment,
    "discrete:0=1/6,1=1/2,3=1/3": _discrete_sum_moment,
}


def _falling(n):
    return sympy.Poly(sympy.prod([X - i * LAM for i in range(n)]), X)


def _sum_degenerate(moment, k, n):
    return sympy.expand(sum(c * moment(k, m) for (m,), c in _falling(n).terms()))


def _stirling_column(moment, n):
    # n! [t**n] (E[e_lam^Y(t)] - 1)**k / k! for k = 0..n, by truncated powers
    base = sum(
        _sum_degenerate(moment, 1, j) * T**j / sympy.factorial(j)
        for j in range(1, n + 1)
    )
    column = []
    power = sympy.Integer(1)
    for k in range(n + 1):
        column.append(
            sympy.expand(power.coeff(T, n) * sympy.factorial(n) / sympy.factorial(k))
        )
        power = sympy.expand(power * base)
        power = sum(power.coeff(T, i) * T**i for i in range(n + 1))
    return column


def _lambdas(tag):
    rng = random.Random(f"lambda-degree:{tag}")
    picked = set()
    while len(picked) < 5:
        picked.add(Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
    return sorted(picked)


def _at(expr, lam):
    value = sympy.Rational(expr.subs(LAM, R(lam.numerator, lam.denominator)))
    return Fraction(int(value.p), int(value.q))


def _degree(expr):
    return sympy.Poly(expr, LAM).degree() if expr != 0 else -1


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_falling_factorial_has_lambda_degree_at_most_n(n):
    ff = _falling(n)
    coeffs = [sympy.expand(ff.coeff_monomial(X**m)) for m in range(n + 1)]
    assert all(_degree(c) <= n for c in coeffs)
    for lam in _lambdas(f"ff:{n}"):
        assert falling_factorial_poly(n, lam).coeffs == tuple(
            _at(c, lam) for c in coeffs
        ), lam


@pytest.mark.parametrize("spec", DISTS)
@pytest.mark.parametrize("k", range(K_MAX + 1))
def test_sum_degenerate_moment_has_lambda_degree_at_most_n(spec, k):
    dist = parse_distribution(spec)
    for n in range(N_MAX + 1):
        expr = _sum_degenerate(DISTS[spec], k, n)
        assert _degree(expr) <= n, n
        for lam in _lambdas(f"sum:{spec}:{k}:{n}"):
            assert sum_degenerate_moment(dist, k, n, lam) == _at(expr, lam), (n, lam)


@pytest.mark.parametrize("spec", DISTS)
def test_prob_stirling2_has_lambda_degree_at_most_n_minus_k(spec):
    dist = parse_distribution(spec)
    for n in range(N_MAX + 1):
        column = _stirling_column(DISTS[spec], n)
        for k, expr in enumerate(column):
            assert _degree(expr) <= n - k, (n, k)
        for lam in _lambdas(f"stirling:{spec}:{n}"):
            got = [prob_stirling2(dist, n, k, lam) for k in range(n + 1)]
            assert got == [_at(expr, lam) for expr in column], (n, lam)
