"""Dense univariate polynomials with exact rational coefficients."""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import as_rational, scaled


def convolve(a, b, size: int) -> list[Fraction]:
    """The first ``size`` coefficients of the product of coefficient vectors a, b.

    The one dense-coefficient kernel: Polynomial multiplication keeps every
    coefficient, TruncatedSeries multiplication stops at its order. Each
    vector is put over one common denominator, the products are summed in
    Python ints, and one Fraction is built per output coefficient.
    """
    xs, da = scaled(a[:size])
    ys, db = scaled(b[:size])
    out = [0] * size
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys[: size - i], i):
                out[j] += x * y
    den = da * db
    return [Fraction(c, den) for c in out]


class Polynomial:
    """Immutable dense polynomial; ``coeffs[k]`` multiplies x**k.

    Trailing zero coefficients are stripped on construction, so structurally
    equal polynomials compare equal. The zero polynomial has an empty
    coefficient tuple and degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "Polynomial":
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls([0] * k + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def evaluate(self, x) -> Fraction:
        """p(x) by Horner's rule on integer cores, one Fraction at the end.

        With x = u/v and coefficients c_k = n_k / d over a common d, the
        loop builds sum_k n_k u**k v**(deg-k); the value is that over
        d v**deg.
        """
        x = as_rational(x)
        if not self.coeffs:
            return Fraction(0)
        nums, den = scaled(self.coeffs)
        u, v = x.numerator, x.denominator
        acc = 0
        vpow = 1
        for c in reversed(nums):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc, den * (vpow // v))

    __call__ = evaluate

    def derivative(self, r: int = 1) -> "Polynomial":
        if r < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(r):
            p = Polynomial([k * c for k, c in enumerate(p.coeffs)][1:])
        return p

    def scale_argument(self, c) -> "Polynomial":
        """The polynomial x -> p(c*x)."""
        c = as_rational(c)
        return Polynomial([a * c**k for k, a in enumerate(self.coeffs)])

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)]
        )

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial([other]).__neg__())

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            size = len(self.coeffs) + len(other.coeffs) - 1
            return Polynomial(convolve(self.coeffs, other.coeffs, size))
        c = as_rational(other)
        return Polynomial([a * c for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def gamma_weight_integral(poly: Polynomial, r: int) -> Fraction:
    """Integral of poly(y) * y**(r-1) * exp(-y) over (0, inf), exactly.

    Each monomial y**k contributes coefficient * (r + k - 1)!, so the result
    stays rational. Requires integer r >= 1.
    """
    if r < 1:
        raise ValueError("weight exponent r must be an integer >= 1")
    total = Fraction(0)
    for k, c in enumerate(poly.coeffs):
        if c:
            total += c * math.factorial(r + k - 1)
    return total
