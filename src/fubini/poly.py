"""Dense univariate polynomials with exact rational coefficients.

A polynomial is stored as integer numerators over one positive denominator,
as FLINT's fmpq_poly is: ``nums[k] / den`` multiplies x**k. Every operation
works on the integers and divides out their common factor once per result
(``rational.reduced``); the Fraction coefficients are built only when
``coeffs`` is first read.

Two integer kernels serve both Polynomial and TruncatedSeries: ``convolve``
multiplies numerator vectors, and ``weighted_sum`` adds any number of
weighted vectors over one running common denominator. ``+`` and ``-`` are
two-term weighted sums; a caller that sums many terms (a recurrence, a
convolution of polynomials) feeds them all to one ``weighted_sum`` and
reduces once, instead of once per ``+``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import as_rational, ratio, reduced, scaled


def convolve(a, b, size: int) -> list[int]:
    """The first ``size`` coefficients of the product of integer vectors a, b.

    The one dense-coefficient kernel: Polynomial multiplication keeps every
    coefficient, TruncatedSeries multiplication stops at its order. Both
    multiply numerators here and denominators apart.
    """
    out = [0] * size
    for i, x in enumerate(a[:size]):
        if x:
            for j, y in enumerate(b[: size - i], i):
                out[j] += x * y
    return out


def weighted_sum(terms) -> tuple[list[int], int]:
    """Numerators and denominator of the sum of weight * nums / den over terms.

    Each term is (nums, den, weight): an int vector, not necessarily reduced
    (a raw ``convolve`` product, say), over a nonzero int den, and an int or
    Fraction weight. The sum runs in ints over one running denominator, which
    grows only when a term's denominator does not divide it; shorter vectors
    are padded with zeros and zero weights are skipped. The result is not
    reduced: the caller builds it with ``from_scaled``, which reduces once.
    No terms give ([], 1).
    """
    acc: list[int] = []
    common = 1
    for nums, den, weight in terms:
        if type(weight) is not int:
            den *= weight.denominator
            weight = weight.numerator
        if not weight:
            continue
        grow = den // math.gcd(common, den)
        if grow != 1:
            acc = [c * grow for c in acc]
            common *= grow
        factor = weight * (common // den)
        if len(nums) > len(acc):
            acc.extend([0] * (len(nums) - len(acc)))
        for k, c in enumerate(nums):
            if c:
                acc[k] += factor * c
    return acc, common


class Polynomial:
    """Immutable dense polynomial; ``coeffs[k]`` multiplies x**k.

    Canonical form: ``nums`` (a tuple of ints) over ``den`` (a positive int),
    trailing zero numerators stripped and gcd(den, *nums) == 1, so equal
    polynomials have equal (nums, den) and compare by tuple. The zero
    polynomial has empty ``nums``, ``den == 1`` and degree -inf.
    """

    __slots__ = ("nums", "den", "_coeffs")

    def __init__(self, coeffs=()):
        nums, den = scaled([as_rational(c) for c in coeffs])
        self._set(nums, den)

    @classmethod
    def from_scaled(cls, nums, den: int) -> "Polynomial":
        """The polynomial sum_k nums[k] / den * x**k, from ints and den != 0."""
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    def _set(self, nums, den: int) -> None:
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        self.nums, self.den = reduced(nums[:n], den)
        self._coeffs = None

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            den = self.den
            self._coeffs = tuple(Fraction(c, den) for c in self.nums)
        return self._coeffs

    @classmethod
    def monomial(cls, k: int, coeff=1) -> "Polynomial":
        if k < 0:
            raise ValueError("monomial degree must be >= 0")
        p, q = ratio(coeff)
        return cls.from_scaled([0] * k + [p], q)

    @property
    def degree(self):
        return len(self.nums) - 1 if self.nums else -math.inf

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return self.coeffs[k]
        return Fraction(0)

    def evaluate(self, x) -> Fraction:
        """p(x) by Horner's rule on the numerators, one Fraction at the end.

        With x = u/v, the loop builds sum_k nums[k] u**k v**(deg-k); the
        value is that over den v**deg.
        """
        u, v = ratio(x)
        if not self.nums:
            return Fraction(0)
        acc = 0
        vpow = 1
        for c in reversed(self.nums):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc, self.den * (vpow // v))

    __call__ = evaluate

    def derivative(self, r: int = 1) -> "Polynomial":
        if r < 0:
            raise ValueError("derivative order must be >= 0")
        nums = self.nums
        return Polynomial.from_scaled(
            [math.perm(k, r) * nums[k] for k in range(r, len(nums))], self.den
        )

    def scale_argument(self, c) -> "Polynomial":
        """The polynomial x -> p(c*x).

        With c = u/v, coefficient k is nums[k] u**k v**(deg-k) over
        den v**deg.
        """
        u, v = ratio(c)
        nums = self.nums
        if not nums:
            return self
        deg = len(nums) - 1
        return Polynomial.from_scaled(
            [a * u**k * v ** (deg - k) for k, a in enumerate(nums)], self.den * v**deg
        )

    def _combined(self, other, sign: int) -> "Polynomial":
        if isinstance(other, Polynomial):
            b, db = other.nums, other.den
        else:
            p, db = ratio(other)
            b = (p,)
        return Polynomial.from_scaled(
            *weighted_sum(((self.nums, self.den, 1), (b, db, sign)))
        )

    def __add__(self, other):
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial.from_scaled([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            size = len(self.nums) + len(other.nums) - 1
            return Polynomial.from_scaled(
                convolve(self.nums, other.nums, size), self.den * other.den
            )
        p, q = ratio(other)
        return Polynomial.from_scaled([a * p for a in self.nums], self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return bool(self.nums)

    def __repr__(self):
        return f"Polynomial([{', '.join(str(c) for c in self.coeffs)}])"


def gamma_weight_integral(poly: Polynomial, r: int) -> Fraction:
    """Integral of poly(y) * y**(r-1) * exp(-y) over (0, inf), exactly.

    Each monomial y**k contributes coefficient * (r + k - 1)!, so the result
    stays rational. Requires integer r >= 1.
    """
    if r < 1:
        raise ValueError("weight exponent r must be an integer >= 1")
    total = sum(c * math.factorial(r + k - 1) for k, c in enumerate(poly.nums) if c)
    return Fraction(total, poly.den)
