"""Exact rational scalars and their wire format.

Every numeric value in this package is an arbitrary-precision rational
(`fractions.Fraction`, always in lowest terms with positive denominator).
Floats are rejected at construction boundaries so rounding can never enter
silently; integers pass through because they are exact.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

Rational = Fraction

_WIRE_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def as_rational(value: int | Fraction | str) -> Fraction:
    """Coerce an exact value to Fraction, refusing floats.

    A Fraction comes back as the same object: Fractions are immutable, and a
    memo key that holds the caller's own object matches the stored key by
    identity, without building a Fraction or calling Fraction.__eq__.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError(
            f"refusing float {value!r}: pass an int, Fraction, or 'p/q' string"
        )
    return Fraction(value)


def scaled(values) -> tuple[list[int], int]:
    """Integer numerators of exact values over their least common denominator.

    The integer cores of the package work on these: sums of products run in
    Python ints, and one Fraction is built per result.
    """
    common = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (common // v.denominator) for v in values], common


class ScaledRow:
    """A growing row of exact values kept as integer numerators over one den.

    den is the lcm of the entries' denominators in lowest terms, so den > 0,
    gcd(den, *nums) == 1 and entry m is nums[m] / den. A row grows only by
    extend_ratios, which rescales the earlier numerators at most once per call.
    """

    __slots__ = ("nums", "den")

    def __init__(self, values=()):
        self.nums, self.den = scaled(list(values))

    def __len__(self) -> int:
        return len(self.nums)

    def __getitem__(self, m: int) -> Fraction:
        return Fraction(self.nums[m], self.den)

    def extend_ratios(self, pairs) -> None:
        """Append num / den for each (num, den) pair, den a positive int.

        num is an int, or a Fraction (a sum read through a perturbed table),
        whose denominator is folded into den. The pairs need not be in lowest
        terms. The new denominator is found first, so the earlier numerators
        are rescaled at most once, however many entries are appended.
        """
        entries = []
        common = self.den
        for num, den in pairs:
            if type(num) is not int:
                den *= num.denominator
                num = num.numerator
            g = math.gcd(num, den)
            num, den = num // g, den // g
            common *= den // math.gcd(common, den)
            entries.append((num, den))
        grow = common // self.den
        if grow > 1:
            self.nums = [c * grow for c in self.nums]
            self.den = common
        self.nums.extend(num * (common // den) for num, den in entries)


def ratio(value: int | Fraction | str) -> tuple[int, int]:
    """Numerator and positive denominator of an exact value, refusing floats."""
    if type(value) is int:
        return value, 1
    value = as_rational(value)
    return value.numerator, value.denominator


def reduced(nums, den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over a nonzero den, divided by their common factor.

    The result has a positive denominator and gcd(den, *nums) == 1, so two
    vectors hold the same values exactly when their reduced forms are equal.
    """
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple(c // g for c in nums), den // g


def format_rational(value: int | Fraction) -> str:
    """Render in lowest terms as 'n' or '-p/q' (the wire format)."""
    return str(as_rational(value))


def parse_rational(text: str) -> Fraction:
    """Parse the wire format: an integer or p/q with positive denominator."""
    token = text.strip()
    if not _WIRE_RE.match(token):
        raise ValueError(f"invalid rational {token!r}: expected 'n' or 'p/q'")
    return Fraction(token)
