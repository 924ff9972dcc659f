"""Dense vectors of exact rationals: polynomials and the shared ring kernel.

A vector is stored as integer numerators over one positive denominator, as
FLINT's fmpq_poly is: ``nums[k] / den`` is entry k (the coefficient of x**k
of a Polynomial, of t**k of a series.TruncatedSeries). ``ScaledVector``
holds the ring operations of both types once. Every operation works on the
integers and divides out their common factor once per result
(``rational.reduced``); ``coeffs`` builds the Fraction coefficients each
time it is read, and no vector keeps them.

Two integer kernels serve both types: ``convolve`` multiplies numerator
vectors, and ``weighted_sum`` adds any number of weighted vectors over the
lcm of their denominators. ``+`` and ``-`` are two-term weighted sums, and
every other weighted sum of rows in the package (the Stirling triangle, the
degenerate Stirling rows, THM2_3's and THM2_11's sums) is one call to
``weighted_sum``, reduced once or compared as it is.

``pack`` and ``unpack`` carry an integer vector to one integer and back by
Kronecker substitution at X = 2**bits, so that one big-integer operation
stands for a whole vector, and one product of packs for a convolution: the
identity checkers compare their polynomial convolutions so. ``pack_bits``
sizes X from the bit-lengths of the operands, and ``PackedVectors`` keeps a
table of vectors packed once per width.
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
    Fraction weight. The first pass drops zero weights, folds a Fraction
    weight's denominator into the term's den, divides each weight and den by
    their gcd and takes the lcm of the reduced dens; the second adds the
    terms in ints over that lcm, shorter vectors padded with zeros. The
    result is not reduced. No terms give ([], 1).
    """
    kept = []
    common, size = 1, 0
    for nums, den, weight in terms:
        if type(weight) is not int:
            den *= weight.denominator
            weight = weight.numerator
        if weight:
            g = math.gcd(weight, den)
            if g != 1:
                weight //= g
                den //= g
            if common % den:
                common = math.lcm(common, den)
            if len(nums) > size:
                size = len(nums)
            kept.append((nums, den, weight))
    acc = [0] * size
    for nums, den, weight in kept:
        factor = weight * (common // den)
        for k, c in enumerate(nums):
            acc[k] += factor * c
    return acc, common


def pack(nums, bits: int) -> int:
    """sum_i nums[i] * 2**(bits*i): the int vector nums as one integer.

    Packing is linear, so a weighted sum of packed vectors, or a packed
    vector times an int, is the pack of that sum or product. Exactness: if
    every entry of two vectors a and b has |entry| < 2**(bits-1), then
    pack(a, bits) == pack(b, bits) exactly when a == b, and unpack recovers
    each. Two sides compared as pack(a) * den_b == pack(b) * den_a therefore
    need that bound on the cross-multiplied entries (``pack_bits``).
    """
    if len(nums) > 16:
        # halves: the shifts stay short, where one running sum would shift
        # ever longer ints
        half = len(nums) // 2
        return pack(nums[:half], bits) + (pack(nums[half:], bits) << bits * half)
    acc = 0
    for c in reversed(nums):
        acc = (acc << bits) + c
    return acc


def unpack(value: int, bits: int, size: int) -> list[int]:
    """The balanced base-2**bits digits 0..size-1 of value, each in
    [-2**(bits-1), 2**(bits-1)): the vector that ``pack`` made value from."""
    half = 1 << (bits - 1)
    base = half << 1
    out = []
    for _ in range(size):
        digit = value & (base - 1)
        if digit >= half:
            digit -= base
        out.append(digit)
        value = (value - digit) >> bits
    return out


def pack_bits(weight: int, top: int, den: int) -> int:
    """A pack width for one side sum_l v_l M_l compared against den.

    weight is sum_l |v_l| and top the largest |entry| of the packed vectors
    M_l, so every entry of the side times den is below
    2**(bitlen(weight) + bitlen(top) + bitlen(den)); two more bits put it
    under 2**(bits-1) with one to spare (``pack``). A block packs at the
    larger width of its two sides. The width is rounded up to a multiple of
    64, so that vectors packed once serve every block of a similar size.
    """
    bits = weight.bit_length() + top.bit_length() + den.bit_length() + 2
    return -(-bits // 64) * 64


def _over_int(nums, den) -> tuple:
    # nums over den with den an int: a Fraction den's denominator moves onto nums
    if type(den) is int:
        return nums, den
    return [c * den.denominator for c in nums], den.numerator


class PackedVectors:
    """Vectors of exact entries as int vectors over one den, packed per width.

    The entries are ints, or Fractions (a table read under hooks.perturb),
    whose denominators are folded into den as ``weighted_sum`` folds a
    Fraction weight; den itself may be a Fraction too. ``top`` is the largest
    |entry| of the int vectors, for ``pack_bits``; ``at(bits)`` packs every
    vector at that width on first use and keeps the packs, so a table built
    once serves every block that packs at a width it has seen.
    """

    __slots__ = ("vectors", "den", "top", "_packs")

    def __init__(self, vectors, den=1):
        vectors = [list(v) for v in vectors]
        flat = [c for v in vectors for c in v]
        if type(den) is not int or any(type(c) is not int for c in flat):
            flat, common = scaled(flat)
            flat, den = _over_int(flat, den * common)
            entries = iter(flat)
            vectors = [[next(entries) for _ in v] for v in vectors]
        self.vectors, self.den = vectors, den
        self.top = max(map(abs, flat), default=0)
        self._packs = {}

    def side(self, weights, den) -> tuple[list[int], int]:
        """The side sum_l weights[l] vectors[l] / (den * self.den), int weights,
        as (weights, den) over an int den: a Fraction den's denominator moved
        onto the weights."""
        return _over_int(weights, den * self.den)

    def at(self, bits: int) -> list[int]:
        """The vectors packed at width bits, packed on the first request."""
        if bits not in self._packs:
            self._packs[bits] = [pack(v, bits) for v in self.vectors]
        return self._packs[bits]


class ScaledVector:
    """Immutable dense vector of exact rationals; ``coeffs[k]`` is entry k.

    The one stored form of Polynomial and TruncatedSeries: ``nums`` (a tuple
    of ints) over ``den`` (a positive int) with gcd(den, *nums) == 1, so
    equal vectors of one type have equal (nums, den) and compare by tuple.
    The ring operations live here; a subclass says how a vector is stored
    (``_set``), how long a product is and which operands it accepts
    (``_product_size``, ``_check``), and adds its own methods.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        self._set(*scaled([as_rational(c) for c in coeffs]))

    @classmethod
    def from_scaled(cls, nums, den: int):
        """The vector with entries nums[k] / den, from ints and den != 0."""
        v = cls.__new__(cls)
        v._set(nums, den)
        return v

    def _check(self, other) -> None:
        """Raise if other, of the same type, cannot meet self in + or *."""

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(c, den) for c in self.nums)

    def _combined(self, other, sign: int):
        if isinstance(other, type(self)):
            self._check(other)
            b, db = other.nums, other.den
        else:
            p, db = ratio(other)
            b = (p,)
        return self.from_scaled(*weighted_sum(((self.nums, self.den, 1), (b, db, sign))))

    def __add__(self, other):
        return self._combined(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return self.from_scaled([-c for c in self.nums], self.den)

    def __sub__(self, other):
        return self._combined(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            nums = convolve(self.nums, other.nums, self._product_size(other))
            return self.from_scaled(nums, self.den * other.den)
        p, q = ratio(other)
        return self.from_scaled([a * p for a in self.nums], self.den * q)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is type(self):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        return f"{type(self).__name__}([{', '.join(str(c) for c in self.coeffs)}])"


class Polynomial(ScaledVector):
    """Immutable dense polynomial; ``coeffs[k]`` multiplies x**k.

    Trailing zero numerators are stripped, so the zero polynomial has empty
    ``nums``, ``den == 1`` and degree -inf.
    """

    __slots__ = ()

    def _set(self, nums, den: int) -> None:
        n = len(nums)
        while n and not nums[n - 1]:
            n -= 1
        self.nums, self.den = reduced(nums[:n], den)

    def _product_size(self, other) -> int:
        return len(self.nums) + len(other.nums) - 1

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
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def evaluate_ratio(self, x) -> tuple[int, int]:
        """p(x) as a pair (num, den), den > 0, not necessarily in lowest terms.

        Horner's rule on the numerators: with x = u/v, the loop builds
        sum_k nums[k] u**k v**(deg-k); the value is that over den v**deg.
        """
        u, v = ratio(x)
        if not self.nums:
            return 0, 1
        acc = 0
        vpow = 1
        for c in reversed(self.nums):
            acc = acc * u + c * vpow
            vpow *= v
        return acc, self.den * (vpow // v)

    def evaluate(self, x) -> Fraction:
        """p(x), reduced once from evaluate_ratio."""
        return Fraction(*self.evaluate_ratio(x))

    __call__ = evaluate

    def derivative_ratio(self, r: int = 1) -> tuple[list[int], int]:
        """The r-th derivative as (nums, den), not necessarily in lowest terms."""
        if r < 0:
            raise ValueError("derivative order must be >= 0")
        nums = self.nums
        return [math.perm(k, r) * nums[k] for k in range(r, len(nums))], self.den

    def derivative(self, r: int = 1) -> "Polynomial":
        """The r-th derivative, reduced once from derivative_ratio."""
        return Polynomial.from_scaled(*self.derivative_ratio(r))

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

    def __bool__(self):
        return bool(self.nums)


def gamma_weight_integral(poly: Polynomial, r: int) -> Fraction:
    """Integral of poly(y) * y**(r-1) * exp(-y) over (0, inf), exactly.

    Each monomial y**k contributes coefficient * (r + k - 1)!, so the result
    stays rational. Requires integer r >= 1.
    """
    if r < 1:
        raise ValueError("weight exponent r must be an integer >= 1")
    total = sum(c * math.factorial(r + k - 1) for k, c in enumerate(poly.nums) if c)
    return Fraction(total, poly.den)
