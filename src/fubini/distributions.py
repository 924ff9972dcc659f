"""Random-variable models carrying exact rational moment sequences.

Each distribution knows its raw moments E[Y**m] as closed-form rationals;
no sampling or floating point is involved here. The text grammar used by
the CLI is ``point:c``, ``bernoulli:p``, ``poisson:a``, ``gamma:a,b`` and
``discrete:v1=w1,v2=w2,...`` with every number an integer or p/q.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from fractions import Fraction

from .combinat import stirling2
from .rational import as_rational, format_rational, parse_rational
from .record import Record


class DistributionSpecError(ValueError):
    """Raised when a distribution spec string cannot be parsed or validated."""


class Distribution(Record, ABC):
    """A random variable given by its exact raw moment sequence.

    Subclasses are immutable value classes: each coerces and validates its
    parameters in its own ``__init__``, and equal parameters give equal
    distributions. A distribution keys every moment and triangle memo, so
    its hash is computed once in ``__init__`` and stored: rehashing each
    Fraction field on every lookup would cost a modular ``pow`` each.
    """

    def _init(self, *values) -> None:
        super()._init(*values)
        self.__dict__["_hash"] = hash(values)

    def __hash__(self) -> int:
        return self._hash

    @abstractmethod
    def moment_formula(self, m: int) -> Fraction:
        """E[Y**m] from the closed form; m >= 0, uncached and unhooked."""

    @abstractmethod
    def spec_string(self) -> str:
        """Canonical text form, re-parseable by parse_distribution."""

    def __str__(self) -> str:
        return self.spec_string()


class PointMass(Distribution):
    """Y = c with probability 1."""

    _fields = ("value",)

    def __init__(self, value: Fraction):
        self._init(as_rational(value))

    def moment_formula(self, m: int) -> Fraction:
        return self.value**m

    def spec_string(self) -> str:
        return f"point:{format_rational(self.value)}"


class Bernoulli(Distribution):
    """Y in {0, 1} with P(Y=1) = p."""

    _fields = ("p",)

    def __init__(self, p: Fraction):
        p = as_rational(p)
        if not 0 <= p <= 1:
            raise DistributionSpecError(f"bernoulli parameter must lie in [0, 1], got {p}")
        self._init(p)

    def moment_formula(self, m: int) -> Fraction:
        return Fraction(1) if m == 0 else self.p

    def spec_string(self) -> str:
        return f"bernoulli:{format_rational(self.p)}"


class Poisson(Distribution):
    """Poisson with mean alpha > 0; moments via Stirling numbers."""

    _fields = ("alpha",)

    def __init__(self, alpha: Fraction):
        alpha = as_rational(alpha)
        if alpha <= 0:
            raise DistributionSpecError(f"poisson parameter must be > 0, got {alpha}")
        self._init(alpha)

    def moment_formula(self, m: int) -> Fraction:
        # Touchard: sum_k S(m,k) alpha**k; with alpha = p/q the sum runs in
        # ints as sum_k S(m,k) p**k q**(m-k) over q**m
        p, q = self.alpha.numerator, self.alpha.denominator
        total, ppow, qpow = int(m == 0), 1, q**m
        for k in range(1, m + 1):
            ppow *= p
            qpow //= q
            total += stirling2(m, k) * ppow * qpow
        return Fraction(total, q**m)

    def spec_string(self) -> str:
        return f"poisson:{format_rational(self.alpha)}"


class Gamma(Distribution):
    """Gamma with shape alpha > 0 and rate beta > 0; E[Y] = alpha/beta."""

    _fields = ("alpha", "beta")

    def __init__(self, alpha: Fraction, beta: Fraction):
        alpha, beta = as_rational(alpha), as_rational(beta)
        if alpha <= 0 or beta <= 0:
            raise DistributionSpecError(f"gamma parameters must be > 0, got {alpha},{beta}")
        self._init(alpha, beta)

    def moment_formula(self, m: int) -> Fraction:
        # rising factorial of alpha over beta**m; with alpha = a/b and
        # beta = c/d that is prod_{j<m} (a + j b) d**m over (b c)**m
        a, b = self.alpha.numerator, self.alpha.denominator
        c, d = self.beta.numerator, self.beta.denominator
        rising = 1
        for j in range(m):
            rising *= a + j * b
        return Fraction(rising * d**m, (b * c) ** m)

    def spec_string(self) -> str:
        return f"gamma:{format_rational(self.alpha)},{format_rational(self.beta)}"


class FiniteDiscrete(Distribution):
    """Finite support: atoms ((value, weight), ...) with weights summing to 1."""

    _fields = ("atoms",)

    def __init__(self, atoms: tuple[tuple[Fraction, Fraction], ...]):
        atoms = tuple((as_rational(v), as_rational(w)) for v, w in atoms)
        if not atoms:
            raise DistributionSpecError("discrete distribution needs at least one atom")
        if any(w <= 0 for _, w in atoms):
            raise DistributionSpecError("discrete weights must be > 0")
        if sum(w for _, w in atoms) != 1:
            raise DistributionSpecError("discrete weights must sum to 1")
        values = [v for v, _ in atoms]
        if len(set(values)) != len(values):
            raise DistributionSpecError("discrete values must be distinct")
        self._init(atoms)

    def moment_formula(self, m: int) -> Fraction:
        return sum((w * v**m for v, w in self.atoms), start=Fraction(0))

    def spec_string(self) -> str:
        body = ",".join(
            f"{format_rational(v)}={format_rational(w)}" for v, w in self.atoms
        )
        return f"discrete:{body}"


def _parse_number(token: str, spec: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError:
        raise DistributionSpecError(
            f"invalid distribution spec {spec!r}: bad rational {token!r}"
        ) from None


def parse_distribution(spec: str) -> Distribution:
    """Parse the distribution grammar; raises DistributionSpecError on bad input."""
    head, sep, body = spec.partition(":")
    head = head.strip().lower()
    if not sep:
        raise DistributionSpecError(
            f"invalid distribution spec {spec!r}: expected 'kind:params'"
        )
    if head == "point":
        return PointMass(_parse_number(body, spec))
    if head == "bernoulli":
        return Bernoulli(_parse_number(body, spec))
    if head == "poisson":
        return Poisson(_parse_number(body, spec))
    if head == "gamma":
        parts = body.split(",")
        if len(parts) != 2:
            raise DistributionSpecError(
                f"invalid distribution spec {spec!r}: gamma needs 'a,b'"
            )
        return Gamma(_parse_number(parts[0], spec), _parse_number(parts[1], spec))
    if head == "discrete":
        atoms = []
        for pair in body.split(","):
            v, sep2, w = pair.partition("=")
            if not sep2:
                raise DistributionSpecError(
                    f"invalid distribution spec {spec!r}: bad atom {pair!r}"
                )
            atoms.append((_parse_number(v, spec), _parse_number(w, spec)))
        return FiniteDiscrete(tuple(atoms))
    raise DistributionSpecError(
        f"invalid distribution spec {spec!r}: unknown kind {head!r}"
    )
