"""Moment providers: closed-form moments and the spec-string grammar."""

import copy
import pickle
from collections import defaultdict
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fubini import probabilistic
from fubini.combinat import stirling2
from fubini.distributions import (
    Bernoulli,
    DistributionSpecError,
    FiniteDiscrete,
    Gamma,
    PointMass,
    Poisson,
    parse_distribution,
)
from fubini.hooks import perturb
from fubini.probabilistic import (
    prob_stirling2,
    raw_moment,
    sum_degenerate_moment,
    sum_degenerate_row,
    sum_raw_moment,
)

F = Fraction


def test_point_mass_moments():
    d = PointMass(F(5, 2))
    assert raw_moment(d, 0) == 1
    assert raw_moment(d, 3) == F(125, 8)


def test_bernoulli_moments():
    d = Bernoulli(F(2, 5))
    assert raw_moment(d, 0) == 1
    for m in range(1, 9):
        assert raw_moment(d, m) == F(2, 5)
    assert raw_moment(Bernoulli(F(2, 5)), 7) == F(2, 5)


def test_poisson_moments():
    assert raw_moment(Poisson(2), 2) == 6
    assert raw_moment(Poisson(F(3, 2)), 1) == F(3, 2)
    # E[Y^3] = a + 3a^2 + a^3 via Touchard
    a = F(3, 2)
    assert raw_moment(Poisson(a), 3) == a + 3 * a**2 + a**3


def test_gamma_moments():
    assert raw_moment(Gamma(1, 1), 3) == 6
    # rising factorial over rate power
    d = Gamma(F(3, 2), F(2))
    assert raw_moment(d, 2) == F(3, 2) * F(5, 2) / 4


# The Fraction forms of the closed moment formulas, as oracles for the
# integer cores in Poisson.moment_formula and Gamma.moment_formula.
def _touchard(alpha, m):
    return sum(
        (stirling2(m, k) * alpha**k for k in range(1, m + 1)),
        start=F(1 if m == 0 else 0),
    )


def _rising_over_rate(alpha, beta, m):
    rising = F(1)
    for j in range(m):
        rising *= alpha + j
    return rising / beta**m


RATIONALS = [F(1), F(3, 2), F(2, 7), F(13, 4), F(1, 99), F(100, 3)]


@pytest.mark.parametrize("alpha", RATIONALS, ids=str)
def test_poisson_integer_core_matches_fraction_formula(alpha):
    d = Poisson(alpha)
    for m in range(61):
        got = d.moment_formula(m)
        assert type(got) is Fraction and got == _touchard(alpha, m), m


@pytest.mark.parametrize("alpha", RATIONALS[:3], ids=str)
@pytest.mark.parametrize("beta", RATIONALS[3:], ids=str)
def test_gamma_integer_core_matches_fraction_formula(alpha, beta):
    d = Gamma(alpha, beta)
    for m in range(61):
        got = d.moment_formula(m)
        assert type(got) is Fraction and got == _rising_over_rate(alpha, beta, m), m


def test_poisson_moments_still_read_stirling2():
    d, m = Poisson(F(3, 2)), 5
    before = d.moment_formula(m)
    with perturb("stirling2", (m, 2), F(1, 3)):
        inside = d.moment_formula(m)
        assert inside == _touchard(d.alpha, m)
    assert inside == before + F(1, 3) * F(3, 2) ** 2
    assert d.moment_formula(m) == before


def test_finite_discrete_moments():
    d = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
    assert raw_moment(d, 0) == 1
    assert raw_moment(d, 1) == F(3, 2)
    assert raw_moment(d, 2) == F(7, 2)


@st.composite
def finite_discretes(draw):
    # 2 to 4 distinct rational atoms with positive rational weights summing to 1
    values = draw(
        st.lists(
            st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    raw = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
    return FiniteDiscrete(tuple((v, F(w, sum(raw))) for v, w in zip(values, raw)))


def _atom_moment(law, m):
    return sum((w * v**m for v, w in law), start=F(0))


def _k_fold_law(atoms, k):
    # the law of S_k as (value, weight) pairs: atoms convolved k times
    law = {F(0): F(1)}
    for _ in range(k):
        step = defaultdict(F)
        for s, p in law.items():
            for v, w in atoms:
                step[s + v] += p * w
        law = step
    return law.items()


POSITIVE = st.fractions(min_value=F(1, 9), max_value=F(6), max_denominator=9)


@settings(max_examples=40, deadline=None)
@given(finite_discretes(), st.integers(0, 4))
def test_finite_discrete_moments_match_the_atom_sums(dist, k):
    law = _k_fold_law(dist.atoms, k)
    for m in range(9):
        assert raw_moment(dist, m) == _atom_moment(dist.atoms, m), m
        assert sum_raw_moment(dist, k, m) == _atom_moment(law, m), (k, m)


@settings(max_examples=40, deadline=None)
@given(POSITIVE, POSITIVE, st.integers(0, 4))
def test_gamma_moments_match_the_rising_factorials(alpha, beta, k):
    # S_k is gamma with shape k alpha and the same rate; S_0 = 0
    dist = Gamma(alpha, beta)
    for m in range(9):
        assert raw_moment(dist, m) == _rising_over_rate(alpha, beta, m), m
        assert sum_raw_moment(dist, k, m) == _rising_over_rate(k * alpha, beta, m), (k, m)


def test_domain_validation():
    with pytest.raises(DistributionSpecError):
        Bernoulli(F(6, 5))
    with pytest.raises(DistributionSpecError):
        Bernoulli(F(-1, 5))
    Bernoulli(0)
    Bernoulli(1)
    with pytest.raises(DistributionSpecError):
        Poisson(0)
    with pytest.raises(DistributionSpecError):
        Gamma(0, 1)
    with pytest.raises(DistributionSpecError):
        Gamma(1, 0)
    with pytest.raises(DistributionSpecError):
        FiniteDiscrete(())
    with pytest.raises(DistributionSpecError):
        FiniteDiscrete(((F(1), F(1, 2)), (F(2), F(1, 3))))  # weights not 1
    with pytest.raises(DistributionSpecError):
        FiniteDiscrete(((F(1), F(1, 2)), (F(1), F(1, 2))))  # repeated value
    with pytest.raises(DistributionSpecError):
        FiniteDiscrete(((F(1), F(3, 2)), (F(2), F(-1, 2))))  # negative weight


def test_float_parameters_rejected():
    with pytest.raises(TypeError):
        Bernoulli(0.4)
    with pytest.raises(TypeError):
        Gamma(1.0, 1)


@pytest.mark.parametrize(
    "spec",
    [
        "point:5/2",
        "point:1",
        "bernoulli:2/5",
        "poisson:3/2",
        "gamma:1,1",
        "gamma:3/2,2",
        "discrete:0=1/6,1=1/2,3=1/3",
    ],
)
def test_spec_string_roundtrip(spec):
    d = parse_distribution(spec)
    assert d.spec_string() == spec
    assert parse_distribution(d.spec_string()) == d


def test_parse_is_case_insensitive_on_kind():
    assert parse_distribution("Bernoulli:2/5") == Bernoulli(F(2, 5))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "point",
        "point:",
        "point:1.5",
        "weird:1",
        "bernoulli:7/5",
        "poisson:0",
        "poisson:-2",
        "gamma:1",
        "gamma:1,1,1",
        "gamma:0,1",
        "discrete:",
        "discrete:1",
        "discrete:1=1/2,2=1/3",
        "discrete:1=x,2=1/2",
    ],
)
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(DistributionSpecError):
        parse_distribution(bad)


def test_parse_error_names_token():
    with pytest.raises(DistributionSpecError, match="1[.]5"):
        parse_distribution("point:1.5")
    with pytest.raises(DistributionSpecError, match="weird"):
        parse_distribution("weird:1")


def test_distributions_hashable_and_frozen():
    d = Poisson(F(3, 2))
    assert hash(d) == hash(Poisson(F(3, 2)))
    with pytest.raises(Exception):
        d.alpha = F(2)
    s = {PointMass(1), PointMass(1), PointMass(F(5, 2))}
    assert len(s) == 2


def test_equal_distributions_built_apart_share_memo_rows():
    a = FiniteDiscrete(((F(0), F(1, 6)), (F(1), F(1, 2)), (F(3), F(1, 3))))
    b = parse_distribution("discrete:0=1/6,1=1/2,3=1/3")
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash(a)  # the stored hash is returned again
    assert a != parse_distribution("discrete:0=1/6,1=1/2,2=1/3")
    assert Bernoulli(F(1, 2)) != PointMass(F(1, 2))
    lam = F(1, 3)
    # the sum moments are contracted from one stored row, so the rows agree
    row = sum_degenerate_row(a, 3, 4, lam)
    other = sum_degenerate_row(b, 3, 4, F(1, 3))
    assert (other.nums, other.den) == (row.nums, row.den)
    assert probabilistic._sum_moment_rows[b, 3] is probabilistic._sum_moment_rows[a, 3]
    assert sum_degenerate_moment(b, 3, 4, F(1, 3)) == sum_degenerate_moment(a, 3, 4, lam)
    # so are the triangle rows and the raw moments
    assert prob_stirling2(b, 5, 2, lam) == prob_stirling2(a, 5, 2, lam)
    assert probabilistic._triangle(b, 5, F(1, 3))[5] is probabilistic._triangle(a, 5, lam)[5]
    assert raw_moment(b, 4) == raw_moment(a, 4)
    assert probabilistic._raw_moment_rows[b] is probabilistic._raw_moment_rows[a]


# --- value-type contract: immutable, compared by type and parameters ---

_ONE_OF_EACH = [
    (PointMass(F(5, 2)), "value"),
    (Bernoulli(F(2, 5)), "p"),
    (Poisson(F(3, 2)), "alpha"),
    (Gamma(F(3, 2), 2), "beta"),
    (FiniteDiscrete(((F(0), F(1, 2)), (F(1), F(1, 2)))), "atoms"),
]


@pytest.mark.parametrize("dist, field", _ONE_OF_EACH)
def test_assigning_a_distribution_field_raises(dist, field):
    before = getattr(dist, field)
    with pytest.raises(AttributeError):
        setattr(dist, field, F(1))
    with pytest.raises(AttributeError):
        delattr(dist, field)
    assert getattr(dist, field) == before


def test_parameters_compare_by_value_whatever_their_exact_type():
    a, b = Gamma(F(3, 2), 2), Gamma(F(3, 2), F(2))
    assert a == b and hash(a) == hash(b)
    assert type(a.beta) is Fraction
    assert Gamma(F(3, 2), 2) != Gamma(F(3, 2), 3)
    assert PointMass(1) != Bernoulli(1)
    assert PointMass(1) != 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: PointMass(0.5),
        lambda: Bernoulli(0.5),
        lambda: Poisson(1.5),
        lambda: Gamma(1, 2.0),
        lambda: FiniteDiscrete(((0.0, F(1)),)),
    ],
    ids=["point", "bernoulli", "poisson", "gamma", "discrete"],
)
def test_every_constructor_rejects_a_float(build):
    with pytest.raises(TypeError, match="refusing float"):
        build()


@pytest.mark.parametrize("dist, field", _ONE_OF_EACH)
def test_repr_names_the_type_and_its_parameters(dist, field):
    text = repr(dist)
    assert text.startswith(type(dist).__name__ + "(")
    assert f"{field}=" in text


def test_replace_rebuilds_through_the_constructor():
    assert Gamma(F(3, 2), 2).replace(beta=3) == Gamma(F(3, 2), 3)
    assert Gamma(F(3, 2), 2)._fields == ("alpha", "beta")
    with pytest.raises(DistributionSpecError):
        Bernoulli(F(1, 2)).replace(p=2)


@pytest.mark.parametrize("dist, field", _ONE_OF_EACH)
def test_copies_and_pickles_compare_and_hash_equal(dist, field):
    for twin in (copy.copy(dist), copy.deepcopy(dist), pickle.loads(pickle.dumps(dist))):
        assert twin == dist and hash(twin) == hash(dist)


def test_every_distribution_defines_its_own_init():
    # the benchmark's tracer counts constructions by wrapping each class's
    # own __init__; an inherited one would go uncounted
    for cls in (PointMass, Bernoulli, Poisson, Gamma, FiniteDiscrete):
        assert "__init__" in vars(cls), cls
