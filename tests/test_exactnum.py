"""Ring arithmetic, exact square roots, float shadow, serialization."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from idstat.errors import CapacityExceeded, NegativeRadicand, NotRepresentable
from idstat.exactnum import (
    MAX_RADICAND,
    ONE,
    ZERO,
    RadicalRational,
    Rational,
    rsqrt_of_rational,
    square_free_split,
    sum_of_products,
)


def test_rational_is_reduced_with_positive_denominator():
    q = Rational(6, -8)
    assert q.numerator == -3 and q.denominator == 4
    assert Rational(0, 5) == 0


@pytest.mark.parametrize(
    "n, expected",
    [(1, (1, 1)), (4, (2, 1)), (12, (2, 3)), (360, (6, 10)), (999983, (1, 999983))],
)
def test_square_free_split(n, expected):
    s, r = square_free_split(n)
    assert (s, r) == expected
    assert s * s * r == n


def test_radd_half_sqrt2_twice_is_sqrt2():
    h = rsqrt_of_rational(Fraction(1, 2))
    assert h.items() == [(2, Fraction(1, 2))]
    assert (h + h).items() == [(2, Fraction(1, 1))]


def test_radd_cancellation_gives_canonical_zero():
    x = rsqrt_of_rational(Fraction(1, 2)) + rsqrt_of_rational(3) + 7
    assert (x - x) == ZERO
    assert (x - x).is_zero
    assert (x - x).items() == []


def test_rmul_normalizer_product():
    # 1/(2*sqrt(3)) times 1/sqrt(6) = sqrt(2)/12
    a = rsqrt_of_rational(Fraction(1, 12))
    b = rsqrt_of_rational(Fraction(1, 6))
    prod = a * b
    assert prod.items() == [(2, Fraction(1, 12))]
    assert math.isclose(float(prod), 1 / (2 * math.sqrt(3)) / math.sqrt(6), rel_tol=1e-15)


def test_rmul_reduces_radicand():
    # sqrt(6)*sqrt(10) = 2*sqrt(15)
    prod = rsqrt_of_rational(6) * rsqrt_of_rational(10)
    assert prod.items() == [(15, Fraction(2))]


@pytest.mark.parametrize(
    "value, expected",
    [
        (Fraction(1, 6), [(6, Fraction(1, 6))]),
        (4, [(1, Fraction(2))]),
        (Fraction(1, 2), [(2, Fraction(1, 2))]),
        (Fraction(9, 4), [(1, Fraction(3, 2))]),
        (0, []),
    ],
)
def test_rsqrt_of_rational(value, expected):
    assert rsqrt_of_rational(value).items() == expected


def test_rsqrt_of_negative_raises():
    with pytest.raises(NegativeRadicand):
        rsqrt_of_rational(Fraction(-1, 4))


def test_sqrt_squares_back():
    for q in [Fraction(1, 6), Fraction(3, 7), Fraction(25), Fraction(8, 9)]:
        root = rsqrt_of_rational(q)
        assert root * root == RadicalRational.of(q)


def test_unique_representation_equality():
    assert rsqrt_of_rational(2) + rsqrt_of_rational(3) == rsqrt_of_rational(3) + rsqrt_of_rational(2)
    assert (1 + rsqrt_of_rational(2)) * (1 - rsqrt_of_rational(2)) == -1
    assert RadicalRational.of(Fraction(5, 12)) == Fraction(5, 12)
    assert ONE == 1


def test_division_by_single_term():
    x = 1 + rsqrt_of_rational(3)
    halved = x / 2
    assert halved == RadicalRational.of(Fraction(1, 2)) + rsqrt_of_rational(Fraction(3, 4))
    y = x / rsqrt_of_rational(2)
    assert y * rsqrt_of_rational(2) == x


def test_division_rules():
    two_terms = 1 + rsqrt_of_rational(2)
    with pytest.raises(NotRepresentable):
        ONE / two_terms
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_ring_axioms_small_pool():
    pool = [
        ZERO,
        ONE,
        RadicalRational.of(Fraction(-2, 3)),
        rsqrt_of_rational(2),
        rsqrt_of_rational(Fraction(3, 4)) - 1,
        rsqrt_of_rational(6) + rsqrt_of_rational(2) * 2,
    ]
    for a in pool:
        for b in pool:
            assert a + b == b + a
            assert a * b == b * a
            for c in pool:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


def test_float_shadow_random_trees():
    rng = random.Random(20260819)
    leaves_exact = [
        RadicalRational.of(Fraction(n, d))
        for n in range(-3, 4)
        for d in (1, 2, 3)
    ] + [rsqrt_of_rational(q) for q in (2, 3, Fraction(1, 2), Fraction(5, 6), 7)]
    leaves_float = [float(v) for v in leaves_exact]
    for _ in range(300):
        i, j = rng.randrange(len(leaves_exact)), rng.randrange(len(leaves_exact))
        op = rng.choice(["+", "-", "*"])
        if op == "+":
            exact, shadow = leaves_exact[i] + leaves_exact[j], leaves_float[i] + leaves_float[j]
        elif op == "-":
            exact, shadow = leaves_exact[i] - leaves_exact[j], leaves_float[i] - leaves_float[j]
        else:
            exact, shadow = leaves_exact[i] * leaves_exact[j], leaves_float[i] * leaves_float[j]
        assert math.isclose(float(exact), shadow, rel_tol=1e-12, abs_tol=1e-12)


def test_capacity_radicand_cap():
    with pytest.raises(CapacityExceeded):
        rsqrt_of_rational(1000003)  # prime above the cap
    with pytest.raises(CapacityExceeded):
        rsqrt_of_rational(999983) * rsqrt_of_rational(3)
    assert MAX_RADICAND == 10**6


def _fold(triples):
    return sum((a * b * w for a, b, w in triples), ZERO)


def test_sum_of_products_matches_ring_fold():
    rng = random.Random(20261018)
    radicands = (1, 2, 3, 5, 6, 10, 15, 30)

    def element():
        return sum(
            (rsqrt_of_rational(r) * Fraction(rng.randint(-9, 9), rng.randint(1, 12))
             for r in rng.sample(radicands, rng.randint(0, 4))),
            ZERO,
        )

    shared = [element() for _ in range(4)]  # repeated objects, as in a state vector
    for _ in range(200):
        pool = shared + [element() for _ in range(3)]
        triples = [
            (rng.choice(pool), rng.choice(pool),
             rng.choice([0, 1, -2, Fraction(rng.randint(-7, 7), rng.randint(1, 9))]))
            for _ in range(rng.randint(0, 12))
        ]
        assert sum_of_products(triples) == _fold(triples)
        assert sum_of_products(iter(triples)) == _fold(triples)


def test_sum_of_products_cancels_to_the_empty_map():
    a = rsqrt_of_rational(Fraction(1, 6)) + Fraction(2, 3)
    b = rsqrt_of_rational(10) - 1
    total = sum_of_products([(a, b, 3), (b, a, Fraction(-3, 2)), (a, b, Fraction(-3, 2))])
    assert total.is_zero and total.items() == [] and total == ZERO
    assert sum_of_products([]) == ZERO
    half = rsqrt_of_rational(Fraction(1, 2))  # (1/2)*sqrt(2)
    assert sum_of_products([(half, half, 1), (half, half, 1)]) == ONE


def test_sum_of_products_refuses_past_the_radicand_cap():
    with pytest.raises(CapacityExceeded):
        sum_of_products([(ONE, ONE, 1), (rsqrt_of_rational(999983), rsqrt_of_rational(3), 1)])
    with pytest.raises(TypeError):
        sum_of_products([(ONE, ONE, 0.5)])


def test_human_form():
    assert str(ZERO) == "0"
    assert str(rsqrt_of_rational(Fraction(1, 2))) == "1/2*sqrt(2)"
    assert str(RadicalRational.of(Fraction(5, 12))) == "5/12"
    assert str(rsqrt_of_rational(Fraction(1, 6)) - Fraction(1, 2)) == "-1/2 + 1/6*sqrt(6)"


def test_hash_consistent_with_equality():
    a = rsqrt_of_rational(8)
    b = rsqrt_of_rational(2) * 2
    assert a == b and hash(a) == hash(b)
    assert hash(RadicalRational.of(7)) == hash(7)
    assert len({a, b}) == 1
