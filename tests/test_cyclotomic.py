"""Exact arithmetic on roots of unity."""

import cmath
import random
from math import gcd

import pytest

from helpers import sum_of_products
from spreadcheck.cyclotomic import (
    CyclotomicValue,
    cyclotomic_polynomial,
    from_coefficients,
    _reduce,
    render_value,
)


def root(order, power=1):
    """zeta_order ** power."""
    return from_coefficients(order, [0] * (power % order) + [1])


@pytest.mark.parametrize(
    "n,coeffs",
    [
        (1, [-1, 1]),
        (2, [1, 1]),
        (3, [1, 1, 1]),
        (4, [1, 0, 1]),
        (6, [1, -1, 1]),
        (8, [1, 0, 0, 0, 1]),
        (12, [1, 0, -1, 0, 1]),
        (105, None),  # first index with a coefficient outside {-1, 0, 1}
    ],
)
def test_cyclotomic_polynomials(n, coeffs):
    poly = cyclotomic_polynomial(n)
    if coeffs is not None:
        assert list(poly) == coeffs
    else:
        assert -2 in poly


def test_root_order_must_be_positive():
    with pytest.raises(ValueError, match="root order must be positive"):
        cyclotomic_polynomial(0)


def test_product_of_cyclotomics_is_x_n_minus_1():
    # x^12 - 1 = prod over d | 12 of the d-th cyclotomic polynomial
    prod = [1]
    for d in (1, 2, 3, 4, 6, 12):
        poly = cyclotomic_polynomial(d)
        out = [0] * (len(prod) + len(poly) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(poly):
                out[i + j] += a * b
        prod = out
    assert prod == [-1] + [0] * 11 + [1]


class TestCyclotomicValue:
    def test_integers_collapse_to_order_one(self):
        v = CyclotomicValue.from_int(5)
        assert v.order == 1
        assert v.is_rational
        assert v.as_int() == 5
        assert v.to_json() == 5
        assert CyclotomicValue.from_int(0).is_zero

    def test_root_powers_reduce(self):
        z = root(5)
        assert sum_of_products([(1, (z,) * 5)]) == CyclotomicValue.from_int(1)
        # 1 + z + z^2 + z^3 + z^4 = 0
        assert sum_of_products((1, (root(5, k),)) for k in range(5)).is_zero

    def test_golden_ratio_pair(self):
        # the two irrational values of the degree-3 rows on order-5 classes
        a = from_coefficients(5, [0, 1, 0, 0, 1])
        b = from_coefficients(5, [0, 0, 1, 1])
        assert sum_of_products([(1, (a,)), (1, (b,))]) == CyclotomicValue.from_int(-1)
        assert sum_of_products([(1, (a, b))]) == CyclotomicValue.from_int(-1)
        assert not a.is_rational

    def test_conjugation_is_an_involution(self):
        v = from_coefficients(7, [3, 2, 0, 0, 0, -1])
        assert v.conjugate().conjugate() == v
        w = sum_of_products([(1, (v, v.conjugate()))])
        assert w.conjugate() == w

    def test_cross_order_equality(self):
        assert root(10, 2) == root(5)
        assert root(4, 2) == CyclotomicValue.from_int(-1)
        assert sum_of_products([(1, (root(6),)), (-1, (root(6),))]) == CyclotomicValue.from_int(0)
        assert root(5) != root(7)

    def test_equality_takes_only_values(self):
        """No int coercion: a value is never equal to an int, not even to the
        one it stands for."""
        assert CyclotomicValue.from_int(1) != 1
        assert not CyclotomicValue.from_int(0) == 0

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 9, 15])
    def test_from_coefficients_matches_the_zeta_sum(self, order):
        """One reduction of sum counts[key] x^key gives the value, order and
        coefficients alike, that sum_of_products gives over the terms
        (counts[key], (root(order, key),)): on seeded random counts, on the
        all-zero vector, and on counts that collapse to order 1 (a constant,
        and equal counts, whose sum over all order-th roots is 0 for
        order > 1)."""
        rng = random.Random(order)
        cases = [[0] * order, [2] + [0] * (order - 1), [3] * order]
        cases += [[rng.randrange(5) for _ in range(order)] for _ in range(30)]
        for counts in cases:
            value = sum_of_products((c, (root(order, key),)) for key, c in enumerate(counts))
            got = from_coefficients(order, counts)
            assert (got.order, got.coeffs) == (value.order, value.coeffs)
        constant, equal = from_coefficients(order, [2] + [0] * (order - 1)), from_coefficients(order, [3] * order)
        assert (constant.order, constant.coeffs) == (1, (2,))
        assert (equal.order, equal.coeffs) == (1, (3,) if order == 1 else (0,))

    @pytest.mark.parametrize("order", [1, 3, 4, 5, 7, 8, 9, 12, 15, 20])
    def test_embedding_at_its_own_order_is_the_stored_vector(self, order):
        """A value is stored reduced, so at its own order _embedded gives the
        stored coefficients, which reducing them again leaves as they are."""
        rng = random.Random(order)
        for _ in range(5):
            v = from_coefficients(order, [rng.randint(-3, 3) for _ in range(2 * order)])
            assert v._embedded(v.order) == list(v.coeffs) == _reduce(list(v.coeffs), v.order)

    def test_unhashable_by_design(self):
        with pytest.raises(TypeError):
            hash(root(5))

    def test_wrong_coefficient_length_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicValue(5, (1, 0))

    def test_irrational_value_is_no_integer(self):
        message = r"^CyclotomicValue\(order=5, coeffs=\(0, 1, 0, 0\)\) is not a rational integer$"
        with pytest.raises(ValueError, match=message):
            root(5).as_int()


class TestSumOfProducts:
    def test_empty_and_factorless_terms(self):
        empty = sum_of_products([])
        assert (empty.order, empty.coeffs) == (1, (0,))
        assert sum_of_products([(7, ())]) == CyclotomicValue.from_int(7)
        zero = sum_of_products([(0, (root(5), root(7)))])
        assert (zero.order, zero.coeffs) == (1, (0,))

    def test_orders_meet_at_their_lcm(self):
        """zeta_3 zeta_5 = zeta_15^8; exponents past the lcm order wrap, and a
        rational result collapses to order 1."""
        assert sum_of_products([(1, (root(3), root(5)))]) == root(15, 8)
        assert sum_of_products([(2, (root(4, 3), root(4, 3)))]) == CyclotomicValue.from_int(-2)
        norm = sum_of_products([(1, (root(5), root(5).conjugate()))])
        assert (norm.order, norm.coeffs) == (1, (1,))

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_every_complex_embedding(self, seed):
        """Random sums of one- to three-factor products of values whose
        orders divide one n.  Under every embedding s of Q(zeta_n) into C,
        s(sum) lies within 1/2 of the floating sum of the s(products).  A
        nonzero cyclotomic integer has an integer norm, the product of its
        images, of size at least 1, so one of its images has size at least 1:
        agreement this close at every s makes the sum exact."""
        rng = random.Random(seed)
        for _ in range(25):
            n = rng.choice([12, 15, 20, 21, 24])
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            terms = []
            for _ in range(rng.randrange(1, 6)):
                factors = tuple(
                    from_coefficients(m, [rng.randint(-2, 2) for _ in range(m)])
                    for m in (rng.choice(divisors) for _ in range(rng.randint(1, 3)))
                )
                terms.append((rng.randint(-5, 5), factors))
            total = sum_of_products(terms)
            assert n % total.order == 0
            for k in (k for k in range(1, n + 1) if gcd(k, n) == 1):
                expected = 0
                for w, factors in terms:
                    product = w
                    for v in factors:
                        product *= _image(v, n, k)
                    expected += product
                assert abs(_image(total, n, k) - expected) < 0.5


def _image(v, n, k):
    """v under the embedding zeta_n -> exp(2 pi i k / n), v's order dividing n."""
    step = n // v.order
    return sum(c * cmath.exp(2j * cmath.pi * k * step * e / n) for e, c in enumerate(v.coeffs))


def test_render_strings():
    assert render_value(CyclotomicValue.from_int(0)) == "0"
    assert render_value(CyclotomicValue.from_int(-2)) == "-2"
    assert render_value(from_coefficients(5, [0, 1, 0, 0, 1])) == "-1-z5^2-z5^3"
    assert render_value(from_coefficients(7, [1, 1, 0, -2])) == "1+z7-2*z7^3"
