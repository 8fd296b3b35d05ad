"""Exact arithmetic on roots of unity."""

import random

import pytest

from spreadcheck.cyclotomic import (
    ONE,
    ZERO,
    CyclotomicValue,
    cyclotomic_polynomial,
    from_coefficients,
    _reduce,
    render_value,
    zeta,
)


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
        assert ZERO.is_zero
        assert ONE.as_int() == 1

    def test_root_powers_reduce(self):
        z = zeta(5)
        acc = ONE
        for _ in range(5):
            acc = acc * z
        assert acc == ONE
        # 1 + z + z^2 + z^3 + z^4 = 0
        total = ZERO
        for k in range(5):
            acc_k = zeta(5, k)
            total = total + acc_k
        assert total.is_zero

    def test_integer_coercion(self):
        z = zeta(7)
        assert (1 + z) - z == ONE
        assert 2 * z == z + z
        assert (z - 1) + (1 - z) == ZERO

    def test_golden_ratio_pair(self):
        # the two irrational values of the degree-3 rows on order-5 classes
        a = zeta(5, 1) + zeta(5, 4)
        b = zeta(5, 2) + zeta(5, 3)
        assert a + b == CyclotomicValue.from_int(-1)
        assert a * b == CyclotomicValue.from_int(-1)
        assert not a.is_rational

    def test_conjugation_is_an_involution(self):
        v = 3 + 2 * zeta(7) - zeta(7, 5)
        assert v.conjugate().conjugate() == v
        w = v * v.conjugate()
        assert w.conjugate() == w

    def test_cross_order_equality(self):
        assert zeta(10, 2) == zeta(5)
        assert zeta(4, 2) == CyclotomicValue.from_int(-1)
        assert zeta(6) - zeta(6) == ZERO
        assert zeta(5) != zeta(7)

    def test_integer_shortcut_matches_the_general_path(self):
        """Sums and products of two integers skip the embedding.  Routed
        through zeta(3), the same sums and products take the general path,
        whose result collapses back to order 1 with the same coefficients."""
        rng = random.Random(17)
        z, z_inv = zeta(3), zeta(3, 2)
        for _ in range(200):
            a, b = rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6)
            x, y = CyclotomicValue.from_int(a), CyclotomicValue.from_int(b)
            for short, general, expect in ((x + y, (x + z) + y - z, a + b),
                                           (x * y, (x * z) * y * z_inv, a * b)):
                assert (short.order, short.coeffs) == (general.order, general.coeffs) == (1, (expect,))
        assert 3 * zeta(5) == zeta(5) + zeta(5) + zeta(5)
        assert (3 * zeta(5)).coeffs == (0, 3, 0, 0)
        assert zeta(3) + 2 == 1 - zeta(3, 2)
        assert (zeta(3) + 2).order == 3 and (2 + zeta(3)).coeffs == (2, 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 9, 15])
    def test_from_coefficients_matches_the_zeta_sum(self, order):
        """One reduction of sum counts[key] x^key gives the value, order and
        coefficients alike, that adding counts[key] zeta(order, key) one term at
        a time gives: on seeded random counts, on the all-zero vector, and on
        counts that collapse to order 1 (a constant, and equal counts, whose
        sum over all order-th roots is 0 for order > 1)."""
        rng = random.Random(order)
        cases = [[0] * order, [2] + [0] * (order - 1), [3] * order]
        cases += [[rng.randrange(5) for _ in range(order)] for _ in range(30)]
        for counts in cases:
            value = CyclotomicValue.from_int(0)
            for key, c in enumerate(counts):
                if c:
                    value = value + c * zeta(order, key)
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
            hash(zeta(5))

    def test_json_roundtrip(self):
        for v in (CyclotomicValue.from_int(-3), zeta(5) + zeta(5, 4), 2 * zeta(8)):
            data = v.to_json()
            assert CyclotomicValue.from_json(data) == v
        assert CyclotomicValue.from_int(4).to_json() == 4

    def test_wrong_coefficient_length_rejected(self):
        with pytest.raises(ValueError):
            CyclotomicValue(5, (1, 0))


def test_render_strings():
    assert render_value(CyclotomicValue.from_int(0)) == "0"
    assert render_value(CyclotomicValue.from_int(-2)) == "-2"
    assert render_value(zeta(5, 1) + zeta(5, 4)) == "-1-z5^2-z5^3"
    assert render_value(1 + zeta(7) - 2 * zeta(7, 3)) == "1+z7-2*z7^3"
