"""Exact values in cyclotomic integers.

A :class:`CyclotomicValue` is an element of the ring Z[x]/(Phi_n(x)), with x
standing for a primitive n-th root of unity.  Values are kept reduced modulo
the cyclotomic polynomial.  A value whose reduced form is a plain integer is
collapsed to order 1, so rational integers have a single canonical
representation.  Values can be complex-conjugated and compared exactly across
different root orders, by embedding both into the compositum (the lcm order).

Values have no operators.  The one summation kernel, for the orthogonality
sums of character values, is ``chartab._orthogonal``: it reads values as
their nonzero (exponent, coefficient) pairs, adds every product into one
coefficient list and reduces that list once with :func:`_reduce`.  Its oracle,
``sum_of_products`` over values, lives in the test helpers
(``tests/helpers.py``).  No floating point anywhere, so "this value is zero"
and "these two values differ" are exact decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, constant term first.

    Computed by dividing x^n - 1 exactly by the product of the lower
    cyclotomic polynomials, which needs no factoring.
    """
    if n < 1:
        raise ValueError("root order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_quotient(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_quotient(num: list[int], den: list[int]) -> list[int]:
    # den is monic here, so synthetic division stays in the integers
    out = [0] * (len(num) - len(den) + 1)
    rem = list(num)
    for i in range(len(out) - 1, -1, -1):
        c = rem[i + len(den) - 1]
        out[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    if any(rem):
        raise ArithmeticError("division was not exact")
    return out


def _reduce(coeffs: list[int], order: int) -> list[int]:
    """Reduce a polynomial modulo Phi_order; result has deg(Phi_order) entries."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        c = work[i]
        if c:
            work[i] = 0
            for j in range(deg):
                work[i - deg + j] -= c * phi[j]
    work = work[:deg]
    work.extend([0] * (deg - len(work)))
    return work


def from_coefficients(order: int, coeffs: list[int]) -> "CyclotomicValue":
    """The sum of coeffs[k] zeta_order^k, reduced modulo Phi_order once; order 1 if it is an integer."""
    reduced = _reduce(coeffs, order)
    if order > 1 and not any(reduced[1:]):
        return CyclotomicValue(1, (reduced[0],))
    return CyclotomicValue(order, tuple(reduced))


@dataclass(frozen=True, eq=False)
class CyclotomicValue:
    """An element of Z[zeta_order], reduced modulo the cyclotomic polynomial."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        expected = len(cyclotomic_polynomial(self.order)) - 1
        if len(self.coeffs) != expected:
            raise ValueError(
                f"order-{self.order} value needs {expected} coefficients, "
                f"got {len(self.coeffs)}"
            )

    @staticmethod
    def from_int(c: int) -> "CyclotomicValue":
        return CyclotomicValue(1, (c,))

    @property
    def is_rational(self) -> bool:
        return self.order == 1

    @property
    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def as_int(self) -> int:
        if self.order != 1:
            raise ValueError(f"{self!r} is not a rational integer")
        return self.coeffs[0]

    def _embedded(self, n: int) -> list[int]:
        """Coefficient vector of this value inside Z[x]/(Phi_n), order | n."""
        if n == self.order:
            return list(self.coeffs)  # stored reduced
        step = n // self.order
        out = [0] * ((len(self.coeffs) - 1) * step + 1)
        for j, c in enumerate(self.coeffs):
            out[j * step] = c
        return _reduce(out, n)

    def conjugate(self) -> "CyclotomicValue":
        """Complex conjugation, zeta -> zeta^(-1)."""
        if self.order == 1:
            return self
        out = [0] * ((len(self.coeffs) - 1) * (self.order - 1) + 1)
        for j, c in enumerate(self.coeffs):
            out[j * (self.order - 1)] += c
        return from_coefficients(self.order, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicValue):
            return NotImplemented
        n = lcm(self.order, other.order)
        return self._embedded(n) == other._embedded(n)

    __hash__ = None  # custom equality crosses orders; hashing would be a trap

    def __repr__(self) -> str:
        return f"CyclotomicValue(order={self.order}, coeffs={self.coeffs})"

    def __str__(self) -> str:
        return render_value(self)

    def to_json(self) -> object:
        if self.order == 1:
            return self.coeffs[0]
        return {"order": self.order, "coeffs": list(self.coeffs)}


def render_value(v: CyclotomicValue) -> str:
    """Human-readable form: integer, or a sum of z{n}^k terms."""
    if v.order == 1:
        return str(v.coeffs[0])
    parts: list[str] = []
    for k, c in enumerate(v.coeffs):
        if c == 0:
            continue
        if k == 0:
            parts.append(f"{c:+d}")
            continue
        base = f"z{v.order}" if k == 1 else f"z{v.order}^{k}"
        if c == 1:
            parts.append(f"+{base}")
        elif c == -1:
            parts.append(f"-{base}")
        else:
            parts.append(f"{c:+d}*{base}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text
