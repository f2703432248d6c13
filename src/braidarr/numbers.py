"""Exact combinatorial counts and closed-form characteristic polynomials.

Everything here is arbitrary-precision integer arithmetic.  Divisions only
occur where they are provably exact and the remainder is asserted to be zero,
so a formula transcription bug shows up as a hard error instead of a silently
rounded count.
"""
from __future__ import annotations

import math
from typing import Iterable


class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    ``coefficients[i]`` is the coefficient of ``t^i``.  The representation is
    normalized: the highest stored coefficient is nonzero, and the zero
    polynomial stores an empty tuple.
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = [int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coefficients: tuple[int, ...] = tuple(coeffs)

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPolynomial":
        """Expanded product of ``(t - r)`` over the given integer roots."""
        coeffs = [1]
        for r in roots:
            coeffs = [0] + coeffs
            for i in range(len(coeffs) - 1):
                coeffs[i] -= r * coeffs[i + 1]
        return cls(coeffs)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self.coefficients):
            return self.coefficients[power]
        return 0

    def __call__(self, x):
        value = 0
        for c in reversed(self.coefficients):
            value = value * x + c
        return value

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self) -> int:
        return hash(self.coefficients)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if not self.coefficients or not other.coefficients:
            return IntPolynomial()
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return IntPolynomial(out)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        size = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(size)
        )

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        size = max(len(self.coefficients), len(other.coefficients))
        return IntPolynomial(
            self.coefficient(i) - other.coefficient(i) for i in range(size)
        )

    def is_monic_of_degree(self, n: int) -> bool:
        return self.degree == n and self.coefficients[-1] == 1

    def has_alternating_signs(self, n: int) -> bool:
        """True if the coefficient of ``t^i`` is zero or has sign ``(-1)^(n-i)``."""
        if self.degree > n:
            return False
        for i, c in enumerate(self.coefficients):
            if c == 0:
                continue
            expected = 1 if (n - i) % 2 == 0 else -1
            if (c > 0) != (expected > 0):
                return False
        return True

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coefficients)})"

    def to_text(self) -> str:
        """ASCII rendering with descending powers, e.g. ``t^2 - 5*t + 4``."""
        if not self.coefficients:
            return "0"
        parts: list[str] = []
        for power in range(self.degree, -1, -1):
            c = self.coefficients[power]
            if c == 0:
                continue
            mag = abs(c)
            if power == 0:
                body = str(mag)
            elif power == 1:
                body = "t" if mag == 1 else f"{mag}*t"
            else:
                body = f"t^{power}" if mag == 1 else f"{mag}*t^{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def raney(n: int, m: int, r: int) -> int:
    """Two-parameter Fuss-Catalan number r/(n(m+1)+r) * C(n(m+1)+r, n).

    Evaluated as a big-integer product divided at the end; the division is
    exact and the remainder is asserted to be zero.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    if r < 1:
        raise ValueError(f"r must be positive, got {r}")
    top = n * (m + 1) + r
    numerator = r * math.comb(top, n)
    quotient, remainder = divmod(numerator, top)
    if remainder:
        raise ArithmeticError(
            f"raney({n}, {m}, {r}): {numerator} not divisible by {top}"
        )
    return quotient


def charpoly_A_closed(n: int, m: int) -> IntPolynomial:
    """(t - 1)(t - mn - 2)(t - mn - 3) ... (t - mn - n), expanded."""
    _require_positive(n, m)
    roots = [1] + [m * n + i for i in range(2, n + 1)]
    return IntPolynomial.from_roots(roots)


def charpoly_C_closed(n: int, m: int) -> IntPolynomial:
    """t(t - mn - 1)(t - mn - 2) ... (t - mn - n + 1), expanded."""
    _require_positive(n, m)
    roots = [0] + [m * n + i for i in range(1, n)]
    return IntPolynomial.from_roots(roots)


def shift(p: IntPolynomial, c: int) -> IntPolynomial:
    """Return ``p(t + c)`` expanded with exact integer arithmetic."""
    coeffs: list[int] = []
    for a in reversed(p.coefficients):
        # coeffs <- coeffs * (t + c) + a
        nxt = [0] * (len(coeffs) + 1)
        for i, b in enumerate(coeffs):
            nxt[i + 1] += b
            nxt[i] += c * b
        nxt[0] += a
        coeffs = nxt
    return IntPolynomial(coeffs)


def zaslavsky(p: IntPolynomial, n: int) -> int:
    """Region count ``(-1)^n p(-1)`` of an arrangement with char. polynomial p."""
    if p.degree != n:
        raise ValueError(f"expected degree {n}, got {p.degree}")
    value = p(-1)
    if n % 2:
        value = -value
    if value < 0:
        raise ValueError(
            f"(-1)^{n} p(-1) = {value} < 0; not a characteristic polynomial"
        )
    return value


def regions_A_closed(n: int, m: int) -> int:
    """2 (nm+n+1)! / (nm+2)! as an exact falling product."""
    _require_positive(n, m)
    value = 2
    for j in range(n * m + 3, n * m + n + 2):
        value *= j
    return value


def regions_B_closed(n: int, m: int) -> int:
    """n! * (A_n(m,2) - A_{n-1}(m,2))."""
    _require_positive(n, m)
    return math.factorial(n) * (raney(n, m, 2) - raney(n - 1, m, 2))


def regions_Gamma_closed(n: int, m: int) -> int:
    """Sum over k of C(n,k) (mk+1)^(k-1) (m(n-k)+1)^(n-k-1)."""
    _require_positive(n, m)
    total = 0
    for k in range(n + 1):
        total += (
            math.comb(n, k)
            * _guarded_power(m * k + 1, k - 1)
            * _guarded_power(m * (n - k) + 1, n - k - 1)
        )
    return total


def regions_Delta_closed(n: int, m: int) -> int:
    """Gamma count minus sum over k of C(n,k) k (m(k-1)+1)^(k-2) (m(n-k)+1)^(n-k-1)."""
    _require_positive(n, m)
    correction = 0
    for k in range(1, n + 1):
        correction += (
            math.comb(n, k)
            * k
            * _guarded_power(m * (k - 1) + 1, k - 2)
            * _guarded_power(m * (n - k) + 1, n - k - 1)
        )
    return regions_Gamma_closed(n, m) - correction


def _guarded_power(base: int, exponent: int) -> int:
    # Negative exponents only arise in the Gamma/Delta edge terms, always on
    # base 1; evaluate those as 1 and reject anything else.
    if exponent < 0:
        if base != 1:
            raise ValueError(f"negative exponent {exponent} on base {base}")
        return 1
    return base**exponent


def _require_positive(n: int, m: int) -> None:
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
