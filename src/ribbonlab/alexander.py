"""
Alexander polynomial of a presented complement group.

The free-derivative (Fox) matrix of the presented group has one row per
relation and one column per generator, with every generator sent to t, so
its entries are integer Laurent polynomials.  The polynomial returned is
the greatest common divisor of its maximal proper minors, normalized so
the lowest exponent is zero and the constant term positive.  The gcd is
taken over the rationals and cleared to primitive integer form, making
the output bytes canonical.  It is invariant under every move in
``ribbonlab.moves``.

Two facts keep the computation polynomial in the number of bases.  By the
fundamental formula of Fox calculus, each relator r satisfies
``sum_j (dr/dx_j)(x_j - 1) = r - 1 = 0``, so with every x_j sent to t the
columns of the matrix sum to zero; every maximal minor of one row pick is
therefore, up to sign, the minor that deletes the last column, and only
row picks are enumerated.  Each minor is a determinant over Z[t] (rows
first shifted by a power of t, a unit), computed by fraction-free Bareiss
elimination (Bareiss, Math. Comp. 1968) in O(k^3) ring operations with
exact divisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .quandle import GroupPresentation, group_presentation
from .ribbon import RibbonData, component_count

__all__ = [
    "LaurentPolynomial",
    "alexander_polynomial",
]


@dataclass(frozen=True)
class LaurentPolynomial:
    """Finitely supported integer coefficients, stored as sorted
    (exponent, coefficient) pairs with zeros dropped."""

    terms: tuple[tuple[int, int], ...] = ()

    @classmethod
    def from_dict(cls, coeffs: dict[int, int]) -> "LaurentPolynomial":
        return cls(tuple(sorted((e, c) for e, c in coeffs.items() if c)))

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(((0, 1),))

    def is_zero(self) -> bool:
        return not self.terms

    def min_exponent(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[0][0]

    def degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no exponents")
        return self.terms[-1][0]

    def evaluate(self, value):
        return sum(c * value**e for e, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                body = str(abs(c))
            else:
                variable = "t" if e == 1 else f"t^{e}"
                body = variable if abs(c) == 1 else f"{abs(c)}*{variable}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _fox_rows(pres: GroupPresentation) -> list[list[list[int]]]:
    """Free-derivative rows with every generator sent to t, as dense
    coefficient lists (lowest power first, trailing zeros trimmed), each
    row multiplied by the power of t that makes its least exponent zero.

    Walking the relator left to right: a positive letter g contributes
    t^p to column g and raises the running abelianized prefix p by one; a
    negative letter lowers p first and contributes -t^p.
    """
    rows = []
    for rel in pres.relations:
        terms: list[dict[int, int]] = [{} for _ in range(pres.generators)]
        p = 0
        for x in rel.relator():
            col = terms[abs(x) - 1]
            if x > 0:
                col[p] = col.get(p, 0) + 1
                p += 1
            else:
                p -= 1
                col[p] = col.get(p, 0) - 1
        lo = min((e for col in terms for e, c in col.items() if c), default=0)
        rows.append([_trim([col.get(e, 0) for e in range(lo, max(col, default=lo) + 1)]) for col in terms])
    return rows


# Dense polynomials over Z: coefficient lists, lowest power first, with no
# trailing zeros, so the zero polynomial is [].


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _psub(a: list[int], b: list[int]) -> list[int]:
    out = a + [0] * (len(b) - len(a)) if len(b) > len(a) else list(a)
    for i, y in enumerate(b):
        out[i] -= y
    return _trim(out)


def _pdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b for b dividing a in Z[t]: long division from the top, where
    every leading coefficient divides exactly."""
    a = list(a)
    lead = b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for shift in range(len(q) - 1, -1, -1):
        c = a[shift + len(b) - 1] // lead
        if c:
            q[shift] = c
            for i, y in enumerate(b):
                a[shift + i] -= c * y
    return q


def _det(matrix: list[list[list[int]]]) -> list[int]:
    """Determinant over Z[t] by Bareiss elimination: after step k every
    entry of the trailing block is a (k+1)-order minor, and the division
    by the previous pivot is exact (Sylvester's identity)."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return [1]
    negate = False
    prev = [1]
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return []
            a[k], a[swap] = a[swap], a[k]
            negate = not negate
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = _pdiv_exact(_psub(_pmul(pivot, row_i[j]), _pmul(lead, row_k[j])), prev)
        prev = pivot
    det = a[n - 1][n - 1]
    return [-c for c in det] if negate else det


def _primitive(coeffs: list[Fraction]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    lcm = 1
    for c in coeffs:
        d = c.denominator
        g = gcd(lcm, d)
        lcm = lcm // g * d
    ints = [int(c * lcm) for c in coeffs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if ints[-1] < 0:
        ints = [-v for v in ints]
    return ints


def _poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i in range(len(b)):
            a[shift + i] -= factor * b[i]
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    fa = [Fraction(v) for v in a]
    fb = [Fraction(v) for v in b]
    while fb:
        fa, fb = fb, _poly_mod(fa, fb)
    return _primitive(fa)


def alexander_polynomial(data: RibbonData) -> LaurentPolynomial:
    """Normalized gcd of the maximal proper minors of the free-derivative
    matrix.  Raises on disconnected data; the single-base case is 1."""
    if component_count(data) != 1:
        raise ValueError("disconnected data has no Alexander polynomial")
    pres = group_presentation(data)
    k = pres.generators - 1
    if k == 0:
        return LaurentPolynomial.one()
    rows = [row[:k] for row in _fox_rows(pres) if any(row)]
    if len(rows) < k:
        return LaurentPolynomial.zero()

    result: list[int] | None = None
    for row_pick in combinations(rows, k):
        minor = _det(row_pick)
        if not minor:
            continue
        while minor[0] == 0:  # strip the power-of-t content
            minor = minor[1:]
        result = _poly_gcd(result, minor) if result is not None else _poly_gcd(minor, [])
        if len(result) == 1:
            return LaurentPolynomial.one()
    if result is None:
        return LaurentPolynomial.zero()
    if result and result[0] < 0:
        result = [-v for v in result]
    return LaurentPolynomial.from_dict({e: c for e, c in enumerate(result)})
