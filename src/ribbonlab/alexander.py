"""
Alexander polynomial of a presented complement group.

The free-derivative (Fox) matrix of the presented group has one row per
relation and one column per generator, with every generator sent to t, so
its entries are integer Laurent polynomials.  The polynomial returned is
the greatest common divisor of its maximal proper minors, normalized so
the lowest exponent is zero and the constant term positive.  The gcd is
the one over the rationals, found by Euclid on integer pseudo-remainders
and given in primitive integer form, making the output bytes canonical.
It is invariant under every move in ``ribbonlab.moves``.

Three facts keep the computation polynomial in the number of bases.
First, by the fundamental formula of Fox calculus, each relator r satisfies
``sum_j (dr/dx_j)(x_j - 1) = r - 1 = 0``, so with every x_j sent to t the
columns of the matrix sum to zero; every maximal minor of one row pick is
therefore, up to sign, the minor that deletes the last column, and only
row picks of the matrix without it are needed.

Second, every entry +-t^e is a unit of Z[t^-1, t].  Clearing the row and
column of such an entry by row and column operations that are invertible
over that ring leaves a block matrix with the unit in one block, so the
ideal of maximal minors is the unit times the ideal of the matrix with
that row and column deleted (Fitting ideals do not change under
invertible operations).  The gcd depends only on that ideal, and
normalization takes out units, so the rows are eliminated on such
pivots, least fill first, until none is left; on Fox matrices of knots
that leaves a handful of columns, often none.  Other monomials c*t^e,
which would need rational row operations, do not arise: at t = 1 a row
is +1 at its handle's start and -1 at its end (0 for a handle from a
base to itself), so the matrix there is a graph incidence matrix, which
is totally unimodular and stays so under pivoting on +-1, and a
monomial's value at t = 1 is its coefficient.  So the polynomial Delta
of a connected record is never zero: a spanning tree's rows give a
maximal minor m with m(1) = +-1, and Delta, primitive and dividing m,
has Delta(1) = +-1 (Gauss's lemma).  Elimination scales the ideal of
minors by a unit, so a residual of k >= 1 columns has a nonzero maximal
minor, and the gcd accumulated from zero over its row picks is nonzero.

Third, the row picks of what remains are enumerated, and each minor is a
determinant over Z[t] (rows first shifted by a power of t, a unit),
computed by fraction-free Bareiss elimination (Bareiss, Math. Comp. 1968)
in O(k^3) ring operations with exact divisions.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from . import _PUBLIC
from .ribbon import RibbonData, _Value, component_count

__all__ = list(_PUBLIC["alexander"])


class LaurentPolynomial(_Value):
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


def _sparse_fox_rows(data: RibbonData) -> list[dict[int, dict[int, int]]]:
    """Free-derivative rows with every generator sent to t, each as
    ``{column: {exponent: coefficient}}`` holding only nonzero entries,
    with the last generator's column left out (it is minus the sum of the
    others).  Rows with no entry left are dropped.

    A handle's relator is ``end^-1 W^-1 start W``, with W its crossing word
    read as conjugators: a crossing of sign s is the letter ``-s * base``.
    Walking it left to right, a positive letter g contributes t^p to
    column g and raises the running abelianized prefix p by one; a
    negative letter lowers p first and contributes -t^p.
    """
    last = data.base_count
    rows = []
    for h in data.handles:
        conjugator = [-l.sign * l.base for l in h.word]
        row: dict[int, dict[int, int]] = {}
        p = 0
        for x in (-h.end, *[-x for x in reversed(conjugator)], h.start, *conjugator):
            if x > 0:
                e, c = p, 1
                p += 1
            else:
                p -= 1
                e, c = p, -1
            if abs(x) != last:
                entry = row.setdefault(abs(x) - 1, {})
                v = entry.get(e, 0) + c
                if v:
                    entry[e] = v
                else:
                    del entry[e]
        row = {j: entry for j, entry in row.items() if entry}
        if row:
            rows.append(row)
    return rows


def _sub_product(entry: dict[int, int] | None, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """entry - a*b for Laurent polynomials held as {exponent: coefficient}."""
    out = dict(entry) if entry else {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, 0) - ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def _is_unit(entry: dict[int, int]) -> bool:
    """True for +-t^e, a unit of Z[t^-1, t]."""
    if len(entry) != 1:
        return False
    (c,) = entry.values()
    return c == 1 or c == -1


def _eliminate_units(rows: list[dict[int, dict[int, int]]], columns: int):
    """Eliminate on entries +-t^e until none is left, editing the rows in
    place; returns the rows and the columns of what remains.

    Each step takes the unit entry of least Markowitz cost
    (row entries - 1) * (column entries - 1), subtracts
    ``(a_ic / pivot) * row_r`` from every other row i with an entry in its
    column, and drops the pivot's row and column.  Column entry counts and
    the set of unit entries are updated only where a row changes; rows
    left empty are dropped.
    """
    col_rows: dict[int, set[int]] = {j: set() for j in range(columns)}
    units = set()
    for i, row in enumerate(rows):
        for j, entry in row.items():
            col_rows[j].add(i)
            if _is_unit(entry):
                units.add((i, j))
    while units:
        best = None
        for i, j in units:
            cost = (len(rows[i]) - 1) * (len(col_rows[j]) - 1)
            if best is None or cost < best[0]:
                best = (cost, i, j)
                if not cost:
                    break
        _, r, c = best
        pivot_row = rows[r]
        ((e0, c0),) = pivot_row[c].items()
        for i in col_rows.pop(c):
            if i == r:
                continue
            row = rows[i]
            units.discard((i, c))
            factor = {e - e0: c0 * v for e, v in row.pop(c).items()}  # a_ic / (c0 t^e0), as 1/c0 = c0
            for j, entry in pivot_row.items():
                if j == c:
                    continue
                new = _sub_product(row.get(j), factor, entry)
                if new:
                    row[j] = new
                    col_rows[j].add(i)
                    if _is_unit(new):
                        units.add((i, j))
                    else:
                        units.discard((i, j))
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
                    units.discard((i, j))
            if not row:
                rows[i] = None
        for j in pivot_row:
            if j != c:
                col_rows[j].discard(r)
            units.discard((r, j))
        rows[r] = None
    return [row for row in rows if row], sorted(col_rows)


# Dense polynomials over Z: coefficient lists, lowest power first, with no
# trailing zeros, so the zero polynomial is [].


def _dense(entry: dict[int, int] | None, lo: int) -> list[int]:
    """The coefficient list of t^-lo * entry; [] for no entry."""
    if not entry:
        return []
    out = [0] * (max(entry) - lo + 1)
    for e, c in entry.items():
        out[e - lo] = c
    return out


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


def _primitive(coeffs: list[int]) -> list[int]:
    """``coeffs`` without trailing zeros, divided by their gcd, the
    leading coefficient made positive."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if not coeffs:
        return []
    g = 0
    for v in coeffs:
        g = gcd(g, v)
    if coeffs[-1] < 0:
        g = -g
    return [v // g for v in coeffs]


def _poly_rem(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the remainder of ``a`` by ``b`` over Q[t]:
    pseudo-division, each step scaling ``a`` by an integer instead of
    dividing by ``b``'s leading coefficient."""
    a = list(a)
    lead = b[-1]
    while len(a) >= len(b):
        c = a.pop()
        if c:
            g = gcd(lead, c)
            scale, c = lead // g, c // g
            shift = len(a) - len(b) + 1
            a = [scale * v for v in a]
            for i in range(len(b) - 1):
                a[shift + i] -= c * b[i]
    return _primitive(a)


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """The gcd of ``a`` and ``b`` over Q[t] as a primitive integer
    polynomial with positive leading coefficient.  Euclid on
    pseudo-remainders made primitive: a nonzero integer factor is a unit
    of Q[t], so it does not change the gcd."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def alexander_polynomial(data: RibbonData) -> LaurentPolynomial:
    """Normalized gcd of the maximal proper minors of the free-derivative
    matrix.  Raises on invalid or disconnected data; the single-base case
    is 1."""
    if component_count(data) != 1:  # raises first on an invalid record
        raise ValueError("disconnected data has no Alexander polynomial")
    rows, cols = _eliminate_units(_sparse_fox_rows(data), data.base_count - 1)
    if not cols:
        return LaurentPolynomial.one()
    dense = []
    for row in rows:
        lo = min(min(entry) for entry in row.values())
        dense.append([_dense(row.get(j), lo) for j in cols])

    result: list[int] = []  # the gcd of no minor yet: the zero polynomial
    for row_pick in combinations(dense, len(cols)):
        minor = _det(row_pick)
        if minor:
            while minor[0] == 0:  # strip the power-of-t content
                minor = minor[1:]
            result = _poly_gcd(result, minor)
            if len(result) == 1:
                return LaurentPolynomial.one()
    if result[0] < 0:
        result = [-v for v in result]
    return LaurentPolynomial.from_dict({e: c for e, c in enumerate(result)})
