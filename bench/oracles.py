"""Independent computations the benchmark checks library outputs against.

None of these call the library's solvers: dihedral counts come from
linear algebra mod p, Alexander values from exact elimination of the Fox
matrix at integer points, and the small cross-checks from brute force and
sympy.  Presentations are plain ``RibbonData`` records.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


def brute_force_count(data, table) -> int:
    """Colorings by enumerating every assignment; ``table[x][y]`` is x*y on
    elements 0..m-1."""
    m = len(table)
    inverse = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            inverse[table[x][y]][y] = x
    count = 0
    for colors in itertools.product(range(m), repeat=data.base_count):
        for h in data.handles:
            v = colors[h.start - 1]
            for letter in h.word:
                c = colors[letter.base - 1]
                v = table[v][c] if letter.sign < 0 else inverse[v][c]
            if v != colors[h.end - 1]:
                break
        else:
            count += 1
    return count


def propagated_count(data, table) -> int:
    """Colorings by branching on the bases in numeric order and forcing
    every base a handle relation determines: a relation gives its end once
    its start and crossing bases are colored, and its start once its end
    and crossing bases are.  It visits at most m ** b assignments, where b
    is ``inputs.branching_bases(data)``; ``table[x][y]`` is x*y on 0..m-1."""
    m = len(table)
    inverse = [[0] * m for _ in range(m)]
    for x in range(m):
        for y in range(m):
            inverse[table[x][y]][y] = x

    def forward(v, word, colors):
        for letter in word:
            c = colors[letter.base]
            v = table[v][c] if letter.sign < 0 else inverse[v][c]
        return v

    def backward(v, word, colors):
        for letter in reversed(word):
            c = colors[letter.base]
            v = inverse[v][c] if letter.sign < 0 else table[v][c]
        return v

    def count(colors):
        changed = True
        while changed:
            changed = False
            for h in data.handles:
                if any(colors[letter.base] is None for letter in h.word):
                    continue
                start, end = colors[h.start], colors[h.end]
                if start is not None:
                    v = forward(start, h.word, colors)
                    if end is None:
                        colors[h.end] = v
                        changed = True
                    elif end != v:
                        return 0
                elif end is not None:
                    colors[h.start] = backward(end, h.word, colors)
                    changed = True
        base = next((b for b in range(1, data.base_count + 1) if colors[b] is None), None)
        if base is None:
            return 1
        total = 0
        for value in range(m):
            branch = list(colors)
            branch[base] = value
            total += count(branch)
        return total

    return count([None] * (data.base_count + 1))


def dihedral_count(data, p: int) -> int:
    """Colorings by the dihedral quandle of prime order p.

    Under x*y = 2y - x each crossing reflects the running color, so every
    handle gives one linear equation over Z/p and the count is
    p ** (bases - rank).
    """
    rows = []
    for h in data.handles:
        row = [0] * (data.base_count + 1)
        row[h.start] += 1
        for letter in h.word:
            row = [-v for v in row]
            row[letter.base] += 2
        row[h.end] -= 1
        rows.append([v % p for v in row[1:]])
    rank = 0
    cols = data.base_count
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [v * inv % p for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return p ** (cols - rank)


def genus(data) -> int:
    return len(data.handles) - data.base_count + 1


def _fox_minor(data, t):
    """Fox matrix of the presented group at ``t`` (a number or a sympy
    symbol), last column deleted.  A handle reads end = W^-1 start W, where
    a crossing of sign s contributes the letter of its base with exponent
    -s."""
    matrix = []
    for h in data.handles:
        w = [(letter.base, -letter.sign) for letter in h.word]
        relator = [(h.end, -1)] + [(g, -e) for g, e in reversed(w)] + [(h.start, 1)] + w
        row = [0] * data.base_count
        prefix = 1
        for g, e in relator:
            if e > 0:
                row[g - 1] += prefix
                prefix *= t
            else:
                prefix /= t
                row[g - 1] -= prefix
        matrix.append(row[:-1])
    return matrix


def _det(matrix) -> Fraction:
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def alexander_matches(data, poly_text: str) -> bool:
    """True when the library's polynomial agrees, up to a unit +-t^k, with
    the Fox minor of a sphere-knot presentation at t = 2, 3 and 5."""
    terms = {}
    for sign, coeff, power in re.findall(r"([+-]?)\s*(\d*)\*?(t(?:\^\d+)?)?", poly_text.replace(" ", "")):
        if not coeff and not power:
            continue
        c = int(coeff) if coeff else 1
        e = 0 if not power else (int(power[2:]) if "^" in power else 1)
        terms[e] = terms.get(e, 0) + (-c if sign == "-" else c)
    if sum(terms.values()) not in (1, -1):
        return False
    for t in (2, 3, 5):
        value = sum(c * t**e for e, c in terms.items())
        det = _det(_fox_minor(data, Fraction(t)))
        if value == 0 or det == 0:
            if value != det:
                return False
            continue
        ratio = abs(det / value)
        k = 0
        while ratio > 1 and ratio.denominator == 1 and ratio.numerator % t == 0:
            ratio /= t
            k += 1
        while ratio < 1 and ratio.numerator == 1 and ratio.denominator % t == 0:
            ratio *= t
            k -= 1
        if ratio != 1:
            return False
    return True


def sympy_alexander(data) -> str:
    """The normalized Alexander polynomial of a sphere-knot presentation
    computed symbolically with sympy, printed like the library prints it."""
    import sympy

    t = sympy.Symbol("t")
    rows = _fox_minor(data, t)
    if not rows:
        return "1"
    det = sympy.factor(sympy.Matrix(rows).det(method="berkowitz"))
    numer, _ = sympy.fraction(sympy.together(det))
    poly = sympy.Poly(sympy.expand(numer), t)
    coeffs = poly.all_coeffs()[::-1]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    content = sympy.gcd_list(coeffs) if coeffs else 1
    coeffs = [int(c / content) for c in coeffs]
    if coeffs and coeffs[0] < 0:
        coeffs = [-c for c in coeffs]
    parts = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if not c:
            continue
        variable = "t" if e == 1 else f"t^{e}"
        body = str(abs(c)) if e == 0 else variable if abs(c) == 1 else f"{abs(c)}*{variable}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) if parts else "0"
