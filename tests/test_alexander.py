import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Handle,
    LaurentPolynomial,
    RibbonData,
    SignedLetter,
    alexander_polynomial,
    apply_stabilize,
    genus,
    is_sphere_knot,
)
from ribbonlab.alexander import _eliminate_units, _sparse_fox_rows
from ribbonlab.cli import generate

from oracles import (
    connected_sum,
    graph_components,
    laplace_alexander,
    random_knot,
    random_ribbon,
    shuffled,
    sympy_alexander,
)

UNKNOT = generate("unknot")
SPUN_TREFOIL = generate("spun-trefoil")


def test_unknot_is_one():
    assert alexander_polynomial(UNKNOT) == LaurentPolynomial.one()


def test_spun_trefoil_value():
    # frozen from the free-derivative computation done by hand:
    # relator b^-1 a^-1 b^-1 a b a gives rows t^-1 - t^-2 + t^-3 and
    # -(t^-1 - t^-2 + t^-3) up to units, so the gcd is 1 - t + t^2.
    assert alexander_polynomial(SPUN_TREFOIL) == LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})


def test_stabilized_unknot_is_one():
    stab = apply_stabilize(UNKNOT, 1)
    assert alexander_polynomial(stab) == LaurentPolynomial.one()


def test_torus_presentations_are_one():
    for g in (1, 2, 3):
        assert alexander_polynomial(generate(f"torus:{g}")) == LaurentPolynomial.one()


def test_rejects_disconnected():
    with pytest.raises(ValueError, match="disconnected"):
        alexander_polynomial(RibbonData(2, 2, ()))
    with pytest.raises(ValueError, match="disconnected"):
        alexander_polynomial(RibbonData(2, 10**20, ()))


@pytest.mark.parametrize(
    "handle, diagnostic",
    [
        (Handle(1, 2, (SignedLetter(5, 1),)), "letter 0 base 5 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(0, 1),)), "letter 0 base 0 out of range 1..2"),
        (Handle(1, 2, (SignedLetter(2, 2),)), "letter 0 has sign 2, expected +1 or -1"),
        (Handle(1, 3, ()), "end base 3 out of range 1..2"),
    ],
)
def test_invalid_records_raise_with_the_first_diagnostic(handle, diagnostic):
    with pytest.raises(ValueError, match=f"^{re.escape('invalid data: handle 1: ' + diagnostic)}$"):
        alexander_polynomial(RibbonData(2, 2, (handle,)))


def test_normalization_invariants():
    rng = random.Random(30)
    trials = 0
    while trials < 60:
        data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=5)
        if graph_components(data) != 1:
            continue
        trials += 1
        poly = alexander_polynomial(data)
        assert poly.terms and poly.terms[0][0] == 0
        assert poly.as_dict()[0] > 0


def test_nontrivial_value_survives_stabilization():
    stabilized = apply_stabilize(SPUN_TREFOIL, 2)
    expected = LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})
    assert alexander_polynomial(stabilized) == expected


def test_evaluates_to_unit_at_one_on_sphere_knots():
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=5)
        if not is_sphere_knot(data):
            continue
        assert abs(alexander_polynomial(data).evaluate(1)) == 1
        checked += 1
    for data in (UNKNOT, SPUN_TREFOIL):
        assert abs(alexander_polynomial(data).evaluate(1)) == 1


def test_evaluates_to_unit_at_one_on_connected_records_of_every_genus():
    # the fact the module docstring argues: a connected record's polynomial
    # is never zero, so the computation never meets the zero polynomial
    rng = random.Random(32)
    for g in (1, 2, 3):
        for _ in range(15):
            data = random_knot(rng, rng.randint(1, 5), extra=g, max_len=4)
            assert genus(data) == g
            assert abs(alexander_polynomial(data).evaluate(1)) == 1
        for _ in range(10):
            knot = random_knot(rng, rng.randint(2, 4), max_len=4)
            pieces = [knot, generate(f"torus:{g}")]
            rng.shuffle(pieces)
            data = connected_sum(pieces)
            assert genus(data) == g
            # a torus summand multiplies the polynomial by 1
            assert alexander_polynomial(data) == alexander_polynomial(knot)
            assert abs(alexander_polynomial(data).evaluate(1)) == 1


def test_self_handle_word_can_carry_torsion():
    # one base, one self-handle crossing itself once: relator a^-1 w^-1 a w
    # with w = a^-1, which abelianizes freely but has nontrivial derivative
    data = RibbonData(2, 1, (Handle(1, 1, ((1, 1),)),))
    assert alexander_polynomial(data).terms


def test_str_formatting():
    assert str(LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
    assert str(LaurentPolynomial.one()) == "1"
    assert str(LaurentPolynomial()) == "0"
    assert str(LaurentPolynomial.from_dict({0: -2, 1: 3})) == "3*t - 2"
    assert str(LaurentPolynomial.from_dict({-1: 1, 1: 1})) == "t + t^-1"
    # the constructor stores the terms sorted, whatever their order
    unsorted = LaurentPolynomial(((2, 1), (0, 1), (1, -1)))
    assert unsorted == LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1}) and str(unsorted) == "t^2 - t + 1"


def test_evaluate():
    poly = LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})
    assert poly.evaluate(1) == 1
    assert poly.evaluate(2) == 3
    assert poly.evaluate(-1) == 3


# ---------------------------------------------------------------------------
# Monomial-pivot elimination and Bareiss minors against every minor by
# Laplace expansion, and against sympy

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_connected(seed, max_bases):
    """Connected data of genus 0-3."""
    rng = random.Random(seed)
    bases = rng.randint(1, max_bases)
    return random_knot(rng, bases, extra=rng.randint(0, 3), max_len=rng.randint(1, 4))


@settings(max_examples=150, deadline=None)
@given(seed=seeds)
def test_matches_laplace_expansion_of_every_minor(seed):
    data = random_connected(seed, 7)
    assert alexander_polynomial(data).as_dict() == laplace_alexander(data)


@settings(max_examples=40, deadline=None)
@given(seed=seeds)
def test_matches_sympy(seed):
    data = random_connected(seed, 4)
    assert alexander_polynomial(data).as_dict() == sympy_alexander(data)


def polynomial_product(polys):
    product = {0: 1}
    for poly in polys:
        out = {}
        for e1, c1 in product.items():
            for e2, c2 in poly.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        product = {e: c for e, c in out.items() if c}
    return product


def test_residual_of_several_columns_goes_through_every_row_pick():
    # Neither piece's Fox entries include a monomial, so the only pivot is
    # on the handle that joins them, and four columns of five rows are
    # left to the row-pick gcd.
    sphere = RibbonData(2, 3, (Handle(1, 2, ((2, 1), (1, 1))), Handle(1, 3, ((3, 1), (1, 1)))))
    torus = RibbonData(
        2, 3, (Handle(3, 3, ((1, -1),)), Handle(1, 3, ((3, -1), (1, -1))), Handle(1, 2, ((2, 1), (1, 1))))
    )
    data = connected_sum([sphere, torus])
    rows, cols = _eliminate_units(_sparse_fox_rows(data), data.base_count - 1)
    assert (len(rows), len(cols)) == (5, 4)
    expected = polynomial_product([laplace_alexander(sphere), laplace_alexander(torus)])
    assert expected == {0: 1, 1: -3, 2: 6, 3: -7, 4: 6, 5: -3, 6: 1}
    assert alexander_polynomial(data).as_dict() == laplace_alexander(data) == expected


def test_forty_base_genus_one_connected_sum():
    # Ten 4-base pieces, one of genus 1 with a nontrivial polynomial, so
    # the gcd never reaches 1 and all 40 row picks of 39 rows matter.
    rng = random.Random(33)
    torus = random_knot(rng, 4, extra=1, max_len=3)
    while laplace_alexander(torus) == {0: 1}:
        torus = random_knot(rng, 4, extra=1, max_len=3)
    pieces = [torus] + [random_knot(rng, 4, max_len=3) for _ in range(9)]
    data = shuffled(connected_sum(pieces), rng)
    assert (data.base_count, genus(data)) == (40, 1)
    expected = polynomial_product(laplace_alexander(piece) for piece in pieces)
    assert max(expected) >= 9
    assert alexander_polynomial(data).as_dict() == expected


def test_forty_bases():
    # The polynomial of a connected sum is the product of the summands'
    # polynomials; each summand's comes from the Laplace oracle.
    rng = random.Random(32)
    pieces, polys = [], []
    while len(pieces) < 8:
        knot = random_knot(rng, 5, max_len=3)
        poly = laplace_alexander(knot)
        if poly == {0: 1}:
            continue
        pieces.append(shuffled(knot, rng))
        polys.append(poly)
    expected = polynomial_product(polys)
    data = shuffled(connected_sum(pieces), rng)
    assert data.base_count == 40
    assert max(expected) >= 16
    assert alexander_polynomial(data).as_dict() == expected


# ---------------------------------------------------------------------------
# output bytes over a seeded corpus


def doubled_letters(rng, data):
    """``data`` with each crossing letter written once or twice, so that
    some Fox entries carry coefficients of 2 or more."""
    handles = tuple(
        Handle(h.start, h.end, tuple(l for l in h.word for _ in range(rng.choice((1, 2)))))
        for h in data.handles
    )
    return RibbonData(data.dim, data.base_count, handles)


def nontrivial_pieces(rng, count):
    """Knots of 2-5 bases and genus 0-1 whose polynomial is not 1."""
    pieces = []
    while len(pieces) < count:
        knot = doubled_letters(rng, random_knot(rng, rng.randint(2, 5), extra=rng.randint(0, 1), max_len=3))
        if laplace_alexander(knot) != {0: 1}:
            pieces.append(knot)
    return pieces


def digest_corpus(rng):
    """500 connected records of 1-20 bases and genus 0-3: random knots,
    some with repeated letters, and connected sums of knots with
    nontrivial polynomials, each under a random numbering."""
    pool = nontrivial_pieces(rng, 40)
    for i in range(500):
        bases = 1 + i % 20
        kind = i % 4
        if kind < 2:
            data = random_knot(rng, bases, extra=rng.randint(0, 3), max_len=rng.randint(0, 4))
            if kind:
                data = doubled_letters(rng, data)
        else:
            pieces, left, genus = [], bases, 0
            for piece in rng.sample(pool, len(pool)):
                g = len(piece.handles) - piece.base_count + 1
                if piece.base_count <= left - (kind == 3) and genus + g <= 3:
                    pieces.append(piece)
                    left -= piece.base_count
                    genus += g
            if left:
                pieces.append(random_knot(rng, left, extra=rng.randint(0, 3 - genus), max_len=2))
            data = connected_sum(pieces)
        yield shuffled(data, rng)


# Recorded with the dense row-pick computation (one Bareiss determinant
# per row pick): a faster elimination may not change one byte.
DIGEST = "b02b26c8433bc6cbb29f8c622b7f405a5ff563fd7163c80cfb4c73ed40aa8859"


def test_polynomial_strings_match_the_recorded_digest():
    h = hashlib.sha256()
    for data in digest_corpus(random.Random(1702)):
        h.update(str(alexander_polynomial(data)).encode("ascii") + b"\0")
    assert h.hexdigest() == DIGEST
