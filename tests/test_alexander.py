import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonlab import (
    Handle,
    LaurentPolynomial,
    RibbonData,
    alexander_polynomial,
    apply_stabilize,
    is_sphere_knot,
)
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


def test_normalization_invariants():
    rng = random.Random(30)
    trials = 0
    while trials < 60:
        data = random_ribbon(rng, max_bases=4, max_handles=4, max_len=5)
        if graph_components(data) != 1:
            continue
        trials += 1
        poly = alexander_polynomial(data)
        assert not poly.is_zero()
        assert poly.min_exponent() == 0
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


def test_self_handle_word_can_carry_torsion():
    # one base, one self-handle crossing itself once: relator a^-1 w^-1 a w
    # with w = a^-1, which abelianizes freely but has nontrivial derivative
    data = RibbonData(2, 1, (Handle(1, 1, ((1, 1),)),))
    assert not alexander_polynomial(data).is_zero()


def test_str_formatting():
    assert str(LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})) == "t^2 - t + 1"
    assert str(LaurentPolynomial.one()) == "1"
    assert str(LaurentPolynomial.zero()) == "0"
    assert str(LaurentPolynomial.from_dict({0: -2, 1: 3})) == "3*t - 2"
    assert str(LaurentPolynomial.from_dict({-1: 1, 1: 1})) == "t + t^-1"


def test_evaluate():
    poly = LaurentPolynomial.from_dict({0: 1, 1: -1, 2: 1})
    assert poly.evaluate(1) == 1
    assert poly.evaluate(2) == 3
    assert poly.evaluate(-1) == 3


# ---------------------------------------------------------------------------
# Bareiss minors against every minor by Laplace expansion, and against sympy

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def random_connected(seed, max_bases):
    """Connected data of genus 0-2."""
    rng = random.Random(seed)
    bases = rng.randint(1, max_bases)
    return random_knot(rng, bases, extra=rng.randint(0, 2), max_len=rng.randint(1, 4))


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


def test_forty_bases():
    # The polynomial of a connected sum is the product of the summands'
    # polynomials; each summand's comes from the Laplace oracle.
    rng = random.Random(32)
    expected = {0: 1}
    pieces = []
    while len(pieces) < 8:
        knot = random_knot(rng, 5, max_len=3)
        poly = laplace_alexander(knot)
        if poly == {0: 1}:
            continue
        pieces.append(shuffled(knot, rng))
        product = {}
        for e1, c1 in expected.items():
            for e2, c2 in poly.items():
                product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
        expected = {e: c for e, c in product.items() if c}
    data = shuffled(connected_sum(pieces), rng)
    assert data.base_count == 40
    assert max(expected) >= 16
    assert alexander_polynomial(data).as_dict() == expected

