"""Property tests of the integer-scaled exact core against plain-Fraction oracles.

Hypothesis runs derandomized with no example database, so every run draws
the same examples and the suite stays deterministic.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatorder import split
from quatorder.errors import PrecisionLossError
from quatorder.exact import gram_trace_matrix, reduced_discriminant
from quatorder.numth import PadicNum
from quatorder.quat import (
    AlgebraParams,
    QuatElem,
    coords_in_hashimoto,
    element_from_coords,
    hashimoto_basis,
)
from quatorder.split import PadicQuad

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=80)

DELTAS = (1, 6, 10, 14, 15, 21, 22, 26, 34, 35)
LEVELS = (1, 2, 3, 5, 7, 9, 11, 13, 15)
PAIRS = [(d, n) for d in DELTAS for n in LEVELS if gcd(d, n) == 1]

params_st = st.sampled_from(PAIRS).map(lambda dn: AlgebraParams.create(*dn))
rational_st = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 60))
coeffs_st = st.tuples(rational_st, rational_st, rational_st, rational_st)


# --- plain-Fraction reference quaternion arithmetic --------------------------


def ref_mul(params, u, v):
    dn, p = params.dn, params.p
    x1, y1, z1, t1 = u
    x2, y2, z2, t2 = v
    return (
        x1 * x2 - dn * y1 * y2 + p * z1 * z2 + p * dn * t1 * t2,
        x1 * y2 + y1 * x2 - p * z1 * t2 + p * t1 * z2,
        x1 * z2 + z1 * x2 - dn * y1 * t2 + dn * t1 * y2,
        x1 * t2 + t1 * x2 + y1 * z2 - z1 * y2,
    )


def ref_norm(params, u):
    dn, p = params.dn, params.p
    x, y, z, t = u
    return x * x + dn * y * y - p * z * z - p * dn * t * t


def ref_coords(params, u):
    x, y, z, t = u
    if params.delta == 1:
        n = params.level
        c4 = t - y
        return (x - z + n * c4, 2 * z - 2 * n * c4, 2 * y, c4)
    adn = params.a * params.dn
    return (x - z + adn * (t - y), 2 * z - 2 * adn * (t - y), 2 * y, params.p * (t - y))


def assert_canonical(u):
    assert u.denominator > 0
    assert gcd(*u.numerators, u.denominator) == 1


@SETTINGS
@given(params_st, coeffs_st, coeffs_st, rational_st)
def test_ring_operations_match_fraction_reference(params, cu, cv, s):
    u, v = QuatElem(params, *cu), QuatElem(params, *cv)
    assert u.coefficients() == cu
    assert (u.x, u.y, u.z, u.t) == cu
    cases = [
        (u + v, tuple(a + b for a, b in zip(cu, cv))),
        (u - v, tuple(a - b for a, b in zip(cu, cv))),
        (-u, tuple(-a for a in cu)),
        (u * v, ref_mul(params, cu, cv)),
        (u.conj(), (cu[0], -cu[1], -cu[2], -cu[3])),
        (u * s, tuple(a * s for a in cu)),
        (s * u, tuple(a * s for a in cu)),
        (u + s, (cu[0] + s, *cu[1:])),
        (s - u, (s - cu[0], *(-a for a in cu[1:]))),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.coefficients() == want
        assert got == QuatElem(params, *want)
    assert u.reduced_norm() == ref_norm(params, cu)
    assert u.reduced_trace() == 2 * cu[0]


@SETTINGS
@given(params_st, coeffs_st)
def test_coordinate_round_trip(params, cu):
    u = QuatElem(params, *cu)
    coords = coords_in_hashimoto(u)
    assert coords == ref_coords(params, cu)
    assert element_from_coords(params, coords) == u
    assert coords_in_hashimoto(element_from_coords(params, cu)) == cu


@SETTINGS
@given(params_st, coeffs_st, coeffs_st)
def test_equality_and_hash_follow_the_value(params, cu, cv):
    u, v = QuatElem(params, *cu), QuatElem(params, *cv)
    reached = (u * v + u) - u * v
    assert reached == u
    assert hash(reached) == hash(u)
    direct = QuatElem(params, *ref_mul(params, cu, cv))
    assert direct == u * v and hash(direct) == hash(u * v)
    ints = tuple(c.numerator for c in cu)
    assert QuatElem(params, *ints) == QuatElem(params, *map(Fraction, ints))
    assert hash(QuatElem(params, *ints)) == hash(QuatElem(params, *map(Fraction, ints)))
    assert (u == v) == (cu == cv)


@SETTINGS
@given(params_st, st.lists(coeffs_st, min_size=1, max_size=4))
def test_closed_form_gram_matches_products(params, rows):
    elems = [QuatElem(params, *c) for c in rows]
    by_products = [[(x * y).reduced_trace() for y in elems] for x in elems]
    assert gram_trace_matrix(elems) == by_products


@SETTINGS
@given(params_st)
def test_order_basis_discriminant_closed_form(params):
    assert reduced_discriminant(hashimoto_basis(params)) == params.dn


# --- PadicQuad radicand ------------------------------------------------------
# The reference lifts the radicand afresh on every call, at the precision the
# uncached formulas used: the larger relative precision of the two parts.


def fresh_radicand(u, a, b):
    return PadicNum.from_rational(u.rad, u.a.q, max(a.prec, b.prec, 1))


def ref_quad_mul(u, v):
    rad = fresh_radicand(u, u.a, u.b)
    return PadicQuad(u.a * v.a + rad * u.b * v.b, u.a * v.b + u.b * v.a, u.rad)


def ref_quad_norm(u):
    return u.a * u.a - fresh_radicand(u, u.a, u.b) * u.b * u.b


def ref_val_at_least(u, m):
    a, b = u.a, u.b
    q = a.q
    if m:
        den = PadicNum.from_rational(Fraction(q) ** m, q, max(a.prec, b.prec, 1))
        a = a / den
        b = b / den
    if not ((a + a).val_at_least(0) and (b + b).val_at_least(0)):
        return False
    return (a * a - fresh_radicand(u, a, b) * b * b).val_at_least(0)


def padic_key(x):
    return (x.q, x.val, x.unit, x.prec)


def quad_key(w):
    return padic_key(w.a), padic_key(w.b), w.rad


def outcome(fn):
    try:
        return fn()
    except PrecisionLossError:
        return "precision loss"


padic_prec_st = st.integers(min_value=1, max_value=12)
q_st = st.sampled_from((2, 3, 5, 7, 11, 13))
rad_st = st.sampled_from((2, 3, 5, 13, 17, 29, 37))
small_rational_st = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 30))


@st.composite
def padic_quads(draw, q, rad):
    parts = []
    for _ in range(2):
        value = draw(small_rational_st)
        prec = draw(padic_prec_st)
        parts.append(PadicNum.from_rational(value, q, prec))
    return PadicQuad(parts[0], parts[1], rad)


@st.composite
def quad_pairs(draw):
    q, rad = draw(q_st), draw(rad_st)
    return draw(padic_quads(q, rad)), draw(padic_quads(q, rad)), draw(st.integers(0, 3))


@SETTINGS
@given(quad_pairs())
def test_cached_radicand_matches_fresh_lift(data):
    u, v, m = data
    for _ in range(2):  # the second round reads the radicands from the cache
        assert quad_key(u * v) == quad_key(ref_quad_mul(u, v))
        assert padic_key(u.norm()) == padic_key(ref_quad_norm(u))
        assert outcome(lambda: u.val_at_least(m)) == outcome(lambda: ref_val_at_least(u, m))


def test_scalar_memo_never_caches_precision_loss():
    params = AlgebraParams(35, 3, 13, 5)
    spl = split.build_splitting(params, 11, k=6)
    assert spl.scalar(Fraction(1, 11)) is spl.scalar(Fraction(1, 11))
    for _ in range(2):
        with pytest.raises(PrecisionLossError):
            spl.scalar(Fraction(1, 11**7))
    assert spl.one() is spl.one()
