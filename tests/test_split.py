import random
from fractions import Fraction

import pytest

from quatorder.errors import CaseMismatchError, InvalidParametersError, PrecisionLossError
from quatorder.exact import mat_add
from quatorder.numth import INFINITE_PLACE
from quatorder.quat import AlgebraParams, QuatElem
from quatorder.split import (
    CASE_ARCHIMEDEAN,
    CASE_AT_P,
    CASE_RAMIFIED,
    CASE_RATIONAL,
    CASE_UNRAMIFIED_NONSQUARE,
    CASE_UNRAMIFIED_SQUARE,
    LocalSplitting,
    build_splitting,
    classify_place,
    verify_splitting,
)


def rand_elem(params, rng, span=7):
    return QuatElem(params, *[Fraction(rng.randint(-span, span)) for _ in range(4)])


def test_case_classification_flagship():
    params = AlgebraParams(35, 3, 13, 5)
    assert classify_place(params, 3) == CASE_UNRAMIFIED_SQUARE
    assert classify_place(params, 11) == CASE_UNRAMIFIED_NONSQUARE
    assert classify_place(params, 13) == CASE_AT_P
    assert classify_place(params, 5) == CASE_RAMIFIED
    assert classify_place(params, 7) == CASE_RAMIFIED
    assert classify_place(params, INFINITE_PLACE) == CASE_ARCHIMEDEAN
    with pytest.raises(CaseMismatchError):
        classify_place(params, 2)  # p = 5 mod 8 and 2 does not divide delta
    with pytest.raises(InvalidParametersError):
        classify_place(params, 6)


def test_case_classification_split_algebra():
    params = AlgebraParams.create(1, 6)
    for place in (2, 3, 5, 7, INFINITE_PLACE):
        assert classify_place(params, place) == CASE_RATIONAL


def test_flagship_places_all_verify():
    params = AlgebraParams(35, 3, 13, 5)
    for place in (3, 11, 13, 17, INFINITE_PLACE):
        report = verify_splitting(build_splitting(params, place))
        assert report.passed, (place, report.failures())
    real = build_splitting(params, INFINITE_PLACE)
    with pytest.raises(InvalidParametersError):  # Q(sqrt(p)) has no q-adic valuation
        real.entry_val_at_least(real.scalar(1), 0)


def test_split_algebra_image_lattice():
    params = AlgebraParams.create(1, 6)
    for place in (2, 3, 5, 7, INFINITE_PLACE):
        report = verify_splitting(build_splitting(params, place))
        assert report.passed, (place, report.failures())
    finite = build_splitting(params, 5)
    rep = verify_splitting(finite)
    assert any(c.check_id == "rational.image_lattice" for c in rep.checks)


def test_even_discriminant_with_ramified_two():
    params = AlgebraParams.create(6, 1)
    assert params.p == 5
    assert classify_place(params, 2) == CASE_RAMIFIED
    for place in (2, 3, 5, 7, 11, INFINITE_PLACE):
        report = verify_splitting(build_splitting(params, place))
        assert report.passed, (place, report.failures())


def test_two_adic_square_case():
    # p = 1 mod 8 makes q = 2 an unramified split place even for odd levels
    params = AlgebraParams.create(35, 2)
    assert params.p % 8 == 1
    assert classify_place(params, 2) == CASE_UNRAMIFIED_SQUARE
    report = verify_splitting(build_splitting(params, 2))
    assert report.passed, report.failures()


def test_embedding_is_homomorphism():
    rng = random.Random(5)
    params = AlgebraParams(35, 3, 13, 5)
    for place in (3, 11, 13, INFINITE_PLACE):
        spl = build_splitting(params, place)
        for _ in range(6):
            u, v = rand_elem(params, rng), rand_elem(params, rng)
            lhs = spl.embed(u * v)
            rhs = spl.mul(spl.embed(u), spl.embed(v))
            assert spl.is_zero(mat_add(lhs, rhs, -1), 12)


def det_less(spl, mat, value):
    """det(mat) - value as an entry of the model's coefficient ring: (den, a)
    on an int matrix (den, a, b, c, d), and (den, a, b) of (a + b·√p)/den on
    a pair matrix."""
    vd, va, *_ = spl.scalar(value)
    if len(mat) == 5:
        den, a, b, c, d = mat
        return den * den * vd, (a * d - b * c) * vd - va * den * den
    den, a1, b1, a2, b2, a3, b3, a4, b4 = mat
    p = spl.params.p
    da = a1 * a4 + p * b1 * b4 - a2 * a3 - p * b2 * b3
    db = a1 * b4 + b1 * a4 - a2 * b3 - b2 * a3
    return den * den * vd, da * vd - va * den * den, db * vd


def test_embedding_determinant_is_norm():
    rng = random.Random(6)
    params = AlgebraParams(6, 1, 5, 2)
    for place in (3, 5, 7, 2, INFINITE_PLACE):
        spl = build_splitting(params, place)
        for _ in range(6):
            u = rand_elem(params, rng)
            assert spl.is_zero(det_less(spl, spl.embed(u), u.reduced_norm()), 12)


def test_at_p_image_is_full_matrix_ring():
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, 13)
    assert spl.shape.kind == "matrix_ring"
    report = verify_splitting(spl)
    assert any(c.check_id == "at_p.root_divisibility" and c.ok for c in report.checks)


def test_at_p_sign_flip_is_caught():
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, 13, _flip_at_p_root=True)
    report = verify_splitting(spl)
    bad = sorted(c.check_id for c in report.failures())
    assert bad == ["at_p.root_divisibility", "integrality.e4"]


@pytest.mark.parametrize("place", [5, 13])  # ramified; at p, on int residues
def test_a_wrong_stated_k_fails_k_matches(place):
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, place)
    gen_i, gen_j, gen_k = spl.generators
    ul, ur, ll, lr = gen_k
    ur = (-ur[0], -ur[1]) if spl.case == CASE_RAMIFIED else -ur
    wrong = LocalSplitting(params, place, spl.case, spl.precision,
                           gen_i, gen_j, (ul, ur, ll, lr), spl.data)
    assert verify_splitting(spl).passed
    failed = {c.check_id for c in verify_splitting(wrong).failures()}
    assert "relations.k_matches" in failed
    assert not failed & {"relations.i_square", "relations.j_square", "relations.anticommute"}


def test_trace_form_discriminant():
    for delta, level in ((35, 3), (6, 1), (10, 9), (1, 6)):
        params = AlgebraParams.create(delta, level)
        places = [3, 11, 13, INFINITE_PLACE] if delta == 35 else [7, INFINITE_PLACE]
        for place in places:
            try:
                spl = build_splitting(params, place)
            except CaseMismatchError:
                continue
            rep = verify_splitting(spl)
            checks = {c.check_id: c.ok for c in rep.checks}
            assert checks["discriminant.trace_form"], (delta, level, place)


def test_precision_guard():
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, 11, k=6)
    with pytest.raises(PrecisionLossError):
        spl.scalar(Fraction(1, 11**7))


def test_a_real_place_j_with_theta_on_both_diagonal_entries_is_caught():
    """j = [[θ, 0], [0, θ]] squares to p but commutes with i."""
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, INFINITE_PLACE)
    gen_i, gen_j, gen_k = spl.generators
    ul, ur, ll, _ = gen_j
    wrong = LocalSplitting(params, INFINITE_PLACE, spl.case, spl.precision,
                           gen_i, (ul, ur, ll, ul), gen_k, spl.data)
    failed = {c.check_id for c in verify_splitting(wrong).failures()}
    assert failed == {"relations.anticommute", "relations.k_matches", "discriminant.trace_form"}


def test_a_ramified_i_without_the_factor_q_in_its_lower_left_is_caught():
    """i = [[0, x - y√p], [x + y√p, 0]] squares to -dn/q, not -dn."""
    params = AlgebraParams(35, 3, 13, 5)
    spl = build_splitting(params, 5)
    gen_i, gen_j, gen_k = spl.generators
    ul, ur, _, lr = gen_i
    ll = (spl.data["x"], spl.data["y"])
    wrong = LocalSplitting(params, 5, spl.case, spl.precision,
                           (ul, ur, ll, lr), gen_j, gen_k, spl.data)
    failed = {c.check_id for c in verify_splitting(wrong).failures()}
    assert failed == {
        "relations.i_square", "relations.k_matches", "integrality.e3", "discriminant.trace_form",
    }
