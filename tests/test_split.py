import random
from fractions import Fraction

import pytest

from quatorder.errors import CaseMismatchError, InvalidParametersError, PrecisionLossError
from quatorder.exact import Mat2
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
        real.entry_val_at_least(real.mat_i.b, 0)


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
            rhs = spl.embed(u) * spl.embed(v)
            diff = lhs - rhs
            for entry in diff.entries():
                assert spl.entry_zero(entry, 12)


def test_embedding_determinant_is_norm():
    rng = random.Random(6)
    params = AlgebraParams(6, 1, 5, 2)
    for place in (3, 5, 7, 2, INFINITE_PLACE):
        spl = build_splitting(params, place)
        for _ in range(6):
            u = rand_elem(params, rng)
            det = spl.embed(u).det()
            want = u.reduced_norm()
            diff = det - spl.scalar(want)
            assert spl.entry_zero(diff, 12)


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
    ul, ur, ll, lr = gen_k.entries()
    ur = (-ur[0], -ur[1]) if spl.case == CASE_RAMIFIED else -ur
    wrong = LocalSplitting(params, place, spl.case, spl.precision,
                           gen_i, gen_j, Mat2(ul, ur, ll, lr), spl.data)
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
