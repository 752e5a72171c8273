from fractions import Fraction

import pytest

from quatorder.errors import (
    InvalidParametersError,
    NotDivisibleError,
    SearchExhaustedError,
)
from quatorder.isomap import (
    PsiMap,
    build_psi,
    inclusion_coordinate_formulas,
    solve_conic,
    verify_psi,
    verify_psi_inclusion,
)
from quatorder.quat import AlgebraParams, coords_in_hashimoto, hashimoto_basis


def test_solve_conic_smallest_denominator():
    assert solve_conic(17, 13, 3) == (Fraction(8, 17), Fraction(1, 17))
    assert solve_conic(3, 13, 9) == (Fraction(4), Fraction(1))
    assert solve_conic(1, 13, 1) == (Fraction(1), Fraction(0))


def test_solve_conic_exhausted(monkeypatch):
    from quatorder import isomap

    monkeypatch.setattr(isomap, "DEFAULT_CONIC_BOUND", 2)
    with pytest.raises(SearchExhaustedError):
        solve_conic(17, 13, 3)


def test_flagship_level_three_to_seventeen():
    psi = build_psi(35, 3, 17)
    assert psi.src.p == 13
    assert (psi.beta, psi.delta) == (Fraction(8, 17), Fraction(1, 17))
    assert psi.conic_residual() == 0
    report = verify_psi(psi)
    assert report.passed, report.failures()
    ids = {c.check_id for c in report.checks}
    assert ids == {
        "conic.residual",
        "relations.i_square",
        "relations.j_square",
        "relations.anticommute",
        "relations.k_matches",
        "samples.norm_preserved",
        "samples.multiplicative",
    }


def test_nine_to_three_inclusion():
    psi = build_psi(35, 9, 3)
    assert psi.src.a == 2
    assert psi.dst.a == 5
    # conic root is 4; the order-compatibility congruence picks the sign
    assert psi.beta == Fraction(-4)
    assert psi.delta == Fraction(1)
    fm = inclusion_coordinate_formulas(psi)
    assert fm == {
        "A3": Fraction(-3150),
        "B3": Fraction(6300),
        "C3": Fraction(9),
        "D3": Fraction(-78),
        "A4": Fraction(-735),
        "B4": Fraction(1470),
        "C4": Fraction(2),
        "D4": Fraction(-17),
    }
    report = verify_psi_inclusion(psi)
    assert report.passed, report.failures()


def test_split_algebra_closed_form():
    psi = build_psi(1, 6, 3)
    assert (psi.beta, psi.delta) == (Fraction(3, 2), Fraction(-1, 2))
    e4_image = psi.apply(hashimoto_basis(psi.src)[3])
    assert list(coords_in_hashimoto(e4_image)) == [0, 0, -1, 2]
    assert verify_psi(psi).passed
    assert verify_psi_inclusion(psi).passed


def test_split_algebra_any_pair():
    # the closed form is not restricted to divisible levels
    psi = build_psi(1, 3, 17)
    assert (psi.beta, psi.delta) == (Fraction(10, 17), Fraction(7, 17))
    assert verify_psi(psi).passed


def test_inclusion_check_ids_and_index():
    psi = build_psi(35, 9, 3)
    report = verify_psi_inclusion(psi)
    ids = {c.check_id for c in report.checks}
    assert ids == {
        "inclusion.integer_coords",
        "inclusion.e1",
        "inclusion.e2",
        "inclusion.formula.e3",
        "inclusion.formula.e4",
        "inclusion.b4_relation",
        "inclusion.a_compatibility",
        "inclusion.index",
        "inclusion.norm_preserved",
    }
    index_check = next(c for c in report.checks if c.check_id == "inclusion.index")
    assert index_check.ok
    assert "= 3" in index_check.witness


def test_inclusion_sweep_divisible_pairs():
    for delta in (6, 35, 10):
        for src, dst in ((3, 1), (9, 3), (9, 1), (11, 1)):
            if delta % 3 == 0 and src % 3 == 0:
                continue
            psi = build_psi(delta, src, dst)
            assert verify_psi(psi).passed, (delta, src, dst)
            rep = verify_psi_inclusion(psi)
            assert rep.passed, (delta, src, dst, rep.failures())


def test_not_divisible():
    psi = build_psi(35, 3, 17)
    with pytest.raises(NotDivisibleError):
        inclusion_coordinate_formulas(psi)
    with pytest.raises(NotDivisibleError):
        verify_psi_inclusion(psi)


def test_psi_validation():
    src = AlgebraParams(35, 9, 13, 2)
    dst = AlgebraParams(35, 3, 13, 5)
    with pytest.raises(InvalidParametersError):
        PsiMap(src, dst, Fraction(1), Fraction(0))
    other = AlgebraParams.create(6, 1)
    with pytest.raises(InvalidParametersError):
        PsiMap(src, other, Fraction(1), Fraction(0))


def test_json_payload():
    psi = build_psi(35, 3, 17)
    blob = psi.to_json()
    assert set(blob) == {
        "discriminant",
        "src_level",
        "dst_level",
        "p",
        "beta",
        "delta",
        "images",
    }
    assert blob["beta"] == "8/17"
    assert blob["delta"] == "1/17"
    assert set(blob["images"]) == {"i", "j", "k"}


def test_psi_map_is_frozen():
    psi = build_psi(35, 9, 3)
    u = hashimoto_basis(psi.src)[3]
    image = psi.apply(u)
    with pytest.raises(AttributeError):
        psi.beta = Fraction(4)
    assert psi.beta == Fraction(-4)
    assert psi.apply(u) == image
