import pytest

from quatorder.degeneracy import (
    DEG_AT_P,
    DEG_NONSQUARE,
    DEG_SQUARE,
    classify_degeneracy,
    degeneracy_bases,
    verify_degeneracy,
)
from quatorder.errors import (
    CaseMismatchError,
    InvalidParametersError,
    PrecisionLossError,
    RamifiedPlaceError,
)
from quatorder.exact import ZLattice4
from quatorder.quat import AlgebraParams, pretty


FLAGSHIP = AlgebraParams(35, 3, 13, 5)


def test_classification():
    assert classify_degeneracy(FLAGSHIP, 3) == DEG_SQUARE
    assert classify_degeneracy(FLAGSHIP, 11) == DEG_NONSQUARE
    assert classify_degeneracy(FLAGSHIP, 13) == DEG_AT_P
    assert classify_degeneracy(FLAGSHIP, 17) == DEG_SQUARE
    assert classify_degeneracy(AlgebraParams.create(1, 6), 5) == DEG_SQUARE


def test_classification_rejections():
    with pytest.raises(RamifiedPlaceError):
        classify_degeneracy(FLAGSHIP, 5)
    with pytest.raises(RamifiedPlaceError):
        classify_degeneracy(FLAGSHIP, 7)
    with pytest.raises(CaseMismatchError):
        classify_degeneracy(FLAGSHIP, 2)  # p = 5 mod 8, odd discriminant
    with pytest.raises(InvalidParametersError):
        classify_degeneracy(FLAGSHIP, 6)
    with pytest.raises(InvalidParametersError):
        classify_degeneracy(FLAGSHIP, "3")


def test_precision_floor():
    # At q = p = 13 the order basis costs one digit, so one working digit
    # leaves none to read the residues from.
    with pytest.raises(PrecisionLossError):
        verify_degeneracy(degeneracy_bases(FLAGSHIP, 13, k=1))


def test_flagship_constants():
    expected = {
        3: ("square", {"c": 0, "c_prime": 1}),
        11: ("nonsquare", {"c1": 5, "c2": 6, "c3": 0}),
        13: ("at_p", {"c4": 5, "c4_lift": 161, "A": -163, "B": 2}),
        17: ("square", {"c": 11, "c_prime": 2}),
    }
    for q, (case, values) in expected.items():
        pair = degeneracy_bases(FLAGSHIP, q)
        assert pair.case == case
        assert pair.constants == values, (q, pair.constants)


def test_flagship_q11_bases():
    pair = degeneracy_bases(FLAGSHIP, 11)
    assert [pretty(u) for u in pair.f] == [
        "1",
        "(-5+i-5j+k)/2",
        "(-40950-40425j+k)/13",
        "(11+11j)/2",
    ]
    assert pretty(pair.g[0]) == "1"
    assert pretty(pair.g[1]) == "(5+i+5j+k)/2"
    assert pair.g[2] == pair.f[2]
    assert pair.g[3] == pair.f[3]


def test_flagship_q11_lattices():
    pair = degeneracy_bases(FLAGSHIP, 11)
    f_lat = pair.f_lattice()
    g_lat = pair.g_lattice()
    assert f_lat.denom == 1
    assert f_lat.rows == ((1, 0, 0, 0), (0, 1, 0, 4), (0, 0, 1, 9), (0, 0, 0, 11))
    assert g_lat.denom == 1
    assert g_lat.rows == ((1, 0, 0, 0), (0, 1, 0, 4), (0, 0, 1, 2), (0, 0, 0, 11))
    inter = f_lat.intersect(g_lat)
    assert inter.denom == 1
    assert inter.rows == ((1, 0, 0, 0), (0, 1, 0, 4), (0, 0, 11, 0), (0, 0, 0, 11))


def test_flagship_json_round():
    pair = degeneracy_bases(FLAGSHIP, 11)
    blob = pair.to_json()
    assert blob["det_f"] == "11"
    assert blob["det_g"] == "11"
    assert blob["constants"] == {"case": "nonsquare", "q": 11, "c1": 5, "c2": 6, "c3": 0}


def test_certificates_flagship():
    for q in (3, 11, 13, 17):
        pair = degeneracy_bases(FLAGSHIP, q)
        report = verify_degeneracy(pair)
        assert len(report.checks) == 21
        assert report.passed, (q, report.failures())


def test_certificates_other_families():
    for delta, level, qs in ((6, 1, (7, 11, 13, 5)), (1, 6, (5, 7, 11)), (10, 9, (7, 11, 13))):
        params = AlgebraParams.create(delta, level)
        for q in qs:
            pair = degeneracy_bases(params, q)
            report = verify_degeneracy(pair)
            assert report.passed, (delta, level, q, report.failures())


def test_index_and_intersection_structure():
    pair = degeneracy_bases(FLAGSHIP, 11)
    identity = ZLattice4.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ambient=("coords", 35, 3, 13),
    )
    assert pair.f_lattice().index_in(identity) == 11
    assert pair.g_lattice().index_in(identity) == 11
    assert pair.f_lattice().intersect(pair.g_lattice()).index_in(identity) == 121


def test_level_divisible_by_q():
    # N = 9 already contains q = 3: the f-side congruence deepens to q^2
    params = AlgebraParams.create(10, 9)
    pair = degeneracy_bases(params, 3)
    report = verify_degeneracy(pair)
    assert report.passed, report.failures()
