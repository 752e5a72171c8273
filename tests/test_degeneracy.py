from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatorder.degeneracy import (
    DEG_AT_P,
    DEG_NONSQUARE,
    DEG_SQUARE,
    DegeneracyPair,
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
from quatorder.exact import ZLattice4, det4
from quatorder.numth import INFINITE_PLACE
from quatorder.quat import (
    AlgebraParams,
    QuatElem,
    element_from_coords,
    hashimoto_basis,
    pretty,
    scaled_coords,
    unit_coords_lattice,
)
from quatorder.verify import DEFAULT_DELTAS, DEFAULT_LEVELS, DEFAULT_PLACES


FLAGSHIP = AlgebraParams(35, 3, 13, 5)
SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


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
    # leaves none to read the residues from; the bases refuse first, since the
    # upper-right copy reads the root of -dn mod 13^2.
    with pytest.raises(PrecisionLossError, match=r"mod 13\^2; precision 1"):
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


def default_grid_pairs():
    """The degeneracy pairs of the default sweep: every supported finite place."""
    for delta in DEFAULT_DELTAS:
        for level in DEFAULT_LEVELS:
            if gcd(delta, level) != 1:
                continue
            params = AlgebraParams.create(delta, level)
            places = {params.p if q == "p" else q for q in DEFAULT_PLACES if q != INFINITE_PLACE}
            for q in sorted(places - {1}):
                try:
                    yield degeneracy_bases(params, q)
                except CaseMismatchError:
                    continue


def oracle_verdicts(pair) -> dict:
    """The kernel and intersection verdicts by a second lattice solve: each
    span against the solved congruence kernel, and the Zassenhaus intersection's
    index against q^2."""
    s, q = pair.splitting, pair.q
    f, g = pair.f_lattice(), pair.g_lattice()
    return {
        "kernel.f": f == s.congruence_lattice(2, 1 + s.shape.ll_val),
        "kernel.g": g == s.congruence_lattice(1, 1),
        "intersection.index": f.intersect(g).index_in(unit_coords_lattice(pair.params)) == q * q,
    }


def verdicts(report, ids) -> dict:
    return {c.check_id: c.ok for c in report.checks if c.check_id in ids}


def test_default_grid_kernel_and_intersection_verdicts_match_the_lattice_oracle():
    count = 0
    for pair in default_grid_pairs():
        want = oracle_verdicts(pair)
        assert verdicts(verify_degeneracy(pair), want) == want, (pair.params, pair.q)
        count += 1
    assert count == 240


def mutated(pair, mutation) -> DegeneracyPair:
    """pair with one copy's basis changed: f2 + e2, q·f4, f3 + e4, f := g or g := f."""
    e1, e2, e3, e4 = hashimoto_basis(pair.params)
    f1, f2, f3, f4 = f = pair.f
    g = pair.g
    if mutation == "f2+e2":
        f = (f1, f2 + e2, f3, f4)
    elif mutation == "q*f4":
        f = (f1, f2, f3, f4 * pair.q)
    elif mutation == "f3+e4":
        f = (f1, f2, f3 + e4, f4)
    elif mutation == "f:=g":
        f = g
    else:
        assert mutation == "g:=f"
        g = f
    return DegeneracyPair(pair.params, pair.q, pair.case, pair.constants, f, g, pair.splitting)


# Failing ids at each mutated pair, as the lattice-solve certificates found them.
SPAN = ("determinant.f", "discriminant.f", "index.f", "intersection.index", "kernel.f")
WRONG_E3 = ("closure.f", "kernel.f", "membership.f.e3")
F_IS_G = ("intersection.index", "kernel.f")
G_IS_F = ("intersection.index", "kernel.g")
MUTATED_FAILURES = {
    # non-square: (35, 3, 11) and (10, 9, 7)
    (35, 3, 11, "f2+e2"): ("closure.f", "kernel.f", "membership.f.e2"),
    (35, 3, 11, "q*f4"): SPAN,
    (35, 3, 11, "f3+e4"): SPAN + WRONG_E3,
    (35, 3, 11, "f:=g"): F_IS_G + ("membership.f.e2",),
    (35, 3, 11, "g:=f"): G_IS_F + ("membership.g.e2",),
    (10, 9, 7, "f2+e2"): ("closure.f", "kernel.f", "membership.f.e2"),
    (10, 9, 7, "q*f4"): SPAN + ("closure.f",),
    (10, 9, 7, "f3+e4"): SPAN + WRONG_E3,
    (10, 9, 7, "f:=g"): F_IS_G + ("membership.f.e2",),
    # square: (35, 3, 3), the level-9 pair (10, 9, 3) and the rational (1, 6, 5)
    (35, 3, 3, "f2+e2"): SPAN + ("closure.f",),
    (35, 3, 3, "q*f4"): SPAN + ("closure.f",),
    (35, 3, 3, "f3+e4"): WRONG_E3,
    (35, 3, 3, "f:=g"): F_IS_G + ("membership.f.e3",),
    (35, 3, 3, "g:=f"): G_IS_F + ("membership.g.e3",),
    (10, 9, 3, "f2+e2"): SPAN,
    (10, 9, 3, "q*f4"): SPAN + ("closure.f",),
    (10, 9, 3, "f3+e4"): WRONG_E3,
    (10, 9, 3, "f:=g"): F_IS_G + ("membership.f.e3",),
    (10, 9, 3, "g:=f"): G_IS_F + ("membership.g.e3",),
    (1, 6, 5, "f2+e2"): SPAN,
    (1, 6, 5, "q*f4"): SPAN,
    (1, 6, 5, "f3+e4"): WRONG_E3,
    (1, 6, 5, "f:=g"): F_IS_G + ("membership.f.e3",),
    # at p: (35, 3, 13), where f2 + e2 spans the same copy
    (35, 3, 13, "f2+e2"): (),
    (35, 3, 13, "q*f4"): SPAN,
    (35, 3, 13, "f3+e4"): SPAN + WRONG_E3,
    (35, 3, 13, "f:=g"): F_IS_G + ("membership.f.e3",),
    (35, 3, 13, "g:=f"): G_IS_F + ("membership.g.e2", "membership.g.e3"),
}


@pytest.mark.parametrize("delta, level, q, mutation", sorted(MUTATED_FAILURES, key=str))
def test_mutated_pairs_fail_exactly_the_pinned_checks(delta, level, q, mutation):
    pair = mutated(degeneracy_bases(AlgebraParams.create(delta, level), q), mutation)
    report = verify_degeneracy(pair)
    assert len(report.checks) == 21
    assert {c.check_id for c in report.failures()} == set(MUTATED_FAILURES[delta, level, q, mutation])
    want = oracle_verdicts(pair)
    assert verdicts(report, want) == want


def with_bases(pair, f, g) -> DegeneracyPair:
    return DegeneracyPair(pair.params, pair.q, pair.case, pair.constants, f, g, pair.splitting)


def counted_products(monkeypatch) -> list:
    """The factor pairs of every quaternion product the certificate makes,
    all of them closure's, through ``span_is_closed``."""
    calls = []
    real = QuatElem.__mul__
    monkeypatch.setattr(QuatElem, "__mul__", lambda u, v: calls.append((u, v)) or real(u, v))
    return calls


def test_a_basis_without_one_runs_all_sixteen_products(monkeypatch):
    """No product is skipped unless a basis holds 1.  With 2·e1 for e1 in both
    copies of (35, 3, 11), closure fails on each side after the same 30
    products as over the full loop; with e1 + f2 for e1, the same two copies
    are certified after 16 products a side; the pair as built, whose bases
    both begin with 1, runs 9 a side."""
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    doubled = with_bases(pair, (pair.f[0] * 2, *pair.f[1:]), (pair.g[0] * 2, *pair.g[1:]))
    shifted = with_bases(
        pair, (pair.f[0] + pair.f[1], *pair.f[1:]), (pair.g[0] + pair.g[1], *pair.g[1:])
    )
    calls = counted_products(monkeypatch)
    report = verify_degeneracy(doubled)
    assert {c.check_id for c in report.failures()} == {
        "closure.f", "closure.g", "determinant.f", "determinant.g", "discriminant.f",
        "discriminant.g", "index.f", "index.g", "intersection.index", "kernel.f", "kernel.g",
    }
    assert len(calls) == 30
    counts = []
    for certified in (shifted, pair):
        calls.clear()
        assert verify_degeneracy(certified).passed
        counts.append(len(calls))
    assert counts == [32, 18]


ROW = st.tuples(*[st.integers(-3, 3)] * 4)


@SETTINGS
@given(st.integers(1, 3), st.lists(ROW, min_size=3, max_size=3), st.integers(0, 3))
def test_closure_without_the_products_of_one_matches_all_sixteen(m, rows, at):
    """A basis 1, then three integral vectors (a, m·b, m·c, m·d) of the
    default algebra (35, 3), 1 at any position: the certificate's closure
    verdict, which skips the products of 1, equals the verdict over all 16
    products.  The span is Z + m·L for the lattice L of the (b, c, d), so it
    is an order when that block is unimodular and usually not otherwise."""
    coords = [(a, m * b, m * c, m * d) for a, b, c, d in rows]
    coords.insert(at, (1, 0, 0, 0))
    assume(det4(coords) != 0)
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    basis = tuple(element_from_coords(pair.params, c) for c in coords)
    span = ZLattice4.from_scaled_rows([scaled_coords(u) for u in basis])
    want = all(span.contains_scaled(*scaled_coords(u * v)) for u in basis for v in basis)
    report = verify_degeneracy(with_bases(pair, basis, pair.g))
    assert verdicts(report, {"closure.f"}) == {"closure.f": want}
