import inspect
import textwrap
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatorder import chains as chains_module
from quatorder import degeneracy as degeneracy_module
from quatorder import exact as exact_module
from quatorder import quat as quat_module
from quatorder import split as split_module
from quatorder.chains import verify_chain
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
    _coords,
    element_from_coords,
    hashimoto_basis,
    pretty,
    scaled_coords,
    unit_coords_lattice,
)
from quatorder.split import LocalSplitting
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


# A wrong copy fails checks instead of raising: f4 := f3 spans a rank-3
# lattice, whose index, trace form and intersection are degenerate, and
# f4 := f4/2 leaves the level-N order, so its covolume ratio is no integer.
WRONG_COPY_FAILURES = {
    "f4:=f3": ("closure.f", "determinant.f", "discriminant.f", "index.f",
               "intersection.index", "kernel.f"),
    "f4:=f4/2": ("closure.f", "determinant.f", "discriminant.f", "index.f", "kernel.f",
                 "membership.f.order"),
}


@pytest.mark.parametrize("mutation", sorted(WRONG_COPY_FAILURES))
def test_a_wrong_copy_fails_the_pinned_checks_instead_of_raising(mutation):
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    f1, f2, f3, f4 = pair.f
    f = (f1, f2, f3, f3 if mutation == "f4:=f3" else f4 * Fraction(1, 2))
    report = verify_degeneracy(with_bases(pair, f, pair.g))
    assert len(report.checks) == 21
    assert {c.check_id for c in report.failures()} == set(WRONG_COPY_FAILURES[mutation])


def with_bases(pair, f, g) -> DegeneracyPair:
    return DegeneracyPair(pair.params, pair.q, pair.case, pair.constants, f, g, pair.splitting)


def counted_products(monkeypatch) -> list:
    """The factor pairs of every quaternion product the certificate makes,
    all of them closure's, through ``span_is_closed``: each product's
    numerators come from ``QuatElem._times``, which ``QuatElem.__mul__``
    also calls (the count was taken on ``__mul__`` while closure built each
    product as a ``QuatElem``)."""
    calls = []
    real = QuatElem._times
    monkeypatch.setattr(QuatElem, "_times", lambda u, v: calls.append((u, v)) or real(u, v))
    return calls


def test_a_basis_without_one_runs_all_sixteen_products(monkeypatch):
    """No product is skipped unless a basis holds 1.  With 2·e1 for e1 in both
    copies of (35, 3, 11), closure fails on each side after the same 30
    products as over the full loop; with e1 + f2 for e1, the same two copies
    are certified after 16 products a side; the pair as built, whose bases
    both begin with 1 and whose other elements have integral trace and norm,
    runs the 3 products u·v with u before v a side (9 when only the products
    of 1 were skipped)."""
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
    assert counts == [32, 6]


ROW = st.tuples(*[st.integers(-3, 3)] * 4)


@pytest.mark.parametrize("rational", [False, True], ids=["integral", "rational"])
@SETTINGS
@given(
    st.integers(1, 3),
    st.lists(ROW, min_size=4, max_size=4),
    st.lists(st.integers(1, 3), min_size=4, max_size=4),
    st.integers(0, 4),
)
def test_closure_without_the_products_of_one_matches_all_sixteen(rational, m, rows, dens, at):
    """Four vectors (a, m·b, m·c, m·d)/den in order-basis coordinates of the
    default algebra (35, 3), den in 1..3 when rational and 1 otherwise, with
    1 at position at < 4 and no 1 when at = 4: the certificate's closure
    verdict equals the verdict over all 16 products.  An integral basis
    holding 1 spans an order's sublattice Z + m·L, with L the lattice of the
    (b, c, d), so every element and product has integral trace and norm and
    the three products u·v with u before v decide; the basis without 1 and
    most rational ones run the loop over every product.  Closure forms each
    product on ints and builds no ``QuatElem``: its numerators over the
    product of the denominators give the coordinates of the ``QuatElem``
    product, unreduced."""
    coords = [
        tuple(Fraction(x, den if rational else 1) for x in (a, m * b, m * c, m * d))
        for (a, b, c, d), den in zip(rows, dens)
    ]
    if at < 4:
        coords[at] = (1, 0, 0, 0)
    assume(det4(coords) != 0)
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    basis = tuple(element_from_coords(pair.params, c) for c in coords)
    span = ZLattice4.from_scaled_rows([scaled_coords(u) for u in basis])
    want = all(span.contains_scaled(*scaled_coords(u * v)) for u in basis for v in basis)
    for u in basis:
        for v in basis:
            nums, den = scaled_coords(u * v)
            int_den = u.denominator * v.denominator
            int_nums = _coords(pair.params, u._times(v))
            assert [n * int_den for n in nums] == [n * den for n in int_nums]
    with patch.object(QuatElem, "_times", autospec=True, side_effect=QuatElem._times) as times, \
            patch.object(QuatElem, "__mul__", autospec=True, side_effect=QuatElem.__mul__) as mul:
        report = verify_degeneracy(with_bases(pair, basis, pair.g))
    assert verdicts(report, {"closure.f"}) == {"closure.f": want}
    assert mul.call_count == 0
    if not rational and at < 4:  # the copy g as built takes 3 products too
        assert times.call_count <= 6


def one_site_fault(func, old: str, new: str):
    """func recompiled from its source with the one site old replaced by new,
    in a copy of its module's namespace; a decorated method comes back
    decorated, ready to be set on its class."""
    module = inspect.getmodule(func)
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, (func.__name__, old)
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    return namespace[func.__name__]


# A one-site fault in each kernel the certificate runs on, where it is set
# (degeneracy reads span_is_closed and reduced_discriminant by name), and the
# checks of the flagship pair at q = 11 whose verdict it moves: a kernel whose
# fault moved nothing would be dead weight in the certificate.
COVOLUME_READERS = ("index.f", "index.g", "intersection.index", "kernel.f", "kernel.g")
KERNEL_FAULTS = {
    "congruence kernel, last term dropped": (
        ZLattice4, "is_congruence_kernel", ZLattice4.is_congruence_kernel,
        "l1 * a + l2 * b + l3 * c + l4 * e", "l1 * a + l2 * b + l3 * c",
        None, ("kernel.f", "kernel.g"),
    ),
    "covolume, a wrong diagonal entry": (
        ZLattice4, "covolume", ZLattice4.covolume, "a * b * c * e", "a * b * c * c",
        None, COVOLUME_READERS,
    ),
    "scaled rows, last coordinate unscaled": (
        ZLattice4, "from_scaled_rows", ZLattice4.from_scaled_rows,
        "nums = (a * t, b * t, c * t, e * t)", "nums = (a * t, b * t, c * t, e)",
        None, ("closure.f", "closure.g", *COVOLUME_READERS),
    ),
    "sum lattice, one side twice": (
        ZLattice4, "add", ZLattice4.add, "self.rows + other.rows if", "self.rows + self.rows if",
        None, ("intersection.index",),
    ),
    "four-wide elimination, a subtraction's last term dropped": (
        exact_module, "hnf", exact_module.hnf, "r3 - t * t3)", "r3)",
        None, ("closure.g", "kernel.f", "kernel.g"),
    ),
    "trace form, wrong k weight": (
        exact_module, "_scaled_gram", exact_module._scaled_gram, "w4 = w3 * dn", "w4 = w3",
        None, ("discriminant.f", "discriminant.g"),
    ),
    "discriminant, denominator not squared": (
        degeneracy_module, "reduced_discriminant", exact_module.reduced_discriminant,
        "(d1 * d2 * d3 * d4) ** 2", "(d1 * d2 * d3 * d4)",
        None, ("discriminant.f", "discriminant.g"),
    ),
    "closure, product test inverted": (
        degeneracy_module, "span_is_closed", quat_module.span_is_closed,
        "if not lattice.contains_scaled", "if lattice.contains_scaled",
        None, ("closure.f", "closure.g"),
    ),
    "closure, products skipped": (
        degeneracy_module, "span_is_closed", quat_module.span_is_closed,
        "factors[i + 1:]", "factors[i + 2:]",
        "f2+e2", ("closure.f",),
    ),
    "coordinate determinant, a denominator dropped": (
        degeneracy_module, "_coords_det", degeneracy_module._coords_det,
        "d1 * d2 * d3 * d4", "d1 * d2 * d3",
        None, ("determinant.f", "determinant.g"),
    ),
    "congruence functional, i term dropped": (
        LocalSplitting, "congruence_functional", LocalSplitting.congruence_functional,
        "x * w + y * i + z * j + t * k", "x * w + z * j + t * k",
        None, ("kernel.f", "kernel.g"),
    ),
}


@pytest.mark.parametrize("fault", sorted(KERNEL_FAULTS))
def test_a_one_site_kernel_fault_moves_its_family_on_the_flagship_pair(monkeypatch, fault):
    """Each fault moves exactly its pinned checks: on the pair as built they
    fail, and on a wrong copy, for the skipped closure products, the wrong
    copy's failing closure check passes."""
    owner, name, func, old, new, mutation, moved = KERNEL_FAULTS[fault]
    pair = degeneracy_bases(FLAGSHIP, 11)
    if mutation is not None:
        pair = mutated(pair, mutation)
    before = {c.check_id: c.ok for c in verify_degeneracy(pair).checks}
    monkeypatch.setattr(owner, name, one_site_fault(func, old, new))
    after = {c.check_id: c.ok for c in verify_degeneracy(pair).checks}
    assert sorted(i for i in before if before[i] != after[i]) == sorted(moved)
    assert all(after[i] for i in moved) == (mutation is not None)


# A one-site fault in the closed-form one-congruence kernel, set where route
# three reads it (``chains.chain_oracle`` and ``LocalSplitting.congruence_lattice``
# import it by name), and the checks of verify_chain(35, q) whose verdict it
# moves.  At q = 2 the residues share the factor 2 with M = 2^k, so the last
# pivot M/g_4 is not M; at q = 11 the tail of the row of the third coordinate
# carries the kernel condition.
ORACLE_CONTAINS = tuple(f"oracle.contains_closed.depth{d}" for d in (8, 10, 12))
CLOSED_FORM_FAULTS = {
    "last pivot M, not M/g_4": (
        2, "modulus // g4", "modulus",
        (*ORACLE_CONTAINS, "oracle.descending.depth8_10", "oracle.descending.depth10_12"),
    ),
    "third row's tail with its sign flipped": (11, "-l3 // g3", "l3 // g3", ORACLE_CONTAINS),
}


@pytest.mark.parametrize("fault", sorted(CLOSED_FORM_FAULTS))
def test_a_one_site_closed_form_kernel_fault_moves_route_three(monkeypatch, fault):
    q, old, new, moved = CLOSED_FORM_FAULTS[fault]
    before = {c.check_id: c.ok for c in verify_chain(35, q)[1].checks}
    faulty = one_site_fault(exact_module.congruence_kernel, old, new)
    for module in (chains_module, split_module):
        monkeypatch.setattr(module, "congruence_kernel", faulty)
    after = {c.check_id: c.ok for c in verify_chain(35, q)[1].checks}
    assert sorted(i for i in before if before[i] != after[i]) == sorted(moved)
    assert not any(after[i] for i in moved)
