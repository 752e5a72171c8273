import random
from fractions import Fraction

import pytest

from quatorder.errors import InvalidParametersError
from quatorder.quat import (
    AlgebraParams,
    QuatElem,
    check_admissible_p,
    coefficient_lattice,
    coords_in_hashimoto,
    element_from_coords,
    gens,
    hashimoto_basis,
    one,
    order_discriminant,
    phi_membership,
    pretty,
    span_is_closed,
)


def rand_elem(params, rng, span=9):
    return QuatElem(
        params,
        Fraction(rng.randint(-span, span)),
        Fraction(rng.randint(-span, span)),
        Fraction(rng.randint(-span, span)),
        Fraction(rng.randint(-span, span)),
    )


def test_params_creation_flagship():
    params = AlgebraParams.create(35, 3)
    assert (params.p, params.a) == (13, 5)
    assert params.dn == 105


def test_params_validation():
    with pytest.raises(InvalidParametersError):
        AlgebraParams(12, 1, 5, 2)  # not squarefree
    with pytest.raises(InvalidParametersError):
        AlgebraParams(35, 7, 13, 5)  # level shares a factor with delta
    with pytest.raises(InvalidParametersError):
        AlgebraParams(35, 3, 11, 5)  # 11 = 3 mod 4
    with pytest.raises(InvalidParametersError):
        AlgebraParams(35, 3, 13, 4)  # wrong a
    with pytest.raises(InvalidParametersError):
        AlgebraParams(1, 6, 5, 0)  # split algebra forces p = 1


def test_params_are_immutable_values():
    params = AlgebraParams(35, 3, 13, 5)
    with pytest.raises(AttributeError):
        params.p = 17
    with pytest.raises(AttributeError):
        del params.a
    assert params.p == 13 and params.a == 5
    shared = AlgebraParams.create(35, 3)
    assert params == shared and hash(params) == hash(shared)
    assert params != AlgebraParams(35, 9, 13, 2) and params != (35, 3, 13, 5)
    assert repr(params) == "AlgebraParams(delta=35, level=3, p=13, a=5)"


def test_multiplication_relations():
    params = AlgebraParams(35, 3, 13, 5)
    i, j, k = gens(params)
    assert i * i == one(params) * (-params.dn)
    assert j * j == one(params) * params.p
    assert i * j == k
    assert j * i == -k
    assert k * k == one(params) * (params.p * params.dn)


def test_norm_trace_multiplicative():
    params = AlgebraParams(35, 3, 13, 5)
    rng = random.Random(1)
    for _ in range(40):
        u, v = rand_elem(params, rng), rand_elem(params, rng)
        assert (u * v).reduced_norm() == u.reduced_norm() * v.reduced_norm()
        trace = u + u.conj()
        assert u.reduced_trace() == Fraction(trace.numerators[0], trace.denominator)
        assert u * u.conj() == one(params) * u.reduced_norm()


def test_hashimoto_basis_flagship():
    params = AlgebraParams(35, 3, 13, 5)
    e1, e2, e3, e4 = hashimoto_basis(params)
    assert pretty(e1) == "1"
    assert pretty(e2) == "(1+j)/2"
    assert pretty(e3) == "(i+k)/2"
    assert pretty(e4) == "(525j+k)/13"


def test_hashimoto_basis_split_case():
    params = AlgebraParams.create(1, 6)
    assert params.p == 1 and params.a == 0
    e4 = hashimoto_basis(params)[3]
    assert coords_in_hashimoto(e4) == (0, 0, 0, 1)
    assert e4.numerators == (0, 0, 6, 1) and e4.denominator == 1  # N*j + k


def test_coords_roundtrip():
    params = AlgebraParams(35, 3, 13, 5)
    rng = random.Random(2)
    for _ in range(30):
        coords = [Fraction(rng.randint(-20, 20)) for _ in range(4)]
        u = element_from_coords(params, coords)
        assert list(coords_in_hashimoto(u)) == coords


def test_order_closed_under_multiplication():
    params = AlgebraParams(35, 3, 13, 5)
    basis = hashimoto_basis(params)
    lat = coefficient_lattice(params, basis)
    for u in basis:
        for v in basis:
            assert lat.contains(list(coords_in_hashimoto(u * v)))


def test_products_across_two_algebras_are_refused():
    """The algebra check of a product: u·v and closure over a basis that mixes
    two algebras raise instead of multiplying with one algebra's constants."""
    params, other = AlgebraParams.create(35, 3), AlgebraParams.create(6, 1)
    i, i_other = gens(params)[0], gens(other)[0]
    with pytest.raises(InvalidParametersError, match="different algebras"):
        i * i_other
    lat = coefficient_lattice(params, hashimoto_basis(params))
    with pytest.raises(InvalidParametersError, match="different algebras"):
        span_is_closed(lat, (one(params), i, i_other))


def test_order_discriminant_is_dn():
    for delta, level in ((35, 3), (6, 1), (1, 6), (10, 9)):
        params = AlgebraParams.create(delta, level)
        assert order_discriminant(params) == delta * level


def test_phi_membership():
    params = AlgebraParams(35, 3, 13, 5)
    assert phi_membership(one(params))
    assert phi_membership(one(params) * -1)
    e2 = hashimoto_basis(params)[1]
    assert not phi_membership(e2)  # in the order but not norm one
    assert not phi_membership(one(params) * Fraction(1, 3))


def test_pretty_formats():
    params = AlgebraParams(35, 3, 13, 5)
    u = QuatElem(params, Fraction(-5, 2), Fraction(1, 2), Fraction(-5, 2), Fraction(1, 2))
    assert pretty(u) == "(-5+i-5j+k)/2"
    assert pretty(one(params)) == "1"
    assert pretty(one(params) * -1) == "-1"


def test_admissible_p_rule_is_shared():
    check_admissible_p(35, 3, 13)
    check_admissible_p(1, 6, 1)
    for (delta, level, p), reason in [
        ((35, 3, 17), "p = 17 must be a residue mod 3"),
        ((35, 3, 4), "p = 4 must be a prime ≡ 1 (mod 4)"),
        ((35, 1, 5), "p = 5 must not divide ΔN = 35"),
        ((6, 1, 17), "p = 17 must be ≡ 5 (mod 8) when the discriminant is even"),
        ((1, 6, 5), "the split algebra uses p = 1, a = 0"),
    ]:
        with pytest.raises(InvalidParametersError) as direct:
            check_admissible_p(delta, level, p)
        assert str(direct.value) == reason
        with pytest.raises(InvalidParametersError) as via_params:
            AlgebraParams(delta, level, p, 0)
        assert str(via_params.value) == reason
        with pytest.raises(InvalidParametersError) as via_create:
            AlgebraParams.create(delta, level, p=p)
        assert str(via_create.value) == reason


def test_create_builds_each_algebra_once(monkeypatch):
    from quatorder import quat
    from quatorder.verify import run_sweep

    quat._params_at.cache_clear()
    built = []
    validate = AlgebraParams._validate

    def counted(self):
        built.append((self.delta, self.level, self.p))
        validate(self)

    monkeypatch.setattr(AlgebraParams, "_validate", counted)
    report = run_sweep(deltas=(35,), levels=(1, 3, 9), sections=("psi", "chain"))
    assert report.passed
    assert sorted(built) == [(35, 1, 13), (35, 3, 13), (35, 9, 13), (35, 29, 13)]
    assert AlgebraParams.create(35, 3) is AlgebraParams.create(35, 3, p=13)
    for _ in range(2):
        with pytest.raises(InvalidParametersError):
            AlgebraParams.create(35, 3, p=11)
    assert len(built) == 4
