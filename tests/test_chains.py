from fractions import Fraction

import pytest

from quatorder import chains
from quatorder.chains import (
    CHAIN_AT_P,
    CHAIN_AUX,
    CHAIN_DIRECT,
    CHAIN_SQUARE,
    TRANSVERSE_FAMILIES,
    ChainBasis,
    chain_closed_form,
    chain_kernel_exact,
    chain_lattice_level_one,
    chain_oracle,
    classify_chain,
    global_intersection,
    pairwise_intersections,
    verify_chain,
    verify_chain_family,
)
from quatorder.errors import (
    CaseMismatchError,
    InvalidParametersError,
    RamifiedPlaceError,
)
from quatorder.exact import congruence_kernel
from quatorder.numth import INFINITE_PLACE
from quatorder.quat import (
    AlgebraParams,
    basis_digit_cost,
    coords_lattice,
    hashimoto_basis,
    pretty,
)
from quatorder.split import build_splitting
from quatorder.verify import DEFAULT_DELTAS, DEFAULT_PLACES


D35 = AlgebraParams(35, 1, 13, 6)
D6 = AlgebraParams.create(6, 1)


def test_classification_delta35():
    assert classify_chain(D35, 3) == CHAIN_SQUARE
    assert classify_chain(D35, 13) == CHAIN_AT_P
    assert classify_chain(D35, 11) == CHAIN_DIRECT
    assert classify_chain(D35, 19) == CHAIN_AUX


def test_classification_delta6():
    assert classify_chain(D6, 7) == CHAIN_DIRECT
    assert classify_chain(D6, 11) == CHAIN_SQUARE
    assert classify_chain(D6, 5) == CHAIN_AT_P
    assert classify_chain(D6, 13) == CHAIN_AUX


def test_classification_rejections():
    with pytest.raises(RamifiedPlaceError):
        classify_chain(D35, 5)
    with pytest.raises(RamifiedPlaceError):
        classify_chain(D6, 3)
    with pytest.raises(InvalidParametersError):
        classify_chain(D35, 6)


def test_matrix_algebra_has_no_rank_two_chain():
    with pytest.raises(CaseMismatchError):
        chain_closed_form(1, 5)
    with pytest.raises(CaseMismatchError):
        verify_chain(1, 5)


def test_closed_form_collapse():
    cb13 = chain_closed_form(35, 13)
    assert cb13.case == CHAIN_AT_P
    assert pretty(cb13.basis[0]) == "1"
    assert pretty(cb13.basis[1]) == "-210-i"

    cb11 = chain_closed_form(35, 11)
    assert cb11.case == CHAIN_DIRECT
    assert pretty(cb11.basis[1]) == "-210-i"

    cb3 = chain_closed_form(35, 3)
    assert cb3.case == CHAIN_SQUARE
    assert [pretty(u) for u in cb3.basis] == ["1", "(1+j)/2"]


def test_aux_levels():
    cb19 = chain_closed_form(35, 19)
    assert cb19.case == CHAIN_AUX
    assert cb19.aux_level == 3
    assert cb19.params.level == 3
    assert pretty(cb19.basis[1]) == "-525-i"

    cb13 = chain_closed_form(6, 13)
    assert cb13.aux_level == 11


def test_aux_level_at_two():
    # p = 13 is a 2-adic nonsquare and -35 = 5 mod 8, so q = 2 needs a level
    assert classify_chain(D35, 2) == CHAIN_AUX
    cb = chain_closed_form(35, 2)
    assert (-35 * cb.aux_level) % 8 == 1
    _, report = verify_chain(35, 2, depths=(4, 6))
    assert report.passed, report.failures()


def test_symbolic_kernel_matches_closed_form():
    for delta, q in ((35, 3), (35, 11), (35, 13), (6, 5), (6, 7), (6, 11)):
        cb = chain_closed_form(delta, q)
        sym = chain_kernel_exact(cb.params, q, prefer_y_zero=True)
        assert cb.lattice() == sym, (delta, q)


def test_oracle_contains_and_descends():
    from fractions import Fraction

    cb = chain_closed_form(35, 11)
    closed = cb.lattice()
    shallow = chain_oracle(cb.params, 11, 4)
    deep = chain_oracle(cb.params, 11, 8)
    for row in closed.rows:
        vec = [Fraction(x, closed.denom) for x in row]
        assert shallow.contains(vec)
        assert deep.contains(vec)
    assert deep.index_in(shallow) == 11 ** 4


# HNF rows of chain_oracle on delta = 35, one chain per case: q = 13 (at p),
# q = 3 (p a square), q = 11 (direct) and q = 19 (aux, level 3).
ORACLE_ROWS = {
    (13, 8): ((0, 1, 0, 400764169), (0, 0, 1, 267654127), (0, 0, 0, 815730721)),
    (13, 12): (
        (0, 1, 0, 15304324820850),
        (0, 0, 1, 12876577085112),
        (0, 0, 0, 23298085122481),
    ),
    (3, 8): ((0, 1, 0, 0), (0, 0, 1, 5226), (0, 0, 0, 6561)),
    (3, 12): ((0, 1, 0, 0), (0, 0, 1, 320154), (0, 0, 0, 531441)),
    (11, 8): ((0, 1, 0, 202884831), (0, 0, 1, 158782243), (0, 0, 0, 214358881)),
    (11, 12): (
        (0, 1, 0, 1461058658846),
        (0, 0, 1, 2312876749352),
        (0, 0, 0, 3138428376721),
    ),
    (19, 8): ((0, 1, 0, 1940403893), (0, 0, 1, 8793520149), (0, 0, 0, 16983563041)),
    (19, 12): (
        (0, 1, 0, 1028407633225566),
        (0, 0, 1, 1241490268254208),
        (0, 0, 0, 2213314919066161),
    ),
}


@pytest.mark.parametrize("q,depth", sorted(ORACLE_ROWS))
def test_oracle_lattice_frozen_per_case(q, depth):
    cb = chain_closed_form(35, q)
    assert cb.params.level == (3 if q == 19 else 1)
    lat = chain_oracle(cb.params, q, depth)
    assert lat.denom == 1
    assert lat.rows == ((1, 0, 0, 0),) + ORACLE_ROWS[q, depth]


def scaled_split_oracle(params, q, depth):
    """The depth-n oracle read as 2p-scaled lower-left residues of the split
    model, modulo q^(depth + λ) with λ = v_q(2p)."""
    digits = depth + basis_digit_cost(params, q)
    model = build_splitting(params, q, digits)
    _, scale = model.scalar(2 * params.p)
    residues = []
    for e in hashimoto_basis(params):
        den, c = model.entries(model.embed(e))[2]
        residues.append(c * scale // den % q**digits)
    return coords_lattice(params, congruence_kernel([residues], q**digits))


def test_oracle_reads_the_split_model_unscaled():
    """Unscaled residues mod q^depth cut out the same lattice as 2p-scaled
    ones mod q^(depth + λ): the basis images are q-integral and v_q(2p) = λ."""
    chains = []
    for delta in DEFAULT_DELTAS:
        if delta == 1:
            continue
        params = AlgebraParams.create(delta, 1)
        places = {params.p if place == "p" else place for place in DEFAULT_PLACES}
        for q in sorted(places - {INFINITE_PLACE}):
            if delta % q == 0:
                continue
            if classify_chain(params, q) in (CHAIN_AT_P, CHAIN_SQUARE):
                chains.append((params, q))
    assert len(chains) == 19
    for params, q in chains:
        for depth in range(1, 13):
            assert chain_oracle(params, q, depth) == scaled_split_oracle(params, q, depth), (
                params, q, depth,
            )


def test_oracle_depth_guards():
    with pytest.raises(InvalidParametersError):
        chain_oracle(D35, 11, 0)


def test_verify_chain_all_cases():
    for delta, q in ((35, 3), (35, 11), (35, 13), (35, 19), (6, 5), (6, 7), (6, 11), (6, 13)):
        cb, report = verify_chain(delta, q)
        assert report.passed, (delta, q, report.failures())
        assert cb.stabilized is True
        assert cb.oracle_depth == 12


def test_verify_chain_check_ids():
    _, report = verify_chain(35, 11, depths=(8, 10, 12))
    ids = [c.check_id for c in report.checks]
    assert ids == [
        "closed.rank",
        "closed.ring",
        "closed.symbolic_kernel",
        "oracle.contains_closed.depth8",
        "oracle.contains_closed.depth10",
        "oracle.contains_closed.depth12",
        "oracle.descending.depth8_10",
        "oracle.index_growth.depth8_10",
        "oracle.descending.depth10_12",
        "oracle.index_growth.depth10_12",
    ]


def test_a_ring_element_with_a_non_integral_norm_fails_closed_ring(monkeypatch):
    """Halving u = -210 - i of the (35, 11) chain leaves trd(u/2) = -210 but
    makes nrd(u/2) = 44135/4, so (u/2)² = trd·(u/2) − nrd lies outside
    Z + Z·u/2: the three-product path needs an integral norm, and the loop
    over every product fails ``closed.ring``."""
    cb = chain_closed_form(35, 11)
    one, u = cb.basis
    halved = ChainBasis(cb.params, cb.q, cb.case, (one, u * Fraction(1, 2)))
    assert halved.basis[1].reduced_norm() == Fraction(44135, 4)
    monkeypatch.setattr(chains, "chain_closed_form", lambda *args, **kwargs: halved)
    _, report = verify_chain(35, 11)
    assert "closed.ring" in {c.check_id for c in report.failures()}


def test_level_one_lattice_frozen():
    lat = chain_lattice_level_one(35, 11)
    assert lat.denom == 1
    assert lat.rows == ((1, 0, 0, 0), (0, 420, 0, -13))


def test_pairwise_and_global_triviality():
    for delta, qs in TRANSVERSE_FAMILIES.items():
        lattices = {q: chain_lattice_level_one(delta, q) for q in qs}
        pairs = pairwise_intersections(lattices)
        assert len(pairs) == len(qs) * (len(qs) - 1) // 2
        for (q1, q2), lat in pairs.items():
            assert lat.denom == 1 and lat.rows == ((1, 0, 0, 0),), (delta, q1, q2)
        glob = global_intersection(lattices)
        assert glob.rows == ((1, 0, 0, 0),)


def test_family_report():
    for delta, qs in TRANSVERSE_FAMILIES.items():
        report = verify_chain_family(delta, qs)
        assert report.passed, (delta, report.failures())
        ids = {c.check_id for c in report.checks}
        assert "global.trivial" in ids
        assert "global.norm_one" in ids
        assert sum(1 for i in ids if i.startswith("pairwise.")) == 6


def test_json_payload():
    cb, _ = verify_chain(35, 19, depths=(6, 8))
    blob = cb.to_json()
    assert blob["q"] == 19
    assert blob["case"] == "aux"
    assert blob["aux_level"] == 3
    assert blob["level"] == 3
    assert blob["oracle_depth"] == 8
    assert blob["stabilized"] is True
    assert blob["basis"] == ["1", "-525-i"]


def test_family_needs_two_distinct_primes():
    with pytest.raises(InvalidParametersError, match="two distinct primes"):
        verify_chain_family(35, (3, 3))
    with pytest.raises(InvalidParametersError):
        verify_chain_family(35, (3,))


def test_verify_chain_rejects_bad_depths():
    for depths in ((), (0, 8), (-1,)):
        with pytest.raises(InvalidParametersError, match="positive integers"):
            verify_chain(35, 19, depths=depths)
