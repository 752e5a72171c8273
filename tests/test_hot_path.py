"""Call-count guards on the certificates' innermost loops.

The degeneracy and level-map certificates never cross into ``Fraction``.
Both run on integer-scaled coordinates: ``scaled_coords``, scaled lattice
membership, the quaternion products of closure and the integer matrix of ψ.
Under the standard-library profiler, no ``Fraction.__new__`` call may be
reached from the three ``Fraction`` boundary functions below.  The profiler
records each caller -> callee edge, so the functions reachable from the
boundary are known exactly; a boundary function that never runs reaches
nothing.

The rational local model (Δ = 1) runs on int matrices, so its certificate
builds no ``Fraction``; the ψ samples are drawn integer-scaled, and a
degeneracy pair over the rational model builds only its determinant and
discriminant witnesses.  These are counted in a warm process.

A q-adic model keeps the ``PadicNum`` images of i, j and k it prints, but
its certificate runs on their residues mod q^k: verifying it builds no
``PadicNum`` and no ``Fraction``.  A local model's case fixes its
coefficient ring, so its zero and valuation tests never ask a coefficient
for its type.  The two quadratic models, at a ramified q and at the real
place, hold a matrix as one int tuple, the pairs a + b√p of its entries over
one denominator; their products, sums and trace form build no object per
entry and never reduce, and only a zero or valuation test reduces, once, so
a warm certificate makes a pinned number of calls.  The trace form's
determinant is the integer one of its rational parts.

The lattice certificates run one elimination per kernel: a congruence
kernel is one ``hnf`` call, and so is a lattice intersection, whose
Zassenhaus vanishing part is already the HNF of the result.  A degeneracy
pair makes no kernel solve and no Zassenhaus intersection: each copy's span
is checked against the congruence kernel by containment and index, and the
intersection's index is read from the covolumes of the two spans and of
their sum, so a warm pair runs three eliminations in all.

Printing an exact local model builds no ``Fraction`` for its int entries,
and printing a degeneracy pair reads each element's order-basis coordinates
once.

The integer kernels do only the work their answer needs: a prime gets the
Miller-Rabin bases of its proven tier and no more, and a Hensel lift
computes one unit residue, at q = 2 as at an odd q.  Each q-adic root is
found once per process: a model built again runs no root search, and a
root search takes int arguments as they are.  A closure test skips the
products of 1, so a degeneracy side tests the products of its other three
elements, and a fresh default sweep makes a pinned number of products,
``Fraction``s and root searches.

Every test here starts with the package's memos empty, so a count does not
depend on which tests ran before it.
"""

import builtins
import cProfile
import pstats
from fractions import Fraction

import pytest

from quatorder import numth
from quatorder.degeneracy import degeneracy_bases, verify_degeneracy
from quatorder.exact import ZLattice4, congruence_kernel, hnf
from quatorder.isomap import PsiMap, build_psi, verify_psi, verify_psi_inclusion
from quatorder.numth import PadicNum, hensel_sqrt, is_prime, solve_norm_equation
from quatorder.quat import (
    AlgebraParams,
    QuatElem,
    coords_in_hashimoto,
    hashimoto_basis,
    scaled_coords,
)
from quatorder.split import (
    CASE_ARCHIMEDEAN,
    CASE_RAMIFIED,
    CASE_RATIONAL,
    LocalSplitting,
    build_splitting,
    verify_splitting,
)
from quatorder.verify import run_sweep
from test_core_properties import MODELS
from test_no_dead_code import clear_package_caches

BOUNDARY = (coords_in_hashimoto, ZLattice4.contains, PsiMap.apply)


@pytest.fixture(autouse=True)
def empty_memos():
    clear_package_caches()


def _key(func):
    """The profiler's key for func, or for the body of a memoised func."""
    code = getattr(func, "__wrapped__", func).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def profile(run) -> dict:
    prof = cProfile.Profile()
    prof.runcall(run)
    return pstats.Stats(prof).stats


def calls_from_boundary(run, target, boundary) -> dict:
    """target's calls per caller, over callers reachable from boundary."""
    stats = profile(run)
    callees = {}
    for callee, (_, _, _, _, callers) in stats.items():
        for caller in callers:
            callees.setdefault(caller, set()).add(callee)
    reached = set()
    todo = [_key(f) for f in boundary]
    while todo:
        fn = todo.pop()
        if fn not in reached:
            reached.add(fn)
            todo.extend(callees.get(fn, ()))
    key = _key(target)
    callers = stats[key][4] if key in stats else {}
    return {caller: counts[1] for caller, counts in callers.items() if caller in reached}


def fractions_from_boundary(run, boundary=BOUNDARY) -> dict:
    """Fraction.__new__ calls per caller, over callers reachable from boundary."""
    return calls_from_boundary(run, Fraction.__new__, boundary)


def test_degeneracy_certificate_makes_no_fraction_at_the_boundary():
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    report = None

    def run():
        nonlocal report
        report = verify_degeneracy(pair)

    assert fractions_from_boundary(run) == {}
    assert report.passed


def test_level_map_certificates_make_no_fraction_at_the_boundary():
    psi = build_psi(35, 9, 3)
    reports = []

    def run():
        reports.append(verify_psi(psi))
        reports.append(verify_psi_inclusion(psi))

    assert fractions_from_boundary(run) == {}
    assert all(r.passed for r in reports)


def test_qadic_splitting_certificates_build_no_padic_number_and_no_fraction():
    """Every q-adic case's certificate runs on residues; the models and
    their (memoised) order bases are built before the profiler starts."""
    models = []
    for delta, level, place, k in MODELS:
        spl = build_splitting(AlgebraParams.create(delta, level), place, k=k)
        if not spl.exact:
            hashimoto_basis(spl.params)
            models.append(spl)
    assert len(models) == 10
    for spl in models:
        reports = []
        stats = profile(lambda: reports.append(verify_splitting(spl)))
        built = [_key(f) for f in (PadicNum.__init__, Fraction.__new__) if _key(f) in stats]
        assert built == [], (spl.case, spl.place, built)
        assert reports[0].passed


def test_local_model_coefficient_tests_make_no_type_check():
    """Building and verifying every case's model runs each test, none of
    which calls isinstance."""
    reports = []

    def run():
        for delta, level, place, k in MODELS:
            spl = build_splitting(AlgebraParams.create(delta, level), place, k=k)
            reports.append(verify_splitting(spl))

    stats = profile(run)
    tests = (LocalSplitting.is_zero, LocalSplitting.entry_val_at_least)
    assert all(_key(f) in stats for f in tests)
    (isinstance_key,) = [k for k in stats if k[2] == "<built-in method builtins.isinstance>"]
    callers = stats[isinstance_key][4]
    assert [f.__qualname__ for f in tests if _key(f) in callers] == []
    assert all(r.passed for r in reports)


def build_and_verify_every_model(reports):
    for delta, level, place, k in MODELS:
        spl = build_splitting(AlgebraParams.create(delta, level), place, k=k)
        reports.append(verify_splitting(spl))


def test_local_models_build_the_measured_padic_numbers():
    """Building and verifying every case's model makes 95 ``PadicNum``
    instances, all of them the stated i, j and k: the root searches return
    ints, which the models wrap (99 when the searches returned ``PadicNum``s,
    101 before they were memoised); certificates that ran on ``PadicNum``
    arithmetic made 3465."""
    reports = []
    assert profile(lambda: build_and_verify_every_model(reports))[_key(PadicNum.__init__)][1] == 95
    assert all(r.passed for r in reports)


def test_a_model_built_again_runs_no_root_search():
    """The second build of every case's model reuses each q-adic root: no
    ``hensel_sqrt`` or ``solve_norm_equation`` body runs, and the same 95
    ``PadicNum`` instances are built, each cached int root wrapped again."""
    reports = []
    build_and_verify_every_model(reports)
    stats = profile(lambda: build_and_verify_every_model(reports))
    assert [_key(f) in stats for f in (hensel_sqrt, solve_norm_equation)] == [False, False]
    assert stats[_key(PadicNum.__init__)][1] == 95
    assert all(r.passed for r in reports)


def test_a_fresh_sweep_makes_the_measured_products_and_root_searches():
    """A default sweep from empty memos: 7,568 quaternion products, 5,332
    ``Fraction``s, and 338 ``hensel_sqrt`` and 151 ``solve_norm_equation``
    bodies.  ``span_is_closed`` makes 4,358 of the products, 9 a side for
    each of the 240 degeneracy pairs and one for each of the 38 chains.
    A structure-constant table of coordinate products made 4,178
    quaternion products; testing every closure product and searching each
    root per model made 7,680 closure products and 628 and 220 searches;
    root searches handed their int arguments as ``Fraction``s built 7,541."""
    reports = []
    stats = profile(lambda: reports.append(run_sweep()))
    counts = [stats[_key(f)][1] for f in (QuatElem.__mul__, Fraction.__new__)]
    assert counts == [7568, 5332]
    assert [stats[_key(f)][1] for f in (hensel_sqrt, solve_norm_equation)] == [338, 151]
    assert reports[0].passed


def fractions_built(run) -> int:
    """Fraction.__new__ calls in a second, warm run (caches filled by the first)."""
    run()
    stats = profile(run)
    key = _key(Fraction.__new__)
    return stats[key][1] if key in stats else 0


def test_rational_model_certificate_builds_no_fraction():
    spl = build_splitting(AlgebraParams.create(1, 9), 5)
    reports = []
    assert fractions_built(lambda: reports.append(verify_splitting(spl))) == 0
    assert all(r.passed for r in reports)


def test_level_map_samples_build_only_their_norms():
    """31 Fractions: the 24 sample norms, six in the conic residual and one
    in the image of k; the samples themselves are drawn integer-scaled."""
    psi = build_psi(35, 9, 3)
    reports = []
    assert fractions_built(lambda: reports.append(verify_psi(psi))) == 31
    assert all(r.passed for r in reports)


def test_rational_degeneracy_pair_builds_the_measured_fractions():
    """No Fraction: the coordinate determinant and the reduced discriminant
    are decided on ints, which build a Fraction only for a non-integral
    witness or an error text; the rational local model adds none."""
    pair = degeneracy_bases(AlgebraParams.create(1, 9), 5)
    assert pair.splitting.case == CASE_RATIONAL
    reports = []
    assert fractions_built(lambda: reports.append(verify_degeneracy(pair))) == 0
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("place, calls", [(5, 227), ("inf", 113)])
def test_pair_model_certificates_make_the_measured_calls(place, calls):
    """Function calls of a warm ``verify_splitting`` at (35, 3): 227 on the
    ramified model at q = 5 and 113 at the real place.  With an object per
    coefficient (``QuadResidue`` and ``QuadRat``) the same certificates made
    1,096 and 2,323, 255 and 141 with a ``LocalSplitting.add`` in front of
    ``mat_add``, and 251 and 137 with a trace-form determinant over Z[√p]."""
    spl = build_splitting(AlgebraParams.create(35, 3), place)
    assert spl.case == (CASE_RAMIFIED if place == 5 else CASE_ARCHIMEDEAN)
    assert verify_splitting(spl).passed
    prof = cProfile.Profile()
    prof.runcall(verify_splitting, spl)
    assert pstats.Stats(prof).total_calls == calls


def test_lattice_certificates_run_one_elimination_per_kernel():
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    sides = []
    calls = calls_from_boundary(
        lambda: sides.append(pair.splitting.congruence_lattice(2, 1)), hnf, (congruence_kernel,)
    )
    assert sum(calls.values()) == 1
    sides.append(pair.splitting.congruence_lattice(1, 1))
    inter = []
    stats = profile(lambda: inter.append(sides[0].intersect(sides[1])))
    assert stats[_key(hnf)][1] == 1
    identity = ZLattice4.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert inter[0].index_in(identity) == 11 * 11


def test_degeneracy_pair_runs_three_eliminations():
    """The two spans and their sum; the parent's kernel solves and
    Zassenhaus intersection made it five."""
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    reports = [verify_degeneracy(pair)]
    stats = profile(lambda: reports.append(verify_degeneracy(pair)))
    assert stats[_key(hnf)][1] == 3
    assert all(r.passed for r in reports)


def test_a_degeneracy_pair_prints_each_elements_coordinates_once():
    """``to_json`` of the (35, 3) pair at 11 reads the order-basis
    coordinates of its 8 elements once each, for both the coordinate strings
    and the determinants; reading them for each made 16 calls."""
    pair = degeneracy_bases(AlgebraParams.create(35, 3), 11)
    assert profile(pair.to_json)[_key(scaled_coords)][1] == 8


@pytest.mark.parametrize("delta, place", [(35, "inf"), (1, 5)])
def test_exact_model_prints_its_ints_without_fractions(delta, place):
    """The real-place model of (35, 3) and the rational model of (1, 3) at 5
    print their generators' ints as they are; wrapping each in a ``Fraction``
    built 24 and 12."""
    spl = build_splitting(AlgebraParams.create(delta, 3), place)
    assert spl.exact
    assert fractions_built(spl.to_json) == 0


# (n, Miller-Rabin bases) for the largest prime below each tier bound (41²,
# then ψ_k), and the smallest prime above ψ₁₂ = 318665857834031151167461.
TIER_PRIMES = (
    (1669, 0),
    (2039, 1),
    (1373639, 2),
    (25325981, 3),
    (3215031749, 4),
    (2152302898729, 5),
    (3474749660329, 6),
    (341550071728289, 7),
    (3825123056546412979, 9),
    (318665857834031151167441, 12),
    (318665857834031151167483, 13),
)


@pytest.mark.parametrize("n, bases", TIER_PRIMES)
def test_a_prime_gets_exactly_the_bases_of_its_tier(monkeypatch, n, bases):
    powers = []

    def counting_pow(*args):
        powers.append(args)
        return builtins.pow(*args)

    monkeypatch.setattr(numth, "pow", counting_pow, raising=False)
    assert is_prime(n)
    first_primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    assert [a for a, _, modulus in powers if modulus == n] == first_primes[:bases]


@pytest.mark.parametrize("q, k", [(3, 1), (101, 40), (389, 20), (9413, 7)])
def test_an_odd_hensel_lift_computes_one_unit_residue(monkeypatch, q, k):
    residues = []

    def counting(*args):
        residues.append(args)
        return real(*args)

    real = numth.unit_residue
    monkeypatch.setattr(numth, "unit_residue", counting)
    r = hensel_sqrt(Fraction(25, 49), q, k)
    assert len(residues) == 1
    assert 0 <= r < q**k and (49 * r * r - 25) % q**k == 0


@pytest.mark.parametrize("k", [1, 2, 3, 20, 40])
def test_a_two_adic_hensel_lift_computes_one_unit_residue(monkeypatch, k):
    residues = []

    def counting(*args):
        residues.append(args)
        return real(*args)

    real = numth.unit_residue
    monkeypatch.setattr(numth, "unit_residue", counting)
    r = hensel_sqrt(Fraction(17, 9), 2, k)
    assert len(residues) == 1
    assert 0 <= r < 2**k and (9 * r * r - 17) % 2**k == 0
    assert r % 2 ** min(k, 2) == 1
