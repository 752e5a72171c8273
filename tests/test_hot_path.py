"""Call-count guards on the certificates' innermost loops.

The degeneracy and level-map certificates never cross into ``Fraction``.
Both run on integer-scaled coordinates: ``scaled_coords``, scaled lattice
membership, the structure-constant product and the integer matrix of ψ.
Under the standard-library profiler, no ``Fraction.__new__`` call may be
reached from the four ``Fraction`` boundary functions below, nor from the
q-adic valuation test over Z_q[√p].  The profiler records each caller ->
callee edge, so the functions reachable from the boundary are known
exactly; a boundary function that never runs reaches nothing.

The ramified splitting certificate makes an exact number of ``PadicNum``
products and sums: scalar products in Z_q[√p] take two of them.

The lattice certificates run one elimination per kernel: a congruence
kernel is one ``hnf`` call, and a lattice intersection two (the kernel and
the reduction of its result).

The integer kernels do only the work their answer needs: a prime gets the
Miller-Rabin bases of its proven tier and no more, and a Hensel lift
computes one unit residue, at q = 2 as at an odd q.
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
from quatorder.numth import PadicNum, hensel_sqrt, is_prime
from quatorder.quat import AlgebraParams, QuatElem, coords_in_hashimoto
from quatorder.split import CASE_RAMIFIED, PadicQuad, build_splitting, verify_splitting

BOUNDARY = (coords_in_hashimoto, QuatElem.coefficients, ZLattice4.contains, PsiMap.apply)


def _key(func):
    code = func.__code__
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


def ramified_model():
    spl = build_splitting(AlgebraParams.create(35, 3), 5)
    assert spl.case == CASE_RAMIFIED
    return spl


def test_ramified_splitting_certificate_makes_the_measured_padic_calls():
    spl = ramified_model()
    reports = []
    stats = profile(lambda: reports.append(verify_splitting(spl)))
    calls = {name: stats[_key(getattr(PadicNum, name))][1] for name in ("__mul__", "__add__")}
    # 271 sums and 50 differences, each a negation and a sum
    assert calls == {"__mul__": 446, "__add__": 321}
    assert reports[0].passed


def test_qadic_valuation_test_makes_no_fraction():
    spl = ramified_model()
    entries = [e for m in (spl.mat_i, spl.mat_j, spl.mat_k) for e in m.entries()]
    assert all(isinstance(e, PadicQuad) for e in entries)
    seen = []

    def run():
        for m in (-1, 1, 2):
            seen.extend(e.val_at_least(m) for e in entries)

    assert fractions_from_boundary(run, (PadicQuad.val_at_least,)) == {}
    assert True in seen and False in seen


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
    assert stats[_key(hnf)][1] == 2
    identity = ZLattice4.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert inter[0].index_in(identity) == 11 * 11


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
    assert (r * r - PadicNum.from_ratio(25, 49, q, k)).is_zero_mod(k)


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
    assert (r * r - PadicNum.from_ratio(17, 9, 2, k)).is_zero_mod(k)
    assert r.residue(min(k, 2)) == 1
