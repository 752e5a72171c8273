"""The degeneracy and level-map certificates never cross into ``Fraction``.

Both run on integer-scaled coordinates: ``scaled_coords``, scaled lattice
membership, the structure-constant product and the integer matrix of ψ.
Under the standard-library profiler, no ``Fraction.__new__`` call may be
reached from the four ``Fraction`` boundary functions below.  The profiler
records each caller -> callee edge, so the functions reachable from the
boundary are known exactly; a boundary function that never runs reaches
nothing.
"""

import cProfile
import pstats
from fractions import Fraction

from quatorder.degeneracy import degeneracy_bases, verify_degeneracy
from quatorder.exact import ZLattice4
from quatorder.isomap import PsiMap, build_psi, verify_psi, verify_psi_inclusion
from quatorder.quat import AlgebraParams, QuatElem, coords_in_hashimoto

BOUNDARY = (coords_in_hashimoto, QuatElem.coefficients, ZLattice4.contains, PsiMap.apply)


def _key(func):
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def fractions_from_boundary(run) -> dict:
    """Fraction.__new__ calls per caller, over callers reachable from BOUNDARY."""
    prof = cProfile.Profile()
    prof.runcall(run)
    stats = pstats.Stats(prof).stats
    callees = {}
    for callee, (_, _, _, _, callers) in stats.items():
        for caller in callers:
            callees.setdefault(caller, set()).add(callee)
    reached = set()
    todo = [_key(f) for f in BOUNDARY]
    while todo:
        fn = todo.pop()
        if fn not in reached:
            reached.add(fn)
            todo.extend(callees.get(fn, ()))
    new = _key(Fraction.__new__)
    callers = stats[new][4] if new in stats else {}
    return {caller: counts[1] for caller, counts in callers.items() if caller in reached}


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
