"""Chain intersections: what survives inside every order of the q-tower.

For a division algebra (discriminant > 1) the intersection of the chain
R(1) > R(q) > R(q^2) > ... collapses to a rank-2 quadratic ring.  Three
independent routes compute it: a closed-form basis, the exact kernel of
the lower-left matrix functional, and brute-force congruence kernels at
increasing depth.  Distinct primes cut out transverse rings: pairwise and
globally the curated families intersect in Z*1, so the only norm-one
elements common to the whole tower are 1 and -1.
"""

from quatorder import (
    classify_chain,
    chain_closed_form,
    chain_lattice_level_one,
    pairwise_intersections,
    pretty,
    verify_chain,
    verify_chain_family,
)
from quatorder.chains import TRANSVERSE_FAMILIES


def main():
    delta = 35
    qs = TRANSVERSE_FAMILIES[delta]
    cb = chain_closed_form(delta, qs[0])
    params = cb.params
    print(f"discriminant {delta}, p = {params.p}")

    print("\nper-prime chain rings (three routes cross-checked):")
    for q in qs:
        cb, report = verify_chain(delta, q)
        tag = f"aux level {cb.aux_level}" if cb.aux_level else f"level {cb.params.level}"
        print(f"  q = {q:>2}  case {cb.case:>6} ({tag}), "
              f"basis 1, {pretty(cb.basis[1])}")
        print(f"          {len(report.checks)} checks to oracle depth {cb.oracle_depth}, "
              + ("all pass" if report.passed else "FAILED"))

    print("\npairwise intersections down at level 1 (HNF rows):")
    lattices = {q: chain_lattice_level_one(delta, q) for q in qs}
    for (q1, q2), lat in sorted(pairwise_intersections(lattices).items()):
        print(f"  q = {q1:>2} and {q2:>2}: {lat.rows}")

    report = verify_chain_family(delta, qs)
    print(f"\nfamily certificate over q in {qs}: {len(report.checks)} checks, "
          + ("all pass" if report.passed else "FAILED"))
    print("global intersection is Z*1; its norm-one elements are exactly 1 and -1")

    print("\nthe same story at discriminant 6:")
    qs6 = TRANSVERSE_FAMILIES[6]
    for q in qs6:
        cb, report = verify_chain(6, q)
        print(f"  q = {q:>2}  case {cb.case:>6}, "
              + ("all pass" if report.passed else "FAILED"))
    rep6 = verify_chain_family(6, qs6)
    print(f"  family: {'all pass' if rep6.passed else 'FAILED'}")

    print("\nclassification of a few more primes at discriminant 35:")
    for q in (3, 11, 13, 17, 19, 23, 29):
        print(f"  q = {q:>2}: {classify_chain(params, q)}")


if __name__ == "__main__":
    main()
