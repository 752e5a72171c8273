"""The two copies of the level-Nq order inside the level-N order.

Raising the level by a prime q embeds R(Nq) into R(N) in two distinct
ways: as the preimage of the lower-left congruence and as the preimage of
the upper-right one.  Both copies have index q; their intersection has
index q^2.  The closed bases come from small integer residues read off the
local splitting at q.
"""

from quatorder import (
    AlgebraParams,
    ZLattice4,
    degeneracy_bases,
    pretty,
    verify_degeneracy,
)


def main():
    params = AlgebraParams.create(35, 3)
    q = 11
    pair = degeneracy_bases(params, q)
    print(f"level {params.level} -> {params.level * q} at q = {q}: case {pair.case}")
    print(f"constants: {pair.constants}")

    print("\nfirst copy (lower-left congruence):")
    for u in pair.f:
        print(f"  {pretty(u)}")
    print("second copy (upper-right congruence):")
    for u in pair.g:
        print(f"  {pretty(u)}")

    f_lat, g_lat = pair.f_lattice(), pair.g_lattice()
    identity = ZLattice4.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        ambient=("coords", params.delta, params.level, params.p),
    )
    print(f"\ncoordinate lattices (HNF rows over the level-{params.level} basis):")
    print(f"  f: {f_lat.rows}   index {f_lat.index_in(identity)}")
    print(f"  g: {g_lat.rows}   index {g_lat.index_in(identity)}")
    inter = f_lat.intersect(g_lat)
    print(f"  f n g: {inter.rows}   index {inter.index_in(identity)} = {q}^2")

    report = verify_degeneracy(pair)
    print(f"\ncertificate: {len(report.checks)} checks, "
          + ("all pass" if report.passed else "FAILED"))

    print("\nthe same construction across the other supported primes:")
    for qq in (3, 13, 17):
        pp = degeneracy_bases(params, qq)
        rep = verify_degeneracy(pp)
        print(f"  q = {qq:>2}  case {pp.case:>9}  "
              + ("all pass" if rep.passed else "FAILED"))


if __name__ == "__main__":
    main()
