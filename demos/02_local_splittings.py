"""Build the matrix model of B(N,p) at every place and verify it.

At each place q the algebra becomes 2x2 matrices (or the ramified maximal
order when q divides the discriminant).  The model is case-tagged by how p
and -delta*N sit inside Q_q; the verification replays the generator
relations, the integrality of the order's image, and the trace-form
discriminant, all to 20 q-adic digits.
"""

from quatorder import (
    AlgebraParams,
    CaseMismatchError,
    INFINITE_PLACE,
    build_splitting,
    classify_place,
    hashimoto_basis,
    pretty,
    verify_splitting,
)


def main():
    params = AlgebraParams.create(35, 3)
    print(f"algebra: discriminant {params.delta}, level {params.level}, p = {params.p}")

    places = [2, 3, 5, 7, 11, 13, 17, INFINITE_PLACE]
    print("\ncase table:")
    for place in places:
        try:
            case = classify_place(params, place)
        except CaseMismatchError as exc:
            print(f"  {str(place):>4}  (unsupported: {exc})")
            continue
        print(f"  {str(place):>4}  {case}")

    print("\nthe model at q = 11 (p is a non-square unit there):")
    spl = build_splitting(params, 11)
    print(f"  target shape: {spl.shape.describe()}")
    e4 = hashimoto_basis(params)[3]
    img = spl.embed(e4)
    print(f"  phi(e4) where e4 = {pretty(e4)}:")
    print(f"    upper-left  residue mod 11^3: {img[1] % 11**3}")
    print(f"    lower-left  residue mod 11^3: {img[3] % 11**3}")

    print("\nverification at every supported place:")
    for place in places:
        try:
            report = verify_splitting(build_splitting(params, place))
        except CaseMismatchError:
            continue
        status = "all pass" if report.passed else "FAILED"
        print(f"  {str(place):>4}  {len(report.checks)} checks, {status}")


if __name__ == "__main__":
    main()
