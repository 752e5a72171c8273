"""The two copies of the level-Nq order sitting inside the level-N order.

For a prime q coprime to the discriminant, the Eichler order of level Nq
embeds in the level-N order R in exactly two ways up to the local building
structure: one copy deepens the lower-left congruence of the 2x2 model at q,
the other creates an upper-right congruence.  Both copies are given by closed
basis formulas in the standard order basis e1..e4, with integer coefficients
read off q-adic residues of the splitting data:

* q a non-square witness prime: residues of the norm-form solution (x, y),
* q with p a q-adic square: residues of (p -/+ sqrt(p))/2,
* q = p itself: the residue of sqrt(-dn) mod p for one copy and mod p^2 for
  the other, where the deeper lift is what makes the second basis integral.

verify_degeneracy replays, for each copy: membership in R, the local
congruence at q, the determinant and index certificates, multiplicative
closure, the reduced discriminant dn*q, agreement with an independently
computed congruence-kernel lattice, and the index q^2 of the intersection of
the two copies.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import InvalidParametersError, PrecisionLossError, RamifiedPlaceError
from .exact import ZLattice4, congruence_kernel, det_int, reduced_discriminant
from .numth import PadicNum, is_prime
from .quat import (
    AlgebraParams,
    coefficient_lattice,
    coords_in_hashimoto,
    coords_lattice,
    coords_product,
    hashimoto_basis,
    order_lattice,
    pretty,
    scaled_coords,
    structure_constants,
    unit_coords_lattice,
)
from .report import Report
from .split import (
    CASE_AT_P,
    CASE_RAMIFIED,
    CASE_RATIONAL,
    CASE_UNRAMIFIED_NONSQUARE,
    CASE_UNRAMIFIED_SQUARE,
    DEFAULT_PRECISION,
    LocalSplitting,
    build_splitting,
    classify_place,
)

# Degeneracy case labels (a strict subset of the splitting cases).
DEG_NONSQUARE = "nonsquare"
DEG_SQUARE = "square"
DEG_AT_P = "at_p"

# Splitting case at q -> degeneracy case; the ramified case has no entry.
_DEG_CASES = {
    CASE_RATIONAL: DEG_SQUARE,
    CASE_UNRAMIFIED_SQUARE: DEG_SQUARE,
    CASE_UNRAMIFIED_NONSQUARE: DEG_NONSQUARE,
    CASE_AT_P: DEG_AT_P,
}


class DegeneracyConstants:
    """The integer residues entering the closed basis formulas."""

    __slots__ = ("case", "q", "values")

    def __init__(self, case: str, q: int, values: dict):
        self.case, self.q, self.values = case, q, values

    def to_json(self) -> dict:
        return {"case": self.case, "q": self.q, **{k: int(v) for k, v in self.values.items()}}


class DegeneracyPair:
    """Bases f and g of the two level-Nq copies inside the level-N order."""

    __slots__ = ("params", "q", "case", "constants", "f", "g", "splitting")

    def __init__(self, params: AlgebraParams, q: int, case: str, constants: DegeneracyConstants,
                 f: tuple, g: tuple, splitting: LocalSplitting):
        self.params, self.q, self.case, self.constants = params, q, case, constants
        self.f, self.g, self.splitting = f, g, splitting

    @property
    def f_coords(self) -> list[list[Fraction]]:
        return [list(coords_in_hashimoto(u)) for u in self.f]

    @property
    def g_coords(self) -> list[list[Fraction]]:
        return [list(coords_in_hashimoto(u)) for u in self.g]

    def f_lattice(self) -> ZLattice4:
        return coefficient_lattice(self.params, self.f)

    def g_lattice(self) -> ZLattice4:
        return coefficient_lattice(self.params, self.g)

    def to_json(self) -> dict:
        f_coords, g_coords = self.f_coords, self.g_coords
        return {
            "q": self.q,
            "case": self.case,
            "f": [pretty(u) for u in self.f],
            "g": [pretty(u) for u in self.g],
            "f_coords": [[str(c) for c in row] for row in f_coords],
            "g_coords": [[str(c) for c in row] for row in g_coords],
            "constants": self.constants.to_json(),
            "det_f": str(_coords_det([scaled_coords(u) for u in self.f])),
            "det_g": str(_coords_det([scaled_coords(u) for u in self.g])),
        }


def _coords_det(coords) -> Fraction:
    """Determinant of four order-basis coordinate vectors given scaled."""
    return Fraction(det_int([list(nums) for nums, _ in coords]), prod(den for _, den in coords))


def classify_degeneracy(params: AlgebraParams, q: int) -> str:
    """Case label for the degeneracy at q, rejecting impossible primes.

    Ramified primes carry no level-Nq order at all; q = 2 with p = 5 mod 8
    has no splitting model to read residues from (classify_place raises).
    """
    if not isinstance(q, int) or not is_prime(q):
        raise InvalidParametersError(f"degeneracy prime must be a rational prime: {q!r}")
    case = classify_place(params, q)
    if case == CASE_RAMIFIED:
        raise RamifiedPlaceError(
            f"q={q} divides the discriminant {params.delta}; no level-Nq order exists"
        )
    return _DEG_CASES[case]


def degeneracy_bases(
    params: AlgebraParams,
    q: int,
    k: int = DEFAULT_PRECISION,
) -> DegeneracyPair:
    """Construct the two level-Nq bases inside the level-N order.

    k is the q-adic working precision for the underlying splitting; the basis
    coefficients themselves are exact integers.
    """
    case = classify_degeneracy(params, q)
    splitting = build_splitting(params, q, k=k)
    e1, e2, e3, e4 = hashimoto_basis(params)
    dn = params.dn
    a = params.a
    p = params.p

    if case == DEG_NONSQUARE:
        x = splitting.data["x"]
        y = splitting.data["y"]
        c1 = (y - x).residue(1)
        c2 = pow(p, -1, q)
        c3 = x.residue(1)
        consts = DegeneracyConstants(case, q, {"c1": c1, "c2": c2, "c3": c3})
        f = (e1, e2 * -c1 + e3, e2 * (-2 * c2 * (a * dn - c3)) + e4, e2 * q)
        g = (e1, e2 * c1 + e3, e2 * (-2 * c2 * (a * dn + c3)) + e4, e2 * q)
        return DegeneracyPair(params, q, case, consts, f, g, splitting)

    if case == DEG_SQUARE:
        if params.delta == 1:
            c, cp = 0, 1 % q
        else:
            omega = splitting.data["omega"]
            two = PadicNum.from_rational(2, q, k)
            p_adic = PadicNum.from_rational(p, q, k)
            c = ((p_adic - omega) / two).residue(1)
            cp = ((p_adic + omega) / two).residue(1)
        consts = DegeneracyConstants(case, q, {"c": c, "c_prime": cp})
        f = (e1, e2, e3 + e4 * -c, e4 * q)
        g = (e1, e2, e3 + e4 * -cp, e4 * q)
        return DegeneracyPair(params, q, case, consts, f, g, splitting)

    # q = p: the copy with the upper-right congruence needs sqrt(-dn) mod p^2,
    # one digit deeper than the lower-left copy.
    s = splitting.data["s"]
    c4 = s.residue(1)
    c4_lift = s.residue(2)
    b_inv = pow(2 * (a * dn + c4), -1, p)
    a_co = (1 - 2 * b_inv * (a * dn + c4)) // p
    consts = DegeneracyConstants(
        case, q, {"c4": c4, "c4_lift": c4_lift, "A": a_co, "B": b_inv}
    )
    f = (
        e1,
        e2 * -c4 + e3,
        e2 * (-2 * (a * dn + c4)) + e4 * p,
        (e2 * a_co + e4 * b_inv) * p,
    )
    g = (
        e1,
        e2 * c4 + e3,
        e2 * Fraction(-2 * (a * dn - c4_lift), p) + e4,
        e2 * p,
    )
    return DegeneracyPair(params, q, case, consts, f, g, splitting)


def _residue_mod(value, q: int, m: int) -> int:
    """Canonical residue in [0, q^m) of a q-integral coefficient."""
    if isinstance(value, PadicNum):
        return value.residue(m)
    value = Fraction(value)
    mod = q**m
    if value.denominator % q == 0:
        raise PrecisionLossError(f"{value} is not {q}-integral")
    return (value.numerator * pow(value.denominator, -1, mod)) % mod


def _side_kernel(pair: DegeneracyPair, side: str) -> ZLattice4:
    """Independent lattice of e-coordinate vectors meeting the q-congruence.

    Reads the relevant matrix entry of each basis image, reduces to integer
    residues, and solves the congruence with generic lattice machinery; no
    degeneracy formula enters.
    """
    params = pair.params
    q = pair.q
    s = pair.splitting
    m = 1 + s.shape.ll_val if side == "f" else 1
    basis = hashimoto_basis(params)
    entries = [s.lower_left(e) if side == "f" else s.upper_right(e) for e in basis]
    residues = [_residue_mod(v, q, m) for v in entries]
    rows = congruence_kernel([residues], q**m)
    return coords_lattice(params, rows)


def verify_degeneracy(pair: DegeneracyPair) -> Report:
    """Replay every certificate of the two embedded copies.

    Coordinates stay integer-scaled: closure multiplies coordinate vectors
    through the order's structure constants and tests scaled membership.
    """
    params = pair.params
    q = pair.q
    s = pair.splitting
    report = Report()
    check_level = s.check_level()

    r_lat = order_lattice(params)
    identity = unit_coords_lattice(params)
    table = structure_constants(params)
    expected_disc = params.dn * q
    lattices = {}

    for side, basis in (("f", pair.f), ("g", pair.g)):
        coords = [scaled_coords(u) for u in basis]
        lat = lattices[side] = coefficient_lattice(params, basis)

        in_order = all(r_lat.contains_scaled(u.numerators, u.denominator) for u in basis)
        report.add(f"membership.{side}.order", in_order, "all four lie in the level-N order")

        for idx, u in enumerate(basis, start=1):
            img = s.embed(u)
            if side == "f":
                ok, why = s.matrix_in_shape(img, check_level, extra_ll=1)
            else:
                ok, why = s.matrix_in_shape(img, check_level)
                if ok and not s.entry_val_at_least(img.b, 1):
                    ok, why = False, "upper-right entry not divisible by q"
            report.add(
                f"membership.{side}.e{idx}",
                ok,
                why or f"image satisfies the level-Nq congruence at {q}",
            )

        det = _coords_det(coords)
        report.add(
            f"determinant.{side}",
            abs(det) == q,
            f"|det| = {abs(det)}, expected {q}",
        )
        report.add(
            f"index.{side}",
            lat.index_in(identity) == q,
            f"index in the level-N order = {q}",
        )

        closed = all(
            lat.contains_scaled(*coords_product(table, u, v)) for u in coords for v in coords
        )
        report.add(
            f"closure.{side}",
            closed,
            "all 16 pairwise products stay in the span",
        )

        report.add(
            f"discriminant.{side}",
            reduced_discriminant(basis) == expected_disc,
            f"reduced discriminant = {expected_disc}",
        )

        report.add(
            f"kernel.{side}",
            lat == _side_kernel(pair, side),
            "basis span = independently solved congruence kernel",
        )

    inter = lattices["f"].intersect(lattices["g"])
    report.add(
        "intersection.index",
        inter.index_in(identity) == q * q,
        f"index of the intersection of the two copies = {q}^2",
    )
    return report
