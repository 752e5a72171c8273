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
closure, the reduced discriminant dn*q, and equality with the congruence
kernel by containment and index; then the index q^2 of the intersection of
the two copies, from the covolumes of the copies and of their sum.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import (
    InvalidParametersError,
    NotAnOrderBasisError,
    PrecisionLossError,
    RamifiedPlaceError,
)
from .exact import ZLattice4, det4, reduced_discriminant
from .numth import is_prime
from .quat import (
    AlgebraParams,
    coefficient_lattice,
    hashimoto_basis,
    pretty,
    scaled_coords,
    span_is_closed,
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


class DegeneracyPair:
    """Bases f and g of the two level-Nq copies inside the level-N order;
    constants names the integer residues their closed formulas read."""

    __slots__ = ("params", "q", "case", "constants", "f", "g", "splitting")

    def __init__(self, params: AlgebraParams, q: int, case: str, constants: dict,
                 f: tuple, g: tuple, splitting: LocalSplitting):
        self.params, self.q, self.case, self.constants = params, q, case, constants
        self.f, self.g, self.splitting = f, g, splitting

    def f_lattice(self) -> ZLattice4:
        return coefficient_lattice(self.params, self.f)

    def g_lattice(self) -> ZLattice4:
        return coefficient_lattice(self.params, self.g)

    def to_json(self) -> dict:
        f, g = ([scaled_coords(u) for u in basis] for basis in (self.f, self.g))
        coords = lambda scaled: [[str(Fraction(n, den)) for n in nums] for nums, den in scaled]
        return {
            "q": self.q,
            "case": self.case,
            "f": [pretty(u) for u in self.f],
            "g": [pretty(u) for u in self.g],
            "f_coords": coords(f),
            "g_coords": coords(g),
            "constants": {"case": self.case, "q": self.q, **self.constants},
            "det_f": str(_coords_det(f)),
            "det_g": str(_coords_det(g)),
        }


def _coords_det(coords):
    """Determinant of four order-basis coordinate vectors given scaled: an
    int when integral, a Fraction otherwise."""
    num, den = det4([nums for nums, _ in coords]), prod(den for _, den in coords)
    return num // den if num % den == 0 else Fraction(num, den)


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
        c3 = splitting.data["x"] % q
        c1 = (splitting.data["y"] - c3) % q
        c2 = pow(p, -1, q)
        consts = {"c1": c1, "c2": c2, "c3": c3}
        f = (e1, e2 * -c1 + e3, e2 * (-2 * c2 * (a * dn - c3)) + e4, e2 * q)
        g = (e1, e2 * c1 + e3, e2 * (-2 * c2 * (a * dn + c3)) + e4, e2 * q)
        return DegeneracyPair(params, q, case, consts, f, g, splitting)

    if case == DEG_SQUARE:
        if params.delta == 1:
            c, cp = 0, 1 % q
        else:  # the model's lifts of (p -/+ omega)/2, read mod q
            omega = splitting.data["omega"]
            lifts = (splitting.scalar(p - omega, 2), splitting.scalar(p + omega, 2))
            c, cp = [n // den % q for den, n in lifts]
        consts = {"c": c, "c_prime": cp}
        f = (e1, e2, e3 + e4 * -c, e4 * q)
        g = (e1, e2, e3 + e4 * -cp, e4 * q)
        return DegeneracyPair(params, q, case, consts, f, g, splitting)

    # q = p: the copy with the upper-right congruence needs sqrt(-dn) mod p^2,
    # one digit deeper than the lower-left copy.
    if k < 2:
        raise PrecisionLossError(
            f"the upper-right copy at {p} reads sqrt(-dn) mod {p}^2; precision {k} knows it "
            f"only mod {p}^{k}"
        )
    s = splitting.data["s"]
    c4, c4_lift = s % p, s % p**2
    b_inv = pow(2 * (a * dn + c4), -1, p)
    a_co = (1 - 2 * b_inv * (a * dn + c4)) // p
    consts = {"c4": c4, "c4_lift": c4_lift, "A": a_co, "B": b_inv}
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


def verify_degeneracy(pair: DegeneracyPair) -> Report:
    """Replay every certificate of the two embedded copies.

    Coordinates stay integer-scaled: closure forms the products of the basis
    elements on their ints and tests their scaled coordinates for membership.  An
    index, discriminant or intersection check whose lattice or trace form is
    degenerate, or whose covolume ratio is no integer, fails instead of
    raising.
    """
    params = pair.params
    q = pair.q
    s = pair.splitting
    report = Report()
    check_level = s.check_level()

    identity = unit_coords_lattice(params)
    expected_disc = params.dn * q
    lattices = {}

    # f deepens the lower-left congruence by a digit; g meets the upper-right one
    for side, basis, congruence in (("f", pair.f, (1, 0)), ("g", pair.g, (0, 1))):
        coords = [scaled_coords(u) for u in basis]
        lat = lattices[side] = ZLattice4.from_scaled_rows(coords, ambient=identity.ambient)

        # R is the span of e1..e4, so u lies in R exactly when its coordinates are integers
        in_order = all(n % den == 0 for nums, den in coords for n in nums)
        report.add(f"membership.{side}.order", in_order, "all four lie in the level-N order")

        for idx, u in enumerate(basis, start=1):
            ok, why = s.matrix_in_shape(s.embed(u), check_level, *congruence)
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
        try:
            index_ok = lat.index_in(identity) == q
        except InvalidParametersError:  # rank below 4, or a covolume ratio that is no integer
            index_ok = False
        report.add(f"index.{side}", index_ok, f"index in the level-N order = {q}")

        report.add(
            f"closure.{side}",
            span_is_closed(lat, basis),
            "all 16 pairwise products stay in the span",
        )

        try:
            disc_ok = reduced_discriminant(basis) == expected_disc
        except NotAnOrderBasisError:
            disc_ok = False
        report.add(f"discriminant.{side}", disc_ok, f"reduced discriminant = {expected_disc}")

        entry, m = (2, 1 + s.shape.ll_val) if side == "f" else (1, 1)
        report.add(
            f"kernel.{side}",
            lat.is_congruence_kernel(*s.congruence_functional(entry, m)),
            "basis span = independently solved congruence kernel",
        )

    # (F+G)/G ≅ F/(F∩G): covol(F∩G)·covol(F+G) = covol(F)·covol(G), on ints
    meet_ok = lattices["f"].rank == lattices["g"].rank == 4
    if meet_ok:
        (nf, df), (ng, dg) = lattices["f"].covolume(), lattices["g"].covolume()
        ns, ds = lattices["f"].add(lattices["g"]).covolume()
        meet_ok = nf * ng * ds == q * q * ns * df * dg
    report.add(
        "intersection.index",
        meet_ok,
        f"index of the intersection of the two copies = {q}^2",
    )
    return report
