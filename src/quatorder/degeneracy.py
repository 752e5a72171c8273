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

import sys
from fractions import Fraction

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
from .report import Check, Report
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
    """Determinant of four order-basis coordinate vectors, each four int
    numerators over its denominator: an int when integral, a Fraction otherwise."""
    (n1, d1), (n2, d2), (n3, d3), (n4, d4) = coords
    num, den = det4((n1, n2, n3, n4)), d1 * d2 * d3 * d4
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


# Each side's check names in report order, interned once, as Report.add would.
_NAMES = {side: [sys.intern(name % side) for name in (
    "membership.%s.order", "membership.%s.e1", "membership.%s.e2", "membership.%s.e3",
    "membership.%s.e4", "determinant.%s", "index.%s", "closure.%s", "discriminant.%s",
    "kernel.%s",
)] for side in "fg"}


def verify_degeneracy(pair: DegeneracyPair) -> Report:
    """Replay every certificate of the two embedded copies.

    Each copy is certified in one pass over its basis, read once as four-wide
    scaled coordinates: closure forms the products of the basis elements on
    their ints and tests their scaled coordinates for membership.  An index,
    discriminant or intersection check whose lattice or trace form is
    degenerate, or whose covolume ratio is no integer, fails instead of
    raising.  The pair's witness texts are built and interned once.
    """
    params, q, s = pair.params, pair.q, pair.splitting
    check_level = s.check_level()
    identity = unit_coords_lattice(params)
    expected_disc = params.dn * q
    order_w, shape_w, det_w, index_w, closed_w, disc_w, kernel_w, meet_w = [
        sys.intern(text) for text in (
            "all four lie in the level-N order", f"image satisfies the level-Nq congruence at {q}",
            f"|det| = {q}, expected {q}", f"index in the level-N order = {q}",
            "all 16 pairwise products stay in the span", f"reduced discriminant = {expected_disc}",
            "basis span = independently solved congruence kernel",
            f"index of the intersection of the two copies = {q}^2",
        )
    ]
    checks, lattices = [], []

    # f deepens the lower-left congruence by a digit; g meets the upper-right one
    for side, basis, congruence, kernel_at in (("f", pair.f, (1, 0), (2, 1 + s.shape.ll_val)),
                                               ("g", pair.g, (0, 1), (1, 1))):
        coords = [scaled_coords(u) for u in basis]
        lat = ZLattice4.from_scaled_rows(coords, ambient=identity.ambient)
        lattices.append(lat)
        # R is the span of e1..e4, so u lies in R exactly when its coordinates are integers
        in_order = not any([n % den for nums, den in coords for n in nums])
        shapes = [s.matrix_in_shape(s.embed(u), check_level, *congruence) for u in basis]
        det = abs(_coords_det(coords))
        try:
            index_ok = lat.index_in(identity) == q
        except InvalidParametersError:  # rank below 4, or a covolume ratio that is no integer
            index_ok = False
        closed = span_is_closed(lat, basis)
        try:
            disc_ok = reduced_discriminant(basis) == expected_disc
        except NotAnOrderBasisError:
            disc_ok = False
        kernel_ok = lat.is_congruence_kernel(*s.congruence_functional(*kernel_at))
        checks += map(
            Check, _NAMES[side],
            (in_order, *[ok for ok, _ in shapes], det == q, index_ok, closed, disc_ok, kernel_ok),
            (order_w, *[sys.intern(why) if why else shape_w for _, why in shapes],
             det_w if det == q else sys.intern(f"|det| = {det}, expected {q}"),
             index_w, closed_w, disc_w, kernel_w),
        )

    # (F+G)/G ≅ F/(F∩G): covol(F∩G)·covol(F+G) = covol(F)·covol(G), on ints
    f_lat, g_lat = lattices
    meet_ok = f_lat.rank == g_lat.rank == 4
    if meet_ok:
        (nf, df), (ng, dg) = f_lat.covolume(), g_lat.covolume()
        ns, ds = f_lat.add(g_lat).covolume()
        meet_ok = nf * ng * ds == q * q * ns * df * dg
    checks.append(Check(sys.intern("intersection.index"), meet_ok, meet_w))
    return Report(checks)
