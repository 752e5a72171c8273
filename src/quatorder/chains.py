"""Intersections of descending order chains refined at one prime.

Fix a division algebra (delta > 1) with its level-1 order R.  Refining the
level at a prime q gives a descending chain of suborders whose members are,
locally at q, the matrices with lower-left entry divisible by q^n.  The
intersection of the whole chain is a rank-2 ring: the kernel of the exact
lower-left functional.  Three independent routes compute it:

* a closed-form basis, one of two shapes ({1, (1+j)/2} at primes where p is
  a q-adic square; {1, a*dn + i} up to basis change otherwise),
* the exact kernel of the lower-left functional written symbolically over a
  real quadratic field Q(theta),
* q-adic congruence kernels at increasing finite depths, which must descend,
  contain the closed form, and grow in index by exactly q per digit.  They
  read the certified split model at q = p and where p is a q-adic square,
  and the pure-root model elsewhere; route two stays the independent check.

At primes where neither p nor -dn is a q-adic square the lower-left
functional only takes the quadratic shape after an auxiliary level N with
(N/q) = -1 is introduced; the chain is then computed inside the level-N
order and can be carried back to level 1 by the level isomorphism.

A family corollary: intersecting the chains of several primes cuts the ring
down to Z, whose only norm-one elements are 1 and -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    CaseMismatchError,
    InvalidParametersError,
    RamifiedPlaceError,
    SearchExhaustedError,
)
from .exact import ZLattice4, congruence_kernel, is_perfect_square
from .numth import (
    hashimoto_violation,
    hensel_sqrt,
    is_prime,
    is_square_unit,
    legendre,
)
from .quat import (
    AlgebraParams,
    QuatElem,
    basis_digit_cost,
    coefficient_lattice,
    coords_in_hashimoto,
    coords_lattice,
    element_from_coords,
    hashimoto_basis,
    pretty,
    span_is_closed,
)
from .report import Report
from .split import build_splitting, check_modulus

CHAIN_SQUARE = "square"
CHAIN_AT_P = "at_p"
CHAIN_DIRECT = "direct"
CHAIN_AUX = "aux"

DEFAULT_DEPTHS = (8, 10, 12)
# Largest oracle depth verify_chain accepts: the oracle's cost grows faster
# than linearly in the depth, and this keeps every chain call bounded.
MAX_DEPTH = 1000
DEFAULT_AUX_BOUND = 200

# Prime families whose chain rings are pairwise transverse under the generic
# witness convention.  Pairwise triviality is a property of a curated family,
# not of arbitrary prime sets: any two primes at which p is a square share
# the ring Z[(1+j)/2], so a family contains at most one of each shape.
TRANSVERSE_FAMILIES = {35: (3, 11, 13, 19), 6: (5, 7, 11, 13)}


class ChainBasis:
    """Rank-2 basis of the chain intersection at q.

    params is the order the basis lives in: level 1, except in the auxiliary
    case where it is the level used to reach the quadratic shape.
    """

    __slots__ = ("params", "q", "case", "basis", "aux_level", "oracle_depth", "stabilized")

    def __init__(self, params: AlgebraParams, q: int, case: str, basis: tuple,
                 aux_level: int | None = None, oracle_depth: int | None = None,
                 stabilized: bool | None = None):
        self.params, self.q, self.case, self.basis = params, q, case, basis
        self.aux_level, self.oracle_depth, self.stabilized = aux_level, oracle_depth, stabilized

    def lattice(self) -> ZLattice4:
        return coefficient_lattice(self.params, self.basis)

    def to_json(self) -> dict:
        out = {
            "q": self.q,
            "case": self.case,
            "level": self.params.level,
            "basis": [pretty(u) for u in self.basis],
            "basis_coords": [
                [str(c) for c in coords_in_hashimoto(u)] for u in self.basis
            ],
        }
        if self.aux_level is not None:
            out["aux_level"] = self.aux_level
        if self.oracle_depth is not None:
            out["oracle_depth"] = self.oracle_depth
        if self.stabilized is not None:
            out["stabilized"] = self.stabilized
        return out


def _level_one(delta: int, p: int | None) -> AlgebraParams:
    if delta == 1:
        raise CaseMismatchError(
            "chain intersections in the matrix algebra have rank 3; "
            "they are only quadratic rings over a division algebra (delta > 1)"
        )
    return AlgebraParams.create(delta, 1, p=p)


def _neg_dn_is_q_square(dn: int, q: int) -> bool:
    return dn % q != 0 and is_square_unit(-dn, q)


def classify_chain(params: AlgebraParams, q: int) -> str:
    """Case label for the chain at q, built on the level-1 order."""
    if not isinstance(q, int) or not is_prime(q):
        raise InvalidParametersError(f"chain prime must be a rational prime: {q!r}")
    if params.delta % q == 0:
        raise RamifiedPlaceError(f"q={q} ramifies in the algebra; the chain degenerates")
    if q == params.p:
        return CHAIN_AT_P
    if is_square_unit(params.p, q):
        return CHAIN_SQUARE
    if _neg_dn_is_q_square(params.dn, q):
        return CHAIN_DIRECT
    return CHAIN_AUX


def _aux_level(params: AlgebraParams, q: int) -> int:
    """Smallest admissible auxiliary level making -dn*N a q-adic square."""
    delta, p = params.delta, params.p
    for n in range(2, DEFAULT_AUX_BOUND + 1):
        if gcd(n, delta) != 1:
            continue
        if q == 2:
            if (-delta * n) % 8 != 1:
                continue
        elif n % q == 0 or legendre(n, q) != -1:
            continue
        if hashimoto_violation(delta, n, p) is None:
            return n
    raise SearchExhaustedError(
        f"no auxiliary level <= {DEFAULT_AUX_BOUND} for delta={delta}, p={p}, q={q}"
    )


def _aux_params(params: AlgebraParams, q: int) -> AlgebraParams:
    """The order at the auxiliary level of the chain at q (same delta and p)."""
    return AlgebraParams.create(params.delta, _aux_level(params, q), p=params.p)


def _chain_vector(params: AlgebraParams) -> QuatElem:
    """The non-trivial closed-form generator -2*a*dn*e2 - 2*e3 + p*e4.

    Collapses to -(a*dn + i): the chain ring is Z[a*dn + i], a quadratic
    order of discriminant -4*dn.
    """
    e1, e2, e3, e4 = hashimoto_basis(params)
    return e2 * (-2 * params.a * params.dn) + e3 * (-2) + e4 * params.p


def chain_closed_form(
    delta: int,
    q: int,
    p: int | None = None,
) -> ChainBasis:
    """Closed-form basis of the chain intersection at q."""
    params = _level_one(delta, p)
    case = classify_chain(params, q)
    e1, e2, _, _ = hashimoto_basis(params)
    if case == CHAIN_SQUARE:
        return ChainBasis(params, q, case, (e1, e2))
    if case in (CHAIN_AT_P, CHAIN_DIRECT):
        return ChainBasis(params, q, case, (e1, _chain_vector(params)))
    params_n = _aux_params(params, q)
    basis = (hashimoto_basis(params_n)[0], _chain_vector(params_n))
    return ChainBasis(params_n, q, case, basis, aux_level=params_n.level)


# ---------------------------------------------------------------------------
# route two: the exact symbolic kernel of the lower-left functional


def _x_scan(params: AlgebraParams, q: int, prefer_y_zero: bool):
    """Pick the witness shape for the norm-form data at a non-square prime.

    Returns None to indicate the pure-root shape (x = sqrt(-dn), y = 0),
    available exactly when -dn is a q-adic square; otherwise the smallest
    x0 >= 0 making (x0^2 + dn)/p a q-adic unit square that is not a rational
    square (a rational value would collapse the quadratic field).

    At q = 2 with p = 5 mod 8 the generic shape never exists: (x0^2+dn)/p
    is 3 or 7 mod 8 for every x0 keeping it odd.  The pure-root shape is
    forced there, whatever the convention.
    """
    dn, p = params.dn, params.p
    if q == 2:
        if _neg_dn_is_q_square(dn, 2):
            return None
        raise CaseMismatchError("no quadratic witness at q=2 unless -dn = 1 mod 8")
    if prefer_y_zero and _neg_dn_is_q_square(dn, q):
        return None
    for x0 in range(0, 8 * q + 64):
        u = Fraction(x0 * x0 + dn, p)
        res = (u.numerator * pow(u.denominator, -1, q)) % q
        if res == 0 or legendre(res, q) != 1:
            continue
        if is_perfect_square(u.numerator) and is_perfect_square(u.denominator):
            continue
        return x0
    raise SearchExhaustedError(f"no norm-form witness residue at q={q}")


def _symbolic_ll(params: AlgebraParams, q: int, prefer_y_zero: bool) -> list[list[int]]:
    """The rational and theta parts of 2p·ll(e_i), as two int rows."""
    dn, p, a = params.dn, params.p, params.a
    if q == p:
        return [[0, p * p, 0, 2 * p * a * dn], [0, 0, p * p, 2 * p]]
    if is_square_unit(p, q):
        return [[0, 0, -p * dn, 0], [0, 0, p * dn, 2 * dn]]
    x0 = _x_scan(params, q, prefer_y_zero)
    if x0 is None:
        return [[0, p, 0, 2 * a * dn], [0, 0, -p, -2]]
    return [[0, p, -p * x0, 2 * (a * dn - x0)], [0, 0, p, 0]]


def chain_kernel_exact(
    params: AlgebraParams, q: int, prefer_y_zero: bool = True
) -> ZLattice4:
    """Exact kernel of the lower-left functional as a rank-2 lattice.

    The functional takes values in Q(theta); its kernel is the simultaneous
    kernel of the rational and the theta components, computed over Z.
    """
    if params.delta % q == 0:
        raise RamifiedPlaceError(f"q={q} ramifies in the algebra")
    return coords_lattice(params, congruence_kernel(_symbolic_ll(params, q, prefer_y_zero), 0))


# ---------------------------------------------------------------------------
# route three: q-adic congruence kernels at finite depth


def chain_oracle(params: AlgebraParams, q: int, depth: int) -> ZLattice4:
    """Depth-n congruence kernel {v : ll(v) = 0 mod q^depth} as a lattice.

    At q = p and where p is a q-adic square, the certified split model reads
    it (``congruence_lattice``); elsewhere -dn = r² in Z_q, and the pure-root
    model i -> [[r, 0], [0, -r]], j -> [[0, p], [1, 0]] gives it, scaled by 2p.
    The order-basis images cost λ = v_q(2p) digits: either model works to
    depth + λ digits.
    """
    if depth < 1:
        raise InvalidParametersError(f"depth must be positive: {depth}")
    digits = depth + basis_digit_cost(params, q)
    if classify_chain(params, q) in (CHAIN_AT_P, CHAIN_SQUARE):
        return build_splitting(params, q, digits).congruence_lattice(2, depth)
    # 2p·ll(e_i) = (0, p, -p·r, 2(a·dn - r))
    mod = q**digits
    r, p = hensel_sqrt(-params.dn, q, digits), params.p
    residues = [x % mod for x in (0, p, -p * r, 2 * (params.a * params.dn - r))]
    return coords_lattice(params, congruence_kernel([residues], mod))


def _is_sublattice(sub: ZLattice4, sup: ZLattice4) -> bool:
    return all(sup.contains_scaled(row, sub.denom) for row in sub.rows)


def verify_chain(
    delta: int,
    q: int,
    p: int | None = None,
    depths: tuple = DEFAULT_DEPTHS,
) -> tuple[ChainBasis, Report]:
    """Run all three routes and cross-check them.

    Returns the closed-form basis (annotated with the deepest oracle depth
    and the overall outcome) together with the detailed report.
    """
    depths = tuple(sorted(set(depths)))  # a repeated depth runs once
    if not depths or depths[0] < 1:
        raise InvalidParametersError(
            f"oracle depths must be a non-empty list of positive integers: {list(depths)}"
        )
    if depths[-1] > MAX_DEPTH:
        raise InvalidParametersError(
            f"oracle depth {depths[-1]} exceeds the bound {MAX_DEPTH}"
        )
    cb = chain_closed_form(delta, q, p=p)
    params = cb.params
    check_modulus(q, depths[-1] + basis_digit_cost(params, q), "oracle depth", depths[-1])
    report = Report()

    closed = cb.lattice()
    report.add("closed.rank", closed.rank == 2, "closed-form span has rank 2")

    ring_ok = span_is_closed(closed, cb.basis)
    report.add("closed.ring", ring_ok, "closed-form span is multiplicatively closed")

    symbolic = chain_kernel_exact(params, q, prefer_y_zero=True)
    report.add(
        "closed.symbolic_kernel",
        closed == symbolic,
        "closed form equals the exact kernel of the lower-left functional",
    )

    oracles = {}
    for d in depths:
        oracles[d] = chain_oracle(params, q, d)
        report.add(
            f"oracle.contains_closed.depth{d}",
            _is_sublattice(closed, oracles[d]),
            f"closed form inside the depth-{d} congruence kernel",
        )
    for d1, d2 in zip(depths, depths[1:]):
        report.add(
            f"oracle.descending.depth{d1}_{d2}",
            _is_sublattice(oracles[d2], oracles[d1]),
            "deeper kernels are smaller",
        )
        report.add(
            f"oracle.index_growth.depth{d1}_{d2}",
            oracles[d2].index_in(oracles[d1]) == q ** (d2 - d1),
            f"index grows by {q}^{d2 - d1}",
        )

    cb.oracle_depth = depths[-1]
    cb.stabilized = report.passed
    return cb, report


# ---------------------------------------------------------------------------
# several primes at once: transport to level 1 and intersect


def chain_lattice_level_one(
    delta: int,
    q: int,
    p: int | None = None,
) -> ZLattice4:
    """The chain intersection at q as a lattice in level-1 coordinates.

    Uses the generic witness convention (smallest valid x0) at non-square
    primes, so that distinct primes pick out genuinely transverse quadratic
    subrings; auxiliary chains are carried back by the level isomorphism.
    """
    from .isomap import build_psi

    params = _level_one(delta, p)
    case = classify_chain(params, q)
    if case != CHAIN_AUX:
        return chain_kernel_exact(params, q, prefer_y_zero=False)
    params_n = _aux_params(params, q)
    lat_n = chain_kernel_exact(params_n, q, prefer_y_zero=False)
    psi = build_psi(delta, params_n.level, 1, p=params.p)
    images = [
        psi.apply(element_from_coords(params_n, [Fraction(x, lat_n.denom) for x in row]))
        for row in lat_n.rows
    ]
    return coefficient_lattice(params, images)


def pairwise_intersections(lattices: dict) -> dict:
    """Intersection of every pair of level-1 chain lattices, given keyed by prime."""
    qs = sorted(lattices)
    out = {}
    for i, q1 in enumerate(qs):
        for q2 in qs[i + 1 :]:
            out[(q1, q2)] = lattices[q1].intersect(lattices[q2])
    return out


def global_intersection(lattices: dict) -> ZLattice4:
    """Intersection of all the level-1 chain lattices, given keyed by prime."""
    if not lattices:
        raise InvalidParametersError("need at least one prime")
    acc = None
    for q in sorted(lattices):
        acc = lattices[q] if acc is None else acc.intersect(lattices[q])
    return acc


def verify_chain_family(
    delta: int,
    qs,
    p: int | None = None,
) -> Report:
    """Pairwise and global triviality of the chain family, plus the corollary.

    Every pairwise intersection and the global one must be exactly Z*1; the
    only norm-one elements of Z*1 are 1 and -1.
    """
    if len(set(qs)) < 2:
        raise InvalidParametersError(
            f"a chain family needs at least two distinct primes: {sorted(set(qs))}"
        )
    params = _level_one(delta, p)
    report = Report()
    unit = coords_lattice(params, [[1, 0, 0, 0]])
    lattices = {q: chain_lattice_level_one(delta, q, p=params.p) for q in sorted(set(qs))}
    pairs = pairwise_intersections(lattices)
    for (q1, q2), lat in sorted(pairs.items()):
        report.add(
            f"pairwise.{q1}_{q2}",
            lat == unit,
            "intersection of the two chain rings is Z*1",
        )
    glob = global_intersection(lattices)
    report.add("global.trivial", glob == unit, "intersection over all primes is Z*1")
    norm_one_ok = glob == unit
    if norm_one_ok:
        one = element_from_coords(params, [1, 0, 0, 0])
        norm_one_ok = one.reduced_norm() == 1 and (-one).reduced_norm() == 1
    report.add(
        "global.norm_one",
        norm_one_ok,
        "norm-one elements of the intersection are exactly 1 and -1",
    )
    return report
