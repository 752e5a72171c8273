"""Isomorphisms between the quaternion presentations at different levels.

For one discriminant delta, the algebras presented as (-delta*N, p) and
(-delta*M, p) are isomorphic whenever a single prime p serves both levels.
An explicit isomorphism is determined by one element h = beta*i + delta*k of
the target presentation with h^2 = -delta*N, which reduces to the conic

    M*beta^2 - p*M*delta^2 = N

solved in rationals by a bounded search over denominators.  The map sends

    i  |->  beta*i + delta*k,    j |-> j,    k |-> p*delta*i + beta*k.

When M divides N the map can be normalized (by the sign of beta) so that it
carries the level-N order INTO the level-M order; the images of the order
basis then have closed-form integer coordinates, which verify_psi_inclusion
recomputes and compares against the transported basis, together with the
index [target order : image] = N/M.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import (
    InvalidParametersError,
    NotDivisibleError,
    SearchExhaustedError,
)
from .exact import frac_to_str, is_perfect_square
from .numth import find_hashimoto_prime
from .quat import (
    AlgebraParams,
    QuatElem,
    coefficient_lattice,
    coords_in_hashimoto,
    gens,
    hashimoto_basis,
    pretty,
    unit_coords_lattice,
)
from .report import Report

DEFAULT_CONIC_BOUND = 400


def solve_conic(m_level: int, p: int, n_level: int, w_bound: int = DEFAULT_CONIC_BOUND):
    """Smallest-denominator rational point on M*x^2 - p*M*y^2 = N.

    Scans denominators w = 1..w_bound and, for each w with M | N*w^2,
    ascending numerators u for the sqrt(p)-part until v^2 = N*w^2/M + p*u^2
    is a perfect square.  Returns (beta, delta) = (v/w, u/w) with v, u >= 0.
    """
    if m_level < 1 or n_level < 1 or p < 1:
        raise InvalidParametersError("conic parameters must be positive")
    for w in range(1, w_bound + 1):
        nw2 = n_level * w * w
        if nw2 % m_level:
            continue
        base = nw2 // m_level
        u_cap = max(100, 4 * w)
        for u in range(0, u_cap + 1):
            v2 = base + p * u * u
            if is_perfect_square(v2):
                return Fraction(isqrt(v2), w), Fraction(u, w)
    raise SearchExhaustedError(
        f"no rational point on {m_level}x^2 - {p * m_level}y^2 = {n_level} "
        f"with denominator <= {w_bound}"
    )


@dataclass
class PsiMap:
    """Explicit isomorphism from the level-N presentation to the level-M one.

    beta and delta are the coefficients of the image of i; src and dst are
    the two parameter sets, sharing the same discriminant and prime p.
    """

    src: AlgebraParams
    dst: AlgebraParams
    beta: Fraction
    delta: Fraction

    def __post_init__(self):
        if self.src.delta != self.dst.delta:
            raise InvalidParametersError("level maps require equal discriminants")
        if self.src.p != self.dst.p:
            raise InvalidParametersError("level maps require a shared prime p")
        n, m, p = self.src.level, self.dst.level, self.src.p
        if m * self.beta**2 - p * m * self.delta**2 != n:
            raise InvalidParametersError("coefficients do not satisfy the level conic")

    def image_i(self) -> QuatElem:
        i, _, k = gens(self.dst)
        return i * self.beta + k * self.delta

    def image_j(self) -> QuatElem:
        return gens(self.dst)[1]

    def image_k(self) -> QuatElem:
        i, _, k = gens(self.dst)
        return i * (self.src.p * self.delta) + k * self.beta

    def apply(self, u: QuatElem) -> QuatElem:
        if u.params != self.src:
            raise InvalidParametersError("element belongs to a different presentation")
        x, y, z, t = u.coefficients()
        out = QuatElem(self.dst, x, 0, 0, 0)
        return out + self.image_i() * y + self.image_j() * z + self.image_k() * t

    def conic_residual(self) -> Fraction:
        n, m, p = self.src.level, self.dst.level, self.src.p
        return m * self.beta**2 - p * m * self.delta**2 - n

    def to_json(self) -> dict:
        return {
            "discriminant": self.src.delta,
            "src_level": self.src.level,
            "dst_level": self.dst.level,
            "p": self.src.p,
            "beta": frac_to_str(self.beta),
            "delta": frac_to_str(self.delta),
            "images": {
                "i": pretty(self.image_i()),
                "j": pretty(self.image_j()),
                "k": pretty(self.image_k()),
            },
        }


def build_psi(
    delta: int,
    src_level: int,
    dst_level: int,
    p: int | None = None,
    w_bound: int = DEFAULT_CONIC_BOUND,
    prime_bound: int = 100_000,
) -> PsiMap:
    """Construct the level map from src_level to dst_level.

    The shared prime defaults to the smallest one admissible for the product
    of the two levels, which serves both.  When dst_level divides src_level
    the sign of beta is normalized so the map respects the orders, matching
    a_src * beta = a_dst mod p.
    """
    if p is None:
        p = find_hashimoto_prime(delta, src_level * dst_level, bound=prime_bound)
    src = AlgebraParams.create(delta, src_level, p=p)
    dst = AlgebraParams.create(delta, dst_level, p=p)
    n, m = src_level, dst_level

    if delta == 1:
        beta = Fraction(m + n, 2 * m)
        dlt = Fraction(m - n, 2 * m)
    else:
        beta, dlt = solve_conic(m, p, n, w_bound=w_bound)
        if n % m == 0 and (src.a * beta.numerator - dst.a * beta.denominator) % p != 0:
            beta = -beta

    return PsiMap(src, dst, beta, dlt)


def inclusion_coordinate_formulas(psi: PsiMap) -> dict:
    """Closed-form coordinates of the order basis images when dst | src.

    Returns the eight coefficients {A3..D3, A4..D4} of the images of the third
    and fourth basis vectors in the target order basis (the first two map to
    their counterparts on the nose).
    """
    n, m = psi.src.level, psi.dst.level
    if n % m:
        raise NotDivisibleError(f"{m} does not divide {n}; no order inclusion")
    p = Fraction(psi.src.p)
    a_m = psi.dst.a
    dm = psi.dst.dn
    a_n = psi.src.a
    s_ratio = Fraction(n, m)
    beta, dlt = psi.beta, psi.delta
    b4 = Fraction(2, psi.src.p) * dm * (a_n * s_ratio - a_m * beta + p * dlt * a_m)
    return {
        "A3": dlt * (1 - p) * a_m * dm / 2,
        "B3": dlt * (p - 1) * a_m * dm,
        "C3": dlt * p + beta,
        "D3": dlt * p * (1 - p) / 2,
        "A4": -b4 / 2,
        "B4": b4,
        "C4": 2 * dlt,
        "D4": beta - p * dlt,
    }


def verify_psi(psi: PsiMap, sample_count: int = 12, seed: int = 0) -> Report:
    """Check that the map is a ring isomorphism of the two presentations."""
    import random

    report = Report()
    src, dst = psi.src, psi.dst
    gi, gj, gk = psi.image_i(), psi.image_j(), psi.image_k()
    zero = QuatElem(dst, 0, 0, 0, 0)

    report.add("conic.residual", psi.conic_residual() == 0, "M*b^2 - pM*d^2 = N")
    report.add(
        "relations.i_square",
        gi * gi == QuatElem(dst, -src.dn, 0, 0, 0),
        f"image of i squares to {-src.dn}",
    )
    report.add(
        "relations.j_square",
        gj * gj == QuatElem(dst, src.p, 0, 0, 0),
        f"image of j squares to {src.p}",
    )
    report.add("relations.anticommute", gi * gj + gj * gi == zero, "images anticommute")
    report.add("relations.k_matches", gk == gi * gj, "image of k = product of images")

    rng = random.Random(seed)
    ok_norm = True
    ok_mult = True
    for _ in range(sample_count):
        u = QuatElem(src, *[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(4)])
        v = QuatElem(src, *[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(4)])
        if psi.apply(u).reduced_norm() != u.reduced_norm():
            ok_norm = False
        if psi.apply(u * v) != psi.apply(u) * psi.apply(v):
            ok_mult = False
    report.add("samples.norm_preserved", ok_norm, f"{sample_count} random elements")
    report.add("samples.multiplicative", ok_mult, f"{sample_count} random products")
    return report


def verify_psi_inclusion(psi: PsiMap) -> Report:
    """Check that the map carries the level-N order into the level-M order.

    Requires dst_level | src_level.  Asserts integrality of all image
    coordinates, agreement with the closed coordinate formulas, the internal
    coefficient relations, the compatibility congruence between the two
    residues a, the index N/M of the image, and norm preservation on the
    basis.
    """
    n, m = psi.src.level, psi.dst.level
    if n % m:
        raise NotDivisibleError(f"{m} does not divide {n}; no order inclusion")
    report = Report()
    p = psi.src.p

    basis_src = hashimoto_basis(psi.src)
    basis_dst = hashimoto_basis(psi.dst)
    images = [psi.apply(e) for e in basis_src]
    coords = [list(coords_in_hashimoto(u)) for u in images]

    report.add(
        "inclusion.integer_coords",
        all(c.denominator == 1 for row in coords for c in row),
        "order basis images have integer coordinates downstairs",
    )
    report.add("inclusion.e1", images[0] == basis_dst[0], "unit maps to the unit")
    report.add("inclusion.e2", images[1] == basis_dst[1], "half-unit maps to its counterpart")

    fm = inclusion_coordinate_formulas(psi)
    report.add(
        "inclusion.formula.e3",
        coords[2] == [fm["A3"], fm["B3"], fm["C3"], fm["D3"]],
        "third basis image matches the closed form",
    )
    report.add(
        "inclusion.formula.e4",
        coords[3] == [fm["A4"], fm["B4"], fm["C4"], fm["D4"]],
        "fourth basis image matches the closed form",
    )
    report.add(
        "inclusion.b4_relation",
        fm["B4"] == -2 * fm["A4"],
        "second coefficient is minus twice the first",
    )
    a_chk = (psi.src.a * psi.beta.numerator - psi.dst.a * psi.beta.denominator) % p == 0
    report.add(
        "inclusion.a_compatibility",
        a_chk,
        "a_src * beta = a_dst mod p",
    )

    image_lat = coefficient_lattice(psi.dst, images)
    identity = unit_coords_lattice(psi.dst)
    try:
        ok_index = image_lat.rank == 4 and image_lat.index_in(identity) == n // m
    except InvalidParametersError:
        ok_index = False
    report.add(
        "inclusion.index",
        ok_index,
        f"index of the image in the level-{m} order = {n // m}",
    )
    report.add(
        "inclusion.norm_preserved",
        all(psi.apply(e).reduced_norm() == e.reduced_norm() for e in basis_src),
        "reduced norms of the basis are preserved",
    )
    return report
