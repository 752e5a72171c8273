"""Rational quaternion algebras B = (-ΔN, p | Q) and their Eichler orders.

The algebra attached to a squarefree discriminant Δ (even number of prime
factors), a coprime level N and an admissible prime p has

    i² = -ΔN,   j² = p,   k = ij = -ji,   k² = pΔN.

For Δ > 1 the order R(N) has the basis

    e₁ = 1,  e₂ = (1+j)/2,  e₃ = (i+k)/2,  e₄ = (aΔN·j + k)/p

with a²ΔN ≡ -1 (mod p); the degenerate model Δ = 1 uses p = 1, a = 0 and
e₄ = N·j + k.

Elements are integer-scaled: x + y·i + z·j + t·k is stored as four int
numerators over one positive common denominator, reduced by their gcd, so
the representation is canonical.  Sums, products, conjugates, norms and
traces run in integer arithmetic and divide once; ``numerators`` and
``denominator`` read the stored ints.  Every order-basis denominator divides
2p, so the common denominator stays small.
Order-basis coordinates are integer-scaled the same way (``scaled_coords``);
whether a span is a ring is tested on the quaternion products of its
elements (``span_is_closed``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import numth
from .errors import InvalidParametersError
from .exact import ZLattice4, as_rational, reduced_discriminant


def check_admissible_p(delta: int, level: int, p: int) -> None:
    """Raise InvalidParametersError naming the first condition p fails for (Δ, N).

    Δ and N are validated first; the conditions are those of
    ``numth.hashimoto_violation``.
    """
    numth._validate_delta_level(delta, level)
    why = numth.hashimoto_violation(delta, level, p)
    if why is not None:
        raise InvalidParametersError(why)


class AlgebraParams:
    """Validated (Δ, N, p, a) tuple identifying the algebra and its order.

    Immutable; equal and hashed by (Δ, N, p, a), so instances are cache keys.
    """

    __slots__ = ("delta", "level", "p", "a")

    def __init__(self, delta: int, level: int, p: int, a: int):
        for name, value in zip(self.__slots__, (delta, level, p, a)):
            object.__setattr__(self, name, value)
        self._validate()

    def _validate(self):
        check_admissible_p(self.delta, self.level, self.p)
        if self.delta == 1:
            if self.a != 0:
                raise InvalidParametersError("the split algebra uses p = 1, a = 0")
            return
        p = self.p
        if not 0 <= self.a < p:
            raise InvalidParametersError("a must be reduced into [0, p)")
        if (self.a * self.a * self.delta * self.level + 1) % p:
            raise InvalidParametersError("a²ΔN ≡ -1 (mod p) fails")

    def _key(self) -> tuple[int, int, int, int]:
        return (self.delta, self.level, self.p, self.a)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not AlgebraParams:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"AlgebraParams(delta={self.delta}, level={self.level}, p={self.p}, a={self.a})"

    @classmethod
    def create(cls, delta: int, level: int, *, p: int | None = None) -> "AlgebraParams":
        """The algebra at p (default: the smallest admissible p) with its smallest a.

        p is resolved first; each (Δ, N, p) then yields one shared instance,
        so the per-algebra caches below hit on identity.
        """
        if p is None:
            p = numth.find_hashimoto_prime(delta, level)
        return _params_at(delta, level, p)

    @property
    def dn(self) -> int:
        return self.delta * self.level


@lru_cache(maxsize=1024, typed=True)
def _params_at(delta: int, level: int, p: int) -> AlgebraParams:
    """The validated algebra at an explicit p (a failed check raises and is not cached)."""
    check_admissible_p(delta, level, p)
    return AlgebraParams(delta, level, p, numth.find_a(delta, level, p))


class QuatElem:
    """Element x + y·i + z·j + t·k with exact rational coefficients.

    Stored integer-scaled: four int numerators over one positive common
    denominator, reduced so the five share no factor.  The representation is
    canonical, so equality and hashing compare the stored ints.
    """

    __slots__ = ("params", "_num", "_den")

    def __init__(self, params: AlgebraParams, x, y, z, t):
        self.params = params
        if type(x) is int and type(y) is int and type(z) is int and type(t) is int:
            self._num = (x, y, z, t)
            self._den = 1
            return
        fs = (Fraction(x), Fraction(y), Fraction(z), Fraction(t))
        den = lcm(*[f.denominator for f in fs])
        self._num = tuple(f.numerator * (den // f.denominator) for f in fs)
        self._den = den

    @classmethod
    def _scaled(cls, params: AlgebraParams, a: int, b: int, c: int, d: int, den: int) -> "QuatElem":
        """(a + b·i + c·j + d·k)/den for den > 0, reduced by the common gcd."""
        g = gcd(a, b, c, d, den)
        if g != 1:
            a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
        out = object.__new__(cls)
        out.params = params
        out._num = (a, b, c, d)
        out._den = den
        return out

    @property
    def numerators(self) -> tuple[int, int, int, int]:
        """The four integer numerators, over ``denominator``."""
        return self._num

    @property
    def denominator(self) -> int:
        return self._den

    def _check(self, other: "QuatElem"):
        if self.params is not other.params and self.params != other.params:
            raise InvalidParametersError("elements of different algebras")

    def __add__(self, other):
        a, b, c, d = self._num
        den = self._den
        if isinstance(other, QuatElem):
            self._check(other)
            a2, b2, c2, d2 = other._num
            den2 = other._den
            if den == den2:
                return QuatElem._scaled(self.params, a + a2, b + b2, c + c2, d + d2, den)
            return QuatElem._scaled(
                self.params,
                a * den2 + a2 * den, b * den2 + b2 * den,
                c * den2 + c2 * den, d * den2 + d2 * den,
                den * den2,
            )
        s = as_rational(other)
        sd = s.denominator
        return QuatElem._scaled(
            self.params, a * sd + s.numerator * den, b * sd, c * sd, d * sd, den * sd
        )

    __radd__ = __add__

    def __neg__(self):
        a, b, c, d = self._num
        return QuatElem._scaled(self.params, -a, -b, -c, -d, self._den)

    def __mul__(self, other):
        a1, b1, c1, d1 = self._num
        if not isinstance(other, QuatElem):
            s = as_rational(other)
            n = s.numerator
            return QuatElem._scaled(
                self.params, a1 * n, b1 * n, c1 * n, d1 * n, self._den * s.denominator
            )
        self._check(other)
        params = self.params
        dn, p = params.dn, params.p
        a2, b2, c2, d2 = other._num
        return QuatElem._scaled(
            params,
            a1 * a2 - dn * b1 * b2 + p * c1 * c2 + p * dn * d1 * d2,
            a1 * b2 + b1 * a2 - p * c1 * d2 + p * d1 * c2,
            a1 * c2 + c1 * a2 - dn * b1 * d2 + dn * d1 * b2,
            a1 * d2 + d1 * a2 + b1 * c2 - c1 * b2,
            self._den * other._den,
        )

    def conj(self) -> "QuatElem":
        a, b, c, d = self._num
        return QuatElem._scaled(self.params, a, -b, -c, -d, self._den)

    def reduced_norm(self) -> Fraction:
        dn, p = self.params.dn, self.params.p
        a, b, c, d = self._num
        return Fraction(a * a + dn * b * b - p * c * c - p * dn * d * d, self._den**2)

    def reduced_trace(self) -> Fraction:
        return Fraction(2 * self._num[0], self._den)

    def __eq__(self, other):
        return (
            isinstance(other, QuatElem)
            and self.params == other.params
            and self._num == other._num
            and self._den == other._den
        )

    def __hash__(self):
        return hash((self.params, self._num, self._den))

    def __repr__(self):
        return f"QuatElem({self})"

    def __str__(self):
        return pretty(self)


def one(params: AlgebraParams) -> QuatElem:
    return QuatElem(params, 1, 0, 0, 0)


def gens(params: AlgebraParams) -> tuple[QuatElem, QuatElem, QuatElem]:
    """The generators i, j, k."""
    return (
        QuatElem(params, 0, 1, 0, 0),
        QuatElem(params, 0, 0, 1, 0),
        QuatElem(params, 0, 0, 0, 1),
    )


def pretty(u: QuatElem) -> str:
    """Common-denominator rendering, e.g. (525j+k)/13 or (-5+i-5j+k)/2."""
    den = u.denominator
    nums = u.numerators
    if not any(nums):
        return "0"
    parts = []
    for n, sym in zip(nums, ("", "i", "j", "k")):
        if n == 0:
            continue
        if sym and abs(n) == 1:
            text = sym
        else:
            text = f"{abs(n)}{sym}"
        parts.append(("-" if n < 0 else "+") + text)
    body = "".join(parts)
    body = body[1:] if body[0] == "+" else body
    if den == 1:
        return body
    if len(parts) > 1:
        return f"({body})/{den}"
    return f"{body}/{den}"


@lru_cache(maxsize=None)
def hashimoto_basis(params: AlgebraParams) -> tuple[QuatElem, QuatElem, QuatElem, QuatElem]:
    """The order basis (e₁, e₂, e₃, e₄) of R(N)."""
    half = Fraction(1, 2)
    e1 = QuatElem(params, 1, 0, 0, 0)
    e2 = QuatElem(params, half, 0, half, 0)
    e3 = QuatElem(params, 0, half, 0, half)
    if params.delta == 1:
        e4 = QuatElem(params, 0, 0, params.level, 1)
    else:
        e4 = QuatElem(params, 0, 0, Fraction(params.a * params.dn, params.p), Fraction(1, params.p))
    return (e1, e2, e3, e4)


def basis_digit_cost(params: AlgebraParams, q: int) -> int:
    """λ = v_q(2p): the q-adic digits an order-basis image costs, its denominator dividing 2p."""
    return numth.valuation(2 * params.p, q)


def scaled_coords(u: QuatElem) -> tuple[tuple[int, int, int, int], int]:
    """Coordinates (c₁..c₄) of u over the order basis as (int numerators, denominator).

    The denominator is u's own and is not reduced against the numerators,
    so a coordinate is integral exactly when its numerator is divisible by it.
    """
    params = u.params
    x, y, z, t = u.numerators
    w = t - y
    if params.delta == 1:
        m, c4 = params.level, w
    else:
        m, c4 = params.a * params.dn, params.p * w
    return (x - z + m * w, 2 * z - 2 * m * w, 2 * y, c4), u.denominator


def coords_in_hashimoto(u: QuatElem) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Coefficients (c₁..c₄) of u over the order basis; always solvable."""
    nums, den = scaled_coords(u)
    return tuple(Fraction(n, den) for n in nums)


def span_is_closed(lattice: ZLattice4, elems) -> bool:
    """Whether the span of elems, given as lattice in order-basis
    coordinates, is closed under multiplication: every product u·v lies in
    it.  1·v = v·1 = v, so an element equal to 1 is left out."""
    factors = [u for u in elems if (u.numerators, u.denominator) != ((1, 0, 0, 0), 1)]
    return all(lattice.contains_scaled(*scaled_coords(u * v)) for u in factors for v in factors)


def element_from_coords(params: AlgebraParams, coords) -> QuatElem:
    e = hashimoto_basis(params)
    out = QuatElem(params, 0, 0, 0, 0)
    for c, basis_elem in zip(coords, e):
        out = out + basis_elem * c
    return out


@lru_cache(maxsize=1024)
def order_lattice(params: AlgebraParams) -> ZLattice4:
    """R(N) as a lattice in (1, i, j, k)-coordinates."""
    rows = [(e.numerators, e.denominator) for e in hashimoto_basis(params)]
    return ZLattice4.from_scaled_rows(rows, ambient=("quat", params.delta, params.level, params.p))


def _coords_ambient(params: AlgebraParams) -> tuple:
    return ("coords", params.delta, params.level, params.p)


def coords_lattice(params: AlgebraParams, hnf_rows) -> ZLattice4:
    """Lattice spanned by integer coordinate vectors over the order basis of
    R(N), given in HNF (a ``congruence_kernel``, unit vectors)."""
    return ZLattice4._from_hnf(1, hnf_rows, _coords_ambient(params))


@lru_cache(maxsize=1024)
def unit_coords_lattice(params: AlgebraParams) -> ZLattice4:
    """R(N) itself in its own coordinates: the identity lattice Z^4."""
    return coords_lattice(params, [[int(i == j) for j in range(4)] for i in range(4)])


def coefficient_lattice(params: AlgebraParams, elems) -> ZLattice4:
    """Lattice of order-basis coordinate vectors of the given elements."""
    return ZLattice4.from_scaled_rows(
        [scaled_coords(e) for e in elems], ambient=_coords_ambient(params)
    )


def phi_membership(u: QuatElem, order: ZLattice4 | None = None) -> bool:
    """Whether u lies in the norm-one group of the order (default R(N))."""
    lattice = order if order is not None else order_lattice(u.params)
    return lattice.contains_scaled(u.numerators, u.denominator) and u.reduced_norm() == 1


def order_discriminant(params: AlgebraParams) -> int:
    return reduced_discriminant(hashimoto_basis(params))
