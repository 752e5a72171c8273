"""Explicit 2x2 matrix models of the algebra at every place.

At each prime q (and at the infinite place) the algebra B = (-dn, p / Q) is
either split or ramified, and in both situations the generators i, j, k can
be sent to explicit 2x2 matrices over a concrete coefficient ring:

* Z or Q itself when dn = -1 is already a square (delta = 1),
* Z_q when p is a unit non-square (odd split q) with a norm-form witness,
* Z_q again via omega = sqrt(p) when p is a q-adic square,
* Z_p via a root of -dn at the prime p itself,
* Z_q[sqrt(p)] at the finitely many ramified primes dividing delta,
* Q(sqrt(p)) at the real place.

The resulting map phi is checked, never trusted: verify_splitting replays the
defining relations, the integrality of the order basis images, the shape of
the image lattice, and the discriminant of the trace form, all at a stated
q-adic accuracy: the working precision less the v_q(2p) digits the basis costs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .errors import (
    CaseMismatchError,
    InvalidParametersError,
    PrecisionLossError,
)
from .exact import Mat2, QuadRat, ZLattice4, congruence_kernel, det4, frac_to_str
from .numth import (
    _ZERO_VAL,
    INFINITE_PLACE,
    PadicNum,
    hensel_sqrt,
    is_prime,
    is_square_unit,
    solve_norm_equation,
    valuation,
)
from .quat import AlgebraParams, QuatElem, basis_digit_cost, coords_lattice, hashimoto_basis
from .report import Report

# Case labels for the five matrix models.
CASE_RATIONAL = "rational"
CASE_UNRAMIFIED_NONSQUARE = "unramified_nonsquare"
CASE_UNRAMIFIED_SQUARE = "unramified_square"
CASE_AT_P = "at_p"
CASE_RAMIFIED = "ramified"
CASE_ARCHIMEDEAN = "archimedean"

# q-adic working digits when the caller names none.
DEFAULT_PRECISION = 20

# Decimal digits of the largest modulus q**k a model at a finite place
# works modulo, so the working precision bounds the time a model takes.
MAX_MODULUS_DIGITS = 10_000


@lru_cache(maxsize=256)
def _radicand(rad: int, q: int, prec: int) -> PadicNum:
    """The radicand lifted to q-adic precision prec (shared, never mutated)."""
    return PadicNum.from_rational(rad, q, prec)


class PadicQuad:
    """Element a + b*sqrt(rad) of Z_q[sqrt(rad)] with q-adically truncated parts.

    Used at ramified primes, where the quadratic extension Z_q[sqrt(p)] is the
    natural coefficient ring.  The radicand stays a non-square unit mod q, so
    the ring is an unramified quadratic extension and zero tests reduce to
    componentwise zero tests.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a: PadicNum, b: PadicNum, rad: int):
        if a.q != b.q:
            raise InvalidParametersError("mixed residue primes in quadratic q-adic element")
        self.a = a
        self.b = b
        self.rad = rad

    @classmethod
    def root(cls, q: int, prec: int, rad: int) -> "PadicQuad":
        return cls(PadicNum.exact_zero(q), PadicNum.from_rational(1, q, prec), rad)

    def _wrap(self, other) -> "PadicQuad":
        if isinstance(other, PadicQuad):
            if other.rad != self.rad:
                raise InvalidParametersError("mixed radicands in quadratic q-adic arithmetic")
            return other
        if isinstance(other, (int, Fraction, PadicNum)):
            a = other if isinstance(other, PadicNum) else PadicNum.from_rational(
                other, self.a.q, max(self.a.prec, self.b.prec, 1)
            )
            return PadicQuad(a, PadicNum.exact_zero(self.a.q), self.rad)
        return NotImplemented

    def __add__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return o
        return PadicQuad(self.a + o.a, self.b + o.b, self.rad)

    __radd__ = __add__

    def __neg__(self) -> "PadicQuad":
        return PadicQuad(-self.a, -self.b, self.rad)

    def __sub__(self, other):
        o = self._wrap(other)
        return o if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return o
        a, b, oa, ob = self.a, self.b, o.a, o.b
        if ob.unit:
            rad = _radicand(self.rad, a.q, max(a.prec, b.prec, 1))
            return PadicQuad(a * oa + rad * b * ob, a * ob + b * oa, self.rad)
        # A right factor with a zero b part (every lifted scalar): rad*b*ob
        # and a*ob are zeros O(q^t) and O(q^s), their valuations capped at
        # the sentinel as PadicNum products cap them.  Adding such a zero
        # changes x = a*oa or y = b*oa only below its absolute precision, so
        # the sum is formed only there: the fields match the general formula.
        q = a.q
        x, y = a * oa, b * oa
        t = (0 if self.rad % q else valuation(self.rad, q)) + b.val
        if t > _ZERO_VAL and not b.unit:
            t = _ZERO_VAL
        t = min(t + ob.val, _ZERO_VAL)
        if t < x.val + x.prec:
            x = x + PadicNum(q, t, 0, 0)
        s = min(a.val + ob.val, _ZERO_VAL)
        if s < y.val + y.prec:
            y = PadicNum(q, s, 0, 0) + y
        return PadicQuad(x, y, self.rad)

    __rmul__ = __mul__

    def conj(self) -> "PadicQuad":
        return PadicQuad(self.a, -self.b, self.rad)

    def norm(self) -> PadicNum:
        rad = _radicand(self.rad, self.a.q, max(self.a.prec, self.b.prec, 1))
        return self.a * self.a - rad * self.b * self.b

    def is_zero_mod(self, m: int) -> bool:
        """Coordinatewise truncation equality with zero (used for identities)."""
        return self.a.is_zero_mod(m) and self.b.is_zero_mod(m)

    def val_at_least(self, m: int) -> bool:
        """Valuation bound in the ring of integers of Q_q(sqrt(rad)).

        At q = 2 the maximal order is strictly larger than Z_2[sqrt(rad)]
        (for rad = 5 mod 8 it contains (1 + sqrt(rad))/2), so integrality is
        decided by the trace and norm: alpha is integral iff 2a, 2b and
        a^2 - rad*b^2 all have non-negative valuation.  For odd q this
        criterion collapses to componentwise integrality.
        """
        a, b = self.a, self.b
        q = a.q
        if m:  # divide by q^m: the valuations shift, units and precisions stay
            a = PadicNum(q, a.val - m, a.unit, a.prec)
            b = PadicNum(q, b.val - m, b.unit, b.prec)
        if not ((a + a).val_at_least(0) and (b + b).val_at_least(0)):
            return False
        rad = _radicand(self.rad, q, max(a.prec, b.prec, 1))
        return (a * a - rad * b * b).val_at_least(0)

    def __repr__(self) -> str:
        return f"({self.a!r}) + ({self.b!r})*sqrt({self.rad})"

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json()}


def _exact_zero(value) -> bool:
    """Is a coefficient-ring element an exact zero, not merely zero to the
    working precision?  q-adic exact zeros carry the sentinel valuation of
    ``PadicNum.exact_zero``, which scaling by an ordinary value barely moves."""
    if isinstance(value, PadicQuad):
        return _exact_zero(value.a) and _exact_zero(value.b)
    if isinstance(value, PadicNum):
        return value.unit == 0 and value.val > _ZERO_VAL // 2
    return value == 0


def classify_place(params: AlgebraParams, place) -> str:
    """Return the matrix-model case label for the given place.

    The place is either a prime number or the string "inf".  Raises
    CaseMismatchError at q = 2 when p = 5 mod 8 and 2 does not divide delta,
    because p is then a 2-adic non-square unit and none of the implemented
    models applies.
    """
    if place == INFINITE_PLACE:
        return CASE_RATIONAL if params.delta == 1 else CASE_ARCHIMEDEAN
    q = place
    if not isinstance(q, int) or not is_prime(q):
        raise InvalidParametersError(f"place must be a prime or '{INFINITE_PLACE}': {place!r}")
    if params.delta == 1:
        return CASE_RATIONAL
    if params.delta % q == 0:
        return CASE_RAMIFIED
    if q == params.p:
        return CASE_AT_P
    if is_square_unit(params.p, q):
        return CASE_UNRAMIFIED_SQUARE
    if q % 2 == 1:
        return CASE_UNRAMIFIED_NONSQUARE
    raise CaseMismatchError(
        f"no matrix model at q=2 for p={params.p} = 5 mod 8 with odd delta={params.delta}"
    )


def at_p_root(params: AlgebraParams, k: int) -> PadicNum:
    """The root s of -dn in Z_p, to k digits, pinned by a*s = -1 (mod p).

    The pinning forces p | (a*dn - s), which the at-p models rely on.
    """
    p = params.p
    s = hensel_sqrt(Fraction(-params.dn), p, k)
    if (params.a * s.residue(1) + 1) % p != 0:
        s = -s
    return s


class OrderShape:
    """The target shape of the order's image inside the 2x2 model.

    kind is one of "triangular" (lower-left entry divisible by q^ll_val,
    everything integral), "matrix_ring" (all entries integral), or
    "ramified_maximal" (the standard maximal order [[alpha, beta],
    [q*conj(beta), conj(alpha)]] of the quaternion division ring over Q_q).
    """

    __slots__ = ("kind", "q", "ll_val")

    def __init__(self, kind: str, q: int | None, ll_val: int):
        self.kind, self.q, self.ll_val = kind, q, ll_val

    def describe(self) -> str:
        if self.kind == "triangular":
            return f"integral matrices with lower-left entry divisible by {self.q}^{self.ll_val}"
        if self.kind == "matrix_ring":
            return "integral 2x2 matrices"
        if self.kind == "ramified_maximal":
            return f"[[a, b], [{self.q}*conj(b), conj(a)]] with a, b integral in Z_{self.q}[sqrt(p)]"
        return "no integral shape at the real place"


# Order shapes the case fixes; the others follow the level's congruence at q.
# The admissible p is a q-adic square at every q | N (``hashimoto_violation``),
# so a non-square, at-p or ramified place has q ∤ N.
_FIXED_SHAPES = {CASE_ARCHIMEDEAN: "none", CASE_RAMIFIED: "ramified_maximal"}


class LocalSplitting:
    """An explicit isomorphism from the algebra into 2x2 matrices at one place.

    mat_i, mat_j are the images of i, j, and mat_k = mat_i·mat_j; data holds
    the case-specific witnesses (norm-form solutions, square roots).
    precision is the number of q-adic digits carried internally; exact
    coefficient rings (the rational and real-place models) ignore it.
    """

    __slots__ = (
        "params", "place", "case", "precision", "mat_i", "mat_j", "mat_k", "data", "shape",
        "_scalars", "_one", "_terms",
    )

    def __init__(self, params: AlgebraParams, place, case: str, precision: int,
                 mat_i: Mat2, mat_j: Mat2, data: dict):
        self.params, self.place, self.case, self.precision = params, place, case, precision
        self.mat_i, self.mat_j, self.mat_k = mat_i, mat_j, mat_i * mat_j
        self.data = data
        finite = place != INFINITE_PLACE
        ll_val = valuation(params.level, place) if finite else 0
        kind = _FIXED_SHAPES.get(case, "triangular" if ll_val else "matrix_ring")
        self.shape = OrderShape(kind, place if finite else None, ll_val)
        # Lifted scalars by (numerator, denominator) pair, the identity, and
        # for each matrix entry (ul, ur, ll, lr) the (generator index, image
        # entry) pairs of 1, i, j, k whose entry is not an exact zero.
        # Coefficient ring elements are never mutated, so sharing is safe.
        self._scalars = {}
        s1, s0 = self.scalar(1), self.scalar(0)
        self._one = Mat2(s1, s0, s0, s1)
        gens = [m.entries() for m in (self._one, self.mat_i, self.mat_j, self.mat_k)]
        self._terms = tuple(
            tuple((g, img[e]) for g, img in enumerate(gens) if not _exact_zero(img[e]))
            for e in range(4)
        )

    def scalar(self, value: Fraction):
        """Lift a rational coefficient into the splitting's coefficient ring."""
        if not isinstance(value, (int, Fraction)):
            value = Fraction(value)
        return self._scalar(value.numerator, value.denominator)

    def _scalar(self, num: int, den: int):
        """Lift num/den (den > 0, not necessarily reduced), memoised by the pair."""
        lifted = self._scalars.get((num, den))
        if lifted is None:
            lifted = self._scalars[num, den] = self._lift(num, den)
        return lifted

    def _lift(self, num: int, den: int):
        if self.case in (CASE_RATIONAL,):
            return Fraction(num, den)
        if self.case == CASE_ARCHIMEDEAN:
            return QuadRat(Fraction(num, den), 0, self.params.p)
        q = self.place
        lifted = PadicNum.from_ratio(num, den, q, self.precision)
        if num and lifted.val <= -self.precision:
            raise PrecisionLossError(
                f"denominator power of {q} in {Fraction(num, den)} exceeds working precision "
                f"{self.precision}"
            )
        if self.case == CASE_RAMIFIED:
            return PadicQuad(lifted, PadicNum.exact_zero(q), self.params.p)
        return lifted

    def one(self) -> Mat2:
        return self._one

    def embed(self, u: QuatElem) -> Mat2:
        """Image of u = x + y i + z j + t k as a 2x2 matrix."""
        if u.params is not self.params and u.params != self.params:
            raise InvalidParametersError("element belongs to a different algebra")
        return Mat2(*[self._entry(terms, u.numerators, u.denominator) for terms in self._terms])

    def _entry(self, terms, nums, den: int):
        """One image entry: the sum, in generator order, of the non-zero
        generator entries times the lifted non-zero coefficients nums/den."""
        acc = None
        for g, img in terms:
            n = nums[g]
            if n:
                term = img * self._scalar(n, den)
                acc = term if acc is None else acc + term
        return self._scalar(0, 1) if acc is None else acc

    def check_level(self) -> int:
        """q-adic level the certificates assert: precision minus λ = v_q(2p).

        The order-basis images cost λ digits (``quat.basis_digit_cost``); exact
        coefficient rings ignore the level.  No digit left raises PrecisionLossError.
        """
        exact = self.case in (CASE_RATIONAL, CASE_ARCHIMEDEAN)
        level = self.precision - (0 if exact else basis_digit_cost(self.params, self.place))
        if level < 1:
            raise PrecisionLossError(
                f"precision {self.precision} leaves no digit to assert at {self.place}, "
                f"where the order basis costs {self.precision - level}"
            )
        return level

    def entry_zero(self, value, check_level: int) -> bool:
        """Is a coefficient-ring element zero (to q^check_level where truncated)?"""
        if isinstance(value, (Fraction, QuadRat)):
            return value == 0
        if isinstance(value, (PadicNum, PadicQuad)):
            return value.is_zero_mod(check_level)
        raise InvalidParametersError(f"unexpected coefficient type {type(value).__name__}")

    def entry_val_at_least(self, value, m: int) -> bool:
        """Is the q-adic valuation of a coefficient-ring element at least m?

        For the global rational model at the real place "integral" degrades to
        "integer", which is what its order images satisfy.
        """
        if isinstance(value, Fraction):
            if value == 0:
                return True
            if isinstance(self.place, int):
                return valuation(value, self.place) >= m
            return value.denominator == 1
        if isinstance(value, (PadicNum, PadicQuad)):
            return value.val_at_least(m)
        raise InvalidParametersError(f"unexpected coefficient type {type(value).__name__}")

    def matrix_in_shape(self, mat: Mat2, check_level: int, extra_ll: int = 0) -> tuple[bool, str]:
        """Test membership of a matrix in the target order shape.

        extra_ll strengthens the lower-left divisibility requirement, which is
        how deeper-level suborders are recognized inside the same model.
        """
        shape = self.shape
        if shape.kind == "none":
            return True, "no integrality constraint at the real place"
        entries = mat.entries()
        if shape.kind == "ramified_maximal":
            a, b, c, d = entries
            for name, e in (("ul", a), ("ur", b), ("ll", c), ("lr", d)):
                if not self.entry_val_at_least(e, 0):
                    return False, f"{name} entry not integral"
            if not (d - a.conj()).is_zero_mod(check_level):
                return False, "lower-right entry is not the conjugate of the upper-left"
            if not (c - b.conj() * self.scalar(Fraction(shape.q))).is_zero_mod(check_level):
                return False, f"lower-left entry is not {shape.q} times conj(upper-right)"
            return True, ""
        for name, e in zip(("ul", "ur", "ll", "lr"), entries):
            if not self.entry_val_at_least(e, 0):
                return False, f"{name} entry not integral"
        need = shape.ll_val + extra_ll
        if need and not self.entry_val_at_least(mat.c, need):
            return False, f"lower-left entry valuation below {need}"
        return True, ""

    def congruence_lattice(self, entry: int, m: int) -> ZLattice4:
        """Order-basis coordinates whose image has entry 1 (upper-right) or 2
        (lower-left) ≡ 0 mod q^m, solved from the residues of the basis images
        (a rational model's entries must be q-integral) by generic lattice
        machinery; no degeneracy or chain formula enters."""
        q = self.place
        mod = q**m
        residues = []
        for e in hashimoto_basis(self.params):
            v = self._entry(self._terms[entry], e.numerators, e.denominator)
            if isinstance(v, PadicNum):
                residues.append(v.residue(m))
            elif v.denominator % q == 0:
                raise PrecisionLossError(f"{v} is not {q}-integral")
            else:
                residues.append(v.numerator * pow(v.denominator, -1, mod) % mod)
        return coords_lattice(self.params, congruence_kernel([residues], mod))

    def to_json(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return frac_to_str(v)
            if isinstance(v, (PadicNum, QuadRat, PadicQuad)):
                return v.to_json()
            return v

        return {
            "place": self.place if self.place == INFINITE_PLACE else int(self.place),
            "case": self.case,
            "precision": self.precision,
            "shape": self.shape.describe(),
            "i": [enc(e) for e in self.mat_i.entries()],
            "j": [enc(e) for e in self.mat_j.entries()],
            "k": [enc(e) for e in self.mat_k.entries()],
            "data": {k: enc(v) for k, v in self.data.items()},
        }


def check_modulus(q: int, k: int, setting: str, value: int) -> None:
    """Refuse a modulus q**k of more than MAX_MODULUS_DIGITS decimal digits,
    naming the setting (and its value) that asked for it.

    With b = q.bit_length(), 2**(k*(b-1)) <= q**k < 2**(k*b), and
    8**d < 10**d < 2**(10*d/3): q**k is formed only between those bounds.
    """
    bits = k * q.bit_length()
    if bits <= 3 * MAX_MODULUS_DIGITS:
        return
    if 3 * (bits - k) < 10 * MAX_MODULUS_DIGITS and q**k < 10**MAX_MODULUS_DIGITS:
        return
    raise InvalidParametersError(
        f"{setting} {value} at {q}: the modulus {q}^{k} has more than "
        f"{MAX_MODULUS_DIGITS} decimal digits; lower the {setting}"
    )


def build_splitting(
    params: AlgebraParams,
    place,
    k: int = DEFAULT_PRECISION,
    _flip_at_p_root: bool = False,
) -> LocalSplitting:
    """Construct the matrix model of the algebra at one place.

    k is the number of q-adic digits carried by truncated coefficients; at a
    finite place q**k may have at most MAX_MODULUS_DIGITS decimal digits.  The
    hidden _flip_at_p_root switch deliberately picks the wrong root of -dn at
    the prime p; it exists so the verification layer can prove it would catch
    that mistake.
    """
    if k < 1:
        raise InvalidParametersError(f"precision must be positive: {k}")
    case = classify_place(params, place)
    dn = params.dn
    p = params.p

    if case == CASE_RATIONAL:
        fr = Fraction
        mi = Mat2(fr(0), fr(-1), fr(params.level), fr(0))
        mj = Mat2(fr(-1), fr(0), fr(0), fr(1))
        return LocalSplitting(params, place, case, k, mi, mj, {})

    if case == CASE_ARCHIMEDEAN:
        d = Fraction(p)
        zero = QuadRat(Fraction(0), Fraction(0), d)
        one = QuadRat(Fraction(1), Fraction(0), d)
        theta = QuadRat(Fraction(0), Fraction(1), d)
        mi = Mat2(zero, one, QuadRat(Fraction(-dn), Fraction(0), d), zero)
        mj = Mat2(theta, zero, zero, -theta)
        return LocalSplitting(params, place, case, k, mi, mj, {})

    q = place
    check_modulus(q, k, "precision", k)

    def pn(value) -> PadicNum:
        return PadicNum.from_rational(value, q, k)

    if case == CASE_UNRAMIFIED_SQUARE:
        omega = hensel_sqrt(p, q, k)
        z0 = PadicNum.exact_zero(q)
        mi = Mat2(z0, pn(1), pn(-dn), z0)
        mj = Mat2(-omega, z0, z0, omega)
        return LocalSplitting(params, place, case, k, mi, mj, {"omega": omega})

    if case == CASE_UNRAMIFIED_NONSQUARE:
        x, y = solve_norm_equation(p, Fraction(-dn), q, k)
        mi = Mat2(x, -pn(p) * y, y, -x)
        mj = Mat2(PadicNum.exact_zero(q), pn(p), pn(1), PadicNum.exact_zero(q))
        return LocalSplitting(params, place, case, k, mi, mj, {"x": x, "y": y})

    if case == CASE_AT_P:
        s = at_p_root(params, k)
        if _flip_at_p_root:
            s = -s
        z0 = PadicNum.exact_zero(p)
        mi = Mat2(-s, z0, z0, s)
        mj = Mat2(z0, pn(1), pn(p), z0)
        return LocalSplitting(params, place, case, k, mi, mj, {"s": s})

    # Ramified place q | delta: coefficients live in Z_q[sqrt(p)].
    x, y = solve_norm_equation(p, Fraction(-dn, q), q, k)
    z0 = PadicNum.exact_zero(q)
    pq = lambda u, v: PadicQuad(u, v, p)
    zero = pq(z0, z0)
    theta = PadicQuad.root(q, k, p)
    alpha = pq(x, -y)
    qn = pn(q)
    mi = Mat2(zero, alpha, pq(qn * x, qn * y), zero)
    mj = Mat2(-theta, zero, zero, theta)
    return LocalSplitting(params, place, case, k, mi, mj, {"x": x, "y": y})


# The permutations of 0..3 in lexicographic order, each with its sign.
_S4 = tuple(
    (perm, -1 if sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :]) % 2 else 1)
    for perm in permutations(range(4))
)


def _det4(rows):
    """Determinant of a 4x4 matrix over any commutative coefficient ring.

    ``exact.det4``'s Laplace expansion, except over Z_q[sqrt(rad)], where it is
    the 24-term permutation sum: there the precision is tracked per component,
    and a Laplace minor can lose a digit that a product in the permutation sum
    keeps.  A term with an exact-zero factor is an exact zero, which leaves a
    sum unchanged in value and precision, so such terms are skipped after the
    first one.
    """
    if not isinstance(rows[0][0], PadicQuad):
        return det4(rows)
    live = [[not _exact_zero(x) for x in row] for row in rows]
    acc = None
    for perm, sign in _S4:
        if acc is not None and not (
            live[0][perm[0]] and live[1][perm[1]] and live[2][perm[2]] and live[3][perm[3]]
        ):
            continue
        term = rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]] * rows[3][perm[3]]
        if sign < 0:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def verify_splitting(splitting: LocalSplitting) -> Report:
    """Replay every checkable property of a matrix model, to ``s.check_level()``."""
    s = splitting
    params = s.params
    report = Report()
    check_level = s.check_level()

    def is_zero_mat(mat: Mat2) -> bool:
        return all(s.entry_zero(e, check_level) for e in mat.entries())

    dn = params.dn
    p = params.p
    one = s.one()

    report.add(
        "relations.i_square",
        is_zero_mat(s.mat_i * s.mat_i + one * s.scalar(Fraction(dn))),
        f"i^2 = {-dn}",
    )
    report.add(
        "relations.j_square",
        is_zero_mat(s.mat_j * s.mat_j - one * s.scalar(Fraction(p))),
        f"j^2 = {p}",
    )
    report.add(
        "relations.anticommute",
        is_zero_mat(s.mat_i * s.mat_j + s.mat_j * s.mat_i),
        "ij + ji = 0",
    )
    report.add(
        "relations.k_matches",
        is_zero_mat(s.mat_k - s.mat_i * s.mat_j),
        "k = ij",
    )

    basis = hashimoto_basis(params)
    images = [s.embed(e) for e in basis]
    if s.shape.kind != "none":
        for idx, img in enumerate(images, start=1):
            ok, why = s.matrix_in_shape(img, check_level)
            report.add(f"integrality.e{idx}", ok, why or "image lies in the local order")

    if s.case == CASE_AT_P:
        root = s.data["s"]
        diff = PadicNum.from_rational(params.a * dn, p, s.precision) - root
        report.add(
            "at_p.root_divisibility",
            diff.val_at_least(1),
            f"a*dn - s = {params.a * dn} - sqrt(-dn) divisible by {p}",
        )

    # Trace form of the order basis, with traces read off the matrix images so
    # the check exercises the map: det equals -(dn)^2.  tr(AB) = Σ a_ij·b_ji
    # summed as the trace of the full product would be; the form is symmetric.
    gram = [[None] * 4 for _ in range(4)]
    for r, a in enumerate(images):
        for c in range(r, 4):
            b = images[c]
            gram[r][c] = gram[c][r] = (a.a * b.a + a.b * b.c) + (a.c * b.b + a.d * b.d)
    det = _det4(gram)
    target = s.scalar(Fraction(-(dn**2)))
    report.add(
        "discriminant.trace_form",
        s.entry_zero(det - target, check_level),
        f"det(trace form) = -({dn})^2",
    )

    if s.case == CASE_RATIONAL and s.place != INFINITE_PLACE:
        flat = [list(img.entries()) for img in images]
        image_lat = ZLattice4.from_rows(flat, ambient=("m2q", params.level))
        n_level = params.level
        target_lat = ZLattice4.from_rows(
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, n_level, 0], [0, 0, 0, 1]],
            ambient=("m2q", params.level),
        )
        report.add(
            "rational.image_lattice",
            image_lat == target_lat,
            f"order image = integral matrices with lower-left divisible by {n_level}",
        )

    return report

