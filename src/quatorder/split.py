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
q-adic level: the working precision k less the λ = v_q(2p) digits the basis
costs.  A q-adic model prints its ``PadicNum`` generators but certifies on
their exact residues mod q^k (int pairs a + b√p at a ramified q); a test
deeper than the stated level raises PrecisionLossError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    CaseMismatchError,
    InvalidParametersError,
    PrecisionLossError,
)
from .exact import Mat2, QuadRat, ZLattice4, as_rational, congruence_kernel, det4, frac_to_str
from .numth import (
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


class PadicQuad:
    """Element a + b*sqrt(rad) of Z_q[sqrt(rad)] with q-adically truncated parts:
    the printed generators of a model at a ramified q.  Arithmetic takes only
    PadicQuad operands of the same radicand, as PadicNum arithmetic takes only
    PadicNums.
    """

    __slots__ = ("a", "b", "rad")

    def __init__(self, a: PadicNum, b: PadicNum, rad: int):
        if a.q != b.q:
            raise InvalidParametersError("mixed residue primes in quadratic q-adic element")
        self.a = a
        self.b = b
        self.rad = rad

    def _wrap(self, other) -> "PadicQuad":
        if not isinstance(other, PadicQuad):
            return NotImplemented
        if other.rad != self.rad:
            raise InvalidParametersError("mixed radicands in quadratic q-adic arithmetic")
        return other

    def __add__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return o
        return PadicQuad(self.a + o.a, self.b + o.b, self.rad)

    def __neg__(self) -> "PadicQuad":
        return PadicQuad(-self.a, -self.b, self.rad)

    def __mul__(self, other):
        o = self._wrap(other)
        if o is NotImplemented:
            return o
        a, b = self.a, self.b
        rad = PadicNum.from_rational(self.rad, a.q, max(a.prec, b.prec, 1))
        return PadicQuad(a * o.a + rad * b * o.b, a * o.b + b * o.a, self.rad)

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json()}


class QuadResidue:
    """(a + b*sqrt(rad))/den modulo q^k, for ring = (q, q^k, rad): the
    coefficients a ramified model certifies on.  den is a power of q that
    shares no factor with both a and b, which are reduced mod q^k*den; den = 2
    arises at q = 2, where the maximal order holds (1 + sqrt(rad))/2.
    """

    __slots__ = ("a", "b", "den", "ring")

    def __init__(self, a: int, b: int, den: int, ring: tuple):
        q, mod, _ = ring
        while den > 1 and not (a % q or b % q):
            a, b, den = a // q, b // q, den // q
        self.a, self.b, self.den, self.ring = a % (mod * den), b % (mod * den), den, ring

    def __add__(self, other):
        den = max(self.den, other.den)
        s, t = den // self.den, den // other.den
        return QuadResidue(self.a * s + other.a * t, self.b * s + other.b * t, den, self.ring)

    def __neg__(self) -> "QuadResidue":
        return QuadResidue(-self.a, -self.b, self.den, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b, c, d, ring = self.a, self.b, other.a, other.b, self.ring
        return QuadResidue(a * c + ring[2] * b * d, a * d + b * c, self.den * other.den, ring)

    def conj(self) -> "QuadResidue":
        return QuadResidue(self.a, -self.b, self.den, self.ring)


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

    generators are the images of i and j as built, which to_json prints;
    the certificates run on mat_i, mat_j and mat_k = mat_i·mat_j, and data
    holds the case-specific witnesses (norm-form solutions, square roots).
    The case fixes the coefficient ring.  exact marks the rational model
    (an int when integral, a Fraction otherwise) and the real-place model:
    there zero means ``== 0`` and precision is ignored.  A q-adic model's
    matrices are its generators' residues mod q^k, ints or ``QuadResidue``
    pairs, and an element with denominator q^v·d' has entries num/d' mod q^k
    over q^v, known to check_level() when v <= λ, as for the order, whose
    denominators divide 2p; a larger v is refused.
    """

    __slots__ = (
        "params", "place", "case", "precision", "generators", "mat_i", "mat_j", "mat_k",
        "data", "shape", "exact", "_level", "_ring", "_dens", "_scalars", "_one", "_terms",
    )

    def __init__(self, params: AlgebraParams, place, case: str, precision: int,
                 gen_i: Mat2, gen_j: Mat2, data: dict):
        self.params, self.place, self.case, self.precision = params, place, case, precision
        self.generators = (gen_i, gen_j)
        self.data = data
        self.exact = exact = case in (CASE_RATIONAL, CASE_ARCHIMEDEAN)
        finite = place != INFINITE_PLACE
        ll_val = valuation(params.level, place) if finite else 0
        kind = _FIXED_SHAPES.get(case, "triangular" if ll_val else "matrix_ring")
        self.shape = OrderShape(kind, place if finite else None, ll_val)
        self._level = precision - (0 if exact else basis_digit_cost(params, place))
        pair = case == CASE_RAMIFIED
        mat_i, mat_j = gen_i, gen_j
        if not exact:
            self._ring = ring = (place, place**precision, params.p)
            self._dens = {}
            def res(e, k=precision):
                if pair:
                    return QuadResidue(e.a.residue(k), e.b.residue(k), 1, ring)
                return e.residue(k)

            mat_i, mat_j = (Mat2(*map(res, g.entries())) for g in (gen_i, gen_j))
        self.mat_i, self.mat_j, self.mat_k = mat_i, mat_j, mat_i * mat_j
        # Lifted scalars by (numerator, denominator) pair, the identity, and
        # for each matrix entry (ul, ur, ll, lr) the index and the non-zero
        # entry (its int parts on a ramified model) of each of 1, i, j, k.
        self._scalars = {}
        s1, s0 = self.scalar(1), self.scalar(0)
        self._one = Mat2(s1, s0, s0, s1)
        gens = [m.entries() for m in (self._one, mat_i, mat_j, self.mat_k)]
        self._terms = tuple(
            tuple(
                (g, img[e].a, img[e].b) if pair else (g, img[e])
                for g, img in enumerate(gens)
                if (img[e].a or img[e].b if pair else img[e] != 0)
            )
            for e in range(4)
        )

    def scalar(self, value, den: int = 1):
        """Lift the rational value/den (den > 0) into the coefficient ring,
        memoised by its (numerator, denominator) pair, which need not be reduced."""
        value = as_rational(value)
        key = (value.numerator, value.denominator * den)
        lifted = self._scalars.get(key)
        if lifted is None:
            lifted = self._scalars[key] = self._lift(*key)
        return lifted

    def _lift(self, num: int, den: int, root: int = 0):
        """(num + root·sqrt(p))/den in the coefficient ring (root is 0 but on a
        ramified model).  At a finite place, with den = q^v·d' and q ∤ d', it
        is num/d' mod q^k over q^v, known to k - v digits: v > λ is refused."""
        case = self.case
        if case == CASE_RATIONAL:
            return num // den if num % den == 0 else Fraction(num, den)
        if case == CASE_ARCHIMEDEAN:
            return QuadRat._scaled(1, 0, den, self.params.p) * num
        q, mod, _ = self._ring
        split = self._dens.get(den)
        if split is None:
            qv = gcd(den, mod)
            if qv == mod or qv > q ** (self.precision - self._level):
                raise PrecisionLossError(
                    f"the denominator {den} leaves {self.precision - valuation(den, q)} of the "
                    f"{self.precision} working {q}-adic digits, fewer than {max(self._level, 1)}"
                )
            split = self._dens[den] = (qv, pow(den // qv, -1, mod))
        qv, inv = split
        if case == CASE_RAMIFIED:
            return QuadResidue(num * inv, root * inv, qv, self._ring)
        num = num * inv % mod
        return num // qv if num % qv == 0 else Fraction(num, qv)

    def one(self) -> Mat2:
        return self._one

    def embed(self, u: QuatElem) -> Mat2:
        """Image of u = x + y i + z j + t k as a 2x2 matrix."""
        if u.params is not self.params and u.params != self.params:
            raise InvalidParametersError("element belongs to a different algebra")
        return Mat2(*[self._entry(terms, u.numerators, u.denominator) for terms in self._terms])

    def _entry(self, terms, nums, den: int):
        """One image entry: the integer combination, in generator order, of
        the non-zero generator entries with the numerators nums, lifted over
        den once."""
        if self.case == CASE_RAMIFIED:
            a = sum(nums[g] * ra for g, ra, _ in terms)
            return self._lift(a, den, sum(nums[g] * rb for g, _, rb in terms))
        total = 0
        for g, img in terms:
            total = total + nums[g] * img
        return self._lift(total, den)

    def check_level(self) -> int:
        """q-adic level the certificates assert: precision minus λ = v_q(2p).

        The order-basis images cost λ digits (``quat.basis_digit_cost``); exact
        coefficient rings ignore the level.  No digit left raises PrecisionLossError.
        """
        if self._level < 1:
            raise PrecisionLossError(
                f"precision {self.precision} leaves no digit to assert at {self.place}, "
                f"where the order basis costs {self.precision - self._level}"
            )
        return self._level

    def _modulus(self, m: int) -> int:
        """q**m for a test to level m; a q-adic model refuses one deeper than
        the level it asserts."""
        if m > self._level and not self.exact:
            raise PrecisionLossError(
                f"a test at {self.place}-adic level {m} is deeper than level {self._level}, "
                f"which precision {self.precision} asserts at {self.place}"
            )
        return self.place**m

    def entry_zero(self, value, check_level: int) -> bool:
        """Is a coefficient-ring element zero (to q^check_level where truncated)?"""
        if self.exact:
            return value == 0
        qm = self._modulus(check_level)
        if self.case == CASE_RAMIFIED:
            qm *= value.den
            return not (value.a % qm or value.b % qm)
        return value % qm == 0

    def entry_val_at_least(self, value, m: int) -> bool:
        """Is the q-adic valuation of a coefficient-ring element at least m?

        For the global rational model at the real place "integral" degrades to
        "integer", which is what its order images satisfy.  At a ramified q it
        is whether value/q^m lies in the maximal order, which holds
        (1 + sqrt(p))/2 at q = 2: whether its trace and norm are integral.
        """
        if self.case == CASE_ARCHIMEDEAN:
            raise InvalidParametersError("no q-adic valuation at the real place")
        if self.exact:
            if value == 0:
                return True
            if self.place != INFINITE_PLACE:
                return valuation(value, self.place) >= m
            return value.denominator == 1
        qm = self._modulus(m)
        if self.case == CASE_RAMIFIED:
            a, b, qm = value.a, value.b, qm * value.den
            return not (2 * a % qm or 2 * b % qm or (a * a - self.params.p * b * b) % (qm * qm))
        return value % qm == 0

    def matrix_in_shape(self, mat: Mat2, check_level: int, extra_ll: int = 0) -> tuple[bool, str]:
        """Test membership of a matrix in the target order shape.

        extra_ll strengthens the lower-left divisibility requirement, which is
        how deeper-level suborders are recognized inside the same model.
        """
        shape = self.shape
        if shape.kind == "none":
            return True, "no integrality constraint at the real place"
        entries = mat.entries()
        for name, e in zip(("ul", "ur", "ll", "lr"), entries):
            if not self.entry_val_at_least(e, 0):
                return False, f"{name} entry not integral"
        if shape.kind == "ramified_maximal":
            a, b, c, d = entries
            if not self.entry_zero(d - a.conj(), check_level):
                return False, "lower-right entry is not the conjugate of the upper-left"
            if not self.entry_zero(c - b.conj() * self.scalar(shape.q), check_level):
                return False, f"lower-left entry is not {shape.q} times conj(upper-right)"
            return True, ""
        need = shape.ll_val + extra_ll
        if need and not self.entry_val_at_least(mat.c, need):
            return False, f"lower-left entry valuation below {need}"
        return True, ""

    def congruence_lattice(self, entry: int, m: int) -> ZLattice4:
        """Order-basis coordinates whose image has entry 1 (upper-right) or 2
        (lower-left) ≡ 0 mod q^m, solved from the residues of the basis images
        (each entry must be q-integral) by generic lattice machinery; no
        degeneracy or chain formula enters."""
        q = self.place
        mod = self._modulus(m)
        residues = []
        for e in hashimoto_basis(self.params):
            v = self._entry(self._terms[entry], e.numerators, e.denominator)
            if v.denominator % q == 0:
                raise PrecisionLossError(f"{v} is not {q}-integral")
            residues.append(v.numerator * pow(v.denominator, -1, mod) % mod)
        return coords_lattice(self.params, congruence_kernel([residues], mod))

    def to_json(self) -> dict:
        enc = frac_to_str if self.case == CASE_RATIONAL else lambda v: v.to_json()
        gen_i, gen_j = self.generators
        return {
            "place": self.place if self.place == INFINITE_PLACE else int(self.place),
            "case": self.case,
            "precision": self.precision,
            "shape": self.shape.describe(),
            "i": [enc(e) for e in gen_i.entries()],
            "j": [enc(e) for e in gen_j.entries()],
            "k": [enc(e) for e in (gen_i * gen_j).entries()],
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
        mi = Mat2(0, -1, params.level, 0)
        mj = Mat2(-1, 0, 0, 1)
        return LocalSplitting(params, place, case, k, mi, mj, {})

    if case == CASE_ARCHIMEDEAN:
        zero, one, theta = (QuadRat(a, b, p) for a, b in ((0, 0), (1, 0), (0, 1)))
        mi = Mat2(zero, one, QuadRat(-dn, 0, p), zero)
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
    theta = pq(z0, pn(1))
    alpha = pq(x, -y)
    qn = pn(q)
    mi = Mat2(zero, alpha, pq(qn * x, qn * y), zero)
    mj = Mat2(-theta, zero, zero, theta)
    return LocalSplitting(params, place, case, k, mi, mj, {"x": x, "y": y})


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
        is_zero_mat(s.mat_i * s.mat_i + one * s.scalar(dn)),
        f"i^2 = {-dn}",
    )
    report.add(
        "relations.j_square",
        is_zero_mat(s.mat_j * s.mat_j - one * s.scalar(p)),
        f"j^2 = {p}",
    )
    ij = s.mat_i * s.mat_j
    report.add(
        "relations.anticommute",
        is_zero_mat(ij + s.mat_j * s.mat_i),
        "ij + ji = 0",
    )
    report.add(
        "relations.k_matches",
        is_zero_mat(s.mat_k - ij),
        "k = ij",
    )

    basis = hashimoto_basis(params)
    images = [s.embed(e) for e in basis]
    if s.shape.kind != "none":
        for idx, img in enumerate(images, start=1):
            ok, why = s.matrix_in_shape(img, check_level)
            report.add(f"integrality.e{idx}", ok, why or "image lies in the local order")

    if s.case == CASE_AT_P:
        report.add(
            "at_p.root_divisibility",
            (params.a * dn - s.data["s"].residue(1)) % p == 0,
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
    det = det4(gram)
    target = s.scalar(-(dn**2))
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

