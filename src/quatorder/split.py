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
costs.  Each model states the images of i, j and k; a q-adic model prints
them as ``PadicNum`` entries (pairs (a, b) = a + b√p at a ramified q) but
certifies on their exact residues mod q^k; a test deeper than the stated
level raises PrecisionLossError.  Every model holds a matrix as one int
tuple, its entries over one denominator (an int, or at a ramified q and at
the real place the pair (a, b) of a + b√p): its arithmetic never reduces,
and only a zero or valuation test reduces, once.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    CaseMismatchError,
    InvalidParametersError,
    PrecisionLossError,
)
from .exact import (
    ZLattice4,
    as_rational,
    congruence_kernel,
    frac_to_str,
    mat_add,
    mat_mul,
    mat_trace_det,
    pair_mul,
    pair_trace_det,
)
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


def at_p_root(params: AlgebraParams, k: int) -> int:
    """The root s of -dn mod p**k, in [0, p**k), pinned by a*s = -1 (mod p).

    The pinning forces p | (a*dn - s), which the at-p models rely on.
    """
    p = params.p
    s = hensel_sqrt(-params.dn, p, k)
    return s if (params.a * s + 1) % p == 0 else -s % p**k


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

    generators are the stated images of i, j and k, each the tuple (ul, ur,
    ll, lr) that to_json prints; the certificates run on mat_i, mat_j and
    mat_k, and relations.k_matches checks the stated k against mat_i·mat_j.
    data holds the case-specific witnesses (norm-form solutions, square
    roots) as ints, each exact or a residue mod q^k.  The case fixes the
    coefficient ring, and the model supplies the matrix product and sum, the
    zero and valuation tests and the trace-form determinant on it.  Every
    matrix is the int tuple (den, *ints) of ``exact.mat_mul``: an entry is
    one int, or the pair (a, b) of a + b·√p at a ramified q and at the real
    place (the ring width), and an entry alone is (den, *ints) too.  exact marks the rational model and the real-place
    model: there zero means zero and precision is ignored.  A q-adic model's
    matrices are its generators' residues mod q^k; an element with
    denominator q^v·d' has ints num/d' mod q^k·q^v over q^v, known to
    check_level() when v <= λ, as for the order, whose denominators divide
    2p; a larger v is refused.
    """

    __slots__ = (
        "params", "place", "case", "precision", "generators", "mat_i", "mat_j", "mat_k",
        "data", "shape", "exact", "_width", "_level", "_mod", "_dens", "_one", "_cols",
    )

    def __init__(self, params: AlgebraParams, place, case: str, precision: int,
                 gen_i: tuple, gen_j: tuple, gen_k: tuple, data: dict):
        self.params, self.place, self.case, self.precision = params, place, case, precision
        self.generators = (gen_i, gen_j, gen_k)
        self.data = data
        self.exact = exact = case in (CASE_RATIONAL, CASE_ARCHIMEDEAN)
        self._width = width = 2 if case in (CASE_RAMIFIED, CASE_ARCHIMEDEAN) else 1
        finite = place != INFINITE_PLACE
        ll_val = valuation(params.level, place) if finite else 0
        kind = _FIXED_SHAPES.get(case, "triangular" if ll_val else "matrix_ring")
        self.shape = OrderShape(kind, place if finite else None, ll_val)
        self._level = precision - (0 if exact else basis_digit_cost(params, place))
        mats = self.generators
        if width == 2:  # each entry the pair (a, b) of a + b·√p, flattened
            mats = [[x for e in m for x in e] for m in mats]
        if not exact:
            self._mod, self._dens = place**precision, {}
            mats = [[x.residue(precision) for x in m] for m in mats]
        one = (1, 0, 0, 0, 0, 0, 1, 0) if width == 2 else (1, 0, 0, 1)
        # For each int of a matrix, its values in 1, i, j and k: an image is
        # their combination with an element's numerators.
        self._cols = tuple(zip(one, *mats))
        self._one, self.mat_i, self.mat_j, self.mat_k = [(1, *m) for m in (one, *mats)]

    def scalar(self, value, den: int = 1) -> tuple:
        """Lift the rational value/den (den > 0) into the coefficient ring."""
        value = as_rational(value)
        return self._lift([value.numerator, 0][:self._width], value.denominator * den)

    def _lift(self, nums: list, den: int) -> tuple:
        """The ints nums over den in the coefficient ring, as (den', *nums').
        At a finite place, with den = q^v·d' and q ∤ d', each is num/d' mod
        q^k·q^v over q^v, known to k - v digits: v > λ is refused."""
        if self.exact:
            return (den, *nums)
        q, mod = self.place, self._mod
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
        mod *= qv
        return (qv, *[n * inv % mod for n in nums])

    def one(self) -> tuple:
        return self._one

    def embed(self, u: QuatElem) -> tuple:
        """Image of u = x + y i + z j + t k: every int of the matrix is one
        integer combination, lifted over u's denominator in one pass."""
        if u.params is not self.params and u.params != self.params:
            raise InvalidParametersError("element belongs to a different algebra")
        x, y, z, t = u.numerators
        return self._lift([x * w + y * i + z * j + t * k for w, i, j, k in self._cols],
                          u.denominator)

    def entries(self, mat: tuple) -> list:
        """The four entries (den, *ints) of a matrix: ul, ur, ll, lr."""
        den, w = mat[0], self._width
        return [(den, *mat[i:i + w]) for i in range(1, 4 * w + 1, w)]

    def mul(self, x: tuple, y: tuple) -> tuple:
        """The product of two matrices of the model."""
        return pair_mul(x, y, self.params.p) if self._width == 2 else mat_mul(x, y)

    def trace_form_gap(self, images: list, target: int) -> tuple:
        """det of the trace form tr(X_r·X_c) of four images, less target, as
        (den, *ints): zero when the determinant is target and, over Z[√p],
        every trace is rational.  tr(XY) = Σ x_ij·y_ji; the form is symmetric."""
        if self._width == 2:
            den, a, *rest = pair_trace_det(images, self.params.p)
        else:
            den, a, *rest = mat_trace_det(images)
        return (den, a - target * den, *rest)

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

    def is_zero(self, value: tuple, check_level: int) -> bool:
        """Is a matrix or an entry of the model zero (to q^check_level where
        truncated)?  Its ints are reduced once, modulo q^check_level·den."""
        if self.exact:
            return not any(value[1:])
        qm = self._modulus(check_level) * value[0]
        return not any([v % qm for v in value[1:]])

    def entry_val_at_least(self, value: tuple, m: int) -> bool:
        """Is the q-adic valuation of an entry at least m?

        For the global rational model at the real place "integral" degrades to
        "integer", which is what its order images satisfy.  At a ramified q it
        is whether value/q^m lies in the maximal order, which holds
        (1 + sqrt(p))/2 at q = 2: whether its trace and norm are integral.
        """
        if self.case == CASE_ARCHIMEDEAN:
            raise InvalidParametersError("no q-adic valuation at the real place")
        den, a = value[:2]
        if self.case == CASE_RATIONAL:  # den is the element's own denominator
            if a == 0:
                return True
            if self.place == INFINITE_PLACE:
                return a % den == 0
            return valuation(a, self.place) - valuation(den, self.place) >= m
        qm = self._modulus(m) * den  # den is a power of q
        if self._width == 1:
            return a % qm == 0
        b = value[2]
        return not (2 * a % qm or 2 * b % qm or (a * a - self.params.p * b * b) % (qm * qm))

    def matrix_in_shape(self, mat: tuple, check_level: int, extra_ll: int = 0) -> tuple[bool, str]:
        """Test membership of a matrix in the target order shape.

        extra_ll strengthens the lower-left divisibility requirement, which is
        how deeper-level suborders are recognized inside the same model.
        """
        shape = self.shape
        if shape.kind == "none":
            return True, "no integrality constraint at the real place"
        entries = self.entries(mat)
        for name, e in zip(("ul", "ur", "ll", "lr"), entries):
            if not self.entry_val_at_least(e, 0):
                return False, f"{name} entry not integral"
        if shape.kind == "ramified_maximal":
            (den, a1, b1), (_, a2, b2), (_, a3, b3), (_, a4, b4) = entries
            q = shape.q
            if not self.is_zero((den, a4 - a1, b4 + b1), check_level):
                return False, "lower-right entry is not the conjugate of the upper-left"
            if not self.is_zero((den, a3 - q * a2, b3 + q * b2), check_level):
                return False, f"lower-left entry is not {shape.q} times conj(upper-right)"
            return True, ""
        need = shape.ll_val + extra_ll
        if need and not self.entry_val_at_least(entries[2], need):
            return False, f"lower-left entry valuation below {need}"
        return True, ""

    def congruence_functional(self, entry: int, m: int) -> tuple[list[int], int]:
        """(ℓ, q^m), ℓ the residues mod q^m of entry 1 (upper-right) or 2 (lower-left)
        of the q-integral order-basis images: coordinates v map to an image with
        that entry ≡ 0 mod q^m iff ℓ·v ≡ 0.  No degeneracy or chain formula enters."""
        q = self.place
        mod = self._modulus(m)
        cols, residues = self._cols[entry], []
        for e in hashimoto_basis(self.params):
            den, num = self._lift([sum(n * c for n, c in zip(e.numerators, cols))], e.denominator)
            g = gcd(num, den)
            num, den = num // g, den // g
            if den % q == 0:
                raise PrecisionLossError(f"{num}/{den} is not {q}-integral")
            residues.append(num * pow(den, -1, mod) % mod)
        return residues, mod

    def congruence_lattice(self, entry: int, m: int) -> ZLattice4:
        """The kernel of ``congruence_functional``, solved as a coordinate lattice."""
        residues, mod = self.congruence_functional(entry, m)
        return coords_lattice(self.params, congruence_kernel([residues], mod))

    def to_json(self) -> dict:
        enc = frac_to_str if self.exact else lambda v: v.to_json()
        pair = lambda e: {"a": enc(e[0]), "b": enc(e[1])}
        entry = pair if self._width == 2 else enc
        q, k = self.place, self.precision
        body = {
            "place": q if q == INFINITE_PLACE else int(q),
            "case": self.case,
            "precision": k,
            "shape": self.shape.describe(),
            "data": {n: PadicNum.from_ratio(v, 1, q, k).to_json() for n, v in self.data.items()},
        }
        for name, gen in zip("ijk", self.generators):
            body[name] = [entry(e) for e in gen]
        return body


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
        n = params.level
        mi, mj, mk = (0, -1, n, 0), (-1, 0, 0, 1), (0, -1, -n, 0)
        return LocalSplitting(params, place, case, k, mi, mj, mk, {})

    if case == CASE_ARCHIMEDEAN:  # Q(sqrt(p)), an entry the int pair (a, b) = a + b·sqrt(p)
        zero, theta, mtheta = (0, 0), (0, 1), (0, -1)
        mi = (zero, (1, 0), (-dn, 0), zero)
        mj = (theta, zero, zero, mtheta)
        mk = (zero, mtheta, (0, -dn), zero)
        return LocalSplitting(params, place, case, k, mi, mj, mk, {})

    q = place
    check_modulus(q, k, "precision", k)

    def pn(value) -> PadicNum:
        return PadicNum.from_rational(value, q, k)

    z0 = PadicNum.exact_zero(q)
    if case == CASE_UNRAMIFIED_SQUARE:
        root = hensel_sqrt(p, q, k)
        omega, mdn = pn(root), pn(-dn)
        momega = -omega
        mi = (z0, pn(1), mdn, z0)
        mj = (momega, z0, z0, omega)
        mk = (z0, omega, mdn * momega, z0)
        return LocalSplitting(params, place, case, k, mi, mj, mk, {"omega": root})

    if case == CASE_UNRAMIFIED_NONSQUARE:
        x0, y0 = solve_norm_equation(p, -dn, q, k)
        x, y, pp = pn(x0), pn(y0), pn(p)
        py, mx = pp * y, -x
        mpy = -py
        mi = (x, mpy, y, mx)
        mj = (z0, pp, pn(1), z0)
        mk = (mpy, pp * x, mx, py)
        return LocalSplitting(params, place, case, k, mi, mj, mk, {"x": x0, "y": y0})

    if case == CASE_AT_P:
        root = at_p_root(params, k)
        if _flip_at_p_root:
            root = -root % p**k
        s, pp = pn(root), pn(p)
        ms = -s
        mi = (ms, z0, z0, s)
        mj = (z0, pn(1), pp, z0)
        mk = (z0, ms, pp * s, z0)
        return LocalSplitting(params, place, case, k, mi, mj, mk, {"s": root})

    # Ramified place q | delta: coefficients live in Z_q[sqrt(p)], an entry
    # the pair (a, b) = a + b·sqrt(p).
    x0, y0 = solve_norm_equation(p, -dn // q, q, k)
    x, y = pn(x0), pn(y0)
    zero, one, pp, qn = (z0, z0), pn(1), pn(p), pn(q)
    qx, qy, my = qn * x, qn * y, -y
    mi = (zero, (x, my), (qx, qy), zero)
    mj = ((z0, -one), zero, zero, (z0, one))
    mk = (zero, (pp * my, x), (-(pp * qy), -qx), zero)
    return LocalSplitting(params, place, case, k, mi, mj, mk, {"x": x0, "y": y0})


def verify_splitting(splitting: LocalSplitting) -> Report:
    """Replay every checkable property of a matrix model, to ``s.check_level()``."""
    s = splitting
    params = s.params
    report = Report()
    check_level = s.check_level()

    def is_zero_mat(mat) -> bool:
        return s.is_zero(mat, check_level)

    dn = params.dn
    p = params.p
    one, mul = s.one(), s.mul

    report.add(
        "relations.i_square",
        is_zero_mat(mat_add(mul(s.mat_i, s.mat_i), one, dn)),
        f"i^2 = {-dn}",
    )
    report.add(
        "relations.j_square",
        is_zero_mat(mat_add(mul(s.mat_j, s.mat_j), one, -p)),
        f"j^2 = {p}",
    )
    ij = mul(s.mat_i, s.mat_j)
    report.add(
        "relations.anticommute",
        is_zero_mat(mat_add(ij, mul(s.mat_j, s.mat_i))),
        "ij + ji = 0",
    )
    report.add(
        "relations.k_matches",
        is_zero_mat(mat_add(s.mat_k, ij, -1)),
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
            (params.a * dn - s.data["s"]) % p == 0,
            f"a*dn - s = {params.a * dn} - sqrt(-dn) divisible by {p}",
        )

    # Trace form of the order basis, with traces read off the matrix images so
    # the check exercises the map: det equals -(dn)^2.
    report.add(
        "discriminant.trace_form",
        s.is_zero(s.trace_form_gap(images, -(dn**2)), check_level),
        f"det(trace form) = -({dn})^2",
    )

    if s.case == CASE_RATIONAL and s.place != INFINITE_PLACE:
        scaled = [(img[1:], img[0]) for img in images]
        image_lat = ZLattice4.from_scaled_rows(scaled, ambient=("m2q", params.level))
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

