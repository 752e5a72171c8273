"""Exact linear algebra: HNF lattices and int 2x2 matrices over Z and Z[√d].

All lattice work happens over Z after clearing denominators; the Hermite
normal form here is the row-style echelon form with positive pivots and the
entries above each pivot reduced into [0, pivot), which makes it a canonical
representative usable for equality tests.  Four-wide rows, every span and
sum, are eliminated on int tuples and rows of any other width in the same
loop on lists; a kernel of one congruence on four coordinates is written
down in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import AmbientMismatchError, InvalidParametersError, NotAnOrderBasisError


def frac_to_str(x) -> str:
    if type(x) is int:
        return str(x)
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def as_rational(x):
    """x itself when it is an int or a Fraction (both carry numerator and
    denominator), otherwise Fraction(x)."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _scaled_vector(vec) -> tuple[list[int], int]:
    """(int numerators, common denominator) of a vector of rationals."""
    xs = [as_rational(x) for x in vec]
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


# ---------------------------------------------------------------------------
# integer matrices


def det4(rows):
    """Determinant of a 4x4 matrix over any commutative ring, ints included.

    Laplace expansion along the top two rows: each 2x2 minor of rows 0, 1
    times the signed complementary minor of rows 2, 3 (30 ring products),
    written out so a determinant makes no call.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = rows
    return (
        (a0 * b1 - a1 * b0) * (c2 * d3 - c3 * d2)
        - (a0 * b2 - a2 * b0) * (c1 * d3 - c3 * d1)
        + (a0 * b3 - a3 * b0) * (c1 * d2 - c2 * d1)
        + (a1 * b2 - a2 * b1) * (c0 * d3 - c3 * d0)
        - (a1 * b3 - a3 * b1) * (c0 * d2 - c2 * d0)
        + (a2 * b3 - a3 * b2) * (c0 * d1 - c1 * d0)
    )


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = s·a + t·b and |g| = gcd(a, b); g > 0 when b > 0,
    since every remainder is then nonnegative."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b, s0, s1, t0, t1 = b, r, s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row HNF; zero rows dropped.

    One pass per column (Cohen, GTM 138, §2.4): its first nonzero entry, made
    positive, is the pivot p of row top.  A row below whose entry b p divides
    loses (b/p)·top; otherwise top and row become (s·top + t·row,
    (p/g)·row − (b/g)·top), g = s·p + t·b = gcd(p, b), and p becomes g.  The
    rows above come last, indexed from the end of the rows below, so each
    loses ⌊entry/p⌋·top for the final p.  Four-wide rows, every lattice span
    and sum, run on int tuples with each row operation written out.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    four = n == 4
    a = list(map(tuple if four else list, rows))
    rank = 0
    for col in range(n):
        for piv in range(rank, m):
            if a[piv][col]:
                break
        else:
            continue
        top = a[piv]
        a[piv] = a[rank]
        p = top[col]
        if p < 0:
            top, p = [-x for x in top], -p
        if four:
            t0, t1, t2, t3 = top
        for i in range(piv + 1 - m, rank):
            row = a[i]
            b = row[col]
            if not b:
                continue
            if i < 0 and b % p:
                g, t, s = _xgcd(b, p)
                pg, bg = p // g, b // g
                if four:
                    r0, r1, r2, r3 = row
                    a[i] = (pg * r0 - bg * t0, pg * r1 - bg * t1, pg * r2 - bg * t2, pg * r3 - bg * t3)
                    t0, t1, t2, t3 = s * t0 + t * r0, s * t1 + t * r1, s * t2 + t * r2, s * t3 + t * r3
                else:
                    a[i] = [pg * x - bg * y for x, y in zip(row, top)]
                    top = [s * y + t * x for x, y in zip(row, top)]
                p = g
            elif t := b // p:
                if four:
                    r0, r1, r2, r3 = row
                    a[i] = (r0 - t * t0, r1 - t * t1, r2 - t * t2, r3 - t * t3)
                else:
                    a[i] = [x - t * y for x, y in zip(row, top)]
        a[rank] = (t0, t1, t2, t3) if four else top
        rank += 1
    return list(map(list, a[:rank]))


def _vanishing_part(gens: list[list[int]], n: int) -> list[list[int]]:
    """HNF of {w : (0, w) in the span of gens}, for rows (x, w) with x of length n.

    The rows of hnf(gens) that vanish on the first n columns span exactly those
    (0, w), and they are in HNF themselves, so their w parts are the answer.
    """
    return [r[n:] for r in hnf(gens) if not any(r[:n])]


def congruence_kernel(rows: list[list[int]], modulus: int) -> list[list[int]]:
    """Basis (HNF) of {v in Z^n : rows @ v ≡ 0 (mod modulus)}.

    One four-wide row ℓ and a modulus M > 0 give the HNF in closed form.  With
    g_i = gcd(ℓ_i, ..., ℓ_4, M) and g_5 = M, row i has pivot g_{i+1}/g_i, and
    its tail is −ℓ_i/g_i times the Bézout coefficients of g_{i+1} on
    ℓ_{i+1}, ..., ℓ_4 (so ℓ·row = −(ℓ_i/g_i)·(its coefficient on M)·M); the
    four rows lie in the kernel and their pivots multiply to its index
    M/g_1, so they span it, and reducing above each pivot leaves its HNF.

    Otherwise: the vanishing part of the lattice spanned by (rowsᵀ·e_i, e_i)
    and (modulus·e_j, 0), which is {(rows @ v + modulus·w, v)}.  Modulus 0
    gives the exact kernel {v : rows @ v = 0}: its modulus generators are
    zero rows, which ``hnf`` drops.
    """
    if not rows:
        raise InvalidParametersError("empty congruence system")
    r, n = len(rows), len(rows[0])
    if r == 1 and n == 4 and modulus > 0:
        l1, l2, l3, l4 = rows[0]
        g4, s4, _ = _xgcd(l4, modulus)
        g3, s3, t3 = _xgcd(l3, g4)
        g2, s2, t2 = _xgcd(l2, g3)
        g1 = gcd(l1, g2)
        u1, u2, u3 = -l1 // g1, -l2 // g2, -l3 // g3
        a, b, c, e = g2 // g1, u1 * s2, u1 * t2 * s3, u1 * t2 * t3 * s4
        f, h, i = g3 // g2, u2 * s3, u2 * t3 * s4
        j, k, last = g4 // g3, u3 * s4, modulus // g4
        t = b // f
        b, c, e = b - t * f, c - t * h, e - t * i
        t, w = c // j, h // j
        c, e, h, i = c - t * j, e - t * k, h - w * j, i - w * k
        return [[a, b, c, e % last], [0, f, h, i % last], [0, 0, j, k % last], [0, 0, 0, last]]
    gens = [[row[i] for row in rows] + [int(i == j) for j in range(n)] for i in range(n)]
    gens += [[modulus if j == i else 0 for j in range(r)] + [0] * n for i in range(r)]
    return _vanishing_part(gens, r)


# ---------------------------------------------------------------------------
# 2x2 matrices over Z and Z[√d], on ints
#
# A matrix is the int tuple (den, *ints): its four entries upper-left,
# upper-right, lower-left, lower-right over one denominator den > 0, each entry
# one int, or over Z[√d] the pair (a, b) of (a + b·√d)/den, so (den, a1, b1, ...,
# a4, b4).  An entry alone is laid out the same way, (den, a) or (den, a, b).
# Nothing here reduces; a model reduces once, in a zero or valuation test.


def pair_mul(x: tuple, y: tuple, d: int) -> tuple:
    """The product x·y of two pair matrices over Z[√d]."""
    xd, a1, b1, a2, b2, a3, b3, a4, b4 = x
    yd, c1, e1, c2, e2, c3, e3, c4, e4 = y
    return (
        xd * yd,
        a1 * c1 + a2 * c3 + d * (b1 * e1 + b2 * e3), a1 * e1 + b1 * c1 + a2 * e3 + b2 * c3,
        a1 * c2 + a2 * c4 + d * (b1 * e2 + b2 * e4), a1 * e2 + b1 * c2 + a2 * e4 + b2 * c4,
        a3 * c1 + a4 * c3 + d * (b3 * e1 + b4 * e3), a3 * e1 + b3 * c1 + a4 * e3 + b4 * c3,
        a3 * c2 + a4 * c4 + d * (b3 * e2 + b4 * e4), a3 * e2 + b3 * c2 + a4 * e4 + b4 * c4,
    )


def mat_mul(x: tuple, y: tuple) -> tuple:
    """The product x·y of two int matrices (den, a, b, c, d)."""
    xd, a, b, c, d = x
    yd, e, f, g, h = y
    return xd * yd, a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


def mat_add(x: tuple, y: tuple, c: int = 1) -> tuple:
    """x + c·y for two matrices of one layout (or two entries) and an int c."""
    xd, yd = x[0], y[0]
    if xd == yd:
        return (xd, *[u + c * v for u, v in zip(x[1:], y[1:])])
    return (xd * yd, *[u * yd + c * v * xd for u, v in zip(x[1:], y[1:])])


def mat_trace_det(mats) -> tuple:
    """det of the trace form tr(X_r·X_c) of four int matrices, as the entry
    (den, n) of n/den; see pair_trace_det."""
    gram = [[None] * 4 for _ in range(4)]
    for r, (_, a, b, c, d) in enumerate(mats):
        for col in range(r, 4):
            _, e, f, g, h = mats[col]
            gram[r][col] = gram[col][r] = a * e + b * g + c * f + d * h
    den = prod(x[0] for x in mats)
    return den * den, det4(gram)


def pair_trace_det(mats, d: int) -> tuple:
    """det of the trace form tr(X_r·X_c) of four pair matrices, as the int
    tuple (den, n, *roots): n/den is the det of the Gram matrix's rational
    parts, and roots are the √d parts of its ten entries over den.  A model's
    images have rational traces, so their roots vanish.  Entry (r, c) is
    over den_r·den_c, so den is the squared product of the dens.
    """
    dens = [x[0] for x in mats]
    den = prod(dens) ** 2
    gram = [[None] * 4 for _ in range(4)]
    roots = []
    for r, x in enumerate(mats):
        _, a1, b1, a2, b2, a3, b3, a4, b4 = x
        for c in range(r, 4):
            _, c1, e1, c2, e2, c3, e3, c4, e4 = mats[c]
            gram[r][c] = gram[c][r] = (
                a1 * c1 + a2 * c3 + a3 * c2 + a4 * c4 + d * (b1 * e1 + b2 * e3 + b3 * e2 + b4 * e4)
            )
            root = a1 * e1 + b1 * c1 + a2 * e3 + b2 * c3 + a3 * e2 + b3 * c2 + a4 * e4 + b4 * c4
            roots.append(root * (den // (dens[r] * dens[c])))
    return (den, det4(gram), *roots)


# ---------------------------------------------------------------------------
# rank <= 4 lattices in Q^4


class ZLattice4:
    """Finitely generated subgroup of Q^4, stored as (1/denom)·(HNF rows).

    The pair (denom, rows) is reduced, so two lattices are equal iff their
    stored data are equal.  An optional ``ambient`` tag guards against
    intersecting lattices that live in different coordinate systems.
    """

    __slots__ = ("denom", "rows", "ambient")

    def __init__(self, denom: int, rows: tuple, ambient=None):
        self.denom = denom
        self.rows = rows
        self.ambient = ambient

    @classmethod
    def from_rows(cls, rational_rows, ambient=None) -> "ZLattice4":
        return cls.from_scaled_rows([_scaled_vector(r) for r in rational_rows], ambient)

    @classmethod
    def from_scaled_rows(cls, scaled_rows, ambient=None) -> "ZLattice4":
        """The lattice spanned by rows given as (four int numerators, denominator > 0).

        One pass brings the rows to their common denominator d, a row over d
        as it is, and finds the gcd g of d and every numerator; dividing the
        HNF by g leaves it in HNF, so the rows of the reduced lattice are
        built once, after the elimination."""
        d = lcm(*[den for _, den in scaled_rows])
        ints, g = [], d
        for nums, den in scaled_rows:
            if len(nums) != 4:
                raise InvalidParametersError("ZLattice4 rows must have length 4")
            if den != d:
                a, b, c, e = nums
                t = d // den
                nums = (a * t, b * t, c * t, e * t)
            if g > 1:
                g = gcd(g, *nums)
            ints.append(nums)
        h = hnf(ints)
        if g > 1:
            return cls(d // g, tuple([(a // g, b // g, c // g, e // g) for a, b, c, e in h]), ambient)
        return cls(d, tuple(map(tuple, h)), ambient)

    @classmethod
    def _from_hnf(cls, d: int, h: list, ambient) -> "ZLattice4":
        """The lattice (1/d)·h for int rows h already in HNF, in reduced form:
        dividing an HNF by a common factor leaves it in HNF."""
        g = gcd(d, *[x for r in h for x in r]) if d > 1 else 1
        if g > 1:
            d //= g
            h = [[x // g for x in r] for r in h]
        return cls(d, tuple(map(tuple, h)), ambient)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[list[Fraction]]:
        return [[Fraction(x, self.denom) for x in r] for r in self.rows]

    def scaled_rows(self, denom: int) -> list[list[int]]:
        if denom % self.denom:
            raise InvalidParametersError("incompatible scaling")
        f = denom // self.denom
        return [[x * f for x in r] for r in self.rows]

    def contains(self, vec) -> bool:
        return self.contains_scaled(*_scaled_vector(vec))

    def contains_scaled(self, nums, den: int) -> bool:
        """Whether (1/den)·nums lies in the lattice, for den > 0.

        nums need not be reduced against den, so integrality is decided per
        coordinate.  A full-rank HNF is upper triangular, so its solve is
        four unrolled steps; a lower rank runs the row loop, which finds each
        row's pivot as it goes.
        """
        if len(nums) != 4:
            raise InvalidParametersError("ZLattice4 vectors must have length 4")
        d = self.denom
        w = []
        for n in nums:
            n *= d
            if n % den:
                return False
            w.append(n // den)
        rows = self.rows
        if len(rows) == 4:
            (a, b, c, e), (_, f, g, h), (_, _, i, j), (_, _, _, k) = rows
            w0, w1, w2, w3 = w
            t, r = divmod(w0, a)
            if r:
                return False
            w1, w2, w3 = w1 - t * b, w2 - t * c, w3 - t * e
            t, r = divmod(w1, f)
            if r:
                return False
            w2, w3 = w2 - t * g, w3 - t * h
            t, r = divmod(w2, i)
            return not r and not (w3 - t * j) % k
        for row in rows:
            pc = next(j for j, x in enumerate(row) if x)
            t, r = divmod(w[pc], row[pc])
            if r:
                return False
            for c in range(pc, 4):
                w[c] -= t * row[c]
        return not any(w)

    def _check_ambient(self, other: "ZLattice4"):
        if self.ambient is not None and other.ambient is not None and self.ambient != other.ambient:
            raise AmbientMismatchError(f"{self.ambient} vs {other.ambient}")

    def intersect(self, other: "ZLattice4") -> "ZLattice4":
        self._check_ambient(other)
        if not self.rows or not other.rows:
            return ZLattice4(1, (), self.ambient or other.ambient)
        # Zassenhaus: (a, a) and (b, 0) span {(a + b, a)}, whose vanishing part is A ∩ B
        d = lcm(self.denom, other.denom)
        gens = [r + r for r in self.scaled_rows(d)] + [r + [0] * 4 for r in other.scaled_rows(d)]
        return ZLattice4._from_hnf(d, _vanishing_part(gens, 4), self.ambient or other.ambient)

    def add(self, other: "ZLattice4") -> "ZLattice4":
        """The sum lattice self + other: one elimination of both sets of
        four-wide rows, as stored when the two denominators agree.  Over the
        lcm d of two reduced denominators the sum is reduced too: a prime
        power dividing d exactly divides one side's denominator exactly, and
        that side has a numerator the prime misses."""
        self._check_ambient(other)
        d = lcm(self.denom, other.denom)
        rows = self.rows + other.rows if self.denom == other.denom else (
            self.scaled_rows(d) + other.scaled_rows(d))
        return ZLattice4(d, tuple(map(tuple, hnf(rows))), self.ambient or other.ambient)

    def covolume(self) -> tuple[int, int]:
        """(numerator, denominator) of a full-rank lattice's covolume: a rank-4
        HNF is four upper-triangular rows four wide, so (1/d)·rows has
        prod(diagonal)/d^4."""
        if len(self.rows) != 4:
            raise InvalidParametersError("covolume needs a rank-4 lattice")
        (a, _, _, _), (_, b, _, _), (_, _, c, _), (_, _, _, e) = self.rows
        return a * b * c * e, self.denom**4

    def is_congruence_kernel(self, residues, modulus: int) -> bool:
        """Whether self is K = {v ∈ Z^4 : residues·v ≡ 0 mod modulus}, modulus > 0,
        without solving for K: K has index modulus / gcd(residues, modulus) in
        Z^4, so a full-rank integral self inside K with that index is K.  The
        four residues meet each four-wide row in one sum."""
        l1, l2, l3, l4 = residues
        return (
            len(self.rows) == 4 and self.denom == 1
            and not any([(l1 * a + l2 * b + l3 * c + l4 * e) % modulus for a, b, c, e in self.rows])
            and self.covolume()[0] == modulus // gcd(l1, l2, l3, l4, modulus)
        )

    def index_in(self, superlattice: "ZLattice4") -> int:
        """[superlattice : self] for two full-rank lattices, self ⊆ superlattice.

        Containment is not checked, only that the covolume ratio is an integer;
        every caller checks containment itself (degeneracy's ``membership.*``,
        ``chains._is_sublattice``, ψ's ``inclusion.integer_coords``).
        """
        self._check_ambient(superlattice)
        if self.rank != 4 or superlattice.rank != 4:
            raise InvalidParametersError("index needs two rank-4 lattices")
        (a, b), (c, d) = self.covolume(), superlattice.covolume()
        index, rest = divmod(a * d, b * c)
        if rest:
            raise InvalidParametersError("not a sublattice")
        return index

    def __eq__(self, other):
        return (
            isinstance(other, ZLattice4)
            and self.denom == other.denom
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.denom, self.rows))

    def __repr__(self):
        return f"ZLattice4(1/{self.denom} * {list(map(list, self.rows))})"


# ---------------------------------------------------------------------------
# trace forms


def _scaled_gram(elems) -> tuple[list[list[int]], list[int]]:
    """Integer Gram matrix M and row scales d with tr(x_r·x_c) = M[r][c]/(d_r·d_c).

    For x = a + b·i + c·j + d·k in (-dn, p | Q) the reduced trace of a product
    is the diagonal form tr(x·y) = 2a a' - 2dn b b' + 2p c c' + 2p·dn d d', so
    M = C·diag(2, -2dn, 2p, 2p·dn)·Cᵀ on the four-wide integer numerators C of
    the elements; M is symmetric, so only its upper triangle is computed.
    """
    params = elems[0].params
    for u in elems:
        if u.params is not params and u.params != params:
            raise InvalidParametersError("elements of different algebras")
    dn, p = params.dn, params.p
    w2, w3 = -2 * dn, 2 * p
    w4 = w3 * dn
    nums = [u.numerators for u in elems]
    gram = [[0] * len(nums) for _ in nums]
    for r, (a1, a2, a3, a4) in enumerate(nums):
        a1, a2, a3, a4 = 2 * a1, w2 * a2, w3 * a3, w4 * a4
        row = gram[r]
        for c in range(r, len(nums)):
            b1, b2, b3, b4 = nums[c]
            row[c] = gram[c][r] = a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4
    return gram, [u.denominator for u in elems]


def reduced_discriminant(elems) -> int:
    """√|det| of the reduced-trace Gram matrix of four elements, over the
    squared product of their four denominators.

    Raises NotAnOrderBasisError unless the determinant is a nonzero integer
    whose absolute value is a perfect square.
    """
    if len(elems) != 4:
        raise NotAnOrderBasisError("need exactly four elements")
    gram, (d1, d2, d3, d4) = _scaled_gram(elems)
    num, den = det4(gram), (d1 * d2 * d3 * d4) ** 2
    if num == 0:
        raise NotAnOrderBasisError("degenerate trace form")
    d, rest = divmod(num, den)
    if rest or not is_perfect_square(abs(d)):
        raise NotAnOrderBasisError(
            f"trace form determinant {Fraction(num, den)} is not a square integer"
        )
    return isqrt(abs(d))
