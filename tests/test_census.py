"""A model-free census of the two degeneracy copies.

For a prime q the index-q sublattices of the level-N order R that contain 1
are the kernels of the q² + q + 1 nonzero functionals (0, a, b, c) on R/qR,
taken up to scalars, in order-basis coordinates.  Among them the orders
number q + 1 when q ∤ ΔN, the Eichler orders of level q (the neighbours of a
vertex of the Bruhat–Tits tree), and 2q + 1 when q | N.  Each copy f, g of a
degeneracy pair is one of those orders, the two copies differ, and each
contains an x with trd x = 1 and nrd x ≡ 0 (mod q), an idempotent mod q, as
an Eichler order of level Nq does.  At q | N exactly one census order,
locally Z + J(R), contains no such x.

The census reads only the order basis's numerators and denominator.  Every
product is the Fraction reference product below, every coordinate comes from
a Fraction elimination of its own and every determinant from a Fraction
elimination too, so it shares no kernel with the degeneracy certificate: no
lattice HNF, covolume, trace form, closure test or local model.  The pairs
are those of the default grid with q ≤ 7.
"""

from fractions import Fraction

from quatorder.quat import hashimoto_basis
from test_degeneracy import default_grid_pairs

MAX_Q = 7


def times(params, x, y) -> tuple:
    """x·y for (1, i, j, k)-coordinate 4-tuples, from i² = a = -ΔN,
    j² = b = p and k = ij = -ji: ik = a·j, ki = -a·j, jk = -b·i, kj = b·i."""
    a, b = -params.dn, params.p
    x1, x2, x3, x4 = x
    y1, y2, y3, y4 = y
    return (
        x1 * y1 + a * x2 * y2 + b * x3 * y3 - a * b * x4 * y4,
        x1 * y2 + x2 * y1 - b * x3 * y4 + b * x4 * y3,
        x1 * y3 + x3 * y1 + a * x2 * y4 - a * x4 * y2,
        x1 * y4 + x4 * y1 + x2 * y3 - x3 * y2,
    )


def conj(x) -> tuple:
    return (x[0], -x[1], -x[2], -x[3])


def eliminate(rows) -> tuple:
    """(det, inverse) of a 4x4 Fraction matrix, by Gauss–Jordan elimination."""
    m = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(4)]
         for r, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(4):
        piv = next((r for r in range(col, 4) if m[r][col]), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        m[col] = [v / m[col][col] for v in m[col]]
        for r in range(4):
            if r != col and m[r][col]:
                m[r] = [v - m[r][col] * w for v, w in zip(m[r], m[col])]
    return det, [row[4:] for row in m]


class Census:
    """R's multiplication table and norm form mod q, in order-basis
    coordinates, and the census of its index-q suborders containing 1."""

    def __init__(self, params, q: int):
        self.params, self.q = params, q
        self.basis = [
            tuple(Fraction(n, e.denominator) for n in e.numerators) for e in hashimoto_basis(params)
        ]
        _, self.inverse = eliminate(self.basis)
        # e_r·e_s in coordinates, and nrd, trd as forms on coordinates
        self.table = [[self.integral_coords(times(params, x, y)) for y in self.basis]
                      for x in self.basis]
        self.trd = [self.integral(2 * x[0]) for x in self.basis]
        self.norm = [[self.integral(times(params, x, conj(y))[0] * (1 if r == s else 2))
                      for s, y in enumerate(self.basis)] for r, x in enumerate(self.basis)]

    def integral(self, value: Fraction) -> int:
        assert value.denominator == 1, value
        return int(value)

    def coords(self, x) -> list:
        return [sum(x[r] * self.inverse[r][c] for r in range(4)) for c in range(4)]

    def integral_coords(self, x) -> list:
        return [self.integral(c) for c in self.coords(x)]

    def functionals(self) -> list:
        """The nonzero (0, a, b, c) mod q up to scalars, leading entry 1."""
        q = self.q
        return ([(0, 1, b, c) for b in range(q) for c in range(q)]
                + [(0, 0, 1, c) for c in range(q)] + [(0, 0, 0, 1)])

    def kernel(self, ell) -> list:
        """1 and two more vectors spanning ker ell mod q."""
        lead = next(i for i in range(1, 4) if ell[i])
        others = [(0, *[int(i == s) - ell[s] * int(i == lead) for i in range(1, 4)])
                  for s in range(1, 4) if s != lead]
        return [(1, 0, 0, 0), *others]

    def product(self, u, v) -> list:
        q, table = self.q, self.table
        return [sum(u[r] * v[s] * table[r][s][t] for r in range(4) for s in range(4)) % q
                for t in range(4)]

    def pairing(self, ell, v) -> int:
        return sum(a * b for a, b in zip(ell, v)) % self.q

    def is_order(self, ell) -> bool:
        _, u, v = self.kernel(ell)
        return all(self.pairing(ell, self.product(x, y)) == 0
                   for x in (u, v) for y in (u, v))

    def has_idempotent(self, ell) -> bool:
        """Whether ker ell holds x with trd x ≡ 1 and nrd x ≡ 0 (mod q).  One
        such x lifts to one with trd x = 1: adding q·(s·e1 + t·e2) moves trd
        by q·(2s + t) and leaves nrd mod q."""
        q, trd, norm = self.q, self.trd, self.norm
        one, u, v = self.kernel(ell)
        for a in range(q):
            for b in range(q):
                for c in range(q):
                    x = [a * one[r] + b * u[r] + c * v[r] for r in range(4)]
                    if sum(t * xr for t, xr in zip(trd, x)) % q != 1 % q:
                        continue
                    n = sum(x[r] * x[s] * norm[r][s] for r in range(4) for s in range(r, 4))
                    if n % q == 0:
                        return True
        return False

    def functional_of(self, elems) -> tuple:
        """The census functional whose kernel the span of elems is: the span
        must have index q, so it holds qR and is the kernel of the one
        functional that vanishes on it mod q."""
        rows = [self.integral_coords(
            tuple(Fraction(n, u.denominator) for n in u.numerators)) for u in elems]
        det, _ = eliminate(rows)
        assert abs(det) == self.q, det
        matches = [ell for ell in self.functionals()
                   if all(self.pairing(ell, row) == 0 for row in rows)]
        assert len(matches) == 1, matches
        return matches[0]


def census_pairs():
    return [pair for pair in default_grid_pairs() if pair.q <= MAX_Q]


def test_each_copy_is_one_of_the_census_orders_and_holds_an_idempotent():
    pairs = census_pairs()
    assert len(pairs) == 126
    for pair in pairs:
        params, q = pair.params, pair.q
        census = Census(params, q)
        orders = [ell for ell in census.functionals() if census.is_order(ell)]
        level_q = params.level % q == 0
        assert len(census.functionals()) == q * q + q + 1
        assert len(orders) == (2 * q + 1 if level_q else q + 1), (params, q)
        lacking = [ell for ell in orders if not census.has_idempotent(ell)]
        assert len(lacking) == (1 if level_q else 0), (params, q, lacking)
        f, g = census.functional_of(pair.f), census.functional_of(pair.g)
        assert f != g, (params, q)
        for ell in (f, g):
            assert ell in orders and ell not in lacking, (params, q, ell)
