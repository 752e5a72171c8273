import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quatorder.errors import AmbientMismatchError, InvalidParametersError
from quatorder.exact import (
    ZLattice4,
    _vanishing_part,
    congruence_kernel,
    det4,
    frac_to_str,
    hnf,
    is_perfect_square,
    mat_add,
    mat_mul,
    pair_mul,
)


def test_frac_string_roundtrip():
    assert frac_to_str(Fraction(3, 4)) == "3/4"
    assert frac_to_str(Fraction(-5)) == "-5"


def test_is_perfect_square():
    assert is_perfect_square(0) and is_perfect_square(1) and is_perfect_square(525**2)
    assert not is_perfect_square(2) and not is_perfect_square(-4)


def det_frac(rows) -> Fraction:
    """Reference determinant over Q of a square matrix of any size, by
    Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return det


def test_det4_matches_det_frac():
    rng = random.Random(3)
    for _ in range(25):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        d = det4(m)
        assert type(d) is int and d == det_frac(m)
        mf = [[Fraction(x, rng.randint(1, 6)) for x in row] for row in m]
        assert det4(mf) == det_frac(mf)
    assert det4([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [5, 0, 0, 7]]) == 0


def test_hnf_canonical():
    rows = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert rows == [[2, 0, 120], [0, 2, 20], [0, 0, 156]]
    assert hnf(rows) == rows
    assert abs(det_frac(rows)) == abs(det_frac([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]))


def transpose(a):
    return [list(col) for col in zip(*a)]


def test_kernels():
    # congruence_kernel(rows, 0) is the exact kernel {v : rows @ v = 0}
    k = congruence_kernel([[1, 0, 0, 0], [0, 1, 0, 0]], 0)
    assert sorted(k) == [[0, 0, 0, 1], [0, 0, 1, 0]]
    # and congruence_kernel(Aᵀ, 0) the left kernel {u : u @ A = 0}
    lk = congruence_kernel(transpose([[1, 0], [2, 0], [0, 1]]), 0)
    assert len(lk) == 1 and lk[0][0] * 2 == lk[0][1] * -1 or len(lk) == 1
    # the kernel vector kills the rows
    v = lk[0]
    assert v[0] * 1 + v[1] * 2 + v[2] * 0 == 0
    assert v[0] * 0 + v[1] * 0 + v[2] * 1 == 0


def test_congruence_kernel_small():
    rows = congruence_kernel([[1, 2, 3, 4]], 5)
    lat = ZLattice4.from_rows(rows)
    # index 5 sublattice of Z^4
    identity = ZLattice4.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert lat.index_in(identity) == 5
    for row in rows:
        assert sum(c * x for c, x in zip([1, 2, 3, 4], row)) % 5 == 0


def test_lattice_membership_and_index():
    lat = ZLattice4.from_rows(
        [[1, 0, 0, 0], [0, Fraction(1, 2), Fraction(1, 2), 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    )
    assert lat.contains([1, Fraction(1, 2), Fraction(1, 2), 0])
    assert not lat.contains([0, Fraction(1, 2), 0, 0])
    identity = ZLattice4.from_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert lat.index_in(identity) == 1  # det 1/2*2 = 1
    with pytest.raises(InvalidParametersError):
        ZLattice4.from_rows([[1, 0, 0]])


@pytest.mark.parametrize("rank", [4, 2])
@pytest.mark.parametrize("vec", [[1, 2, 3, 4, 5], [0, 0, 0, 0, 7], [1, 2, 3]])
def test_membership_refuses_vectors_not_of_length_four(rank, vec):
    lat = ZLattice4.from_rows([[int(i == j) for j in range(4)] for i in range(rank)])
    assert lat.rank == rank
    with pytest.raises(InvalidParametersError, match="length 4"):
        lat.contains(vec)
    with pytest.raises(InvalidParametersError, match="length 4"):
        lat.contains_scaled(vec, 1)


def test_lattice_intersection():
    a = ZLattice4.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    b = ZLattice4.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])
    inter = a.intersect(b)
    assert inter.rank == 1
    assert inter.rows == ((1, 0, 0, 0),)
    # over the common denominator 2 the vanishing part is 2·Z^4, stored reduced
    half = ZLattice4.from_rows(
        [[Fraction(1, 2), Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    )
    unit = ZLattice4.from_rows([[int(i == j) for j in range(4)] for i in range(4)])
    assert half.denom == 2
    assert (half.intersect(unit).denom, half.intersect(unit).rows) == (1, unit.rows)


def test_lattice_ambient_guard():
    a = ZLattice4.from_rows([[1, 0, 0, 0]], ambient=("coords", 35, 3, 13))
    b = ZLattice4.from_rows([[1, 0, 0, 0]], ambient=("coords", 6, 1, 5))
    with pytest.raises(AmbientMismatchError):
        a.intersect(b)


def scalar_pair_matrix(den, a, b):
    """(a + b·√d)/den times the identity, as a pair matrix."""
    return (den, a, b, 0, 0, 0, 0, a, b)


def test_pair_matrix_field_arithmetic():
    th = scalar_pair_matrix(1, 0, 1)  # sqrt(13)
    u, ubar = scalar_pair_matrix(2, 1, 1), scalar_pair_matrix(2, 1, -1)
    assert pair_mul(u, ubar, 13) == scalar_pair_matrix(4, 1 - 13, 0)
    assert pair_mul(th, th, 13) == scalar_pair_matrix(1, 13, 0)
    one = scalar_pair_matrix(1, 1, 0)
    assert mat_add(mat_add(one, th), th, -1) == one
    # nothing reduces: a sum over two denominators is over their product
    assert mat_add(u, ubar, 2) == scalar_pair_matrix(2, 3, -1)
    assert mat_add(u, th) == scalar_pair_matrix(2, 1, 3)
    assert mat_add(th, u) == scalar_pair_matrix(2, 1, 3)


def fraction_matrix(mat):
    """The int matrix (den, a, b, c, d) as rows of Fractions."""
    den, a, b, c, d = mat
    return [[Fraction(a, den), Fraction(b, den)], [Fraction(c, den), Fraction(d, den)]]


def test_int_matrix_kernel_matches_a_fraction_reference():
    """mat_mul and mat_add on (den, a, b, c, d) with unequal denominators
    against 2x2 Fraction arithmetic; nothing reduces."""
    rng = random.Random(27)
    for _ in range(300):
        x, y = [(rng.randint(1, 12), *[rng.randint(-50, 50) for _ in range(4)]) for _ in "xy"]
        if x[0] == y[0]:
            continue
        c = rng.randint(-3, 3)
        fx, fy = fraction_matrix(x), fraction_matrix(y)
        prod_xy = mat_mul(x, y)
        assert prod_xy[0] == x[0] * y[0]
        assert fraction_matrix(prod_xy) == [
            [sum(fx[r][t] * fy[t][col] for t in range(2)) for col in range(2)] for r in range(2)
        ]
        total = mat_add(x, y, c)
        assert total[0] == x[0] * y[0]
        assert fraction_matrix(total) == [
            [fx[r][col] + c * fy[r][col] for col in range(2)] for r in range(2)
        ]
    assert mat_add((3, 1, 2, 3, 4), (3, 1, 1, 1, 1), -1) == (3, 0, 1, 2, 3)


# --- the HNF layer against brute-force oracles ------------------------------------
# Hypothesis runs derandomized with no example database, as in
# tests/test_core_properties.py.

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def int_matrix(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


def in_echelon_span(basis, vec) -> bool:
    """Whether vec is an integer combination of echelon rows with positive pivots."""
    w = list(vec)
    for row in basis:
        pc = next(j for j, x in enumerate(row) if x)
        t, r = divmod(w[pc], row[pc])
        if r:
            return False
        w = [x - t * y for x, y in zip(w, row)]
    return not any(w)


def times(u, a):
    return [sum(c * row[j] for c, row in zip(u, a)) for j in range(len(a[0]))]


@SETTINGS
@given(int_matrix())
@example([[1, 0], [2, 0], [0, 1]])
@example([[0, 0, 0], [0, 0, 0]])
@example([[3, 6], [2, 4], [5, 10], [1, 2]])
def test_left_kernel_is_the_whole_kernel(a):
    m = len(a)
    ker = congruence_kernel(transpose(a), 0)
    for u in ker:
        assert times(u, a) == [0] * len(a[0])
    assert hnf(ker) == ker
    # len(hnf(a)) is rank_Q(a): tests/test_core_properties.py checks it by elimination over Q
    assert len(ker) == m - len(hnf(a))
    for u in product(range(-2, 3), repeat=m):
        if times(u, a) == [0] * len(a[0]):
            assert in_echelon_span(ker, u), u


@SETTINGS
@given(
    st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-40, 40), min_size=n, max_size=n), min_size=1, max_size=2
        )
    ),
    st.integers(1, 30),
)
@example([[1, 2, 3]], 30)
@example([[0, 0]], 7)
@example([[6, 10, 15], [2, 0, 4]], 30)
def test_congruence_kernel_index_counts_the_solutions(rows, modulus):
    n = len(rows[0])
    basis = congruence_kernel(rows, modulus)
    assert len(basis) == n
    for v in basis:
        assert all(sum(c * x for c, x in zip(row, v)) % modulus == 0 for row in rows)
    solutions = sum(
        all(sum(c * x for c, x in zip(row, v)) % modulus == 0 for row in rows)
        for v in product(range(modulus), repeat=n)
    )
    assert abs(det_frac(basis)) * solutions == modulus**n


small_rational_st = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
matrix4_st = st.lists(st.lists(small_rational_st, min_size=4, max_size=4), min_size=4, max_size=4)
int_matrix4_st = st.lists(
    st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4
)


@SETTINGS
@given(matrix4_st, int_matrix4_st)
@example(
    [[int(i == j) for j in range(4)] for i in range(4)],
    [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [0, 0, 0, -1]],
)
@example(
    [[1, Fraction(1, 2), 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]],
    [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
)
def test_index_is_the_determinant_of_the_change_of_basis(lrows, u):
    """M = U·L has index |det U| in L, read off the two HNF diagonals."""
    assume(det_frac(lrows) != 0 and det_frac(u) != 0)
    lat = ZLattice4.from_rows(lrows)
    sub = ZLattice4.from_rows(
        [[sum(c * row[j] for c, row in zip(urow, lrows)) for j in range(4)] for urow in u]
    )
    assert sub.index_in(lat) == abs(det_frac(u))
    if abs(det_frac(u)) > 1:
        with pytest.raises(InvalidParametersError, match="not a sublattice"):
            lat.index_in(sub)
    else:
        assert lat.index_in(sub) == 1


def euclid_hnf(rows):
    """Reference HNF by repeated Euclidean sweeps: per column, move the
    smallest nonzero entry into the pivot row and subtract multiples of it
    from every lower row until the column clears; then normalise the sign
    and reduce the entries above the pivot."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) for r in rows]
    rank = 0
    for col in range(n):
        while True:
            piv = None
            for i in range(rank, m):
                if a[i][col] and (piv is None or abs(a[i][col]) < abs(a[piv][col])):
                    piv = i
            if piv is None:
                break
            a[rank], a[piv] = a[piv], a[rank]
            done = True
            for i in range(rank + 1, m):
                if a[i][col]:
                    t = a[i][col] // a[rank][col]
                    a[i] = [x - t * y for x, y in zip(a[i], a[rank])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if piv is None:
            continue
        if a[rank][col] < 0:
            a[rank] = [-x for x in a[rank]]
        for i in range(rank):
            t = a[i][col] // a[rank][col]
            if t:
                a[i] = [x - t * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return a[:rank]


# The shapes the package eliminates: 4x4 lattices, the 5x5 augmented
# congruence_kernel generators, 8x4 sums and 8x8 Zassenhaus intersections.
HNF_SHAPES = ((4, 4), (5, 5), (8, 4), (8, 8))
wide_entry_st = st.one_of(
    st.integers(-(10**40), 10**40), st.integers(-9, 9), st.just(0)
)


@st.composite
def wide_matrix(draw):
    """An integer matrix with entries up to 10^40, some rows zeroed, repeated
    or replaced by a combination of two others (so it may be rank deficient)."""
    m, n = draw(st.sampled_from(HNF_SHAPES))
    a = [draw(st.lists(wide_entry_st, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        c = draw(st.integers(-(10**20), 10**20))
        a[i] = draw(
            st.sampled_from(
                ([0] * n, list(a[j]), [x + c * y for x, y in zip(a[j], a[k])])
            )
        )
    return a


@settings(SETTINGS, max_examples=150)
@given(wide_matrix())
@example([[0] * 8 for _ in range(8)])
@example([[10**40 - i, -(10**39), 7, 0] for i in range(8)])
@example([[3, 10**40, 0, 0, 0], [5, 0, 10**40, 0, 0], [0] * 5, [3, 10**40, 0, 0, 0], [7, 1, 1, 1, 1]])
def test_hnf_matches_the_euclidean_reference_at_wide_scale(a):
    assert hnf(a) == euclid_hnf(a)


def generic_hnf(rows):
    """``hnf``'s loop for any width, on four-wide rows: a zero fifth column
    leaves the HNF's values as they are."""
    return [r[:4] for r in hnf([[*r, 0] for r in rows])]


@st.composite
def four_wide_rows(draw):
    """1 to 9 four-wide rows, all lists or all tuples, with entries up to
    10^40, some rows zeroed, negated, repeated or replaced by a combination of
    two others (so they may be dependent)."""
    m = draw(st.integers(1, 9))
    a = [draw(st.lists(wide_entry_st, min_size=4, max_size=4)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        i, j, k = (draw(st.integers(0, m - 1)) for _ in range(3))
        c = draw(st.integers(-(10**20), 10**20))
        a[i] = draw(
            st.sampled_from(
                ([0] * 4, [-x for x in a[j]], list(a[j]), [x + c * y for x, y in zip(a[j], a[k])])
            )
        )
    return a if draw(st.booleans()) else [tuple(r) for r in a]


@settings(SETTINGS, max_examples=200)
@given(four_wide_rows())
@example([[0, 0, 0, 0]])
@example([(0, -3, 6, 9), (0, 0, 0, 0), (0, -3, 6, 9), (0, 2, -4, 5)])
@example([(2, 0, 0, 2), (0, 0, 0, 2), (0, -2, 0, 0), (-2, -2, -2, 2)])
@example([[-(10**40), 1, 0, 0], [10**40 - 1, 0, 1, 0], [7, 0, 0, 1]] * 3)
def test_four_wide_hnf_matches_the_generic_loop_and_the_euclidean_reference(a):
    """The four-wide tuple loop gives the generic loop's values and the
    reference's, as a list of lists, and leaves its input as it was."""
    before = [list(r) for r in a]
    h = hnf(a)
    assert type(h) is list and all(type(r) is list for r in h)
    assert h == generic_hnf(a) == euclid_hnf(a)
    assert [list(r) for r in a] == before


def generic_kernel(ell, modulus):
    """``congruence_kernel``'s generic route for one four-wide row: the
    vanishing part of the span of (ℓ_i, e_i) and (modulus, 0)."""
    gens = [[x] + [int(i == j) for j in range(4)] for i, x in enumerate(ell)]
    return _vanishing_part(gens + [[modulus, 0, 0, 0, 0]], 1)


@st.composite
def one_congruence(draw):
    """(ℓ, M) with M = q^k, q in {2, 3, 11, 13} and k <= 24, or any M up to
    10^12; ℓ has zero, negative and large entries (up to 10^40, so many are
    >= M), shares powers of q and small factors with M, is ≡ 0 mod M, or
    has entries ±u_i·q^(e_i) with ascending e_i, so that every g_i differs."""
    q, k = draw(st.sampled_from((2, 3, 11, 13))), draw(st.integers(0, 24))
    modulus = q**k if draw(st.booleans()) else draw(st.integers(1, 10**12))
    kind = draw(st.sampled_from(("free", "shared", "chain", "zero")))
    if kind == "chain":  # ℓ_i = ±u_i·q^(e_i), e_1 <= ... <= e_4: every pivot and Bézout step counts
        exps = sorted(draw(st.lists(st.integers(0, k), min_size=4, max_size=4)))
        unit = st.integers(1, 10**6).filter(lambda u: u % q)
        units = draw(st.lists(unit, min_size=4, max_size=4))
        return [u * q**e * draw(st.sampled_from((1, -1))) for u, e in zip(units, exps)], q**k
    ell = []
    for _ in range(4):
        x = draw(st.one_of(st.just(0), st.integers(-3 * modulus, 3 * modulus), wide_entry_st))
        if kind == "shared":
            x *= q ** draw(st.integers(0, k)) * draw(st.integers(1, 12))
        elif kind == "zero":
            x = modulus * draw(st.integers(-3, 3))
        ell.append(x)
    return ell, modulus


@settings(SETTINGS, max_examples=300)
@given(one_congruence())
@example(([0, 0, 0, 0], 5))
@example(([5, -10, 0, 15], 5))
@example(([0, 0, 5973, 1931], 3**8))
@example(([2, 4, 8, 16], 2**24))
@example(([13**24, 0, -13**3, 13], 13**24))
@example(([11**30, -(11**25), 11**24 + 1, 0], 11**24))
@example(([-784, 55, -544, 20], 2**7))
@example(([390, -176, 15390, 1170], 3**5))
def test_one_congruence_closed_form_matches_the_generic_route(case):
    ell, modulus = case
    kernel = congruence_kernel([ell], modulus)
    assert type(kernel) is list and all(type(r) is list for r in kernel)
    assert kernel == generic_kernel(ell, modulus)
