import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from quatorder.errors import AmbientMismatchError, InvalidParametersError
from quatorder.exact import (
    QuadRat,
    ZLattice4,
    congruence_kernel,
    det4,
    frac_to_str,
    hnf,
    is_perfect_square,
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


def test_lattice_ambient_guard():
    a = ZLattice4.from_rows([[1, 0, 0, 0]], ambient=("coords", 35, 3, 13))
    b = ZLattice4.from_rows([[1, 0, 0, 0]], ambient=("coords", 6, 1, 5))
    with pytest.raises(AmbientMismatchError):
        a.intersect(b)


def test_quadrat_field_arithmetic():
    th = QuadRat(0, 1, 13)  # sqrt(13)
    u = QuadRat(Fraction(1, 2), Fraction(1, 2), 13)
    assert (u * u.conj()).a == Fraction(1 - 13, 4)
    assert (th * th) == 13
    assert (1 + th) - th == 1


def test_rational_quadrat_hashes_like_its_value():
    assert QuadRat(13, 0, 13) == 13
    assert QuadRat(13, 0, 13) in {13}
    assert QuadRat(Fraction(-3, 4), 0, Fraction(2, 3)) in {Fraction(-3, 4)}
    assert {QuadRat(0, 0, 5): "zero"}[0] == "zero"
    assert QuadRat(13, 1, 13) not in {13}


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
