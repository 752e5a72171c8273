import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quatorder.errors import (
    InvalidParametersError,
    NoSquareRootError,
    NotANormError,
    PrecisionLossError,
    SearchExhaustedError,
)
from quatorder.numth import (
    INFINITE_PLACE,
    PadicNum,
    find_a,
    find_hashimoto_prime,
    hensel_sqrt,
    hilbert_symbol,
    is_prime,
    is_square_unit,
    is_squarefree,
    legendre,
    prime_factors,
    solve_norm_equation,
    sqrt_mod,
    unit_residue,
    valuation,
)
from quatorder.quat import AlgebraParams, check_admissible_p

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)


def test_prime_predicates():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert prime_factors(360) == [2, 3, 5]
    assert is_squarefree(35)
    assert not is_squarefree(12)


def sieve(n: int) -> bytearray:
    """is_prime table for 0 <= x < n (Eratosthenes)."""
    table = bytearray([1]) * n
    table[0:2] = b"\0\0"
    for i in range(2, int(n**0.5) + 1):
        if table[i]:
            table[i * i :: i] = bytearray(len(range(i * i, n, i)))
    return table


def test_is_prime_matches_a_sieve():
    table = sieve(2 * 10**5)
    assert [n for n in range(len(table)) if is_prime(n) != table[n]] == []


# ψ_k, the least composite that is a strong pseudoprime to the first k prime
# bases (OEIS A014233, Sorenson & Webster 2017), for k = 1, ..., 13.
PSI = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
PSI_13 = PSI[-1]
FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(n: int) -> bool:
    """Miller-Rabin to all of the first 13 prime bases, with no tiers: a
    primality proof for 41 < n < ψ₁₃."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in FIRST_13_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def neighbouring_primes(bound: int) -> tuple[int, int]:
    """The largest prime below bound and the smallest above it, for 1681 <= bound < ψ₁₃."""
    below = next(n for n in range(bound - 1, 0, -1) if strong_probable_prime(n))
    above = next(n for n in range(bound + 1, 2 * bound) if strong_probable_prime(n))
    return below, above


def test_every_psi_below_psi13_is_composite_and_psi13_is_refused():
    for k, n in enumerate(PSI[:-1], start=1):
        assert not is_prime(n), k
    # ψ₁₃ passes all 13 bases, so no proven base set can call it either way
    assert strong_probable_prime(PSI_13)
    with pytest.raises(SearchExhaustedError, match="ψ₁₃ = 3317044064679887385961981"):
        is_prime(PSI_13)


@pytest.mark.parametrize("bound", (1681,) + tuple(sorted(set(PSI[:-1]))))
def test_primes_on_each_side_of_a_tier_bound_are_prime(bound):
    below, above = neighbouring_primes(bound)
    assert is_prime(below) and is_prime(above)
    assert not any(is_prime(n) for n in range(below + 1, above))


def test_a_semiprime_beyond_psi13_with_a_witness_is_composite():
    # a witness proves compositeness at any size
    assert not is_prime(1000000000000037 * 1000000001000003)


def test_valuation():
    assert valuation(40, 2) == 3
    assert valuation(40, 5) == 1
    from fractions import Fraction
    assert valuation(Fraction(3, 8), 2) == -3
    with pytest.raises(ValueError):
        valuation(0, 3)


def test_legendre_matches_enumeration():
    for q in [n for n in range(3, 100) if is_prime(n)]:
        squares = {(x * x) % q for x in range(1, q)}
        for a in range(1, q):
            assert legendre(a, q) == (1 if a in squares else -1)
        assert legendre(q, q) == 0


def test_sqrt_mod_canonical():
    r = sqrt_mod(2, 7)
    assert r == 3 and pow(r, 2, 7) == 2
    assert sqrt_mod(4, 13) == 2
    with pytest.raises(NoSquareRootError):
        sqrt_mod(3, 7)


def test_is_square_unit_two_adic():
    assert is_square_unit(17, 2)
    assert not is_square_unit(13, 2)
    assert is_square_unit(13, 3)
    assert not is_square_unit(13, 11)


def test_padic_roundtrip_and_arithmetic():
    x = PadicNum.from_rational(35, 11, 8)
    y = PadicNum.from_rational(-4, 11, 8)
    assert (x + y).residue(3) == 31
    assert (x * y).residue(8) == -140 % 11**8
    z = PadicNum.exact_zero(11)
    w = PadicNum.from_rational(Fraction(3, 11**2), 11, 8)  # a unit times 11^-2
    assert z.residue(50) == (z * x).residue(50) == (w * z).residue(50) == 0


def test_padic_precision_guard():
    # cancellation leaves a truncated zero whose deeper valuation is unknown
    a = PadicNum.from_rational(1, 11, 4)
    b = PadicNum.from_rational(1 + 11**4, 11, 4)
    with pytest.raises(PrecisionLossError):
        (a + -b).residue(10)
    assert PadicNum.from_rational(11**6, 11, 4).residue(3) == 0


def test_hensel_squares_high_precision():
    rng = random.Random(0)
    for q in (2, 3, 13, 29):
        for _ in range(20):
            x = rng.randint(1, 50_000)
            while x % q == 0:
                x = rng.randint(1, 50_000)
            r = hensel_sqrt(x * x, q, 24)
            assert (r * r - x * x) % q**24 == 0
            assert r in (x % q**24, -x % q**24), (q, x)


def test_two_adic_root_agrees_with_a_deeper_lift():
    """Every digit a 2-adic root claims is a digit of the root.

    x² ≡ a (mod 2^k) fixes x only mod 2^(k-1) up to sign, so a lift that
    stops there gets its last digit wrong in about half the cases.
    """
    assert hensel_sqrt(9, 2, 3) == 5  # -3, the root ≡ 1 (mod 4)
    for a in range(1, 2000, 8):
        deep = hensel_sqrt(a, 2, 40)
        for k in range(1, 30):
            assert hensel_sqrt(a, 2, k) == deep % 2**k, (a, k)


def test_hensel_canonical_choice():
    r = hensel_sqrt(2, 7, 10)
    assert r % 7 == 3
    r2 = hensel_sqrt(17, 2, 10)
    assert r2 % 4 == 1
    with pytest.raises(NoSquareRootError):
        hensel_sqrt(5, 2, 10)


def test_hensel_roots_are_normalized_at_every_precision():
    """The lift itself keeps the normalization: at odd q every Newton step
    keeps the canonical residue sqrt_mod(a, q) <= q//2, and at q = 2 the
    lift only sets bits 2 and up of x = 1."""
    for q in (n for n in range(3, 60) if is_prime(n)):
        for a in range(1, 3 * q):
            if a % q == 0 or legendre(a, q) != 1:
                continue
            for k in range(1, 9):
                r = hensel_sqrt(a, q, k)
                assert 0 <= r < q**k and r % q <= q // 2, (a, q, k)
                assert (r * r - a) % q**k == 0, (a, q, k)
    for a in range(1, 2**10, 8):
        for k in range(2, 13):
            assert hensel_sqrt(a, 2, k) % 4 == 1, (a, k)


def per_step_lift(a: Fraction, q: int, k: int) -> int:
    """Reference odd-q lift: each Newton step recomputes the unit residue of
    a modulo q^m and inverts 2 with ``pow``."""
    x = sqrt_mod(unit_residue(a, q, q), q)
    m = 1
    while m < k:
        m = min(2 * m, k)
        mod = q**m
        x = (x + unit_residue(a, q, mod) * pow(x, -1, mod)) * pow(2, -1, mod) % mod
    return x


@settings(SETTINGS, max_examples=240)
@given(
    st.sampled_from((101, 389, 9413)),
    st.integers(1, 40),
    st.integers(1, 10**12),
    st.integers(-(10**30), 10**30),
    st.integers(1, 10**6),
)
def test_hensel_lift_at_wide_places_matches_the_per_step_lift(q, k, x0, t, d):
    """a = (x0² + q·t)/d² is a square unit whenever q divides neither x0 nor d."""
    x0 += x0 % q == 0
    d += d % q == 0
    a = Fraction(x0 * x0 + q * t, d * d)
    r = hensel_sqrt(a, q, k)
    assert (r * r * a.denominator - a.numerator) % q**k == 0
    assert r % q == sqrt_mod(unit_residue(a, q, q), q)
    assert r == per_step_lift(a, q, k)


def test_solve_norm_equation_conventions():
    # x^2 - 13 y^2 = -105 over Z_11: x0 = 0 already makes 105/13 a square
    # unit mod 11, so x is an exact zero and y the canonical root of 105/13
    x, y = solve_norm_equation(13, -105, 11, 12)
    assert (x * x - 13 * y * y + 105) % 11**12 == 0
    assert x == 0
    assert y == hensel_sqrt(Fraction(105, 13), 11, 12)


def test_solve_norm_equation_two_adic():
    x, y = solve_norm_equation(5, -11, 2, 12)
    assert (x * x - 5 * y * y + 11) % 2**10 == 0
    with pytest.raises(NotANormError):
        solve_norm_equation(13, 11, 11, 8)


def root_outcome(func, *args):
    """The ints func returns, or the type of the error it raises."""
    try:
        return func(*args)
    except (NoSquareRootError, NotANormError) as exc:
        return type(exc)


@SETTINGS
@given(
    st.sampled_from((2, 3, 5, 7, 11, 13, 101)),
    st.integers(1, 30),
    st.integers(-(10**6), 10**6),
    st.integers(1, 10**6),
    st.integers(-(10**4), 10**4),
)
def test_memoised_roots_equal_the_unmemoised_bodies(q, k, n, d, p):
    """For units a = n/d and a nonsquare unit p: the memoised root searches
    return the ints their bodies return; a repeated call returns the same
    object or raises the same error again, and an error leaves the memo as
    it was."""
    n += n % q == 0
    d += d % q == 0
    assume(p % q and not is_square_unit(p, q))
    a = Fraction(n, d)
    for func, args in ((hensel_sqrt, (a, q, k)), (solve_norm_equation, (p, a, q, k))):
        want = root_outcome(func.__wrapped__, *args)
        size = func.cache_info().currsize
        assert root_outcome(func, *args) == want
        if isinstance(want, type):
            assert root_outcome(func, *args) == want
            assert func.cache_info().currsize == size
            continue
        value = func(*args)
        assert func(*args) is value
        assert all(type(r) is int for r in (value if isinstance(value, tuple) else (value,)))


def test_hilbert_product_formula():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-80, 80) or 1
        b = rng.randint(-80, 80) or 1
        places = {2, INFINITE_PLACE}
        places.update(prime_factors(abs(a)))
        places.update(prime_factors(abs(b)))
        prod = 1
        for place in places:
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1, (a, b)


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, INFINITE_PLACE) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(-105, 13, 5) == -1
    assert hilbert_symbol(-105, 13, 13) == 1


def test_find_hashimoto_prime_flagship(monkeypatch):
    from quatorder import numth

    assert find_hashimoto_prime(35, 3) == 13
    assert find_hashimoto_prime(35, 1) == 13
    assert find_hashimoto_prime(6, 1) == 5
    assert find_hashimoto_prime(1, 6) == 1
    monkeypatch.setattr(numth, "DEFAULT_PRIME_BOUND", 5)
    with pytest.raises(SearchExhaustedError):
        find_hashimoto_prime(35, 3)


def test_find_a_values():
    assert find_a(35, 3, 13) == 5
    assert find_a(35, 1, 13) == 6
    assert find_a(6, 1, 5) == 2
    assert find_a(1, 6, 1) == 0


PRIMES_BELOW_60 = [n for n in range(2, 60) if is_prime(n)]


@st.composite
def delta_level(draw):
    """Δ = 1 or a product of an even number of primes below 60; N < 300 coprime to Δ."""
    primes = draw(st.lists(st.sampled_from(PRIMES_BELOW_60), unique=True, max_size=4))
    delta = prod(primes[: len(primes) // 2 * 2])
    level = draw(st.integers(1, 299).filter(lambda n: gcd(n, delta) == 1))
    return delta, level


@SETTINGS
@given(delta_level())
def test_hashimoto_prime_is_the_least_admissible_p(dl):
    delta, level = dl
    p = find_hashimoto_prime(delta, level)
    for smaller in range(1, p):
        with pytest.raises(InvalidParametersError):
            check_admissible_p(delta, level, smaller)
    check_admissible_p(delta, level, p)
    assert AlgebraParams.create(delta, level, p=p) == AlgebraParams.create(delta, level)


@SETTINGS
@given(st.integers(-10**6, 10**6))
def test_prime_factors_hands_out_fresh_lists(n):
    first = prime_factors(n)
    expected = list(first)
    first.append(4)
    first.reverse()
    assert prime_factors(n) == expected
    assert all(is_prime(ell) and n % ell == 0 for ell in expected)


def trial_division(n):
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def test_prime_factors_match_trial_division_on_small_numbers():
    for n in range(1, 20_000):
        assert prime_factors(n) == trial_division(n)


@SETTINGS
@given(st.integers(1, 10**6 - 1))
def test_prime_factors_match_trial_division_below_a_million(n):
    assert prime_factors(n) == trial_division(n)


# Primes above the trial-division bound of 1000, so their products reach
# Pollard-Brent rho; SMALL_PRIMES end just below it.
BIG_PRIMES = (1009, 7919, 104723, 104729, 999983, 1000003, 1000000007, 1000000009)
SMALL_PRIMES = (2, 3, 5, 7, 991, 997)


@SETTINGS
@given(
    st.lists(st.sampled_from(BIG_PRIMES), min_size=1, max_size=3),
    st.lists(st.sampled_from(SMALL_PRIMES), max_size=3),
    st.integers(1, 2),
)
def test_prime_factors_split_products_of_large_primes(big, small, power):
    n = prod(big) ** power * prod(small)
    assert prime_factors(n) == sorted(set(big) | set(small))
    assert prime_factors(-n) == prime_factors(n)


def test_prime_factors_of_a_product_of_two_primes_near_a_billion():
    assert prime_factors(1000000016000000063) == [1000000007, 1000000009]
    assert prime_factors((2**31 - 1) * (2**61 - 1)) == [2**31 - 1, 2**61 - 1]


def test_repeated_prime_search_does_not_scan_again(monkeypatch):
    from quatorder import numth

    scanned = []

    def counting(delta, level, p):
        scanned.append(p)
        return real(delta, level, p)

    real = numth.hashimoto_violation
    monkeypatch.setattr(numth, "hashimoto_violation", counting)
    # A bound no other test uses, so the first call is a genuine search.
    monkeypatch.setattr(numth, "DEFAULT_PRIME_BOUND", 99_989)
    assert find_hashimoto_prime(35, 3) == 13
    assert scanned == [5, 9, 13]
    assert find_hashimoto_prime(35, 3) == 13
    assert scanned == [5, 9, 13]
    # Failed searches and bad input are never cached.
    for _ in range(2):
        monkeypatch.setattr(numth, "DEFAULT_PRIME_BOUND", 9)
        with pytest.raises(SearchExhaustedError):
            find_hashimoto_prime(35, 3)
        monkeypatch.setattr(numth, "DEFAULT_PRIME_BOUND", 99_989)
        with pytest.raises(InvalidParametersError):
            find_hashimoto_prime(35, 5)
    assert scanned == [5, 9, 13, 5, 9, 5, 9]


def bit_loop_lift(a: int, k: int) -> int:
    """Reference 2-adic lift, one bit per step from x = 1: x² ≡ a (mod 2^(m+1))
    for m = 3, ..., k, reading a mod 2^(k+1)."""
    x = 1
    for m in range(3, k + 1):
        if (x * x - a) % 2 ** (m + 1):
            x += 1 << (m - 1)
    return x


@settings(SETTINGS, max_examples=240)
@given(st.integers(1, 200), st.integers(0, 2**210), st.integers(0, 10**6))
def test_two_adic_newton_lift_matches_the_bit_loop(k, t, d):
    """a = (1 + 8t)/(2d + 1)² is a 2-adic square unit."""
    a = Fraction(1 + 8 * t, (2 * d + 1) ** 2)
    r = hensel_sqrt(a, 2, k)
    assert r == bit_loop_lift(unit_residue(a, 2, 2 ** max(k + 1, 3)), k)
