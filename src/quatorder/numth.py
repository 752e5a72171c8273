"""Rational and q-adic number theory primitives.

Everything downstream leans on the conventions fixed here:

* ``sqrt_mod`` returns the root in [0, q//2] (and the root ≡ 1 mod 4 for q=2),
* ``hensel_sqrt`` lifts that canonical residue to an int mod q^k,
* ``solve_norm_equation`` scans x₀ = 0, 1, 2, ... and lifts y, so the returned
  int pair is deterministic,
* ``find_hashimoto_prime`` / ``find_a`` return the smallest admissible values.

Changing any of these silently changes which sublattices the rest of the
package constructs, so they are pinned by tests.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from math import gcd, prod

from .errors import (
    InvalidParametersError,
    NoSquareRootError,
    NotANormError,
    PrecisionLossError,
    SearchExhaustedError,
)
from .exact import as_rational

INFINITE_PLACE = "inf"

# valuation assigned to an exactly-known zero; large enough that every
# congruence test at desk scale sees it as zero.
_ZERO_VAL = 10**9

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# ψ_k for k = 1, ..., 13: no composite below ψ_k is a strong pseudoprime to
# the first k prime bases (Sorenson & Webster, Math. Comp. 86 (2017); OEIS
# A014233), so n needs the first 1 + #{k : ψ_k <= n} of them.
_PSI = (
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
    3825123056546413051, 318665857834031151167461, 3317044064679887385961981,
)

# Largest candidate the admissible-prime search tries.
DEFAULT_PRIME_BOUND = 100_000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the proven base set of n's tier.

    Proven below ψ₁₃ = 3317044064679887385961981.  At or above it a witness
    still proves n composite; a number that passes all 13 bases raises
    SearchExhaustedError instead of being called prime.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 1681:  # 41²: a composite below it has a prime factor <= 37
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES[: bisect_right(_PSI, n) + 1]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _PSI[-1]:
        raise SearchExhaustedError(
            f"{n} passes Miller-Rabin to the 13 prime bases 2 to 41, which prove "
            f"primality only below ψ₁₃ = {_PSI[-1]}"
        )
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n|, ascending (memoised)."""
    return list(_prime_factors(abs(n)))


# Trial division stops below this bound; a cofactor below its square is prime.
_TRIAL_BOUND = 1000
# Pollard-Brent steps whose differences are multiplied together per gcd.
_RHO_BATCH = 64
# Most x -> x² + c steps one rho search takes: a factor near 10^9 takes some
# 50,000 steps, one of 16 digits would take about 10^8.
_RHO_BUDGET = 1 << 20


@lru_cache(maxsize=1024)
def _prime_factors(n: int) -> tuple[int, ...]:
    """Trial division below _TRIAL_BOUND; each cofactor left is then either
    prime (Miller-Rabin) or split by Pollard-Brent rho."""
    found = set()
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        if n % d == 0:
            found.add(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    todo = [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if m < _TRIAL_BOUND**2 or is_prime(m):
            found.add(m)
        else:
            f = _rho_divisor(m)
            todo += [f, m // f]
    return tuple(sorted(found))


def _rho_divisor(n: int) -> int:
    """A proper divisor of a composite n with no prime factor below
    _TRIAL_BOUND: Pollard's rho in Brent's variant (Brent, BIT 20, 1980),
    iterating x -> x² + c from x = 2 with the fixed seeds c = 1, 2, 3, ...
    until a gcd splits n, so the divisor found is deterministic.  Raises
    SearchExhaustedError rather than take more than _RHO_BUDGET steps."""
    c = steps = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to advance x, at most r more to compare
            if steps > _RHO_BUDGET:
                raise SearchExhaustedError(
                    f"no divisor of the composite {n} within the factoring budget "
                    f"of {_RHO_BUDGET} Pollard-Brent rho steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:  # the batch overshot the collision: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def is_squarefree(n: int) -> bool:
    """n != 0 with no repeated prime factor: |n| is the product of its primes."""
    return n != 0 and prod(prime_factors(n)) == abs(n)


def _strip(n: int, d: int, q: int) -> tuple[int, int, int]:
    """(v, n', d') with n/d = q^v · n'/d' and q dividing neither n' nor d'; n, d nonzero."""
    v = 0
    while n % q == 0:
        n //= q
        v += 1
    while d % q == 0:
        d //= q
        v -= 1
    return v, n, d


def valuation(x, q: int) -> int:
    """q-adic valuation of a nonzero int or Fraction."""
    x = as_rational(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        raise ValueError("valuation of zero")
    return _strip(n, d, q)[0]


def unit_residue(x, q: int, modulus: int) -> int:
    """Residue of the q-unit part of x modulo ``modulus`` (a power of q)."""
    x = as_rational(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        raise ValueError("zero has no unit part")
    _, n, d = _strip(n, d, q)
    return n * pow(d, -1, modulus) % modulus


def legendre(a: int, q: int) -> int:
    """Legendre symbol (a/q) for an odd prime q; values -1, 0, 1."""
    if q == 2 or not is_prime(q):
        raise InvalidParametersError(f"legendre needs an odd prime, got {q}")
    a %= q
    if a == 0:
        return 0
    s = pow(a, (q - 1) // 2, q)
    return 1 if s == 1 else -1


def sqrt_mod(a: int, q: int) -> int:
    """Square root of a modulo an odd prime q, canonical root in [0, q//2].

    Tonelli-Shanks; raises NoSquareRootError when (a/q) = -1.
    """
    if q == 2:
        return a % 2
    a %= q
    if a == 0:
        return 0
    if legendre(a, q) != 1:
        raise NoSquareRootError(f"{a} is not a square mod {q}")
    if q % 4 == 3:
        r = pow(a, (q + 1) // 4, q)
        return min(r, q - r)
    # write q-1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    n = 2
    while legendre(n, q) != -1:
        n += 1
    x = pow(a, (s + 1) // 2, q)
    b = pow(a, s, q)
    g = pow(n, s, q)
    r = e
    while True:
        t, m = b, 0
        while t != 1:
            t = t * t % q
            m += 1
        if m == 0:
            return min(x, q - x)
        gs = pow(g, 1 << (r - m - 1), q)
        x = x * gs % q
        b = b * gs % q * gs % q
        g = gs * gs % q
        r = m


def is_square_unit(x, q: int) -> bool:
    """Whether the q-unit x is a square in Z_q (x given as int or Fraction)."""
    if valuation(x, q) != 0:
        raise InvalidParametersError(f"{x} is not a unit at {q}")
    if q == 2:
        return unit_residue(x, 2, 8) == 1
    return legendre(unit_residue(x, q, q), q) == 1


class PadicNum:
    """A q-adic number known to finite precision: the print form of a local
    model's generators.

    A nonzero value is ``unit * q**val + O(q**(val + prec))`` with
    0 < unit < q**prec and q ∤ unit.  A value that is indistinguishable from
    zero is stored with unit == 0 and prec == 0; ``val`` is then a lower bound
    on the valuation.  Arithmetic tracks the minimum surviving precision;
    ``residue`` either gives an answer that is certain or raises
    PrecisionLossError.  The root searches below return plain int residues,
    and the local models are certified on ints.
    """

    __slots__ = ("q", "val", "unit", "prec")

    def __init__(self, q: int, val: int, unit: int, prec: int):
        self.q = q
        self.val = val
        self.unit = unit
        self.prec = prec

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_rational(cls, x, q: int, prec: int) -> "PadicNum":
        x = as_rational(x)
        return cls.from_ratio(x.numerator, x.denominator, q, prec)

    @classmethod
    def from_ratio(cls, num: int, den: int, q: int, prec: int) -> "PadicNum":
        """num/den for ints with den > 0, not necessarily in lowest terms."""
        if num == 0:
            return cls(q, _ZERO_VAL, 0, 0)
        v, n, d = _strip(num, den, q)
        mod = q**prec
        return cls(q, v, n * pow(d, -1, mod) % mod, prec)

    @classmethod
    def exact_zero(cls, q: int) -> "PadicNum":
        return cls(q, _ZERO_VAL, 0, 0)

    # -- queries ---------------------------------------------------------

    @property
    def abs_prec(self) -> int:
        """Exponent m such that the value is known modulo q**m."""
        return self.val + self.prec if self.unit else self.val

    def residue(self, m: int) -> int:
        """Canonical integer in [0, q**m) congruent to the value mod q**m."""
        if self.unit == 0:
            if self.val >= m:
                return 0
            raise PrecisionLossError(f"residue mod {self.q}^{m} not determined")
        if self.val < 0:
            raise PrecisionLossError(f"value has negative valuation {self.val}")
        if self.abs_prec < m:
            raise PrecisionLossError(
                f"residue mod {self.q}^{m} needs more precision (have {self.abs_prec})"
            )
        return self.unit * self.q**self.val % self.q**m

    # -- arithmetic -------------------------------------------------------
    # Each operation is one body on the four fields.  A sum is known modulo
    # the smaller absolute precision m and computed on the digits from the
    # smaller valuation up to m; a zero keeps m (or the sentinel) as its
    # valuation.

    def __add__(self, other):
        if not isinstance(other, PadicNum):
            return NotImplemented
        q = self.q
        if other.q != q:
            raise InvalidParametersError("mixed residue characteristics")
        sv, su, ov, ou = self.val, self.unit, other.val, other.unit
        m = sv + self.prec  # the absolute precision: a zero has prec 0
        om = ov + other.prec
        if om < m:
            m = om
        base = sv if sv < ov else ov
        digits = m - base
        if digits <= 0:
            return PadicNum(q, m, 0, 0)
        if sv > base:
            su = su * q ** (sv - base) if su and sv < m else 0
        if ov > base:
            ou = ou * q ** (ov - base) if ou and ov < m else 0
        r = (su + ou) % q**digits
        if not r:
            return PadicNum(q, m, 0, 0)
        while not r % q:
            r //= q
            base += 1
            digits -= 1
        return PadicNum(q, base, r, digits)

    def __neg__(self):
        if self.unit == 0:
            return self
        return PadicNum(self.q, self.val, (-self.unit) % self.q**self.prec, self.prec)

    def __mul__(self, other):
        if not isinstance(other, PadicNum):
            return NotImplemented
        q = self.q
        if other.q != q:
            raise InvalidParametersError("mixed residue characteristics")
        if not (self.unit and other.unit):
            val = self.val + other.val
            return PadicNum(q, val if val < _ZERO_VAL else _ZERO_VAL, 0, 0)
        prec = self.prec if self.prec < other.prec else other.prec
        return PadicNum(q, self.val + other.val, self.unit * other.unit % q**prec, prec)

    def __repr__(self):
        if self.unit == 0:
            return f"O({self.q}^{self.val})"
        return f"{self.unit}*{self.q}^{self.val} + O({self.q}^{self.abs_prec})"

    def to_json(self) -> dict:
        """The residue modulo q**abs_prec as a decimal string.

        Raises InvalidParametersError up front when that modulus has more
        decimal digits than the interpreter converts to text
        (``sys.get_int_max_str_digits``, 4300 by default), and
        PrecisionLossError for a negative valuation, as ``residue`` does.
        """
        m = self.abs_prec
        if self.unit:
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            if limit and self.q**m > 10**limit:
                raise InvalidParametersError(
                    f"a residue modulo {self.q}^{m} can have more than {limit} decimal "
                    f"digits, the interpreter's limit for integer-to-text conversion "
                    f"(sys.get_int_max_str_digits); lower the precision"
                )
        return {"q": self.q, "prec": m, "residue": str(self.residue(m))}


@lru_cache(maxsize=1024)
def hensel_sqrt(a, q: int, k: int) -> int:
    """Square root of a q-unit square, as its residue in [0, q**k).

    For odd q the result lifts the canonical residue sqrt_mod(a, q); for q=2
    the input must be ≡ 1 (mod 8) and the root is normalized ≡ 1 (mod 4).
    Memoised; an error is raised again, never cached.
    """
    if k < 1:
        raise InvalidParametersError("precision must be >= 1")
    if a == 0 or valuation(a, q) != 0:
        raise InvalidParametersError("hensel_sqrt expects a q-adic unit")

    if q == 2:
        a = unit_residue(a, 2, 2 ** max(k + 1, 3))  # one residue, mod 2^(k+1)
        if a % 8 != 1:
            raise NoSquareRootError("2-adic squares among units are ≡ 1 mod 8")
        # Newton on the inverse root: a·y² ≡ 1 (mod 2^m) gives it mod 2^(2m-2)
        # for y(3 - a·y²)/2, which stays ≡ 1 (mod 4) from y = 1.  x = a·y has
        # x² ≡ a (mod 2^(k+1)), which fixes x mod 2^k up to sign, and x ≡ 1 (mod 4).
        y, m = 1, 3
        while m < k + 1:
            m = 2 * m - 2
            y = y * ((3 - a * y * y) % (2 << m) // 2) % (1 << m)
        return a * y % (1 << k)

    a = unit_residue(a, q, q**k)  # one residue mod q^k; each step reads it mod q^m
    x = sqrt_mod(a % q, q)
    if x == 0:
        raise NoSquareRootError("not a unit square")
    m = 1
    while m < k:
        m = min(2 * m, k)
        mod = q**m
        x = (x + a % mod * pow(x, -1, mod)) * ((mod + 1) // 2) % mod
    return x


@lru_cache(maxsize=1024)
def solve_norm_equation(p: int, t, q: int, k: int) -> tuple[int, int]:
    """Solve x² - p·y² = t over Z_q, p a nonsquare q-unit, t a q-unit.

    Returns (x, y) as ints, each exact or a root mod q**k.  Deterministic:
    x₀ = 0, 1, 2, ... is the first integer making (x₀² - t)/p a square unit
    (or zero) in Z_q, and y is its canonical Hensel root; when (x₀² - t)/p
    is zero, x is the root of t and y = 0.  Memoised like ``hensel_sqrt``.
    """
    t = as_rational(t)
    if not is_prime(q):
        raise InvalidParametersError(f"{q} is not prime")
    if valuation(p, q) != 0 or is_square_unit(p, q):
        raise InvalidParametersError(f"{p} must be a nonsquare unit at {q}")
    if valuation(t, q) != 0:
        raise NotANormError(f"{t} is not a q-unit at {q}")
    if hilbert_symbol(t, p, q) != 1:
        raise NotANormError(f"{t} is not a norm from Z_{q}(sqrt {p})")

    if q == 2:
        # p ≡ 5 (mod 8); one of the two scans below succeeds for every odd t.
        for y0 in range(8):
            c = t + p * y0 * y0
            if unit_residue(c, 2, 8) == 1 and valuation(c, 2) == 0:
                return hensel_sqrt(c, 2, k), y0
        for x0 in range(8):
            c = (Fraction(x0 * x0) - t) / p
            if c != 0 and valuation(c, 2) == 0 and unit_residue(c, 2, 8) == 1:
                return x0, hensel_sqrt(c, 2, k)
        raise NotANormError(f"{t} admits no representation at q=2")

    pinv = pow(p % q, -1, q)
    tres = unit_residue(t, q, q)
    for x0 in range(q):
        u = (x0 * x0 - tres) * pinv % q
        if u == 0:
            if x0 == 0:
                continue
            # t ≡ x₀² mod q, so t itself is a square unit: take y = 0.
            return hensel_sqrt(t, q, k), 0
        if legendre(u, q) == 1:
            c = (Fraction(x0 * x0) - t) / p
            return x0, hensel_sqrt(c, q, k)
    raise NotANormError(f"no solution found at q={q} (unexpected)")


def _two_adic_eps_omega(x) -> tuple[int, int]:
    r = unit_residue(x, 2, 8)
    eps = (r - 1) // 2 % 2
    omega = (r * r - 1) // 8 % 2
    return eps, omega


def hilbert_symbol(a, b, place) -> int:
    """Hilbert symbol (a, b) at a finite prime or INFINITE_PLACE; values ±1."""
    a, b = as_rational(a), as_rational(b)
    if a == 0 or b == 0:
        raise InvalidParametersError("hilbert symbol needs nonzero arguments")
    if place == INFINITE_PLACE:
        return -1 if a < 0 and b < 0 else 1
    q = place
    if not isinstance(q, int) or not is_prime(q):
        raise InvalidParametersError(f"not a place: {place!r}")
    alpha, beta = valuation(a, q), valuation(b, q)
    if q == 2:
        eu, ou = _two_adic_eps_omega(a)
        ev, ov = _two_adic_eps_omega(b)
        exp = eu * ev + alpha * ov + beta * ou
        return -1 if exp % 2 else 1
    ru = unit_residue(a, q, q)
    rv = unit_residue(b, q, q)
    eps = (q - 1) // 2 % 2
    sign = -1 if alpha * beta * eps % 2 else 1
    if beta % 2:
        sign *= legendre(ru, q)
    if alpha % 2:
        sign *= legendre(rv, q)
    return sign


def hashimoto_violation(delta: int, level: int, p: int) -> str | None:
    """The first admissibility condition p fails for a validated (Δ, N), or None.

    For Δ > 1 the prime p must be ≡ 1 (mod 4), ≡ 5 (mod 8) when Δ is even,
    ≡ 1 (mod 8) when N is even, coprime to ΔN, a non-residue at every odd
    prime of Δ and a residue at every odd prime of N; the split algebra
    Δ = 1 uses p = 1.
    """
    if delta == 1:
        return None if p == 1 else "the split algebra uses p = 1, a = 0"
    if p % 4 != 1 or not is_prime(p):
        return f"p = {p} must be a prime ≡ 1 (mod 4)"
    if delta % 2 == 0 and p % 8 != 5:
        return f"p = {p} must be ≡ 5 (mod 8) when the discriminant is even"
    if level % 2 == 0 and p % 8 != 1:
        return f"p = {p} must be ≡ 1 (mod 8) when the level is even"
    if gcd(p, delta * level) != 1:
        return f"p = {p} must not divide ΔN = {delta * level}"
    for ell in prime_factors(delta):
        if ell != 2 and legendre(p, ell) != -1:
            return f"p = {p} must be a non-residue mod {ell}"
    for ell in prime_factors(level):
        if ell != 2 and legendre(p, ell) != 1:
            return f"p = {p} must be a residue mod {ell}"
    return None


def find_hashimoto_prime(delta: int, level: int) -> int:
    """Smallest prime p <= DEFAULT_PRIME_BOUND with no ``hashimoto_violation``;
    p = 1 for delta = 1.

    The search is memoised; validation runs on every call, and a failed
    search raises again instead of being cached.
    """
    _validate_delta_level(delta, level)
    if delta == 1:
        return 1
    return _first_admissible_prime(delta, level, DEFAULT_PRIME_BOUND)


# The bound is part of the cache key, so a search under another bound never
# reads a stale entry.
@lru_cache(maxsize=1024)
def _first_admissible_prime(delta: int, level: int, bound: int) -> int:
    for p in range(5, bound + 1, 4):
        if hashimoto_violation(delta, level, p) is None:
            return p
    raise SearchExhaustedError(f"no admissible prime below {bound} for ({delta}, {level})")


def find_a(delta: int, level: int, p: int) -> int:
    """Smallest a in [0, p) with a²·delta·level ≡ -1 (mod p); 0 when delta = 1."""
    if delta == 1:
        return 0
    dn = delta * level % p
    if dn == 0:
        raise InvalidParametersError("p divides delta*level")
    target = (-pow(dn, -1, p)) % p
    r = sqrt_mod(target, p)  # raises NoSquareRootError when -1/dn is a non-residue
    if r == 0:
        raise InvalidParametersError("degenerate congruence")
    return min(r, p - r)


def _validate_delta_level(delta: int, level: int):
    if delta < 1 or not is_squarefree(delta):
        raise InvalidParametersError(f"discriminant {delta} must be a positive squarefree integer")
    if len(prime_factors(delta)) % 2:
        raise InvalidParametersError(
            f"discriminant {delta} must have an even number of prime factors"
        )
    if level < 1:
        raise InvalidParametersError(f"level {level} must be a positive integer")
    if gcd(delta, level) != 1:
        raise InvalidParametersError(f"level {level} and discriminant {delta} must be coprime")
