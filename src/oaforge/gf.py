"""Arithmetic in GF(p^e).

Elements are integers in [0, q) under the encoding n = sum(c[i] * p**i) of the
coefficient vector c (low-order first) of the residue polynomial.  The element
enumeration 0, 1, 2, ... therefore starts with the additive and multiplicative
identities, and every constructed array downstream is reproducible because the
modulus is itself chosen canonically.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConstraintError

MAX_ORDER = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _over_cap(order: int | str) -> ConstraintError:
    return ConstraintError(f"field order {order} exceeds cap {MAX_ORDER}")


def prime_power(q: int) -> tuple[int, int]:
    """Factor q as p^e with p prime, or raise ValueError (a ConstraintError
    naming the cap for q above MAX_ORDER, before any factoring).  The
    smallest factor p is found by trial division up to sqrt(q); none there
    means q is prime."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q > MAX_ORDER:
        raise _over_cap(q)
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    e = 0
    m = q
    while m % p == 0:
        m //= p
        e += 1
    if m != 1:
        raise ValueError(f"{q} is not a prime power")
    return p, e


def parse_order(text: str) -> tuple[int, int]:
    """Parse a field order given as 'p^e' or as a plain prime power.  An
    order above MAX_ORDER is refused before p is tested or p^e computed:
    e at or above the cap's bit length already gives 2^e > MAX_ORDER."""
    if "^" in text:
        base, _, exp = text.partition("^")
        p, e = int(base), int(exp)
        if p > 1 and (p > MAX_ORDER or e >= MAX_ORDER.bit_length() or p**e > MAX_ORDER):
            raise _over_cap(f"{p}^{e}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("exponent must be >= 1")
        return p, e
    return prime_power(int(text))


# -- polynomial helpers over Z_p; coefficient tuples, low-order first, trimmed


def _trim(c: tuple[int, ...]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c = c[:-1]
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(tuple(out))


def _poly_mod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    inv_lead = pow(m[-1], p - 2, p)  # m is monic here, but stay general
    while len(a) - 1 >= dm and _trim(tuple(a)):
        a = list(_trim(tuple(a)))
        if len(a) - 1 < dm:
            break
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % p
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % p
    return _trim(tuple(a))


def _monic_polys(p: int, deg: int):
    for low in itertools.product(range(p), repeat=deg):
        yield tuple(low) + (1,)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for m in _monic_polys(p, d):
            if not _poly_mod(coeffs, m, p):
                return False
    return True


def find_irreducible(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically smallest (by ascending encoding of the low-order
    coefficients) monic irreducible polynomial of degree e over Z_p.  Orders
    p^e above MAX_ORDER are refused before any search."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"degree must be >= 1, got {e}")
    if p**e > MAX_ORDER:
        raise _over_cap(p**e)
    if e == 1:
        return (0, 1)  # x itself; GF(p) needs no reduction
    for n in range(p**e):
        low = tuple((n // p**i) % p for i in range(e))
        cand = low + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


def digitwise(radices, a, b, sign: int = 1):
    """a + sign * b digit by digit, each digit mod its radix, on mixed-radix
    codes (first radix least significant).  a and b are ints, giving an int,
    or integer arrays broadcast as in numpy, giving an array of their dtype."""
    out, w = 0 * (a + b), 1  # of the broadcast shape, also for no radices
    for r in radices:
        out = out + (a // w % r + sign * (b // w % r)) % r * w
        w *= r
    return out


class Field:
    """GF(p^e) with the canonical modulus from find_irreducible.

    Immutable; all operations are pure functions of integer encodings.
    Addition, negation and their tables are digit arithmetic (`digitwise`);
    mul, inv and pow are lookups in O(q) log/antilog tables built on first
    use (Lidl & Niederreiter, Finite Fields, 1997, ch. 9).
    """

    def __init__(self, p: int, e: int = 1):
        self.modulus = find_irreducible(p, e)
        self.p = p
        self.e = e
        self.q = p**e
        self._radices = (p,) * e

    def __repr__(self):
        return f"Field(p={self.p}, e={self.e})"

    def elements(self) -> range:
        """All q elements in ascending encoding; starts 0, 1."""
        return range(self.q)

    def coeffs(self, a: int) -> tuple[int, ...]:
        self._check(a)
        return tuple((a // self.p**i) % self.p for i in range(self.e))

    def encode(self, coeffs) -> int:
        if len(coeffs) != self.e:
            raise ValueError(f"expected {self.e} coefficients")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficient out of range")
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def _check(self, a: int):
        if not 0 <= a < self.q:
            raise ValueError(f"element {a} out of range [0, {self.q})")

    @cached_property
    def _logs(self) -> tuple[list[int], list[int]]:
        """(log, exp) over the smallest primitive g: exp[j] = g^j for
        j < 2(q - 1) and log[g^j] = j mod q - 1.  Listing the powers is the
        one use of the modulus's polynomial multiply."""
        p, q = self.p, self.q
        for g in range(1, q):
            powers, cg = [1], self.coeffs(g)
            while len(powers) < q - 1:
                x = _poly_mod(_poly_mul(self.coeffs(powers[-1]), cg, p), self.modulus, p)
                if x == (1,):
                    break
                powers.append(self.encode(x + (0,) * (self.e - len(x))))
            else:
                break
        log = [0] * q
        for j, x in enumerate(powers):
            log[x] = j
        return log, powers * 2

    def add(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return digitwise(self._radices, a, b)

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return digitwise(self._radices, a, b, -1)

    def mul(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        if not a or not b:
            return 0
        log, exp = self._logs
        return exp[log[a] + log[b]]

    def pow(self, a: int, n: int) -> int:
        self._check(a)
        if not a:
            return self.inv(a) if n < 0 else int(n == 0)
        log, exp = self._logs
        return exp[log[a] * n % (self.q - 1)]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        log, exp = self._logs
        return exp[-log[a] % (self.q - 1)]

    # -- lookup tables for vectorized row generation

    @cached_property
    def add_table(self) -> np.ndarray:
        x = np.arange(self.q, dtype=np.int32)
        return digitwise(self._radices, x[:, None], x)

    @cached_property
    def mul_table(self) -> np.ndarray:
        log, exp = (np.array(t, dtype=np.int32) for t in self._logs)
        t = exp[log[:, None] + log]
        t[0] = t[:, 0] = 0
        return t

    @cached_property
    def neg_table(self) -> np.ndarray:
        return digitwise(self._radices, 0, np.arange(self.q, dtype=np.int32), -1)


@lru_cache(maxsize=None)
def make_field(p: int, e: int = 1) -> Field:
    """Shared immutable Field instances; same (p, e) always compares equal."""
    return Field(p, e)

