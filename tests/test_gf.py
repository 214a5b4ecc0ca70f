"""Field arithmetic: canonical moduli, encodings, and exhaustive field laws."""

import re
import time
import tracemalloc
from math import prod

import pytest

from oaforge.errors import ConstraintError
from oaforge.gf import (Field, factor, find_irreducible, is_prime, make_field, parse_order,
                        prime_power)
from oaforge.work import MAX_ORDER


def poly_mul_mod(a, b, modulus, p):
    """Independent reference: coefficient-list multiplication and long
    division, no shared code with the Field implementation."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg_m = len(modulus) - 1
    while len(prod) >= len(modulus):
        lead = prod[-1]
        if lead:
            shift = len(prod) - len(modulus)
            for i, c in enumerate(modulus):
                prod[shift + i] = (prod[shift + i] - lead * c) % p
        prod.pop()
    return prod


def test_find_irreducible_prime_field_sentinel():
    assert find_irreducible(2, 1) == (0, 1)
    assert find_irreducible(5, 1) == (0, 1)


def test_find_irreducible_gf4():
    # exhaustive scan: of the 4 monic quadratics over Z2 only x^2+x+1 is rootless
    rootless = []
    for c0 in range(2):
        for c1 in range(2):
            if all((x * x + c1 * x + c0) % 2 for x in range(2)):
                rootless.append((c0, c1, 1))
    assert rootless == [(1, 1, 1)]
    assert find_irreducible(2, 2) == (1, 1, 1)


def test_find_irreducible_gf9():
    # exhaustive root check over Z3: x^2+1 is the first rootless monic quadratic
    assert all((x * x + 1) % 3 for x in range(3))
    assert find_irreducible(3, 2) == (1, 0, 1)


def test_find_irreducible_deterministic():
    assert find_irreducible(2, 6) == find_irreducible(2, 6)
    assert find_irreducible(3, 4) == find_irreducible(3, 4)


def test_find_irreducible_rejects_bad_input():
    with pytest.raises(ValueError):
        find_irreducible(4, 2)
    with pytest.raises(ValueError):
        find_irreducible(2, 0)
    with pytest.raises(ValueError, match="exceeds cap 4096"):
        find_irreducible(2, 13)


def test_make_field_examples():
    assert make_field(5, 1).q == 5
    f4 = make_field(2, 2)
    assert f4.q == 4 and f4.modulus == (1, 1, 1)
    assert make_field(3, 2).q == 9


def test_element_enumeration():
    assert list(make_field(3, 1).elements()) == [0, 1, 2]
    f4 = make_field(2, 2)
    assert list(f4.elements()) == [0, 1, 2, 3]
    assert f4.coeffs(2) == (0, 1)  # the generator x
    assert f4.coeffs(3) == (1, 1)  # x + 1
    f9 = make_field(3, 2)
    assert len(list(f9.elements())) == 9
    assert f9.coeffs(3) == (0, 1)


def test_gf5_and_gf4_products():
    f5 = make_field(5, 1)
    assert f5.mul(2, 3) == 1
    f4 = make_field(2, 2)
    # x * (x+1) via the independent polynomial oracle
    ref = poly_mul_mod([0, 1], [1, 1], [1, 1, 1], 2)
    assert f4.encode(tuple(ref) + (0,) * (2 - len(ref))) == 1
    assert f4.mul(2, 3) == 1
    assert f4.inv(2) == 3


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(7, 1).inv(0)


def test_mul_against_polynomial_oracle_gf8_gf9():
    for p, e in ((2, 3), (3, 2)):
        f = make_field(p, e)
        m = list(f.modulus)
        for a in f.elements():
            for b in f.elements():
                ref = poly_mul_mod(list(f.coeffs(a)), list(f.coeffs(b)), m, p)
                ref += [0] * (e - len(ref))
                assert f.mul(a, b) == f.encode(tuple(ref))


SMALL_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31,
                32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_laws_exhaustive(q):
    f = make_field(*prime_power(q))
    # x^q = x for every element
    for x in f.elements():
        assert f.pow(x, q) == x
    # multiplicative group: closure under inverse, a * inv(a) = 1
    for a in range(1, q):
        assert f.mul(a, f.inv(a)) == 1
    # additive group is elementary abelian of exponent p
    for a in f.elements():
        acc = 0
        for _ in range(f.p):
            acc = f.add(acc, a)
        assert acc == 0


@pytest.mark.parametrize("q", [4, 8, 9, 16, 27])
def test_associativity_distributivity_exhaustive(q):
    f = make_field(*prime_power(q))
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_tables_match_scalar_ops():
    f = make_field(2, 3)
    for a in f.elements():
        for b in f.elements():
            assert f.add_table[a, b] == f.add(a, b)
            assert f.mul_table[a, b] == f.mul(a, b)
        assert f.neg_table[a] == f.neg(a)


def _digits(x, p, e):
    return [x // p**i % p for i in range(e)]


def _number(digits, p):
    return sum(d * p**i for i, d in enumerate(digits))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_scalar_ops_and_tables_match_the_polynomial_oracle(q):
    f = make_field(*prime_power(q))
    p, e, m = f.p, f.e, list(f.modulus)
    mul = {(a, b): _number(poly_mul_mod(_digits(a, p, e), _digits(b, p, e), m, p), p)
           for a in range(q) for b in range(q)}
    inv = {a: b for (a, b), c in mul.items() if c == 1}
    for a in range(q):
        neg = _number([-d % p for d in _digits(a, p, e)], p)
        assert f.neg(a) == f.neg_table[a] == neg
        for b in range(q):
            add = _number([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p)
            assert f.add(a, b) == f.add_table[a, b] == add
            assert f.sub(add, b) == a
            assert f.mul(a, b) == f.mul_table[a, b] == mul[a, b]
        power = 1
        for n in range(2 * q + 1):  # a^n by repeated multiplication
            assert f.pow(a, n) == power
            if a:
                assert f.pow(a, -n) == inv[power]
            power = mul[power, a]
        if a:
            assert f.inv(a) == inv[a]
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0
    for bad in (lambda: f.inv(0), lambda: f.pow(0, -1)):
        with pytest.raises(ZeroDivisionError):
            bad()
    for op in (f.add, f.sub, f.mul):
        for args in ((q, 0), (0, q), (-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="out of range"):
                op(*args)
    for op in (f.neg, f.inv, lambda a: f.pow(a, 2)):
        with pytest.raises(ValueError, match="out of range"):
            op(q)


@pytest.mark.parametrize("p, e", [(4093, 1), (3, 7), (2, 8), (2, 12)])
def test_scalar_ops_build_no_square_table(p, e):
    # the largest prime field, the largest odd-characteristic extension, a
    # binary field of degree 8 and the largest binary field under MAX_ORDER
    f = Field(p, e)
    tracemalloc.start()
    try:
        a, b = f.q - 2, f.q - 3
        f.add(a, b), f.sub(a, b), f.neg(a), f.mul(a, b), f.inv(a), f.pow(a, -7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert not {"add_table", "mul_table", "neg_table"} & set(vars(f))


def test_gf256_tables_build_fast():
    f = Field(2, 8)
    start = time.perf_counter()
    f.add_table, f.mul_table, f.neg_table
    assert time.perf_counter() - start < 0.1


def test_parse_order():
    assert parse_order("3^2") == (3, 2)
    assert parse_order("9") == (3, 2)
    assert parse_order("7") == (7, 1)
    with pytest.raises(ValueError):
        parse_order("6")
    with pytest.raises(ValueError):
        parse_order("4^2")  # base must be prime
    assert prime_power(8) == (2, 3)


def test_order_cap():
    with pytest.raises(ValueError):
        Field(2, 13)


def _prime_power_by_every_divisor(q):
    """The first definition of prime_power: trial division by every p up to
    q, kept as the reference."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, e
    raise ValueError(f"{q} is not a prime power")


def test_prime_power_agrees_with_trial_division_by_every_divisor():
    for q in range(-2, 5000):
        if q > MAX_ORDER:
            with pytest.raises(ConstraintError, match=f"field order {q} exceeds cap 4096"):
                prime_power(q)
            continue
        try:
            want = _prime_power_by_every_divisor(q)
        except ValueError:
            with pytest.raises(ValueError):
                prime_power(q)
        else:
            assert prime_power(q) == want, q


def test_factor_is_the_factorization_up_to_the_cap():
    for n in range(1, 5000):
        parts = factor(n)
        assert prod(p**e for p, e in parts) == n and all(is_prime(p) for p, _ in parts)
        assert [p for p, _ in parts] == sorted({p for p, _ in parts})
    # trial division stops at MAX_ORDER: a rest above it is kept whole
    assert factor(4 * 4099 * 4111) == [(2, 2), (4099 * 4111, 1)]
    start = time.perf_counter()
    assert factor(10**18 + 3) == [(10**18 + 3, 1)]
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("q", [2**31 - 1, 3**19, 10**18 + 3])
def test_prime_power_refuses_orders_above_the_cap_at_once(q):
    # 10^18 + 3 is prime: trial division would take 10^9 steps
    start = time.perf_counter()
    with pytest.raises(ConstraintError, match=f"field order {q} exceeds cap 4096"):
        prime_power(q)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", ["2^20000", "3^999999999", "3^8", "1000000000000000003",
                                  "1000000000000000003^1", "4099"])
def test_parse_order_refuses_orders_above_the_cap_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ConstraintError, match=rf"field order {re.escape(text)} exceeds cap 4096"):
        parse_order(text)
    assert time.perf_counter() - start < 0.1
