"""Field arithmetic tests.

The reference inverse below uses the extended Euclidean algorithm, an
independent route from the pow(a, p-2, p) used by the library.
"""

import random
from fractions import Fraction

import pytest

from tracezero.errors import DivisionByZero, MalformedInput
from tracezero.fields import MAX_MODULUS, Field, is_prime


def egcd_inverse(a: int, p: int) -> int:
    """Reference modular inverse via extended Euclid."""
    old_r, r = a % p, p
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1, "not invertible"
    return old_s % p


def sieve_primes(limit: int) -> set:
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, limit + 1, i):
                flags[j] = False
    return {i for i, f in enumerate(flags) if f}


def test_is_prime_matches_sieve():
    primes = sieve_primes(2000)
    for n in range(2000):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large_cases():
    assert is_prime(2 ** 31 - 1)          # Mersenne
    assert not is_prime(2 ** 31 - 3)
    assert is_prime(104729)
    assert not is_prime(104729 * 104729)
    # strong pseudoprime to base 2 alone
    assert not is_prime(3215031751)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError):
        Field.prime(10)
    with pytest.raises(ValueError):
        Field.prime(1)
    with pytest.raises(ValueError):
        Field.prime(MAX_MODULUS + 11)


def test_inverse_against_euclid():
    rng = random.Random(7)
    for p in (2, 3, 5, 101, 65537, 2 ** 31 - 1):
        f = Field.prime(p)
        for _ in range(50):
            a = rng.randrange(1, p)
            inv = f.inv(a)
            assert inv == egcd_inverse(a, p)
            assert f.mul(a, inv) == 1


def test_inverse_small_table():
    f5 = Field.prime(5)
    # full inverse table of F_5
    assert [f5.inv(a) for a in range(1, 5)] == [1, 3, 2, 4]
    with pytest.raises(DivisionByZero):
        f5.inv(0)


def test_rational_field_ops():
    q = Field.rationals()
    a = Fraction(3, 7)
    b = Fraction(-2, 5)
    assert q.add(a, b) == Fraction(1, 35)
    assert q.mul(a, b) == Fraction(-6, 35)
    assert q.inv(a) == Fraction(7, 3)
    assert q.div(b, a) == Fraction(-14, 15)
    with pytest.raises(DivisionByZero):
        q.inv(Fraction(0))


def test_coerce_normal_forms():
    f7 = Field.prime(7)
    assert f7.coerce(-1) == 6
    assert f7.coerce(15) == 1
    assert f7.coerce("3") == 3
    # rational strings reduce mod p via inverse
    assert f7.coerce("1/2") == f7.mul(1, f7.inv(2))
    q = Field.rationals()
    assert q.coerce("3/6") == Fraction(1, 2)
    assert q.coerce(4) == Fraction(4)


def test_coerce_rejects_garbage():
    f7 = Field.prime(7)
    with pytest.raises(MalformedInput):
        f7.coerce("x")
    with pytest.raises(MalformedInput):
        Field.rationals().coerce("1/0")


def test_field_mismatch_checks():
    f5 = Field.prime(5)
    f7 = Field.prime(7)
    assert f5 != f7
    assert f5 == Field.prime(5)
    assert hash(f5) == hash(Field.prime(5))


def test_arith_dispatch_and_random_laws():
    rng = random.Random(11)
    for f in (Field.rationals(), Field.prime(101)):
        for _ in range(200):
            a = f.random(rng)
            b = f.random(rng)
            c = f.random(rng)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
            assert f.sub(a, a) == f.zero()
            if not f.is_zero(b):
                assert f.mul(f.div(a, b), b) == a


def test_serialization_round_trip():
    for f in (Field.rationals(), Field.prime(13)):
        assert Field.from_json(f.to_json()) == f
    q = Field.rationals()
    assert q.from_str(q.to_str(Fraction(-3, 4))) == Fraction(-3, 4)
    f13 = Field.prime(13)
    assert f13.from_str(f13.to_str(12)) == 12
