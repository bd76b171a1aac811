import numpy as np
import pytest

from cerg.field import (
    MAX_Q,
    DivisionByZero,
    NotAPrimePower,
    factor_prime_power,
    field,
    prime_factors,
)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64]


def poly_long_division_mul(spec, a, b):
    """Independent oracle: schoolbook polynomial product reduced by long
    division, all over Z_p."""
    p = spec.p
    da, db = spec.decode(a), spec.decode(b)
    prod = [0] * (2 * spec.k)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] = (prod[i + j] + x * y) % p
    mod = list(spec.modulus)
    for top in range(len(prod) - 1, spec.k - 1, -1):
        coef = prod[top]
        if coef:
            for i, c in enumerate(mod):
                prod[top - spec.k + i] = (prod[top - spec.k + i] - coef * c) % p
    return spec.encode(prod[: spec.k])


def test_prime_power_factorization():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(4) == (2, 2)
    assert factor_prime_power(27) == (3, 3)
    for bad in (1, 6, 10, 12, 100):
        why = "is not a prime power" if bad < 2 else "has at least two distinct prime factors"
        with pytest.raises(NotAPrimePower, match=f"q={bad} {why}"):
            factor_prime_power(bad)


def test_prime_factors_match_sympy():
    import sympy

    for n in range(1, 2000):
        assert prime_factors(n) == sorted(sympy.factorint(n).items()), n


def test_field_constructor_cases():
    f5 = field(5)
    assert (f5.p, f5.k) == (5, 1)
    f4 = field(4)
    assert f4.modulus == (1, 1, 1)  # x^2+x+1, the unique irreducible quadratic
    with pytest.raises(NotAPrimePower):
        field(6)


def test_small_field_arithmetic_values():
    assert field(3).add(2, 2) == 1
    assert field(4).mul(2, 2) == 3  # x * x = x + 1 mod (x^2+x+1)
    assert field(2).inv(1) == 1
    f9 = field(9)
    assert f9.modulus == (1, 0, 1)  # x^2+1 is the lex-smallest irreducible
    assert f9.mul(3, 3) == 2  # x * x = -1


@pytest.mark.parametrize("q", [2, 4, 9])
def test_inverse_of_zero_raises(q):
    with pytest.raises(DivisionByZero):
        field(q).inv(0)


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_nonzero_elements_form_a_group(q):
    spec = field(q)
    units = range(1, q)
    for a in units:
        row = {spec.mul(a, b) for b in units}
        assert row == set(units)  # latin row: closure + cancellation
        assert spec.mul(a, spec.inv(a)) == 1
        assert spec.mul(a, 1) == a


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_distributivity_exhaustive(q):
    spec = field(q)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                left = spec.mul(a, spec.add(b, c))
                right = spec.add(spec.mul(a, b), spec.mul(a, c))
                assert left == right


@pytest.mark.parametrize("q", [4, 8, 9, 16])
def test_mul_associative_exhaustive(q):
    spec = field(q)
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_encode_decode_round_trip(q):
    spec = field(q)
    for e in range(q):
        assert spec.encode(spec.decode(e)) == e


@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_tables_match_digitwise_addition_and_long_division(q):
    spec = field(q)
    assert spec.add_table.dtype == spec.mul_table.dtype == np.uint8
    for a in range(q):
        for b in range(q):
            digits = [x + y for x, y in zip(spec.decode(a), spec.decode(b))]
            assert spec.add_table[a, b] == spec.encode(digits)
            assert spec.mul_table[a, b] == poly_long_division_mul(spec, a, b)


# the lexicographically smallest monic irreducible modulus of every
# GF(p^k), k >= 2, up to the ceiling, as the trial-division search gave it
MODULI = {
    4: (1, 1, 1), 8: (1, 0, 1, 1), 9: (1, 0, 1), 16: (1, 0, 0, 1, 1), 25: (1, 1, 1),
    27: (1, 0, 2, 1), 32: (1, 0, 0, 1, 0, 1), 49: (1, 0, 1), 64: (1, 0, 0, 0, 0, 1, 1),
    81: (1, 0, 1, 1, 1), 121: (1, 0, 1), 125: (1, 0, 1, 1), 128: (1, 0, 0, 0, 0, 0, 1, 1),
    169: (1, 3, 1), 243: (1, 0, 0, 0, 2, 1), 256: (1, 0, 0, 0, 1, 1, 0, 1, 1),
}


def test_moduli_of_every_extension_field_up_to_the_ceiling():
    assert {q: field(q).modulus for q in MODULI} == MODULI
    with pytest.raises(ValueError, match="exceeds the 2\\^8 ceiling"):
        field(MAX_Q + 1)


def test_lookups_take_integer_arrays():
    spec = field(9)
    a = np.arange(9)
    assert np.array_equal(spec.mul(a, 1), a)
    assert np.array_equal(spec.mul(a[1:], spec.inv(a[1:])), np.ones(8))
    with pytest.raises(DivisionByZero):
        spec.inv(a)
    points = np.array([[1, 2], [3, 4], [5, 6]])
    assert spec.dot(points, [1, 1]).tolist() == [spec.add(1, 2), spec.add(3, 4), spec.add(5, 6)]


def test_field_is_cached_and_deterministic():
    assert field(16) is field(16)
    assert field(16).modulus == field(16).modulus
