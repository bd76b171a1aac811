"""Exact arithmetic in GF(q) for prime powers q.

Elements are encoded as integers in [0, q): the base-p digits of an
encoding are the coefficients of the residue polynomial, lowest degree
first.  The integer order of these encodings is the single total order
used by every downstream vertex enumeration, so two runs (or two
machines) always label points identically.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product


class NotAPrimePower(ValueError):
    """q is not p^k for a prime p and k >= 1."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"q={q} is not a prime power")
    p = None
    m = q
    for d in range(2, q + 1):
        if d * d > m:
            break
        if m % d == 0:
            p = d
            break
    if p is None:
        p = m  # q itself is prime
    k = 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotAPrimePower(f"q={q} has at least two distinct prime factors")
    return p, k


# -- dense polynomial helpers over Z_p (coefficient lists, lowest degree first)

def _poly_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _poly_mul(u: list[int], v: list[int], p: int) -> list[int]:
    out = [0] * (len(u) + len(v) - 1) if u and v else []
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_mod(u: list[int], m: list[int], p: int) -> list[int]:
    # m must be monic
    u = u[:]
    dm = len(m) - 1
    while len(u) - 1 >= dm and u:
        lead = u[-1]
        if lead:
            shift = len(u) - 1 - dm
            for i, c in enumerate(m):
                u[shift + i] = (u[shift + i] - lead * c) % p
        u.pop()
    return _poly_trim(u)


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial-divide a monic polynomial by every monic poly of degree <= k/2."""
    k = len(coeffs) - 1
    if coeffs[0] == 0:  # divisible by x
        return False
    for d in range(1, k // 2 + 1):
        for lower in product(range(p), repeat=d):
            divisor = list(lower) + [1]
            if not _poly_mod(list(coeffs), divisor, p):
                return False
    return True


class FieldSpec:
    """A concrete GF(p^k) with a fixed irreducible modulus.

    Arithmetic methods operate directly on the canonical integer
    encodings.
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ("p", "k", "q", "modulus")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...]):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus

    def __repr__(self):
        return f"FieldSpec(q={self.q}, modulus={list(self.modulus)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    # -- encoding

    def decode(self, a: int) -> list[int]:
        """Base-p digits of an encoding (polynomial coefficients, low first)."""
        digits = []
        for _ in range(self.k):
            a, r = divmod(a, self.p)
            digits.append(r)
        return digits

    def encode(self, digits: list[int]) -> int:
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    # -- arithmetic on encodings

    def add(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a + b) % self.p
        da, db = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(da, db)])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return (-a) % self.p
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        prod = _poly_mul(self.decode(a), self.decode(b), self.p)
        rem = _poly_mod(prod, list(self.modulus), self.p)
        return self.encode(rem + [0] * (self.k - len(rem)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        # a^(q-2) by square and multiply; the unit group has order q-1
        result, base, e = 1, a, self.q - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        result, base = 1, a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def dot(self, u, v) -> int:
        """Inner product of two coordinate vectors of encodings."""
        acc = 0
        for x, y in zip(u, v):
            acc = self.add(acc, self.mul(x, y))
        return acc


@lru_cache(maxsize=None)
def field(q: int) -> FieldSpec:
    """Canonical GF(q): the lexicographically smallest monic irreducible
    modulus (coefficients compared low-degree-first); x itself for k = 1.
    """
    if q > 2**16:
        raise ValueError(f"q={q} exceeds the 2^16 ceiling")
    p, k = factor_prime_power(q)
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for lower in product(range(p), repeat=k):
        coeffs = lower + (1,)
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, k, coeffs)
    raise AssertionError(f"no irreducible polynomial of degree {k} over Z_{p}")
