"""Exact arithmetic in GF(q) for prime powers q <= 2^8, by table lookup.

Elements are encoded as integers in [0, q): the base-p digits of an
encoding are the coefficients of the residue polynomial, lowest degree
first.  The integer order of these encodings is the single total order
used by every downstream vertex enumeration, so two runs (or two
machines) always label points identically.

A field is its q x q uint8 addition and multiplication tables and its
row of inverses, built once by vectorised digit arithmetic, so every
operation is one lookup on ints and integer arrays alike.  A 2^16 table
would take 4 GiB, and no construction under `graphs.MAX_VERTICES` uses
q > 141, hence the ceiling `MAX_Q`.  Lookups return uint8: widen them
before further integer arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

MAX_Q = 2**8


class NotAPrimePower(ValueError):
    """q is not p^k for a prime p and k >= 1."""


class DivisionByZero(ZeroDivisionError):
    """Multiplicative inverse of zero requested."""


def prime_factors(n: int) -> list[tuple[int, int]]:
    """The pairs (p, a) with n = prod p^a, primes ascending, by trial
    division."""
    pairs = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            pairs.append((p, a))
        p += 1
    if n > 1:
        pairs.append((n, 1))
    return pairs


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, k) with q = p^k, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"q={q} is not a prime power")
    pairs = prime_factors(q)
    if len(pairs) > 1:
        raise NotAPrimePower(f"q={q} has at least two distinct prime factors")
    return pairs[0]


def field_order(q: int) -> tuple[int, int]:
    """(p, k) of GF(q), or the error `field(q)` raises; builds no table,
    so a caller can check q before a size check and build after it."""
    if q > MAX_Q:
        raise ValueError(f"q={q} exceeds the 2^8 ceiling")
    return factor_prime_power(q)


class FieldSpec:
    """A concrete GF(p^k) with a fixed irreducible modulus.

    `add`, `mul`, `inv` and `dot` take encodings as ints or integer
    arrays and return uint8 lookups in their broadcast shape.  Instances
    and their read-only tables are safe to share across threads.
    """

    __slots__ = ("p", "k", "q", "modulus", "add_table", "mul_table", "inv_table")

    def __init__(self, p: int, k: int, modulus: tuple[int, ...], add_table, mul_table):
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = modulus
        self.add_table = add_table.astype(np.uint8)
        self.mul_table = mul_table.astype(np.uint8)
        self.inv_table = np.argmax(self.mul_table == 1, axis=1).astype(np.uint8)
        for table in (self.add_table, self.mul_table, self.inv_table):
            table.flags.writeable = False

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

    def add(self, a, b):
        return self.add_table[a, b]

    def mul(self, a, b):
        return self.mul_table[a, b]

    def inv(self, a):
        if np.any(np.asarray(a) == 0):
            raise DivisionByZero(f"inverse of 0 in GF({self.q})")
        return self.inv_table[a]

    def dot(self, u, v):
        """Inner product along the last axis of two coordinate arrays."""
        u, v = np.asarray(u), np.asarray(v)
        acc = self.mul(u[..., 0], v[..., 0])
        for i in range(1, u.shape[-1]):
            acc = self.add(acc, self.mul(u[..., i], v[..., i]))
        return acc


@lru_cache(maxsize=None)
def field(q: int) -> FieldSpec:
    """Canonical GF(q): the lexicographically smallest monic modulus
    (coefficients compared low-degree-first) whose multiplication table
    has no zero divisor, i.e. the smallest irreducible one, since
    F_p[x]/(f) is a field exactly when f is irreducible; x itself for
    k = 1.
    """
    p, k = field_order(q)
    weights = p ** np.arange(k)
    digits = np.arange(q)[:, None] // weights % p  # q x k, lowest degree first
    add = (digits[:, None] + digits[None]) % p @ weights
    # coefficient j < 2k - 1 of the unreduced product of a and b
    prod = np.zeros((q, q, 2 * k - 1), dtype=np.int64)
    for i in range(k):
        prod[:, :, i : i + k] += digits[:, None, i, None] * digits[None]
    # a reducible modulus is a product with a factor of degree <= k/2, so
    # the rows of the elements of such degrees show every zero divisor
    low = p ** (k // 2 + 1)
    for lower in product(range(p), repeat=k):
        # row j: the digits of x^j mod (x^k + lower), for j < 2k - 1
        rows = list(np.eye(k, dtype=np.int64))
        for _ in range(k - 1):
            top = rows[-1]
            rows.append((np.concatenate(([0], top[:-1])) - top[-1] * np.array(lower)) % p)
        reduce = np.array(rows)
        if (prod[1:low, 1:] @ reduce % p).any(axis=2).all():
            return FieldSpec(p, k, lower + (1,), add, prod @ reduce % p @ weights)
    raise AssertionError(f"no irreducible polynomial of degree {k} over Z_{p}")
