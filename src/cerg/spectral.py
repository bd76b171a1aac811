"""Exact spectrum certification and the related identity checks.

A claimed spectrum k^1, theta_1^m_1, ..., theta_d^m_d of a connected
k-regular graph is accepted only when (a) the moment equations
sum m_i theta_i^j = tr A^j hold for j = 0..d and (b) the product of the
nontrivial factors (A - theta_i I) equals ell*J entrywise.  Claimed
eigenvalues must be integers (the only rational roots of A's monic
integer characteristic polynomial), so the product is an integer
polynomial in A, checked as a combination of the graph's exact powers
streamed in row tiles (`regularity.powers`), whose first mismatching
entry in row-major order is the witness.  These two checks are the whole
certificate: together they fix the spectrum, so no factor of the
product can be dropped (see `certify`).

Claim-free spectra come from the Hoffman polynomial where a graph has
one.  A k-regular graph is first searched for the smallest d <= 4 with
A^d = sum_{j<d} c_j A^j + ell J for integers c_j, ell.  The
coefficients are solved over Q from the distinct entry patterns of a few
rows of the powers, each row a vector-matrix product, and then the
relation is checked on every
entry in bound-checked int64 (`Powers.combination`), so it holds as a
matrix identity.  Multiplying it by A^(t-d) and using AJ = kJ gives
tr A^t = sum_j c_j tr A^(t-d+j) + ell n k^(t-d) for every t >= d, so the
exact tr A^0..tr A^(d-1) yield every power sum in Python integers
(`_power_sums`).  `cospectral` compares two such graphs by their first
ten power sums, at any n; `goldberg` tests a candidate eigenvalue as a
root of x^d - sum c_j x^j; `char_poly` (n <= 512) turns the sums up to
tr A^n into the characteristic polynomial by Newton's identities, whose
divisions are exact because the coefficients are integers.  An
irregular graph, or a regular one with no such relation (a connected
one with more than five distinct eigenvalues, say), falls back to
`char_poly`'s other route, and so to its n <= 512 cap: reducing the
matrix mod the primes of [2^26 - 2^13, 2^26) in descending order
(`_crt_primes`), taking the Hessenberg char poly of each image, and
CRT-lifting the coefficients under a proven Hadamard-style bound.  No
route lets a float into the result.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate

import numpy as np

from . import regularity
from .graphs import CheckFailed, Graph, _is_int
from .regularity import (
    ExactnessBoundExceeded,
    NotEdgeRegular,
    NotRegular,
    jsonable,
    powers,
    profile,
)


class Disconnected(CheckFailed):
    pass


class AnnihilationFailed(CheckFailed):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class MomentMismatch(CheckFailed):
    def __init__(self, j, expected, got):
        super().__init__(f"moment j={j}: claimed {got}, trace gives {expected}")
        self.j = j


class WrongEigenvalueCount(CheckFailed):
    pass


class ClaimInvalid(CheckFailed):
    """Claimed spectrum is structurally impossible for the graph."""


class NotAnEigenvalue(CheckFailed):
    pass


class TooLarge(ValueError):
    pass


CHAR_POLY_MAX_N = 512


def _as_fraction_pairs(claimed):
    pairs = sorted(((Fraction(t), int(m)) for t, m in claimed), reverse=True)
    if len({t for t, _ in pairs}) != len(pairs):
        raise ValueError("claimed eigenvalues must be distinct")
    if any(m < 1 for _, m in pairs):
        raise ValueError("multiplicities must be positive")
    return pairs


@dataclass
class SpectrumCertificate:
    n: int
    k: Fraction
    eigenvalues: tuple[Fraction, ...]  # descending, theta_0 = k first
    multiplicities: tuple[int, ...]
    ell: Fraction
    checks: dict

    @property
    def distinct_count(self) -> int:
        return len(self.eigenvalues)

    def to_json_dict(self) -> dict:
        return {
            "eigs": self.eigenvalues,
            "mults": self.multiplicities,
            "ell": self.ell,
            "checks": self.checks,
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, default=jsonable)


def claim_from_json(obj) -> list[tuple[Fraction, int]]:
    """(eigenvalue, multiplicity) pairs from a parsed claim file.

    ``eigs`` holds integers or [numerator, nonzero denominator] integer
    pairs and ``mults`` integers, equally many; a float, a boolean or any
    other entry raises ValueError naming it rather than being rounded.  A
    NumPy integer, which a library caller may pass, is read as a Python one.
    """
    eigs = []
    for i, e in enumerate(obj["eigs"]):
        if _is_int(e):
            eigs.append(Fraction(int(e)))
        elif isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e)) and e[1]:
            eigs.append(Fraction(int(e[0]), int(e[1])))
        else:
            raise ValueError(
                f"eigs[{i}] = {e!r} is not an integer or a [numerator, nonzero denominator] pair"
            )
    mults = list(obj["mults"])
    for i, m in enumerate(mults):
        if not _is_int(m):
            raise ValueError(f"mults[{i}] = {m!r} is not an integer")
    if len(mults) != len(eigs):
        raise ValueError(f"{len(eigs)} eigenvalues but {len(mults)} multiplicities")
    return list(zip(eigs, map(int, mults)))


def _traces(g: Graph, up_to: int) -> list[int]:
    """[tr A^0, ..., tr A^up_to] exactly (up_to <= 4).

    tr A^3 and tr A^4 come from the lambda/mu tally, which the graph
    keeps from a pass over A^2 that reached the last row, or else makes
    in one (`Powers.tally`)."""
    out = [g.n, 0, 2 * g.edge_count()]
    if up_to >= 3:
        lam, mu = powers(g).tally()
        # tr A^3 sums A^2 over ordered adjacent pairs, each unordered one twice
        out.append(2 * sum(v * c for v, c in lam.items()))
        # tr A^4 sums the squared entries of the symmetric A^2: each
        # unordered pair twice, and the degrees on the diagonal
        off = sum(v * v * c for v, c in lam.items()) + sum(v * v * c for v, c in mu.items())
        out.append(2 * off + sum(d * d for d in g.degrees()))
    return out[: up_to + 1]


def certify(g: Graph, claimed) -> SpectrumCertificate:
    """Accept a claimed spectrum or raise with an exact witness.

    A's characteristic polynomial is monic with integer coefficients, so
    its rational roots are integers: a claimed eigenvalue with a
    denominator > 1 is rejected up front with `ClaimInvalid`.  Once the
    moments pass, every |theta_i| <= sqrt(n k) (sum m_i theta_i^2 = n k
    with every m_i >= 1; for d = 1 the first moment gives <= k), which
    bounds the coefficients of the product of factors, formed as
    sum c_j A^j from the streamed powers and compared with ell*J one row
    tile at a time.  Moments j <= 2 need no product and are checked
    first, and they already give that bound.  tr A^3 and tr A^4 come
    from the tally (`_traces`), read before a failing product's witness,
    so a failing moment is reported first; a product already verified is
    not formed again, and a failing one stops at its first mismatch.

    The accepted factors are minimal, so no drop-one sub-product is
    checked.  Annihilation makes prod (A - theta_i I) vanish on the
    orthogonal complement of the all-ones vector 1, which A preserves
    (A is symmetric and A1 = k1); so every eigenvalue of A there is
    some theta_i, and A's spectrum is k^1 with theta_i^t_i for unknown
    t_i >= 0 summing to n - 1.  The moments for j = 0..d give
    sum_i (m_i - t_i) theta_i^j = 0 for those j: d + 1 equations in the
    d unknowns m_i - t_i over distinct theta_i, a Vandermonde system
    with only the zero solution.  So t_i = m_i >= 1 for every i, each
    theta_i is an eigenvalue on the complement of 1, and dropping the
    factor A - theta_i I leaves a product that is nonzero on its
    eigenvectors there, hence not a multiple of J.
    """
    regular, k = g.is_regular()
    if not regular:
        raise NotRegular("certify needs a regular graph")
    if not g.is_connected():
        raise Disconnected("certify needs a connected graph")
    pairs = _as_fraction_pairs(claimed)
    if not pairs:
        raise ClaimInvalid("claim lists no eigenvalues")
    if any(t.denominator != 1 for t, _ in pairs):
        raise ClaimInvalid("claimed eigenvalues must be integers: A's char poly is monic over Z")
    if sum(m for _, m in pairs) != g.n:
        raise MomentMismatch(0, g.n, sum(m for _, m in pairs))
    theta0, m0 = pairs[0]
    if theta0 != k or m0 != 1:
        raise ClaimInvalid(
            f"claim must lead with the valency {k} at multiplicity 1, got {theta0}^{m0}"
        )
    nontrivial = pairs[1:]
    d = len(nontrivial)
    if d > 4:
        raise WrongEigenvalueCount("more than 5 distinct eigenvalues is out of scope")

    def check_moments(traces, start=0):
        # moments j = 0..d determine the multiplicities via a Vandermonde system
        for j, tr in enumerate(traces[start:], start):
            claimed_moment = sum(Fraction(m) * t**j for t, m in pairs)
            if claimed_moment != tr:
                raise MomentMismatch(j, tr, claimed_moment)

    check_moments(_traces(g, min(d, 2)))
    thetas = [t for t, _ in nontrivial]
    ell = Fraction(math.prod(k - t for t in thetas), g.n)
    hit = None
    if ell.denominator == 1:
        product = poly_from_spectrum((t, 1) for t in thetas)
        hit = powers(g).first_mismatch(product, 0, int(ell))
    if d >= 3:
        check_moments(_traces(g, min(d, 4)), 3)
    if ell.denominator != 1:
        raise AnnihilationFailed(
            "ell is not an integer, claim cannot annihilate",
            {"ell": jsonable(ell)},
        )
    if hit is not None:
        i, j, got = hit
        raise AnnihilationFailed(
            f"entry ({i}, {j}) of the annihilating product is {got}, expected {ell}",
            {"entry": (i, j), "got": got, "expected": int(ell)},
        )

    return SpectrumCertificate(
        n=g.n,
        k=Fraction(k),
        eigenvalues=tuple(t for t, _ in pairs),
        multiplicities=tuple(m for _, m in pairs),
        ell=ell,
        checks={"annihilation": True, "moments": True, "minimality": True},
    )


# -- exact characteristic polynomial (modular Hessenberg + CRT)


@cache
def _crt_primes() -> tuple[int, ...]:
    """The 477 primes of [2^26 - 2^13, 2^26), descending, sieved on first
    use by every d < 2^13 = sqrt(2^26).  Their product has over 12000
    bits; the largest bound `char_poly` meets under CHAR_POLY_MAX_N
    (n = 512, k = 511) asks for 2818."""
    lo = 2**26 - 2**13
    prime = np.ones(2**13, dtype=bool)
    for d in range(2, 2**13):
        prime[-lo % d :: d] = False
    return tuple((lo + np.flatnonzero(prime)[::-1]).tolist())


def _hessenberg_charpoly_mod(a: np.ndarray, p: int) -> np.ndarray:
    """char poly coefficients of a mod p, ascending, via Hessenberg form.

    ``a`` is 0/1, so already reduced; its one int64 copy is reduced in
    place.  Each matrix-vector sum adds at most n products of residues
    below p, exact in int64 while n p^2 < 2^63: below 2^61 for the
    primes p < 2^26 of `_crt_primes` and n <= CHAR_POLY_MAX_N = 2^9."""
    n = a.shape[0]
    h = a.astype(np.int64)
    for c in range(n - 2):
        col = h[c + 1 :, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        piv = c + 1 + int(nz[0])
        # rows c + 1 on are zero before column c: swap and update the rest
        if piv != c + 1:
            h[[c + 1, piv], c:] = h[[piv, c + 1], c:]
            h[:, [c + 1, piv]] = h[:, [piv, c + 1]]
        inv = pow(int(h[c + 1, c]), p - 2, p)
        factors = (h[c + 2 :, c] * inv) % p
        h[c + 2 :, c:] = (h[c + 2 :, c:] - factors[:, None] * h[c + 1, c:][None, :]) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2 :] @ factors) % p
    # p_m(x) = (x - h[m,m]) p_{m-1} - sum_i h[i,m] (prod subdiag) p_{i-1}
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    run = np.zeros(n, dtype=np.int64)  # run[i - 1] = prod_{l=i}^{m-1} h[l, l-1]
    for m in range(1, n + 1):
        hmm = int(h[m - 1, m - 1])
        prev = polys[m - 1]
        cur = np.zeros(n + 1, dtype=np.int64)
        cur[1 : m + 1] = prev[:m]
        cur[: m + 1] = (cur[: m + 1] - hmm * prev[: m + 1]) % p
        if m >= 2:
            run[m - 2] = 1
            run[: m - 1] = run[: m - 1] * h[m - 1, m - 2] % p
            weights = h[: m - 1, m - 1] * run[: m - 1] % p
            if weights.any():
                acc = weights @ polys[: m - 1, : m + 1]
                cur[: m + 1] = (cur[: m + 1] - acc) % p
        polys[m] = cur
    return polys[n]


def _crt_signed(residues: list[int], primes: list[int]) -> int:
    x = 0
    mod = 1
    for r, p in zip(residues, primes):
        diff = (r - x) % p
        t = diff * pow(mod % p, p - 2, p) % p
        x += mod * t
        mod *= p
    if x > mod // 2:
        x -= mod
    return x


def _hoffman_candidate(g: Graph, d: int):
    """(coeffs, ell) solving A^d = sum_{j<d} coeffs[j] A^j + ell J over Q
    on the distinct entry patterns of as few rows as determine it, or
    None when those rows contradict every solution or admit no unique
    one.  Row x of each power is one vector-matrix product from the last,
    formed when the search reaches x; a solution must fit every entry of
    the rows formed.  Nothing here is trusted: the caller checks the
    candidate, as integers, on every entry."""
    n = g.n
    basis = []  # (pivot column, row) pairs in reduced echelon form
    seen = set()
    for x in range(n):
        pows = [g.rows(x)]  # row x of A, ..., A^d
        for _ in range(1, d):
            pows.append(regularity.exact_matmul(pows[-1][None, :], g.bits)[0])
        # row y holds (I, A, ..., A^(d-1), J | A^d) at entry (x, y)
        terms = [np.arange(n) == x, *pows[:-1], np.ones(n, np.int64)]
        entries = np.stack([*terms, pows[-1]], axis=1)
        for pattern in map(tuple, entries.tolist()):
            if pattern in seen:
                continue
            seen.add(pattern)
            row = [Fraction(v) for v in pattern]
            for col, b in basis:
                row = [u - row[col] * v for u, v in zip(row, b)]
            col = next((c for c, v in enumerate(row[:-1]) if v), None)
            if col is None:
                if row[-1]:
                    return None  # 0 = nonzero: no relation of degree d
                continue
            row = [v / row[col] for v in row]
            basis = [(c, [u - b[col] * v for u, v in zip(b, row)]) for c, b in basis]
            basis.append((col, row))
        if len(basis) == d + 1:  # and every entry of rows 0..x agrees with it
            sol = [0] * (d + 1)
            for c, b in basis:
                sol[c] = int(b[-1])  # integral at the minimal d; checked later
            return sol[:-1], sol[-1]
    return None


def _hoffman_polynomial(g: Graph):
    """(coeffs, ell) with A^d = sum_{j<d} coeffs[j] A^j + ell J exactly,
    for the smallest d <= 4 that has such a relation, or None.  A
    relation the graph has already verified is not checked again."""
    p = powers(g)
    for d in range(1, 5):
        cand = _hoffman_candidate(g, d)
        if cand is None:
            continue
        coeffs, ell = cand
        relation = [-c for c in coeffs] + [1]
        try:
            hit = p.first_mismatch(relation, -ell, 0)
        except ExactnessBoundExceeded:
            continue
        if hit is None:
            return coeffs, ell
    return None


def _power_sums(g: Graph, up_to: int) -> list[int] | None:
    """[tr A^0, ..., tr A^up_to] from g's verified Hoffman relation, or
    None when g is irregular or has no relation of degree <= 4.

    tr A^0..tr A^(d-1) are exact traces; every later sum follows from
    tr A^t = sum_j c_j tr A^(t-d+j) + ell n k^(t-d).
    """
    regular, k = g.is_regular()
    hoffman = _hoffman_polynomial(g) if regular else None
    if hoffman is None:
        return None
    coeffs, ell = hoffman
    d = len(coeffs)
    sums = _traces(g, d - 1)
    for t in range(d, up_to + 1):
        sums.append(sum(map(operator.mul, coeffs, sums[t - d : t])) + ell * g.n * k ** (t - d))
    return sums[: up_to + 1]


def _refuse_past_ceiling(n: int) -> None:
    if n > CHAR_POLY_MAX_N:
        raise TooLarge(f"n={n} exceeds the char_poly ceiling {CHAR_POLY_MAX_N}")


def _newton_char_poly(traces: list[int]) -> tuple[int, ...]:
    """Ascending char poly coefficients of an n x n integer matrix from
    its power sums tr A^0..tr A^n (Newton's identities).  Each division
    is exact: m a_m is a multiple of m because a_m is an integer."""
    n = len(traces) - 1
    a = [1]  # a[m] is the coefficient of x^(n-m)
    for m in range(1, n + 1):
        s = sum(map(operator.mul, reversed(a), traces[1 : m + 1]))
        q, r = divmod(-s, m)
        assert r == 0, "power sums of an integer matrix give integer coefficients"
        a.append(q)
    return tuple(reversed(a))


def char_poly(g: Graph) -> tuple[int, ...]:
    """Exact characteristic polynomial of A, coefficients ascending.

    A regular graph whose Hoffman polynomial has degree d <= 4 gets it
    from its power sums up to tr A^n (`_power_sums`) by Newton's
    identities.  Any other graph goes through the modular Hessenberg +
    CRT path, one prime image after another.
    """
    n = g.n
    _refuse_past_ceiling(n)
    if n == 0:
        return (1,)
    sums = _power_sums(g, n)
    if sums is not None:
        return _newton_char_poly(sums)
    k_max = max(1, max(g.degrees()))
    # |c_j| <= C(n, j) * k_max^(j/2) by Hadamard on principal minors
    bound_bits = n + math.ceil(n / 2 * math.log2(k_max)) + 2
    # the fewest of the primes whose product passes 2^bound_bits
    window = _crt_primes()
    bits = accumulate(map(math.log2, window))
    primes = window[: next(i for i, b in enumerate(bits, 1) if b > bound_bits)]
    a = g.rows(slice(None))
    images = [_hessenberg_charpoly_mod(a, p) for p in primes]
    coeffs = []
    for j in range(n + 1):
        coeffs.append(_crt_signed([int(img[j]) for img in images], primes))
    assert coeffs[-1] == 1
    return tuple(coeffs)


def poly_from_spectrum(pairs) -> tuple[int, ...]:
    """prod (x - theta)^m as integer coefficients, ascending; thetas must
    be integers."""
    coeffs = [1]
    for theta, mult in pairs:
        t = int(theta)
        if t != theta:
            raise ValueError("only integer eigenvalues give an integer polynomial")
        for _ in range(int(mult)):
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] += c
                nxt[i] -= c * t
            coeffs = nxt
    return tuple(coeffs)


@dataclass
class CospectralReport:
    cospectral: bool
    method: str
    witness_power: int | None = None
    certificate: SpectrumCertificate | None = None

    def __bool__(self):
        return self.cospectral

    def to_json_dict(self):
        return {
            "cospectral": self.cospectral,
            "method": self.method,
            "witness_power": self.witness_power,
        }


@dataclass(eq=False)
class CospectralSide:
    """What `cospectral` compares of one graph, so that a caller can let
    each graph go before it reads the next: the graph's certificate of
    the shared claim, or else its power sums tr A^0..tr A^min(9, n) from
    a verified Hoffman relation (None without one), and the graph itself
    while `char_poly` may still need it (n <= CHAR_POLY_MAX_N)."""

    n: int
    certificate: SpectrumCertificate | None = None
    sums: list[int] | None = None
    graph: Graph | None = None


def cospectral_side(g: Graph, claim=None) -> CospectralSide:
    """g's side of a comparison: certified against ``claim`` when one is
    given, else its first power sums where a relation gives them."""
    if claim is not None:
        return CospectralSide(g.n, certificate=certify(g, claim))
    graph = g if g.n <= CHAR_POLY_MAX_N else None
    return CospectralSide(g.n, sums=_power_sums(g, min(9, g.n)), graph=graph)


def compare_sides(a: CospectralSide, b: CospectralSide) -> CospectralReport:
    """The comparison `cospectral` makes of its two sides.

    Sides certified for one claim are cospectral.  Otherwise the orders
    must agree, and then two sides with power sums have at most five
    distinct eigenvalues each, so tr A^t - tr B^t is a sum of at most ten
    terms (m_A(x) - m_B(x)) x^t over distinct x: if it vanishes for
    t = 0..9, the Vandermonde system makes every term zero and the
    spectra agree (for n < 10, the sums up to t = n fix the char poly by
    Newton's identities).  If the first differing sum is at t = m, Newton's
    identities make x^(n-m) the highest differing coefficient of the two
    characteristic polynomials, which is the witness.  Any other pair
    compares two `char_poly` results, refused past CHAR_POLY_MAX_N.
    """
    if a.certificate is not None:
        return CospectralReport(True, "shared-certificate", certificate=a.certificate)
    if a.n != b.n:
        return CospectralReport(False, "order", witness_power=None)
    if a.sums is not None and b.sums is not None:
        differ = [t for t, (x, y) in enumerate(zip(a.sums, b.sums)) if x != y]
        power = a.n - differ[0] if differ else None
    else:
        _refuse_past_ceiling(a.n)
        p1 = char_poly(a.graph)
        p2 = char_poly(b.graph)
        differ = [j for j in range(len(p1)) if p1[j] != p2[j]]
        power = differ[-1] if differ else None
    return CospectralReport(power is None, "char-poly", witness_power=power)


def cospectral(g1: Graph, g2: Graph, claim=None) -> CospectralReport:
    """Same spectrum, via a shared certified claim, via the first ten
    power sums of two verified Hoffman relations (any size), or else via
    characteristic polynomials (n <= 512); see `compare_sides`."""
    if claim is None and g1.n != g2.n:
        return CospectralReport(False, "order", witness_power=None)
    return compare_sides(cospectral_side(g1, claim), cospectral_side(g2, claim))


@dataclass
class IdentityCheck:
    name: str
    lhs: Fraction
    rhs: Fraction
    equal: bool


@dataclass
class TheoremIdentityReport:
    alpha: Fraction
    beta: Fraction
    gamma: int
    mu: int
    k: int
    n: int
    f1: Fraction
    f2: Fraction
    f3: Fraction
    f4: Fraction
    identities: list[IdentityCheck]
    sign_flipped: bool  # second identity holds with the opposite sign

    @property
    def ok(self) -> bool:
        first, second, third = self.identities
        return first.equal and third.equal and (second.equal or self.sign_flipped)

    def to_json_dict(self):
        return {
            "constants": {
                "alpha": self.alpha,
                "beta": self.beta,
                "gamma": self.gamma,
                "mu": self.mu,
                "k": self.k,
                "n": self.n,
            },
            "f": (self.f1, self.f2, self.f3, self.f4),
            "identities": self.identities,
            "sign_flipped": self.sign_flipped,
            "pass": self.ok,
        }


def _need_four(cert: SpectrumCertificate) -> None:
    if cert.distinct_count != 4:
        raise WrongEigenvalueCount(
            f"need exactly 4 distinct eigenvalues, certificate has {cert.distinct_count}"
        )


def theorem33_identities(
    g: Graph, cert: SpectrumCertificate, alpha, beta, mu, gamma
) -> TheoremIdentityReport:
    """Evaluate the three four-eigenvalue identities exactly.

    The middle identity is usually written with the plain pairwise
    product sum on the right, but expanding the cubic shows the A-
    coefficient is its negation; both sides are reported verbatim and
    ``sign_flipped`` records that |lhs| = |rhs| with lhs = -rhs.
    """
    _need_four(cert)
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    k = cert.eigenvalues[0]
    t1, t2, t3 = cert.eigenvalues[1:]
    n = cert.n
    e1 = t1 + t2 + t3
    e2 = t1 * t2 + t1 * t3 + t2 * t3
    ell = cert.ell
    f1 = mu * (alpha - 1) + k - beta - gamma
    f2 = alpha - mu
    f3 = k * (k - 1 - alpha) + mu * alpha - gamma - mu * (n - k - 1)
    f4 = mu * (k - alpha) + gamma
    identities = [
        IdentityCheck("alpha-mu = e1", f2, e1, f2 == e1),
        IdentityCheck("mu(alpha-1)+k-beta-gamma = e2", f1, e2, f1 == e2),
        IdentityCheck("mu(k-alpha)+gamma = ell", f4, ell, f4 == ell),
    ]
    sign_flipped = (f1 == -e2) and (f1 != e2)
    return TheoremIdentityReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        mu=mu,
        k=int(k),
        n=n,
        f1=f1,
        f2=f2,
        f3=f3,
        f4=f4,
        identities=identities,
        sign_flipped=sign_flipped,
    )


@dataclass
class GoldbergReport:
    theta: Fraction
    theta2: Fraction
    lam: int
    k: int
    lhs: Fraction
    rhs: Fraction
    violated: bool

    def to_json_dict(self):
        return {
            "theta": self.theta,
            "theta2": self.theta2,
            "lambda": self.lam,
            "k": self.k,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "violated": self.violated,
        }


def _poly_eval_fraction(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def goldberg(g: Graph, theta, theta2, cert: SpectrumCertificate | None = None) -> GoldbergReport:
    """Evaluate the edge-regular eigenvalue-pair inequality exactly.

    theta and theta2 must be eigenvalues different from the valency;
    they are validated against the certificate when one is supplied.
    Without one, a graph with a verified Hoffman relation
    A^d = sum_{j<d} c_j A^j + ell J asks h(theta) = 0 exactly, for
    h(x) = x^d - sum c_j x^j, at any n; any other graph asks its
    characteristic polynomial (`char_poly`, n <= 512).

    For theta != k the relation test is exact both ways.  A is symmetric
    and A1 = k1, so A preserves the complement 1^perp of the all-ones
    vector, and its spectrum is k on 1 together with its eigenvalues on
    1^perp, where h(A) = ell J vanishes: each of those is a root of h.
    Conversely let m be the minimal polynomial of A on 1^perp: the
    product of x - x_i over its distinct eigenvalues x_i there, which are
    the distinct roots of the monic integer polynomial char_A(x) / (x - k),
    so m, its squarefree part, is monic over Z.  m(A) vanishes on 1^perp
    and maps 1 to m(k)1, so m(A) = (m(k) / n) J with m(k) / n an
    integer, an entry of the integer matrix m(A): a relation of degree
    deg m.  The polynomial of every relation vanishes on 1^perp, so m
    divides it; and at any degree above deg m the matrices I, A, ...,
    A^(d-1), J are dependent, so `_hoffman_candidate` finds no unique
    candidate there.  The relation `_hoffman_polynomial` returns thus has
    degree deg m, h = m, and every root of h is an eigenvalue of A.
    """
    theta = Fraction(theta)
    theta2 = Fraction(theta2)
    if theta == theta2:
        raise ValueError("the two eigenvalues must be distinct")
    # the relation pass forms A^2 and leaves the tally that profile reads
    hoffman = _hoffman_polynomial(g) if cert is None and g.is_regular()[0] else None
    prof = profile(g, constants=False)
    if not prof.regular:
        raise NotRegular("graph is not regular")
    if len(prof.lambda_multiset) != 1:
        raise NotEdgeRegular("lambda is not constant over edges")
    lam = next(iter(prof.lambda_multiset))
    k = prof.k
    poly = None
    for t in (theta, theta2):
        if t == k:
            raise NotAnEigenvalue(f"{t} is the valency, not an admissible choice")
        if cert is not None:
            if t not in cert.eigenvalues:
                raise NotAnEigenvalue(f"{t} is not in the certificate")
        else:
            if poly is None:
                if hoffman is not None:
                    poly, name = [-c for c in hoffman[0]] + [1], "Hoffman polynomial"
                else:
                    poly, name = char_poly(g), "characteristic polynomial"
            if _poly_eval_fraction(poly, t) != 0:
                raise NotAnEigenvalue(f"{t} is not a root of the {name}")
    c = Fraction(k, lam + 1)
    lhs = (theta + c) * (theta2 + c)
    rhs = Fraction(-k * lam * (k - lam - 1), (lam + 1) ** 2)
    return GoldbergReport(theta, theta2, lam, k, lhs, rhs, lhs < rhs)


@dataclass
class Eq1Report:
    residual: Fraction
    position: tuple[int, int] | None

    @property
    def ok(self) -> bool:
        return self.residual == 0

    def to_json_dict(self):
        return {
            "residual": self.residual,
            "position": self.position,
            "pass": self.ok,
        }


def eq1_residual(g: Graph, cert: SpectrumCertificate) -> Eq1Report:
    """Largest entry of A^3 - e1 A^2 + e2 A - e3 I - ell J, exactly; a
    certificate from `certify` has verified it zero, with no new pass."""
    _need_four(cert)
    den = cert.ell.denominator
    coeffs = [den * c for c in poly_from_spectrum((t, 1) for t in cert.eigenvalues[1:])]
    j_coeff = -cert.ell * den
    p = powers(g)
    if p.first_mismatch(coeffs, j_coeff, 0) is None:
        return Eq1Report(Fraction(0), None)
    worst = 0
    for i, tile in p.combination(coeffs, j_coeff):
        mag = np.abs(tile)
        r, c = divmod(int(mag.argmax()), tile.shape[1])
        if mag[r, c] > worst:  # strictly: the first maximum in row-major order
            worst, where = int(mag[r, c]), (i + r, i + c, int(tile[r, c]))
        del tile, mag  # before the next tile is formed
    i, j, value = where
    return Eq1Report(Fraction(value, den), (i, j))
