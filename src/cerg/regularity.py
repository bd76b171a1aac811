"""Exact pairwise checkers: lambda/mu multisets, regularity levels,
weak/strong constants, Hoffman bounds, equitable partitions, and
association-scheme axioms.

Everything reduces to integer matrix products plus elementwise
comparisons.  The one product kernel, `exact_matmul`, runs BLAS in the
narrowest float type that is provably exact: with
B = inner_dim * max|X| * max|Y|, float32 when B < 2^24 and float64 when
B < 2^53.  Every product of two entries and every partial sum, in any
summation order and on any thread count, is then an integer of absolute
value at most B, and such integers are exactly representable in the
chosen type (24- and 53-bit significands), so no operation rounds.
Past 2^53 it raises `ExactnessBoundExceeded`.  A product x @ x.T is
formed as a Gram matrix, which BLAS computes by syrk at half the flops.

Storage follows the same bound: every entry of a product is at most B
in absolute value, so the kernel returns int32 when B < 2^31 (always so
in the float32 tier) and int64 otherwise.  Each graph's powers, its pair
masks and the A^2 values on them are computed once, in the `Powers`
cache.  An integer combination of the powers, which may need int64, is
never held whole: `Powers.combination` streams it in row tiles of a few
MB, widening each term to int64 within the tile.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .graphs import CheckFailed, Graph, PartitionInvalid, VertexOutOfRange


class NotRegular(CheckFailed):
    pass


class NotCoEdgeRegular(CheckFailed):
    pass


class NotEdgeRegular(CheckFailed):
    pass


class NotSRG(CheckFailed):
    pass


class SetNotClique(CheckFailed):
    pass


class SetNotCoclique(CheckFailed):
    pass


class NotAPartition(ValueError):
    pass


class PreconditionFailed(CheckFailed):
    def __init__(self, which: str):
        super().__init__(which)
        self.which = which


class ExactnessBoundExceeded(ValueError):
    """An integer product or combination could leave its exact range."""


def _absmax(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


def _is_transpose(y: np.ndarray, x: np.ndarray) -> bool:
    """Whether y is exactly x.T: the same buffer read with reversed axes."""
    return (
        y.ctypes.data == x.ctypes.data
        and y.dtype == x.dtype
        and y.shape == x.shape[::-1]
        and y.strides == x.strides[::-1]
    )


# entries per row tile: 4-8 MB, next to n^2 arrays of 150-300 MB at n = 6125
_TILE_ENTRIES = 2**20


def _row_tiles(n_rows: int, n_cols: int):
    """Consecutive row slices of about _TILE_ENTRIES entries each."""
    step = max(1, _TILE_ENTRIES // max(n_cols, 1))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def exact_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for integer matrices, exactly, through BLAS.

    With B = inner_dim * max|x| * max|y|, the product runs in float32
    when B < 2^24 and in float64 when B < 2^53; no partial sum can then
    leave the integers the float type holds exactly.  Otherwise raises
    `ExactnessBoundExceeded`.  No entry exceeds B, so the result is
    int32 when B < 2^31 and int64 otherwise; when the float and integer
    types have one item size, the float result is cast in place, a row
    tile at a time.  When y is x's transposed view (say
    ``exact_matmul(a, a.T)``), x is converted once and the Gram product
    goes to BLAS syrk.
    """
    bound = x.shape[1] * _absmax(x) * _absmax(y)
    if bound >= 2**53:
        raise ExactnessBoundExceeded(
            f"product bound {bound} is not below 2^53; float64 BLAS would round"
        )
    ftype = np.float32 if bound < 2**24 else np.float64
    itype = np.int32 if bound < 2**31 else np.int64
    xf = x.astype(ftype, copy=False)
    yf = xf.T if _is_transpose(y, x) else y.astype(ftype, copy=False)
    out = xf @ yf
    del xf, yf  # free the float inputs before the cast
    if out.itemsize != np.dtype(itype).itemsize:
        return out.astype(itype)
    res = out.view(itype)
    for rows in _row_tiles(*out.shape):
        res[rows] = out[rows]
    return res


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


@dataclass(eq=False)
class Powers:
    """Lazily memoised exact powers of one graph's adjacency matrix A.

    ``a`` is the graph's own read-only boolean matrix; each product is
    stored in the integer type `exact_matmul` gives it, int32 whenever
    its bound is below 2^31: A^2 always, A^3 and ``lam_sums`` whenever
    n k < 2^31, k the largest degree.  ``lam_sums`` is (A∘A²)A, whose
    (x, y) entry sums lambda(x, z) over the common neighbours z of x and
    y; A∘A² itself is formed only as the kernel's float input and is not
    kept.  ``adj`` and ``nonadj`` mask the adjacent and non-adjacent
    unordered pairs, and ``lam_vals`` and ``mu_vals`` are the A^2
    entries on them, in row-major pair order.  Every cached array is
    shared by all callers and read-only.  Integer combinations of the
    powers are streamed in row tiles by `combination` and never cached.
    Obtain it with `powers`.
    """

    a: np.ndarray

    @cached_property
    def a2(self) -> np.ndarray:
        # A and A^2 are symmetric, so A^2 and A^4 are Gram products
        return _frozen(exact_matmul(self.a, self.a.T))

    @cached_property
    def a3(self) -> np.ndarray:
        return _frozen(exact_matmul(self.a2, self.a))

    @cached_property
    def a4(self) -> np.ndarray:
        return _frozen(exact_matmul(self.a2, self.a2.T))

    @cached_property
    def lam_sums(self) -> np.ndarray:
        # A∘A² has entries lambda(x, y) <= n < 2^24, exact in float32
        lam = np.multiply(self.a, self.a2, dtype=np.float32)
        return _frozen(exact_matmul(lam, self.a))

    @cached_property
    def upper(self) -> np.ndarray:
        """Strict upper triangle: each unordered pair once."""
        return _frozen(np.triu(np.ones(self.a.shape, dtype=bool), 1))

    @cached_property
    def adj(self) -> np.ndarray:
        return _frozen(self.a & self.upper)

    @cached_property
    def nonadj(self) -> np.ndarray:
        return _frozen(~self.a & self.upper)

    @cached_property
    def lam_vals(self) -> np.ndarray:
        return _frozen(self.a2[self.adj])

    @cached_property
    def mu_vals(self) -> np.ndarray:
        return _frozen(self.a2[self.nonadj])

    def combination(self, coeffs, j_coeff=0):
        """sum_j coeffs[j] A^j + j_coeff J (coeffs ascending, j <= 4) as a
        stream of (first row, int64 row tile) pairs, top to bottom.

        Refuses at the call, before any tile, a combination whose entries
        could reach 2^63 in absolute value.  Each tile widens its terms
        to int64 before scaling them.
        """
        c0, j_coeff = int(coeffs[0]), int(j_coeff)
        terms = [
            (int(c), getattr(self, "a" if j == 1 else f"a{j}"))
            for j, c in enumerate(coeffs) if j and c
        ]
        bound = abs(c0) + abs(j_coeff) + sum(abs(c) * _absmax(m) for c, m in terms)
        if bound >= 2**63:
            raise ExactnessBoundExceeded(
                f"combination bound {bound} is not below 2^63; int64 would wrap"
            )
        return self._combination_tiles(c0, j_coeff, terms)

    def _combination_tiles(self, c0, j_coeff, terms):
        n = len(self.a)
        for rows in _row_tiles(n, n):
            tile = np.full((rows.stop - rows.start, n), j_coeff, dtype=np.int64)
            for c, m in terms:
                tile += np.multiply(m[rows], c, dtype=np.int64)
            diag = np.arange(rows.start, rows.stop)
            tile[diag - rows.start, diag] += c0
            yield rows.start, tile

    def first_mismatch(self, coeffs, j_coeff, target):
        """(i, j, value) of the first entry, in row-major order, at which
        `combination` (coeffs, j_coeff) differs from ``target``, or None.
        Stops at the tile that holds it."""
        for i, tile in self.combination(coeffs, j_coeff):
            bad = tile != target
            if bad.any():
                r, c = divmod(int(bad.argmax()), tile.shape[1])
                return i + r, c, int(tile[r, c])
        return None


def powers(g: Graph) -> Powers:
    """The graph's `Powers`, created on first use and cached on the graph."""
    if g._powers is None:
        g._powers = Powers(g.a)
    return g._powers


def _multiset(values: np.ndarray) -> dict[int, int]:
    """Value -> multiplicity of an array of non-negative integers."""
    counts = np.bincount(values)
    return {int(v): int(counts[v]) for v in np.flatnonzero(counts)}


@dataclass
class RegularityProfile:
    n: int
    regular: bool
    k: int | None
    lambda_multiset: dict[int, int]
    mu_multiset: dict[int, int]
    level_co_edge: int | None = None
    level_edge: int | None = None
    mu: int | None = None
    gamma: int | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None

    def to_json_dict(self) -> dict:
        def frac(x):
            if x is None:
                return None
            f = Fraction(x)
            return [f.numerator, f.denominator]

        return {
            "n": self.n,
            "regular": self.regular,
            "k": self.k,
            "lambda_multiset": {str(v): c for v, c in sorted(self.lambda_multiset.items())},
            "mu_multiset": {str(v): c for v, c in sorted(self.mu_multiset.items())},
            "level_co_edge": self.level_co_edge,
            "level_edge": self.level_edge,
            "mu": self.mu,
            "gamma": self.gamma,
            "alpha": frac(self.alpha),
            "beta": frac(self.beta),
        }


def profile(g: Graph, *, constants: bool = True) -> RegularityProfile:
    """Full lambda/mu multisets by exhaustive pair scan, with the derived
    regularity constants filled in whenever they are defined.

    With ``constants=False`` the profile comes from the A^2 entries
    alone: the strong and weak checks are skipped, so gamma, alpha and
    beta stay None and (A∘A²)A is never formed.  The multisets, the
    levels and mu are the same either way."""
    if g.n < 2:
        raise ValueError("profile needs at least 2 vertices")
    p = powers(g)
    lam = _multiset(p.lam_vals)
    mu = _multiset(p.mu_vals)
    regular, k = g.is_regular()
    prof = RegularityProfile(
        n=g.n,
        regular=regular,
        k=k,
        lambda_multiset=lam,
        mu_multiset=mu,
    )
    mu_constant = len(mu) <= 1
    lam_constant = len(lam) <= 1
    if regular and mu_constant:
        prof.level_co_edge = len(lam)
        prof.mu = next(iter(mu), None)
        strong = strong_co_edge_regular(g) if constants else None
        if strong:
            prof.gamma = strong.gamma
    if regular and lam_constant:
        prof.level_edge = len(mu)
    if regular and constants:
        weak = weak_edge_regular(g)
        if weak.ok and weak.alpha is not None:
            prof.alpha = weak.alpha
            prof.beta = weak.beta
    return prof


@dataclass
class StrongReport:
    ok: bool
    mu: int | None
    gamma: int | None
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def strong_co_edge_regular(g: Graph) -> StrongReport:
    """The constant gamma = sum of lambda(x, z) over common neighbours of
    each non-adjacent pair, or a witness of two differing sums."""
    regular, _ = g.is_regular()
    if not regular:
        raise NotCoEdgeRegular("graph is not regular")
    p = powers(g)
    nonadj = p.nonadj
    mu_vals = p.mu_vals
    if not mu_vals.size:
        return StrongReport(True, None, None)  # complete: vacuous
    if mu_vals.min() != mu_vals.max():
        raise NotCoEdgeRegular("mu is not constant over non-adjacent pairs")
    mu = int(mu_vals[0])
    sums = p.lam_sums
    vals = sums[nonadj]
    if not np.array_equal(vals, sums.T[nonadj]):
        idx = np.argwhere(nonadj & (sums != sums.T))[0]
        return StrongReport(
            False,
            mu,
            None,
            witness={
                "pair": (int(idx[0]), int(idx[1])),
                "sum_xy": int(sums[idx[0], idx[1]]),
                "sum_yx": int(sums[idx[1], idx[0]]),
                "reason": "ordered sums disagree",
            },
        )
    if vals.min() == vals.max():
        return StrongReport(True, mu, int(vals[0]))
    coords = np.argwhere(nonadj)
    lo = int(np.argmin(vals))
    hi = int(np.argmax(vals))
    return StrongReport(
        False,
        mu,
        None,
        witness={
            "pair": tuple(int(v) for v in coords[lo]),
            "sum": int(vals[lo]),
            "other_pair": tuple(int(v) for v in coords[hi]),
            "other_sum": int(vals[hi]),
        },
    )


@dataclass
class WeakReport:
    ok: bool
    alpha: Fraction | None
    beta: Fraction | None
    family: tuple[int, int] | None = None  # beta = alpha*family[0] - family[1]
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def weak_edge_regular(g: Graph) -> WeakReport:
    """Exact rational fit of alpha * lambda(x,y) = sum + beta over edges.

    With two distinct lambda values present the solution is unique; with
    constant lambda every alpha works and the one-parameter family
    (lambda0, sum0) with beta = alpha*lambda0 - sum0 is reported.
    """
    regular, _ = g.is_regular()
    if not regular:
        raise NotRegular("graph is not regular")
    p = powers(g)
    adj, lam_vals = p.adj, p.lam_vals
    if not lam_vals.size:
        return WeakReport(True, None, None, family=(0, 0))
    sum_vals = p.lam_sums[adj]
    lam_min, lam_max = int(lam_vals.min()), int(lam_vals.max())
    if lam_min == lam_max:
        if int(sum_vals.min()) == int(sum_vals.max()):
            return WeakReport(True, None, None, family=(lam_min, int(sum_vals[0])))
        coords = np.argwhere(adj)
        lo, hi = int(np.argmin(sum_vals)), int(np.argmax(sum_vals))
        return WeakReport(
            False,
            None,
            None,
            witness={
                "edge": tuple(int(v) for v in coords[lo]),
                "sum": int(sum_vals[lo]),
                "other_edge": tuple(int(v) for v in coords[hi]),
                "other_sum": int(sum_vals[hi]),
                "lambda": lam_min,
            },
        )
    i_min = int(np.argmax(lam_vals == lam_min))
    i_max = int(np.argmax(lam_vals == lam_max))
    s1, l1 = int(sum_vals[i_min]), lam_min
    s2, l2 = int(sum_vals[i_max]), lam_max
    alpha = Fraction(s1 - s2, l1 - l2)
    beta = alpha * l1 - s1
    # sum = alpha*lambda - beta on every edge: one exact target per
    # distinct lambda; a target that is not an integer in [0, 2^63), which
    # no sum (a non-negative int64) can equal, becomes the sentinel -1
    target = np.full(lam_max + 1, -1, dtype=np.int64)
    for v in np.flatnonzero(np.bincount(lam_vals)).tolist():
        t = alpha * v - beta
        if t.denominator == 1 and 0 <= t < 2**63:
            target[v] = int(t)
    bad = target[lam_vals] != sum_vals
    if bad.any():
        coords = np.argwhere(adj)
        first = int(np.argmax(bad))
        return WeakReport(
            False,
            None,
            None,
            witness={
                "edge": tuple(int(v) for v in coords[first]),
                "lambda": int(lam_vals[first]),
                "sum": int(sum_vals[first]),
                "alpha_candidate": [alpha.numerator, alpha.denominator],
                "beta_candidate": [beta.numerator, beta.denominator],
            },
        )
    return WeakReport(True, alpha, beta)


def level(g: Graph) -> tuple[int | None, int | None]:
    """(#distinct lambda when mu constant, #distinct mu when lambda constant)."""
    if g.n < 2:
        raise PreconditionFailed("a level needs at least 2 vertices")
    prof = profile(g, constants=False)
    co = prof.level_co_edge
    edge = prof.level_edge
    if co is None and edge is None:
        raise PreconditionFailed(
            "neither mu nor lambda is constant (or the graph is irregular)"
        )
    return co, edge


def is_strongly_regular(g: Graph):
    """(True, (n, k, lambda, mu)) for SRGs, else (False, None)."""
    prof = profile(g, constants=False)
    if not prof.regular:
        return False, None
    if len(prof.lambda_multiset) > 1 or len(prof.mu_multiset) > 1:
        return False, None
    lam = next(iter(prof.lambda_multiset), 0)
    mu = next(iter(prof.mu_multiset), 0)
    return True, (g.n, prof.k, lam, mu)


@dataclass
class HoffmanReport:
    kind: str
    size: int
    bound: Fraction
    tight: bool
    outside_degrees: dict[int, int]
    expected_outside: Fraction
    cross_intersection: int | None = None

    def to_json_dict(self):
        return {
            "kind": self.kind,
            "size": self.size,
            "bound": [self.bound.numerator, self.bound.denominator],
            "tight": self.tight,
            "outside_degrees": {str(v): c for v, c in sorted(self.outside_degrees.items())},
            "expected_outside": [
                self.expected_outside.numerator,
                self.expected_outside.denominator,
            ],
            "cross_intersection": self.cross_intersection,
        }


def hoffman_check(g: Graph, vertex_set, kind: str, m, cross=None) -> HoffmanReport:
    """Hoffman bound report for a clique or co-clique of an SRG.

    m is the magnitude of the smallest eigenvalue (from the spectral
    module).  With ``cross`` a second tight set of the other kind, the
    intersection size is reported as well.
    """
    if kind not in ("clique", "coclique"):
        raise ValueError(f"kind must be 'clique' or 'coclique', not {kind!r}")
    m = Fraction(m)
    if m <= 0:
        raise ValueError(f"m must be positive, not {m}")
    ok, params = is_strongly_regular(g)
    if not ok:
        raise NotSRG("Hoffman bound applies to strongly regular graphs")
    n, k, _, mu = params
    members = sorted(set(vertex_set))
    strays = [v for v in members if isinstance(v, bool)
              or not (isinstance(v, (int, np.integer)) and 0 <= v < g.n)]
    if strays:
        raise VertexOutOfRange(f"set member {strays[0]} is not a vertex of [0, {g.n})")
    idx = np.asarray(members, dtype=np.intp)
    inside = g.a[np.ix_(idx, idx)]
    if kind == "clique":
        bad = ~(inside | np.eye(len(members), dtype=bool)).all(axis=1)
        if bad.any():
            raise SetNotClique(f"vertex {members[np.argmax(bad)]} misses a set member")
    elif inside.any():
        v = members[np.argmax(inside.any(axis=1))]
        raise SetNotCoclique(f"vertex {v} has a neighbour inside the set")
    if kind == "clique":
        bound = (m + k) / m
        expected_outside = Fraction(mu) / m
    else:
        bound = m * n / (m + k)
        expected_outside = m
    size = len(members)
    mask = np.zeros(g.n, dtype=bool)
    mask[idx] = True
    degrees = _multiset(g.a[~mask][:, mask].sum(axis=1))
    tight = Fraction(size) == bound
    cross_size = None
    if cross is not None:
        cross_size = len(set(members) & set(cross))
    return HoffmanReport(kind, size, bound, tight, degrees, expected_outside, cross_size)


@dataclass
class EquitableReport:
    ok: bool
    quotient: tuple[tuple[int, ...], ...] | None
    witness: dict | None = None

    def __bool__(self):
        return self.ok


def equitable_check(g: Graph, parts) -> EquitableReport:
    """Quotient matrix of a vertex partition, or a witness (u, u', j)."""
    parts = [list(p) for p in parts]
    strays = [v for p in parts for v in p
              if isinstance(v, bool) or not isinstance(v, (int, np.integer))]
    if strays:
        raise PartitionInvalid(f"part member {strays[0]!r} is not an integer")
    seen = sorted(v for p in parts for v in p)
    if seen != list(range(g.n)) or any(not p for p in parts):
        raise PartitionInvalid("parts must be non-empty and partition the vertices")
    m = len(parts)
    indicator = np.zeros((g.n, m), dtype=np.int64)
    for j, p in enumerate(parts):
        indicator[p, j] = 1
    counts = exact_matmul(g.a, indicator)
    quotient = []
    for i, p in enumerate(parts):
        block = counts[p]
        ref = block[0]
        diff = block != ref
        if diff.any():
            r, j = np.argwhere(diff)[0]
            return EquitableReport(
                False,
                None,
                witness={
                    "part": i,
                    "u": int(p[0]),
                    "u_prime": int(p[int(r)]),
                    "target_part": int(j),
                    "count_u": int(ref[j]),
                    "count_u_prime": int(block[int(r), int(j)]),
                },
            )
        quotient.append(tuple(int(x) for x in ref))
    return EquitableReport(True, tuple(quotient))


@dataclass
class AssociationSchemeReport:
    ok: bool
    classes: int
    intersection_numbers: dict | None
    witness: dict | None = None

    def __bool__(self):
        return self.ok

    def p_table_json(self):
        if self.intersection_numbers is None:
            return None
        return {f"{i},{j},{h}": v for (i, j, h), v in sorted(self.intersection_numbers.items())}


def scheme_check(relations) -> AssociationSchemeReport:
    """Verify the symmetric association scheme axioms by exhaustive
    counting; relation 0 is the implicit identity."""
    if not relations:
        raise NotAPartition("no relations supplied")
    n = relations[0].n
    if any(r.n != n for r in relations):
        raise NotAPartition("relations live on different vertex sets")
    if any(r.edge_count() == 0 for r in relations):
        raise NotAPartition("relations must be non-empty")
    mats = [np.eye(n, dtype=np.int64)] + [r.adjacency_matrix() for r in relations]
    total = sum(mats[1:], start=mats[0].copy())
    if not np.array_equal(total, np.ones((n, n), dtype=np.int64)):
        raise NotAPartition("identity plus relations do not partition X x X")
    d = len(relations)
    table = {}
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = exact_matmul(mats[i], mats[j])
            for h in range(d + 1):
                sel = mats[h] == 1
                vals = prod[sel]
                if vals.size == 0:
                    continue
                if int(vals.min()) != int(vals.max()):
                    pos = np.argwhere(sel)
                    flat_lo = int(np.argmin(vals))
                    flat_hi = int(np.argmax(vals))
                    return AssociationSchemeReport(
                        False,
                        d,
                        None,
                        witness={
                            "i": i,
                            "j": j,
                            "h": h,
                            "pair": tuple(int(v) for v in pos[flat_lo]),
                            "count": int(vals[flat_lo]),
                            "other_pair": tuple(int(v) for v in pos[flat_hi]),
                            "other_count": int(vals[flat_hi]),
                        },
                    )
                table[(i, j, h)] = int(vals[0])
                table[(j, i, h)] = int(vals[0])
    return AssociationSchemeReport(True, d, table)
