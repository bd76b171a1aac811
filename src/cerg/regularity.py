"""Exact pairwise checkers: lambda/mu multisets, regularity levels,
weak/strong constants, Hoffman bounds, equitable partitions, and
association-scheme axioms.

Everything reduces to integer matrix products plus elementwise
comparisons.  The one product kernel, `exact_matmul`, multiplies an
integer matrix X by a graph's adjacency matrix A, read from its packed
rows, and runs BLAS in the narrowest float type that is provably exact:
with B = inner_dim * max|X| (A's entries are 0 and 1), float32 when
B < 2^24 and float64 when B < 2^53.  Every product of two entries and
every partial sum, in any summation order and on any thread count, is
then an integer of absolute value at most B, and such integers are
exactly representable in the chosen type (24- and 53-bit significands),
so no operation rounds.
Past 2^53 it raises `ExactnessBoundExceeded`.

Storage follows the same bound: every entry of a product is at most B
in absolute value, so the kernel returns int32 when B < 2^31 (always so
in the float32 tier) and int64 otherwise.

No power of a graph's adjacency matrix A is held whole.  `Powers.rows`
streams row tiles of A, A^2, ... and (A∘A^2)A, each tile of A^j formed
as A^(j-1)[r] @ A with its bound checked per tile, and every check is a
reducer over that stream.  A pass that reaches the last row leaves
behind only O(n) results: the lambda/mu tallies and the sums scan,
which later checks of the same graph read instead of passing again.
The scan keeps, as the pass goes, the witnesses a whole-matrix scan
would give, the first in row-major order, so no check makes a second
pass for its witness.  A graph's checks hold A's packed rows, n^2/8
bytes, and a few tile-sized arrays of max(2^17, n^2/8) entries, three
in the sums pass, where A^2 becomes A∘A^2 in its own buffer, and three
in a relation's pass, where each power is the next product's left
operand in its own float buffer; the reducers read in place or in row
slices, with no whole-tile temporary, and unpack A's rows a slice at a
time.  No float or boolean copy of A is kept: a product unpacks it one
panel at a time, a block of whole rows, since A is symmetric; so the
equitable check reads A P as (P^T A)^T.  The scheme check is tiled
the same way: a row tile of every relation is unpacked at a time, and
each A_i A_j is formed a row tile at a time, by relation j's packed
rows, with no n x n array.

Reports carry exact values as they are, `Fraction`s and tuples; one
`json` hook, `jsonable`, writes every exact rational of every report as
its [numerator, denominator] pair.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

import numpy as np

from .graphs import (
    _POPCOUNT, CheckFailed, Graph, PartitionInvalid, VertexOutOfRange, _frozen, _is_int, _unpack,
    check_parts,
)


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


def jsonable(obj):
    """The JSON form of a report value that `json` cannot write itself,
    as its ``default`` hook: an exact rational is its [numerator,
    denominator] pair, a report dataclass its fields in order."""
    if isinstance(obj, Fraction):
        return [obj.numerator, obj.denominator]
    if is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in fields(obj)}
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _absmax(x: np.ndarray) -> int:
    return max(int(x.max(initial=0)), -int(x.min(initial=0)))


# entries per row tile (0.5 MB of int32) and per panel of a product's
# right operand; but at most _MAX_TILES tiles a pass, since each tile's
# product unpacks all of A, panel by panel, again.  The second rule wins
# from n = 1024 on: 200 rows at n = 1600, 766 at n = 6125
_TILE_ENTRIES = 2**17
_MAX_TILES = 8


def _row_tiles(n_rows: int, n_cols: int):
    """Consecutive row slices of about _TILE_ENTRIES entries each, or of
    n_rows / _MAX_TILES rows when that is more."""
    step = max(1, _TILE_ENTRIES // max(n_cols, 1), -(-n_rows // _MAX_TILES))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def _cache_slices(n_rows: int, n_cols: int):
    """Consecutive row slices of about _TILE_ENTRIES entries each, for a
    pass whose per-slice temporary should stay in cache."""
    step = max(1, _TILE_ENTRIES // max(n_cols, 1))
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def _float_rows(bits: np.ndarray, rows: slice, ftype) -> np.ndarray:
    """Rows ``rows`` of the symmetric 0/1 matrix whose packed rows are
    ``bits``, in the float type ``ftype``: unpacked into it a
    `_cache_slices` slice at a time, so no unpacked copy of the whole
    block is made.  The slice is cast as the uint8 block `np.unpackbits`
    gives, which casts about 1.5 times as fast as its boolean view."""
    block, n = bits[rows], len(bits)
    out = np.empty((len(block), n), dtype=ftype)
    for r in _cache_slices(*out.shape):
        out[r] = np.unpackbits(block[r], axis=-1, count=n)
    return out


def exact_matmul(x: np.ndarray, bits: np.ndarray, start: int = 0) -> np.ndarray:
    """x @ A[:, start:] exactly, through BLAS, for the symmetric 0/1
    matrix A whose packed rows are ``bits``.

    With B = inner_dim * max|x|, the product runs in float32 when
    B < 2^24 and in float64 when B < 2^53; no partial sum can then leave
    the integers the float type holds exactly.  Otherwise raises
    `ExactnessBoundExceeded`.  A[:, start:] is A[start:].T, so each
    column panel, of max(rows of x, _TILE_ENTRIES / inner_dim) columns,
    is a block of whole rows of A, unpacked straight into the float type
    (`_float_rows`): no whole float copy of A is made, and the panels'
    products fill one float result.  No entry exceeds B, so the result
    is int32 when B < 2^31 and int64 otherwise; a float result of the
    integer's item size is cast in place (`_recast`)."""
    rows, inner = x.shape
    cols = len(bits) - start
    bound = inner * _absmax(x)
    if bound >= 2**53:
        raise ExactnessBoundExceeded(
            f"product bound {bound} is not below 2^53; float64 BLAS would round"
        )
    ftype = np.float32 if bound < 2**24 else np.float64
    itype = np.int32 if bound < 2**31 else np.int64
    xf = x.astype(ftype, copy=False)
    out = np.empty((rows, cols), dtype=ftype)
    step = max(1, rows, _TILE_ENTRIES // max(inner, 1))
    for c in range(0, cols, step):
        panel = _float_rows(bits, slice(start + c, start + c + step), ftype)
        np.matmul(xf, panel.T, out=out[:, c : c + step])
        del panel
    del xf  # free the float input before the cast
    if out.itemsize != np.dtype(itype).itemsize:
        return out.astype(itype)
    return _recast(out, itype)


def _recast(x: np.ndarray, dtype) -> np.ndarray:
    """x's entries recast to ``dtype``, of x's item size, in x's own
    buffer, a `_cache_slices` slice at a time (each is copied first, as
    it overlaps its target): exact for integers below 2^24 (float32) or
    2^53 (float64)."""
    y = x.view(dtype)
    for r in _cache_slices(*x.shape):
        y[r] = x[r]
    return y


def _multiset(counts: np.ndarray) -> dict[int, int]:
    """Value -> multiplicity from a table of counts indexed by value."""
    return {int(v): int(counts[v]) for v in np.flatnonzero(counts)}


class RowTile:
    """Rows ``rows`` of A, A^2, ..., A^j_max as ``tile[j]``, each from
    column ``rows.start`` on: entry (r, c) is (x, x + c - r) for the
    tile's r-th row x.  These are the pairs x <= y of the rows and the
    mirror images of some of them, so the tiles of a pass hold every
    pair x <= y once; every power is symmetric.  Read-only, and only
    for the consumer's turn.  ``bits`` holds the tile's rows of A packed,
    a view of the graph's own, and the A^1 tile is an unpacked copy of
    them, made afresh by each ``tile[1]``; `mask` unpacks one row slice
    of it alone.  Every other array is int32 or int64 as `exact_matmul`
    gives it."""

    __slots__ = ("rows", "n", "bits", "pows")

    def __getitem__(self, j: int) -> np.ndarray:
        return _frozen(self.mask(slice(None))) if j == 1 else self.pows[j - 2]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.bits), self.n - self.rows.start

    def mask(self, r: slice) -> np.ndarray:
        """Rows r of the A^1 tile, unpacked: a fresh boolean block."""
        return _unpack(self.bits[r], self.n)[:, self.rows.start :]


class _Tally:
    """A^2 on the pairs x < y, counted by value: in ``counts[v]`` the
    non-adjacent pairs and in ``counts[m + v]`` the adjacent ones,
    m = n + 1."""

    def __init__(self, n: int):
        self.m = n + 1
        self.counts = np.zeros(2 * self.m, dtype=np.int64)

    def feed(self, tile: RowTile) -> None:
        a2 = tile[2]
        size = len(self.counts)
        for rows in _row_tiles(*a2.shape):  # slices: bincount's int64 copy stays small
            i, h = rows.start, rows.stop - rows.start
            key = np.multiply(tile.mask(rows), self.m, dtype=a2.dtype)  # one bincount
            key += a2[rows]  # for both kinds of pair
            key[:, : i + h][np.tri(h, i + h, i, dtype=bool)] = size  # x >= y: a spare bin
            self.counts += np.bincount(key.ravel(), minlength=size + 1)[:size]

    def multisets(self) -> tuple[dict[int, int], dict[int, int]]:
        """(lambda multiset, mu multiset) over unordered pairs."""
        return _multiset(self.counts[self.m :]), _multiset(self.counts[: self.m])


def _extremes(cur, lo, hi, first):
    """``cur`` = ((least, position), (greatest, position)), or None,
    updated with a later row slice's least and greatest values ``lo`` and
    ``hi``.  ``first(v)`` is the position of v's first occurrence in the
    slice in row-major order, sought only for a value that beats ``cur``."""
    least, greatest = cur or (None, None)
    if least is None or lo < least[0]:
        least = int(lo), first(lo)
    if greatest is None or hi > greatest[0]:
        greatest = int(hi), first(hi)
    return least, greatest


class _SumScan:
    """(A∘A^2)A on the pairs x < y, reduced in row-major order, each pair
    kept as its position x * n + y.  ``non`` and ``edge``: the first
    least and the first greatest sum, each as (sum, position), over the
    non-adjacent pairs and over the edges (None without such pairs).
    Indexed by lambda = A^2(x, y): ``first`` and ``first_sum``, the
    position of the lambda's first edge (-1 for an absent lambda) and
    its sum; ``off`` and ``off_sum``, those of its first edge whose sum
    differs from ``first_sum`` (-1 while there is none)."""

    def __init__(self, n: int):
        self.n = n
        self.non = self.edge = None
        self.first, self.off = np.full((2, n + 1), -1, dtype=np.int64)
        self.first_sum, self.off_sum = np.zeros((2, n + 1), dtype=np.int64)

    def pair(self, position) -> tuple[int, int]:
        return divmod(int(position), self.n)

    def feed(self, start: int, bits: np.ndarray, lam: np.ndarray, sums: np.ndarray) -> None:
        """Reduce one tile's rows of A, packed, and of A∘A^2 and
        (A∘A^2)A, each from column ``start`` on, row slice by row slice:
        A's rows are unpacked a slice at a time."""
        w = sums.shape[1]
        for rows in _row_tiles(*sums.shape):
            a_, s_, x0 = _unpack(bits[rows], self.n)[:, start:], sums[rows], start + rows.start

            def at(i):  # positions x * n + y of flat indices of the slice
                return (x0 + i // w) * self.n + start + i % w

            upper = np.arange(w) > np.arange(rows.start, rows.stop)[:, None]
            # most pairs are non-adjacent: with sums >= 0, products with the mask find
            # their extremes many times faster than masked reductions, indexing none
            non = upper > a_
            if non.any():
                t = np.multiply(s_, non)
                top, hi = s_.max(), t.max()
                np.subtract(top, s_, out=t)
                t *= non
                lo = top - t.max()
                del t
                self.non = _extremes(
                    self.non, lo, hi, lambda v: at(int(((s_ == v) & non).argmax()))
                )
            del non
            upper &= a_  # the edges x < y
            del a_
            edges = np.flatnonzero(upper)
            del upper
            s, lam_e = s_.take(edges), lam[rows][divmod(edges, w)].astype(np.intp)
            if edges.size:
                self.edge = _extremes(
                    self.edge, s.min(), s.max(), lambda v: at(int(edges[int((s == v).argmax())]))
                )
            new = np.flatnonzero(self.first[lam_e] < 0)
            if new.size:
                lams, i = np.unique(lam_e[new], return_index=True)  # first occurrences
                self.first[lams], self.first_sum[lams] = at(edges[new[i]]), s[new[i]]
            odd = np.flatnonzero(self.first_sum[lam_e] != s)
            odd = odd[self.off[lam_e[odd]] < 0]
            if odd.size:
                lams, i = np.unique(lam_e[odd], return_index=True)
                self.off[lams], self.off_sum[lams] = at(edges[odd[i]]), s[odd[i]]


def _first_differing(i: int, tile: np.ndarray, target) -> tuple[int, int, int] | None:
    """(row, column, value) of a combination tile's first entry, in
    row-major order, that differs from ``target``; ``i`` is the tile's
    first row."""
    bad = tile != target
    if not bad.any():
        return None
    r, c = divmod(int(bad.argmax()), tile.shape[1])
    return i + r, i + c, int(tile[r, c])


class Powers:
    """Row tiles of the powers of one graph's adjacency matrix A, and
    the O(n) results of full passes over them.

    ``bits`` is the graph's own read-only packed rows of A and
    ``max_degree`` its largest degree, which bounds the walk counts.
    ``bits`` is the one n x n array, at n^2/8 bytes: every tile product
    is an `exact_matmul` by it, which unpacks A one panel of whole rows
    at a time (A is symmetric), and a product of A's own rows unpacks
    its left band too, each straight into the float type the product's
    bound picks.
    A graph's checks therefore hold A's packed rows and a few tile-sized
    arrays at a time (at most three in a sums pass or a relation's), of
    max(_TILE_ENTRIES, n^2 / _MAX_TILES) entries: 200 rows at n = 1600,
    766 at n = 6125.  `rows` streams the tiles; `tally` and `sum_scan`
    keep what a pass reduces them to; `combination` streams integer
    combinations of the powers, and `first_mismatch` checks one against
    a constant.  Obtain it with `powers`.

    A pass decides its own work from what the graph holds: it forms
    (A∘A^2)A exactly when ``want_sums`` is set and the graph has no sums
    scan (but not in `tally`'s own pass), never forms a relation found
    to hold again, and stops a relation's pass at its first mismatch,
    before that tile's sums.  So with ``want_sums`` set before (say)
    `spectral.certify`, the strong and weak checks read the pass of a
    claim that holds.
    """

    def __init__(self, bits: np.ndarray, max_degree: int):
        self.bits = bits
        self.n = len(bits)
        self.max_degree = max_degree
        self.want_sums = False
        self._tally = None
        self._scan = None
        self._zero = set()

    def rows(self, j_max: int):
        """Row tiles of A^1..A^j_max, top to bottom, and a sums scan fed
        (A∘A^2)A when ``want_sums`` is set and the graph has no scan.

        A power is formed in full rows where a later product of the tile
        reads it, and otherwise, like (A∘A^2)A, only from the tile's
        first row on, at half the flops on average.  One `RowTile` is
        yielded per `_row_tiles` slice and reused.  The tally is fed
        before the consumer's turn, and (A∘A^2)A formed after it, so a
        pass that stops early forms none; A∘A^2 takes A^2's own buffer
        (A^2 <= n < 2^24: the int32 view of a float32 product).  A power
        that is the integer view of its float product's buffer is the
        next product's left operand there, recast in place and back, not
        copied; A's own rows are unpacked straight into float32.  A tile's
        arrays are dropped before the next is formed.  A pass that
        reaches the last row stores the tally (once it forms A^2) and the
        sums scan (once it forms (A∘A^2)A) that the graph still lacks.
        """
        n = self.n
        sums = self.want_sums and self._scan is None
        if sums:
            j_max = max(j_max, 2)
        tally = _Tally(n) if j_max >= 2 and self._tally is None else None
        scan = _SumScan(n) if sums else None
        tile = RowTile()
        tile.n = n
        for rows in _row_tiles(n, n):
            start = rows.start
            pows, a2 = [], None
            # full rows of the last power formed, A's own first
            x = _float_rows(self.bits, rows, np.float32) if j_max >= 2 else None
            for j in range(2, j_max + 1):
                full = j < j_max or (j == 2 and sums)
                if x.base is None:  # A's rows, or a power copied out of a wider float
                    x = exact_matmul(x, self.bits, 0 if full else start)
                else:  # A^(j-1) in its float product's buffer: read there, not copied
                    itype, xf = x.dtype, _recast(x, x.base.dtype)
                    x = exact_matmul(xf, self.bits, 0 if full else start)
                    _recast(xf, itype)
                    del xf
                pows.append(x[:, start:] if full else x)
                if j == 2:
                    a2 = x
            tile.rows, tile.bits, tile.pows = rows, self.bits[rows], tuple(map(_frozen, pows))
            del pows, x
            if tally is not None:
                tally.feed(tile)
            yield tile
            tile.pows = None
            if scan is not None:
                lam = a2.view(np.float32)
                for r in _row_tiles(*a2.shape):
                    a2[r] *= np.unpackbits(tile.bits[r], axis=-1, count=n)
                    lam[r] = a2[r]
                sum_rows = _frozen(exact_matmul(lam, self.bits, start))
                scan.feed(start, tile.bits, _frozen(lam[:, start:]), sum_rows)
                del lam, sum_rows
            del a2
        if tally is not None:
            self._tally = tally
        if scan is not None:
            self._scan = scan

    def tally(self) -> tuple[dict[int, int], dict[int, int]]:
        """(lambda multiset, mu multiset): the A^2 values on the adjacent
        and on the non-adjacent unordered pairs."""
        if self._tally is None:
            wanted, self.want_sums = self.want_sums, False  # a pass of A^2 alone
            for _ in self.rows(2):
                pass
            self.want_sums = wanted
        return self._tally.multisets()

    def sum_scan(self) -> _SumScan:
        """The scan of (A∘A^2)A; its pass leaves the tally too."""
        if self._scan is None:
            self.want_sums = True
            for _ in self.rows(2):
                pass
        return self._scan

    def combination(self, coeffs, j_coeff=0):
        """sum_j coeffs[j] A^j + j_coeff J (coeffs ascending, j <= 4) as a
        stream of (first row i, integer tile) pairs, top to bottom, each
        tile from column i on, as in `RowTile`.  The combination is
        symmetric, so a tile's mirror images stand for the columns before
        i: the first entry, in row-major order, to differ from a constant
        or to reach the largest magnitude lies at x <= y, in the tiles.

        An entry of A^j (j >= 1) counts walks, at most k^(j-1) for the
        largest degree k, so the sum B of the terms' bounds bounds every
        partial sum.  Tiles are int32 when B < 2^31, else int64, each term
        added in place; B >= 2^63 is refused at the call, before any tile.
        """
        c0, j_coeff = int(coeffs[0]), int(j_coeff)
        terms = [(j, int(c)) for j, c in enumerate(coeffs) if j and c]
        k = self.max_degree
        bound = abs(c0) + abs(j_coeff) + sum(abs(c) * k ** (j - 1) for j, c in terms)
        if bound >= 2**63:
            raise ExactnessBoundExceeded(
                f"combination bound {bound} is not below 2^63; int64 would wrap"
            )
        itype = np.int32 if bound < 2**31 else np.int64
        return self._combination_tiles(c0, j_coeff, terms, itype)

    def _combination_tiles(self, c0, j_coeff, terms, itype):
        for tile in self.rows(max((j for j, _ in terms), default=1)):
            out = np.full(tile.shape, j_coeff, dtype=itype)
            for r in _row_tiles(*out.shape):  # each term's temporary a row slice
                for j, c in terms:
                    out[r] += np.multiply(tile.mask(r) if j == 1 else tile[j][r], c, dtype=itype)
            out[np.diag_indices(len(out))] += c0  # entry (r, r) is (x, x) for the r-th row x
            yield tile.rows.start, out
            del out

    def first_mismatch(self, coeffs, j_coeff, target):
        """(i, j, value) of the first entry, in row-major order, at which
        `combination` (coeffs, j_coeff) differs from ``target``, or None.

        A combination found to equal ``target`` is remembered, under its
        relation with the target moved into the J coefficient, and is not
        formed again.  The pass stops at the first mismatching tile."""
        c = [int(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        key = tuple(c), int(j_coeff) - int(target)
        if key in self._zero:
            return None
        for i, tile in self.combination(coeffs, j_coeff):
            hit = _first_differing(i, tile, target)
            if hit is not None:
                return hit
            del tile  # before the next tile is formed
        self._zero.add(key)
        return None


def powers(g: Graph) -> Powers:
    """The graph's `Powers`, created on first use and cached on the graph."""
    if g._powers is None:
        g._powers = Powers(g.bits, int(g.degree_vector.max(initial=0)))
    return g._powers


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


def profile(g: Graph, *, constants: bool = True) -> RegularityProfile:
    """Full lambda/mu multisets by exhaustive pair scan, with the derived
    regularity constants filled in whenever they are defined.

    A regular graph's constants take one pass, which forms each row of
    A^2 and of (A∘A^2)A once and feeds the tally and the sums scan.
    With ``constants=False`` the profile comes from the A^2 entries
    alone: the strong and weak checks are skipped, so gamma, alpha and
    beta stay None and (A∘A^2)A is never formed.  The multisets, the
    levels and mu are the same either way."""
    if g.n < 2:
        raise ValueError("profile needs at least 2 vertices")
    p = powers(g)
    regular, k = g.is_regular()
    if regular and constants:
        p.sum_scan()
    lam, mu = p.tally()
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
    each non-adjacent pair, or a witness of two differing sums: the
    first least and the first greatest sum over pairs x < y, in
    row-major order.

    The sums are read on the pairs x < y alone, and need no transpose.
    On a k-regular graph with constant mu, A∘A^2 = A^2 + mu A - mu J +
    (mu - k) I, which commutes with A (AJ = JA = kJ), so (A∘A^2)A is
    symmetric: the sum for (x, y) is the sum for (y, x)."""
    regular, _ = g.is_regular()
    if not regular:
        raise NotCoEdgeRegular("graph is not regular")
    p = powers(g)
    scan = p.sum_scan()
    _, mu_set = p.tally()
    if not mu_set:
        return StrongReport(True, None, None)  # complete: vacuous
    if len(mu_set) > 1:
        raise NotCoEdgeRegular("mu is not constant over non-adjacent pairs")
    mu = next(iter(mu_set))
    (lo, lo_at), (hi, hi_at) = scan.non
    if lo == hi:
        return StrongReport(True, mu, lo)
    return StrongReport(
        False,
        mu,
        None,
        witness={"pair": scan.pair(lo_at), "sum": lo,
                 "other_pair": scan.pair(hi_at), "other_sum": hi},
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

    With two distinct lambda values present the solution is unique, and
    is read off the first edges of the least and the greatest lambda;
    with constant lambda every alpha works and the one-parameter family
    (lambda0, sum0) with beta = alpha*lambda0 - sum0 is reported.
    """
    regular, _ = g.is_regular()
    if not regular:
        raise NotRegular("graph is not regular")
    scan = powers(g).sum_scan()
    present = np.flatnonzero(scan.first >= 0)
    if not present.size:
        return WeakReport(True, None, None, family=(0, 0))
    l1, l2 = int(present[0]), int(present[-1])
    s1, s2 = int(scan.first_sum[l1]), int(scan.first_sum[l2])
    if l1 == l2:
        if scan.off[l1] < 0:
            return WeakReport(True, None, None, family=(l1, s1))
        (lo, lo_at), (hi, hi_at) = scan.edge
        return WeakReport(
            False,
            None,
            None,
            witness={
                "edge": scan.pair(lo_at),
                "sum": lo,
                "other_edge": scan.pair(hi_at),
                "other_sum": hi,
                "lambda": l1,
            },
        )
    alpha = Fraction(s1 - s2, l1 - l2)
    beta = alpha * l1 - s1
    # the first edge off the line sum = alpha*lambda - beta: of each
    # lambda, its first edge if that one is off, else its first edge
    # whose sum differs from the first edge's
    off = []
    for v in present.tolist():
        at, total = int(scan.first[v]), int(scan.first_sum[v])
        if alpha * v - beta == total:
            at, total = int(scan.off[v]), int(scan.off_sum[v])
        if at >= 0:
            off.append((at, v, total))
    if not off:
        return WeakReport(True, alpha, beta)
    at, v, total = min(off)
    return WeakReport(
        False,
        None,
        None,
        witness={
            "edge": scan.pair(at),
            "lambda": v,
            "sum": total,
            "alpha_candidate": jsonable(alpha),
            "beta_candidate": jsonable(beta),
        },
    )


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
    members = list(vertex_set)
    if all(map(_is_int, members)):  # else sorting, or hashing a list, would raise
        members = sorted(set(members))
    strays = [v for v in members if not (_is_int(v) and 0 <= v < g.n)]
    if strays:
        raise VertexOutOfRange(f"set member {strays[0]} is not a vertex of [0, {g.n})")
    idx = np.asarray(members, dtype=np.intp)
    rows = g.rows(idx)
    inside = rows[:, idx]
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
    # an outside vertex's neighbours in the set: its column sum over the
    # set's rows, as A is symmetric
    degrees = _multiset(np.bincount(rows.sum(axis=0)[~mask]))
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
    """Quotient matrix of a vertex partition, or a witness (u, u', j).

    The counts A P, for the n x m indicator P of the parts, are read as
    (P^T A)^T, since A is symmetric: one product by A's packed rows,
    which unpacks no more than a panel of A at a time."""
    parts = check_parts(parts, g.n)
    if not all(parts):
        raise PartitionInvalid("parts must be non-empty")
    indicator = np.zeros((len(parts), g.n), dtype=bool)
    for j, p in enumerate(parts):
        indicator[j, p] = True
    counts = exact_matmul(indicator, g.bits).T
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
    return EquitableReport(True, tuple(quotient) or None)  # order 0: no quotient


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
    counting; relation 0 is the implicit identity.

    Each `_row_tiles` slice unpacks every relation's rows once, stacked,
    and one `exact_matmul` per j forms its rows of A_1 A_j, ..., A_j A_j,
    so A_j is unpacked once a slice.  Each p_ij^h (1 <= i <= j) is folded
    into its first least and first greatest value on relation h, in
    row-major order (`_extremes`); the witness is the first non-constant
    (i, j, h) in sorted order."""
    if not relations:
        raise NotAPartition("no relations supplied")
    n = relations[0].n
    if any(r.n != n for r in relations):
        raise NotAPartition("relations live on different vertex sets")
    if any(r.edge_count() == 0 for r in relations):
        raise NotAPartition("relations must be non-empty")
    union = relations[0].bits.copy()
    for r in relations[1:]:
        union |= r.bits
    # no gap, and no overlap: each pair x != y in one relation (none has a loop)
    pairs = n * (n - 1) // 2
    if int(_POPCOUNT[union].sum()) != 2 * pairs or sum(r.edge_count() for r in relations) != pairs:
        raise NotAPartition("identity plus relations do not partition X x X")
    d = len(relations)
    ext = {}  # (i, j, h) -> `_extremes` of p_ij^h, each position x * n + y
    for rows in _row_tiles(n, n):
        x0, t = rows.start, rows.stop - rows.start
        masks = _unpack(np.concatenate([r.bits[rows] for r in relations]), n)
        for j in range(1, d + 1):
            prod = exact_matmul(masks[: j * t], relations[j - 1].bits)  # A_1 A_j, ..., A_j A_j
            for i in range(1, j + 1):
                block = prod[(i - 1) * t : i * t]
                for h in range(d + 1):
                    if h:  # the k-th value's position x * n + y
                        mask = masks[(h - 1) * t : h * t]
                        vals, at = block[mask], lambda k: x0 * n + int(np.flatnonzero(mask)[k])
                    else:  # the pairs (x, x)
                        vals, at = block.diagonal(x0), lambda k: (x0 + k) * (n + 1)
                    if vals.size:
                        ext[i, j, h] = _extremes(ext.get((i, j, h)), vals.min(), vals.max(),
                                                 lambda v: at(int((vals == v).argmax())))
            del prod
    table = {}  # I M = M: p_0j^h = p_j0^h = [j == h]
    for j, h in np.ndindex(d + 1, d + 1):
        table[0, j, h] = table[j, 0, h] = int(j == h)
    for (i, j, h), ((lo, lo_at), (hi, hi_at)) in sorted(ext.items()):
        if lo != hi:
            witness = {"i": i, "j": j, "h": h, "pair": divmod(lo_at, n), "count": lo,
                       "other_pair": divmod(hi_at, n), "other_count": hi}
            return AssociationSchemeReport(False, d, None, witness)
        table[i, j, h] = table[j, i, h] = lo
    return AssociationSchemeReport(True, d, table)
