"""Row-tiled powers against whole matrices.

The checks stream A's powers in row tiles and keep no n x n product, so
a witness or a count that spans tiles must still be the one a scan of
the whole matrix gives.  Every expectation here is computed inside the
test from whole int64 matrices and compared with the checks run on
tiles of a few rows, under several labellings.  The memory tests hold
each check's traced peak to a few tiles: no float copy of A is kept.
"""

import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cerg import regularity
from cerg.constructions import tls
from cerg.graphs import Graph
from cerg.regularity import NotCoEdgeRegular, profile, strong_co_edge_regular, weak_edge_regular
from cerg.spectral import (
    AnnihilationFailed,
    SpectrumCertificate,
    _power_sums,
    certify,
    eq1_residual,
)


def circulant(n, steps):
    a = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for s in steps:
            a[i, (i + s) % n] = a[(i + s) % n, i] = True
    return a


def union(*blocks):
    n = sum(len(b) for b in blocks)
    a = np.zeros((n, n), dtype=bool)
    at = 0
    for b in blocks:
        a[at : at + len(b), at : at + len(b)] = b
        at += len(b)
    return a


def clique(m):
    return ~np.eye(m, dtype=bool)


def switched_rook44():
    """The 4x4 rook's graph after one 2-switch: 6-regular, and its
    lambda and mu vary only near the switched rows, which the labelling
    puts last."""
    i, j = np.divmod(np.arange(16), 4)
    a = (i[:, None] == i) ^ (j[:, None] == j)
    for u, v in ((10, 11), (15, 12)):
        a[u, v] = a[v, u] = False
    for u, v in ((10, 15), (11, 12)):
        a[u, v] = a[v, u] = True
    order = [1, 3, 5, 7, 0, 2, 4, 6, 8, 9, 13, 14, 10, 11, 12, 15]
    return a[np.ix_(order, order)]


# the golden circulants (vertex-transitive, so whatever the labelling the
# first witness lies in row 0, and only its partners move between
# tiles), the switched rook, and each circulant after a clique of its
# degree, which moves the weak witnesses past the clique's rows
GRAPHS = {
    "c8-12": circulant(8, (1, 2)),
    "c8-124": circulant(8, (1, 2, 4)),
    "c10-123": circulant(10, (1, 2, 3)),
    "rook44-switched": switched_rook44(),
    "k5+c8-12": union(clique(5), circulant(8, (1, 2))),
    "k6+c8-124": union(clique(6), circulant(8, (1, 2, 4))),
    "k7+c10-123": union(clique(7), circulant(10, (1, 2, 3))),
}


def labellings(n):
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return {"as-built": list(range(n)), "reversed": list(range(n))[::-1], "shuffled": shuffled}


CASES = [(name, how) for name in GRAPHS for how in ("as-built", "reversed", "shuffled")]


def relabelled(name, how):
    a = GRAPHS[name]
    order = labellings(len(a))[how]
    return a[np.ix_(order, order)]


def whole(a):
    """A^2, (A∘A^2)A and the masks of the pairs x < y, from int64 matrices."""
    x = a.astype(np.int64)
    a2 = x @ x
    sums = (x * a2) @ x
    upper = np.triu(np.ones(a.shape, dtype=bool), 1)
    return a2, sums, upper & a, upper & ~a


def strong_reference(a):
    a2, sums, _, non = whole(a)
    mu = sorted(set(a2[non].tolist()))
    if len(mu) > 1:
        return None  # the check raises
    assert np.array_equal(sums[non], sums.T[non])  # symmetric once mu is constant
    vals, pairs = sums[non], [tuple(p) for p in np.argwhere(non).tolist()]
    if vals.min() == vals.max():
        return True, mu[0], int(vals[0]), None
    lo, hi = int(vals.argmin()), int(vals.argmax())
    witness = {"pair": pairs[lo], "sum": int(vals[lo]),
               "other_pair": pairs[hi], "other_sum": int(vals[hi])}
    return False, mu[0], None, witness


def weak_reference(a):
    """(ok, alpha, beta, witness): alpha and beta from the first edges of
    least and greatest lambda, the witness the first edge off the line."""
    a2, sums, adj, _ = whole(a)
    lam, s = a2[adj].tolist(), sums[adj].tolist()
    edges = [tuple(e) for e in np.argwhere(adj).tolist()]
    if min(lam) == max(lam):
        if min(s) == max(s):
            return True, None, None, None
        lo, hi = s.index(min(s)), s.index(max(s))
        return False, None, None, {"edge": edges[lo], "sum": s[lo], "other_edge": edges[hi],
                                   "other_sum": s[hi], "lambda": lam[0]}
    i, j = lam.index(min(lam)), lam.index(max(lam))
    alpha = Fraction(s[i] - s[j], lam[i] - lam[j])
    beta = alpha * lam[i] - s[i]
    bad = [e for e, (v, t) in enumerate(zip(lam, s)) if alpha * v - beta != t]
    if not bad:
        return True, alpha, beta, None
    e = bad[0]
    return False, None, None, {
        "edge": edges[e], "lambda": lam[e], "sum": s[e],
        "alpha_candidate": [alpha.numerator, alpha.denominator],
        "beta_candidate": [beta.numerator, beta.denominator],
    }


def tiles_of(monkeypatch, rows, n):
    monkeypatch.setattr(regularity, "_TILE_ENTRIES", rows * n)
    monkeypatch.setattr(regularity, "_MAX_TILES", n)
    assert next(regularity._row_tiles(n, n)) == slice(0, rows)


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name, how", CASES)
def test_tiled_multisets_and_witnesses_equal_whole_matrix_ones(name, how, rows, monkeypatch):
    a = relabelled(name, how)
    tiles_of(monkeypatch, rows, len(a))
    a2, _, adj, non = whole(a)
    prof = profile(Graph(a))
    assert prof.lambda_multiset == dict(Counter(a2[adj].tolist()))
    assert prof.mu_multiset == dict(Counter(a2[non].tolist()))

    want = strong_reference(a)
    if want is None:
        with pytest.raises(NotCoEdgeRegular):
            strong_co_edge_regular(Graph(a))
    else:
        rep = strong_co_edge_regular(Graph(a))
        assert (rep.ok, rep.mu, rep.gamma, rep.witness) == want

    rep = weak_edge_regular(Graph(a))
    ok, alpha, beta, witness = weak_reference(a)
    assert (rep.ok, rep.witness) == (ok, witness)
    if alpha is not None:
        assert (rep.alpha, rep.beta) == (alpha, beta)


@pytest.mark.parametrize("name", ["k5+c8-12", "k6+c8-124", "k7+c10-123", "rook44-switched"])
def test_weak_witnesses_reach_later_tiles(name):
    a = relabelled(name, "as-built")
    ok, _, _, witness = weak_reference(a)
    assert not ok and witness["edge"][0] >= 3  # past a 3-row first tile


def rook_residuals(a):
    x = a.astype(object)
    eye = np.eye(len(a), dtype=object)
    annihilation = x @ x - 4 * eye - 2  # (A - 2I)(A + 2I) - ell J, ell = 2
    eq1 = x @ x @ x - 4 * x - 12  # eigenvalues 2, 0, -2 and ell = 12
    return annihilation, eq1


@pytest.mark.parametrize("rows", [1, 2, 3, 5])
@pytest.mark.parametrize("how", ["as-built", "reversed", "shuffled"])
def test_tiled_annihilation_and_eq1_positions_equal_whole_matrix_ones(how, rows, monkeypatch):
    a = relabelled("rook44-switched", how)
    tiles_of(monkeypatch, rows, 16)
    annihilation, eq1 = rook_residuals(a)

    with pytest.raises(AnnihilationFailed) as info:
        certify(Graph(a), [(6, 1), (2, 6), (-2, 9)])
    i, j = np.argwhere(annihilation != 0)[0].tolist()
    assert info.value.witness == {"entry": (i, j), "got": annihilation[i, j] + 2, "expected": 2}

    thetas = tuple(Fraction(t) for t in (6, 2, 0, -2))
    cert = SpectrumCertificate(16, Fraction(6), thetas, (1, 6, 0, 9), Fraction(12), {})
    rep = eq1_residual(Graph(a), cert)
    mag = np.abs(eq1)
    i, j = np.argwhere(mag == mag.max())[0].tolist()
    assert rep.position == (i, j) and rep.residual == eq1[i, j]


def test_later_tile_positions_in_the_as_built_rook():
    annihilation, eq1 = rook_residuals(relabelled("rook44-switched", "as-built"))
    assert np.argwhere(annihilation != 0)[0][0] >= 3  # past a 3-row first tile
    mag = np.abs(eq1)
    assert np.argwhere(mag == mag.max())[0][0] >= 5


# -- memory: a few tiles and no float copy of A, at n = 1600

TLS45_CLAIM = [(383, 1), (63, 95), (-1, 1200), (-17, 304)]


@pytest.fixture(scope="module")
def tls45_matrix():
    return tls(4, 5).rows(slice(None))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def certify_then_eq1(g):
    eq1_residual(g, certify(g, TLS45_CLAIM))


def strong_then_weak(g):
    strong_co_edge_regular(g)
    weak_edge_regular(g)


# bytes of one int64 tile of 2^19 entries, 327 rows at n = 1600
TILE = 8 * 2**19


@pytest.mark.parametrize("run", [profile, certify_then_eq1, strong_then_weak])
def test_peak_is_the_float_copy_plus_a_few_tiles(run, tls45_matrix):
    n = len(tls45_matrix)
    g = Graph(tls45_matrix)  # fresh: nothing computed yet
    peak = traced_peak(lambda: run(g))
    # no float copy of A is held; the boolean A predates the trace
    assert peak < 4 * TILE, peak
    assert next(regularity._row_tiles(n, n)).stop * n <= 2**19


def power_sums_to_9(g):
    assert _power_sums(g, 9) is not None


# what a pass holds, with no float copy of A: one tile of 200 rows at
# n = 1600, the panel of A that its product casts, and the reducers'
# slices of the tile (measured 5.6 MB; with A's 10.2 MB float32 copy
# held for the graph's life, 12.6 MB)
LEAN = 6.5 * 2**20


@pytest.mark.parametrize("run", [profile, strong_then_weak, certify_then_eq1, power_sums_to_9])
def test_a_pass_holds_one_small_tile_past_the_float_copy(run, tls45_matrix):
    g = Graph(tls45_matrix)
    peak = traced_peak(lambda: run(g))
    assert peak < LEAN, peak / 2**20


@pytest.mark.parametrize("n, rows", [(32, 32), (288, 288), (432, 303), (1600, 200), (6125, 766)])
def test_tile_heights(n, rows):
    tiles = list(regularity._row_tiles(n, n))
    assert tiles[0] == slice(0, rows) and tiles[-1].stop == n and len(tiles) <= 8


def combination_reference(a, coeffs, j_coeff):
    x = a.astype(object)
    out = np.full(a.shape, j_coeff, dtype=object)
    term = np.eye(len(a), dtype=object)
    for c in coeffs:
        out += c * term
        term = term @ x
    return out


@pytest.mark.parametrize("past", [0, 1])
def test_combination_tiles_are_int32_below_2_31(past, monkeypatch):
    a = relabelled("rook44-switched", "shuffled")
    tiles_of(monkeypatch, 5, len(a))
    p = regularity.powers(Graph(a))
    k = p.max_degree
    coeffs = [3, -5, 2, 1]
    rest = sum(abs(c) * k ** max(j - 1, 0) for j, c in enumerate(coeffs))
    j_coeff = -(2**31 - rest) + 1 - past  # bound 2^31 - 1, then 2^31
    want = combination_reference(a, coeffs, j_coeff)
    for i, tile in p.combination(coeffs, j_coeff):
        assert tile.dtype == (np.int64 if past else np.int32)
        assert np.array_equal(tile.astype(object), want[i : i + len(tile), i:])


@pytest.mark.parametrize("target", [2**31, 2**40, -(2**31) - 1, -(2**45)])
def test_a_target_outside_int32_is_not_part_of_the_bound(target, monkeypatch):
    """The int32 tiles of A^2 - 4I differ everywhere from such a target,
    so the first mismatch is entry (0, 0); shifting both the J
    coefficient and the target by it takes the tiles to int64 and gives
    the mismatch of target 0."""
    a = relabelled("rook44-switched", "as-built")
    tiles_of(monkeypatch, 3, len(a))
    p = regularity.powers(Graph(a))
    coeffs = [-4, 0, 1]
    assert next(p.combination(coeffs))[1].dtype == np.int32
    residual = combination_reference(a, coeffs, 0)
    assert p.first_mismatch(coeffs, 0, target) == (0, 0, residual[0, 0])
    assert next(p.combination(coeffs, target))[1].dtype == np.int64
    i, j = np.argwhere(residual != 0)[0].tolist()
    assert p.first_mismatch(coeffs, target, target) == (i, j, residual[i, j] + target)
    assert p.first_mismatch(coeffs, 0, 0) == (i, j, residual[i, j])


def test_each_tile_product_scans_its_left_operand_once(monkeypatch):
    a = relabelled("k7+c10-123", "shuffled")
    tiles_of(monkeypatch, 4, len(a))
    events = []
    absmax, matmul = regularity._absmax, regularity.exact_matmul

    def scanned(x):
        events.append(("scan", id(x)))
        return absmax(x)

    def product(x, y, *args, **kwargs):
        events.append(("product", id(x)))
        return matmul(x, y, *args, **kwargs)

    monkeypatch.setattr(regularity, "_absmax", scanned)
    monkeypatch.setattr(regularity, "exact_matmul", product)
    p = regularity.powers(Graph(a))
    p.want_sums = True
    for _ in p.rows(4):
        pass
    products = [x for kind, x in events if kind == "product"]
    assert len(products) == 5 * 4  # five tiles of A^2, A^3, A^4, (A∘A^2)A
    # exact_matmul scans its left operand itself, inside the product call
    assert events == [(kind, x) for x in products for kind in ("product", "scan")]
