"""Every clique-union family against a dense reference, bit for bit.

`latin_square_graph`, `tls`, `block_graph` and `h_graph` fill packed rows
a block at a time from their cliques (`geometry._clique_bits`).  The
references below build the whole n x n boolean matrix the way the
builders once did: LS_m(n) as an OR of symbol equalities, TLS(q, n) as
fibre blocks (`np.kron`) plus one `np.ix_` write per clique, a block
graph as one `np.ix_` write per point's pencil.  The packed rows, the
labels and the TLS sidecar must match them exactly.
"""

import json
import tracemalloc

import numpy as np
import pytest

from cerg.arrays import (
    GroupDivisibleArray,
    OrthogonalArray,
    goa_from_oa,
    oa_macneish,
    oa_prime_power,
    write_array,
)
from cerg.cli import main
from cerg.constructions import h_graph, latin_square_graph, tls, tls_metadata
from cerg.geometry import (
    block_graph,
    decode_point,
    design_affine_lines,
    design_one_factorization,
    parallel_classes,
)
from cerg.graphs import read_graph6


def dense_latin_square(oa, m):
    """(packed rows, labels) of LS_m(n) from the n^2 x n^2 matrix."""
    n2 = oa.n * oa.n
    a = np.zeros((n2, n2), dtype=bool)
    for row in oa.cells[:m]:
        a |= row[:, None] == row[None, :]
    np.fill_diagonal(a, False)
    return np.packbits(a, axis=1), tuple(f"col{c}" for c in range(n2))


def dense_tls(q, n, goa=None):
    """(packed rows, labels, sidecar) of TLS(q, n) from the whole matrix."""
    if goa is None:
        goa = goa_from_oa(OrthogonalArray(n, q + 1, oa_macneish(n).cells[: q + 1]), q)
    pcs, q3 = parallel_classes(q), q**3
    a = np.kron(np.eye(n * n, dtype=bool), np.ones((q3, q3), dtype=bool))
    cliques = []
    for s in range(q + 1):
        for t in range(q):
            plane, row = pcs.classes[s, t], goa.row(s, t)
            for sym in range(n):
                members = (np.flatnonzero(row == sym)[:, None] * q3 + plane).ravel()
                a[np.ix_(members, members)] = True
                cliques.append(members.tolist())
    np.fill_diagonal(a, False)
    points = [str(decode_point(x, q, 3)) for x in range(q3)]
    labels = tuple(f"{x}@{i}" for i in range(n * n) for x in points)
    meta = {
        "family": "tls", "q": q, "n": n, "cliques": cliques,
        "fibers": [list(range(i * q3, (i + 1) * q3)) for i in range(n * n)],
        "planes": {f"{s},{t}": pcs.classes[s, t].tolist() for s in range(q + 1) for t in range(q)},
    }
    return np.packbits(a, axis=1), labels, meta


def dense_block_graph(d, classes=()):
    """Packed rows of the block graph from the whole b x b boolean
    matrix: each point's blocks, gathered block by block in Python (not
    from `Design.by_point`), are joined by one `np.ix_` write, and so is
    each row of ``classes`` (the h-graph's resolution classes)."""
    pencils = [[] for _ in range(d.v)]
    for i, block in enumerate(d.blocks.tolist()):
        for x in block:
            pencils[x].append(i)
    a = np.zeros((d.b, d.b), dtype=bool)
    for group in [*pencils, *classes]:
        a[np.ix_(group, group)] = True
    np.fill_diagonal(a, False)
    return np.packbits(a, axis=1)


def check_tls(g, want):
    bits, labels, meta = want
    assert np.array_equal(g.bits, bits) and g.labels == labels
    assert json.dumps(tls_metadata(g)) == json.dumps(meta)


TLS_SIZES = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5),
             (3, 7), (4, 4), (4, 5), (4, 7), (5, 5), (5, 7)]


@pytest.mark.parametrize("q, n", TLS_SIZES)
def test_tls_matches_the_dense_reference(q, n):
    check_tls(tls(q, n), dense_tls(q, n))


LS_SIZES = [(n, m) for n in (2, 3, 4, 5, 7, 8, 9, 12, 16, 20, 35) for m in range(1, 7)
            if m <= oa_macneish(n).t]


@pytest.mark.parametrize("n, m", LS_SIZES)
def test_latin_square_graph_matches_the_dense_reference(n, m):
    oa = oa_macneish(n)
    g = latin_square_graph(oa, m)
    bits, labels = dense_latin_square(oa, m)
    assert np.array_equal(g.bits, bits) and g.labels == labels


def test_latin_square_graph_of_unbalanced_rows_matches_the_dense_reference():
    """Rows that no orthogonal array has, some symbols more often than
    others or missing, still give the union of their symbol classes."""
    rng = np.random.default_rng(7)
    for n, t in [(3, 1), (4, 3), (5, 2), (6, 4)]:
        oa = OrthogonalArray(n, t, rng.integers(0, n - 1, size=(t, n * n)))
        for m in range(1, t + 1):
            bits, labels = dense_latin_square(oa, m)
            g = latin_square_graph(oa, m)
            assert np.array_equal(g.bits, bits) and g.labels == labels


DESIGNS = {
    **{f"AG({d},2)": (2, d) for d in (2, 3, 4, 5)},
    "AG(2,3)": (3, 2), "AG(2,4)": (4, 2), "AG(3,3)": (3, 3),
}
FACTORIZATIONS = range(4, 17, 2)


@pytest.mark.parametrize("qd", DESIGNS.values(), ids=DESIGNS.keys())
def test_affine_block_and_h_graphs_match_the_dense_reference(qd):
    d = design_affine_lines(*qd)
    assert np.array_equal(block_graph(d).bits, dense_block_graph(d))
    assert np.array_equal(h_graph(d).bits, dense_block_graph(d, d.resolution))


@pytest.mark.parametrize("m", FACTORIZATIONS)
def test_one_factorization_block_and_h_graphs_match_the_dense_reference(m):
    d = design_one_factorization(m)
    assert np.array_equal(block_graph(d).bits, dense_block_graph(d))
    assert np.array_equal(h_graph(d).bits, dense_block_graph(d, d.resolution))


def test_tls_from_a_goa_file_matches_the_dense_reference(tmp_path, capsys):
    """A GOA whose groups are distinct OA rows, not one row repeated:
    groups (0, 1), (2, 3), (4, 5) of the linear OA(5, 6)."""
    goa = GroupDivisibleArray(5, 2, 3, oa_prime_power(5).cells)
    write_array(goa, tmp_path / "goa.txt")
    out = tmp_path / "tls25.g6"
    argv = ["construct", "tls", "--q", "2", "--n", "5", "--goa", str(tmp_path / "goa.txt")]
    assert main([*argv, "-o", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["k"] == 7 + 3 * 4 * (5 - 1)
    bits, labels, meta = dense_tls(2, 5, goa)
    assert np.array_equal(read_graph6(out).bits, bits)
    assert (tmp_path / "tls25.g6.meta.json").read_text() == json.dumps(meta)
    check_tls(tls(2, 5, goa), (bits, labels, meta))


def traced_peak(build, *args):
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tls_holds_no_boolean_matrix():
    """tls(4, 5), n = 1600: a 0.71 MiB peak, its packed rows 0.31 MiB
    of it; the n x n boolean matrix alone took 2.44 MiB (a 2.98 MiB peak)."""
    tls(4, 5)  # the field tables and parallel classes' imports, once
    assert traced_peak(tls, 4, 5) <= 2**20


def test_latin_square_graph_holds_no_boolean_matrix():
    """LS_6(35), n = 1225: a 0.65 MiB peak, its packed rows 0.18 MiB of
    it; the n x n boolean matrix and one row equality took 2.86 MiB (a
    2.98 MiB peak)."""
    oa = oa_macneish(35)
    latin_square_graph(oa, 6)
    assert traced_peak(latin_square_graph, oa, 6) <= 2**20
