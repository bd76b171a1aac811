import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cerg.graphs import (
    MAX_VERTICES,
    Graph,
    MalformedGraph6,
    VertexOutOfRange,
    clique_extension,
    complement,
    from_graph6_bytes,
    graph6_bytes,
    local_graph,
    read_graph6,
    write_graph6,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph([[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(ValueError):
        Graph([[1]])  # loop
    with pytest.raises(VertexOutOfRange):
        Graph.from_edges(2, [(0, 2)])


def test_complement_of_complete_is_empty():
    assert complement(Graph.complete(5)) == Graph.empty(5)


def test_complement_is_involution():
    for seed in range(5):
        g = random_graph(10, 0.4, seed)
        assert complement(complement(g)) == g


def test_complement_preserves_labels_and_counts():
    g = Graph.from_edges(4, [(0, 1)], labels=["a", "b", "c", "d"])
    c = complement(g)
    assert c.labels == ("a", "b", "c", "d")
    assert c.edge_count() == 6 - 1


def test_clique_extension_identity_and_k1():
    g = random_graph(8, 0.5, 3)
    assert clique_extension(g, 1) == g
    assert clique_extension(Graph.empty(1), 5) == Graph.complete(5)


def test_clique_extension_matches_kronecker_form():
    # with clone blocks contiguous the adjacency is (A+I) (x) J_s - I
    g = random_graph(6, 0.5, 11)
    s = 3
    ext = clique_extension(g, s)
    a = g.adjacency_matrix()
    expected = np.kron(a + np.eye(6, dtype=np.int64), np.ones((s, s), dtype=np.int64))
    expected -= np.eye(6 * s, dtype=np.int64)
    assert np.array_equal(ext.adjacency_matrix(), expected)


def test_clique_extension_degree_sum_identity():
    for seed in range(4):
        g = random_graph(7, 0.5, seed)
        for s in (2, 3):
            ext = clique_extension(g, s)
            assert 2 * ext.edge_count() == s * s * 2 * g.edge_count() + s * (s - 1) * g.n


def test_local_graph_cases():
    assert local_graph(Graph.complete(4), 0) == Graph.complete(3)
    c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    lg = local_graph(c5, 0)
    assert lg.n == 2 and lg.edge_count() == 0
    with pytest.raises(VertexOutOfRange):
        local_graph(c5, 5)


# -- graph6


def test_k3_packs_to_Bw():
    assert graph6_bytes(Graph.complete(3)) == b"Bw"


def test_empty_three_vertex_graph():
    g = from_graph6_bytes(b"B?")
    assert g.n == 3 and g.edge_count() == 0


def test_round_trip_random_graphs():
    for seed in range(20):
        n = random.Random(seed).randrange(1, 51)
        g = random_graph(n, 0.35, seed + 100)
        assert from_graph6_bytes(graph6_bytes(g)) == g


def test_graph6_agrees_with_networkx():
    for seed in range(10):
        g = random_graph(24, 0.4, seed)
        data = graph6_bytes(g)
        gn = nx.from_graph6_bytes(data)
        assert set(gn.edges()) == set(g.edges())
        assert nx.to_graph6_bytes(gn, header=False).strip() == data


def test_graph6_long_form_boundary():
    g = Graph.from_edges(63, [(0, 62)])
    data = graph6_bytes(g)
    assert data[0] == 126  # '~' prefix for n >= 63
    assert from_graph6_bytes(data) == g
    assert set(nx.from_graph6_bytes(data).edges()) == {(0, 62)}


def test_graph6_of_zero_and_one_vertex():
    assert graph6_bytes(Graph.empty(0)) == b"?"
    assert graph6_bytes(Graph.empty(1)) == b"@"
    assert from_graph6_bytes(b"?").n == 0 and from_graph6_bytes(b"@").n == 1


def test_graph6_encoding_holds_no_n_squared_mask():
    """The lower-triangle bits come from row slices of A: the traced
    peak of encoding tls(4, 5), n = 1600, stays under 1.2 n^2 bytes (an
    n^2 triangle mask took it to 1.5 n^2)."""
    import tracemalloc

    from cerg.constructions import tls

    g = tls(4, 5)
    tracemalloc.start()
    try:
        data = graph6_bytes(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert from_graph6_bytes(data) == g
    assert peak < 1.2 * g.n**2


def test_graph6_decoding_holds_no_n_squared_mask(tmp_path):
    """The decoder writes packed rows directly, a block of rows and then
    a block of columns at a time: the traced peak of reading tls(4, 5),
    n = 1600, from its file is at most 1 MiB, the 0.3 MiB result, the
    0.2 MiB line and small blocks (4.18 MiB when it filled a boolean
    matrix, which alone is 2.4 MiB)."""
    import tracemalloc

    from cerg.constructions import tls

    g = tls(4, 5)
    path = tmp_path / "tls45.g6"
    write_graph6(g, path)
    tracemalloc.start()
    try:
        h = read_graph6(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == g
    assert peak <= 2**20, peak


def test_malformed_graph6_reports_offset():
    with pytest.raises(MalformedGraph6) as exc:
        from_graph6_bytes(b"B\x07")
    assert exc.value.offset == 1
    with pytest.raises(MalformedGraph6) as exc:
        from_graph6_bytes(b"Bww")  # trailing in-range byte: length mismatch
    assert exc.value.offset == 2
    with pytest.raises(MalformedGraph6) as exc:
        from_graph6_bytes(b"C")  # truncated: n=4 needs one body byte
    assert exc.value.offset == 1
    # nonzero padding bits: n=2 uses only 1 bit of the body byte
    with pytest.raises(MalformedGraph6) as exc:
        from_graph6_bytes(bytes([63 + 2, 63 + 0b011111]))
    assert exc.value.offset == 1


def test_file_round_trip(tmp_path):
    g = random_graph(30, 0.3, 12)
    path = tmp_path / "g.g6"
    write_graph6(g, path)
    assert read_graph6(path) == g
    assert nx.read_graph6(path).number_of_edges() == g.edge_count()


def test_read_graph6_rejects_a_second_graph(tmp_path):
    first = graph6_bytes(Graph.complete(3)) + b"\n"
    path = tmp_path / "two.g6"
    path.write_bytes(first + graph6_bytes(Graph.empty(4)) + b"\n")
    with pytest.raises(MalformedGraph6) as exc:
        read_graph6(path)
    assert exc.value.offset == len(first)


@pytest.mark.parametrize("ending", [b"", b"\n", b"\r\n"])
def test_read_graph6_accepts_one_line_endings(tmp_path, ending):
    path = tmp_path / "one.g6"
    path.write_bytes(b"Bw" + ending)
    assert read_graph6(path) == Graph.complete(3)


# -- the boolean matrix, against networkx as the graph6 oracle


@st.composite
def symmetric_matrices(draw, max_n=130):
    """Random loop-free symmetric 0/1 matrices; n crosses the 62/63
    switch between the one- and four-byte size fields."""
    n = draw(st.integers(0, max_n))
    npairs = n * (n - 1) // 2
    raw = draw(st.binary(min_size=(npairs + 7) // 8, max_size=(npairs + 7) // 8))
    a = np.zeros((n, n), dtype=np.int64)
    a[np.tri(n, k=-1, dtype=bool)] = np.unpackbits(np.frombuffer(raw, np.uint8))[:npairs]
    return a + a.T


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_graph6_matches_networkx_and_round_trips(a):
    g = Graph(a)
    data = graph6_bytes(g)
    assert data == nx.to_graph6_bytes(nx.from_numpy_array(a), header=False).rstrip(b"\n")
    assert from_graph6_bytes(data) == g
    assert np.array_equal(from_graph6_bytes(data).adjacency_matrix(), a)


GRAPH6_LIKE = st.one_of(
    st.binary(max_size=40),
    st.lists(st.integers(63, 126), max_size=40).map(bytes),
    st.tuples(
        st.sampled_from([b"", b"~", b"~~"]),
        st.lists(st.integers(63, 126), max_size=40).map(bytes),
        st.sampled_from([b"", b"\n", b"\r\n", b"\x00"]),
    ).map(b"".join),
)


@settings(max_examples=400, deadline=None)
@given(GRAPH6_LIKE)
def test_any_bytes_give_a_graph_or_malformed_graph6(data):
    try:
        g = from_graph6_bytes(data)
    except MalformedGraph6 as exc:
        assert 0 <= exc.offset <= len(data)
    else:
        assert from_graph6_bytes(graph6_bytes(g)) == g


@pytest.mark.parametrize(
    "a, message",
    [
        (np.zeros((2, 3)), "square"),
        (np.zeros(3), "square"),
        (np.zeros((2, 2, 2)), "square"),
        ([[0, 0, 0], [0, 1, 0], [0, 0, 1]], "loop at vertex 1"),
        ([[0, 0, 0], [0, 0, 1], [1, 0, 0]], r"not symmetric at \(1, 2\)"),
    ],
)
def test_graph_rejects_non_square_looped_or_asymmetric(a, message):
    with pytest.raises(ValueError, match=message):
        Graph(a)


def test_graph_order_is_checked_before_any_copy():
    huge = np.broadcast_to(np.zeros(1, dtype=bool), (MAX_VERTICES + 1,) * 2)
    with pytest.raises(ValueError, match="outside"):
        Graph(huge)


def test_graph_matrix_is_a_frozen_copy_and_nonzero_is_an_edge():
    a = np.array([[0, 2], [-1, 0]])
    g = Graph(a)
    a[0, 1] = 0
    assert g == Graph.complete(2) and g.bits.dtype == np.uint8
    with pytest.raises(ValueError):
        g.bits[0, 0] = 0
    with pytest.raises(ValueError):
        g.adjacency_matrix()[0, 1] = 0


def test_queries_return_python_ints():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert g.degrees() == [1, 2, 2, 1] and type(g.degrees()[0]) is int
    assert g.neighbors(1) == [0, 2] and type(g.neighbors(1)[0]) is int
    assert g.edges() == [(0, 1), (1, 2), (2, 3)] and type(g.edges()[0][0]) is int
    assert type(g.edge_count()) is int and type(g.degree(0)) is int
    assert g.is_connected() and not Graph.from_edges(4, [(0, 1)]).is_connected()
    regular, k = Graph.complete(5).is_regular()
    assert regular and k == 4 and type(k) is int


@pytest.mark.parametrize("u", [0.7, True, "1", 2**63, -1, 3, None])
def test_from_edges_refuses_an_endpoint_that_is_no_vertex(u):
    # 0.7 was rounded to 0, True and "1" read as 1, and 2**63 overflowed
    with pytest.raises(VertexOutOfRange, match=rf"edge \({u}, 2\) outside \[0, 3\)"):
        Graph.from_edges(3, [(0, 1), (u, 2)])


def test_from_edges_takes_numpy_integers_and_reports_a_loop_first():
    g = Graph.from_edges(3, [(np.int64(0), np.uint8(2))])
    assert g.edges() == [(0, 2)]
    with pytest.raises(ValueError, match="loop at vertex 5"):
        Graph.from_edges(3, [(5, 5)])


def test_degrees_are_one_read_only_vector_kept_on_the_graph():
    g = Graph.from_edges(5, [(0, i) for i in range(1, 5)])  # K_{1,4}
    d = g.degree_vector
    assert g.degree_vector is d and not d.flags.writeable
    assert d.tolist() == g.degrees() == [4, 1, 1, 1, 1]
    assert g.is_regular() == (False, None) and g.edge_count() == 4
    assert Graph.empty(0).is_regular() == (True, 0) and Graph.empty(0).edge_count() == 0
    assert Graph.empty(3).is_regular() == (True, 0)


def test_graphs_larger_than_one_tile():
    # the symmetry check and the decoder's symmetrisation work on
    # blocks of rows and of columns; n = 1100 spans many of them
    n = 1100
    upper = np.triu(np.random.default_rng(5).random((n, n)) < 0.01, 1)
    g = Graph(upper | upper.T)
    assert np.array_equal(from_graph6_bytes(graph6_bytes(g)).rows(slice(None)), upper | upper.T)
    with pytest.raises(ValueError, match=r"not symmetric at \(3, 1050\)"):
        Graph(np.eye(n, k=1047, dtype=bool) & (np.arange(n) == 3)[:, None])


# -- packed storage against a dense reference


def assert_packed(g, dense):
    """g holds exactly dense's packed rows: read-only, zero padding bits."""
    n = len(dense)
    assert g.n == n and g.bits.dtype == np.uint8 and g.bits.shape == (n, -(-n // 8))
    assert not g.bits.flags.writeable
    assert np.array_equal(g.bits, np.packbits(dense, axis=1))
    if n % 8:
        assert not (g.bits[:, -1] & ((1 << (8 - n % 8)) - 1)).any()
    assert np.array_equal(g.rows(slice(None)), dense)


@pytest.mark.parametrize("residue", range(8))
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_packed_rows_match_a_dense_reference(residue, data):
    """n = 8q + residue up to 70: every padding width, and both graph6
    size fields."""
    n = 8 * data.draw(st.integers(0, (70 - residue) // 8)) + residue
    upper = np.triu(data.draw(arrays(bool, (n, n))), 1)
    dense = upper | upper.T
    eye = np.eye(n, dtype=bool)
    g = Graph(dense)
    assert_packed(g, dense)
    assert graph6_bytes(g) == nx.to_graph6_bytes(nx.from_numpy_array(dense), header=False)[:-1]
    back = from_graph6_bytes(graph6_bytes(g))
    assert_packed(back, dense)
    assert back == g and hash(back) == hash(g) == hash(Graph(dense.astype(int)))
    assert_packed(complement(g), ~dense & ~eye)
    extension = np.kron(dense | eye, np.ones((2, 2), dtype=bool))
    assert_packed(clique_extension(g, 2), extension & ~np.eye(2 * n, dtype=bool))
    for x in range(min(n, 3)):
        verts = np.flatnonzero(dense[x])
        assert_packed(local_graph(g, x), dense[np.ix_(verts, verts)])
    assert g.degrees() == dense.sum(axis=1).tolist()
    assert g.edges() == [tuple(e) for e in np.argwhere(upper).tolist()]
    assert g.is_connected() == (n == 0 or nx.is_connected(nx.from_numpy_array(dense)))
    if n >= 2:
        flipped = dense.copy()
        flipped[0, n - 1] = flipped[n - 1, 0] = not dense[0, n - 1]
        assert Graph(flipped) != g and complement(g) != g


def test_a_graph_holds_its_packed_rows_alone():
    from cerg.constructions import tls

    g = tls(4, 5)
    held = [getattr(g, name) for name in Graph.__slots__]
    assert sum(m.nbytes for m in held if isinstance(m, np.ndarray)) == 1600 * 200
    assert g.bits.shape == (1600, 200) and not hasattr(g, "a")
