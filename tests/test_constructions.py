import itertools
import tracemalloc

import numpy as np
import pytest

from cerg.arrays import goa_from_oa, oa_macneish, oa_prime_power
from cerg.constructions import (
    NotATlsGraph,
    ParameterMismatch,
    PartNotClique,
    PartNotCoclique,
    PartitionInvalid,
    TooFewRows,
    h_graph,
    latin_square_graph,
    spread_modified,
    tls,
    tls_structure,
)
from cerg.geometry import Design, block_graph, design_affine_lines, design_one_factorization
from cerg.graphs import MAX_VERTICES, Graph, clique_extension, complement, local_graph
from cerg.regularity import is_strongly_regular
from conftest import brute_lambda_mu, neighbor_sets


# -- Latin Square graphs


def test_ls_graph_srg_parameters():
    g = latin_square_graph(oa_prime_power(4), 3)
    ok, params = is_strongly_regular(g)
    assert ok and params == (16, 9, 4, 6)


def test_ls_graph_one_row_is_clique_union():
    g = latin_square_graph(oa_prime_power(3), 1)
    # n disjoint K_n: 3 components of 3 mutually adjacent columns
    assert g.edge_count() == 3 * 3
    assert not g.is_connected()
    ok, k = g.is_regular()
    assert ok and k == 2


def test_ls_graph_rook(rook33):
    ok, params = is_strongly_regular(rook33)
    assert ok and params == (9, 4, 1, 2)


def test_ls_graph_row_bound():
    with pytest.raises(TooFewRows):
        latin_square_graph(oa_prime_power(3), 5)


# -- TLS: construction-level laws from the local-structure analysis


def test_tls22_basic(tls22):
    assert tls22.n == 32
    assert tls22.is_regular() == (True, 19)


def test_tls33_basic(tls33):
    assert tls33.n == 243
    assert tls33.is_regular() == (True, 98)


def test_tls26_valency():
    g = tls(2, 6)
    assert g.n == 288
    assert g.is_regular() == (True, 7 + 3 * 5 * 4)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 4), (4, 5)])
def test_tls_valency_formula(q, n):
    # q = 4 routes the plane geometry through genuine GF(4) arithmetic
    g = tls(q, n)
    assert g.n == q**3 * n * n
    assert g.is_regular() == (True, q**3 - 1 + (q + 1) * (n - 1) * q * q)


def test_tls_needs_enough_oa_rows():
    # OA(2, 4) does not exist, so TLS(3, 2) has no default GOA
    with pytest.raises(ParameterMismatch):
        tls(3, 2)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3)])
def test_tls_matches_definitional_oracle(q, n):
    """Rebuild the adjacency straight from the definition: (x,i) ~ (y,j)
    iff i = j or some plane contains both points while its group row
    repeats a symbol at positions i and j."""
    from cerg.geometry import parallel_classes

    g = tls(q, n)
    pcs = parallel_classes(q)
    goa = g.goa
    q3 = q**3
    planes = [
        [set(pcs.plane(s, t)) for t in range(q)] for s in range(q + 1)
    ]
    for u in range(g.n):
        x, i = u % q3, u // q3
        for v in range(u + 1, g.n):
            y, j = v % q3, v // q3
            if i == j:
                expected = True
            else:
                expected = any(
                    x in planes[s][t]
                    and y in planes[s][t]
                    and goa.row(s, t)[i] == goa.row(s, t)[j]
                    for s in range(q + 1)
                    for t in range(q)
                )
            assert g.has_edge(u, v) == expected, (u, v)


def test_tls_rejects_mismatched_goa():
    goa = goa_from_oa(oa_prime_power(3), 3)  # GOA(3, 3, 4)
    with pytest.raises(ParameterMismatch):
        tls(2, 2, goa=goa)


def test_tls_rejects_broken_goa():
    import numpy as np

    from cerg.arrays import GroupDivisibleArray

    goa = goa_from_oa(oa_prime_power(2), 2)
    cells = np.array(goa.cells)
    cells[2] = 0  # break a row of group 1
    with pytest.raises(ParameterMismatch):
        tls(2, 2, goa=GroupDivisibleArray(2, 2, 3, cells))


def test_tls_cliques_really_are_cliques(tls22):
    for key, members in tls22.all_cliques():
        assert len(members) == 4 * 2  # q^2 * n
        for u, v in itertools.combinations(members, 2):
            assert tls22.has_edge(u, v), (key, u, v)


def test_clique_intersections(tls22):
    """|C(s1,t1,l1) ^ C(s2,t2,l2)| is q when s1 != s2 and 0 otherwise."""
    cliques = list(tls22.all_cliques())
    for (k1, c1), (k2, c2) in itertools.combinations(cliques, 2):
        got = len(set(c1) & set(c2))
        assert got == (2 if k1[0] != k2[0] else 0), (k1, k2)


def test_clique_intersections_tls33(tls33):
    cliques = list(tls33.all_cliques())
    for (k1, c1), (k2, c2) in itertools.combinations(cliques, 2):
        got = len(set(c1) & set(c2))
        assert got == (3 if k1[0] != k2[0] else 0), (k1, k2)


def test_outside_vertices_see_q_squared(tls22):
    """Every vertex outside a clique has exactly q^2 neighbours inside."""
    for key, members in tls22.all_cliques():
        inside = set(members)
        for v in range(tls22.n):
            if v in inside:
                continue
            assert len(inside.intersection(tls22.neighbors(v))) == 4, (key, v)


def test_neighbours_in_foreign_fiber_form_a_plane_copy(tls22):
    """Nonempty N(u) in another fiber is exactly one plane copy."""
    q3 = 8
    plane_copies = {}
    for m in range(4):
        plane_copies[m] = [
            frozenset(tls22.plane_copy(s, t, m)) for s in range(3) for t in range(2)
        ]
    for u in range(tls22.n):
        i = u // q3
        for m in range(4):
            if m == i:
                continue
            hits = frozenset(v for v in tls22.neighbors(u) if v // q3 == m)
            if hits:
                assert hits in plane_copies[m], (u, m)


def test_structure_sizes_tls22(tls22):
    for u in range(tls22.n):
        st = tls_structure(tls22, u)
        assert all(len(s) == 1 for s in st.a_sets.values())
        assert all(len(s) == 1 for s in st.b_sets.values())
        assert all(len(s) == 4 for s in st.c_sets.values())
        assert len(st.r) == 1
        assert (len(st.a_union), len(st.b_union), len(st.c_union)) == (3, 3, 12)


def test_structure_sizes_tls33(tls33):
    for u in (0, 17, 100, 242):
        st = tls_structure(tls33, u)
        assert all(len(s) == 2 for s in st.a_sets.values())
        assert len(st.a_sets) == 6
        assert all(len(s) == 2 for s in st.b_sets.values())
        assert all(len(s) == 18 for s in st.c_sets.values())
        assert len(st.r) == 6


def test_structure_partitions_neighbourhood(tls22):
    for u in range(tls22.n):
        st = tls_structure(tls22, u)
        parts = st.all_parts()
        union = sorted(v for p in parts for v in p)
        assert union == sorted(tls22.neighbors(u))  # disjoint + covering
        assert len(union) == len(set(union))


def test_structure_requires_tls_metadata():
    with pytest.raises(NotATlsGraph):
        tls_structure(Graph.complete(4), 0)


def test_c_vertex_row_counts(tls33):
    """A vertex of C_i has q(q-1) neighbours in each other C_j, q-1 in
    A_hj iff i is one of {h, j}, q-1 in B_i only, and none in R."""
    q = 3
    st = tls_structure(tls33, 0)
    nbrs = neighbor_sets(tls33)
    for i in range(q + 1):
        for w in st.c_sets[i]:
            nw = nbrs[w]
            for j in range(q + 1):
                if j != i:
                    assert len(nw & set(st.c_sets[j])) == q * (q - 1)
            for (h, j), a in st.a_sets.items():
                expected = q - 1 if i in (h, j) else 0
                assert len(nw & set(a)) == expected
            for j, b in st.b_sets.items():
                expected = q - 1 if i == j else 0
                assert len(nw & set(b)) == expected
            assert not nw & set(st.r)


def quotient_formula(q, n):
    """The 4x4 local quotient matrix in terms of (q, n)."""
    pairs = (q + 1) * q // 2
    return (
        (pairs * (q - 1) - 1, (q + 1) * (q - 1), 2 * (n - 1) * q * q, q * (q - 1) ** 2 // 2),
        (pairs * (q - 1), (q + 1) * (q - 1) - 1, (n - 1) * q * q, q * (q - 1) ** 2 // 2),
        (q * (q - 1), q - 1, (n - 1) * q * q + q * (q * q - q) - 1, 0),
        (pairs * (q - 1), (q + 1) * (q - 1), 0, q * (q - 1) ** 2 // 2 - 1),
    )


def test_local_quotient_matrix_tls33(tls33):
    from cerg.graphs import local_graph
    from cerg.regularity import equitable_check

    expected = quotient_formula(3, 3)
    assert expected == ((11, 8, 36, 6), (12, 7, 18, 6), (6, 2, 35, 0), (12, 8, 0, 5))
    for u in (0, 121, 242):
        st = tls_structure(tls33, u)
        nbrs = sorted(tls33.neighbors(u))
        pos = {v: i for i, v in enumerate(nbrs)}
        parts = [
            [pos[v] for v in st.a_union],
            [pos[v] for v in st.b_union],
            [pos[v] for v in st.c_union],
            [pos[v] for v in st.r],
        ]
        rep = equitable_check(local_graph(tls33, u), parts)
        assert rep.ok and rep.quotient == expected


def test_clique_partition_quotient_tls33(tls33):
    from cerg.regularity import equitable_check

    members = tls33.clique(2, 1, 0)
    rest = [v for v in range(tls33.n) if v not in set(members)]
    rep = equitable_check(tls33, [list(members), rest])
    # ((n q^2 - 1, k - n q^2 + 1), (q^2, k - q^2)) with k = 98
    assert rep.ok and rep.quotient == ((26, 72), (9, 89))


def test_lambda_values_by_structure_class(tls22):
    """Common-neighbour counts from u depend only on the class of the
    other endpoint: 14 on A, 10 on B and C, 6 on R (q=2, n=2)."""
    nbrs = neighbor_sets(tls22)
    for u in range(tls22.n):
        st = tls_structure(tls22, u)
        for v in st.a_union:
            assert len(nbrs[u] & nbrs[v]) == 14
        for v in st.b_union + st.c_union:
            assert len(nbrs[u] & nbrs[v]) == 10
        for v in st.r:
            assert len(nbrs[u] & nbrs[v]) == 6


def test_tls_from_custom_goa_file(tmp_path):
    from cerg.arrays import read_array, write_array

    goa = goa_from_oa(oa_macneish(6), 2)
    path = tmp_path / "goa6.txt"
    write_array(goa, path)
    g = tls(2, 6, goa=read_array(path))
    assert g.n == 288 and g.is_regular() == (True, 67)


# -- H construction


def test_h_graph_equals_block_graph_plus_classes():
    for d in (design_one_factorization(6), design_affine_lines(3, 3)):
        bg = block_graph(d)
        h = h_graph(d)
        added = spread_modified(h, d.resolution, "remove")
        assert added == bg  # removing the class edges recovers the block graph


def test_h_graph_valencies():
    h = h_graph(design_one_factorization(6))
    assert h.is_regular() == (True, 10)
    h = h_graph(design_affine_lines(3, 3))
    assert h.is_regular() == (True, 44)


def test_h_graph_degenerate_case_is_complete():
    h = h_graph(design_affine_lines(3, 2))
    assert h.is_complete()
    assert h.is_regular() == (True, 11)


def test_h_graph_requires_resolution():
    from cerg.constructions import NotResolvable
    from cerg.geometry import Design

    d = design_one_factorization(6)
    unresolved = Design(d.v, d.t, d.blocks, None)
    with pytest.raises(NotResolvable):
        h_graph(unresolved)


# beyond the old d <= 3 guard: a cubic relation, co-edge level 2 and
# smallest eigenvalue -(q + 1), as for d = 3
@pytest.mark.parametrize("q, d, n, roots", [(2, 4, 120, (-3, 5, 11)), (3, 4, 1080, (-4, 23, 35))])
def test_h_graph_of_ag_d_q_past_d_3(q, d, n, roots):
    from cerg.regularity import level
    from cerg.spectral import _hoffman_polynomial

    g = h_graph(design_affine_lines(q, d))
    assert g.n == n and level(g)[0] == 2
    coeffs, _ = _hoffman_polynomial(g)  # A^3 = sum_j coeffs[j] A^j + ell J
    r1, r2, r3 = roots
    expanded = [-r1 * r2 * r3, r1 * r2 + r1 * r3 + r2 * r3, -(r1 + r2 + r3), 1]
    assert [-c for c in coeffs] + [1] == expanded  # (x - r1)(x - r2)(x - r3)
    assert min(roots) == -(q + 1)


def test_h_graph_mu_parameter(h6, h27):
    _, mu6 = brute_lambda_mu(h6)
    assert set(mu6) == {8}  # t(t+2) at t=2
    _, mu27 = brute_lambda_mu(h27)
    assert set(mu27) == {15}  # t(t+2) at t=3


# -- spread modification


def test_remove_row_spread_from_rook(rook33):
    oa = oa_macneish(3)
    parts = [[c for c in range(9) if oa.cells[0, c] == s] for s in range(3)]
    g = spread_modified(rook33, parts, "remove")
    assert g.is_regular() == (True, 2)
    assert not g.is_connected()
    assert g.edge_count() == 9  # three disjoint triangles


def test_add_resolution_classes_matches_h_graph():
    for d in (design_one_factorization(6), design_affine_lines(3, 3)):
        assert spread_modified(block_graph(d), d.resolution, "add") == h_graph(d)


def test_remove_then_add_round_trip(rook33):
    oa = oa_macneish(3)
    parts = [[c for c in range(9) if oa.cells[0, c] == s] for s in range(3)]
    assert spread_modified(spread_modified(rook33, parts, "remove"), parts, "add") == rook33


def test_spread_modified_validates():
    g = Graph.complete(4)
    with pytest.raises(PartitionInvalid):
        spread_modified(g, [[0, 1], [2]], "remove")
    with pytest.raises(PartNotCoclique):
        spread_modified(g, [[0, 1], [2, 3]], "add")
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(PartNotClique):
        spread_modified(path, [[0, 2], [1, 3]], "remove")


@pytest.mark.parametrize("member", [0.0, True, "0", None, np.float64(0)])
def test_spread_modified_refuses_non_integer_members(rook33, member):
    oa = oa_macneish(3)
    parts = [[c for c in range(9) if oa.cells[0, c] == s] for s in range(3)]
    v, *rest = parts[0]
    with pytest.raises(PartitionInvalid, match="not an integer"):
        spread_modified(rook33, [[member, *rest], *parts[1:]], "remove")
    numpy_parts = [[np.int64(v), *rest], *parts[1:]]
    assert spread_modified(rook33, numpy_parts, "remove") == spread_modified(rook33, parts, "remove")


def test_builders_hand_over_their_matrix_uncopied(rook33, monkeypatch):
    """Every builder keeps the fresh matrix it made (`Graph._adopt`);
    only `Graph(a)`, called from outside, copies."""
    def copies(self, *args):
        raise AssertionError("Graph(a) copies the matrix")

    tls22 = tls(2, 2)
    monkeypatch.setattr(Graph, "__init__", copies)
    design = design_one_factorization(6)
    built = [
        latin_square_graph(oa_macneish(3), 2),
        tls(2, 2),
        h_graph(design),
        block_graph(design),
        spread_modified(block_graph(design), design.resolution, "add"),
        complement(rook33),
        clique_extension(rook33, 2),
        local_graph(tls22, 0),
        Graph.from_edges(3, [(0, 1)]),
        Graph.empty(3),
        Graph.complete(3),
    ]
    assert all(g.bits.dtype == np.uint8 and not g.bits.flags.writeable for g in built)
    assert built[1] == tls22 and built[1].q == 2 and built[1].labels == tls22.labels


@pytest.mark.parametrize(
    "build, most",
    [
        (lambda g: tls(4, 5), 1.5),
        (complement, 1.5),
        (lambda g: clique_extension(g, 2), 1.3),
    ],
    ids=["tls", "complement", "clique-extension"],
)
def test_builder_peak_is_about_its_result(build, most):
    """tracemalloc's peak while a builder runs, over n^2, the bytes of
    its result as a boolean matrix: no second n x n copy."""
    base = tls(4, 5)
    tracemalloc.start()
    try:
        g = build(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= most * g.n**2


@pytest.mark.parametrize(
    "design",
    [lambda: design_affine_lines(64, 2), lambda: design_one_factorization(120)],
    ids=["ag-2-64", "one-factorization-120"],
)
@pytest.mark.parametrize("build", [block_graph, h_graph], ids=["block-graph", "h-graph"])
def test_design_graph_peak_is_about_its_result(design, build):
    """The h-graph fills its resolution classes into the block graph's
    fresh matrix: one n x n matrix, as the block graph holds (n = 4160
    and 7140)."""
    d = design()
    tracemalloc.start()
    try:
        g = build(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * g.n**2


def test_one_partition_invalid_class():
    from cerg import constructions, graphs, regularity

    assert constructions.PartitionInvalid is regularity.PartitionInvalid is graphs.PartitionInvalid


# -- oversized constructions fail before the n x n matrix

ONE_POINT_BLOCKS = [[0]] * (MAX_VERTICES + 1)
OVERSIZED = {
    "ls": lambda: (latin_square_graph, oa_macneish(150), 2),  # 22500 vertices
    "tls": lambda: (tls, 2, 51),  # 8 * 51^2 = 20808 vertices
    "block-graph": lambda: (block_graph, Design(1, 1, ONE_POINT_BLOCKS)),
    "h-graph": lambda: (
        h_graph,
        Design(1, 1, ONE_POINT_BLOCKS, [[i] for i in range(MAX_VERTICES + 1)]),
    ),
}


@pytest.mark.parametrize("family", sorted(OVERSIZED))
def test_oversized_construction_fails_before_allocating(family):
    build, *args = OVERSIZED[family]()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="vertex count"):
            build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the adjacency matrix alone would take MAX_VERTICES^2 bytes = 400 MB
    assert peak < 2**20
