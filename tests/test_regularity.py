import itertools
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from cerg.graphs import Graph, clique_extension, complement
from cerg.regularity import (
    NotAPartition,
    NotCoEdgeRegular,
    NotRegular,
    NotSRG,
    PartitionInvalid,
    PreconditionFailed,
    SetNotClique,
    SetNotCoclique,
    equitable_check,
    hoffman_check,
    is_strongly_regular,
    level,
    profile,
    scheme_check,
    strong_co_edge_regular,
    weak_edge_regular,
)
from conftest import brute_common_lambda_sum, brute_lambda_mu, neighbor_sets, petersen


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


# -- profile against the brute-force oracle


def test_profile_matches_brute_force_on_random_graphs():
    for seed in range(8):
        g = random_graph(12, 0.45, seed)
        prof = profile(g)
        lam, mu = brute_lambda_mu(g)
        assert prof.lambda_multiset == lam
        assert prof.mu_multiset == mu


def test_profile_totals_are_edge_and_nonedge_counts(tls22):
    prof = profile(tls22)
    assert sum(prof.lambda_multiset.values()) == tls22.edge_count()
    assert sum(prof.mu_multiset.values()) == tls22.n * (tls22.n - 1) // 2 - tls22.edge_count()


def test_profile_tls22(tls22):
    prof = profile(tls22)
    assert prof.regular and prof.k == 19
    assert prof.mu == 12
    assert prof.lambda_multiset == {14: 48, 10: 240, 6: 16}
    assert prof.level_co_edge == 3


def test_profile_tls33(tls33):
    # lambda values q^3-2+2(n-1)q^2 / q^3-2+(n-1)q^2 / q^3-2 hit by
    # 12, 8+72, and 6 neighbours of each of the 243 vertices
    prof = profile(tls33)
    assert prof.mu == 36
    assert prof.lambda_multiset == {61: 1458, 43: 9720, 25: 729}
    assert prof.level_co_edge == 3


def test_profile_c5():
    prof = profile(cycle(5))
    assert (prof.level_co_edge, prof.level_edge) == (1, 1)
    assert prof.lambda_multiset == {0: 5}
    assert prof.mu_multiset == {1: 5}


def test_profile_clique_extension_of_ls34_has_level_2(ls34):
    prof = profile(clique_extension(ls34, 2))
    assert prof.mu == 12
    assert prof.level_co_edge == 2


def test_lambda_sum_equals_triangle_trace(tls22):
    # sum over edges of lambda(e) counts each triangle three times
    prof = profile(tls22)
    total = sum(v * c for v, c in prof.lambda_multiset.items())
    nbrs = neighbor_sets(tls22)
    triangles = sum(len(nbrs[x] & nbrs[y]) for x, y in tls22.edges()) // 3
    assert total == 3 * triangles


# -- strong / weak constants


def test_strong_tls22(tls22):
    rep = strong_co_edge_regular(tls22)
    assert rep.ok and (rep.mu, rep.gamma) == (12, 120)


def test_strong_tls33(tls33):
    rep = strong_co_edge_regular(tls33)
    assert rep.ok and (rep.mu, rep.gamma) == (36, 1548)


def test_strong_matches_brute_force(tls22):
    nbrs = neighbor_sets(tls22)
    sums = set()
    for x in range(tls22.n):
        for y in range(x + 1, tls22.n):
            if y not in nbrs[x]:
                sums.add(brute_common_lambda_sum(tls22, x, y))
    assert sums == {120}


def test_strong_on_srg_gives_mu_lambda_not_lambda_squared(rook33):
    """For an SRG the defining sum is mu * lambda; on the rook graph this
    is 2, not lambda^2 = 1.  Both readings are evaluated by brute force."""
    rep = strong_co_edge_regular(rook33)
    ok, (n, k, lam, mu) = is_strongly_regular(rook33)
    assert rep.ok
    assert rep.gamma == mu * lam == 2
    assert rep.gamma != lam * lam
    for x in range(9):
        for y in range(x + 1, 9):
            if not rook33.has_edge(x, y):
                assert brute_common_lambda_sum(rook33, x, y) == mu * lam


def test_strong_requires_co_edge_regular():
    # C6 has mu = 1 at distance 2 but mu = 0 at distance 3
    with pytest.raises(NotCoEdgeRegular):
        strong_co_edge_regular(cycle(6))
    # path: not even regular
    with pytest.raises(NotCoEdgeRegular):
        strong_co_edge_regular(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_weak_tls22(tls22):
    rep = weak_edge_regular(tls22)
    assert rep.ok and (rep.alpha, rep.beta) == (9, -18)


def test_weak_tls33(tls33):
    rep = weak_edge_regular(tls33)
    assert rep.ok and (rep.alpha, rep.beta) == (42, -151)


def test_weak_on_srg_reports_family(rook33):
    rep = weak_edge_regular(rook33)
    assert rep.ok and rep.alpha is None
    lam0, sum0 = rep.family
    ok, (n, k, lam, mu) = is_strongly_regular(rook33)
    assert lam0 == lam
    assert sum0 == lam * lam  # so beta = (alpha - lambda) * lambda
    for alpha in (0, 1, 5):
        beta = alpha * lam0 - sum0
        assert beta == (alpha - lam) * lam


def test_weak_requires_regular():
    with pytest.raises(NotRegular):
        weak_edge_regular(Graph.from_edges(3, [(0, 1), (1, 2)]))


def test_weak_fit_agrees_with_brute_force_verification():
    """Whatever weak_edge_regular decides, direct evaluation of
    alpha*lambda(e) = sum(e) + beta on every edge must agree."""
    nbrs_cache = {}

    def edge_data(g):
        nbrs = neighbor_sets(g)
        out = []
        for x, y in g.edges():
            lam = len(nbrs[x] & nbrs[y])
            s = sum(len(nbrs[x] & nbrs[z]) for z in nbrs[x] & nbrs[y])
            out.append((lam, s))
        return out

    checked_fail = 0
    for seed in range(40):
        rng = random.Random(seed)
        n = 8
        # random circulant-ish regular graphs
        offsets = sorted(rng.sample(range(1, n // 2 + 1), rng.randint(1, 3)))
        edges = set()
        for i in range(n):
            for o in offsets:
                edges.add(tuple(sorted((i, (i + o) % n))))
        g = Graph.from_edges(n, sorted(edges))
        if not g.is_regular()[0]:
            continue
        rep = weak_edge_regular(g)
        data = edge_data(g)
        if rep.ok and rep.alpha is not None:
            assert all(rep.alpha * lam == s + rep.beta for lam, s in data)
        elif rep.ok:
            lam0, sum0 = rep.family
            assert all((lam, s) == (lam0, sum0) for lam, s in data)
        else:
            lams = {lam for lam, _ in data}
            assert len(lams) >= 2
            # no single (alpha, beta) can fit: check the 2-point solve fails
            pts = {}
            for lam, s in data:
                pts.setdefault(lam, set()).add(s)
            infeasible = any(len(v) > 1 for v in pts.values())
            if not infeasible:
                (l1, s1), (l2, s2) = [(l, next(iter(v))) for l, v in list(pts.items())[:2]]
                alpha = Fraction(s1 - s2, l1 - l2)
                beta = alpha * l1 - s1
                infeasible = any(alpha * lam != s + beta for lam, s in data)
            assert infeasible
            checked_fail += 1


def circulant(n, steps):
    """C_n(steps): i ~ j iff i - j = +-s (mod n) for some s in steps."""
    return Graph.from_edges(
        n, sorted({tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps})
    )


def test_weak_witness_is_the_first_edge_failing_the_fraction_fit():
    """On every circulant of order 5..15, the reported edge is the first
    edge, in row-major order, where alpha*lambda - beta != sum in exact
    Fractions, with alpha and beta fitted to the first edges of least
    and greatest lambda.  Covers non-integer targets (alpha = 3/2, 5/2,
    11/2), which must never match a sum however they are rounded."""
    seen_half = 0
    for n in range(5, 16):
        for r in range(1, n // 2 + 1):
            for steps in itertools.combinations(range(1, n // 2 + 1), r):
                g = circulant(n, steps)
                nbrs = neighbor_sets(g)
                edges = sorted(g.edges())
                lam = [len(nbrs[x] & nbrs[y]) for x, y in edges]
                if min(lam) == max(lam):
                    continue
                sums = [sum(len(nbrs[x] & nbrs[z]) for z in nbrs[x] & nbrs[y])
                        for x, y in edges]
                lo, hi = lam.index(min(lam)), lam.index(max(lam))
                alpha = Fraction(sums[lo] - sums[hi], lam[lo] - lam[hi])
                beta = alpha * lam[lo] - sums[lo]
                bad = [e for e, l, s in zip(edges, lam, sums) if alpha * l - beta != s]
                rep = weak_edge_regular(g)
                assert rep.ok == (not bad), (n, steps)
                if bad:
                    assert rep.witness["edge"] == bad[0], (n, steps)
                    assert rep.witness["alpha_candidate"] == [alpha.numerator, alpha.denominator]
                    seen_half += alpha.denominator == 2
                else:
                    assert (rep.alpha, rep.beta) == (alpha, beta)
    assert seen_half


# -- level


def test_levels(tls22, h27):
    assert level(tls22) == (3, None)
    assert level(h27) == (2, None)
    assert level(cycle(5)) == (1, 1)


def test_level_precondition():
    # irregular graph: neither constancy applies
    with pytest.raises(PreconditionFailed):
        level(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)]))


def test_clique_extension_of_tls_has_level_4(tls22):
    ext = clique_extension(tls22, 2)
    assert level(ext)[0] == 4


def test_clique_extension_of_tls33_has_level_4(tls33):
    """Second family instance: the 2-extension of TLS(3,3) is level 4 and
    matches the 6-clique extension of LS_4(9) spectrally."""
    from cerg.spectral import certify

    ext = clique_extension(tls33, 2)
    assert ext.n == 486
    prof = profile(ext)
    assert prof.mu == 72
    assert prof.level_co_edge == 4
    assert set(prof.lambda_multiset) == {196, 124, 88, 52}  # 2k inside clones
    certify(ext, [(197, 1), (35, 32), (-1, 405), (-19, 48)])


# -- Hoffman bound


def row_clique(oa, row, symbol):
    return [c for c in range(oa.n * oa.n) if oa.cells[row, c] == symbol]


def test_hoffman_tight_clique(ls34):
    from cerg.arrays import oa_macneish

    oa = oa_macneish(4)
    rep = hoffman_check(ls34, row_clique(oa, 0, 0), "clique", 3)
    assert rep.bound == Fraction(12, 3) == 4
    assert rep.tight
    assert rep.outside_degrees == {2: 12}  # constant mu/m


def test_hoffman_tight_coclique_and_cross(ls34):
    from cerg.arrays import oa_macneish

    oa = oa_macneish(4)
    clique = row_clique(oa, 0, 0)
    coclique = row_clique(oa, 3, 0)  # agreeing in an unused row: transversal
    rep = hoffman_check(ls34, coclique, "coclique", 3, cross=clique)
    assert rep.bound == 4 and rep.tight
    assert rep.outside_degrees == {3: 12}  # constant m
    assert rep.cross_intersection == 1


def test_hoffman_block_graph_resolution_class():
    from cerg.geometry import block_graph, design_affine_lines

    d = design_affine_lines(3, 2)
    g = block_graph(d)
    rep = hoffman_check(g, d.resolution[0], "coclique", 3)
    assert rep.bound == Fraction(3 * 12, 12) == 3
    assert rep.tight and rep.outside_degrees == {3: 9}


def test_hoffman_names_the_first_offending_member(ls34):
    from cerg.arrays import oa_macneish
    from cerg.graphs import VertexOutOfRange
    from cerg.regularity import SetNotClique, SetNotCoclique

    oa = oa_macneish(4)
    clique = row_clique(oa, 0, 0)
    stranger = next(v for v in range(16) if v not in clique and v > clique[0])
    with pytest.raises(SetNotClique, match=f"vertex {clique[0]} misses"):
        hoffman_check(ls34, [*clique, stranger], "clique", 3)
    with pytest.raises(SetNotCoclique, match=f"vertex {clique[0]} has"):
        hoffman_check(ls34, clique[:2], "coclique", 3)
    for bad, stray in (([0, 16], 16), ([-1, 0], -1), ([0, 1.5], 1.5), ([True], True)):
        with pytest.raises(VertexOutOfRange, match=f"set member {stray} "):
            hoffman_check(ls34, bad, "clique", 3)


def test_hoffman_not_tight_single_vertex():
    g = Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)])  # K4 minus a matching
    ok, params = is_strongly_regular(g)
    assert ok and params == (4, 2, 0, 2)
    rep = hoffman_check(g, [0], "clique", 2)
    assert rep.bound == 2 and not rep.tight


def test_hoffman_tightness_iff_constant_outside(ls34):
    from cerg.arrays import oa_macneish

    oa = oa_macneish(4)
    tight = hoffman_check(ls34, row_clique(oa, 0, 0), "clique", 3)
    assert tight.tight and len(tight.outside_degrees) == 1
    # a perturbed (smaller) clique is not tight and not outside-constant
    small = hoffman_check(ls34, row_clique(oa, 0, 0)[:3], "clique", 3)
    assert not small.tight and len(small.outside_degrees) > 1


def test_hoffman_validates_inputs(ls34, rook33):
    with pytest.raises(SetNotClique):
        hoffman_check(ls34, [0, 1, 2, 3], "clique", 3)
    with pytest.raises(SetNotCoclique):
        from cerg.arrays import oa_macneish

        hoffman_check(ls34, row_clique(oa_macneish(4), 0, 0), "coclique", 3)
    with pytest.raises(NotSRG):
        hoffman_check(cycle(6), [0], "clique", 2)
    for m in (0, -9):  # m = -k zeroes the co-clique bound's denominator
        with pytest.raises(ValueError, match="m must be positive"):
            hoffman_check(ls34, [0], "coclique", m)


def traced_peak(check, *args):
    """``check(*args)`` and the peak of the memory it traced."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = check(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_hoffman_counts_outside_neighbours_from_the_set_rows():
    """Each outside vertex's neighbours in the set are its column sum
    over the set's rows (A is symmetric), so no block of the other
    n - |S| rows is unpacked: 2.69 MiB on LS_3(40) with that block."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    oa = oa_macneish(40)
    g = latin_square_graph(oa, 3)
    clique = row_clique(oa, 0, 0)
    hoffman_check(g, clique, "clique", 3)  # the SRG test's pass, once a graph
    rep, peak = traced_peak(hoffman_check, g, clique, "clique", 3)
    assert rep.tight and rep.outside_degrees == {2: 1560}
    assert peak <= 2**19, peak


# -- equitable partitions


def test_equitable_tls_clique_partition(tls22):
    members = tls22.clique(0, 0, 0)
    rest = [v for v in range(tls22.n) if v not in set(members)]
    rep = equitable_check(tls22, [list(members), rest])
    assert rep.ok
    assert rep.quotient == ((7, 12), (4, 15))


def test_equitable_local_partition(tls22):
    from cerg.constructions import tls_structure
    from cerg.graphs import local_graph

    expected = ((2, 3, 8, 1), (3, 2, 4, 1), (2, 1, 7, 0), (3, 3, 0, 0))
    for u in range(0, tls22.n, 5):
        st = tls_structure(tls22, u)
        nbrs = sorted(tls22.neighbors(u))
        pos = {v: i for i, v in enumerate(nbrs)}
        parts = [
            [pos[v] for v in st.a_union],
            [pos[v] for v in st.b_union],
            [pos[v] for v in st.c_union],
            [pos[v] for v in st.r],
        ]
        rep = equitable_check(local_graph(tls22, u), parts)
        assert rep.ok and rep.quotient == expected


def test_equitable_single_part_is_valency():
    g = cycle(6)
    rep = equitable_check(g, [list(range(6))])
    assert rep.ok and rep.quotient == ((2,),)


def test_equitable_witness():
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    rep = equitable_check(path, [[0, 1], [2]])
    assert not rep.ok
    assert rep.witness["part"] == 0
    with pytest.raises(PartitionInvalid):
        equitable_check(path, [[0, 1], []])
    with pytest.raises(PartitionInvalid):
        equitable_check(path, [[0, 1]])


def test_equitable_check_unpacks_no_whole_adjacency_matrix():
    """The counts are (P^T A)^T, one product by A's packed rows, so A is
    unpacked a panel at a time: a boolean copy of tls(4,5)'s A alone
    takes 2.4 MiB, and its float32 copy 9.8 MiB (12.83 MiB traced with
    both)."""
    from cerg.constructions import tls

    g = tls(4, 5)
    fibres = [list(range(64 * i, 64 * i + 64)) for i in range(25)]
    rep, peak = traced_peak(equitable_check, g, fibres)
    assert rep.ok and rep.quotient[0] == (63, 0, 0, 0, 0) + (16,) * 20
    assert peak <= 2 * 2**20, peak


def brute_equitable(g, parts):
    """(quotient, witness) by counting each vertex's neighbours in each
    part over neighbour sets: the first vertex of a part, in part order,
    whose counts differ from its first vertex's, at the first such part."""
    nbrs = neighbor_sets(g)
    quotient = []
    for i, p in enumerate(parts):
        counts = [[len(nbrs[u] & set(q)) for q in parts] for u in p]
        for r, row in enumerate(counts):
            j = next((j for j, (c, c0) in enumerate(zip(row, counts[0])) if c != c0), None)
            if j is not None:
                return None, {"part": i, "u": p[0], "u_prime": p[r], "target_part": j,
                              "count_u": counts[0][j], "count_u_prime": row[j]}
        quotient.append(tuple(counts[0]))
    return tuple(quotient), None


@pytest.mark.parametrize("seed", range(6))
def test_equitable_check_equals_the_neighbour_set_count(seed, tls22):
    """(P^T A)^T is A P: random partitions of random graphs, and tls(2,2)'s
    fibres with two vertices swapped across them, which breaks them."""
    rng = random.Random(seed)
    if seed < 4:
        g = random_graph(rng.randint(2, 24), 0.5, seed)
        labels = [rng.randrange(rng.randint(1, 5)) for _ in range(g.n)]
        parts = [[v for v in range(g.n) if labels[v] == t] for t in sorted(set(labels))]
    else:
        g = tls22
        parts = [list(range(8 * i, 8 * i + 8)) for i in range(4)]
        u, v = rng.randrange(8), rng.randrange(8, 32)
        parts[0][u], parts[v // 8][v % 8] = v, u
    quotient, witness = brute_equitable(g, parts)
    rep = equitable_check(g, parts)
    assert (rep.ok, rep.quotient, rep.witness) == (witness is None, quotient, witness)


@pytest.mark.parametrize("member", [0.0, True, "0", None, np.float64(0)])
def test_equitable_rejects_non_integer_members(member):
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(PartitionInvalid, match="not an integer"):
        equitable_check(path, [[member, 1], [2]])
    assert equitable_check(path, [[np.int64(0), 1], [2]]).witness["part"] == 0


def test_quotient_eigenvalues_are_graph_eigenvalues(tls22):
    # the 2x2 clique quotient has eigenvalues k and q^2(n-1)-1
    members = tls22.clique(1, 0, 1)
    rest = [v for v in range(tls22.n) if v not in set(members)]
    rep = equitable_check(tls22, [list(members), rest])
    (a, b), (c, d) = rep.quotient
    # trace and determinant pin the eigenvalue pair {19, 3}
    assert a + d == 19 + 3
    assert a * d - b * c == 19 * 3


# -- association schemes


def test_srg_relations_form_two_class_scheme(rook33):
    rep = scheme_check([rook33, complement(rook33)])
    assert rep.ok and rep.classes == 2
    ok, (n, k, lam, mu) = is_strongly_regular(rook33)
    assert rep.intersection_numbers[(1, 1, 1)] == lam
    assert rep.intersection_numbers[(1, 1, 2)] == mu
    assert rep.intersection_numbers[(1, 1, 0)] == k


def test_c6_distance_relations_form_scheme():
    c6 = cycle(6)
    d1 = c6
    d2 = Graph.from_edges(6, [(i, (i + 2) % 6) for i in range(6)])
    d3 = Graph.from_edges(6, [(i, (i + 3) % 6) for i in range(3)])
    rep = scheme_check([d1, d2, d3])
    assert rep.ok and rep.classes == 3


def test_scheme_rejects_non_partition():
    c6 = cycle(6)
    with pytest.raises(NotAPartition):
        scheme_check([c6, c6])  # an overlap
    with pytest.raises(NotAPartition):
        scheme_check([c6])  # a gap


def test_scheme_check_reads_the_packed_rows():
    """LS_3(32) and its complement, n = 1024: the relations are read from
    their packed rows a row tile at a time, with no n x n array: 4.5 MiB
    traced (22.8 MiB when each relation was unpacked whole and each
    A_i A_j formed whole)."""
    import tracemalloc

    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    g = latin_square_graph(oa_macneish(32), 3)
    relations = [g, complement(g)]
    tracemalloc.start()
    try:
        rep = scheme_check(relations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok and rep.intersection_numbers[(1, 1, 0)] == 93
    assert (rep.intersection_numbers[(1, 1, 1)], rep.intersection_numbers[(1, 1, 2)]) == (32, 6)
    assert peak < 8 * 1024**2


def test_scheme_witness_on_non_scheme():
    # path-like split of K4's edges that is a partition but not a scheme
    r1 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    r2 = Graph.from_edges(4, [(0, 2), (1, 3), (0, 3)])
    rep = scheme_check([r1, r2])
    assert not rep.ok and rep.witness is not None


def test_h27_complement_relations_form_scheme(h27):
    """Edge-regular level-2 graphs with four eigenvalues sit inside a
    3-class scheme; second instance on 117 vertices."""
    import numpy as np

    a = h27.adjacency_matrix()
    a2 = a @ a
    lam_values = sorted({int(v) for v in (a2 * a)[a == 1]})
    assert len(lam_values) == 2
    relations = [
        Graph(((a == 1) & (a2 == lv)).astype(int)) for lv in lam_values
    ]
    relations.append(complement(h27))
    rep = scheme_check(relations)
    assert rep.ok and rep.classes == 3


def test_scheme_accept_iff_srg_on_small_corpus(tls22, rook33, ls34):
    """{adjacency, complement} is a 2-class scheme exactly for SRGs."""
    corpus = [
        rook33,
        ls34,
        cycle(5),
        cycle(6),
        Graph.from_edges(4, [(0, 1), (2, 3), (0, 2), (1, 3)]),
        Graph.complete(5),
        random_graph(9, 0.5, 1),
        random_graph(10, 0.4, 2),
        Graph.from_edges(10, [(i, (i + 1) % 10) for i in range(10)] + [(i, (i + 5) % 10) for i in range(5)]),
    ]
    for g in corpus:
        comp = complement(g)
        if g.edge_count() == 0 or comp.edge_count() == 0:
            continue
        ok, _ = is_strongly_regular(g)
        rep = scheme_check([g, comp])
        assert rep.ok == ok, g


# -- the exact matrix kernel and the per-graph powers cache

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cerg import regularity
from cerg.cli import main
from cerg.constructions import tls
from cerg.regularity import ExactnessBoundExceeded, exact_matmul, powers
from test_row_tiles import GRAPHS as ROW_TILE_GRAPHS
from test_row_tiles import tiles_of

# entry magnitudes whose bounds n * max|x|, for graphs of order n <= 8,
# fall on either side of 2^24 and of 2^31, and reach 2^52
TOPS = [1, 2**10, 2**21 - 1, 2**21, 2**21 + 1, 2**22, 2**24 - 1, 2**24 + 1, 2**28, 2**49 - 1]


def random_adjacency(n, seed):
    """A random graph's adjacency matrix, as 0/1 uint8, and its packed rows."""
    rng = np.random.default_rng(seed)
    a = np.triu(rng.integers(0, 2, size=(n, n), dtype=np.uint8), 1)
    a |= a.T
    return a, np.packbits(a, axis=1)


def object_product(x, a, start=0):
    return (x.astype(object) @ a[:, start:].astype(object)).tolist()


def float_types(monkeypatch):
    """The float type of every panel of A a product unpacks, in call order."""
    seen = []
    real = regularity._float_rows

    def spy(bits, rows, ftype):
        seen.append(ftype)
        return real(bits, rows, ftype)

    monkeypatch.setattr(regularity, "_float_rows", spy)
    return seen


@st.composite
def products(draw):
    n = draw(st.integers(1, 8))
    a = np.triu(draw(arrays(np.uint8, (n, n), elements=st.integers(0, 1))), 1)
    a |= a.T
    top = draw(st.sampled_from(TOPS))
    x = draw(arrays(np.int64, (draw(st.integers(1, 6)), n), elements=st.integers(-top, top)))
    return x, a, draw(st.integers(0, n))


@settings(max_examples=400, deadline=None)
@given(products())
def test_exact_matmul_equals_object_product(case):
    x, a, start = case
    got = exact_matmul(x, np.packbits(a, axis=1), start)
    bound = x.shape[1] * int(np.abs(x).max())
    assert got.dtype == (np.int32 if bound < 2**31 else np.int64)
    assert got.tolist() == object_product(x, a, start)


def test_exact_matmul_past_2_24_is_not_rounded_to_float32():
    # 4097^2 = 16785409 is odd and above 2^24, so float32 cannot hold it
    k2 = Graph.complete(2)
    assert exact_matmul(np.array([[4097**2, 0]]), k2.bits).tolist() == [[0, 16785409]]


def test_exact_matmul_just_under_the_bound_is_exact():
    top = 2**48 - 1  # 32 * top < 2^53
    x = np.array([[top] * 32, [top, 1 - top] * 16], dtype=np.int64)
    k32 = Graph.complete(32)
    want = object_product(x, k32.adjacency_matrix())
    assert want[0][0] == 31 * top  # odd low bits survive
    assert exact_matmul(x, k32.bits).tolist() == want


def test_exact_matmul_at_the_bound_raises():
    x = np.zeros((1, 32), dtype=np.int64)
    x[0, 5] = 2**48  # 32 * 2^48 = 2^53
    with pytest.raises(ExactnessBoundExceeded):
        exact_matmul(x, Graph.complete(32).bits)


@pytest.mark.parametrize(
    "n, top, ftype, itype",
    [
        (32, 2**18, np.float32, np.int32),  # B = n * top = 2^23: float32 tier
        (34, 987377, np.float64, np.int32),  # 2^24 <= B = 33570818 < 2^31: float64 tier
        (62, 34634719, np.float64, np.int32),  # B = 2147352578, just under 2^31
        (32, 2**26, np.float64, np.int64),  # B = 2^31
        (32, 2**36, np.float64, np.int64),  # B = 2^41
    ],
)
def test_exact_matmul_result_type_follows_the_bound(n, top, ftype, itype, monkeypatch):
    a, bits = random_adjacency(n, n)
    x = np.random.default_rng(top).integers(-top, top + 1, size=(3, n))
    x[0] = top  # max|x| = top
    tiers = float_types(monkeypatch)
    got = exact_matmul(x, bits)
    assert set(tiers) == {ftype}
    assert got.dtype == itype
    assert got.tolist() == object_product(x, a)


def test_float32_product_is_cast_in_place(tls22):
    # the int32 result is a view of the float32 product's own buffer
    got = exact_matmul(tls22.rows(slice(None)), tls22.bits)
    assert got.dtype == np.int32 and got.base is not None
    assert got.base.dtype == np.float32
    a = tls22.adjacency_matrix().astype(np.int64)
    assert got.tolist() == (a @ a).tolist()


@pytest.mark.parametrize("rows", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [4, 5, 6, 11, 23])
@pytest.mark.parametrize("top", [3, 2**22 + 1])  # the float32 and the float64 tier
def test_exact_matmul_across_panel_edges(rows, n, top, monkeypatch):
    """A[:, start:] is unpacked in panels of max(rows, 20 // n) rows of A
    here: with ``start`` chosen for column counts on, one before and one
    past a panel edge, and a last panel of one column, the product equals
    the object product."""
    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 20)
    step = max(rows, 20 // n)
    a, bits = random_adjacency(n, rows * 100 + n)
    x = np.random.default_rng(rows * 100 + n).integers(-top, top + 1, size=(rows, n))
    x[0, 0] = top
    tiers = float_types(monkeypatch)
    for cols in sorted({1, step - 1, step, step + 1, 2 * step, 2 * step + 1, n} - {0}):
        if cols > n:
            continue
        start = n - cols
        want = object_product(x, a, start)
        assert exact_matmul(x, bits, start).tolist() == want
        assert exact_matmul(np.asfortranarray(x), bits, start).tolist() == want
    assert set(tiers) == {np.float32 if n * top < 2**24 else np.float64}


@pytest.mark.parametrize("kind", [np.bool_, np.int8, np.int64])
def test_exact_matmul_holds_no_whole_float_copy_of_a(kind):
    import tracemalloc

    n = 1024
    a, bits = random_adjacency(n, 7)
    x = np.random.default_rng(7).integers(0, 2, size=(3, n)).astype(kind)
    tracemalloc.start()
    try:
        got = exact_matmul(x, bits, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == (x.astype(np.int64) @ a[:, 5:].astype(np.int64)).tolist()
    # a float32 copy of A would take 4 MiB, a boolean one 1 MiB: one
    # panel of 128 rows is 0.5 MiB
    assert peak < 2**20, peak


def whole(tiles):
    """The full matrix from a `Powers.combination` stream: each tile holds
    its rows from the column of its first row on, and the combination is
    symmetric, so mirror images fill the columns before."""
    tiles = list(tiles)
    n = tiles[-1][0] + len(tiles[-1][1])
    out = np.zeros((n, n), dtype=tiles[0][1].dtype)
    for i, t in tiles:
        out[i : i + len(t), i:] = t
    out = np.triu(out) + np.triu(out, 1).T
    for i, t in tiles:
        assert np.array_equal(out[i : i + len(t), i:], t)  # each tile agrees with its mirror
    return out


def test_combination_scales_every_term_in_int64(tls22):
    # 2^40 cannot be an int32 scalar; 2^31 - 1 can, but wraps times A^2
    coeffs = [3, 2**40, 2**31 - 1, -(2**40)]
    got = whole(powers(tls22).combination(coeffs, -7))
    assert got.dtype == np.int64
    a = tls22.adjacency_matrix().astype(object)
    want = sum(c * np.linalg.matrix_power(a, j) for j, c in enumerate(coeffs)) - 7
    assert got.tolist() == want.tolist()


def test_combination_tiles_cover_every_row_once(tls22, monkeypatch):
    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 5 * 32)
    tiles = list(powers(tls22).combination([0, 1]))
    assert [i for i, _ in tiles] == list(range(0, 32, 5))
    assert whole(tiles).tolist() == tls22.adjacency_matrix().tolist()


# the whole-matrix caches that row tiles replaced
DELETED_CACHES = ("a2", "a3", "a4", "lam_sums", "upper", "adj", "nonadj", "lam_vals", "mu_vals")


def test_no_cached_power_is_int64_square():
    from cerg.spectral import certify, eq1_residual

    g = tls(3, 3)
    p = powers(g)
    profile(g)
    cert = certify(g, [(98, 1), (17, 32), (-1, 162), (-10, 48)])
    eq1_residual(g, cert)
    for name in DELETED_CACHES:
        assert not hasattr(p, name), name
    squares = {name for name, m in vars(p).items()
               if isinstance(m, np.ndarray) and m.nbytes >= 243 * 31}
    assert squares == {"bits"}  # no float copy of A: products unpack it panel by panel
    assert p.bits is g.bits and p.bits.dtype == np.uint8
    tile = next(p.rows(4))
    assert tile[4].dtype == np.int32  # 243 * 98^2 < 2^31


def test_combination_refuses_int64_overflow(tls22):
    with pytest.raises(ExactnessBoundExceeded):
        powers(tls22).combination([0, 2**62, 2**62])


def summing_powers(g):
    """The graph's `Powers`, set to form (A∘A^2)A in its next pass."""
    p = powers(g)
    p.want_sums = True
    return p


def on_feed(monkeypatch, record):
    """Call ``record(start, bits, lam, sums)`` with each tile's packed
    rows of A and its rows of A∘A^2 and (A∘A^2)A, from column ``start``
    on, as a sums scan is fed them."""
    real = regularity._SumScan.feed

    def feed(self, start, *arrays):
        record(start, *arrays)
        return real(self, start, *arrays)

    monkeypatch.setattr(regularity._SumScan, "feed", feed)


def test_powers_match_object_products_and_are_cached(tls22, monkeypatch):
    assert powers(tls22) is powers(tls22)
    a = tls22.adjacency_matrix().astype(object)
    want = [np.linalg.matrix_power(a, j) for j in range(1, 5)]
    hadamard = a * (a @ a)
    fed = []
    on_feed(monkeypatch, lambda start, *arrays: fed.append((start, [m.tolist() for m in arrays])))
    for rows in (2, 5, 32):
        tiles_of(monkeypatch, rows, 32)  # the band floor too: at most _MAX_TILES tiles
        p = summing_powers(tls(2, 2))  # fresh: a pass forms sums only for a graph without a scan
        starts = []
        fed.clear()
        for t in p.rows(4):
            r = t.rows
            starts.append(r.start)
            for got, m in zip([t[j] for j in range(1, 5)], want):
                assert got.tolist() == m[r, r.start :].tolist()  # the rows, from column r.start on
        assert starts == list(range(0, 32, rows))
        assert [start for start, _ in fed] == starts  # the scan reads every tile's sums once
        for start, (bits, *got) in fed:
            r = slice(start, start + rows)
            assert np.unpackbits(np.array(bits, dtype=np.uint8), axis=1).tolist() == a[r].tolist()
            assert got == [m[r, start:].tolist() for m in (hadamard, hadamard @ a)]
    assert whole(p.combination([1, -2, 0, 1], 5)).tolist() == (
        a @ a @ a - 2 * a + np.eye(32, dtype=object) + 5
    ).tolist()


def test_kernel_failure_is_a_usage_error_on_the_cli(tmp_path, capsys, monkeypatch):
    g6 = tmp_path / "tls22.g6"
    assert main(["construct", "tls", "--q", "2", "--n", "2", "-o", str(g6)]) == 0

    def refuse(x, bits, start=0):
        raise ExactnessBoundExceeded("product bound is not below 2^53")

    monkeypatch.setattr(regularity, "exact_matmul", refuse)
    capsys.readouterr()
    assert main(["verify", "profile", "-i", str(g6)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ExactnessBoundExceeded"


def count_products(monkeypatch):
    """The number of rows of every product, in call order."""
    calls = []
    real = regularity.exact_matmul

    def counted(x, bits, start=0):
        calls.append(x.shape[0])
        return real(x, bits, start)

    monkeypatch.setattr(regularity, "exact_matmul", counted)
    return calls


@pytest.mark.parametrize("d", [1, 2, 3])
def test_scheme_check_multiplies_no_relation_by_the_identity(monkeypatch, rook33, d):
    """d relations cost d products on one row tile (n <= 9), one per right
    operand A_j, which forms A_1 A_j, ..., A_j A_j together: relation 0
    is I, and I M = M, so it needs none."""
    # K_6, the 3 x 3 rook's graph and its complement, C_6 by distance
    relations = {
        1: [Graph.complete(6)],
        2: [rook33, complement(rook33)],
        3: [Graph.from_edges(6, [(i, (i + s) % 6) for i in range(6)]) for s in (1, 2, 3)],
    }[d]
    calls = count_products(monkeypatch)
    rep = scheme_check(relations)
    assert rep.ok and calls == [j * len(relations[0].bits) for j in range(1, d + 1)]
    # relation 0 is the identity: p_{0j}^h = [j == h]
    assert all(rep.intersection_numbers[(0, j, h)] == (j == h)
               for j in range(d + 1) for h in range(d + 1))


def test_a_sums_pass_holds_at_most_three_tile_arrays():
    """profile of tls(4,5) (n = 1600) is one pass of eight 200-row tiles,
    and a tile array of 200 x 1600 entries is 1.22 MiB.  The pass holds
    A^2's buffer, with A∘A^2 formed in it, the (A∘A^2)A tile, and the
    product's panel of A or the scan's row-slice temporaries: 4.23 MiB
    traced beside A.  A fourth tile array, a fresh A∘A^2 or a whole-tile
    temporary of the scan, would pass the bound (5.62 MiB with both)."""
    import tracemalloc

    g = tls(4, 5)
    assert g.degree_vector.max() == 383  # made before tracing, with A
    tracemalloc.start()
    try:
        profile(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def test_a_relation_pass_holds_at_most_three_tile_arrays():
    """certify of tls(4,5) by its claim is one relation pass of eight
    200-row tiles, each with A^2 in full rows, A^3 and the combination
    tile (1.22 MiB each).  A^2 is the A^3 product's left operand in its
    own float32 buffer, and each term is added a row slice at a time:
    4.34 MiB traced beside A.  A float32 copy of A^2 in that product
    (4.97 MiB) or a whole-tile temporary of a term would pass the bound."""
    import tracemalloc

    from cerg.spectral import certify

    g = tls(4, 5)
    assert g.degree_vector.max() == 383  # made before tracing, with A
    tracemalloc.start()
    try:
        certify(g, [(383, 1), (63, 95), (-1, 1200), (-17, 304)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


def test_profile_does_two_products(monkeypatch):
    calls = count_products(monkeypatch)
    profile(tls(2, 2))
    assert calls == [32, 32]  # one tile: A^2 and (A∘A^2)A
    # each row of both formed once, in one pass of four 8-row tiles
    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 8 * 32)
    calls.clear()
    g = tls(2, 2)
    profile(g)
    assert calls == [8] * 8
    strong_co_edge_regular(g)
    weak_edge_regular(g)
    profile(g, constants=False)
    assert len(calls) == 8


@pytest.mark.parametrize("first", ["profile", "strong", "weak"])
@pytest.mark.parametrize("name", sorted(ROW_TILE_GRAPHS))
def test_verdicts_and_witnesses_form_each_row_once(name, first, monkeypatch):
    """profile, strong and weak, whichever runs first, read their
    verdicts and witnesses, failing ones too, off one pass of 3-row
    tiles: each row of A^2 and of (A∘A^2)A is formed once."""
    a = ROW_TILE_GRAPHS[name]
    n = len(a)
    tiles_of(monkeypatch, 3, n)
    calls = count_products(monkeypatch)
    checks = {"profile": profile, "strong": strong_co_edge_regular, "weak": weak_edge_regular}
    g = Graph(a)
    for check in sorted(checks, key=lambda c: c != first):
        try:
            checks[check](g)
        except NotCoEdgeRegular:
            pass
    # per tile, one product for A^2 and one for (A∘A^2)A
    assert calls == [r.stop - r.start for r in regularity._row_tiles(n, n) for _ in range(2)]


def test_theorem33_does_three_products(tmp_path, capsys, monkeypatch):
    g6, claim = tmp_path / "tls22.g6", tmp_path / "tls22.spec.json"
    assert main(["construct", "tls", "--q", "2", "--n", "2", "-o", str(g6)]) == 0
    claim.write_text(json.dumps({"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]}))
    calls = count_products(monkeypatch)
    assert main(["verify", "theorem33", "-i", str(g6), "--claim", str(claim)]) == 0
    assert calls == [32] * 3  # one pass: A^2, A^3 and (A∘A^2)A


def test_cached_powers_are_read_only(monkeypatch):
    fed = []
    on_feed(monkeypatch, lambda start, *arrays: fed.append(arrays))
    p = summing_powers(tls(2, 2))
    for tile in p.rows(3):
        for m in (tile[1], tile[2], tile[3]):
            with pytest.raises(ValueError):
                m[0, 0] = 7
    assert len(fed) == 1
    for m in fed[0]:  # what the sums scan reads: A, A∘A^2 and (A∘A^2)A
        with pytest.raises(ValueError):
            m[0, 0] = 7


def test_a_stream_keeps_one_tile_alive(monkeypatch):
    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 8 * 32)
    import weakref

    def buffer(m):  # the array that owns m's memory
        return m if m.base is None else m.base

    def watch(start, a, *arrays):  # A∘A^2 (in A^2's buffer) and (A∘A^2)A, fed after the turn
        seen.extend(weakref.ref(buffer(m)) for m in arrays)

    seen = []
    on_feed(monkeypatch, watch)
    for tile in summing_powers(tls(2, 2)).rows(3):
        assert all(ref() is None for ref in seen)  # the last tile's arrays are gone
        seen = [weakref.ref(buffer(m)) for m in (tile[2], tile[3])]
    assert len(seen) == 2 + 2  # the last tile's scan arrays were watched too


def test_level_needs_two_vertices():
    from cerg.graphs import Graph
    from cerg.regularity import PreconditionFailed, level

    with pytest.raises(PreconditionFailed):
        level(Graph.empty(1))


def test_level_does_one_product(monkeypatch):
    calls = count_products(monkeypatch)
    assert level(tls(2, 2)) == (3, None)
    assert calls == [32]


def test_claim_free_goldberg_forms_a2_rows_once(monkeypatch):
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph
    from cerg.spectral import goldberg

    calls = count_products(monkeypatch)
    assert goldberg(latin_square_graph(oa_macneish(4), 3), 1, -3).lam == 4
    # a one-row product while the Hoffman search reads row 0, then the
    # relation's pass, whose A^2 rows also give the lambda tally
    assert calls == [1, 16]


def test_claim_free_compare_forms_a2_and_a3_rows_once_a_graph(tmp_path, monkeypatch):
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph
    from cerg.graphs import write_graph6

    write_graph6(tls(2, 2), tmp_path / "tls22.g6")
    write_graph6(clique_extension(latin_square_graph(oa_macneish(4), 3), 2), tmp_path / "ext.g6")
    calls = count_products(monkeypatch)
    assert main(["compare", str(tmp_path / "tls22.g6"), str(tmp_path / "ext.g6")]) == 0
    # each graph: one-row products while the Hoffman search reads row 0,
    # then one pass for the relation, whose A^2 rows also give the level;
    # the wrong lower-degree candidates fail on row 0 and form no tile
    assert [c for c in calls if c > 1] == [32] * 4
    assert calls.count(1) == 6


def test_goldberg_and_hoffman_form_no_lambda_sums(monkeypatch):
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph
    from cerg.spectral import goldberg

    real = regularity.Powers.rows
    asked = []

    def rows(self, j_max):
        asked.append(self.want_sums)
        return real(self, j_max)

    monkeypatch.setattr(regularity.Powers, "rows", rows)
    oa = oa_macneish(4)
    g = latin_square_graph(oa, 3)
    goldberg(g, 1, -3)
    assert hoffman_check(g, row_clique(oa, 0, 0), "clique", 3).tight
    assert asked and not any(asked)
    assert powers(g)._scan is None


# -- a pass decides its own work: sums, tallies and verified relations


def latin_extension(n, m, s):
    """clique-ext(LS_m(n), s)."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    return clique_extension(latin_square_graph(oa_macneish(n), m), s)


TLS22_CLAIM = [(19, 1), (3, 9), (-1, 16), (-5, 6)]
TLS33_CLAIM = [(98, 1), (17, 32), (-1, 162), (-10, 48)]
EXT22_CLAIM = [(13, 1), (5, 6), (-1, 16), (-3, 9)]


@pytest.mark.parametrize("build, claim", [
    (lambda: tls(2, 2), TLS22_CLAIM),
    (lambda: tls(3, 3), TLS33_CLAIM),
    (lambda: latin_extension(4, 2, 2), EXT22_CLAIM),
], ids=["tls22", "tls33", "ext-ls2-4-2"])
def test_certify_after_the_hoffman_relation_forms_no_tile(build, claim, monkeypatch):
    """The claim's product is the Hoffman polynomial the relation search
    has verified, so `certify` forms no product (two, one pass of A^2
    and A^3, when it checked the relation again)."""
    from cerg.spectral import _hoffman_polynomial, certify

    g = build()
    assert _hoffman_polynomial(g) is not None
    calls = count_products(monkeypatch)
    cert = certify(g, claim)
    assert cert.eigenvalues == tuple(t for t, _ in claim)
    assert calls == []


@pytest.mark.parametrize("j_max", [1, 3])
@pytest.mark.parametrize("want_sums", [False, True])
@pytest.mark.parametrize("scanned", [False, True])
def test_rows_form_sums_iff_wanted_and_unscanned(j_max, want_sums, scanned, monkeypatch):
    tiles_of(monkeypatch, 8, 32)
    p = powers(tls(2, 2))
    if scanned:
        p.sum_scan()
    p.want_sums = want_sums
    fed = []
    on_feed(monkeypatch, lambda start, *arrays: fed.append(start))
    starts = [tile.rows.start for tile in p.rows(j_max)]
    assert starts == [0, 8, 16, 24]
    assert fed == (starts if want_sums and not scanned else [])


def test_a_failing_relation_stops_at_its_first_mismatching_tile(monkeypatch):
    """Under eight 4-row tiles, the claim 19^1 3^7 -1^22 -9^2 passes
    moments 0..2 and has ell = 280, but its product fails in the first
    tile: two products (A^2 and A^3 of rows 0..3), then the eight
    A^2 tiles of the pass that leaves the tally tr A^3 comes from, so the
    failing moment is still reported first.  Neither pass forms
    (A∘A^2)A, even when the graph wants sums.  A bare failing relation
    forms one tile, whether the graph has its tally or wants sums."""
    from cerg.spectral import MomentMismatch, certify

    tiles_of(monkeypatch, 4, 32)
    calls = count_products(monkeypatch)
    for want_sums in (False, True):
        g = tls(2, 2)
        powers(g).want_sums = want_sums
        calls.clear()
        with pytest.raises(MomentMismatch, match=r"^moment j=3: claimed 5568, trace gives 6336$"):
            certify(g, [(19, 1), (3, 7), (-1, 22), (-9, 2)])
        assert calls == [4, 4] + [4] * 8
        assert powers(g)._scan is None and powers(g).want_sums == want_sums
    p = powers(tls(2, 2))
    square = [0, 0, 1]
    for has_tally in (False, True):
        if has_tally:
            p.tally()
        for want_sums in (False, True):
            p.want_sums = want_sums
            calls.clear()
            assert p.first_mismatch(square, 0, 0) == (0, 0, 19)
            assert calls == [4]  # A^2 alone: the pass stops before the tile's sums
            assert (p._tally is not None) == has_tally and p._scan is None


@pytest.fixture(scope="module")
def ladder(tmp_path_factory):
    """tls(3,4) and tls(4,5) with tls(3,4)'s claim and that claim with two
    multiplicities swapped; the cospectral pairs tls(3,3) and tls(2,6)
    with their claims; tls(2,2) and clique-ext(LS_2(4), 2)."""
    from cerg.graphs import write_graph6

    d = tmp_path_factory.mktemp("ladder")
    graphs = {
        "tls34": tls(3, 4), "tls45": tls(4, 5), "tls33": tls(3, 3), "tls26": tls(2, 6),
        "tls22": tls(2, 2), "ext33": latin_extension(9, 4, 3), "ext26": latin_extension(12, 3, 2),
        "ext22": latin_extension(4, 2, 2),
    }
    for name, g in graphs.items():
        write_graph6(g, d / f"{name}.g6")
    claims = {
        "c34": {"eigs": [134, 26, -1, -10], "mults": [1, 44, 288, 99]},
        "c34-swapped": {"eigs": [134, 26, -1, -10], "mults": [1, 288, 44, 99]},
        "c33": {"eigs": [98, 17, -1, -10], "mults": [1, 32, 162, 48]},
        "c26": {"eigs": [67, 19, -1, -5], "mults": [1, 33, 144, 110]},
        "c45-wrong": {"eigs": [383, 13, 3, -41], "mults": [1, 472, 902, 225]},
    }
    for name, claim in claims.items():
        (d / f"{name}.json").write_text(json.dumps(claim))
    return d


@pytest.mark.parametrize("argv, products", [
    *[(("verify", check, "-i", "tls34.g6"), 4) for check in ("profile", "strong", "weak")],
    *[(("verify", check, "-i", "tls34.g6", "--claim", "c34.json"), 4) for check in ("spectrum", "eq1")],
    (("verify", "theorem33", "-i", "tls34.g6", "--claim", "c34.json"), 6),
    (("verify", "theorem33", "-i", "tls34.g6", "--claim", "c34-swapped.json"), 0),
    # a failing product: 2 for its first tile, then the 8 A^2 tiles of the tally's pass
    *[(("verify", check, "-i", "tls45.g6", "--claim", "c45-wrong.json"), 10)
      for check in ("spectrum", "theorem33")],
    (("verify", "profile", "-i", "tls45.g6"), 16),
    (("compare", "tls33.g6", "ext33.g6", "--claim", "c33.json"), 4),
    (("compare", "tls26.g6", "ext26.g6", "--claim", "c26.json"), 4),
    (("compare", "tls33.g6", "ext33.g6"), 10),
    (("compare", "tls26.g6", "ext26.g6"), 10),
    (("compare", "tls22.g6", "ext22.g6"), 10),
], ids=lambda x: "-".join(x).replace(".g6", "").replace(".json", "") if isinstance(x, tuple) else None)
def test_products_per_command(ladder, argv, products, monkeypatch, capsys):
    """Each command's count of `exact_matmul` calls: every tile product
    and every one-row product of the Hoffman search."""
    calls = count_products(monkeypatch)
    main([str(ladder / a) if a.endswith((".g6", ".json")) else a for a in argv])
    assert len(calls) == products


@pytest.fixture
def level_corpus(tls22, tls33, ls34, rook33, h27):
    """Circulants of order 5..10, Petersen, SRGs, tls graphs, clique
    extensions and an irregular graph."""
    corpus = [circulant(n, steps) for n in range(5, 11) for r in range(1, n // 2 + 1)
              for steps in itertools.combinations(range(1, n // 2 + 1), r)]
    return corpus + [petersen(), tls22, tls33, ls34, rook33, h27, clique_extension(tls22, 2),
                     clique_extension(ls34, 2), Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3)])]


def test_level_agrees_with_profile(level_corpus):
    for g in level_corpus:
        full = profile(g)
        levels = (full.level_co_edge, full.level_edge)
        if levels == (None, None):
            with pytest.raises(PreconditionFailed):
                level(g)
        else:
            assert level(g) == levels


def test_constant_free_profile_leaves_out_only_the_constants(level_corpus):
    for g in level_corpus:
        full = profile(g)
        assert profile(g, constants=False) == replace(full, gamma=None, alpha=None, beta=None)
