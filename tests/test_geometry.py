import hashlib
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from cerg.geometry import (
    Design,
    DesignFormatError,
    GeometryFailure,
    GeometryReport,
    NotALinearDesign,
    OddOrder,
    ParallelClassSystem,
    block_graph,
    decode_point,
    design_affine_lines,
    design_one_factorization,
    parallel_classes,
    read_design,
    verify_parallel_classes,
    write_design,
)
from cerg.graphs import Graph, graph6_bytes
from cerg.regularity import is_strongly_regular


def test_q2_explicit_normals_and_classes():
    pcs = parallel_classes(2)
    assert pcs.normals == ((0, 0, 1), (1, 0, 0), (1, 1, 0))
    # class 0 is {z=0, z=1}, class 1 is {x=0, x=1}, class 2 is {x+y=0, x+y=1}
    for b in (0, 1):
        assert all(decode_point(p, 2, 3)[2] == b for p in pcs.plane(0, b))
        assert all(decode_point(p, 2, 3)[0] == b for p in pcs.plane(1, b))
        assert all(
            (decode_point(p, 2, 3)[0] + decode_point(p, 2, 3)[1]) % 2 == b
            for p in pcs.plane(2, b)
        )
    assert len(set(pcs.plane(0, 0)) & set(pcs.plane(1, 0))) == 2


def test_q3_triple_intersections_exhaustive():
    pcs = parallel_classes(3)
    planes = [
        [frozenset(pcs.plane(a, b)) for b in range(3)] for a in range(4)
    ]
    for a1, a2, a3 in itertools.combinations(range(4), 3):
        for p1 in planes[a1]:
            for p2 in planes[a2]:
                for p3 in planes[a3]:
                    assert len(p1 & p2 & p3) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_verify_parallel_classes_accepts(q):
    assert verify_parallel_classes(parallel_classes(q)).ok


@pytest.mark.parametrize("q", [2, 3, 4, 7])
def test_plane_of_names_the_plane_of_each_point(q):
    pcs = parallel_classes(q)
    table = pcs.plane_of()
    assert table.shape == (q + 1, q**3)
    for a in range(q + 1):
        for b in range(q):
            assert (table[a, pcs.plane(a, b)] == b).all()


def test_union_of_each_class_is_everything():
    pcs = parallel_classes(4)
    for a in range(5):
        pts = sorted(p for b in range(4) for p in pcs.plane(a, b))
        assert pts == list(range(64))


def test_pairwise_intersection_multiset():
    pcs = parallel_classes(3)
    sizes = set()
    for a1, a2 in itertools.combinations(range(4), 2):
        for b1 in range(3):
            for b2 in range(3):
                sizes.add(len(set(pcs.plane(a1, b1)) & set(pcs.plane(a2, b2))))
    assert sizes == {3}


def frozenset_verifier(s):
    """The exhaustive check by set intersections, plane by plane."""
    q = s.q
    failures = []
    for a, cls in enumerate(s.classes.tolist()):
        if sorted(pt for plane in cls for pt in plane) != list(range(q**3)):
            failures.append(GeometryFailure("partition", (a,), "class does not partition F_q^3"))
    if failures:
        return GeometryReport(False, tuple(failures))
    sets = [[frozenset(pl) for pl in cls] for cls in s.classes.tolist()]
    for a1, a2 in itertools.combinations(range(len(sets)), 2):
        for b1, p1 in enumerate(sets[a1]):
            for b2, p2 in enumerate(sets[a2]):
                if len(p1 & p2) != q:
                    detail = f"|P∩Q| = {len(p1 & p2)}, expected {q}"
                    failure = GeometryFailure("pair-intersection", (a1, b1, a2, b2), detail)
                    return GeometryReport(False, (failure,))
    for a1, a2, a3 in itertools.combinations(range(len(sets)), 3):
        for b1, p1 in enumerate(sets[a1]):
            for b2, p2 in enumerate(sets[a2]):
                for b3, p3 in enumerate(sets[a3]):
                    if len(p1 & p2 & p3) != 1:
                        detail = f"|P∩Q∩R| = {len(p1 & p2 & p3)}, expected 1"
                        where = (a1, b1, a2, b2, a3, b3)
                        failure = GeometryFailure("triple-intersection", where, detail)
                        return GeometryReport(False, (failure,))
    return GeometryReport(True, ())


def corrupted(rng, q):
    """parallel_classes(q) with a point or two swapped between two planes
    of a class (or inside one), or copied over a point of a plane."""
    good = parallel_classes(q)
    classes = good.classes.tolist()
    for _ in range(rng.randint(1, 2)):
        cls = classes[rng.randrange(q + 1)]
        b1, b2 = rng.randrange(q), rng.randrange(q)
        i, j = rng.randrange(q * q), rng.randrange(q * q)
        if rng.random() < 0.5:
            cls[b1][i], cls[b2][j] = cls[b2][j], cls[b1][i]
        else:
            cls[b1][i] = cls[b2][j]  # the point replaced is left in no plane
    return ParallelClassSystem(q, good.spec, good.normals, classes)


def test_verifier_matches_the_set_intersections_on_corrupted_systems():
    rng = random.Random(17)
    kinds = []
    for _ in range(75):
        for q in (2, 3, 4, 5):
            s = corrupted(rng, q)
            rep = verify_parallel_classes(s)
            assert rep == frozenset_verifier(s)
            kinds.append(rep.failures[0].kind if rep.failures else "ok")
    # a swap inside a plane keeps the system valid
    assert set(kinds) >= {"ok", "partition", "pair-intersection"}
    # the normals z, x and x + z of GF(2)^3 are dependent: planes of the
    # three classes meet in two points or none
    x, z = np.arange(8) // 4, np.arange(8) % 2
    classes = [np.argsort(f, kind="stable").reshape(2, 4) for f in (z, x, x ^ z)]
    s = ParallelClassSystem(2, parallel_classes(2).spec, [(0, 0, 1), (1, 0, 0), (1, 0, 1)], classes)
    rep = verify_parallel_classes(s)
    assert rep == frozenset_verifier(s) and rep.failures[0].kind == "triple-intersection"


def test_verifier_rejects_corrupted_system():
    good = parallel_classes(2)
    classes = [list(map(list, cls)) for cls in good.classes]
    # swap one point between the two planes of class 1: still a partition,
    # but {0,1,2,4} meets the plane z=0 in three points instead of two
    classes[1][0] = [0, 1, 2, 4]
    classes[1][1] = [3, 5, 6, 7]
    bad = ParallelClassSystem(2, good.spec, good.normals, classes)
    rep = verify_parallel_classes(bad)
    assert isinstance(rep, GeometryReport) and not rep.ok
    assert rep.failures[0].kind == "pair-intersection"


# -- designs


def test_affine_line_designs_counts():
    d = design_affine_lines(3, 2)
    assert (d.v, d.t, d.b) == (9, 3, 12)
    assert len(d.resolution) == 4
    assert all(len(cls) == 3 for cls in d.resolution)

    d = design_affine_lines(3, 3)
    assert (d.v, d.t, d.b) == (27, 3, 117)  # 27*26/(3*2)
    assert len(d.resolution) == 13
    assert all(len(cls) == 9 for cls in d.resolution)

    d = design_affine_lines(2, 2)
    assert (d.v, d.t, d.b) == (4, 2, 6)
    assert len(d.resolution) == 3


def round_robin_oracle(m):
    """Independent schedule: every pair once, each round a perfect matching."""
    rounds = []
    for r in range(m - 1):
        pairs = {(m - 1, r)}
        for i in range(1, m // 2):
            pairs.add(((r + i) % (m - 1), (r - i) % (m - 1)))
        rounds.append(pairs)
    return rounds


@pytest.mark.parametrize("m,blocks,classes", [(4, 6, 3), (6, 15, 5), (8, 28, 7)])
def test_one_factorization_counts(m, blocks, classes):
    d = design_one_factorization(m)
    assert (d.b, len(d.resolution)) == (blocks, classes)
    oracle = round_robin_oracle(m)
    for cls, expected in zip(d.resolution, oracle):
        got = {tuple(sorted(d.blocks[i])) for i in cls}
        assert got == {tuple(sorted(p)) for p in expected}


def test_one_factorization_rejects_odd():
    with pytest.raises(OddOrder):
        design_one_factorization(5)


def test_every_generated_design_is_linear_and_resolvable():
    for d in (
        design_affine_lines(2, 2),
        design_affine_lines(3, 2),
        design_affine_lines(3, 3),
        design_affine_lines(4, 2),
        design_one_factorization(6),
        design_one_factorization(8),
    ):
        assert d.pair_coverage_violation() is None
        r = (d.v - 1) // (d.t - 1)
        per_point = [0] * d.v
        for blk in d.blocks:
            for p in blk:
                per_point[p] += 1
        assert all(c == r for c in per_point)
        assert all(len(cls) == d.v // d.t for cls in d.resolution)


# -- block graphs


def srg_params(v, t):
    n = v * (v - 1) // (t * (t - 1))
    k = t * (v - t) // (t - 1)
    lam = t * (t - 2) + (v - t) // (t - 1)
    mu = t * t
    return n, k, lam, mu


def test_block_graph_ag33_is_srg_117():
    g = block_graph(design_affine_lines(3, 3))
    ok, params = is_strongly_regular(g)
    assert ok and params == srg_params(27, 3) == (117, 36, 15, 9)


def test_block_graph_one_factorization_6_is_triangular():
    g = block_graph(design_one_factorization(6))
    ok, params = is_strongly_regular(g)
    assert ok and params == (15, 8, 4, 4)


def test_block_graph_ag23_is_complete_multipartite():
    g = block_graph(design_affine_lines(3, 2))
    ok, params = is_strongly_regular(g)
    assert ok and params == (12, 9, 6, 9)
    # K_{4x3}: non-adjacent exactly within the 4 resolution classes
    d = design_affine_lines(3, 2)
    for cls in d.resolution:
        for i, j in itertools.combinations(cls, 2):
            assert not g.has_edge(i, j)


def test_block_graph_rejects_nonlinear():
    d = Design(4, 2, [(0, 1), (0, 1), (2, 3)])
    with pytest.raises(NotALinearDesign):
        block_graph(d)


def first_uncovered_pair(d):
    """The first pair x < y in row-major order not covered exactly once,
    by counting every pair of every block."""
    count = {}
    for blk in d.blocks:
        for pair in itertools.combinations(blk, 2):
            count[pair] = count.get(pair, 0) + 1
    for x, y in itertools.combinations(range(d.v), 2):
        if count.get((x, y), 0) != 1:
            return (x, y, count.get((x, y), 0))
    return None


def test_pair_coverage_violation_is_the_first_in_row_major_order():
    rng = random.Random(7)
    designs = [Design(4, 2, [(0, 1), (0, 1), (2, 3)]), Design(5, 2, []), Design(1, 1, [(0,)])]
    for _ in range(500):
        v = rng.randint(1, 9)
        t = rng.randint(1, v)
        designs.append(Design(v, t, [rng.sample(range(v), t) for _ in range(rng.randint(0, 12))]))
        # points past the largest on a block: every pair with one of them is uncovered
        top = rng.randint(t, v)
        designs.append(Design(v, t, [rng.sample(range(top), t) for _ in range(rng.randint(0, 3))]))
        # labels far apart, and a covered prefix 0..m-1 with gaps above it
        far = rng.sample(range(v + 50), v)
        designs.append(Design(v + 50, t, [[far[x] for x in rng.sample(range(v), t)]
                                          for _ in range(rng.randint(0, 12))]))
        m = rng.randint(2, 6)
        strays = [(rng.randrange(m), m + 1 + rng.randrange(40)) for _ in range(rng.randint(0, 3))]
        designs.append(Design(m + 41, 2, [*itertools.combinations(range(m), 2), *strays]))
    for d in designs:
        assert d.pair_coverage_violation() == first_uncovered_pair(d), d


# a count per point pair took 204 MB on the one block of 2000 points and
# 51 MB on AG(2, 31); a count per point takes 0.1 MB and 0.5 MB
def test_pair_coverage_violation_memory_is_linear_in_the_incidences(tmp_path):
    path = tmp_path / "one-block.design"
    path.write_text("DESIGN 2000 2000 1 0\n" + " ".join(map(str, range(2000))) + "\n")
    for d in (read_design(path), design_affine_lines(31, 2)):
        tracemalloc.start()
        try:
            violation = d.pair_coverage_violation()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert violation is None
        assert peak < 32 * (d.v + d.b * d.t) + 2**16, d


def incidence_block_graph(d):
    """The block graph through a v x b incidence matrix, as it was built
    before the blocks through a point came from one sort."""
    incidence = np.zeros((d.v, d.b), dtype=bool)
    for idx, blk in enumerate(d.blocks):
        incidence[list(blk), idx] = True
    a = np.zeros((d.b, d.b), dtype=bool)
    for point_blocks in incidence:
        group = np.flatnonzero(point_blocks)
        a[np.ix_(group, group)] = True
    np.fill_diagonal(a, False)
    return Graph(a)


AG2_ORDERS = [3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31]


@pytest.mark.parametrize("q", AG2_ORDERS)
def test_block_graph_bytes_equal_the_incidence_build(q):
    d = design_affine_lines(q, 2)
    assert graph6_bytes(block_graph(d)) == graph6_bytes(incidence_block_graph(d))


def test_block_graph_of_a_design_file_equals_the_incidence_build(tmp_path):
    # AG(2, 4) with its points relabelled and its blocks shuffled
    ag = design_affine_lines(4, 2)
    rng = random.Random(11)
    label = list(range(ag.v))
    rng.shuffle(label)
    blocks = [[label[p] for p in blk] for blk in ag.blocks]
    rng.shuffle(blocks)
    path = tmp_path / "ag24.design"
    write_design(Design(ag.v, ag.t, blocks), path)
    d = read_design(path)
    assert graph6_bytes(block_graph(d)) == graph6_bytes(incidence_block_graph(d))


def traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_graph_builds_no_incidence_matrix():
    # past the b x ceil(b/8) packed rows and Graph's own checks, a build
    # that made the v x b incidence would hold 953 kB more on AG(2, 31)
    d = design_affine_lines(31, 2)
    g = block_graph(d)
    own = traced_peak(lambda: Graph._adopt(g.bits))
    extra = traced_peak(lambda: block_graph(d)) - d.b * -(-d.b // 8) - own
    assert extra < d.v * d.b // 4, (extra, d.v * d.b)


@pytest.mark.parametrize("build, args, blocks", [
    (design_affine_lines, (256, 2), 256 * 257),
    (design_affine_lines, (16, 3), 16**2 * (16**3 - 1) // 15),
    (design_one_factorization, (2000,), 2000 * 1999 // 2),
])
def test_oversized_design_is_refused_before_it_is_built(build, args, blocks):
    with pytest.raises(ValueError, match=f"vertex count {blocks} outside"):
        build(*args)


def test_design_file_round_trip(tmp_path):
    d = design_affine_lines(3, 2)
    path = tmp_path / "ag23.design"
    write_design(d, path)
    back = read_design(path)
    assert np.array_equal(back.blocks, d.blocks)
    assert np.array_equal(back.resolution, d.resolution)


@pytest.mark.parametrize("build, digest", [
    (lambda: design_affine_lines(3, 2),
     "6160d2271deb44e2f2ca3d1f552a9345c771a01a429548bed9b5f6244cac0de2"),
    (lambda: design_affine_lines(4, 2),
     "1c968b4f6e1f38cac0c5e537608def8d3d7e132db442aa03065c8c54f792d1c7"),
    (lambda: design_one_factorization(8),
     "52f1eccc7a3ba252f5be55e30ee733a60020816c3b0ee4b3b523d4bc0b73f1b9"),
], ids=["AG(2,3)", "AG(2,4)", "one-factorization(8)"])
def test_design_file_keeps_its_bytes(tmp_path, build, digest):
    # SHA-256 of the files written when blocks and classes were tuples
    path = tmp_path / "x.design"
    write_design(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("text, error", [
    ("DESIGN 4 2 2 0\n0 1\n2\n", "line 3: expected 2 points, got 1"),
    ("DESIGN 4 2 2 0\n0 1 2\n2 3\n", "line 2: expected 2 points, got 3"),
    ("DESIGN 4 2 6 3\n0 1\n2 3\n0 2\n1 3\n0 3\n1 2\n0 1\n2 3 4\n5\n",
     "line 9: expected 2 block indices, got 3"),
    ("DESIGN 4 2 -2 3\n0 1\n", "bad header: 'DESIGN 4 2 -2 3'"),
], ids=["short-block", "long-block", "unequal-classes", "negative-count"])
def test_ragged_design_file_names_the_line(tmp_path, text, error):
    path = tmp_path / "x.design"
    path.write_text(text)
    with pytest.raises(DesignFormatError) as exc:
        read_design(path)
    assert str(exc.value) == error


@pytest.mark.parametrize("design", [
    design_affine_lines(3, 2), design_one_factorization(6),
], ids=["AG(2,3)", "one-factorization(6)"])
def test_block_graph_and_h_graph_sort_no_incidences(design, monkeypatch):
    from cerg.constructions import h_graph

    # the design sorted its incidences once, on construction
    assert not design.by_point.flags.writeable
    want = block_graph(design), h_graph(design)

    def refuse(*args, **kwargs):
        raise AssertionError("an incidence sort outside Design")

    monkeypatch.setattr(np, "argsort", refuse)
    monkeypatch.setattr(np, "sort", refuse)
    assert (block_graph(design), h_graph(design)) == want


def test_design_by_point_groups_the_blocks_through_each_point():
    d = design_affine_lines(2, 2)
    groups = d.by_point.reshape(d.v, -1)
    for x in range(d.v):
        assert groups[x].tolist() == [i for i, blk in enumerate(d.blocks.tolist()) if x in blk]


@pytest.mark.parametrize("text", [
    "DESIGN 5 2 1 0\n0 99999999999999999999999\n",
    "DESIGN 4 2 2 1\n0 1\n2 3\n0 99999999999999999999999\n",
], ids=["block", "resolution"])
def test_design_entry_past_the_index_type_is_a_value_error(tmp_path, text):
    # it was an OverflowError, which the CLI reported with a traceback
    path = tmp_path / "x.design"
    path.write_text(text)
    with pytest.raises(ValueError, match="too large to be an index"):
        read_design(path)


def test_design_refuses_rows_of_another_width():
    with pytest.raises(ValueError, match="not rows of 2 points"):
        Design(4, 2, [(0, 1, 2, 3)])  # never two blocks (0, 1), (2, 3)
    assert Design(4, 2, []).blocks.shape == (0, 2)
