"""The row-tiled `scheme_check` against a dense reference.

`scheme_check` reads the relations' packed rows a row tile at a time and
forms each A_i A_j a tile of rows at a time.  The reference below is the
check as it once was: every relation unpacked whole beside an n x n
identity, the partition tested by an OR over all n^2 entries, and each
A_i A_j formed whole, its values on relation h read through the whole
boolean mask.  Both must give the same report, witness included, and
the same `NotAPartition` message, under default and one-row tiles.
"""

import random
from functools import reduce

import numpy as np
import pytest

from cerg import regularity
from cerg.graphs import Graph
from cerg.regularity import AssociationSchemeReport, NotAPartition, exact_matmul, scheme_check


def dense_scheme_check(relations) -> AssociationSchemeReport:
    if not relations:
        raise NotAPartition("no relations supplied")
    n = relations[0].n
    if any(r.n != n for r in relations):
        raise NotAPartition("relations live on different vertex sets")
    if any(r.edge_count() == 0 for r in relations):
        raise NotAPartition("relations must be non-empty")
    mats = [np.eye(n, dtype=bool)] + [r.rows(slice(None)) for r in relations]
    if not reduce(np.logical_or, mats).all() or sum(map(np.count_nonzero, mats)) != n * n:
        raise NotAPartition("identity plus relations do not partition X x X")
    d = len(relations)
    table = {}
    for i in range(d + 1):
        for j in range(i, d + 1):
            prod = mats[j] if i == 0 else exact_matmul(mats[i], relations[j - 1].bits)
            for h in range(d + 1):
                vals = prod[mats[h]]
                if vals.size == 0:
                    continue
                if int(vals.min()) != int(vals.max()):
                    pos = np.argwhere(mats[h])
                    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
                    return AssociationSchemeReport(
                        False,
                        d,
                        None,
                        witness={
                            "i": i,
                            "j": j,
                            "h": h,
                            "pair": tuple(int(v) for v in pos[lo]),
                            "count": int(vals[lo]),
                            "other_pair": tuple(int(v) for v in pos[hi]),
                            "other_count": int(vals[hi]),
                        },
                    )
                table[(i, j, h)] = int(vals[0])
                table[(j, i, h)] = int(vals[0])
    return AssociationSchemeReport(True, d, table)


def label_partition(n, d, seed, irregular=False):
    """d relations from random labels 1..d of the pairs x < y; with
    ``irregular`` relation 1 is a single edge, so it is not regular."""
    rng = random.Random(seed)
    labels = {(x, y): rng.randint(1, d) for x in range(n) for y in range(x + 1, n)}
    if irregular:
        labels = {p: 1 if p == (0, 1) else rng.randint(2, d) for p in labels}
    return [Graph.from_edges(n, [p for p, c in labels.items() if c == h]) for h in range(1, d + 1)]


def circulant_partition(n, d, seed):
    """d relations on Z_n from random labels of the differences +-s: each
    relation is regular, so a witness, if any, lies on a relation h >= 1."""
    rng = random.Random(seed)
    label = {s: rng.randint(1, d) for s in range(1, n // 2 + 1)}
    return [
        Graph.from_edges(n, [(x, (x + s) % n) for s, c in label.items() if c == h for x in range(n)])
        for h in range(1, d + 1)
    ]


def cycle_and_split(n):
    """C_n, the pairs at distance 2 or 3 that avoid vertex 0, and the rest.
    p_11^2 and p_11^3 both vary, and relation 2 has no pair in row 0, so
    under one-row tiles its values are first seen after relation 3's."""
    near = [(x, y) for x in range(1, n) for y in range(x + 1, n) if min(y - x, n - y + x) in (2, 3)]
    far = [(x, y) for x in range(n) for y in range(x + 2, n)
           if (x, y) not in near and (x, y) != (0, n - 1)]
    return [Graph.from_edges(n, [(x, (x + 1) % n) for x in range(n)]),
            Graph.from_edges(n, near), Graph.from_edges(n, far)]


def distance_scheme(n):
    """The cyclic distance scheme of C_n: relation s joins x and x +- s."""
    return [
        Graph.from_edges(n, [(x, (x + s) % n) for x in range(n)]) for s in range(1, n // 2 + 1)
    ]


CASES = (
    [("labels", n, d, seed, False) for seed, (n, d) in enumerate(
        [(n, d) for n in (2, 3, 5, 8, 11, 17) for d in (1, 2, 3, 4)]
    )]
    + [("labels", n, d, 100 + n, True) for n in (4, 9, 17) for d in (2, 3, 4)]
    + [("circulant", n, d, 200 + n, None) for n in (7, 10, 13, 16) for d in (2, 3)]
    + [("split", n, None, None, None) for n in (8, 11)]
    + [("cycle", n, None, None, None) for n in (6, 7, 9, 12)]
)


def relations_of(kind, n, d, seed, irregular):
    return {
        "labels": lambda: label_partition(n, d, seed, irregular),
        "circulant": lambda: circulant_partition(n, d, seed),
        "split": lambda: cycle_and_split(n),
        "cycle": lambda: distance_scheme(n),
    }[kind]()


def outcome(check, relations):
    try:
        rep = check(relations)
    except NotAPartition as e:
        return "NotAPartition", str(e)
    return rep.ok, rep.classes, rep.intersection_numbers, rep.witness


@pytest.mark.parametrize("one_row", [False, True])
@pytest.mark.parametrize("kind, n, d, seed, irregular", CASES)
def test_tiled_scheme_check_equals_the_dense_one(kind, n, d, seed, irregular, one_row, monkeypatch):
    relations = relations_of(kind, n, d, seed, irregular)
    want = outcome(dense_scheme_check, relations)
    if one_row:
        monkeypatch.setattr(regularity, "_TILE_ENTRIES", n)
        monkeypatch.setattr(regularity, "_MAX_TILES", n)
        assert next(regularity._row_tiles(n, n)) == slice(0, 1)
    assert outcome(scheme_check, relations) == want
    if irregular and want[0] != "NotAPartition":
        assert want[3]["h"] == 0  # a degree differs: p_ii^0 is not constant
    if kind == "split":
        assert (want[3]["i"], want[3]["j"], want[3]["h"]) == (1, 1, 2)


def test_the_cases_reach_every_outcome():
    """The comparison above sees schemes, the partition errors, and
    witnesses both on the pairs (x, x) and on a relation h >= 1."""
    outcomes = [outcome(dense_scheme_check, relations_of(*case)) for case in CASES]
    assert all(o[0] is True for o in outcomes[-4:])
    assert any(o[0] == "NotAPartition" for o in outcomes)
    witnessed = {o[3]["h"] > 0 for o in outcomes if o[0] is False}
    assert witnessed == {False, True}


@pytest.mark.parametrize("relations", [
    lambda: [],
    lambda: [Graph.complete(4), Graph.complete(5)],
    lambda: [Graph.complete(4), Graph.empty(4)],
    lambda: [Graph.complete(5), Graph.complete(5)],  # an overlap
    lambda: [Graph.from_edges(5, [(0, 1)])],  # a gap
])
def test_partition_errors_equal_the_dense_ones(relations):
    rels = relations()
    want = outcome(dense_scheme_check, rels)
    assert want[0] == "NotAPartition"
    assert outcome(scheme_check, rels) == want
