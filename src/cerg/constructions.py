"""The named graph families: Latin Square graphs, twisted Latin Square
graphs, spread/coloring edge modifications, and the block-graph-plus-
resolution construction.

A twisted Latin Square graph TLS(q, n) lives on F_q^3 x [n^2]; vertex
(x, i) gets index i*q^3 + enc(x) (fiber-major).  Two distinct vertices
(x, i), (y, j) are adjacent iff i = j, or some plane of the parallel
class system contains both x and y while its group row carries the same
symbol at positions i and j.  The graph keeps its construction data so
the clique/fiber/plane decomposition stays addressable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .arrays import GroupDivisibleArray, OrthogonalArray, goa_from_oa, oa_macneish, validate_array
from .geometry import Design, _block_bits, decode_point, parallel_classes
from .graphs import Graph, PartitionInvalid, _check_order, check_parts


class TooFewRows(ValueError):
    pass


class ParameterMismatch(ValueError):
    pass


class NotATlsGraph(TypeError):
    pass


class NotResolvable(ValueError):
    pass


class PartNotClique(ValueError):
    pass


class PartNotCoclique(ValueError):
    pass


def latin_square_graph(oa: OrthogonalArray, m: int) -> Graph:
    """LS_m(n): OA columns, adjacent when some of the first m rows agree."""
    if m < 1 or m > oa.t:
        raise TooFewRows(f"m={m} not in [1, {oa.t}]")
    n2 = oa.n * oa.n
    _check_order(n2)
    a = np.zeros((n2, n2), dtype=bool)
    for row in oa.cells[:m]:
        a |= row[:, None] == row[None, :]
    np.fill_diagonal(a, False)
    labels = [f"col{c}" for c in range(n2)]
    return Graph._adopt(np.packbits(a, axis=1), labels)


class TlsGraph(Graph):
    """A TLS(q, n) graph together with its construction data, as `tls`
    builds it."""

    __slots__ = ("q", "n_sym", "goa", "pcs")

    def vertex_of(self, vid: int) -> tuple[int, int]:
        """(point encoding, fiber index) of a vertex id."""
        fiber, point = divmod(vid, self.q**3)
        return point, fiber

    def fiber(self, i: int) -> tuple[int, ...]:
        q3 = self.q**3
        return tuple(range(i * q3, (i + 1) * q3))

    def plane_copy(self, s: int, t: int, i: int) -> tuple[int, ...]:
        return tuple((i * self.q**3 + self.pcs.classes[s, t]).tolist())

    def clique(self, s: int, t: int, sym: int) -> tuple[int, ...]:
        """C(s, t, sym): plane t of class s crossed with the columns where
        group s's row t shows the symbol."""
        columns = np.flatnonzero(self.goa.row(s, t) == sym)
        return tuple((columns[:, None] * self.q**3 + self.pcs.classes[s, t]).ravel().tolist())

    def all_cliques(self):
        for s in range(self.q + 1):
            for t in range(self.q):
                for sym in range(self.n_sym):
                    yield (s, t, sym), self.clique(s, t, sym)


def tls(q: int, n: int, goa: GroupDivisibleArray | None = None) -> TlsGraph:
    """Twisted Latin Square graph TLS(q, n) on q^3 n^2 vertices.

    Group p of the GOA is identified with parallel class p (in normal
    list order) and row j of the group with plane j of the class.
    The GOA defaults to the MacNeish OA(n, .) truncated to q+1 rows and
    repeated q times per group; the classes are `parallel_classes(q)`.
    """
    _check_order(q**3 * n * n)
    pcs = parallel_classes(q)
    if goa is None:
        base = oa_macneish(n)
        if base.t < q + 1:
            raise ParameterMismatch(
                f"MacNeish gives only OA({n}, {base.t}); supply a GOA with {q + 1} groups"
            )
        goa = goa_from_oa(OrthogonalArray(n, q + 1, base.cells[: q + 1]), q)
    if goa.t != q + 1 or goa.s != q:
        raise ParameterMismatch(
            f"need a GOA(n, {q}, {q + 1}); got GOA({goa.n}, {goa.s}, {goa.t})"
        )
    if goa.n != n:
        raise ParameterMismatch(f"GOA symbol count {goa.n} differs from n={n}")
    if not validate_array(goa).ok:
        raise ParameterMismatch("the supplied GOA fails the column-pair condition")

    q3 = q**3
    # each fiber is a q^3-clique; each plane copy joins the fibers whose
    # group row shows the same symbol
    a = np.kron(np.eye(n * n, dtype=bool), np.ones((q3, q3), dtype=bool))
    for s in range(q + 1):
        for t in range(q):
            plane = pcs.classes[s, t]
            row = goa.row(s, t)
            # a Python set: 1-D np.unique imports numpy.ma under NumPy 2.4
            for sym in set(row.tolist()):
                members = (np.flatnonzero(row == sym)[:, None] * q3 + plane).ravel()
                a[np.ix_(members, members)] = True
    np.fill_diagonal(a, False)
    points = [str(decode_point(point, q, 3)) for point in range(q3)]
    labels = [f"{point}@{i}" for i in range(n * n) for point in points]
    g = TlsGraph._adopt(np.packbits(a, axis=1), labels)
    g.q, g.n_sym, g.goa, g.pcs = q, n, goa, pcs
    return g


@dataclass(frozen=True)
class TlsStructure:
    """Decomposition of N(u) for a TLS vertex u = (x, m).

    a_sets maps unordered class pairs {i, j} to A_ij, b_sets and c_sets
    map classes to B_i and C_i, r is the remainder of the fiber.
    """

    vertex: int
    a_sets: dict
    b_sets: dict
    c_sets: dict
    r: tuple[int, ...]

    @property
    def a_union(self) -> tuple[int, ...]:
        return tuple(sorted(v for s in self.a_sets.values() for v in s))

    @property
    def b_union(self) -> tuple[int, ...]:
        return tuple(sorted(v for s in self.b_sets.values() for v in s))

    @property
    def c_union(self) -> tuple[int, ...]:
        return tuple(sorted(v for s in self.c_sets.values() for v in s))

    def all_parts(self):
        return list(self.a_sets.values()) + list(self.b_sets.values()) + list(
            self.c_sets.values()
        ) + [self.r]


def tls_structure(g: Graph, u: int) -> TlsStructure:
    """Split N(u) into the A_ij / B_i / C_i / R index sets."""
    if not isinstance(g, TlsGraph):
        raise NotATlsGraph("graph does not carry TLS construction metadata")
    q = g.q
    x, m = g.vertex_of(u)
    t_of = [g.pcs.plane_index_of(s, x) for s in range(q + 1)]
    plane_copies = [set(g.plane_copy(s, t_of[s], m)) for s in range(q + 1)]
    a_sets = {}
    for i in range(q + 1):
        for j in range(i + 1, q + 1):
            a_sets[(i, j)] = tuple(sorted((plane_copies[i] & plane_copies[j]) - {u}))
    b_sets = {}
    for i in range(q + 1):
        others = set()
        for j in range(q + 1):
            if j != i:
                others |= plane_copies[j]
        b_sets[i] = tuple(sorted(plane_copies[i] - others))
    c_sets = {}
    for i in range(q + 1):
        sym = int(g.goa.row(i, t_of[i])[m])
        clique = set(g.clique(i, t_of[i], sym))
        c_sets[i] = tuple(sorted(clique - plane_copies[i]))
    fiber = set(g.fiber(m))
    union = set()
    for s in plane_copies:
        union |= s
    r = tuple(sorted(fiber - union))
    return TlsStructure(u, a_sets, b_sets, c_sets, r)


def h_graph(d: Design) -> Graph:
    """Block graph plus all edges inside each resolution class."""
    if d.resolution is None:
        raise NotResolvable("design carries no resolution")
    return Graph._adopt(_block_bits(d, d.resolution))


def spread_modified(g: Graph, parts, mode: str) -> Graph:
    """Remove (or add) all edges inside each part of a vertex partition.

    mode="remove" needs every part to be a clique, mode="add" a co-clique.
    """
    if mode not in ("remove", "add"):
        raise ValueError(f"mode must be 'remove' or 'add', not {mode!r}")
    parts = check_parts(parts, g.n)
    bits = g.bits.copy()
    for pidx, part in enumerate(parts):
        idx = np.asarray(part, dtype=np.intp)
        rows = g.rows(idx)
        if mode == "remove":
            if not (rows[:, idx] | np.eye(len(part), dtype=bool)).all():
                raise PartNotClique(f"part {pidx} is not a clique")
        elif rows[:, idx].any():
            raise PartNotCoclique(f"part {pidx} is not a co-clique")
        rows[:, idx] = mode == "add"
        rows[np.arange(len(idx)), idx] = False
        bits[idx] = np.packbits(rows, axis=1)
    return Graph._adopt(bits, g.labels)


def tls_metadata(g: TlsGraph) -> dict:
    """Sidecar description of the cliques, fibers, and plane copies."""
    planes = {}
    for s in range(g.q + 1):
        for t in range(g.q):
            planes[f"{s},{t}"] = g.pcs.classes[s, t].tolist()
    return {
        "family": "tls",
        "q": g.q,
        "n": g.n_sym,
        "cliques": [list(c) for _, c in g.all_cliques()],
        "fibers": [list(g.fiber(i)) for i in range(g.n_sym**2)],
        "planes": planes,
    }


def write_tls_metadata(g: TlsGraph, path) -> None:
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, json.dump the pure-Python one
        fh.write(json.dumps(tls_metadata(g)))
