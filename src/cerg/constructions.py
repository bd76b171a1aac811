"""The named graph families: Latin Square graphs, twisted Latin Square
graphs, spread/coloring edge modifications, and the block-graph-plus-
resolution construction.

A twisted Latin Square graph TLS(q, n) lives on F_q^3 x [n^2]; vertex
(x, i) gets index i*q^3 + enc(x) (fiber-major).  Two distinct vertices
(x, i), (y, j) are adjacent iff i = j, or some plane of the parallel
class system contains both x and y while its group row carries the same
symbol at positions i and j.  The graph keeps its construction data so
the clique/fiber/plane decomposition stays addressable.  Each builder
fills its packed rows from its cliques (`geometry._clique_bits`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .arrays import GroupDivisibleArray, OrthogonalArray, goa_from_oa, oa_macneish, validate_array
from .geometry import Design, _clique_bits, _pencils, decode_point, parallel_classes
from .graphs import Graph, PartitionInvalid, _check_order, _frozen, check_parts


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
    labels = [f"col{c}" for c in range(n2)]
    return Graph._adopt(_clique_bits(n2, [_symbol_cliques(oa.cells[:m], oa.n)]), labels)


def _symbol_cliques(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The columns where row i shows symbol s, clique i*n + s, as a clique
    family (`geometry._clique_bits`).  An array's rows show each symbol n
    times; in rows of no array a smaller clique repeats its last column."""
    of = (rows + n * np.arange(len(rows))[:, None]).T  # column, row
    counts = np.bincount(of.ravel(), minlength=len(rows) * n)
    order = np.argsort(of, axis=None, kind="stable") // len(rows)  # columns, clique by clique
    ends = np.cumsum(counts)[:, None]
    at = ends - counts[:, None] + np.arange(counts.max(initial=0))
    return order[np.minimum(at, ends - 1)], of


class TlsGraph(Graph):
    """A TLS(q, n) graph with its construction data, as `tls` builds it:
    ``members`` holds clique (s, t, sym) in row (s*q + t)*n + sym."""

    __slots__ = ("q", "n_sym", "goa", "pcs", "plane_of", "members")

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
        return tuple(self.members.reshape(self.q + 1, self.q, self.n_sym, -1)[s, t, sym].tolist())

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

    q3, n2 = q**3, n * n
    # clique (s, t, sym): plane t of class s in the fibers where group row
    # (s, t), GOA row s*q + t, shows sym: n of them, as the GOA check ensures
    fibers, clique_of = _symbol_cliques(goa.cells, n)
    assert fibers.shape == (len(goa.cells) * n, n)
    planes = pcs.classes.reshape(-1, q * q)[np.arange(len(fibers)) // n]
    members = (fibers[:, :, None] * q3 + planes[:, None]).reshape(len(fibers), -1)
    # vertex (x, i) lies on fiber i and, in class s, on the clique of x's plane
    plane_of = pcs.plane_of()
    of = clique_of[:, np.arange(q + 1) * q + plane_of.T].reshape(n2 * q3, q + 1)
    fiber_family = np.arange(n2 * q3).reshape(n2, q3), np.arange(n2).repeat(q3)[:, None]
    bits = _clique_bits(n2 * q3, [fiber_family, (members, of)])
    points = [str(decode_point(point, q, 3)) for point in range(q3)]
    labels = [f"{point}@{i}" for i in range(n2) for point in points]
    g = TlsGraph._adopt(bits, labels)
    g.q, g.n_sym, g.goa, g.pcs = q, n, goa, pcs
    g.plane_of, g.members = _frozen(plane_of), _frozen(members)
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
    x, m = g.vertex_of(u)
    t_of = g.plane_of[:, x].tolist()
    copies = [set(g.plane_copy(s, t, m)) for s, t in enumerate(t_of)]
    a_sets = {(i, j): tuple(sorted((copies[i] & copies[j]) - {u}))
              for i, j in combinations(range(g.q + 1), 2)}
    b_sets = {i: tuple(sorted(c.difference(*copies[:i], *copies[i + 1 :])))
              for i, c in enumerate(copies)}
    c_sets = {i: tuple(sorted(set(g.clique(i, t, int(g.goa.row(i, t)[m]))) - copies[i]))
              for i, t in enumerate(t_of)}
    r = tuple(sorted(set(g.fiber(m)).difference(*copies)))
    return TlsStructure(u, a_sets, b_sets, c_sets, r)


def h_graph(d: Design) -> Graph:
    """Block graph plus all edges inside each resolution class."""
    if d.resolution is None:
        raise NotResolvable("design carries no resolution")
    pencils, class_of = _pencils(d), np.empty((d.b, 1), dtype=np.intp)
    class_of[d.resolution] = np.arange(len(d.resolution))[:, None, None]
    return Graph._adopt(_clique_bits(d.b, [pencils, (d.resolution, class_of)]))


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
    classes = g.pcs.classes.tolist()
    planes = {f"{s},{t}": classes[s][t] for s in range(g.q + 1) for t in range(g.q)}
    return {
        "family": "tls",
        "q": g.q,
        "n": g.n_sym,
        "cliques": g.members.tolist(),
        "fibers": [list(g.fiber(i)) for i in range(g.n_sym**2)],
        "planes": planes,
    }


def write_tls_metadata(g: TlsGraph, path) -> None:
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, json.dump the pure-Python one
        fh.write(json.dumps(tls_metadata(g)))
