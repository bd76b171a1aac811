"""Immutable simple graphs on a read-only boolean adjacency matrix.

A `Graph` stores one n x n numpy ``bool`` matrix, checked once on
construction (square, loop-free, symmetric) and then frozen.  Queries,
transforms, constructions and the graph6 codec are whole-array numpy
operations on it; `adjacency_matrix` exports a fresh int64 copy for
integer arithmetic, and `regularity.powers` caches the exact powers of
the boolean matrix on the graph.  Every degree fact (regularity, k, the
edge count, tr A^2, the largest degree) reads one read-only degree
vector, one row sum of A made on first use and kept on the graph, as a
`geometry.Design` keeps its incidences read-only, sorted by point once.
`Graph(a)` keeps a boolean copy of ``a``; every builder in the package
hands over the fresh matrix it made, uncopied (`Graph._adopt`).
"""

from __future__ import annotations

import json

import numpy as np

MAX_VERTICES = 20000


class CheckFailed(ValueError):
    """A check ran and the graph, or the claim about it, failed: the CLI
    exits 1.  Defined here, the lightest module, so that catching it
    loads no checker."""


class PartitionInvalid(ValueError):
    """Parts that do not partition the vertex set."""


class VertexOutOfRange(IndexError, ValueError):
    """A vertex index outside [0, n); a ValueError too, so the CLI maps
    it to a usage error."""


class MalformedGraph6(ValueError):
    """Bad graph6 bytes; .offset is the first offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _frozen(m: np.ndarray) -> np.ndarray:
    m.flags.writeable = False
    return m


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")


def _is_int(v) -> bool:
    """Whether v is a Python or NumPy integer: a bool, a float or a string is not."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_parts(parts, n: int) -> list[list]:
    """The parts as lists, refused unless every member is an integer (a
    bool or a float is not one) and together they partition range(n)."""
    parts = [list(p) for p in parts]
    strays = [v for p in parts for v in p if not _is_int(v)]
    if strays:
        raise PartitionInvalid(f"part member {strays[0]!r} is not an integer")
    if sorted(v for p in parts for v in p) != list(range(n)):
        raise PartitionInvalid("parts do not partition the vertex set")
    return parts


def _tiles(n: int, size: int = 1024):
    """Slice pairs (I, J) of the square blocks on and above the diagonal;
    a[I, J] against a[J, I].T reads the transpose one cached block at a
    time, several times faster than whole-matrix a.T at n in the
    thousands."""
    for i in range(0, n, size):
        for j in range(i, n, size):
            yield slice(i, i + size), slice(j, j + size)


class Graph:
    """Loop-free undirected graph; immutable after construction.

    ``a`` may be any square array-like; every nonzero entry is an edge.
    """

    __slots__ = ("n", "a", "labels", "_powers", "_degrees")

    def __init__(self, a, labels=None):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, not of shape {a.shape}")
        _check_order(a.shape[0])
        self._keep(a.astype(bool), labels)

    @classmethod
    def _adopt(cls, a: np.ndarray, labels=None) -> "Graph":
        """A graph on ``a`` itself, a square boolean matrix that its caller
        made and lets go: checked as `Graph(a)` checks it, but not copied."""
        return cls.__new__(cls)._keep(a, labels)

    def _keep(self, a: np.ndarray, labels=None) -> "Graph":
        """Check the square boolean matrix ``a`` and keep it, read-only,
        as the graph's own matrix, with no copy."""
        loops = np.flatnonzero(a.diagonal())
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        if not all(np.array_equal(a[i, j], a[j, i].T) for i, j in _tiles(len(a))):
            v, u = np.argwhere(a & ~a.T)[0]
            raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        self.n = a.shape[0]
        self.a = _frozen(a)
        self.labels = tuple(labels) if labels is not None else None
        self._powers = None
        self._degrees = None
        return self

    # -- constructors

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        """Refuses an endpoint unless it is an integer (`_is_int`) in [0, n)."""
        _check_order(n)
        e = list(edges)
        for u, v in e:
            ints = _is_int(u) and _is_int(v)
            if ints and u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (ints and 0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
        e = np.array(e, dtype=np.int64).reshape(-1, 2)
        a = np.zeros((n, n), dtype=bool)
        a[e[:, 0], e[:, 1]] = a[e[:, 1], e[:, 0]] = True
        return cls._adopt(a, labels)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_order(n)
        return cls._adopt(np.zeros((n, n), dtype=bool))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        _check_order(n)
        return cls._adopt(~np.eye(n, dtype=bool))

    # -- queries

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.a[u, v])

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.a[v]))

    @property
    def degree_vector(self) -> np.ndarray:
        """The degrees, read-only: one row sum of A, made on first use."""
        if self._degrees is None:
            self._degrees = _frozen(self.a.sum(axis=1))
        return self._degrees

    def degrees(self) -> list[int]:
        return self.degree_vector.tolist()

    def neighbors(self, v: int) -> list[int]:
        return np.flatnonzero(self.a[v]).tolist()

    def edge_count(self) -> int:
        return int(self.degree_vector.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, in row-major order."""
        return [(u, v) for u, v in np.argwhere(np.triu(self.a)).tolist()]

    def is_regular(self) -> tuple[bool, int | None]:
        k = int(self.degree_vector.max(initial=0))
        return (True, k) if (self.degree_vector == k).all() else (False, None)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = np.zeros(self.n, dtype=bool)
        seen[0] = True
        frontier = seen.copy()
        while frontier.any():
            frontier = self.a[frontier].any(axis=0) & ~seen
            seen |= frontier
        return bool(seen.all())

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense int64 adjacency, a fresh read-only copy."""
        return _frozen(self.a.astype(np.int64))

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.a, other.a)

    def __hash__(self):
        return hash(self.a.tobytes())

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- transforms


def complement(g: Graph) -> Graph:
    a = ~g.a
    np.fill_diagonal(a, False)
    return Graph._adopt(a, g.labels)


def clique_extension(g: Graph, s: int) -> Graph:
    """Blow each vertex into an s-clique, joining cliques of adjacent bases.

    Vertex (x, i) gets index x*s + i, so the s clones of a base vertex
    are contiguous and the adjacency is (A + I) (x) J_s - I.
    """
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    _check_order(g.n * s)
    a = np.kron(g.a | np.eye(g.n, dtype=bool), np.ones((s, s), dtype=bool))
    np.fill_diagonal(a, False)
    return Graph._adopt(a)


def local_graph(g: Graph, x: int) -> Graph:
    """Induced subgraph on N(x), vertices in original index order."""
    if not 0 <= x < g.n:
        raise VertexOutOfRange(f"vertex {x} outside [0, {g.n})")
    verts = np.flatnonzero(g.a[x])
    labels = [g.labels[v] for v in verts] if g.labels else None
    return Graph._adopt(g.a[np.ix_(verts, verts)], labels)


# -- graph6 serialization (formats.txt: 6-bit groups, upper triangle packed
#    column by column, each byte offset by 63).  Column j of the upper
#    triangle is row j of the strict lower triangle, so the bits are the
#    row slices a[j, :j] in turn, for j = 1..n-1.


def graph6_bytes(g: Graph) -> bytes:
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph too large for the supported graph6 sizes")
    # the pairs i < j column by column: row j of A up to the diagonal
    pad = np.zeros(-(n * (n - 1) // 2) % 6, dtype=bool)
    bits = np.concatenate([*(g.a[j, :j] for j in range(1, n)), pad])
    groups = np.packbits(bits.reshape(-1, 6), axis=1)[:, 0] >> 2
    return bytes(v + 63 for v in head) + (groups + 63).tobytes()


def from_graph6_bytes(data: bytes) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\r\n")
    if not data:
        raise MalformedGraph6("empty graph6 data", 0)
    buf = np.frombuffer(data, dtype=np.uint8)
    bad = (buf < 63) | (buf > 126)
    if bad.any():
        off = int(np.argmax(bad))
        raise MalformedGraph6(f"byte {data[off]} outside graph6 range", off)
    pos = 0
    if data[0] != 126:
        n = data[0] - 63
        pos = 1
    elif len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise MalformedGraph6("truncated size field", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        if len(data) < 8:
            raise MalformedGraph6("truncated size field", len(data))
        n = 0
        for i in range(2, 8):
            n = (n << 6) | (data[i] - 63)
        pos = 8
    if n > MAX_VERTICES:
        raise MalformedGraph6(f"vertex count {n} exceeds ceiling {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    expect = pos + (nbits + 5) // 6
    if len(data) != expect:
        raise MalformedGraph6(
            f"expected {expect} bytes for n={n}, got {len(data)}",
            min(len(data), expect),
        )
    pad = -nbits % 6  # the last group's low bits
    if (data[-1] - 63) & ((1 << pad) - 1):
        raise MalformedGraph6("nonzero padding bits", len(data) - 1)
    a = np.zeros((n, n), dtype=bool)
    step = max(1, 2**17 // max(n, 1))  # rows a block: its bits, unpacked, stay small
    for i in range(1, n, step):  # bits r(r-1)/2 on are row r of A up to the diagonal
        j = min(i + step, n)
        lo, hi = i * (i - 1) // 2, j * (j - 1) // 2  # the block's bits, rows i..j-1
        groups = buf[pos + lo // 6 : pos - (-hi // 6)] - 63
        bits = np.unpackbits(groups).reshape(-1, 8)[:, 2:].ravel()[lo % 6 :]
        a[i:j, :j][np.tri(j - i, j, i - 1, dtype=bool)] = bits[: hi - lo]  # row-major order
    for i, j in _tiles(n):
        a[i, j] |= a[j, i].T
    return Graph._adopt(a)


def write_graph6(g: Graph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(graph6_bytes(g) + b"\n")


def read_graph6(path) -> Graph:
    """The single graph of a graph6 file; any byte after its first line
    is rejected."""
    with open(path, "rb") as fh:
        line = fh.readline()
        if fh.read(1):
            raise MalformedGraph6("data after the first graph", len(line))
    return from_graph6_bytes(line)


def write_labels(g: Graph, path) -> None:
    with open(path, "w") as fh:
        # json.dumps runs the C encoder, json.dump the pure-Python one
        fh.write(json.dumps({"labels": list(g.labels or [])}))
