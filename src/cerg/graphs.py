"""Immutable simple graphs on a dense adjacency bitset.

Each vertex row is one Python integer whose bit j is set iff j is a
neighbour; row intersections and neighbourhood sizes are then single
bit-operations on machine words.  For matrix work the adjacency is
exported once to a cached numpy int64 array, and `regularity.powers`
caches its exact powers on the graph as well.
"""

from __future__ import annotations

import json

import numpy as np

MAX_VERTICES = 20000


class VertexOutOfRange(IndexError):
    pass


class MalformedGraph6(ValueError):
    """Bad graph6 bytes; .offset is the first offending byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


class Graph:
    """Loop-free undirected graph; immutable after construction."""

    __slots__ = ("n", "_rows", "labels", "_matrix", "_powers")

    def __init__(self, n: int, rows, labels=None):
        if n < 0 or n > MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside [0, {MAX_VERTICES}]")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("row count differs from vertex count")
        mask = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~mask:
                raise ValueError(f"row {v} has bits beyond vertex range")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(rows):
            for u in _bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        self.n = n
        self._rows = rows
        self.labels = tuple(labels) if labels is not None else None
        self._matrix = None
        self._powers = None

    # -- constructors

    @classmethod
    def from_edges(cls, n: int, edges, labels=None) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge ({u}, {v}) outside [0, {n})")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows, labels)

    @classmethod
    def from_adjacency(cls, a, labels=None) -> "Graph":
        a = np.asarray(a)
        n = a.shape[0]
        rows = [
            int.from_bytes(
                np.packbits(a[v] != 0, bitorder="little").tobytes(), "little"
            )
            for v in range(n)
        ]
        return cls(n, rows, labels)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls(n, [0] * n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        full = (1 << n) - 1
        return cls(n, [full ^ (1 << v) for v in range(n)])

    # -- queries

    def row(self, v: int) -> int:
        return self._rows[v]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [r.bit_count() for r in self._rows]

    def neighbors(self, v: int):
        return _bits(self._rows[v])

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def edges(self):
        for u in range(self.n):
            for v in _bits(self._rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def is_regular(self) -> tuple[bool, int | None]:
        degs = self.degrees()
        if not degs:
            return True, 0
        k = degs[0]
        if all(d == k for d in degs):
            return True, k
        return False, None

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for v in _bits(frontier):
                nxt |= self._rows[v]
            frontier = nxt & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense int64 adjacency; cached, returned read-only."""
        if self._matrix is None:
            nbytes = (self.n + 7) // 8
            raw = b"".join(r.to_bytes(nbytes, "little") for r in self._rows)
            bits = np.unpackbits(
                np.frombuffer(raw, dtype=np.uint8).reshape(self.n, nbytes),
                axis=1,
                bitorder="little",
            )[:, : self.n]
            m = bits.astype(np.int64)
            m.flags.writeable = False
            self._matrix = m
        return self._matrix

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.n, self._rows))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- transforms


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, [full ^ g.row(v) ^ (1 << v) for v in range(g.n)], g.labels)


def clique_extension(g: Graph, s: int) -> Graph:
    """Blow each vertex into an s-clique, joining cliques of adjacent bases.

    Vertex (x, i) gets index x*s + i, so the s clones of a base vertex
    are contiguous.
    """
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    n = g.n * s
    clone_mask = (1 << s) - 1
    base_rows = []
    for x in range(g.n):
        row = clone_mask << (x * s)
        for y in g.neighbors(x):
            row |= clone_mask << (y * s)
        base_rows.append(row)
    rows = []
    for x in range(g.n):
        for i in range(s):
            rows.append(base_rows[x] ^ (1 << (x * s + i)))
    return Graph(n, rows)


def local_graph(g: Graph, x: int) -> Graph:
    """Induced subgraph on N(x), vertices in original index order."""
    if not 0 <= x < g.n:
        raise VertexOutOfRange(f"vertex {x} outside [0, {g.n})")
    verts = list(_bits(g.row(x)))
    pos = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in _bits(g.row(v) & g.row(x)):
            rows[i] |= 1 << pos[u]
    labels = [g.labels[v] for v in verts] if g.labels else None
    return Graph(len(verts), rows, labels)


# -- graph6 serialization (formats.txt: 6-bit groups, upper triangle packed
#    column by column, each byte offset by 63)


def graph6_bytes(g: Graph) -> bytes:
    out = bytearray()
    n = g.n
    if n <= 62:
        out.append(n + 63)
    elif n <= 258047:
        out.append(126)
        out.append(((n >> 12) & 63) + 63)
        out.append(((n >> 6) & 63) + 63)
        out.append((n & 63) + 63)
    else:
        raise ValueError("graph too large for the supported graph6 sizes")
    acc = 0
    nbits = 0
    for j in range(1, n):
        col = g.row(j)
        for i in range(j):
            acc = (acc << 1) | (col >> i & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return bytes(out)


def from_graph6_bytes(data: bytes) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    data = data.rstrip(b"\r\n")
    if not data:
        raise MalformedGraph6("empty graph6 data", 0)
    for off, byte in enumerate(data):
        if not 63 <= byte <= 126:
            raise MalformedGraph6(f"byte {byte} outside graph6 range", off)
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
    rows = [0] * n
    cur_i, cur_j = 0, 1
    bit_idx = 0
    for off in range(pos, len(data)):
        group = data[off] - 63
        for b in range(5, -1, -1):
            if bit_idx >= nbits:
                if group >> b & 1:
                    raise MalformedGraph6("nonzero padding bits", off)
                continue
            if group >> b & 1:
                rows[cur_i] |= 1 << cur_j
                rows[cur_j] |= 1 << cur_i
            bit_idx += 1
            cur_i += 1
            if cur_i == cur_j:
                cur_i, cur_j = 0, cur_j + 1
    return Graph(n, rows)


def write_graph6(g: Graph, path) -> None:
    with open(path, "wb") as fh:
        fh.write(graph6_bytes(g) + b"\n")


def read_graph6(path) -> Graph:
    with open(path, "rb") as fh:
        return from_graph6_bytes(fh.readline())


def write_labels(g: Graph, path) -> None:
    with open(path, "w") as fh:
        json.dump({"labels": list(g.labels or [])}, fh)
