"""Immutable simple graphs on read-only bit-packed adjacency rows.

A `Graph` stores its adjacency matrix A as packed rows and nothing else:
``bits`` is the n x ceil(n/8) ``uint8`` array that
``np.packbits(A, axis=1)`` gives (big bit order, zero padding bits),
n^2/8 bytes, checked once on construction (loop-free, symmetric) and
then frozen.  `Graph.rows` unpacks a block of rows into a fresh boolean
array, and every layer reads A that way (`_unpack`): queries, transforms,
constructions and the graph6 codec work on packed rows or on one small
block of unpacked rows at a time: no builder makes an n x n boolean
matrix, and none outlives a call.  `adjacency_matrix` exports a fresh
int64 copy for integer arithmetic, and `regularity.powers` caches the
exact powers of A on the graph.  Every degree fact (regularity, k, the
edge count, tr A^2, the largest degree) reads one read-only degree
vector, a popcount of the packed rows a block at a time, made on first
use and kept on the graph, as a `geometry.Design` keeps its incidences
read-only, sorted by point once.  `Graph(a)` packs any square
array-like; every builder in the package hands over the fresh packed
rows it made, uncopied (`Graph._adopt`); graph6 is written a block of
rows at a time.
"""

from __future__ import annotations

import json
from math import isqrt

import numpy as np

MAX_VERTICES = 20000

# entries of the unpacked block a loop over row or column blocks holds
_BLOCK_ENTRIES = 2**15

# set bits of each byte value: the degrees are a table lookup over the
# packed rows (np.bitwise_count needs NumPy 2)
_POPCOUNT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)


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


def _unpack(bits: np.ndarray, n: int) -> np.ndarray:
    """Packed rows of an n-column boolean matrix as a fresh boolean block."""
    return np.unpackbits(bits, axis=-1, count=n).view(bool)


def _packed_zeros(n: int) -> np.ndarray:
    return np.zeros((n, -(-n // 8)), dtype=np.uint8)


def _bit(v: np.ndarray) -> np.ndarray:
    """The mask of column v within its byte, byte v >> 3 of a packed row."""
    return np.uint8(0x80) >> (v & 7).astype(np.uint8)


def _clear_diagonal(bits: np.ndarray) -> None:
    v = np.arange(len(bits))
    bits[v, v >> 3] &= ~_bit(v)


def _blocks(n: int, across: int | None = None):
    """Consecutive slices of range(n), each a multiple of 8 long (but the
    last) and of about _BLOCK_ENTRIES / across elements (across = n by
    default): a block of rows, or of columns that starts on a byte of
    the packed rows."""
    step = 8 * max(1, _BLOCK_ENTRIES // 8 // max(n if across is None else across, 1))
    for i in range(0, n, step):
        yield slice(i, min(i + step, n))


def _tiles(n: int):
    """Pairs (I, J), J <= I, of the square blocks of side about
    sqrt(_BLOCK_ENTRIES) on and below the diagonal."""
    blocks = list(_blocks(n, isqrt(_BLOCK_ENTRIES)))
    for k, i in enumerate(blocks):
        for j in blocks[: k + 1]:
            yield i, j


def _tile(bits: np.ndarray, i: slice, j: slice) -> np.ndarray:
    """A[i, j], unpacked, for a block of columns j that starts on a byte."""
    return _unpack(bits[i, j.start // 8 : -(-j.stop // 8)], j.stop - j.start)


def _first_asymmetry(bits: np.ndarray) -> tuple[int, int] | None:
    """The first (v, u) in row-major order with A[v, u] set and A[u, v]
    not, or None.  Each square tile is checked against its mirror; only
    on a mismatch are blocks of rows scanned, each against the same
    block of columns, for the first witness."""
    if all(np.array_equal(_tile(bits, i, j), _tile(bits, j, i).T) for i, j in _tiles(len(bits))):
        return None
    n = len(bits)
    for b in _blocks(n):
        bad = _unpack(bits[b], n) > _tile(bits, slice(0, n), b).T
        if bad.any():
            v, u = divmod(int(bad.argmax()), n)
            return b.start + v, u


class Graph:
    """Loop-free undirected graph; immutable after construction.

    ``a`` may be any square array-like; every nonzero entry is an edge.
    """

    __slots__ = ("n", "bits", "labels", "_powers", "_degrees")

    def __init__(self, a, labels=None):
        a = np.asarray(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency matrix must be square, not of shape {a.shape}")
        _check_order(a.shape[0])
        self._keep(np.packbits(a.astype(bool, copy=False), axis=1), labels)

    @classmethod
    def _adopt(cls, bits: np.ndarray, labels=None) -> "Graph":
        """A graph on ``bits`` itself, packed rows that its caller made
        and lets go: checked as `Graph(a)` checks them, but not copied."""
        return cls.__new__(cls)._keep(bits, labels)

    def _keep(self, bits: np.ndarray, labels=None) -> "Graph":
        """Check the packed rows ``bits`` of a square boolean matrix and
        keep them, read-only, as the graph's own, with no copy."""
        v = np.arange(len(bits))
        loops = np.flatnonzero(bits[v, v >> 3] & _bit(v))
        if loops.size:
            raise ValueError(f"loop at vertex {loops[0]}")
        asymmetry = _first_asymmetry(bits)
        if asymmetry is not None:
            raise ValueError(f"adjacency not symmetric at {asymmetry}")
        self.n = len(bits)
        self.bits = _frozen(bits)
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
        u, v = np.concatenate([e, e[:, ::-1]]).T
        bits = _packed_zeros(n)
        np.bitwise_or.at(bits, (u, v >> 3), _bit(v))
        return cls._adopt(bits, labels)

    @classmethod
    def empty(cls, n: int) -> "Graph":
        _check_order(n)
        return cls._adopt(_packed_zeros(n))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return complement(cls.empty(n))

    # -- queries

    def rows(self, index) -> np.ndarray:
        """Rows ``index`` (an int, a slice or an index array) of A,
        unpacked: a fresh boolean block."""
        return _unpack(self.bits[index], self.n)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows(u)[v])

    def degree(self, v: int) -> int:
        return int(np.count_nonzero(self.rows(v)))

    @property
    def degree_vector(self) -> np.ndarray:
        """The degrees, read-only: one popcount of the packed rows, made
        on first use."""
        if self._degrees is None:
            degrees = np.empty(self.n, dtype=np.int64)
            for b in _blocks(self.n):  # no lookup of all n^2/8 bytes at once
                degrees[b] = _POPCOUNT[self.bits[b]].sum(axis=1)
            self._degrees = _frozen(degrees)
        return self._degrees

    def degrees(self) -> list[int]:
        return self.degree_vector.tolist()

    def neighbors(self, v: int) -> list[int]:
        return np.flatnonzero(self.rows(v)).tolist()

    def edge_count(self) -> int:
        return int(self.degree_vector.sum()) // 2

    def edges(self) -> list[tuple[int, int]]:
        """Every edge (u, v) with u < v, in row-major order."""
        out = []
        for b in _blocks(self.n):
            upper = np.triu(self.rows(b), b.start + 1)
            out += [(b.start + u, v) for u, v in np.argwhere(upper).tolist()]
        return out

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
            reached = np.bitwise_or.reduce(self.bits[frontier], axis=0)
            frontier = _unpack(reached, self.n) & ~seen
            seen |= frontier
        return bool(seen.all())

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """Dense int64 adjacency, a fresh read-only copy."""
        return _frozen(self.rows(slice(None)).astype(np.int64))

    def __eq__(self, other):
        return isinstance(other, Graph) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


# -- transforms


def complement(g: Graph) -> Graph:
    bits = ~g.bits
    if g.n % 8:
        bits[:, -1] &= (0xFF00 >> (g.n % 8)) & 0xFF  # the padding bits stay zero
    _clear_diagonal(bits)
    return Graph._adopt(bits, g.labels)


def clique_extension(g: Graph, s: int) -> Graph:
    """Blow each vertex into an s-clique, joining cliques of adjacent bases.

    Vertex (x, i) gets index x*s + i, so the s clones of a base vertex
    are contiguous and the adjacency is (A + I) (x) J_s - I: row x*s + i
    is row x of A + I with each column repeated s times.
    """
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    _check_order(g.n * s)
    bits = _packed_zeros(g.n * s)
    for b in _blocks(g.n):
        base = g.rows(b)
        base[np.arange(b.stop - b.start), np.arange(b.start, b.stop)] = True
        packed = np.packbits(np.repeat(base, s, axis=1), axis=1)
        bits[b.start * s : b.stop * s] = np.repeat(packed, s, axis=0)
    _clear_diagonal(bits)
    return Graph._adopt(bits)


def local_graph(g: Graph, x: int) -> Graph:
    """Induced subgraph on N(x), vertices in original index order."""
    if not 0 <= x < g.n:
        raise VertexOutOfRange(f"vertex {x} outside [0, {g.n})")
    verts = np.flatnonzero(g.rows(x))
    labels = [g.labels[v] for v in verts] if g.labels else None
    return Graph._adopt(np.packbits(g.rows(verts)[:, verts], axis=1), labels)


# -- graph6 serialization (formats.txt: 6-bit groups, upper triangle packed
#    column by column, each byte offset by 63).  Column j of the upper
#    triangle is row j of the strict lower triangle, so the bits are the
#    row slices a[j, :j] in turn, for j = 1..n-1.


def _lower(b: slice, width: int) -> np.ndarray:
    """The strict lower triangle's entries among rows ``b`` and columns
    below ``width``, as a mask of that block."""
    return np.tri(b.stop - b.start, width, b.start - 1, dtype=bool)


def _groups(bits: np.ndarray) -> bytes:
    """graph6 bytes of a bit string whose length is a multiple of 6: each
    6 bits padded to a byte, then packed as one string."""
    padded = np.zeros((len(bits) // 6, 8), dtype=bool)
    padded[:, 2:] = bits.reshape(-1, 6)
    return (np.packbits(padded) + 63).tobytes()


def _graph6_chunks(g: Graph):
    """The graph6 bytes of g, no newline, in pieces of a block of rows."""
    n = g.n
    if n <= 62:
        head = [n]
    elif n <= 258047:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise ValueError("graph too large for the supported graph6 sizes")
    # the pairs i < j column by column: row j of A up to the diagonal, a
    # block of rows at a time; a block's last bits short of a group wait
    yield bytes(v + 63 for v in head)
    carry = np.zeros(0, dtype=bool)
    for b in _blocks(n):
        bits = np.concatenate([carry, g.rows(b)[:, : b.stop][_lower(b, b.stop)]])
        cut = len(bits) - len(bits) % 6
        yield _groups(bits[:cut])
        carry = bits[cut:]
    yield _groups(np.concatenate([carry, np.zeros(-len(carry) % 6, dtype=bool)]))


def graph6_bytes(g: Graph) -> bytes:
    return b"".join(_graph6_chunks(g))


def from_graph6_bytes(data: bytes) -> Graph:
    if isinstance(data, str):
        data = data.encode("ascii")
    buf = np.frombuffer(data, dtype=np.uint8)
    end = len(buf)
    while end and buf[end - 1] in (10, 13):  # a line's \n or \r\n, not copied
        end -= 1
    buf = buf[:end]
    if not end:
        raise MalformedGraph6("empty graph6 data", 0)
    if buf.min() < 63 or buf.max() > 126:
        off = int(np.argmax((buf < 63) | (buf > 126)))
        raise MalformedGraph6(f"byte {buf[off]} outside graph6 range", off)
    head = buf[:8].astype(int) - 63
    if head[0] != 63:
        n, pos = head[0], 1
    elif end >= 2 and head[1] != 63:
        if end < 4:
            raise MalformedGraph6("truncated size field", end)
        n, pos = (head[1] << 12) | (head[2] << 6) | head[3], 4
    else:
        if end < 8:
            raise MalformedGraph6("truncated size field", end)
        n = 0
        for v in head[2:8]:
            n = (n << 6) | v
        pos = 8
    n = int(n)
    if n > MAX_VERTICES:
        raise MalformedGraph6(f"vertex count {n} exceeds ceiling {MAX_VERTICES}", 0)
    nbits = n * (n - 1) // 2
    expect = pos + (nbits + 5) // 6
    if end != expect:
        raise MalformedGraph6(f"expected {expect} bytes for n={n}, got {end}", min(end, expect))
    pad = -nbits % 6  # the last group's low bits
    if (buf[-1] - 63) & ((1 << pad) - 1):
        raise MalformedGraph6("nonzero padding bits", end - 1)
    bits = _packed_zeros(n)
    for b in _blocks(n):  # bits r(r-1)/2 on are row r of A up to the diagonal
        i, j = b.start, b.stop
        lo, hi = i * (i - 1) // 2, j * (j - 1) // 2  # the block's bits, rows i..j-1
        groups = buf[pos + lo // 6 : pos - (-hi // 6)] - 63
        stream = np.unpackbits(groups).reshape(-1, 8)[:, 2:].ravel()[lo % 6 :]
        block = np.zeros((j - i, j), dtype=bool)
        block[_lower(b, j)] = stream[: hi - lo]  # row-major order
        bits[b, : -(-j // 8)] = np.packbits(block, axis=1)
    # the upper triangle is the lower one transposed, a square tile at a time
    for i, j in _tiles(n):
        bits[j, i.start // 8 : -(-i.stop // 8)] |= np.packbits(_tile(bits, i, j).T, axis=1)
    return Graph._adopt(bits)


def write_graph6(g: Graph, path) -> None:
    with open(path, "wb") as fh:  # one block's bytes at a time
        fh.writelines(_graph6_chunks(g))
        fh.write(b"\n")


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
