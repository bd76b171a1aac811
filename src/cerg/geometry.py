"""Parallel plane classes in F_q^3, resolvable designs, block graphs, and
the one fill of every graph whose rows are unions of cliques, a block of
rows at a time (`_clique_bits`), so no builder holds an n x n matrix.

Points of F_q^d are encoded coordinate-major in base q (first coordinate
most significant), using the canonical field order, so every derived
vertex labelling is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .field import FieldSpec, field, field_order
from .graphs import MAX_VERTICES, Graph, _check_order, _frozen, _packed_zeros

PARALLEL_CLASS_MAX_Q = 16


class OddOrder(ValueError):
    pass


class NotALinearDesign(ValueError):
    """Some point pair is covered by a number of blocks different from 1."""


class DesignFormatError(ValueError):
    pass


def decode_point(v: int, q: int, d: int) -> tuple[int, ...]:
    coords = [0] * d
    for i in range(d - 1, -1, -1):
        v, coords[i] = divmod(v, q)
    return tuple(coords)


class ParallelClassSystem:
    """q+1 parallel classes of planes in F_q^3 with pairwise intersection q
    and triple intersection 1.

    Class 0 is normal to (0, 0, 1); class 1 + x is normal to
    (1, x, x(x+1)) for x in field order.  Plane b of class a, the row
    ``classes[a, b]`` of a read-only (q+1) x q x q^2 array (no other shape
    is accepted), collects the points u with <u, normal_a> = b.
    """

    __slots__ = ("q", "spec", "normals", "classes")

    def __init__(self, q: int, spec: FieldSpec, normals, classes):
        self.q = q
        self.spec = spec
        self.normals = tuple(map(tuple, normals))
        self.classes = _frozen(np.array(classes, dtype=np.intp))
        if self.classes.shape != (q + 1, q, q * q):
            raise ValueError(f"classes of shape {self.classes.shape}, not ({q + 1}, {q}, {q * q})")

    def plane(self, a: int, b: int) -> np.ndarray:
        return self.classes[a, b]

    def plane_of(self) -> np.ndarray:
        """The (q+1) x q^3 table of each point's plane in each class, for
        classes that partition F_q^3 (a plane index < q fits in 16 bits)."""
        table = np.empty((self.q + 1, self.q**3), dtype=np.uint16)
        table[np.arange(self.q + 1)[:, None, None], self.classes] = np.arange(self.q)[:, None]
        return table

    def __repr__(self):
        return f"ParallelClassSystem(q={self.q})"


def parallel_classes(q: int) -> ParallelClassSystem:
    """The explicit system: normals (0,0,1) and (1,x,x(x+1)) for x in GF(q)."""
    if q > PARALLEL_CLASS_MAX_Q:
        raise ValueError(f"q={q} exceeds the ceiling {PARALLEL_CLASS_MAX_Q}")
    spec = field(q)
    x = np.arange(q)
    normals = np.vstack([(0, 0, 1), np.column_stack([x**0, x, spec.mul(x, spec.add(x, 1))])])
    # plane of every point in every class; a stable sort lists each
    # plane's q^2 points in ascending order
    plane_of = spec.dot(_points(q, 3)[None], normals[:, None])
    classes = np.argsort(plane_of, axis=1, kind="stable").reshape(q + 1, q, q * q)
    return ParallelClassSystem(q, spec, normals.tolist(), classes)


def _points(q: int, d: int) -> np.ndarray:
    """The q^d x d coordinates of F_q^d in encoding order."""
    return np.arange(q**d)[:, None] // q ** np.arange(d - 1, -1, -1) % q


@dataclass(frozen=True)
class GeometryFailure:
    kind: str
    where: tuple
    detail: str


@dataclass(frozen=True)
class GeometryReport:
    ok: bool
    failures: tuple[GeometryFailure, ...]

    def __bool__(self):
        return self.ok


def verify_parallel_classes(s: ParallelClassSystem) -> GeometryReport:
    """Exhaustive check of the partition and both intersection conditions:
    every class that is no partition of F_q^3, else the first pair (then
    triple) of planes that meets in other than q (then 1) points.  A
    point's planes in a pair (triple) of classes are the digits of a code,
    and one `np.bincount` of the codes counts every intersection."""
    q, space = s.q, s.q**3
    by_class = np.sort(s.classes.reshape(q + 1, space), axis=1)
    broken = np.flatnonzero((by_class != np.arange(space)).any(axis=1)).tolist()
    if broken:
        return GeometryReport(False, tuple(
            GeometryFailure("partition", (a,), "class does not partition F_q^3") for a in broken))
    plane_of = s.plane_of()
    for size, kind, meet, expected in ((2, "pair", "P∩Q", q), (3, "triple", "P∩Q∩R", 1)):
        groups = np.array(list(combinations(range(q + 1), size)))
        codes = np.arange(len(groups))[:, None]
        for a in groups.T:
            codes = codes * q + plane_of[a]
        counts = np.bincount(codes.ravel(), minlength=len(groups) * q**size)
        off = np.flatnonzero(counts != expected)
        if off.size:
            g, *planes = np.unravel_index(off[0], (len(groups),) + (q,) * size)
            where = tuple(int(x) for ab in zip(groups[g], planes) for x in ab)
            detail = f"|{meet}| = {counts[off[0]]}, expected {expected}"
            return GeometryReport(False, (GeometryFailure(f"{kind}-intersection", where, detail),))
    return GeometryReport(True, ())


class Design:
    """Point set [v] with t-element blocks and an optional resolution:
    ``blocks`` is a read-only b x t integer array of ascending rows (rows
    of another width are refused), ``resolution`` None or a read-only
    array with one row of block indices per class.  ``by_point``, read-only
    too, groups the block indices by point, each group ascending: the one
    stable sort of the incidences, O(bt) integers, not a v x b matrix."""

    __slots__ = ("v", "t", "blocks", "resolution", "by_point")

    def __init__(self, v: int, t: int, blocks, resolution=None):
        self.v, self.t = v, t
        try:  # an entry past the index type is no point and no block
            blocks = np.array(blocks, dtype=np.intp)
            res = None if resolution is None else np.array(resolution, dtype=np.intp)
        except OverflowError:
            raise ValueError("a design entry is too large to be an index") from None
        if blocks.shape == (0,):  # no blocks
            blocks = blocks.reshape(0, t)
        if blocks.ndim != 2 or blocks.shape[1] != t:
            raise ValueError(f"blocks of shape {blocks.shape} are not rows of {t} points")
        blocks.sort(axis=1)
        repeated = (blocks[:, 1:] == blocks[:, :-1]).any(axis=1)
        bad = np.flatnonzero(repeated | ((blocks < 0) | (blocks >= v)).any(axis=1))
        if bad.size:  # the first faulty block, as in a block-by-block check
            fault = f"is not a {t}-subset" if repeated[bad[0]] else f"has points outside [0, {v})"
            raise ValueError(f"block {tuple(blocks[bad[0]].tolist())} {fault}")
        self.blocks = _frozen(blocks)
        self.by_point = _frozen(np.argsort(blocks.ravel(), kind="stable") // t)
        self.resolution = None
        if res is None:
            return
        if res.shape == (0,):  # no classes
            res = res.reshape(0, 0)
        if res.ndim != 2:
            raise ValueError("resolution classes are not rows of block indices")
        if not np.array_equal(np.sort(res, axis=None), np.arange(len(blocks))):
            raise ValueError("resolution does not partition the block set")
        # the widths first: v can be far too large for a row of v points
        if res.shape[1] * t != v or (
            np.sort(blocks[res].reshape(len(res), v)) != np.arange(v)
        ).any():
            raise ValueError("a resolution class does not partition the points")
        self.resolution = _frozen(res)

    @property
    def b(self) -> int:
        return len(self.blocks)

    def pair_coverage_violation(self):
        """First point pair (x, y), x < y in row-major order, not covered
        exactly once, as (x, y, count); or None.  Each point x counts the
        points on the blocks through it, so the check holds O(bt)
        integers at a time, not one count per pair, whatever the labels:
        if 0..m-1 lie on blocks and m on none, every pair with m is
        uncovered, so only the points below m + 2 are counted."""
        # no point reaches v, and bt incidences leave a point <= bt on no block
        cap = min(self.v, self.blocks.size + 2)
        per_point = np.bincount(np.minimum(self.blocks.ravel(), cap), minlength=cap + 1)
        m = int((per_point == 0).argmax())  # 0..m-1 are on blocks, m is not
        points = min(self.v, m + 2)
        starts = np.concatenate(([0], np.cumsum(per_point[:points])))  # group offsets
        near = np.minimum(self.blocks, points)
        for x in range(points):
            group = self.by_point[starts[x] : starts[x + 1]]
            count = np.bincount(near[group].ravel(), minlength=points + 1)[x + 1 : points]
            off = np.flatnonzero(count != 1)
            if off.size:
                return (x, x + 1 + int(off[0]), int(count[off[0]]))
        return None

    def __repr__(self):
        res = 0 if self.resolution is None else len(self.resolution)
        return f"Design(v={self.v}, t={self.t}, b={self.b}, classes={res})"


def _lines_along(spec: FieldSpec, tails: np.ndarray, lead: int) -> np.ndarray:
    """The lines of AG(d, q) in the directions (0, ..., 0, 1, tail) with
    the 1 at `lead`, as rows of ascending point encodings: direction by
    direction, each direction's lines in the order of their least point."""
    q, d = spec.q, tails.shape[1] + 1
    vecs = np.zeros((q ** (d - 1 - lead), d), dtype=np.intp)
    vecs[:, lead] = 1
    vecs[:, lead + 1 :] = tails[: len(vecs), lead:]
    # every line of such a direction meets the hyperplane x_lead = 0 once
    starts = np.insert(tails, lead, 0, axis=1)
    t = np.arange(q)
    # encode each point start + t * direction, one coordinate at a time
    lines = np.zeros((len(vecs), len(starts), q), dtype=np.intp)  # direction, start, t
    for i in range(d):
        lines *= q
        lines += spec.add(starts[:, i, None], spec.mul(t, vecs[:, i, None])[:, None])
    lines.sort(axis=2)
    order = np.argsort(lines[:, :, 0], axis=1)
    return np.take_along_axis(lines, order[:, :, None], axis=1).reshape(-1, q)


def design_affine_lines(q: int, d: int) -> Design:
    """Resolvable 2-(q^d, q, 1): blocks are the lines of AG(d, q), one
    resolution class per direction, directions in the order of their
    encodings.  The blocks are a block graph's vertices, so more than
    `graphs.MAX_VERTICES` lines are refused unbuilt; with q >= 2 every
    d past the ceiling's bit length has q^(d-1) > MAX_VERTICES."""
    if d < 2:
        raise ValueError(f"d={d} must be at least 2")
    field_order(q)  # raises NotAPrimePower or the ceiling error
    if d > MAX_VERTICES.bit_length():
        raise ValueError(f"d={d} gives more than {MAX_VERTICES} lines")
    _check_order(q ** (d - 1) * (q**d - 1) // (q - 1))
    spec = field(q)
    tails = _points(q, d - 1)
    # directions in encoding order: those whose leading 1 is last come first
    leads = range(d - 1, -1, -1)
    blocks = np.concatenate([_lines_along(spec, tails, lead) for lead in leads])
    return Design(q**d, q, blocks, np.arange(len(blocks)).reshape(-1, q ** (d - 1)))


def design_one_factorization(m: int) -> Design:
    """Resolvable 2-(m, 2, 1): the edges of K_m resolved by the
    circle-method round robin (m-1 rounds of m/2 matches); more than
    `graphs.MAX_VERTICES` edges are refused unbuilt."""
    if m < 4 or m % 2:
        raise OddOrder(f"m={m} must be even and at least 4")
    _check_order(m * (m - 1) // 2)
    # round r matches m-1 with r and r+i with r-i (mod m-1), 0 < i < m/2:
    # each pair of points meets in exactly one round, so no block repeats
    r = np.arange(m - 1)[:, None]
    i = np.arange(m // 2)
    rounds = np.stack([(r + i) % (m - 1), (r - i) % (m - 1)], axis=2)
    rounds[:, 0, 0] = m - 1
    return Design(m, 2, rounds.reshape(-1, 2), np.arange(m * (m - 1) // 2).reshape(m - 1, -1))


def block_graph(d: Design) -> Graph:
    """Blocks adjacent iff they share a point; requires a 2-(v,t,1) design."""
    return Graph._adopt(_clique_bits(d.b, [_pencils(d)]))


def _pencils(d: Design) -> tuple[np.ndarray, np.ndarray]:
    """The points' pencils, a clique family of the blocks, once the design
    is found linear: each point lies on r = (v-1)/(t-1) blocks (on all b
    if t = 1, when v <= 1), so the pencils are a v x r array, and block
    B's row is the union of the pencils of its t points."""
    _check_order(d.b)
    violation = d.pair_coverage_violation()
    if violation is not None:
        x, y, c = violation
        raise NotALinearDesign(f"pair ({x}, {y}) covered {c} times, expected 1")
    return d.by_point.reshape(d.v, d.b * d.t // d.v if d.v else 0), d.blocks


def _clique_bits(n: int, families) -> np.ndarray:
    """Fresh packed rows of the graph on n vertices whose row v is the
    union of ``members[of[v]]`` over the families (members, of), less v:
    ``members`` holds one row of vertices per clique, ``of`` one row of
    clique ids per vertex.  Filled a block of rows at a time, each with
    at most 2^14 such indices (or one row), and packed at once."""
    bits = _packed_zeros(n)
    width = sum(of.shape[1] * members.shape[1] for members, of in families)
    step = max(1, 2**14 // max(width, 1))
    for i in range(0, n, step):
        rows = slice(i, min(i + step, n))
        h = rows.stop - i
        block = np.zeros((h, n), dtype=bool)
        for members, of in families:
            block[np.arange(h)[:, None], members[of[rows]].reshape(h, -1)] = True
        block[np.arange(h), np.arange(i, rows.stop)] = False
        bits[rows] = np.packbits(block, axis=1)
    return bits


def write_design(d: Design, path) -> None:
    classes = [] if d.resolution is None else d.resolution.tolist()
    with open(path, "w") as fh:
        fh.write(f"DESIGN {d.v} {d.t} {d.b} {len(classes)}\n")
        for row in d.blocks.tolist() + classes:
            fh.write(" ".join(map(str, row)) + "\n")


def read_design(path) -> Design:
    """Parse the plain-text design format; rejects ragged lines by number."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("DESIGN"):
        raise DesignFormatError("missing DESIGN header")
    try:
        v, t, b, c = map(int, lines[0].split()[1:])  # four fields, or ValueError
    except ValueError as exc:
        raise DesignFormatError(f"bad header: {lines[0]!r}") from exc
    if min(v, t, b, c) < 0:
        raise DesignFormatError(f"bad header: {lines[0]!r}")
    if len(lines) - 1 != b + c:
        raise DesignFormatError(f"expected {b + c} data lines, got {len(lines) - 1}")
    rows = [ln.split() for ln in lines[1:]]
    for idx, row in enumerate(rows, start=2):
        width, what = (t, "points") if idx < 2 + b else (len(rows[b]), "block indices")
        if len(row) != width:
            raise DesignFormatError(f"line {idx}: expected {width} {what}, got {len(row)}")
    try:
        rows = [[int(x) for x in row] for row in rows]
    except ValueError as exc:
        raise DesignFormatError("non-integer entry") from exc
    return Design(v, t, rows[:b], rows[b:] if c else None)
