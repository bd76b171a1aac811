"""Parallel plane classes in F_q^3, resolvable designs, block graphs.

Points of F_q^d are encoded coordinate-major in base q (first coordinate
most significant), using the canonical field order, so every derived
vertex labelling is stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .field import FieldSpec, field, field_order
from .graphs import MAX_VERTICES, Graph, _check_order

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
    (1, x, x(x+1)) for x in field order.  Plane b of class a collects the
    points u with <u, normal_a> = b.
    """

    __slots__ = ("q", "spec", "normals", "classes")

    def __init__(self, q: int, spec: FieldSpec, normals, classes):
        self.q = q
        self.spec = spec
        self.normals = tuple(tuple(v) for v in normals)
        self.classes = tuple(tuple(tuple(pl) for pl in cls) for cls in classes)

    def plane(self, a: int, b: int) -> tuple[int, ...]:
        return self.classes[a][b]

    def plane_index_of(self, a: int, point: int) -> int:
        """Which plane of class a contains the point."""
        return next(b for b, plane in enumerate(self.classes[a]) if point in plane)

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
    return ParallelClassSystem(q, spec, normals.tolist(), classes.tolist())


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
    """Exhaustive check of the partition and both intersection conditions."""
    q = s.q
    space = q**3
    failures = []
    for a, cls in enumerate(s.classes):
        if len(cls) != q:
            failures.append(
                GeometryFailure("class-size", (a,), f"{len(cls)} planes, expected {q}")
            )
            continue
        covered = sorted(pt for plane in cls for pt in plane)
        if covered != list(range(space)) or any(len(pl) != q * q for pl in cls):
            failures.append(
                GeometryFailure("partition", (a,), "class does not partition F_q^3")
            )
    if failures:
        return GeometryReport(False, tuple(failures))
    sets = [[frozenset(pl) for pl in cls] for cls in s.classes]
    for a1, a2 in combinations(range(len(sets)), 2):
        for b1, p1 in enumerate(sets[a1]):
            for b2, p2 in enumerate(sets[a2]):
                got = len(p1 & p2)
                if got != q:
                    failures.append(
                        GeometryFailure(
                            "pair-intersection",
                            (a1, b1, a2, b2),
                            f"|P∩Q| = {got}, expected {q}",
                        )
                    )
                    return GeometryReport(False, tuple(failures))
    for a1, a2, a3 in combinations(range(len(sets)), 3):
        for b1, p1 in enumerate(sets[a1]):
            for b2, p2 in enumerate(sets[a2]):
                p12 = p1 & p2
                for b3, p3 in enumerate(sets[a3]):
                    got = len(p12 & p3)
                    if got != 1:
                        failures.append(
                            GeometryFailure(
                                "triple-intersection",
                                (a1, b1, a2, b2, a3, b3),
                                f"|P∩Q∩R| = {got}, expected 1",
                            )
                        )
                        return GeometryReport(False, tuple(failures))
    return GeometryReport(True, ())


class Design:
    """Point set [v] with t-element blocks and an optional resolution."""

    __slots__ = ("v", "t", "blocks", "resolution")

    def __init__(self, v: int, t: int, blocks, resolution=None):
        self.v = v
        self.t = t
        self.blocks = tuple(tuple(sorted(b)) for b in blocks)
        for b in self.blocks:
            if len(b) != t or len(set(b)) != t:
                raise ValueError(f"block {b} is not a {t}-subset")
            if b[0] < 0 or b[-1] >= v:
                raise ValueError(f"block {b} has points outside [0, {v})")
        self.resolution = (
            tuple(tuple(cls) for cls in resolution) if resolution is not None else None
        )
        if self.resolution is not None:
            seen = sorted(i for cls in self.resolution for i in cls)
            if seen != list(range(len(self.blocks))):
                raise ValueError("resolution does not partition the block set")
            for cls in self.resolution:
                pts = sorted(p for i in cls for p in self.blocks[i])
                if len(pts) != v or pts != list(range(v)):
                    raise ValueError("a resolution class does not partition the points")

    @property
    def b(self) -> int:
        return len(self.blocks)

    def blocks_through(self):
        """The blocks as a b x t array, and for each point in turn the
        ascending indices of the blocks through it, from one sort of the
        incidences: O(v + bt) integers, not a v x b incidence matrix."""
        blocks = np.array(self.blocks, dtype=np.intp).reshape(self.b, self.t)
        flat = blocks.ravel()
        order = np.argsort(flat, kind="stable")  # incidences grouped by point
        starts = np.searchsorted(flat, np.arange(self.v + 1), sorter=order)
        return blocks, (order[starts[x] : starts[x + 1]] // self.t for x in range(self.v))

    def pair_coverage_violation(self):
        """First point pair (x, y), x < y in row-major order, not covered
        exactly once, as (x, y, count); or None.  Each point x counts the
        points on the blocks through it, so the check holds O(v + bt)
        integers at a time, not one count per pair."""
        blocks, through = self.blocks_through()
        for x, group in enumerate(through):
            count = np.bincount(blocks[group].ravel(), minlength=self.v)[x + 1 :]
            off = np.flatnonzero(count != 1)
            if off.size:
                return (x, x + 1 + int(off[0]), int(count[off[0]]))
        return None

    def __repr__(self):
        res = len(self.resolution) if self.resolution else 0
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
    blocks = np.concatenate([_lines_along(spec, tails, lead) for lead in leads]).tolist()
    resolution = np.arange(len(blocks)).reshape(-1, q ** (d - 1)).tolist()
    return Design(q**d, q, blocks, resolution)


def design_one_factorization(m: int) -> Design:
    """Resolvable 2-(m, 2, 1): the edges of K_m resolved by the
    circle-method round robin (m-1 rounds of m/2 matches); more than
    `graphs.MAX_VERTICES` edges are refused unbuilt."""
    if m < 4 or m % 2:
        raise OddOrder(f"m={m} must be even and at least 4")
    _check_order(m * (m - 1) // 2)
    blocks = []
    resolution = []
    index = {}
    for r in range(m - 1):
        cls = []
        pairs = [(m - 1, r)]
        for i in range(1, m // 2):
            pairs.append(((r + i) % (m - 1), (r - i) % (m - 1)))
        for a, b in pairs:
            key = (min(a, b), max(a, b))
            if key not in index:
                index[key] = len(blocks)
                blocks.append(key)
            cls.append(index[key])
        resolution.append(cls)
    return Design(m, 2, blocks, resolution)


def block_graph(d: Design) -> Graph:
    """Blocks adjacent iff they share a point; requires a 2-(v,t,1) design."""
    _check_order(d.b)
    violation = d.pair_coverage_violation()
    if violation is not None:
        x, y, c = violation
        raise NotALinearDesign(f"pair ({x}, {y}) covered {c} times, expected 1")
    a = np.zeros((d.b, d.b), dtype=bool)
    for group in d.blocks_through()[1]:
        a[np.ix_(group, group)] = True
    np.fill_diagonal(a, False)
    return Graph(a)


def write_design(d: Design, path) -> None:
    with open(path, "w") as fh:
        c = len(d.resolution) if d.resolution else 0
        fh.write(f"DESIGN {d.v} {d.t} {d.b} {c}\n")
        for blk in d.blocks:
            fh.write(" ".join(map(str, blk)) + "\n")
        for cls in d.resolution or ():
            fh.write(" ".join(map(str, cls)) + "\n")


def read_design(path) -> Design:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("DESIGN"):
        raise DesignFormatError("missing DESIGN header")
    parts = lines[0].split()
    if len(parts) != 5:
        raise DesignFormatError(f"bad header: {lines[0]!r}")
    try:
        v, t, b, c = map(int, parts[1:])
    except ValueError as exc:
        raise DesignFormatError(f"bad header: {lines[0]!r}") from exc
    if len(lines) - 1 != b + c:
        raise DesignFormatError(f"expected {b + c} data lines, got {len(lines) - 1}")
    try:
        blocks = [[int(x) for x in lines[1 + i].split()] for i in range(b)]
        classes = [[int(x) for x in lines[1 + b + i].split()] for i in range(c)]
    except ValueError as exc:
        raise DesignFormatError("non-integer entry") from exc
    return Design(v, t, blocks, classes if c else None)
