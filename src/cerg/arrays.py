"""Orthogonal arrays OA(n, t) and group-divisible arrays GOA(n, s, t).

Columns of every generated array are indexed lexicographically by the
pair (a, b) that defines them, so vertex labels of the graphs built on
top are reproducible run to run.  Combinatorial validity is checked by
:func:`validate_array`; the container classes only enforce shape and
symbol range, since deliberately broken arrays must be representable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import field, prime_factors


class InvalidOrder(ValueError):
    """Array order below the minimum the construction supports."""


class ArrayFormatError(ValueError):
    """Malformed array file."""


def _check_cells(cells, rows: int, n: int) -> np.ndarray:
    arr = np.asarray(cells, dtype=np.int64)
    if arr.shape != (rows, n * n):
        raise ValueError(f"expected a {rows}x{n * n} array, got {arr.shape}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        raise ValueError(f"symbols must lie in [0, {n})")
    arr.flags.writeable = False
    return arr


class OrthogonalArray:
    """A t x n^2 symbol array; rows are the r_i."""

    __slots__ = ("n", "t", "cells")

    def __init__(self, n: int, t: int, cells):
        self.n = n
        self.t = t
        self.cells = _check_cells(cells, t, n)

    def row(self, i: int) -> np.ndarray:
        return self.cells[i]

    def __repr__(self):
        return f"OrthogonalArray(n={self.n}, t={self.t})"


class GroupDivisibleArray:
    """An st x n^2 array whose rows come in t ordered groups of s.

    Group i occupies rows [i*s, (i+1)*s); row j of group i is r^i_j.
    Repeated rows within a group are allowed.
    """

    __slots__ = ("n", "s", "t", "cells")

    def __init__(self, n: int, s: int, t: int, cells):
        self.n = n
        self.s = s
        self.t = t
        self.cells = _check_cells(cells, s * t, n)

    def row(self, group: int, j: int) -> np.ndarray:
        return self.cells[group * self.s + j]

    def group(self, i: int) -> np.ndarray:
        return self.cells[i * self.s : (i + 1) * self.s]

    def __repr__(self):
        return f"GroupDivisibleArray(n={self.n}, s={self.s}, t={self.t})"


@dataclass(frozen=True)
class PairFailure:
    row_i: int
    row_j: int
    column: int
    pair: tuple[int, int]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    failures: tuple[PairFailure, ...]

    def __bool__(self):
        return self.ok


def oa_prime_power(q: int) -> OrthogonalArray:
    """The linear OA(q, q+1) over GF(q).

    Column (a, b) carries a*c + b in row c (field order) and a in the
    final row.
    """
    spec = field(q)  # raises NotAPrimePower
    elements = np.arange(q)
    cells = np.empty((q + 1, q, q), dtype=np.int64)  # row, a, b
    cells[:q] = spec.add(spec.mul_table.T[:, :, None], elements)
    cells[q] = elements[:, None]
    return OrthogonalArray(q, q + 1, cells.reshape(q + 1, q * q))


def oa_macneish(n: int) -> OrthogonalArray:
    """OA(n, r) with r = min_i p_i^{a_i} + 1 by the product construction.

    Each prime-power factor contributes its linear OA truncated to the
    first r rows; symbols and column labels are mixed-radix over the
    factors (smallest prime first).
    """
    if n < 2:
        raise InvalidOrder(f"n={n} must be at least 2")
    factors = [p**a for p, a in prime_factors(n)]
    if len(factors) == 1:
        # the loop below gives the same cells, but its freed n^3-int64
        # temporaries raise glibc's mmap threshold: `construct ls --n 128
        # --m 3` then peaks at 702.5 MB instead of 688.0 MB
        return oa_prime_power(n)
    r = min(factors) + 1
    labels = np.arange(n)
    cells = np.zeros((r, n, n), dtype=np.int64)  # row, column label a, b
    place = n
    for pk in factors:
        place //= pk
        digit = labels // place % pk  # this factor's digit of each label
        cells += oa_prime_power(pk).cells[:r, digit[:, None] * pk + digit] * place
    return OrthogonalArray(n, r, cells.reshape(r, n * n))


def goa_from_oa(oa: OrthogonalArray, s: int) -> GroupDivisibleArray:
    """GOA(n, s, t) whose group i is s copies of OA row i."""
    if s < 1:
        raise ValueError(f"s={s} must be at least 1")
    cells = np.repeat(oa.cells, s, axis=0)
    return GroupDivisibleArray(oa.n, s, oa.t, cells)


def _pair_list(a) -> list[tuple[int, int]]:
    """Row pairs whose joint distribution the defining condition constrains."""
    if isinstance(a, OrthogonalArray):
        return [(i, j) for i in range(a.t) for j in range(i + 1, a.t)]
    rows = a.s * a.t
    return [
        (i, j)
        for i in range(rows)
        for j in range(i + 1, rows)
        if i // a.s != j // a.s
    ]


def _first_duplicate(ri: np.ndarray, rj: np.ndarray, n: int):
    codes = ri * n + rj
    order = np.argsort(codes, kind="stable")
    eq = codes[order[1:]] == codes[order[:-1]]
    if not eq.any():
        return None
    col = int(order[1:][eq].min())
    return col, (int(ri[col]), int(rj[col]))


def validate_array(a) -> ValidationReport:
    """Check the column-pair condition on every constrained row pair.

    Each offending pair is reported with the first column (scanning left
    to right) whose (r_i, r_j) value was already seen.
    """
    failures = tuple(
        PairFailure(i, j, *dup)
        for i, j in _pair_list(a)
        if (dup := _first_duplicate(a.cells[i], a.cells[j], a.n)) is not None
    )
    return ValidationReport(ok=not failures, failures=failures)


def write_array(a, path) -> None:
    with open(path, "w") as fh:
        if isinstance(a, OrthogonalArray):
            fh.write(f"OA {a.n} {a.t}\n")
        else:
            fh.write(f"GOA {a.n} {a.s} {a.t}\n")
        for row in a.cells:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_array(path):
    """Parse the plain-text array format; rejects out-of-range symbols."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ArrayFormatError("empty array file")
    header = lines[0].split()
    try:
        if header[0] == "OA" and len(header) == 3:
            n, t = int(header[1]), int(header[2])
            s = None
        elif header[0] == "GOA" and len(header) == 4:
            n, s, t = int(header[1]), int(header[2]), int(header[3])
        else:
            raise ArrayFormatError(f"bad header line: {lines[0]!r}")
    except ValueError as exc:
        raise ArrayFormatError(f"bad header line: {lines[0]!r}") from exc
    rows = t if s is None else s * t
    if len(lines) - 1 != rows:
        raise ArrayFormatError(f"expected {rows} rows, found {len(lines) - 1}")
    cells = []
    for idx, ln in enumerate(lines[1:], start=2):
        try:
            row = [int(v) for v in ln.split()]
        except ValueError as exc:
            raise ArrayFormatError(f"line {idx}: non-integer symbol") from exc
        if len(row) != n * n:
            raise ArrayFormatError(f"line {idx}: expected {n * n} symbols")
        if any(v < 0 or v >= n for v in row):
            raise ArrayFormatError(f"line {idx}: symbol out of range [0, {n})")
        cells.append(row)
    if s is None:
        return OrthogonalArray(n, t, cells)
    return GroupDivisibleArray(n, s, t, cells)
