"""graph6 encode/decode and vertex relabelling on dense numpy matrices.

The benchmark makes and checks its inputs with this codec, not with
cerg's, so a defect in cerg's graph6 layer cannot hide itself: bit k of
the body is A[i, j] for the k-th pair (i < j) of the upper triangle
taken column by column, six bits per byte, each byte offset by 63.
"""

from __future__ import annotations

import random

import numpy as np

_WEIGHTS = np.array([32, 16, 8, 4, 2, 1], dtype=np.uint8)


def encode(a: np.ndarray) -> bytes:
    """graph6 bytes (no trailing newline) of a symmetric 0/1 matrix."""
    n = a.shape[0]
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    else:
        raise ValueError(f"n={n} is beyond the 4-byte graph6 size field")
    # column j of the upper triangle holds A[0..j-1, j]
    cols = [(a[:j, j] != 0).astype(np.uint8) for j in range(1, n)]
    npairs = n * (n - 1) // 2
    bits = np.concatenate([*cols, np.zeros(-npairs % 6, dtype=np.uint8)])
    body = bits.reshape(-1, 6) @ _WEIGHTS + 63
    return header + body.astype(np.uint8).tobytes()


def decode(data: bytes) -> np.ndarray:
    """Dense uint8 adjacency matrix of one graph6 line."""
    data = data.rstrip(b"\r\n")
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif data[1] != 126:
        n, pos = (data[1] - 63) << 12 | (data[2] - 63) << 6 | (data[3] - 63), 4
    else:
        raise ValueError("8-byte graph6 size fields are not used by the benchmark")
    npairs = n * (n - 1) // 2
    body = np.frombuffer(data[pos:], dtype=np.uint8) - 63
    if len(body) != (npairs + 5) // 6 or (body > 63).any():
        raise ValueError(f"graph6 body does not fit n={n}")
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].reshape(-1)
    if bits[npairs:].any():
        raise ValueError("nonzero graph6 padding bits")
    a = np.zeros((n, n), dtype=np.uint8)
    for j in range(1, n):
        a[:j, j] = bits[j * (j - 1) // 2 : j * (j + 1) // 2]
    return a | a.T


def read(path) -> np.ndarray:
    with open(path, "rb") as fh:
        return decode(fh.readline())


def write(a: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(encode(a) + b"\n")


def permutation(n: int, key: str) -> list[int]:
    """A fixed pseudo-random permutation of range(n) for the text key."""
    perm = list(range(n))
    random.Random(key).shuffle(perm)
    return perm


def relabel(a: np.ndarray, perm) -> np.ndarray:
    """Vertex v of the result is vertex perm[v] of a."""
    p = np.asarray(perm)
    return a[np.ix_(p, p)]
