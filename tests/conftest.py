import pytest

from cerg import (
    Graph,
    design_affine_lines,
    design_one_factorization,
    h_graph,
    latin_square_graph,
    oa_macneish,
    tls,
)

# ---------------------------------------------------------------------------
# brute-force oracles, deliberately independent of the library's vectorized
# scans: plain double loops over neighbour sets
# ---------------------------------------------------------------------------


def neighbor_sets(g):
    return [set(g.neighbors(v)) for v in range(g.n)]


def brute_lambda_mu(g):
    """(lambda multiset, mu multiset) by direct pair enumeration."""
    nbrs = neighbor_sets(g)
    lam, mu = {}, {}
    for x in range(g.n):
        for y in range(x + 1, g.n):
            c = len(nbrs[x] & nbrs[y])
            if y in nbrs[x]:
                lam[c] = lam.get(c, 0) + 1
            else:
                mu[c] = mu.get(c, 0) + 1
    return lam, mu


def brute_common_lambda_sum(g, x, y):
    """Sum of lambda(x, z) over common neighbours z of x and y."""
    nbrs = neighbor_sets(g)
    return sum(len(nbrs[x] & nbrs[z]) for z in nbrs[x] & nbrs[y])


def poly_mul(u, v):
    out = [0] * (len(u) + len(v) - 1)
    for i, a in enumerate(u):
        for j, b in enumerate(v):
            out[i + j] += a * b
    return out


def poly_from_roots(pairs):
    """prod (x - theta)^mult, ascending integer coefficients."""
    coeffs = [1]
    for theta, mult in pairs:
        for _ in range(mult):
            coeffs = poly_mul(coeffs, [-theta, 1])
    return tuple(coeffs)


def triangle_count(g):
    nbrs = neighbor_sets(g)
    total = 0
    for x, y in g.edges():
        total += len(nbrs[x] & nbrs[y])
    return total // 3


def petersen():
    return Graph.from_edges(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )


# ---------------------------------------------------------------------------
# graphs reused across modules (all immutable)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def tls22():
    return tls(2, 2)


@pytest.fixture(scope="session")
def tls33():
    return tls(3, 3)


@pytest.fixture(scope="session")
def ls34():
    return latin_square_graph(oa_macneish(4), 3)


@pytest.fixture(scope="session")
def rook33():
    return latin_square_graph(oa_macneish(3), 2)


@pytest.fixture(scope="session")
def h6():
    return h_graph(design_one_factorization(6))


@pytest.fixture(scope="session")
def h27():
    return h_graph(design_affine_lines(3, 3))
