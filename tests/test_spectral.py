import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from cerg import spectral
from cerg.arrays import oa_macneish
from cerg.constructions import latin_square_graph, tls
from cerg.graphs import Graph, clique_extension, complement
from cerg.regularity import (
    NotEdgeRegular,
    Powers,
    level,
    profile,
    strong_co_edge_regular,
    weak_edge_regular,
)
from cerg.spectral import (
    AnnihilationFailed,
    ClaimInvalid,
    Disconnected,
    MomentMismatch,
    NotAnEigenvalue,
    SpectrumCertificate,
    TooLarge,
    WrongEigenvalueCount,
    certify,
    char_poly,
    claim_from_json,
    cospectral,
    eq1_residual,
    goldberg,
    poly_from_spectrum,
    theorem33_identities,
)
from conftest import petersen, poly_from_roots, triangle_count

TLS22_CLAIM = [(19, 1), (3, 9), (-1, 16), (-5, 6)]


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph.from_edges(
        n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    )


def sympy_charpoly(g):
    """Independent oracle: sympy's exact Berkowitz characteristic polynomial."""
    m = sympy.Matrix(g.adjacency_matrix().tolist())
    poly = m.charpoly()
    coeffs = list(reversed(poly.all_coeffs()))  # ascending
    return tuple(int(c) for c in coeffs)


# -- char_poly


def test_char_poly_k3():
    assert char_poly(Graph.complete(3)) == (-2, -3, 0, 1)  # (x-2)(x+1)^2


def test_char_poly_c5():
    assert char_poly(cycle(5)) == (-2, 5, 0, -5, 0, 1)  # (x-2)(x^2+x-1)^2


def test_char_poly_against_sympy_oracle():
    for seed in range(12):
        g = random_graph(random.Random(seed).randrange(1, 14), 0.5, seed)
        assert char_poly(g) == sympy_charpoly(g), seed


@pytest.mark.parametrize("seed", [1, 2])
def test_char_poly_of_sparse_graphs_against_sympy_oracle(seed):
    """Irregular graphs of order 40 with edge density 0.08: reducing
    them to Hessenberg form mod the first CRT prime swaps pivot rows 7
    and 32 times and meets 3 and 5 columns already zero below the
    subdiagonal.  Small primes, whose images meet more zero pivots, are
    checked image by image."""
    g = random_graph(40, 0.08, seed)
    want = sympy_charpoly(g)
    assert char_poly(g) == want
    for p in (2, 3, 5, 7):
        image = spectral._hessenberg_charpoly_mod(g.adjacency_matrix(), p)
        assert image.tolist() == [c % p for c in want], p


def test_char_poly_tls22(tls22):
    assert char_poly(tls22) == poly_from_roots(TLS22_CLAIM)


def record_images(monkeypatch):
    """The (prime, thread id, matrix passed) of each Hessenberg prime
    image char_poly reduces, in a list that grows as it runs."""
    images = []
    reduce = spectral._hessenberg_charpoly_mod

    def recorded(a, p):
        images.append((p, threading.get_ident(), a))
        return reduce(a, p)

    monkeypatch.setattr(spectral, "_hessenberg_charpoly_mod", recorded)
    return images


def test_char_poly_fallback_reduces_its_primes_in_one_loop(monkeypatch):
    """C_12 and an irregular graph take the Hessenberg fallback: the
    calling thread reduces one image for each of the window's leading
    primes, in order, each from one boolean matrix, the graph's rows
    unpacked once (no int64 copy shared by all), and they lift to the
    oracle's polynomial."""
    images = record_images(monkeypatch)
    for g in (cycle(12), random_graph(14, 0.4, 3)):
        images.clear()
        assert char_poly(g) == sympy_charpoly(g)
        primes = [p for p, _, _ in images]
        assert primes and primes == list(spectral._crt_primes()[: len(primes)])
        assert {t for _, t, _ in images} == {threading.get_ident()}
        a = images[0][2]
        assert all(m is a for _, _, m in images) and a.dtype == bool
        assert np.array_equal(a, g.rows(slice(None)))


def test_char_poly_size_cap():
    with pytest.raises(TooLarge):
        char_poly(Graph.empty(513))


def hessenberg_charpoly(g, monkeypatch):
    """char_poly with the Hoffman route switched off."""
    with monkeypatch.context() as m:
        m.setattr(spectral, "_hoffman_polynomial", lambda g: None)
        return char_poly(g)


def disjoint_k4s():
    return Graph.from_edges(
        8, [(i, j) for b in (0, 4) for i in range(b, b + 4) for j in range(i + 1, b + 4)]
    )


def test_char_poly_hoffman_route_matches_oracles(tls22, ls34, monkeypatch):
    """Regular graphs with at most five distinct eigenvalues take the
    trace-recurrence route; it agrees with Berkowitz and Hessenberg."""
    cases = [
        (Graph.empty(5), 1),
        (Graph.complete(6), 1),
        (cycle(5), 2),
        (petersen(), 2),
        (disjoint_k4s(), 2),
        (ls34, 2),
        (cycle(8), 4),
        (tls22, 3),
        (complement(tls22), 3),
        (clique_extension(ls34, 2), 3),
    ]
    for g, d in cases:
        found = spectral._hoffman_polynomial(g)
        assert found is not None and len(found[0]) == d, (g.n, found)
        assert char_poly(g) == sympy_charpoly(g) == hessenberg_charpoly(g, monkeypatch)


def test_hoffman_polynomial_of_disconnected_graph_has_ell_zero():
    # 2 K_4: A^2 = 2A + 3I, and J is not a polynomial in A
    assert spectral._hoffman_polynomial(disjoint_k4s()) == ([3, 2], 0)


def test_char_poly_fallback_matches_oracle(monkeypatch):
    """C_12 (seven distinct eigenvalues) has no Hoffman polynomial of
    degree <= 4, and irregular graphs are never tried (the star K_{1,4}
    has A^3 = 4A, but AJ is not a multiple of J): both go through
    Hessenberg + CRT."""
    images = record_images(monkeypatch)
    assert spectral._hoffman_polynomial(cycle(12)) is None
    star = Graph.from_edges(5, [(0, i) for i in range(1, 5)])
    for g in (cycle(12), random_graph(14, 0.4, 3), star):
        images.clear()
        assert char_poly(g) == sympy_charpoly(g)
        assert images


def test_crt_primes_are_the_prevprime_chain_and_cover_every_bound():
    """The sieved window [2^26 - 2^13, 2^26) is sympy's prevprime chain
    down from 2^26, and its product passes the largest bound char_poly
    meets: n = CHAR_POLY_MAX_N, k = n - 1 (2818 bits)."""
    primes = spectral._crt_primes()
    chain = [sympy.prevprime(2**26)]
    while chain[-1] > primes[-1]:
        chain.append(sympy.prevprime(chain[-1]))
    assert primes == tuple(chain) and len(primes) == 477
    assert sympy.prevprime(primes[-1]) < 2**26 - 2**13
    n = spectral.CHAR_POLY_MAX_N
    bound_bits = n + math.ceil(n / 2 * math.log2(n - 1)) + 2
    assert bound_bits == 2818 and math.prod(primes) > 2**bound_bits


def test_hessenberg_sums_stay_exact_in_int64_up_to_the_ceiling():
    """A Hessenberg image's matrix-vector sums add at most n products of
    residues below p: exact in int64 while n p^2 < 2^63."""
    assert spectral.CHAR_POLY_MAX_N * max(spectral._crt_primes()) ** 2 < 2**63


def test_char_poly_tls33_takes_the_hoffman_route(tls33, monkeypatch):
    def refuse(a, p):
        raise AssertionError("Hessenberg path used")

    monkeypatch.setattr(spectral, "_hessenberg_charpoly_mod", refuse)
    claim = [(98, 1), (17, 32), (-1, 162), (-10, 48)]
    assert char_poly(tls33) == poly_from_roots(claim)


@pytest.mark.parametrize("index", range(4))
def test_corrupted_hoffman_coefficient_is_never_returned(index, tls22, monkeypatch):
    """A wrong solved coefficient (c_0, c_1, c_2 or ell) fails the
    entrywise check, so char_poly falls back and stays exact."""
    solve = spectral._hoffman_candidate

    def corrupt(p, d):
        found = solve(p, d)
        if found is None:
            return None
        values = [*found[0], found[1]]
        values[index % len(values)] += 1
        return values[:-1], values[-1]

    monkeypatch.setattr(spectral, "_hoffman_candidate", corrupt)
    assert spectral._hoffman_polynomial(tls22) is None
    assert char_poly(tls22) == poly_from_roots(TLS22_CLAIM)


def clique_extended_ls(q, n):
    """clique-ext(LS_{q+1}(qn), q), the cospectral partner of tls(q, n)."""
    return clique_extension(latin_square_graph(oa_macneish(q * n), q + 1), q)


@pytest.mark.parametrize("build", [
    lambda: clique_extended_ls(2, 2),
    lambda: clique_extended_ls(3, 3),
    lambda: clique_extended_ls(4, 5),
    lambda: tls(2, 2),
    lambda: tls(3, 3),
], ids=["ext-ls3-4-2", "ext-ls4-9-3", "ext-ls5-20-4", "tls22", "tls33"])
def test_hoffman_search_checks_only_the_relation_that_holds(build, monkeypatch):
    """The wrong lower-degree candidates contradict an entry of the rows
    already formed, so they never reach a tile pass: only the degree-3
    relation is checked entrywise (the parent checked d = 1 and 2 too on
    the clique extensions, d = 1 on tls)."""
    checked = []
    check = Powers.first_mismatch

    def counted(self, coeffs, *args, **kwargs):
        checked.append(len(coeffs) - 1)
        return check(self, coeffs, *args, **kwargs)

    monkeypatch.setattr(Powers, "first_mismatch", counted)
    found = spectral._hoffman_polynomial(build())
    assert found is not None and len(found[0]) == 3
    assert checked == [3]


def test_hoffman_candidate_past_the_int64_bound_is_skipped(tls22, monkeypatch):
    monkeypatch.setattr(spectral, "_hoffman_candidate", lambda p, d: ([2**62] * d, 0))
    assert spectral._hoffman_polynomial(tls22) is None
    assert char_poly(tls22) == poly_from_roots(TLS22_CLAIM)


def test_poly_from_spectrum_matches_oracle():
    assert poly_from_spectrum([(2, 1), (-1, 2)]) == poly_from_roots([(2, 1), (-1, 2)])


# -- certify


def test_certify_tls22(tls22):
    cert = certify(tls22, TLS22_CLAIM)
    assert cert.ell == 240
    assert cert.eigenvalues == (19, 3, -1, -5)
    assert cert.multiplicities == (1, 9, 16, 6)
    assert cert.checks == {"annihilation": True, "moments": True, "minimality": True}


def test_one_graph_is_row_summed_once_across_its_checks(tls22, monkeypatch):
    """profile, the strong and weak checks, level, certify and
    eq1_residual read every degree fact from the graph's one degree
    vector: of all their work, one pass over A's packed rows for
    degrees, a popcount lookup of one block of rows at a time."""
    from cerg import graphs

    g = tls(2, 2)  # fresh: nothing derived yet
    rows = g.bits
    passes, looked_up = [], []

    class Counted(np.ndarray):
        """A view of A's packed rows that records the reads made of the
        whole of them, and the popcount table that records the lookups
        of blocks of them, by the rows each block holds."""

        def __getitem__(self, index):
            if isinstance(index, np.ndarray) and np.shares_memory(index, rows):
                looked_up.append(len(index))
            return np.asarray(super().__getitem__(index))

        def __array_function__(self, func, types, args, kwargs):
            if any(arg is g.bits for arg in args):
                passes.append(func.__name__)
            return super().__array_function__(func, types, args, kwargs)

        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if any(arg is g.bits for arg in inputs):
                passes.append(ufunc.__name__)
            inputs = [np.asarray(arg) for arg in inputs]
            return getattr(ufunc, method)(*inputs, **kwargs)

    g.bits = rows.view(Counted)
    monkeypatch.setattr(graphs, "_POPCOUNT", graphs._POPCOUNT.view(Counted))
    monkeypatch.setattr(graphs, "_BLOCK_ENTRIES", 2**8)  # blocks of 8 of the 32 rows
    reports = [profile(g), strong_co_edge_regular(g), weak_edge_regular(g), level(g)]
    cert = certify(g, TLS22_CLAIM)
    reports += [cert, eq1_residual(g, cert)]
    assert passes == [] and looked_up == [8] * 4
    cert = certify(tls22, TLS22_CLAIM)
    assert reports == [profile(tls22), strong_co_edge_regular(tls22), weak_edge_regular(tls22),
                       level(tls22), cert, eq1_residual(tls22, cert)]


def test_certify_k4_two_eigenvalues():
    cert = certify(Graph.complete(4), [(3, 1), (-1, 3)])
    assert cert.ell == 1  # A + I = J


def test_certify_k1_has_ell_one():
    """With no nontrivial factor the product is I, which is J at n = 1."""
    cert = certify(Graph.empty(1), [(0, 1)])
    assert isinstance(cert.ell, Fraction) and cert.ell == 1
    assert (cert.eigenvalues, cert.multiplicities) == ((0,), (1,))


def test_certify_tls24_family_spectrum():
    """The general family spectrum at a non-acceptance instance."""
    from cerg.constructions import tls

    g = tls(2, 4)
    cert = certify(g, [(43, 1), (11, 21), (-1, 64), (-5, 42)])
    assert eq1_residual(g, cert).residual == 0


def test_certify_moment_identities(tls22):
    cert = certify(tls22, TLS22_CLAIM)
    assert sum(m * t for t, m in zip(cert.eigenvalues, cert.multiplicities)) == 0
    assert sum(m * t * t for t, m in zip(cert.eigenvalues, cert.multiplicities)) == 32 * 19
    cubes = sum(m * t**3 for t, m in zip(cert.eigenvalues, cert.multiplicities))
    assert cubes == 6 * triangle_count(tls22)


def test_certify_rejects_wrong_eigenvalue(tls22):
    with pytest.raises((AnnihilationFailed, MomentMismatch)):
        certify(tls22, [(19, 1), (3, 9), (-1, 16), (-6, 6)])


def test_certify_rejects_wrong_multiplicities(tls22):
    with pytest.raises(MomentMismatch):
        certify(tls22, [(19, 1), (3, 10), (-1, 15), (-5, 6)])


def test_certify_rejects_extra_eigenvalue(tls22):
    # padding with a non-eigenvalue of multiplicity.. fails either moments
    # or annihilation
    with pytest.raises((AnnihilationFailed, MomentMismatch)):
        certify(tls22, [(19, 1), (7, 1), (3, 9), (-1, 15), (-5, 6)])


def test_certify_rejects_spurious_extra_value(ls34):
    """A spectrum padded with a non-eigenvalue still annihilates (the extra
    factor maps J to a multiple of J) but cannot satisfy the moments."""
    with pytest.raises(MomentMismatch):
        certify(ls34, [(9, 1), (5, 1), (1, 8), (-3, 6)])


def test_drop_one_products_are_not_constant(tls22):
    """Dropping any nontrivial eigenvalue from the annihilating product
    must break annihilation, as the moments and annihilation together
    guarantee (the minimality argument in certify's docstring)."""
    import numpy as np

    a = tls22.adjacency_matrix()
    eye = np.eye(32, dtype=np.int64)
    thetas = [3, -1, -5]
    for drop in range(3):
        prod = None
        for i, t in enumerate(thetas):
            if i == drop:
                continue
            f = a - t * eye
            prod = f if prod is None else prod @ f
        assert not (prod == prod.flat[0]).all()


def test_certify_requires_regular_connected():
    with pytest.raises(Disconnected):
        certify(Graph.empty(3), [(0, 3)])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    from cerg.regularity import NotRegular

    with pytest.raises(NotRegular):
        certify(path, [(1, 3)])


def test_certify_claim_shape(tls22):
    with pytest.raises(ClaimInvalid):
        certify(tls22, [(18, 1), (4, 9), (-1, 16), (-5, 6)])
    with pytest.raises(MomentMismatch):
        certify(tls22, [(19, 1), (3, 9), (-1, 16), (-5, 5)])


def test_certificate_round_trips_through_json(tls22, tmp_path):
    cert = certify(tls22, TLS22_CLAIM)
    path = tmp_path / "cert.json"
    cert.write(path)
    import json

    claim = claim_from_json(json.loads(path.read_text()))
    assert claim == [(19, 1), (3, 9), (-1, 16), (-5, 6)]


JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["eigs", "mults", "ell"]) | st.text(max_size=2), inner, max_size=3
    ),
    max_leaves=12,
)
CLAIM_LIKE = st.fixed_dictionaries(
    {
        "eigs": st.lists(JSON_LEAVES | st.lists(JSON_LEAVES, max_size=3), max_size=4),
        "mults": st.lists(JSON_LEAVES, max_size=4),
    }
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | CLAIM_LIKE)
def test_claim_from_json_returns_integer_pairs_or_raises_a_usage_error(obj):
    """Whatever JSON a claim file holds, parsing gives exact pairs or an
    error the CLI maps to exit 2, never a float rounded into a claim."""
    try:
        claim = claim_from_json(obj)
    except (ValueError, KeyError, TypeError):
        return
    assert isinstance(claim, list)
    for theta, m in claim:
        assert isinstance(theta, Fraction)
        assert type(m) is int
    assert len(claim) == len(obj["eigs"]) == len(obj["mults"])


def test_claim_from_json_reads_numpy_integers_as_python_ones(tls22):
    """A library caller may build a claim from NumPy arrays: its integers
    are accepted, as Python ints, and certify the same spectrum."""
    i64 = np.int64
    claim = claim_from_json(
        {"eigs": [i64(19), [i64(3), i64(1)], -1, i64(-5)], "mults": list(np.array([1, 9, 16, 6]))}
    )
    assert claim == TLS22_CLAIM
    assert all(type(x) is int for t, m in claim for x in (t.numerator, t.denominator, m))
    assert certify(tls22, claim) == certify(tls22, TLS22_CLAIM)


def test_certify_verdict_matches_char_poly_factorization(tls22, ls34, h6):
    for g, claim in (
        (tls22, TLS22_CLAIM),
        (h6, [(10, 1), (1, 5), (0, 4), (-3, 5)]),
        (ls34, [(9, 1), (1, 9), (-3, 6)]),
    ):
        cert = certify(g, claim)
        assert char_poly(g) == poly_from_roots(claim)
        assert cert.checks["annihilation"]


# -- cospectral


def test_cospectral_pair_tls_vs_clique_extension(tls22, ls34):
    rep = cospectral(tls22, clique_extension(ls34, 2))
    assert rep.cospectral and rep.method == "char-poly"


def test_cospectral_via_shared_certificate(tls22, ls34):
    rep = cospectral(tls22, clique_extension(ls34, 2), claim=TLS22_CLAIM)
    assert rep.cospectral and rep.method == "shared-certificate"
    assert rep.certificate.ell == 240


def test_not_cospectral_k4_c4():
    rep = cospectral(Graph.complete(4), cycle(4))
    assert not rep.cospectral
    assert rep.witness_power == 2  # first disagreement at the x^2 coefficient


def test_cospectral_self(tls22):
    assert cospectral(tls22, tls22).cospectral


def union(*graphs):
    """Disjoint union, the graphs' vertices in order."""
    import numpy as np

    a = np.zeros((sum(g.n for g in graphs),) * 2, dtype=bool)
    at = 0
    for g in graphs:
        a[at : at + g.n, at : at + g.n] = g.rows(slice(None))
        at += g.n
    return Graph(a)


def cube(d):
    n = 2**d
    return Graph.from_edges(n, [(u, u ^ (1 << b)) for u in range(n) for b in range(d) if u < u ^ (1 << b)])


def bipartite(m):
    return Graph.from_edges(2 * m, [(i, m + j) for i in range(m) for j in range(m)])


def shrikhande():
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    return Graph.from_edges(
        16,
        [(4 * x + y, 4 * ((x + dx) % 4) + (y + dy) % 4) for x in range(4) for y in range(4)
         for dx, dy in steps if 4 * x + y < 4 * ((x + dx) % 4) + (y + dy) % 4],
    )


def char_poly_verdict(g1, g2):
    """(cospectral, highest differing coefficient) from two char polys."""
    p1, p2 = char_poly(g1), char_poly(g2)
    differ = [j for j in range(len(p1)) if p1[j] != p2[j]]
    return not differ, differ[-1] if differ else None


def test_power_sum_compare_matches_char_poly_on_a_zoo(tls22, ls34):
    """Every equal-order pair: the same verdict and witness as char_poly.
    C_10 has six distinct eigenvalues and no relation, so its pairs take
    char_poly on both sides; every other pair compares power sums."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    k = Graph.complete
    rook44 = latin_square_graph(oa_macneish(4), 2)
    prism = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])
    zoo = [
        [k(4), cycle(4), union(k(2), k(2))],
        [cycle(6), bipartite(3), union(k(3), k(3)), prism],
        [cycle(8), union(cycle(4), cycle(4)), cube(3), disjoint_k4s(), bipartite(4)],
        [petersen(), cycle(10), union(cycle(5), cycle(5)), bipartite(5), union(k(5), k(5))],
        [cube(4), rook44, shrikhande()],
        [tls22, clique_extension(ls34, 2), clique_extension(latin_square_graph(oa_macneish(4), 2), 2)],
    ]
    verdicts = {}
    for group in zoo:
        for i, g1 in enumerate(group):
            for j, g2 in enumerate(group):
                rep = cospectral(g1, g2)
                assert rep.method == "char-poly"
                assert (rep.cospectral, rep.witness_power) == char_poly_verdict(g1, g2), (g1, g2)
                verdicts[g1.n, i, j] = rep.witness_power
    assert verdicts[8, 0, 1] == 4  # C_8 vs 2 C_4
    assert cospectral(rook44, shrikhande()).cospectral
    assert verdicts[32, 0, 1] is None and verdicts[32, 0, 2] == 30


# -- theorem 3.3 identities


def test_theorem33_tls22(tls22):
    cert = certify(tls22, TLS22_CLAIM)
    s = strong_co_edge_regular(tls22)
    w = weak_edge_regular(tls22)
    rep = theorem33_identities(tls22, cert, w.alpha, w.beta, s.mu, s.gamma)
    first, second, third = rep.identities
    assert first.equal and first.lhs == -3  # alpha - mu = sum of thetas
    assert third.equal and third.lhs == 240  # mu(k - alpha) + gamma = ell
    # the middle identity as printed has the wrong sign: 13 vs -13
    assert (second.lhs, second.rhs) == (13, -13)
    assert not second.equal
    assert abs(second.lhs) == abs(second.rhs)
    assert rep.sign_flipped
    # identities 1 and 3 give alpha and gamma back from the spectrum
    assert w.alpha == first.rhs + s.mu
    assert s.gamma == s.mu * (first.rhs - rep.k + s.mu) + third.rhs
    assert rep.ok


def test_theorem33_brute_force_sign_resolution(tls22):
    """Direct evaluation fixes the orientation: f1 = -(t1t2+t1t3+t2t3)."""
    k, n = 19, 32
    alpha, beta, mu, gamma = 9, -18, 12, 120
    t1, t2, t3 = 3, -1, -5
    f1 = mu * (alpha - 1) + k - beta - gamma
    e2 = t1 * t2 + t1 * t3 + t2 * t3
    assert f1 == 13 and e2 == -13
    assert f1 == -e2


def test_theorem33_f3_matches_e3(tls22):
    cert = certify(tls22, TLS22_CLAIM)
    s = strong_co_edge_regular(tls22)
    w = weak_edge_regular(tls22)
    rep = theorem33_identities(tls22, cert, w.alpha, w.beta, s.mu, s.gamma)
    t1, t2, t3 = cert.eigenvalues[1:]
    assert rep.f3 == t1 * t2 * t3  # the I-coefficient of the cubic


def test_theorem33_requires_four_eigenvalues(ls34):
    cert = certify(ls34, [(9, 1), (1, 9), (-3, 6)])
    with pytest.raises(WrongEigenvalueCount):
        theorem33_identities(ls34, cert, 1, 1, 6, 6)


# -- eq (1) residual


def test_eq1_residual_zero(tls22, h27):
    cert = certify(tls22, TLS22_CLAIM)
    assert eq1_residual(tls22, cert).residual == 0
    cert27 = certify(h27, [(44, 1), (8, 26), (5, 12), (-4, 78)])
    assert eq1_residual(h27, cert27).residual == 0


def test_eq1_residual_detects_perturbation(tls22):
    bad = SpectrumCertificate(
        n=32,
        k=Fraction(19),
        eigenvalues=(Fraction(19), Fraction(3), Fraction(-1), Fraction(-6)),
        multiplicities=(1, 9, 16, 6),
        ell=Fraction((19 - 3) * (19 + 1) * (19 + 6), 32),
        checks={},
    )
    rep = eq1_residual(tls22, bad)
    assert rep.residual != 0
    assert rep.position is not None


# -- goldberg inequality


def test_goldberg_complement_tls22(tls22):
    gc = complement(tls22)
    claim = [(12, 1), (4, 6), (0, 16), (-4, 9)]
    cert = certify(gc, claim)
    rep = goldberg(gc, -4, 4, cert)
    assert (rep.lhs, rep.rhs) == (Fraction(-256, 25), Fraction(-336, 25))
    assert not rep.violated


def test_goldberg_validates_eigenvalues(tls22):
    gc = complement(tls22)
    cert = certify(gc, [(12, 1), (4, 6), (0, 16), (-4, 9)])
    with pytest.raises(NotAnEigenvalue):
        goldberg(gc, -4, 5, cert)
    with pytest.raises(NotAnEigenvalue):
        goldberg(gc, 12, 4, cert)  # the valency is excluded
    # without a certificate the verified Hoffman relation is consulted
    with pytest.raises(NotAnEigenvalue):
        goldberg(gc, -4, 5)
    assert not goldberg(gc, -4, 4).violated


def test_goldberg_without_certificate_computes_char_poly_once(monkeypatch):
    """C_12 has no Hoffman polynomial, so its char poly is consulted."""
    calls = []

    def counted(g):
        calls.append(g)
        return char_poly(g)

    monkeypatch.setattr(spectral, "char_poly", counted)
    assert not goldberg(cycle(12), 1, -1).violated
    assert len(calls) == 1


def test_goldberg_without_certificate_asks_the_relation_once(tls22, monkeypatch):
    calls = []
    search = spectral._hoffman_polynomial

    def counted(g):
        calls.append(g)
        return search(g)

    def refuse(g):
        raise AssertionError("char_poly used")

    monkeypatch.setattr(spectral, "_hoffman_polynomial", counted)
    monkeypatch.setattr(spectral, "char_poly", refuse)
    assert not goldberg(complement(tls22), -4, 4).violated
    assert len(calls) == 1
    with pytest.raises(NotAnEigenvalue, match="Hoffman polynomial"):
        goldberg(complement(tls22), -4, 5)


def test_goldberg_without_certificate_past_the_char_poly_ceiling():
    """LS_3(24) (n = 576) is edge-regular with eigenvalues 69, 21 and -3:
    its relation A^2 = 18A + 63I + 6J decides them without char_poly."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    g = latin_square_graph(oa_macneish(24), 3)
    assert g.n == 576 > spectral.CHAR_POLY_MAX_N
    assert spectral._hoffman_polynomial(g) == ([63, 18], 6)
    with pytest.raises(TooLarge):
        char_poly(g)
    rep = goldberg(g, 21, -3)
    assert (rep.k, rep.lam) == (69, 24)
    with pytest.raises(NotAnEigenvalue, match="Hoffman polynomial"):
        goldberg(g, 21, -4)
    with pytest.raises(NotAnEigenvalue):
        goldberg(g, Fraction(1, 2), -3)


def test_goldberg_requires_edge_regular(tls22):
    with pytest.raises(NotEdgeRegular):
        goldberg(tls22, 3, -5)  # TLS itself has three lambda values


def test_goldberg_violation_is_exact():
    from cerg.constructions import tls

    gc = complement(tls(2, 3))
    claim = [(40, 1), (4, 20), (0, 36), (-8, 15)]
    cert = certify(gc, claim)
    rep = goldberg(gc, 4, -8, cert)
    assert rep.violated
    assert rep.lhs == Fraction(-15872, 441)
    assert rep.rhs == Fraction(-15200, 441)


def test_goldberg_violated_by_clique_extension_complement():
    """Complements of s-clique extensions of LS graphs also break the
    inequality once the order is large enough (here s=2, order 6)."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph

    ext = clique_extension(latin_square_graph(oa_macneish(6), 3), 2)
    gc = complement(ext)
    assert gc.is_regular() == (True, 40)
    # complement spectrum of the 2-extension: theta -> -1-theta
    cert = certify(gc, [(40, 1), (4, 20), (0, 36), (-8, 15)])
    assert goldberg(gc, 4, -8, cert).violated
    # smaller orders do not violate yet
    ext4 = clique_extension(latin_square_graph(oa_macneish(4), 3), 2)
    gc4 = complement(ext4)
    cert4 = certify(gc4, [(12, 1), (4, 6), (0, 16), (-4, 9)])
    assert not goldberg(gc4, 4, -4, cert4).violated


def test_complement_of_tls22_is_12_regular(tls22):
    assert complement(tls22).is_regular() == (True, 31 - 19)


def test_certify_rejects_non_integer_eigenvalue(tls22, tmp_path, capsys):
    """A rational root of a monic integer polynomial is an integer."""
    half = [(19, 1), (Fraction(1, 2), 9), (-1, 16), (-5, 6)]
    with pytest.raises(ClaimInvalid, match="integers"):
        certify(tls22, half)

    from cerg.cli import main
    from cerg.graphs import write_graph6

    g6, claim = tmp_path / "tls22.g6", tmp_path / "half.json"
    write_graph6(tls22, g6)
    claim.write_text('{"eigs": [19, [1, 2], -1, -5], "mults": [1, 9, 16, 6]}')
    capsys.readouterr()
    assert main(["verify", "spectrum", "-i", str(g6), "--claim", str(claim)]) == 1
    import json

    rep = json.loads(capsys.readouterr().out)
    assert rep["reports"]["spectrum"]["error"] == "ClaimInvalid"


def switched_rook44():
    """The 4x4 rook's graph after one 2-switch: 6-regular and connected on
    16 vertices, so the rook graph's spectrum 6^1 2^6 (-2)^9 passes the
    moments, but the switch breaks annihilation in some rows only.  The
    relabelling puts four untouched rows first and the rows holding the
    largest eq1 residual last."""
    import numpy as np

    i, j = np.divmod(np.arange(16), 4)
    a = (i[:, None] == i) ^ (j[:, None] == j)
    for u, v in ((10, 11), (15, 12)):
        a[u, v] = a[v, u] = False
    for u, v in ((10, 15), (11, 12)):
        a[u, v] = a[v, u] = True
    order = [1, 3, 5, 7, 0, 2, 4, 6, 8, 9, 13, 14, 10, 11, 12, 15]
    return Graph(a[np.ix_(order, order)])


def test_streamed_witnesses_equal_whole_matrix_answers(monkeypatch):
    import numpy as np

    from cerg import regularity

    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 3 * 16)  # 3 rows a tile
    g = switched_rook44()
    a = g.adjacency_matrix().astype(object)
    eye = np.eye(16, dtype=object)

    with pytest.raises(AnnihilationFailed) as info:
        certify(g, [(6, 1), (2, 6), (-2, 9)])
    resid = a @ a - 4 * eye - 2  # (A - 2I)(A + 2I) - ell J with ell = 2
    i, j = np.argwhere(resid != 0)[0].tolist()
    assert i >= 3  # a later tile
    assert info.value.witness == {"entry": (i, j), "got": resid[i, j] + 2, "expected": 2}

    # eigenvalues 2, 0, -2 and ell = 4 * 6 * 8 / 16 = 12, by hand
    thetas = tuple(Fraction(t) for t in (6, 2, 0, -2))
    cert = SpectrumCertificate(16, Fraction(6), thetas, (1, 6, 0, 9), Fraction(12), {})
    resid = a @ a @ a - 4 * a - 12
    mag = np.abs(resid)
    i, j = np.argwhere(mag == mag.max())[0].tolist()
    assert i >= 3 and 0 < mag[:i].max() < mag.max()  # beats an earlier tile's max
    rep = eq1_residual(g, cert)
    assert rep.position == (i, j) and rep.residual == resid[i, j]


def test_claim_free_compare_does_not_import_numpy_ma(tls22, ls34, tmp_path):
    """`_hoffman_candidate` dedups entry patterns in Python: np.unique with
    an axis pulls in numpy.ma, 13-16 ms of every compare child's start."""
    import os
    import subprocess
    import sys

    import cerg
    from cerg.graphs import write_graph6

    ext = clique_extension(ls34, 2)
    paths = [str(tmp_path / "tls22.g6"), str(tmp_path / "ext.g6")]
    for g, path in zip((tls22, ext), paths):
        write_graph6(g, path)
    code = (
        "import sys\n"
        "from cerg.cli import main\n"
        f"assert main(['compare', {paths[0]!r}, {paths[1]!r}]) == 0\n"
        "print('numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(cerg.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert '"method": "char-poly"' in out.stdout
    assert out.stderr.strip() == "False"


def test_certify_five_eigenvalues_over_several_row_tiles(monkeypatch):
    """The 4-cube has spectrum 4, 2^4, 0^6, (-2)^4, -4: d = 4 takes the
    tr A^4 moment and A^4 itself, here summed and compared in 3-row tiles."""
    from cerg import regularity

    monkeypatch.setattr(regularity, "_TILE_ENTRIES", 3 * 16)
    edges = [(u, u ^ (1 << b)) for u in range(16) for b in range(4) if u < u ^ (1 << b)]
    cube = Graph.from_edges(16, edges)
    assert spectral._traces(cube, 4) == [16, 0, 64, 0, 640]
    cert = certify(cube, [(4, 1), (2, 4), (0, 6), (-2, 4), (-4, 1)])
    assert cert.ell == 24  # 2 * 4 * 6 * 8 / 16
