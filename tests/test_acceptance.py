"""Acceptance suite: every criterion is exact (zero tolerance) and prints
one pass/fail line.  Failures raise, so a printed PASS is backed by the
assertions above it.
"""

import itertools
import time
from fractions import Fraction

from cerg.arrays import oa_macneish
from cerg.constructions import latin_square_graph, tls, tls_structure
from cerg.geometry import parallel_classes, verify_parallel_classes
from cerg.graphs import Graph, clique_extension, complement, local_graph
from cerg.regularity import (
    equitable_check,
    profile,
    scheme_check,
    strong_co_edge_regular,
    weak_edge_regular,
)
from cerg.spectral import (
    certify,
    char_poly,
    cospectral,
    eq1_residual,
    goldberg,
    poly_from_spectrum,
    theorem33_identities,
)
from conftest import brute_lambda_mu

TLS22_CLAIM = [(19, 1), (3, 9), (-1, 16), (-5, 6)]
TLS33_CLAIM = [(98, 1), (17, 32), (-1, 162), (-10, 48)]
TLS26_CLAIM = [(67, 1), (19, 33), (-1, 144), (-5, 110)]
H6_CLAIM = [(10, 1), (1, 5), (0, 4), (-3, 5)]
H27_CLAIM = [(44, 1), (8, 26), (5, 12), (-4, 78)]
EXT2_TLS22_CLAIM = [(39, 1), (7, 9), (-1, 48), (-9, 6)]


def report(num, text):
    print(f"[acceptance] criterion {num:2d}: PASS  ({text})")


def test_criterion_01_tls22_certificate(tls22):
    t0 = time.monotonic()
    assert tls22.n == 32
    assert tls22.is_regular() == (True, 19)
    cert = certify(tls22, TLS22_CLAIM)
    assert cert.ell == 240
    assert eq1_residual(tls22, cert).residual == 0
    assert char_poly(tls22) == poly_from_spectrum(TLS22_CLAIM)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"TLS(2,2) certified, ell=240, residual 0, {elapsed:.3f}s")


def test_criterion_02_tls33_certificate(tls33):
    t0 = time.monotonic()
    assert tls33.n == 243
    assert tls33.is_regular() == (True, 98)
    cert = certify(tls33, TLS33_CLAIM)
    assert eq1_residual(tls33, cert).residual == 0
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(2, f"TLS(3,3) certified, residual 0, {elapsed:.2f}s")


def test_criterion_03_cospectral_nonisomorphic_pairs(tls22, ls34):
    t0 = time.monotonic()
    ext = clique_extension(ls34, 2)
    assert char_poly(tls22) == char_poly(ext)
    assert profile(tls22).level_co_edge == 3
    assert profile(ext).level_co_edge == 2
    # 288-vertex pair through the annihilation certificate path
    big_tls = tls(2, 6)
    big_ext = clique_extension(latin_square_graph(oa_macneish(12), 3), 2)
    rep = cospectral(big_tls, big_ext, claim=TLS26_CLAIM)
    assert rep.cospectral and rep.method == "shared-certificate"
    assert profile(big_tls).level_co_edge == 3
    assert profile(big_ext).level_co_edge == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    report(3, f"32- and 288-vertex pairs cospectral, levels 3 vs 2, {elapsed:.2f}s")


def test_criterion_04_tls22_profile(tls22):
    prof = profile(tls22)
    assert prof.mu == 12
    assert prof.lambda_multiset == {14: 48, 10: 240, 6: 16}
    lam_oracle, mu_oracle = brute_lambda_mu(tls22)
    assert prof.lambda_multiset == lam_oracle
    assert mu_oracle == {12: sum(mu_oracle.values())}
    assert prof.level_co_edge == 3
    report(4, "profile: mu=12, lambda multiset {14:48, 10:240, 6:16}, level 3")


def test_criterion_05_strong_weak_and_theorem33(tls22):
    strong = strong_co_edge_regular(tls22)
    weak = weak_edge_regular(tls22)
    assert (strong.mu, strong.gamma) == (12, 120)
    assert (weak.alpha, weak.beta) == (9, -18)
    cert = certify(tls22, TLS22_CLAIM)
    rep = theorem33_identities(tls22, cert, weak.alpha, weak.beta, strong.mu, strong.gamma)
    first, second, third = rep.identities
    assert first.equal  # alpha - mu = theta1 + theta2 + theta3, exactly
    assert third.equal
    assert abs(second.lhs) == abs(second.rhs)  # printed sign disagrees,
    assert rep.sign_flipped  # resolved orientation: lhs = -(sum of products)
    assert rep.ok
    report(5, "(mu,gamma)=(12,120), (alpha,beta)=(9,-18), identities verified")


def test_criterion_06_tls22_local_structure(tls22):
    expected_quotient = ((2, 3, 8, 1), (3, 2, 4, 1), (2, 1, 7, 0), (3, 3, 0, 0))
    for u in range(tls22.n):
        st = tls_structure(tls22, u)
        sizes = (len(st.a_union), len(st.b_union), len(st.c_union), len(st.r))
        assert sizes == (3, 3, 12, 1)
        nbrs = sorted(tls22.neighbors(u))
        pos = {v: i for i, v in enumerate(nbrs)}
        parts = [
            [pos[v] for v in st.a_union],
            [pos[v] for v in st.b_union],
            [pos[v] for v in st.c_union],
            [pos[v] for v in st.r],
        ]
        rep = equitable_check(local_graph(tls22, u), parts)
        assert rep.ok and rep.quotient == expected_quotient
    for key, members in tls22.all_cliques():
        inside = set(members)
        for v in range(tls22.n):
            if v not in inside:
                assert len(inside.intersection(tls22.neighbors(v))) == 4
    report(6, "all 32 vertices: sizes (3,3,12,1), quotient matrix exact, q^2 law")


def test_criterion_07_h_graphs(h6, h27):
    t0 = time.monotonic()
    certify(h6, H6_CLAIM)
    p6 = profile(h6)
    assert p6.mu == 8 == 2 * (2 + 2)
    assert p6.level_co_edge == 2
    certify(h27, H27_CLAIM)
    p27 = profile(h27)
    assert p27.mu == 15 == 3 * (3 + 2)
    assert p27.level_co_edge == 2
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(7, f"H-graphs certified with mu=t(t+2), level 2, {elapsed:.2f}s")


def test_criterion_08_three_class_scheme(h6):
    a = h6.adjacency_matrix()
    a2 = a @ a
    lam_values = sorted({int(v) for v in (a2 * a)[a == 1]})
    assert len(lam_values) == 2
    relations = [
        Graph(((a == 1) & (a2 == lv)).astype(int)) for lv in lam_values
    ]
    relations.append(complement(h6))
    rep = scheme_check(relations)
    assert rep.ok and rep.classes == 3
    report(8, f"edges split at lambda {lam_values} + non-edges: 3-class scheme")


def test_criterion_09_parallel_classes():
    t0 = time.monotonic()
    for q in (2, 3, 4, 5):
        assert verify_parallel_classes(parallel_classes(q)).ok
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(9, f"parallel classes verified for q in {{2,3,4,5}}, {elapsed:.2f}s")


def test_criterion_10_clique_extension_of_tls(tls22):
    ext = clique_extension(tls22, 2)
    prof = profile(ext)
    assert prof.level_co_edge == 4
    cert = certify(ext, EXT2_TLS22_CLAIM)
    assert cert.eigenvalues == (39, 7, -1, -9)  # 4-clique extension of LS_3(4)
    report(10, "2-clique extension of TLS(2,2): level 4, certified spectrum")


def complement_tls2_claim(n):
    """Spectrum of the complement of TLS(2, n), derived from the TLS
    corollary by theta -> -1-theta (and k -> N-1-k)."""
    big_n = 8 * n * n
    k = 12 * n - 5
    pairs = [
        (big_n - 1 - k, 1),
        (4, (2 * n - 1) * (n - 1) * 2),
        (0, 4 * n * n),
        (-4 * (n - 1), (2 * n - 1) * 3),
    ]
    return sorted(pairs, reverse=True)


def test_criterion_11_goldberg_sweep():
    t0 = time.monotonic()
    first_violation = None
    for n in range(2, 13):
        gc = complement(tls(2, n))
        cert = certify(gc, complement_tls2_claim(n))
        nontrivial = cert.eigenvalues[1:]
        for ta, tb in itertools.combinations(nontrivial, 2):
            rep = goldberg(gc, ta, tb, cert)
            if rep.violated:
                first_violation = (n, ta, tb, rep.lhs, rep.rhs)
                break
        if first_violation:
            break
    assert first_violation is not None, "no violation found for n <= 12"
    n, ta, tb, lhs, rhs = first_violation
    assert isinstance(lhs, Fraction) and isinstance(rhs, Fraction)
    assert lhs < rhs
    assert n == 3  # frozen after the sweep oracle first reported it
    assert (ta, tb) == (4, -8)
    assert (lhs, rhs) == (Fraction(-15872, 441), Fraction(-15200, 441))
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    report(
        11,
        f"first violation at n={n}, pair ({ta},{tb}): {lhs} < {rhs}, {elapsed:.2f}s",
    )


def test_criterion_12_oracle_equivalence_and_determinism(tls22, tls33, ls34, h6, h27):
    t0 = time.monotonic()
    instances = [
        (tls22, TLS22_CLAIM),
        (clique_extension(ls34, 2), TLS22_CLAIM),
        (h6, H6_CLAIM),
        (h27, H27_CLAIM),
        (tls33, TLS33_CLAIM),
        (tls(2, 6), TLS26_CLAIM),
        (clique_extension(tls22, 2), EXT2_TLS22_CLAIM),
    ]
    for g, claim in instances:
        assert g.n <= 512
        cert = certify(g, claim)
        assert char_poly(g) == poly_from_spectrum(claim), g
        assert cert.checks["annihilation"]
    elapsed = time.monotonic() - t0
    report(12, f"certify == char_poly factorization on all instances, {elapsed:.2f}s")
