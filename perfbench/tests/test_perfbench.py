"""Tests of the benchmark itself: its known answers against numpy, its
input generation, its verdict checks and its tracer.

    python -m pytest perfbench/tests
"""

import ast
import json
import shutil
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import graph6codec
import run
import tracer
import workloads
from conftest import BENCH, cli, set_up

W = workloads


def _spectrum(a):
    eigs = np.rint(np.linalg.eigvalsh(a.astype(float))).astype(int)
    pairs = sorted(Counter(eigs.tolist()).items(), reverse=True)
    return {"eigs": [e for e, _ in pairs], "mults": [m for _, m in pairs]}


@pytest.mark.parametrize(
    "workload, files, claim",
    [
        ("verify", ["tls34.g6"], W.TLS34_CLAIM),
        ("verify", ["tls45.g6"], W.TLS45_CLAIM),
        ("compare", ["tls26.g6", "ext26.g6"], W.TLS26_CLAIM),
        ("compare", ["tls33.g6", "ext33.g6"], W.TLS33_CLAIM),
        ("compare", ["tls22.g6"], W.TLS22_CLAIM),
        ("compare", ["ext22.g6"], W.EXT22_CLAIM),
    ],
)
def test_claims_match_eigvalsh(workload, files, claim, verify_inputs, compare_inputs):
    inputs = verify_inputs if workload == "verify" else compare_inputs
    for name in files:
        assert _spectrum(graph6codec.read(inputs[1] / name)) == claim


def _numpy_profile(a):
    """lambda/mu multisets and the regularity constants by float64 BLAS
    (exact here: every entry stays far below 2^53)."""
    a = a.astype(float)
    n = a.shape[0]
    a2 = a @ a
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    adj, non = (a == 1) & upper, (a == 0) & upper
    lam = Counter(a2[adj].astype(int).tolist())
    mu = Counter(a2[non].astype(int).tolist())
    sums = (a * a2) @ a
    gammas = set(sums[non].astype(int).tolist())
    # alpha * lambda(x, y) = sum(x, y) + beta on every edge
    pairs = sorted(set(zip(a2[adj].astype(int).tolist(), sums[adj].astype(int).tolist())))
    (l1, s1), (l2, s2) = pairs[0], pairs[-1]
    alpha = Fraction(s1 - s2, l1 - l2)
    beta = alpha * l1 - s1
    num, den = alpha.numerator, alpha.denominator
    assert np.array_equal(num * a2[adj], den * sums[adj] + int(beta * den))
    assert len(gammas) == 1 and len(mu) == 1
    return {
        "n": n,
        "regular": len(set(a.sum(1).tolist())) == 1,
        "k": int(a[0].sum()),
        "level_co_edge": len(lam),
        "level_edge": None,
        "mu": next(iter(mu)),
        "gamma": gammas.pop(),
        "alpha": [alpha.numerator, alpha.denominator],
        "beta": [beta.numerator, beta.denominator],
    }, {
        "lambda_multiset": {str(v): c for v, c in sorted(lam.items())},
        "mu_multiset": {str(v): c for v, c in sorted(mu.items())},
    }


@pytest.mark.parametrize(
    "name, constants, multisets, claim",
    [
        ("tls34.g6", W.TLS34_PROFILE, W.TLS34_MULTISETS, W.TLS34_CLAIM),
        ("tls45.g6", W.TLS45_PROFILE, W.TLS45_MULTISETS, W.TLS45_CLAIM),
    ],
)
def test_profile_answers_match_numpy(name, constants, multisets, claim, verify_inputs):
    got_constants, got_multisets = _numpy_profile(graph6codec.read(verify_inputs[1] / name))
    assert got_constants == constants
    assert got_multisets == multisets
    # the four-eigenvalue identities tie the constants to the spectrum
    k, *rest = claim["eigs"]
    e1 = sum(rest)
    ell = Fraction((k - rest[0]) * (k - rest[1]) * (k - rest[2]), constants["n"])
    assert constants["alpha"] == [constants["mu"] + e1, 1]
    assert constants["gamma"] == constants["mu"] * (e1 - k + constants["mu"]) + ell
    if name == "tls34.g6":
        assert ell == W.TLS34_ELL


def test_same_seed_gives_byte_identical_inputs(verify_inputs, compare_inputs, tmp_path):
    for name, inputs in (("verify", verify_inputs), ("compare", compare_inputs)):
        again = set_up(name, 1, tmp_path / name)
        files = sorted(p.name for p in inputs[1].iterdir() if not p.name.startswith("."))
        assert files == sorted(p.name for p in again.iterdir() if not p.name.startswith("."))
        for f in files:
            assert (inputs[1] / f).read_bytes() == (again / f).read_bytes(), f
        # a second seed relabels every graph the commands read
        for f in files:
            if f.endswith(".g6") and not f.startswith("base"):
                assert (inputs[1] / f).read_bytes() != (inputs[2] / f).read_bytes(), f


def _cheap(commands):
    # everything but the multi-second n >= 1600 and char-poly commands, once each
    return list({c.name: c for c in commands if c.stage != "heavy"}.values())


@pytest.mark.parametrize("name", ["verify", "compare"])
def test_second_seed_gives_same_verdicts_and_constants(name, verify_inputs, compare_inputs):
    inputs = verify_inputs if name == "verify" else compare_inputs
    for cmd in _cheap(W.WORKLOADS[name].commands(1)):
        reports = []
        for seed in (1, 2):
            out = cli(cmd.argv, inputs[seed])
            assert W.check(cmd, out.code, out.stdout, inputs[seed]) is None, cmd.name
            report = json.loads(out.stdout)
            for volatile in ("command", "inputs", "wall_time_s"):
                report.pop(volatile)
            reports.append(report)
        assert reports[0] == reports[1], cmd.name


def test_rejections_count_as_correct_only_on_exit_1():
    rejects = [c for name in ("verify", "compare") for c in W.WORKLOADS[name].commands(1) if c.expect_code == 1]
    assert [c.name for c in rejects] == ["verify_432.theorem33_swapped", "compare_32.not_cospectral"]
    verdicts = {
        "verify_432.theorem33_swapped": {"check": "theorem33", "accepted": False, "pass": False, "constants": {}},
        "compare_32.not_cospectral": {
            "pass": False,
            "reports": {
                "cospectral": {"cospectral": False, "method": "char-poly"},
                "levels": [{"co_edge": 3}, {"co_edge": 2}],
                "obstruction": "co-edge level",
            },
        },
    }
    for cmd in rejects:
        stdout = json.dumps(verdicts[cmd.name])
        assert W.check(cmd, 1, stdout, Path(".")) is None
        assert W.check(cmd, 0, stdout, Path(".")) is not None
        assert W.check(cmd, 2, stdout, Path(".")) is not None


def test_accepting_checks_reject_a_wrong_constant():
    cmd = W.WORKLOADS["verify"].commands(1)[1]  # verify strong on tls(3,4)
    good = {"check": "strong", "accepted": True, "pass": True, "constants": {"mu": 36, "gamma": 1872}}
    assert W.check(cmd, 0, json.dumps(good), Path(".")) is None
    bad = dict(good, constants={"mu": 36, "gamma": 1871})
    assert "gamma" in W.check(cmd, 0, json.dumps(bad), Path("."))


@pytest.mark.parametrize("n, p", [(1, 0.5), (7, 0.5), (62, 0.3), (63, 0.3), (200, 0.1)])
def test_graph6codec_matches_networkx(n, p):
    g = nx.gnp_random_graph(n, p, seed=n)
    a = nx.to_numpy_array(g, dtype=np.uint8)
    data = graph6codec.encode(a)
    assert data == nx.to_graph6_bytes(g, header=False).rstrip(b"\n")
    assert np.array_equal(graph6codec.decode(data), a)
    perm = graph6codec.permutation(n, "k")
    b = graph6codec.relabel(a, perm)
    assert all(b[u, v] == a[perm[u], perm[v]] for u in range(n) for v in range(n))


def test_tracer_fails_loudly_when_a_name_is_gone():
    import cerg

    for name in tracer.WRAPPED:
        tracer.resolve(cerg, name)
    gone = types.SimpleNamespace(__all__=[])
    with pytest.raises(tracer.TracerError, match="no longer exports"):
        tracer.resolve(gone, "regularity.profile")
    moved = types.SimpleNamespace(__all__=["profile"], profile=types.SimpleNamespace(__module__="cerg.kernel"))
    with pytest.raises(tracer.TracerError, match="now lives in"):
        tracer.resolve(moved, "regularity.profile")
    no_method = types.SimpleNamespace(__all__=["Graph"], Graph=type("Graph", (), {"__module__": "cerg.graphs"}))
    with pytest.raises(tracer.TracerError, match="no method"):
        tracer.resolve(no_method, "graphs.Graph.adjacency_matrix")


def test_tracer_spans_nest_and_are_removed_afterwards(compare_inputs, monkeypatch):
    import cerg
    import cerg.cli
    import cerg.regularity as regularity

    original = regularity.profile
    tr = tracer.Tracer()
    monkeypatch.chdir(compare_inputs[1])
    with tracer.installed(tr, cerg):
        assert regularity.profile is not original
        code = tr.call_main(cerg.cli.main, ["compare", "tls22.g6", "ext22.g6", "--threads", "1"])
    assert code == 1
    assert regularity.profile is original and cerg.profile is original
    names = [s.name for s in tr.spans]
    assert names[0] == "cli.main" and tr.spans[0].parent is None
    for span in tr.spans:
        assert 0 <= span.self_s <= span.total_s
        if span.parent is not None:
            parent = tr.spans[span.parent]
            assert parent.start <= span.start <= span.end <= parent.end
    metrics = tracer.pass_metrics(tr.spans)
    assert metrics["regularity.level.calls"] == 2  # one per graph
    assert metrics["regularity.profile.calls"] == 2  # reached from level
    assert metrics["graphs.read_graph6.calls"] == 2
    assert metrics["graphs.graph6_MBps"] > 0


def test_benchmark_uses_only_exported_names():
    import cerg

    allowed = set(cerg.__all__) | {"cli", "__file__", "__all__"}
    for path in BENCH.glob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith("cerg"):
                pytest.fail(f"{path.name} imports from {node.module}")
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "cerg":
                assert node.attr in allowed, f"{path.name} uses cerg.{node.attr}"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_light_blocks_are_runs_of_consecutive_light_commands():
    stages = [("light", 1.0), ("light", 2.0), ("heavy", 5.0), ("light", 3.0), (None, 1.0), ("light", 0.5)]
    assert run.light_blocks([{"stage": st, "seconds": t} for st, t in stages]) == [3.0, 3.0, 0.5]
    compare = [c.stage for c in W.WORKLOADS["compare"].commands(1)]
    assert run.light_blocks([{"stage": st, "seconds": 1.0} for st in compare]) == [2.0, 2.0]


def test_traced_setup_reaches_the_construction_layers(tmp_path):
    bench = run.Bench(W.WORKLOADS["compare"], 1, 1, 1)
    try:
        layers = bench.traced_setup(tmp_path / "setup", *run.load_cerg())
    finally:
        bench.spawner.close()
    assert sorted(layers) == sorted(tracer.span_metrics([], tracer.SETUP_SPANS, "setup."))
    assert layers["setup.cli.main.calls"] == 9  # tls, ls and clique-ext for three pairs
    assert layers["setup.constructions.tls.calls"] == 3
    assert layers["setup.graphs.write_graph6.calls"] == 9
    for name in ("arrays.oa_macneish", "arrays.validate_array", "geometry.parallel_classes", "field.field"):
        assert layers[f"setup.{name}.calls"] > 0, name
    assert (tmp_path / "setup" / "tls26.g6").is_file()
