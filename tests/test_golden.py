"""Golden-output regression: CLI reports must stay byte-identical.

The files under ``tests/golden/`` were recorded from the int64-matmul
implementation that preceded the float64 BLAS kernel and the per-graph
powers cache.  Every report is the CLI's JSON with only ``wall_time_s``
and ``command`` removed, re-serialised in its original key order.  They
are the executable form of the rule that a faster kernel must not change
a single byte of any report; do not re-record them to make a change
pass.  ``construct.json`` pins the ``cerg construct`` families that the
reports' input digests do not cover: for each, the summary line on
stdout and the sha256 of the graph6 file and of its sidecar, recorded
from the bitset-row graphs that preceded the boolean-matrix ones.  The
``compare`` cases without ``--claim`` were recorded when ``char_poly``
had only its modular Hessenberg + CRT path; they pin its verdicts (a
cospectral pair, a pair that differs at x^30, and a pair of irregular
graphs) across the Hoffman-polynomial route.  The four failing or
large ``verify`` cases (the circulants' strong and weak witnesses, one
with a non-integer weak target, and ``profile`` on tls(4,5)) were
recorded from the float64 kernel before the float32 tier, syrk Gram
products and table-driven tallies; they pin the witnesses those must
keep.  The goldberg, hoffman, equitable and scheme cases and the
rejected spectrum claim were recorded from the per-report hand-written
``[numerator, denominator]`` encoders that preceded the one JSON hook.
``PYTHONPATH=src python tests/test_golden.py`` prints any case that
differs (``--write`` records the current outputs instead).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from cerg.arrays import oa_macneish
from cerg.cli import main
from cerg.graphs import Graph, write_graph6

GOLDEN = Path(__file__).parent / "golden"

# fixture name -> (construct arguments, spectrum claim)
FIXTURES = {
    "tls22": (
        ["tls", "--q", "2", "--n", "2"],
        {"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]},
    ),
    "tls33": (
        ["tls", "--q", "3", "--n", "3"],
        {"eigs": [98, 17, -1, -10], "mults": [1, 32, 162, 48]},
    ),
    "ls34": (["ls", "--n", "4", "--m", "3"], {"eigs": [9, 1, -3], "mults": [1, 9, 6]}),
    "h6": (
        ["h-graph", "--design", "one-factorization", "--m", "6"],
        {"eigs": [10, 1, 0, -3], "mults": [1, 5, 4, 5]},
    ),
}
CHECKS = ("profile", "strong", "weak", "spectrum", "eq1", "theorem33")
CLAIM_CHECKS = {"spectrum", "eq1", "theorem33"}

CASES = {
    f"verify-{name}-{check}": [
        "verify", check, "-i", f"{name}.g6",
        *(["--claim", f"{name}.spec.json"] if check in CLAIM_CHECKS else []),
    ]
    for name in FIXTURES
    for check in CHECKS
}
CASES["compare-tls22-ext22-claim"] = [
    "compare", "tls22.g6", "ext22.g6", "--claim", "tls22.spec.json",
]
# without --claim, compare goes through char_poly on both graphs
CASES["compare-tls22-ext22"] = ["compare", "tls22.g6", "ext22.g6"]
CASES["compare-tls22-ext24"] = ["compare", "tls22.g6", "ext24.g6"]
CASES["compare-star5-c4k1"] = ["compare", "star5.g6", "c4k1.g6"]
# failing checks pin their witnesses; tls(4,5) is the benchmark's heavy input
CASES["verify-c8-12-strong"] = ["verify", "strong", "-i", "c8-12.g6"]
CASES["verify-c8-124-weak"] = ["verify", "weak", "-i", "c8-124.g6"]
CASES["verify-c10-123-weak"] = ["verify", "weak", "-i", "c10-123.g6"]
CASES["verify-tls45-profile"] = ["verify", "profile", "-i", "tls45.g6"]
# the checks outside the grid above, each passing and failing, and the
# error bodies of a rejected claim and a rejected eigenvalue
GOLDBERG = ["verify", "goldberg", "-i", "ls34.g6", "--theta2", "-3"]
CASES["verify-ls34-goldberg"] = [*GOLDBERG, "--theta", "1"]
CASES["verify-ls34-goldberg-claim"] = [*GOLDBERG, "--theta", "1", "--claim", "ls34.spec.json"]
CASES["verify-ls34-goldberg-not-eigenvalue"] = [*GOLDBERG, "--theta", "2"]
HOFFMAN = ["verify", "hoffman", "-i", "ls34.g6", "--m", "3"]
CASES["verify-ls34-hoffman-clique"] = [*HOFFMAN, "--set", "clique.json", "--kind", "clique"]
CASES["verify-ls34-hoffman-coclique"] = [
    *HOFFMAN, "--set", "coclique.json", "--kind", "coclique",
]
CASES["verify-ls34-hoffman-not-clique"] = [
    *HOFFMAN, "--set", "coclique.json", "--kind", "clique",
]
CASES["verify-tls22-equitable"] = ["verify", "equitable", "-i", "tls22.g6", "--parts", "fibers.json"]
CASES["verify-tls22-equitable-fails"] = [
    "verify", "equitable", "-i", "tls22.g6", "--parts", "vertex0.json",
]
# the graph of order 0: its one partition has an empty quotient, reported null
CASES["verify-k0-equitable"] = ["verify", "equitable", "-i", "k0.g6", "--parts", "no-parts.json"]
CASES["verify-ls34-scheme"] = [
    "verify", "scheme", "-i", "ls34.g6", "--relations", "ls34.g6", "ls34-co.g6",
]
CASES["verify-c8-12-scheme"] = [
    "verify", "scheme", "-i", "c8-12.g6", "--relations", "c8-12.g6", "c8-12-co.g6",
]
# moments 0..2 of C_8(1, 2) match 4, 0^6, -4^1 and ell = 4 is an integer,
# but A(A + 4I) is not 4J: the error body names the first differing entry
CASES["verify-c8-12-spectrum"] = [
    "verify", "spectrum", "-i", "c8-12.g6", "--claim", "c8-12-wrong.spec.json",
]

# irregular graphs: the star K_{1,4} and C_4 plus an isolated vertex,
# the smallest cospectral pair
EDGE_LISTS = {
    "star5": [(0, 1), (0, 2), (0, 3), (0, 4)],
    "c4k1": [(0, 1), (1, 2), (2, 3), (3, 0)],
}
# circulants C_n(S): i ~ j iff i - j = +-s (mod n) for some s in S
CIRCULANTS = {"c8-12": (8, (1, 2)), "c8-124": (8, (1, 2, 4)), "c10-123": (10, (1, 2, 3))}


# LS_3(4) from the MacNeish OA(4, 5): a row-0 class is a clique, a class
# of the unused row 3 a co-clique; both meet the Hoffman bound 4
OA4 = oa_macneish(4).cells
VERIFY_FILES = {
    "clique.json": json.dumps({"set": [c for c in range(16) if OA4[0, c] == 0]}),
    "coclique.json": json.dumps({"set": [c for c in range(16) if OA4[3, c] == 0]}),
    # the four fibers of tls(2,2), each an 8-clique
    "fibers.json": json.dumps({"parts": [list(range(8 * i, 8 * i + 8)) for i in range(4)]}),
    "vertex0.json": json.dumps({"parts": [[0], list(range(1, 32))]}),
    "no-parts.json": json.dumps({"parts": []}),
    "c8-12-wrong.spec.json": json.dumps({"eigs": [4, 0, -4], "mults": [1, 6, 1]}),
}

# OA(5, 4) over Z_5 on columns 5x + y: rows x, y, x + y, x + 2y
OA5 = [[(x, y, x + y, x + 2 * y)[r] % 5 for x in range(5) for y in range(5)]
       for r in range(4)]
INPUT_FILES = {
    "oa5.txt": "OA 5 4\n" + "".join(" ".join(map(str, row)) + "\n" for row in OA5),
    "fibers.json": VERIFY_FILES["fibers.json"],
    # the classes of the OA's third row, co-cliques of LS_2(5)
    "transversal.json": json.dumps(
        {"parts": [[c for c in range(25) if OA5[2][c] == s] for s in range(5)]}
    ),
}
# construct case -> arguments (run in order, after build_inputs)
CONSTRUCT = {
    "block-graph-ag42": ["block-graph", "--design", "affine-lines", "--q", "4", "--d", "2"],
    "h-graph-ag33": ["h-graph", "--design", "affine-lines", "--q", "3", "--d", "3"],
    "complement-tls22": ["complement", "-i", "tls22.g6"],
    "spread-mod-remove-tls22": [
        "spread-mod", "-i", "tls22.g6", "--parts", "fibers.json", "--mode", "remove",
    ],
    "ls-oa5": ["ls", "--oa", "oa5.txt", "--n", "5", "--m", "2"],
    "spread-mod-add-ls25": [
        "spread-mod", "-i", "ls-oa5.g6", "--parts", "transversal.json", "--mode", "add",
    ],
    "tls45": ["tls", "--q", "4", "--n", "5"],
}


@contextlib.contextmanager
def _inside(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _quiet(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def build_inputs(workdir: Path) -> None:
    """Write every fixture graph and claim into workdir (relative names)."""
    with _inside(workdir):
        for name, (family, claim) in FIXTURES.items():
            assert _quiet(["construct", *family, "-o", f"{name}.g6"])[0] == 0
            Path(f"{name}.spec.json").write_text(json.dumps(claim))
        assert _quiet(["construct", "ls", "--n", "4", "--m", "2", "-o", "ls24.g6"])[0] == 0
        # clique extensions (s = 2) of LS_3(4) and LS_2(4), both of order 32
        for base, out in (("ls34", "ext22"), ("ls24", "ext24")):
            ext = ["construct", "clique-ext", "-i", f"{base}.g6", "--s", "2", "-o", f"{out}.g6"]
            assert _quiet(ext)[0] == 0
        for name, edges in EDGE_LISTS.items():
            write_graph6(Graph.from_edges(5, edges), f"{name}.g6")
        for name, (n, steps) in CIRCULANTS.items():
            edges = {tuple(sorted((i, (i + s) % n))) for i in range(n) for s in steps}
            write_graph6(Graph.from_edges(n, sorted(edges)), f"{name}.g6")
        assert _quiet(["construct", "tls", "--q", "4", "--n", "5", "-o", "tls45.g6"])[0] == 0
        for name in ("ls34", "c8-12"):
            co = ["construct", "complement", "-i", f"{name}.g6", "-o", f"{name}-co.g6"]
            assert _quiet(co)[0] == 0
        write_graph6(Graph.from_edges(0, []), "k0.g6")
        for name, text in VERIFY_FILES.items():
            Path(name).write_text(text)


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def construct_outputs(workdir: Path) -> dict:
    """Summary line and output digests of every construct case."""
    out = {}
    with _inside(workdir):
        for name, text in INPUT_FILES.items():
            Path(name).write_text(text)
        for case, family in CONSTRUCT.items():
            code, stdout = _quiet(["construct", *family, "-o", f"{case}.g6"])
            assert code == 0, case
            sidecars = [Path(f"{case}.g6.meta.json"), Path(f"{case}.g6.labels.json")]
            out[case] = {
                "stdout": stdout,
                "graph6_sha256": _sha256(Path(f"{case}.g6")),
                "sidecar_sha256": next(filter(None, map(_sha256, sidecars)), None),
            }
    return out


def render(argv) -> tuple[int, str]:
    """Exit code and the report without its run-dependent fields."""
    code, text = _quiet(argv)
    report = json.loads(text)
    del report["wall_time_s"], report["command"]
    return code, json.dumps(report, indent=2) + "\n"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    build_inputs(path)
    return path


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    code, text = render(CASES[case])
    assert text == (GOLDEN / f"{case}.json").read_text()
    assert code == (0 if json.loads(text)["pass"] else 1)


@pytest.fixture(scope="module")
def constructed(workdir):
    return construct_outputs(workdir)


@pytest.mark.parametrize("case", sorted(CONSTRUCT))
def test_construct_matches_golden(case, constructed):
    golden = json.loads((GOLDEN / "construct.json").read_text())
    assert constructed[case] == golden[case]


if __name__ == "__main__":
    write = "--write" in sys.argv[1:]
    differs = False
    with tempfile.TemporaryDirectory() as tmp:
        build_inputs(Path(tmp))
        with _inside(Path(tmp)):
            results = {case: render(argv)[1] for case, argv in CASES.items()}
        built = json.dumps(construct_outputs(Path(tmp)), indent=2) + "\n"
    results["construct"] = built
    for case, text in sorted(results.items()):
        path = GOLDEN / f"{case}.json"
        if write:
            GOLDEN.mkdir(exist_ok=True)
            path.write_text(text)
        elif not path.exists() or path.read_text() != text:
            print(f"differs: {case}")
            differs = True
    sys.exit(1 if differs else 0)
