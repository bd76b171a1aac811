"""What each subcommand imports, and the lazy package API.

Every case runs in a fresh interpreter, since a module loaded once stays
loaded for the rest of the process.  `import cerg` puts every layer in
sys.modules as a lazy module; a layer counts as loaded once its code has
run, which turns it into a plain module.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import cerg
from cerg import graphs, regularity, spectral
from cerg.arrays import oa_macneish
from cerg.graphs import CheckFailed, clique_extension, write_graph6

SRC = os.path.dirname(os.path.dirname(cerg.__file__))
# NumPy 1 imports numpy.ma with numpy itself
MA_WITH_NUMPY = np.lib.NumpyVersion(np.__version__) < "2.0.0"

# cerg.__all__ before the package became lazy
EXPORTS = {
    "Design", "FieldSpec", "Graph", "GroupDivisibleArray", "NotAPrimePower",
    "OrthogonalArray", "ParallelClassSystem", "SpectrumCertificate", "TlsGraph", "TlsStructure",
    "arrays", "block_graph", "certify", "char_poly", "clique_extension", "complement",
    "constructions", "cospectral", "design_affine_lines", "design_one_factorization",
    "eq1_residual", "equitable_check", "field", "from_graph6_bytes", "geometry", "goa_from_oa",
    "goldberg", "graph6_bytes", "graphs", "h_graph", "hoffman_check", "is_strongly_regular",
    "latin_square_graph", "level", "local_graph", "oa_macneish", "oa_prime_power",
    "parallel_classes", "profile", "read_array", "read_design", "read_graph6", "regularity",
    "scheme_check", "spectral", "spread_modified", "strong_co_edge_regular",
    "theorem33_identities", "tls", "tls_structure", "validate_array", "verify_parallel_classes",
    "weak_edge_regular", "write_array", "write_design", "write_graph6",
}

CHECK_FAILURES = [
    spectral.AnnihilationFailed,
    spectral.MomentMismatch,
    spectral.ClaimInvalid,
    spectral.NotAnEigenvalue,
    spectral.WrongEigenvalueCount,
    spectral.Disconnected,
    regularity.NotRegular,
    regularity.NotCoEdgeRegular,
    regularity.NotEdgeRegular,
    regularity.NotSRG,
    regularity.SetNotClique,
    regularity.SetNotCoclique,
    regularity.PreconditionFailed,
]


def python(code, *args, cwd=None):
    """stdout of `python -c code *args` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


MAIN_THEN_MODULES = """
import _thread, contextlib, io, json, sys, threading, types
from cerg.cli import main
started = []  # every Python thread the command starts, by either route
start, start_raw = threading.Thread.start, _thread.start_new_thread
threading.Thread.start = lambda self: started.append(self.name) or start(self)
_thread.start_new_thread = lambda *a, **k: started.append("_thread") or start_raw(*a, **k)
with contextlib.redirect_stdout(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
modules = sorted(k for k, m in sys.modules.items() if type(m) is types.ModuleType)
print(json.dumps([code, modules, started]))
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, tls22, ls34, rook33):
    d = tmp_path_factory.mktemp("startup")
    write_graph6(tls22, d / "tls22.g6")
    write_graph6(graphs.complement(tls22), d / "comp.g6")
    write_graph6(ls34, d / "ls34.g6")
    write_graph6(clique_extension(ls34, 2), d / "ext.g6")
    write_graph6(rook33, d / "rook33.g6")
    # distance 1, 2 and 3 in the 6-cycle: a three-class scheme
    for i in (1, 2, 3):
        edges = [(v, (v + i) % 6) for v in range(6 if i < 3 else 3)]
        write_graph6(graphs.Graph.from_edges(6, edges), d / f"d{i}.g6")
    # not regular, so a claim-free compare takes the Hessenberg fallback
    write_graph6(graphs.Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]), d / "star5.g6")
    write_graph6(graphs.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3)]), d / "c4k1.g6")
    # 7 distinct eigenvalues: no Hoffman polynomial of degree <= 4, so a
    # claim-free goldberg takes the Hessenberg fallback too
    write_graph6(graphs.Graph.from_edges(12, [(v, (v + 1) % 12) for v in range(12)]), d / "c12.g6")
    claim = {"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]}
    (d / "tls22.spec.json").write_text(json.dumps(claim))
    claim = {"eigs": [12, 4, 0, -4], "mults": [1, 6, 16, 9]}
    (d / "comp.spec.json").write_text(json.dumps(claim))
    (d / "all.json").write_text(json.dumps({"parts": [list(range(32))]}))
    cells = oa_macneish(4).cells
    (d / "line.json").write_text(json.dumps({"set": [c for c in range(16) if cells[0, c] == 0]}))
    cells = oa_macneish(3).cells
    parts = [[c for c in range(9) if cells[0, c] == s] for s in range(3)]
    (d / "rows.json").write_text(json.dumps({"parts": parts}))
    return d


def loaded(workdir, *argv):
    """(exit code, modules, names of the threads started) of one
    `cerg.cli.main(argv)` in a fresh interpreter."""
    code, modules, started = json.loads(python(MAIN_THEN_MODULES, *argv, cwd=workdir))
    return code, set(modules), started


ONE = ["--threads", "1"]
CHECK = ["-i", "tls22.g6", *ONE]
CLAIM = ["--claim", "tls22.spec.json"]
GRAPHS = {"cerg.graphs"}
CHECKERS = GRAPHS | {"cerg.regularity"}
SPECTRAL = CHECKERS | {"cerg.spectral"}
BUILDERS = GRAPHS | {"cerg.arrays", "cerg.constructions", "cerg.field", "cerg.geometry"}
# one case per row of README's start-up table
CASES = {
    "help": (["--help"], set()),
    "profile": (["verify", "profile", *CHECK], CHECKERS),
    "strong": (["verify", "strong", *CHECK], CHECKERS),
    "weak": (["verify", "weak", *CHECK], CHECKERS),
    "equitable": (["verify", "equitable", *CHECK, "--parts", "all.json"], CHECKERS),
    "hoffman": (
        ["verify", "hoffman", "-i", "ls34.g6", "--set", "line.json", "--kind", "clique", "--m", "3"],
        CHECKERS,
    ),
    "scheme": (["verify", "scheme", "-i", "d1.g6", "--relations", "d1.g6", "d2.g6", "d3.g6"], CHECKERS),
    "spectrum": (["verify", "spectrum", *CHECK, *CLAIM], SPECTRAL),
    "eq1": (["verify", "eq1", *CHECK, *CLAIM], SPECTRAL),
    "theorem33": (["verify", "theorem33", *CHECK, *CLAIM], SPECTRAL),
    "goldberg": (
        ["verify", "goldberg", "-i", "comp.g6", "--claim", "comp.spec.json", *ONE,
         "--theta", "-4", "--theta2", "4"],
        SPECTRAL,
    ),
    "compare": (["compare", "tls22.g6", "ext.g6", *ONE], SPECTRAL),
    "compare-claim": (["compare", "tls22.g6", "ext.g6", *ONE, *CLAIM], SPECTRAL),
    "construct-ls": (["construct", "ls", "--n", "4", "--m", "3", "-o", "l.g6"], BUILDERS),
    "construct-tls": (["construct", "tls", "--q", "2", "--n", "2", "-o", "t.g6"], BUILDERS),
    "construct-h-graph": (
        ["construct", "h-graph", "--design", "one-factorization", "--m", "6", "-o", "h.g6"],
        BUILDERS,
    ),
    "construct-spread-mod": (
        ["construct", "spread-mod", "-i", "rook33.g6", "--parts", "rows.json", "--mode", "remove",
         "-o", "s.g6"],
        BUILDERS,
    ),
    "construct-block-graph": (
        ["construct", "block-graph", "--design", "affine-lines", "--q", "2", "--d", "2", "-o", "b.g6"],
        GRAPHS | {"cerg.field", "cerg.geometry"},
    ),
    "construct-clique-ext": (
        ["construct", "clique-ext", "-i", "tls22.g6", "--s", "2", "-o", "x.g6"],
        GRAPHS,
    ),
    "construct-complement": (["construct", "complement", "-i", "tls22.g6", "-o", "c.g6"], GRAPHS),
}
BASE = {"cerg", "cerg.cli"}


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_subcommand_loads_only_its_layers(workdir, case):
    argv, layers = CASES[case]
    code, modules, started = loaded(workdir, *argv)
    assert code == 0 and started == []
    assert {m for m in modules if m.startswith("cerg")} == BASE | layers
    assert MA_WITH_NUMPY or "numpy.ma" not in modules
    assert "concurrent.futures" not in modules
    # input digests use the builtin SHA-256, not OpenSSL's
    assert "_hashlib" not in modules


FALLBACK = {
    "compare": ["compare", "star5.g6", "c4k1.g6"],
    "goldberg": ["verify", "goldberg", "-i", "c12.g6", "--theta", "1", "--theta2", "-1"],
}


@pytest.mark.parametrize("threads", [[], ["--threads", "2"]], ids=["default", "threads-2"])
@pytest.mark.parametrize("case", sorted(FALLBACK))
def test_the_char_poly_fallback_starts_no_thread(workdir, case, threads):
    """The Hessenberg/CRT prime images run in one loop, whatever
    --threads says: no pool, no thread, no concurrent.futures."""
    code, modules, started = loaded(workdir, *FALLBACK[case], *threads)
    assert code == 0 and started == []
    assert "concurrent.futures" not in modules


def test_only_the_fallback_sieves_its_primes():
    code = (
        "from cerg import Graph, spectral, tls\n"
        "sieved = spectral._crt_primes.cache_info\n"
        "print(sieved().currsize)\n"
        "spectral.char_poly(tls(2, 2))  # the Hoffman route\n"
        "print(sieved().currsize)\n"
        "spectral.char_poly(Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)]))\n"
        "print(sieved().currsize)"
    )
    assert python(code).split() == ["0", "0", "1"]


@pytest.mark.skipif(MA_WITH_NUMPY, reason="NumPy 1 imports numpy.ma on import")
def test_tls_build_does_not_import_numpy_ma():
    code = "import sys, cerg\ncerg.tls(2, 2)\nprint('numpy.ma' in sys.modules)"
    assert python(code).strip() == "False"


def test_import_lists_every_layer_but_runs_none():
    code = (
        "import json, sys, types, cerg\n"
        "print(json.dumps(sorted((k, type(m) is types.ModuleType)"
        " for k, m in sys.modules.items() if k.startswith('cerg'))))"
    )
    layers = ["arrays", "constructions", "field", "geometry", "graphs", "regularity", "spectral"]
    expect = [["cerg", True]] + [[f"cerg.{m}", False] for m in layers]
    assert json.loads(python(code)) == expect


def test_every_export_lives_in_a_module_listed_before_it_resolves():
    # a tracer lists the loaded cerg modules, then resolves the names it
    # wraps: the defining module of each must already be on that list
    code = (
        "import sys, cerg, cerg.cli\n"
        "before = {k: m for k, m in sys.modules.items() if k.startswith('cerg')}\n"
        "homes = {getattr(cerg, name).__module__ for name in cerg.__all__ if name not in cerg._EXPORTS}\n"
        "print(sorted(h for h in homes if before.get(h) is not sys.modules[h]))"
    )
    assert python(code).strip() == "[]"


def test_all_keeps_every_export_and_each_resolves():
    assert set(cerg.__all__) == EXPORTS
    for name in cerg.__all__:
        getattr(cerg, name)
    assert set(dir(cerg)) >= EXPORTS
    with pytest.raises(AttributeError):
        cerg.no_such_name


@pytest.mark.parametrize("order", ["arrays, cerg.geometry", "geometry, cerg.arrays"])
def test_field_stays_the_function_in_any_import_order(order):
    code = f"import sys, cerg.{order}\nprint(cerg.field is sys.modules['cerg.field'].field)"
    assert python(code).strip() == "True"


@pytest.mark.parametrize("cls", CHECK_FAILURES, ids=lambda c: c.__name__)
def test_check_failures_share_one_base(cls):
    assert issubclass(cls, CheckFailed) and issubclass(cls, ValueError)

