import json
import time
import tracemalloc

import pytest

from cerg.cli import main
from cerg.graphs import read_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_tls_writes_graph_and_sidecar(tmp_path, capsys):
    out = tmp_path / "tls22.g6"
    code, text = run(capsys, "construct", "tls", "--q", "2", "--n", "2", "-o", str(out))
    assert code == 0
    summary = json.loads(text)
    assert summary == {"n": 32, "k": 19, "regular": True, "edges": 304}
    g = read_graph6(out)
    assert g.n == 32
    meta = json.loads((tmp_path / "tls22.g6.meta.json").read_text())
    assert meta["family"] == "tls" and meta["q"] == 2 and meta["n"] == 2
    assert len(meta["cliques"]) == 3 * 2 * 2
    assert all(len(c) == 8 for c in meta["cliques"])


def test_construct_h_graph(tmp_path, capsys):
    out = tmp_path / "h6.g6"
    code, text = run(
        capsys, "construct", "h-graph", "--design", "one-factorization", "--m", "6",
        "-o", str(out),
    )
    assert code == 0
    assert json.loads(text)["n"] == 15
    assert read_graph6(out).is_regular() == (True, 10)


def test_construct_degenerate_h_graph_flagged(tmp_path, capsys):
    out = tmp_path / "h.g6"
    code, text = run(
        capsys, "construct", "h-graph", "--design", "affine-lines", "--q", "3",
        "--d", "2", "-o", str(out),
    )
    assert code == 0
    assert json.loads(text)["degenerate_complete"] is True


def test_construct_with_mismatched_goa_exits_2(tmp_path, capsys):
    from cerg.arrays import goa_from_oa, oa_prime_power, write_array

    goa_path = tmp_path / "custom.goa"
    write_array(goa_from_oa(oa_prime_power(3), 3), goa_path)
    code, _ = run(
        capsys, "construct", "tls", "--q", "2", "--n", "2", "--goa", str(goa_path),
        "-o", str(tmp_path / "x.g6"),
    )
    assert code == 2


# n = 1000 would first build a 9 x 10^6 int64 MacNeish array
@pytest.mark.parametrize("n", [150, 1000])
def test_construct_oversized_ls_exits_2(tmp_path, capsys, n):
    tracemalloc.start()
    try:
        code = main(["construct", "ls", "--n", str(n), "--m", "2", "-o", str(tmp_path / "x.g6")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert peak < 2**20  # rejected before the n^4-byte adjacency matrix
    assert f"vertex count {n * n} outside" in json.loads(err)["detail"]
    assert not (tmp_path / "x.g6").exists()


def traced_exit(argv):
    """(exit code, traced peak bytes, seconds) of one CLI run."""
    t0 = time.monotonic()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, peak, time.monotonic() - t0


# the blocks are the vertices; building these designs took 36 s (AG(3, 16))
# or memory growing as m^2 before the vertex count was checked
@pytest.mark.parametrize("family", ["block-graph", "h-graph"])
@pytest.mark.parametrize("design, blocks", [
    (["affine-lines", "--q", "16", "--d", "3"], 16**2 * (16**3 - 1) // 15),
    (["affine-lines", "--q", "64", "--d", "3"], 64**2 * (64**3 - 1) // 63),
    (["affine-lines", "--q", "256", "--d", "2"], 256 * 257),
    (["affine-lines", "--q", "64", "--d", "4"], 64**3 * (64**4 - 1) // 63),
    (["one-factorization", "--m", "2000"], 2000 * 1999 // 2),
    (["one-factorization", "--m", "100000"], 100000 * 99999 // 2),
])
def test_construct_oversized_design_exits_2_before_building_it(tmp_path, capsys, family,
                                                               design, blocks):
    out = tmp_path / "x.g6"
    code, peak, seconds = traced_exit(["construct", family, "--design", *design, "-o", str(out)])
    _, err = capsys.readouterr()
    assert code == 2 and peak < 2**20 and seconds < 1
    assert json.loads(err)["detail"] == f"vertex count {blocks} outside [0, 20000]"
    assert not out.exists()


@pytest.mark.parametrize("design, error", [
    (["affine-lines", "--q", "6", "--d", "2"], "q=6 has at least two distinct prime factors"),
    (["affine-lines", "--q", "1", "--d", "3"], "q=1 is not a prime power"),
    (["affine-lines", "--q", "100003", "--d", "2"], "q=100003 exceeds the 2^8 ceiling"),
    (["affine-lines", "--q", "4", "--d", "1"], "d=1 must be at least 2"),
    (["affine-lines", "--q", "2", "--d", "1000000000"], "d=1000000000 gives more than 20000 lines"),
    (["one-factorization", "--m", "100001"], "m=100001 must be even and at least 4"),
    (["one-factorization", "--m", "2"], "m=2 must be even and at least 4"),
])
def test_construct_invalid_design_keeps_its_error(tmp_path, capsys, design, error):
    code = main(["construct", "block-graph", "--design", *design, "-o", str(tmp_path / "x.g6")])
    assert code == 2 and json.loads(capsys.readouterr().err)["detail"] == error


def test_design_file_with_a_huge_point_count_exits_2_without_allocating(tmp_path, capsys):
    path = tmp_path / "huge.design"
    path.write_text("DESIGN 1000000000 2 1 1\n0 1\n0\n")  # one block, one class, 10^9 points
    code, peak, seconds = traced_exit(
        ["construct", "h-graph", "--design-file", str(path), "-o", str(tmp_path / "x.g6")]
    )
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and peak < 2**20 and seconds < 1
    assert err["detail"] == "a resolution class does not partition the points"


# the coverage check counted over all 10^9 points: 7.45 GiB asked for
def test_design_file_with_a_huge_point_count_and_no_resolution_exits_2_without_allocating(
    tmp_path, capsys
):
    path = tmp_path / "huge.design"
    path.write_text("DESIGN 1000000000 2 1 0\n0 1\n")  # one block, 10^9 points
    code, peak, seconds = traced_exit(
        ["construct", "block-graph", "--design-file", str(path), "-o", str(tmp_path / "x.g6")]
    )
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and peak < 2**20 and seconds < 1
    assert err["detail"] == "pair (0, 2) covered 0 times, expected 1"


# counts sized by the largest point on a block: 763 MiB asked for
def test_design_file_with_a_huge_point_exits_2_without_allocating(tmp_path, capsys):
    path = tmp_path / "huge-point.design"
    path.write_text("DESIGN 100000000 2 1 0\n0 99999999\n")  # one block, its points far apart
    code, peak, seconds = traced_exit(
        ["construct", "block-graph", "--design-file", str(path), "-o", str(tmp_path / "x.g6")]
    )
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and peak < 2**20 and seconds < 1
    assert err["detail"] == "pair (0, 1) covered 0 times, expected 1"


def test_ragged_design_file_exits_2_naming_the_line(tmp_path, capsys):
    path = tmp_path / "ragged.design"
    path.write_text("DESIGN 4 2 2 0\n0 1\n2 3 0 1\n")
    code = main(["construct", "block-graph", "--design-file", str(path), "-o", str(tmp_path / "x.g6")])
    assert code == 2 and json.loads(capsys.readouterr().err) == {
        "error": "DesignFormatError", "detail": "line 3: expected 2 points, got 4",
    }


def test_out_of_memory_exits_2_with_json_on_stderr(tmp_path, capsys, monkeypatch):
    from cerg import geometry

    def exhausted(q, d):
        raise MemoryError("Unable to allocate 14.0 GiB for an array")

    monkeypatch.setattr(geometry, "design_affine_lines", exhausted)
    out = tmp_path / "x.g6"
    argv = ["construct", "block-graph", "--design", "affine-lines", "--q", "61", "--d", "2"]
    code = main([*argv, "-o", str(out)])
    stdout, err = capsys.readouterr()
    assert code == 2 and stdout == "" and not out.exists()
    assert json.loads(err) == {
        "error": "MemoryError", "detail": "Unable to allocate 14.0 GiB for an array",
    }


def test_construct_missing_params_exits_2(tmp_path, capsys):
    code, _ = run(capsys, "construct", "tls", "-o", str(tmp_path / "x.g6"))
    assert code == 2


@pytest.fixture()
def tls22_file(tmp_path, capsys):
    out = tmp_path / "tls22.g6"
    run(capsys, "construct", "tls", "--q", "2", "--n", "2", "-o", str(out))
    claim = tmp_path / "tls22.spec.json"
    claim.write_text(json.dumps({"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]}))
    return out, claim


def test_verify_spectrum_pass(tls22_file, capsys):
    g6, claim = tls22_file
    code, text = run(capsys, "verify", "spectrum", "-i", str(g6), "--claim", str(claim))
    assert code == 0
    rep = json.loads(text)
    assert rep["pass"] is True and rep["check"] == "spectrum"
    assert rep["reports"]["spectrum"]["ell"] == [240, 1]
    assert rep["inputs"][str(g6)].startswith("sha256:")


def test_report_lists_the_claim_only_for_checks_that_read_it(tls22_file, tmp_path, capsys):
    g6, claim = tls22_file
    bogus = tmp_path / "bogus.json"
    bogus.write_text("not a claim")
    code, text = run(capsys, "verify", "profile", "-i", str(g6), "--claim", str(bogus))
    assert code == 0 and list(json.loads(text)["inputs"]) == [str(g6)]
    code, text = run(capsys, "verify", "spectrum", "-i", str(g6), "--claim", str(claim))
    assert code == 0 and list(json.loads(text)["inputs"]) == [str(g6), str(claim)]


@pytest.mark.parametrize("check", ["spectrum", "eq1", "theorem33"])
def test_verify_without_a_needed_claim_exits_2_before_reading_the_graph(
    check, tmp_path, capsys, monkeypatch
):
    from cerg import graphs

    def unread(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(graphs, "read_graph6", unread)
    assert main(["verify", check, "-i", str(tmp_path / "absent.g6")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": f"{check} needs --claim"}


def test_verify_spectrum_bad_claim_exits_1(tls22_file, tmp_path, capsys):
    g6, _ = tls22_file
    bad = tmp_path / "wrong.json"
    bad.write_text(json.dumps({"eigs": [19, 3, -1, -6], "mults": [1, 9, 16, 6]}))
    code, text = run(capsys, "verify", "spectrum", "-i", str(g6), "--claim", str(bad))
    assert code == 1
    rep = json.loads(text)
    assert rep["pass"] is False
    assert "error" in rep["reports"]["spectrum"]


def test_verify_spectrum_zero_denominator_claim_exits_2(tls22_file, tmp_path, capsys):
    g6, _ = tls22_file
    bad = tmp_path / "zero.json"
    bad.write_text(json.dumps({"eigs": [[1, 0]], "mults": [1]}))
    assert main(["verify", "spectrum", "-i", str(g6), "--claim", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "ValueError" and "eigs[0]" in err["detail"]


@pytest.mark.parametrize(
    "text, entry",
    [
        # truncating would certify 19 and multiplicity 6
        ('{"eigs": [19.9, 3, -1, -5], "mults": [1, 9, 16, 6.7]}', "eigs[0] = 19.9"),
        # json reads 1e400 as inf, which int() cannot convert
        ('{"eigs": [1e400], "mults": [1]}', "eigs[0] = inf"),
        # a boolean is an int to Python, not to the claim format
        ('{"eigs": [19, 3, -1, -5], "mults": [true, 9, 16, 6]}', "mults[0] = True"),
    ],
)
def test_verify_spectrum_non_integer_claim_exits_2(tls22_file, tmp_path, capsys, text, entry):
    g6, _ = tls22_file
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["verify", "spectrum", "-i", str(g6), "--claim", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err = json.loads(err)
    assert err["error"] == "ValueError" and entry in err["detail"]


def test_verify_profile_reports_level_3(tls22_file, capsys):
    g6, _ = tls22_file
    code, text = run(capsys, "verify", "profile", "-i", str(g6))
    assert code == 0
    rep = json.loads(text)
    prof = rep["reports"]["profile"]
    assert prof["level_co_edge"] == 3
    assert prof["mu"] == 12
    assert prof["lambda_multiset"] == {"6": 16, "10": 240, "14": 48}
    # the schema view of the same report
    assert rep["check"] == "profile" and rep["accepted"] is True
    assert rep["constants"]["mu"] == 12
    assert rep["witness"] is None
    assert rep["multisets"]["lambda_multiset"] == {"6": 16, "10": 240, "14": 48}


def test_verify_is_threads_invariant(tls22_file, capsys):
    g6, claim = tls22_file
    outputs = []
    for threads in ("1", "4"):
        code, text = run(
            capsys, "verify", "profile", "-i", str(g6), "--threads", threads,
        )
        assert code == 0
        rep = json.loads(text)
        del rep["wall_time_s"]
        rep["command"] = None
        outputs.append(json.dumps(rep, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_verify_equitable(tls22_file, tmp_path, capsys):
    g6, _ = tls22_file
    meta = json.loads((g6.parent / "tls22.g6.meta.json").read_text())
    clique = meta["cliques"][0]
    rest = [v for v in range(32) if v not in set(clique)]
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"parts": [clique, rest]}))
    code, text = run(capsys, "verify", "equitable", "-i", str(g6), "--parts", str(parts))
    assert code == 0
    assert json.loads(text)["reports"]["equitable"]["quotient"] == [[7, 12], [4, 15]]


def test_verify_equitable_float_member_exits_2(tmp_path, capsys):
    g6 = tmp_path / "ls23.g6"
    run(capsys, "construct", "ls", "--n", "3", "--m", "2", "-o", str(g6))
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"parts": [[0.0, 1, 2], [3, 4, 5], [6, 7, 8]]}))
    code = main(["verify", "equitable", "-i", str(g6), "--parts", str(parts)])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "PartitionInvalid" and "0.0" in err["detail"]


def test_compare_cospectral_pair(tls22_file, tmp_path, capsys):
    g6, _ = tls22_file
    run(capsys, "construct", "ls", "--n", "4", "--m", "3", "-o", str(tmp_path / "ls.g6"))
    run(
        capsys, "construct", "clique-ext", "-i", str(tmp_path / "ls.g6"), "--s", "2",
        "-o", str(tmp_path / "ext.g6"),
    )
    code, text = run(capsys, "compare", str(g6), str(tmp_path / "ext.g6"))
    assert code == 0
    rep = json.loads(text)
    assert rep["reports"]["cospectral"]["cospectral"] is True
    assert [lv["co_edge"] for lv in rep["reports"]["levels"]] == [3, 2]
    assert rep["reports"]["non_isomorphic_by_level"] is True


def test_compare_self_has_no_obstruction(tls22_file, capsys):
    g6, _ = tls22_file
    code, text = run(capsys, "compare", str(g6), str(g6))
    assert code == 0
    rep = json.loads(text)
    assert rep["reports"]["cospectral"]["cospectral"] is True
    assert rep["reports"]["obstruction"] is None


def test_compare_k4_c4_not_cospectral(tmp_path, capsys):
    from cerg.graphs import Graph, write_graph6

    write_graph6(Graph.complete(4), tmp_path / "k4.g6")
    write_graph6(
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), tmp_path / "c4.g6"
    )
    code, text = run(capsys, "compare", str(tmp_path / "k4.g6"), str(tmp_path / "c4.g6"))
    assert code == 1
    assert json.loads(text)["reports"]["cospectral"]["cospectral"] is False


def test_verify_strong_weak_theorem33_eq1(tls22_file, capsys):
    g6, claim = tls22_file
    code, text = run(capsys, "verify", "strong", "-i", str(g6))
    assert code == 0
    assert json.loads(text)["reports"]["strong"] == {"mu": 12, "gamma": 120, "witness": None}
    code, text = run(capsys, "verify", "weak", "-i", str(g6))
    assert code == 0
    weak = json.loads(text)["reports"]["weak"]
    assert weak["alpha"] == [9, 1] and weak["beta"] == [-18, 1]
    code, text = run(capsys, "verify", "eq1", "-i", str(g6), "--claim", str(claim))
    assert code == 0
    assert json.loads(text)["reports"]["eq1"]["residual"] == [0, 1]
    code, text = run(capsys, "verify", "theorem33", "-i", str(g6), "--claim", str(claim))
    assert code == 0
    rep = json.loads(text)["reports"]["theorem33"]
    assert rep["sign_flipped"] is True and rep["pass"] is True


def test_verify_hoffman(tmp_path, capsys):
    run(capsys, "construct", "ls", "--n", "4", "--m", "3", "-o", str(tmp_path / "ls.g6"))
    from cerg.arrays import oa_macneish

    oa = oa_macneish(4)
    sel = tmp_path / "set.json"
    sel.write_text(json.dumps({"set": [c for c in range(16) if oa.cells[0, c] == 0]}))
    code, text = run(
        capsys, "verify", "hoffman", "-i", str(tmp_path / "ls.g6"),
        "--set", str(sel), "--kind", "clique", "--m", "3",
    )
    assert code == 0
    rep = json.loads(text)["reports"]["hoffman"]
    assert rep["tight"] is True and rep["bound"] == [4, 1]


def test_verify_hoffman_boolean_member_exits_2(tmp_path, capsys):
    g6 = tmp_path / "ls.g6"
    run(capsys, "construct", "ls", "--n", "3", "--m", "2", "-o", str(g6))
    sel = tmp_path / "set.json"
    sel.write_text(json.dumps({"set": [True]}))
    code = main(["verify", "hoffman", "-i", str(g6), "--set", str(sel),
                 "--kind", "clique", "--m", "2"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2
    assert err["error"] == "VertexOutOfRange" and "True" in err["detail"]


@pytest.mark.parametrize("members, named", [
    (["a", 1], "a"),  # a string and an integer cannot be sorted together
    ([[0], 1], "[0]"),  # a list cannot be hashed into a set
    ([1, {"v": 2}], "{'v': 2}"),
    ([20, 3, 17, 3], "17"),  # integers alone: the smallest member out of range
])
def test_verify_hoffman_names_a_member_that_is_no_vertex(members, named, tmp_path, capsys):
    g6 = tmp_path / "ls.g6"
    run(capsys, "construct", "ls", "--n", "4", "--m", "3", "-o", str(g6))
    sel = tmp_path / "set.json"
    sel.write_text(json.dumps({"set": members}))
    code = main(["verify", "hoffman", "-i", str(g6), "--set", str(sel),
                 "--kind", "clique", "--m", "3"])
    err = json.loads(capsys.readouterr().err)
    assert code == 2 and err["error"] == "VertexOutOfRange"
    assert err["detail"] == f"set member {named} is not a vertex of [0, 16)"


@pytest.mark.parametrize(
    "check, options",
    [
        # the Hoffman bound divides by m
        ("hoffman", ["--kind", "clique", "--m", "0"]),
        ("hoffman", ["--kind", "clique", "--m", "1/0"]),
        ("goldberg", ["--theta", "1/0", "--theta2", "-1"]),
    ],
)
def test_verify_zero_denominator_exits_2(tmp_path, capsys, check, options):
    g6 = tmp_path / "ls.g6"
    run(capsys, "construct", "ls", "--n", "3", "--m", "2", "-o", str(g6))
    sel = tmp_path / "set.json"
    sel.write_text(json.dumps({"set": [0, 3, 6]}))  # a clique of the rook graph
    code = main(["verify", check, "-i", str(g6), "--set", str(sel), *options])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("g6, summary", [
    ("Ds_", {"n": 5, "k": None, "regular": False, "edges": 6}),  # K_{1,4}: K_4 + K_1
    ("?", {"n": 0, "k": 0, "regular": True, "edges": 0}),  # K_0
], ids=["irregular", "empty"])
def test_construct_summary_reads_the_degrees(tmp_path, capsys, g6, summary):
    src = tmp_path / "in.g6"
    src.write_text(g6 + "\n")
    code, text = run(capsys, "construct", "complement", "-i", str(src), "-o", str(tmp_path / "c.g6"))
    assert code == 0 and text == json.dumps(summary) + "\n"


def test_verify_goldberg(tls22_file, tmp_path, capsys):
    g6, _ = tls22_file
    comp = tmp_path / "comp.g6"
    run(capsys, "construct", "complement", "-i", str(g6), "-o", str(comp))
    claim = tmp_path / "comp.spec.json"
    claim.write_text(json.dumps({"eigs": [12, 4, 0, -4], "mults": [1, 6, 16, 9]}))
    code, text = run(
        capsys, "verify", "goldberg", "-i", str(comp), "--claim", str(claim),
        "--theta", "-4", "--theta2", "4",
    )
    assert code == 0
    rep = json.loads(text)["reports"]["goldberg"]
    assert rep["lhs"] == [-256, 25] and rep["rhs"] == [-336, 25]
    assert rep["violated"] is False


def test_verify_scheme(tmp_path, capsys):
    from cerg.graphs import Graph, write_graph6

    c6 = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    d2 = Graph.from_edges(6, [(i, (i + 2) % 6) for i in range(6)])
    d3 = Graph.from_edges(6, [(i, (i + 3) % 6) for i in range(3)])
    paths = []
    for name, g in (("d1", c6), ("d2", d2), ("d3", d3)):
        p = tmp_path / f"{name}.g6"
        write_graph6(g, p)
        paths.append(str(p))
    code, text = run(capsys, "verify", "scheme", "-i", paths[0], "--relations", *paths)
    assert code == 0
    assert json.loads(text)["reports"]["scheme"]["classes"] == 3


def test_construct_spread_mod(tmp_path, capsys):
    run(capsys, "construct", "ls", "--n", "3", "--m", "2", "-o", str(tmp_path / "rook.g6"))
    from cerg.arrays import oa_macneish

    oa = oa_macneish(3)
    parts = tmp_path / "parts.json"
    parts.write_text(
        json.dumps({"parts": [[c for c in range(9) if oa.cells[0, c] == s] for s in range(3)]})
    )
    code, text = run(
        capsys, "construct", "spread-mod", "-i", str(tmp_path / "rook.g6"),
        "--parts", str(parts), "--mode", "remove", "-o", str(tmp_path / "out.g6"),
    )
    assert code == 0
    assert json.loads(text) == {"n": 9, "k": 2, "regular": True, "edges": 9}


def test_construct_spread_mod_float_member_exits_2(tmp_path, capsys):
    run(capsys, "construct", "ls", "--n", "3", "--m", "2", "-o", str(tmp_path / "rook.g6"))
    parts = tmp_path / "parts.json"
    parts.write_text(json.dumps({"parts": [[0.0, 3, 6], [True, 4, 7], [2, 5, 8]]}))
    code = main([
        "construct", "spread-mod", "-i", str(tmp_path / "rook.g6"), "--parts", str(parts),
        "--mode", "remove", "-o", str(tmp_path / "out.g6"),
    ])
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert code == 2 and captured.out == "" and not (tmp_path / "out.g6").exists()
    assert err["error"] == "PartitionInvalid" and "0.0" in err["detail"]


def test_verify_goldberg_violation_exits_1(tmp_path, capsys):
    run(capsys, "construct", "tls", "--q", "2", "--n", "3", "-o", str(tmp_path / "t.g6"))
    run(capsys, "construct", "complement", "-i", str(tmp_path / "t.g6"), "-o", str(tmp_path / "c.g6"))
    claim = tmp_path / "c.spec.json"
    claim.write_text(json.dumps({"eigs": [40, 4, 0, -8], "mults": [1, 20, 36, 15]}))
    code, text = run(
        capsys, "verify", "goldberg", "-i", str(tmp_path / "c.g6"), "--claim", str(claim),
        "--theta", "4", "--theta2", "-8",
    )
    assert code == 1
    rep = json.loads(text)
    assert rep["constants"]["violated"] is True
    assert rep["constants"]["lhs"] == [-15872, 441]


def test_help_smoke(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["construct", "--help"]) == 0
    capsys.readouterr()


def test_missing_file_exits_2(capsys):
    code, _ = run(capsys, "verify", "profile", "-i", "/nonexistent/file.g6")
    assert code == 2


def test_construct_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.g6", tmp_path / "b.g6"
    run(capsys, "construct", "tls", "--q", "2", "--n", "2", "-o", str(a))
    run(capsys, "construct", "tls", "--q", "2", "--n", "2", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.g6.meta.json").read_text() == (
        tmp_path / "b.g6.meta.json"
    ).read_text()


def test_verify_rejects_a_two_graph_file(tmp_path, capsys):
    path = tmp_path / "two.g6"
    path.write_bytes(b"Bw\nB?\n")
    assert main(["verify", "profile", "-i", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "MalformedGraph6" and "byte offset 3" in err["detail"]


def test_compare_library_error_is_not_a_null_level(tls22_file, capsys, monkeypatch):
    from cerg import regularity

    def refuse(x, bits, start=0):
        raise regularity.ExactnessBoundExceeded("product bound is not below 2^53")

    g6, _ = tls22_file
    monkeypatch.setattr(regularity, "exact_matmul", refuse)
    capsys.readouterr()
    assert main(["compare", str(g6), str(g6)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "ExactnessBoundExceeded"


def test_verify_spectrum_of_k1_reports_ell_one(tmp_path, capsys):
    (tmp_path / "k1.g6").write_text("@\n")
    (tmp_path / "k1.json").write_text(json.dumps({"eigs": [0], "mults": [1]}))
    code, text = run(capsys, "verify", "spectrum", "-i", str(tmp_path / "k1.g6"),
                     "--claim", str(tmp_path / "k1.json"))
    assert code == 0
    assert json.loads(text)["constants"]["ell"] == [1, 1]


def test_compare_one_vertex_graphs_keeps_null_levels(tmp_path, capsys):
    from cerg.graphs import Graph, write_graph6

    write_graph6(Graph.empty(1), tmp_path / "k1.g6")
    code, text = run(capsys, "compare", str(tmp_path / "k1.g6"), str(tmp_path / "k1.g6"))
    assert code == 0
    levels = json.loads(text)["reports"]["levels"]
    assert levels == [{"co_edge": None, "edge": None}] * 2


def test_claim_free_compare_forms_no_char_poly(tmp_path, capsys, monkeypatch):
    """tls(3,3) vs clique-ext(LS_4(9), 3) is decided by ten power sums of
    each graph's verified relation: no Newton loop, no Hessenberg image."""
    from cerg import spectral
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph, tls
    from cerg.graphs import clique_extension, write_graph6

    write_graph6(tls(3, 3), tmp_path / "tls33.g6")
    write_graph6(clique_extension(latin_square_graph(oa_macneish(9), 4), 3), tmp_path / "ext33.g6")

    def refuse(*args):
        raise AssertionError("char_poly route used")

    monkeypatch.setattr(spectral, "_newton_char_poly", refuse)
    monkeypatch.setattr(spectral, "_hessenberg_charpoly_mod", refuse)
    code, text = run(capsys, "compare", str(tmp_path / "tls33.g6"), str(tmp_path / "ext33.g6"))
    assert code == 0
    assert json.loads(text)["reports"] == {
        "cospectral": {"cospectral": True, "method": "char-poly", "witness_power": None},
        "levels": [{"co_edge": 3, "edge": None}, {"co_edge": 2, "edge": None}],
        "non_isomorphic_by_level": True,
        "obstruction": "co-edge level",
    }


def test_claim_free_compare_past_the_char_poly_ceiling(tmp_path, capsys):
    """n = 1600: tls(4,5) vs clique-ext(LS_5(20), 4), cospectral with
    co-edge levels 3 and 2, with no spectrum supplied."""
    from cerg.arrays import oa_macneish
    from cerg.constructions import latin_square_graph, tls
    from cerg.graphs import clique_extension, write_graph6

    write_graph6(tls(4, 5), tmp_path / "tls45.g6")
    write_graph6(clique_extension(latin_square_graph(oa_macneish(20), 5), 4), tmp_path / "ext45.g6")
    code, text = run(capsys, "compare", str(tmp_path / "tls45.g6"), str(tmp_path / "ext45.g6"))
    assert code == 0
    rep = json.loads(text)["reports"]
    assert rep["cospectral"] == {"cospectral": True, "method": "char-poly", "witness_power": None}
    assert [lv["co_edge"] for lv in rep["levels"]] == [3, 2]


def test_claim_free_compare_of_irregular_graphs_keeps_the_ceiling(tmp_path, capsys):
    from cerg.graphs import Graph, write_graph6

    star = [(0, v) for v in range(1, 513)]
    write_graph6(Graph.from_edges(513, star), tmp_path / "star.g6")
    write_graph6(Graph.from_edges(513, star[1:] + [(1, 2)]), tmp_path / "other.g6")
    capsys.readouterr()
    assert main(["compare", str(tmp_path / "star.g6"), str(tmp_path / "other.g6")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "TooLarge"


@pytest.fixture
def empty_claim(tmp_path):
    """A 0-vertex graph and a claim with no eigenvalues."""
    (tmp_path / "n0.g6").write_text("?\n")
    (tmp_path / "e.json").write_text(json.dumps({"eigs": [], "mults": []}))
    return tmp_path / "n0.g6", tmp_path / "e.json"


def test_verify_spectrum_empty_claim_is_invalid(empty_claim, capsys):
    g6, claim = empty_claim
    code, text = run(capsys, "verify", "spectrum", "-i", str(g6), "--claim", str(claim))
    assert code == 1
    assert json.loads(text)["reports"]["spectrum"]["error"] == "ClaimInvalid"


def test_compare_empty_claim_is_invalid(empty_claim, capsys):
    g6, claim = empty_claim
    code, text = run(capsys, "compare", str(g6), str(g6), "--claim", str(claim))
    assert code == 1
    rep = json.loads(text)["reports"]
    assert rep["cospectral"]["error"] == "ClaimInvalid"
    assert rep["levels"] == [{"co_edge": None, "edge": None}] * 2
