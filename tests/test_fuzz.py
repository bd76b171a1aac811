"""Fuzz tests of the input readers and of the JSON options of the CLI:
whatever the input, a reader parses it or raises a `ValueError`
subclass, and a command exits 0, 1 or 2, an exit 2 with one line of JSON
on stderr, never a traceback."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cerg.arrays import goa_from_oa, oa_macneish, oa_prime_power, read_array, write_array
from cerg.cli import main
from cerg.constructions import latin_square_graph
from cerg.geometry import design_affine_lines, design_one_factorization, read_design, write_design
from cerg.graphs import write_graph6

# pieces that reach the readers' branches: headers, signs, widths, an
# entry past int64, a non-integer
PIECES = st.sampled_from(
    ["", " ", "\n", "0", "1", "2", "-1", "3", "x", "2.5", "DESIGN", "OA", "GOA",
     "99999999999999999999999"]
) | st.text(max_size=3)


def splices(valid: str):
    """``valid`` with up to three short spans replaced by a piece each."""

    @st.composite
    def spliced(draw):
        text = valid
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 4)))
            text = text[:i] + draw(PIECES) + text[j:]
        return text

    return spliced()


LINES = st.lists(st.lists(PIECES, max_size=6).map(" ".join), max_size=8).map("\n".join)


def written(write, obj, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("valid") / "file"
    write(obj, path)
    return path.read_text()


@pytest.fixture(scope="module")
def design_texts(tmp_path_factory):
    return [written(write_design, d, tmp_path_factory)
            for d in (design_affine_lines(2, 2), design_one_factorization(4))]


@pytest.fixture(scope="module")
def array_texts(tmp_path_factory):
    return [written(write_array, a, tmp_path_factory)
            for a in (oa_prime_power(3), goa_from_oa(oa_prime_power(2), 2))]


@pytest.mark.parametrize("reader, texts", [
    (read_design, "design_texts"), (read_array, "array_texts"),
], ids=["read_design", "read_array"])
def test_a_reader_parses_any_text_or_raises_a_value_error(reader, texts, request,
                                                          tmp_path_factory):
    valid = request.getfixturevalue(texts)
    path = tmp_path_factory.mktemp("fuzz") / "input"
    texts = st.one_of(*map(splices, valid), LINES, st.text(max_size=60))

    @settings(max_examples=600, deadline=None)
    @given(texts)
    def check(text):
        path.write_text(text, encoding="utf-8")
        try:
            reader(path)
        except ValueError:
            pass

    check()


@pytest.fixture(scope="module")
def ls34_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("graphs") / "ls34.g6"
    write_graph6(latin_square_graph(oa_macneish(4), 3), path)
    return path


JSON_LEAVES = (st.none() | st.booleans() | st.integers(-1, 17) | st.integers()
               | st.floats() | st.text(max_size=3))
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=20,
)


@st.composite
def partitions(draw, n=16):
    """A partition of range(n) into consecutive runs of a permutation."""
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=6)))
    return [order[i:j] for i, j in zip([0, *cuts], [*cuts, n])]


MEMBERS = st.lists(st.integers(-1, 17) | JSON_LEAVES, max_size=8)
PARTS = st.fixed_dictionaries({"parts": partitions() | st.lists(MEMBERS, max_size=5)})
SETS = st.fixed_dictionaries({"set": MEMBERS | st.lists(st.integers(0, 15), unique=True)})


def commands(graph, doc, out):
    """The commands that read a --parts or --set file ``doc``."""
    return [
        ["verify", "equitable", "-i", graph, "--parts", doc],
        ["construct", "spread-mod", "-i", graph, "--parts", doc, "--mode", "remove", "-o", out],
        ["construct", "spread-mod", "-i", graph, "--parts", doc, "--mode", "add", "-o", out],
        ["verify", "hoffman", "-i", graph, "--set", doc, "--kind", "clique", "--m", "3"],
        ["verify", "hoffman", "-i", graph, "--set", doc, "--kind", "coclique", "--m", "3"],
    ]


def test_json_options_exit_0_1_or_2_with_one_line_of_json(ls34_file, tmp_path_factory):
    work = tmp_path_factory.mktemp("json")
    doc, out = work / "doc.json", work / "out.g6"
    argvs = commands(str(ls34_file), str(doc), str(out))

    @settings(max_examples=300, deadline=None)
    @given(JSON_VALUES | PARTS | SETS, st.sampled_from(argvs))
    def check(obj, argv):
        doc.write_text(json.dumps(obj))
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2), (argv, obj)
        if code == 2:
            err = stderr.getvalue()
            assert err.count("\n") == 1 and set(json.loads(err)) == {"error", "detail"}, err

    check()
