"""The child contract of a `cerg` process.

`python -m cerg.cli` and the console script both end through
`cli.entry_point`, which skips interpreter teardown with `os._exit` and
runs with the cyclic collector off.  A child must still exit with
`main`'s code and leave every byte of its report on stdout and in its
--out file.
"""

import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cerg
from cerg import cli
from cerg.graphs import clique_extension, write_graph6

SRC = os.path.dirname(os.path.dirname(cerg.__file__))
PYPROJECT = Path(SRC).parent / "pyproject.toml"


def script_function():
    """(module, function) that pyproject names for the `cerg` script."""
    match = re.search(r'^cerg = "([\w.]+):(\w+)"$', PYPROJECT.read_text(), re.M)
    return match.group(1), match.group(2)


def launchers():
    module, function = script_function()
    # what an installer's wrapper script does
    script = f"import sys\nfrom {module} import {function}\nsys.exit({function}())"
    return {"module": ["-m", "cerg.cli"], "script": ["-c", script]}


LAUNCHERS = launchers()
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"} | {"PYTHONPATH": SRC}
CLAIM = {"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]}
SWAPPED = {"eigs": [19, 3, -1, -5], "mults": [1, 16, 9, 6]}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, tls22, ls34):
    d = tmp_path_factory.mktemp("child")
    write_graph6(tls22, d / "tls22.g6")
    write_graph6(clique_extension(ls34, 2), d / "ext22.g6")
    (d / "claim.json").write_text(json.dumps(CLAIM))
    (d / "swapped.json").write_text(json.dumps(SWAPPED))
    return d


def child(launcher, workdir, *argv, stdout=subprocess.PIPE, prelude=""):
    """One cerg process in workdir, its stdout buffered as on a file or a
    pipe; `prelude` runs before the script's import."""
    args = LAUNCHERS[launcher]
    if prelude:
        assert launcher == "script"
        args = ["-c", prelude + "\n" + args[1]]
    return subprocess.run(
        [sys.executable, *args, *argv],
        cwd=workdir,
        env=ENV,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
    )


def test_the_script_is_the_entry_point():
    assert script_function() == ("cerg.cli", "entry_point")


THEOREM33 = ["verify", "theorem33", "-i", "tls22.g6", "--threads", "1", "--claim"]


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("claim, code", [("claim.json", 0), ("swapped.json", 1)])
def test_a_verdict_is_the_exit_code_and_one_json_document(workdir, launcher, claim, code):
    out = f"{launcher}-{claim}.out"
    p = child(launcher, workdir, *THEOREM33, claim, "--out", out)
    assert (p.returncode, p.stderr) == (code, "")
    report = json.loads(p.stdout)  # the whole of stdout, or it raises
    assert report["accepted"] is (code == 0)
    assert (workdir / out).read_text() == p.stdout


@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
@pytest.mark.parametrize("argv, error", [
    (["verify", "nosuch", "-i", "tls22.g6"], None),
    (["verify", "profile", "-i", "missing.g6"], "FileNotFoundError"),
])
def test_usage_and_missing_files_exit_2(workdir, launcher, argv, error):
    p = child(launcher, workdir, *argv)
    assert p.returncode == 2 and p.stdout == ""
    if error is None:
        assert "invalid choice: 'nosuch'" in p.stderr
    else:
        assert json.loads(p.stderr)["error"] == error


def test_the_child_runs_no_collection(workdir):
    # the callback reports every collection from the entry point's call on
    prelude = (
        "import gc, os\n"
        "import cerg.cli\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and os.write(2, b'collection'))"
    )
    p = child("script", workdir, *THEOREM33, "claim.json", prelude=prelude)
    assert (p.returncode, p.stderr) == (0, "")


def test_main_returns_its_code_and_leaves_the_collector_on(workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    assert gc.isenabled()
    assert cli.main([*THEOREM33, "swapped.json"]) == 1
    assert json.loads(capsys.readouterr().out)["accepted"] is False
    assert gc.isenabled()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("launcher", sorted(LAUNCHERS))
def test_a_report_that_cannot_be_written_exits_2_without_a_traceback(workdir, launcher):
    # the buffered report fails only at the final flush
    with open("/dev/full", "w") as full:
        argv = ["compare", "tls22.g6", "ext22.g6", "--threads", "1"]
        p = child(launcher, workdir, *argv, stdout=full)
    assert p.returncode == 2
    assert json.loads(p.stderr)["error"] == "OSError"
