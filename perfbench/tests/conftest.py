import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import runner  # noqa: E402
import workloads  # noqa: E402


def cli(argv, cwd):
    with runner.Spawner() as spawner:
        return spawner.run_cli(argv, cwd, 120)


def set_up(name, seed, workdir):
    workdir.mkdir(parents=True)
    workloads.WORKLOADS[name].setup(seed, workdir, cli)
    return workdir


@pytest.fixture(scope="session")
def verify_inputs(tmp_path_factory):
    return {s: set_up("verify", s, tmp_path_factory.mktemp("verify") / str(s)) for s in (1, 2)}


@pytest.fixture(scope="session")
def compare_inputs(tmp_path_factory):
    return {s: set_up("compare", s, tmp_path_factory.mktemp("compare") / str(s)) for s in (1, 2)}
