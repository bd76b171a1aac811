"""Run `python -m cerg.cli` commands as child processes and measure them."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS/OpenMP pools follow these; --threads caps cerg's own pools
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def thread_count() -> int:
    """Worker threads for every child: the usable cores, at most 2."""
    return max(1, min(2, len(os.sched_getaffinity(0))))


def pin_threads(env) -> None:
    for var in THREAD_VARS:
        env[var] = str(thread_count())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    pin_threads(env)
    return env


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_mb: float


# A child's ru_maxrss starts from the high-water RSS of the process that
# forked it, so children are forked by this small helper rather than by
# the benchmark, whose numpy arrays would otherwise inflate every figure.
# It reads one job per line and answers [exit code, seconds, maxrss KiB];
# SIGALRM, which survives exec, ends a child that overruns its limit.
_SPAWNER = r"""
import json, os, signal, sys, time
for line in sys.stdin:
    job = json.loads(line)
    with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(job["cwd"])
                os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
                os.dup2(out.fileno(), 1)
                os.dup2(err.fileno(), 2)
                signal.alarm(job["limit_s"])
                os.execve(job["argv"][0], job["argv"], job["env"])
            finally:
                os._exit(127)
        _, status, usage = os.wait4(pid, 0)
        seconds = time.perf_counter() - t0
    print(json.dumps([os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss]), flush=True)
"""


class Spawner:
    """Runs `python -m cerg.cli` commands through the helper process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SPAWNER],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.env = child_env()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    def run_cli(self, argv, cwd: Path, limit_s: float) -> Outcome:
        """Run `python -m cerg.cli *argv` in cwd, killed after limit_s.

        Time runs from the fork to the reap; peak RSS is the child's own
        ru_maxrss from wait4.
        """
        job = {
            "argv": [sys.executable, "-m", "cerg.cli", *argv],
            "cwd": str(cwd),
            "env": self.env,
            "stdout": str(cwd / ".stdout"),
            "stderr": str(cwd / ".stderr"),
            "limit_s": max(1, int(limit_s)),
        }
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"the spawner process died (exit {self.proc.poll()})")
        code, seconds, maxrss_kb = json.loads(reply)
        return Outcome(
            code=code,
            stdout=(cwd / ".stdout").read_text(),
            stderr=(cwd / ".stderr").read_text(),
            seconds=seconds,
            maxrss_mb=maxrss_kb / 1024,
        )
