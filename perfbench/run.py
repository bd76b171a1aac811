"""cerg benchmark: closed-loop CLI passes with known-answer verdict checks.

    python3 perfbench/run.py --workload verify|compare --seed N \
        --seconds S --trace 0|1

One client runs a workload's fixed command list (one pass) back to back,
each command a `python -m cerg.cli` child with --threads and the
BLAS/OpenMP thread variables pinned to at most 2 cores, for about S
seconds; every command's exit code and verdict is checked against a
known answer.  Inputs are built from the seed during set-up, which runs
several times and reports its median.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
alternates an untraced pass with a pass that calls `cerg.cli.main` in
this process under the span tracer, traces one more set-up the same
way, and prints the per-layer metrics.
The last stdout line is the JSON result; the full record (environment,
every command's time and RSS, spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import runner

if __name__ == "__main__":
    # the traced pass runs cerg in this process: pin its BLAS before numpy loads
    runner.pin_threads(os.environ)

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 2
STARTUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def environment(threads: int, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (runner.ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=runner.ROOT, capture_output=True, text=True, timeout=30
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((runner.SRC / "cerg").rglob("*.py")):
        digest.update(path.relative_to(runner.SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {"--threads": threads, **{v: os.environ[v] for v in runner.THREAD_VARS}},
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def load_cerg():
    """(cerg package, cerg.cli.main) imported from this checkout's sources."""
    if str(runner.SRC) not in sys.path:
        sys.path.insert(0, str(runner.SRC))
    import cerg
    import cerg.cli

    if not Path(cerg.__file__).resolve().is_relative_to(runner.SRC):
        raise tracer.TracerError(f"imported cerg from {cerg.__file__}, not {runner.SRC}")
    main = getattr(cerg.cli, "main", None)
    if main is None:
        raise tracer.TracerError("cerg.cli.main is missing")
    return cerg, main


def in_process(tr, main, argv, cwd: Path) -> runner.Outcome:
    """cerg.cli.main(argv) run in cwd as one trace of `tr`."""
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call_main(main, list(argv))
    except Exception:  # a library bug: record it, keep the run going
        code = traceback.format_exc(limit=3)
    finally:
        os.chdir(here)
    return runner.Outcome(code, out.getvalue(), err.getvalue(), time.perf_counter() - t0, 0.0)


class Bench:
    def __init__(self, workload, seed: int, seconds: float, threads: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.commands = workload.commands(threads)
        self.spawner = runner.Spawner()
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.problems = []

    def run(self, argv, cwd: Path):
        return self.spawner.run_cli(argv, cwd, self.deadline - time.perf_counter())

    def setup(self, base: Path) -> tuple[Path, list]:
        times, workdir = [], None
        for i in range(SETUP_REPEATS):
            if workdir is not None:
                shutil.rmtree(workdir)
            workdir = base / f"setup{i}"
            workdir.mkdir(parents=True)
            t0 = time.perf_counter()
            self.workload.setup(self.seed, workdir, self.run)
            times.append(time.perf_counter() - t0)
        return workdir, times

    def _record(self, cmd, code, stdout, seconds, workdir, **extra) -> dict:
        self.attempted += 1
        problem = workloads.check(cmd, code, stdout, workdir)
        if problem:
            self.problems.append(f"{cmd.name}: {problem}")
        return {"name": cmd.name, "stage": cmd.stage, "code": code, "seconds": seconds, "problem": problem, **extra}

    def subprocess_pass(self, workdir: Path) -> dict:
        outcomes = [(cmd, self.run(cmd.argv, workdir)) for cmd in self.commands]
        # verdicts are checked after the pass so that no check runs between commands
        records = [
            self._record(cmd, o.code, o.stdout, o.seconds, workdir, maxrss_mb=o.maxrss_mb)
            for cmd, o in outcomes
        ]
        return {
            "traced": False,
            "commands": records,
            "pass_s": sum(r["seconds"] for r in records),
            "heavy_s": sum(r["seconds"] for r in records if r["stage"] == "heavy"),
            "light_s": light_blocks(records),
            "peak_rss_mb": max(r["maxrss_mb"] for r in records),
        }

    def traced_pass(self, workdir: Path, cerg_pkg, main) -> dict:
        tr = tracer.Tracer()
        with tracer.installed(tr, cerg_pkg):
            outcomes = [(cmd, in_process(tr, main, cmd.argv, workdir)) for cmd in self.commands]
        records = [self._record(cmd, o.code, o.stdout, o.seconds, workdir) for cmd, o in outcomes]
        return {
            "traced": True,
            "commands": records,
            "pass_s": sum(r["seconds"] for r in records),
            "layers": tracer.pass_metrics(tr.spans),
            "spans": [[s.name, s.trace_id, s.parent, s.start, s.end, s.self_s] for s in tr.spans],
        }

    def traced_setup(self, workdir: Path, cerg_pkg, main) -> dict:
        """The set-up once more, its `cerg construct` commands in process."""
        workdir.mkdir(parents=True)
        tr = tracer.Tracer()
        with tracer.installed(tr, cerg_pkg):
            self.workload.setup(self.seed, workdir, lambda argv, cwd: in_process(tr, main, argv, cwd))
        return tracer.span_metrics(tr.spans, tracer.SETUP_SPANS, "setup.")

    def measure(self, workdir: Path, trace: bool) -> list:
        """Passes back to back for about `seconds`, at least MIN_PASSES of
        them so that every median has more than one sample.  A unit is
        started only if, as long as the last one, it would end less than
        half a unit past `seconds`.  With tracing, each unit is an
        untraced pass and a traced pass."""
        if trace:
            cerg_pkg, main = load_cerg()

            def unit():
                return [self.subprocess_pass(workdir), self.traced_pass(workdir, cerg_pkg, main)]

        else:

            def unit():
                return [self.subprocess_pass(workdir)]

        passes, units = [], 0
        t_end = time.perf_counter() + self.seconds
        last = 0.0
        while units < (1 if trace else MIN_PASSES) or time.perf_counter() + last / 2 < t_end:
            t0 = time.perf_counter()
            passes += unit()
            units += 1
            last = time.perf_counter() - t0
            if time.perf_counter() + last > self.deadline:
                break
        return passes


def light_blocks(records) -> list:
    """Seconds of each block of consecutive light-stage commands."""
    blocks, previous = [], None
    for r in records:
        if r["stage"] == "light":
            if previous != "light":
                blocks.append(0.0)
            blocks[-1] += r["seconds"]
        previous = r["stage"]
    return blocks


def stage_medians(plain) -> dict:
    """heavy_s over passes; light_s over every light block of every pass."""
    return {
        "heavy_s": statistics.median([p["heavy_s"] for p in plain]),
        "light_s": statistics.median([t for p in plain for t in p["light_s"]]),
    }


def end_to_end(passes, setup_times) -> dict:
    plain = [p for p in passes if not p["traced"]]
    return {
        "setup_s": statistics.median(setup_times),
        "pass_s": statistics.median([p["pass_s"] for p in plain]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in plain]),
        **stage_medians(plain),
    }


def per_layer(passes, setup_layers, startup_times) -> dict:
    traced = [p for p in passes if p["traced"]]
    keys = traced[0]["layers"]
    out = {key: statistics.median([p["layers"][key] for p in traced]) for key in keys}
    out.update(setup_layers)
    out["cli.startup_s"] = statistics.median(startup_times)
    out["trace.overhead_s"] = statistics.median([p["pass_s"] for p in traced]) - statistics.median(
        [p["pass_s"] for p in passes if not p["traced"]]
    )
    # the in-process pass also skips one interpreter start per command
    out["trace.overhead_net_s"] = out["trace.overhead_s"] + len(traced[0]["commands"]) * out["cli.startup_s"]
    return out


UNITS = {"_s": "s", "_mb": "MB", "calls": "count", "MBps": "MB/s"}


def unit(name: str) -> str:
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (runner.SRC / "cerg" / "cli.py").is_file():
        print(f"perfbench: no cerg sources under {runner.SRC}", file=sys.stderr)
        return 2

    threads = runner.thread_count()
    wl = workloads.WORKLOADS[args.workload]
    bench = Bench(wl, args.seed, args.seconds, threads)
    base = HERE / "work" / args.workload
    shutil.rmtree(base, ignore_errors=True)
    try:
        workdir, setup_times = bench.setup(base)
        passes = bench.measure(workdir, bool(args.trace))
        startup, setup_layers = [], {}
        if args.trace:
            setup_layers = bench.traced_setup(base / "traced_setup", *load_cerg())
            for _ in range(STARTUP_REPEATS):
                o = bench.run(["--help"], workdir)
                if o.code != 0:
                    bench.problems.append(f"--help exited {o.code}")
                startup.append(o.seconds)
    finally:
        bench.spawner.close()
        shutil.rmtree(base, ignore_errors=True)

    metrics = per_layer(passes, setup_layers, startup) if args.trace else end_to_end(passes, setup_times)
    failed = sum(1 for p in passes for r in p["commands"] if r["problem"])
    plain = [p for p in passes if not p["traced"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(threads, args.seed),
        "setup_s_samples": setup_times,
        "samples": {
            "passes": len(plain),
            "light_blocks": sum(len(p["light_s"]) for p in plain),
            "traced_passes": len(passes) - len(plain),
            "setups": len(setup_times),
        },
        "error_rate": failed / bench.attempted,
        "problems": bench.problems,
        "metrics": metrics,
        # the heavy/light stages under their workload-specific names
        "stage_metrics": {alias: stage_medians(plain)[f"{stage}_s"] for stage, alias in wl.aliases.items()},
        "passes": passes,
    }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not bench.problems,
                "attempted": bench.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
