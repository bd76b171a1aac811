"""The two workloads: how each builds its inputs, the fixed command list
of one pass, and the known answer every command's output must match.

Known answers are literals here, not values read back from cerg.  The
benchmark's tests cross-check them against numpy (eigvalsh for the
spectra, float matrix products for lambda/mu and the derived constants).

Why these workloads (all on the TLS ladder, a few rungs each, because the
full ladder on every check is too slow to repeat):

- verify: the regularity/spectral matrix products are ~97 % of the work at
  n = 1600, while at n = 432 process start and Python overhead are about
  half, so a kernel change that helps large n but costs small n shows.
- compare: spectral.char_poly (modular Hessenberg + CRT) dominates; the
  --claim runs reach the same verdicts on the same pairs through certify.

Both set-ups build their inputs with `cerg construct`, so the
constructions, arrays, geometry and field layers are timed by setup_s.

A light stage is a block of at least two consecutive commands: a single
sub-second command varies too much from run to run on a shared machine.
A pass may hold the block more than once, spread between the heavy
commands, so that light_s has more samples than there are passes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import graph6codec

# -- known answers ----------------------------------------------------------

# tls(3,4), n = 432: spectrum claim and the regularity constants
TLS34_CLAIM = {"eigs": [134, 26, -1, -10], "mults": [1, 44, 288, 99]}
TLS34_ELL = 4860
TLS34_PROFILE = {
    "n": 432,
    "regular": True,
    "k": 134,
    "level_co_edge": 3,
    "level_edge": None,
    "mu": 36,
    "gamma": 1872,
    "alpha": [51, 1],
    "beta": [-214, 1],
}
TLS34_MULTISETS = {
    "lambda_multiset": {"25": 1296, "52": 25056, "79": 2592},
    "mu_multiset": {"36": 64152},
}

# tls(4,5), n = 1600
TLS45_CLAIM = {"eigs": [383, 63, -1, -17], "mults": [1, 95, 1200, 304]}
TLS45_PROFILE = {
    "n": 1600,
    "regular": True,
    "k": 383,
    "level_co_edge": 3,
    "level_edge": None,
    "mu": 80,
    "gamma": 10080,
    "alpha": [125, 1],
    "beta": [-894, 1],
}
TLS45_MULTISETS = {
    "lambda_multiset": {"62": 14400, "126": 268000, "190": 24000},
    "mu_multiset": {"80": 972800},
}

# tls(2,6) and clique-ext(LS_3(12), 2), n = 288, share this spectrum
TLS26_CLAIM = {"eigs": [67, 19, -1, -5], "mults": [1, 33, 144, 110]}
# tls(3,3) and clique-ext(LS_4(9), 3), n = 243
TLS33_CLAIM = {"eigs": [98, 17, -1, -10], "mults": [1, 32, 162, 48]}
# tls(2,2) and clique-ext(LS_2(4), 2), n = 32, are not cospectral
TLS22_CLAIM = {"eigs": [19, 3, -1, -5], "mults": [1, 9, 16, 6]}
EXT22_CLAIM = {"eigs": [13, 5, -1, -3], "mults": [1, 6, 16, 9]}

# co-edge levels: a twisted Latin Square graph has 3 lambda values, a
# clique extension of a Latin Square graph 2
LEVEL_TLS, LEVEL_EXT = 3, 2

# -- command lists ----------------------------------------------------------


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple
    stage: str | None  # "heavy", "light", or None (counted in pass_s only)
    expect_code: int
    check: Callable[[dict, Path], str | None]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path, Callable], None]
    commands: Callable[[int], list]
    aliases: dict  # stage -> its workload-specific metric name


def _diff(got: dict, want: dict, what: str) -> str | None:
    for key, value in want.items():
        if got.get(key) != value:
            return f"{what}[{key!r}] is {got.get(key)!r}, expected {value!r}"
    return None


def _verify_check(check: str, constants: dict, multisets: dict | None = None, accepted=True):
    def run(report: dict, workdir: Path) -> str | None:
        if report.get("check") != check:
            return f"report is for check {report.get('check')!r}, not {check!r}"
        if report.get("accepted") is not accepted or report.get("pass") is not accepted:
            return f"accepted={report.get('accepted')!r} pass={report.get('pass')!r}"
        return _diff(report.get("constants", {}), constants, "constants") or (
            _diff(report.get("multisets", {}), multisets or {}, "multisets")
        )

    return run


def _compare_check(cospectral: bool, method: str):
    def run(report: dict, workdir: Path) -> str | None:
        body = report.get("reports", {})
        cosp = body.get("cospectral", {})
        levels = [lv.get("co_edge") for lv in body.get("levels", [])]
        if report.get("pass") is not cospectral or cosp.get("cospectral") is not cospectral:
            return f"pass={report.get('pass')!r} cospectral={cosp.get('cospectral')!r}"
        if cosp.get("method") != method:
            return f"method {cosp.get('method')!r}, expected {method!r}"
        if levels != [LEVEL_TLS, LEVEL_EXT] or body.get("obstruction") != "co-edge level":
            return f"co-edge levels {levels}, obstruction {body.get('obstruction')!r}"
        return None

    return run


def _with_threads(argv, threads):
    return (*argv, "--threads", str(threads))


def verify_commands(threads: int) -> list:
    claim34 = ("-i", "tls34.g6", "--claim", "c34.json")
    swapped = ("-i", "tls34.g6", "--claim", "c34_swapped.json")
    accepted_432 = [
        ("profile", ("-i", "tls34.g6"), _verify_check("profile", TLS34_PROFILE, TLS34_MULTISETS)),
        ("strong", ("-i", "tls34.g6"), _verify_check("strong", {"mu": 36, "gamma": 1872})),
        (
            "weak",
            ("-i", "tls34.g6"),
            _verify_check("weak", {"alpha": [51, 1], "beta": [-214, 1], "family": None}),
        ),
        (
            "spectrum",
            claim34,
            _verify_check(
                "spectrum",
                {
                    "eigs": [[e, 1] for e in TLS34_CLAIM["eigs"]],
                    "mults": TLS34_CLAIM["mults"],
                    "ell": [TLS34_ELL, 1],
                },
            ),
        ),
        ("eq1", claim34, _verify_check("eq1", {"residual": [0, 1], "pass": True})),
        (
            "theorem33",
            claim34,
            _verify_check(
                "theorem33",
                {
                    "constants": {k: TLS34_PROFILE[k] for k in ("alpha", "beta", "gamma", "mu", "k", "n")},
                    "pass": True,
                },
            ),
        ),
    ]
    cmds = [
        Command(f"verify_432.{check}", _with_threads(("verify", check, *args), threads), "light", 0, fn)
        for check, args, fn in accepted_432
    ]
    cmds.append(
        Command(
            "verify_1600.profile",
            _with_threads(("verify", "profile", "-i", "tls45.g6"), threads),
            "heavy",
            0,
            _verify_check("profile", TLS45_PROFILE, TLS45_MULTISETS),
        )
    )
    cmds.append(
        Command(
            "verify_432.theorem33_swapped",
            _with_threads(("verify", "theorem33", *swapped), threads),
            None,
            1,
            _verify_check("theorem33", {}, accepted=False),
        )
    )
    return cmds


def compare_commands(threads: int) -> list:
    claims = [
        Command(
            f"compare_{n}.claim",
            _with_threads(("compare", f"tls{tag}.g6", f"ext{tag}.g6", "--claim", f"c{tag}.json"), threads),
            "light",
            0,
            _compare_check(True, "shared-certificate"),
        )
        for n, tag in ((243, "33"), (288, "26"))
    ]
    return [
        *claims,
        Command(
            "compare_243.char_poly",
            _with_threads(("compare", "tls33.g6", "ext33.g6"), threads),
            "heavy",
            0,
            _compare_check(True, "char-poly"),
        ),
        *claims,
        Command(
            "compare_288.char_poly",
            _with_threads(("compare", "tls26.g6", "ext26.g6"), threads),
            "heavy",
            0,
            _compare_check(True, "char-poly"),
        ),
        Command(
            "compare_32.not_cospectral",
            _with_threads(("compare", "tls22.g6", "ext22.g6"), threads),
            None,
            1,
            _compare_check(False, "char-poly"),
        ),
    ]


# -- set-up -----------------------------------------------------------------


class SetupFailed(RuntimeError):
    pass


def _construct(run, workdir: Path, *argv) -> None:
    outcome = run(("construct", *argv), workdir)
    if outcome.code != 0:
        raise SetupFailed(f"construct {' '.join(argv)} exited {outcome.code}: {outcome.stderr[-500:]}")


def _relabelled(workdir: Path, src: str, dst: str, seed: int) -> None:
    """dst = src under the seed's vertex permutation (labels do not change
    any verdict or constant, so the known answers hold for every seed)."""
    a = graph6codec.read(workdir / src)
    graph6codec.write(graph6codec.relabel(a, graph6codec.permutation(a.shape[0], f"{seed}/{dst}")), workdir / dst)


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj) + "\n")


def verify_setup(seed: int, workdir: Path, run) -> None:
    _construct(run, workdir, "tls", "--q", "3", "--n", "4", "-o", "base34.g6")
    _construct(run, workdir, "tls", "--q", "4", "--n", "5", "-o", "base45.g6")
    _relabelled(workdir, "base34.g6", "tls34.g6", seed)
    _relabelled(workdir, "base45.g6", "tls45.g6", seed)
    _write_json(workdir / "c34.json", TLS34_CLAIM)
    m = TLS34_CLAIM["mults"]
    _write_json(workdir / "c34_swapped.json", {"eigs": TLS34_CLAIM["eigs"], "mults": [m[0], m[2], m[1], m[3]]})


def compare_setup(seed: int, workdir: Path, run) -> None:
    for tag, (q, n), (ls_n, ls_m, s) in (
        ("33", (3, 3), (9, 4, 3)),
        ("26", (2, 6), (12, 3, 2)),
        ("22", (2, 2), (4, 2, 2)),
    ):
        _construct(run, workdir, "tls", "--q", str(q), "--n", str(n), "-o", f"base_tls{tag}.g6")
        _construct(run, workdir, "ls", "--n", str(ls_n), "--m", str(ls_m), "-o", f"base_ls{tag}.g6")
        _construct(run, workdir, "clique-ext", "-i", f"base_ls{tag}.g6", "--s", str(s), "-o", f"base_ext{tag}.g6")
        _relabelled(workdir, f"base_tls{tag}.g6", f"tls{tag}.g6", seed)
        _relabelled(workdir, f"base_ext{tag}.g6", f"ext{tag}.g6", seed)
    _write_json(workdir / "c33.json", TLS33_CLAIM)
    _write_json(workdir / "c26.json", TLS26_CLAIM)


WORKLOADS = {
    "verify": Workload(
        verify_setup, verify_commands, {"light": "verify_432_s", "heavy": "verify_1600_s"}
    ),
    "compare": Workload(
        compare_setup,
        compare_commands,
        {"heavy": "compare_charpoly_s", "light": "compare_claim_s"},
    ),
}


def check(cmd: Command, code: int, stdout: str, workdir: Path) -> str | None:
    """None when the command's exit code and verdict match the known answer."""
    if code != cmd.expect_code:
        return f"exit code {code}, expected {cmd.expect_code}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    return cmd.check(report, workdir)
