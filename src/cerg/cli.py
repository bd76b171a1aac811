"""Command line entry point: construct / verify / compare.

Exit codes: 0 = pass, 1 = a check ran and failed (`graphs.CheckFailed`),
2 = usage, I/O, or parameter errors, and a run out of memory.  All JSON
output is deterministic for fixed inputs (the wall_time_s field aside);
cerg starts no thread, and --threads changes nothing.  Every report
writes an exact rational as its [numerator, denominator] pair
(`regularity.jsonable`).

The layers are the package's lazy modules: each runs its code at its
first attribute access, so a subcommand compiles no checker or
construction it does not run.

A process (`python -m cerg.cli`, the `cerg` script) runs `main` through
`entry_point`, which turns the cyclic collector off, flushes stdout and
stderr once `main` returns, and ends with `os._exit`: no interpreter
teardown.  Nothing is lost by that.  Every file is written and closed
inside a `with` block before `main` returns, and no thread of cerg's
is left to join.  The cycles a command leaves are a few hundred
argparse and closure objects, none an array, however large the graph.
`main` itself is the in-process API: it returns the exit code and
leaves the collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from typing import NoReturn

from . import arrays, constructions, geometry, graphs, regularity, spectral

# malformed input, unusable parameters, or too little memory: exit 2
PARAM_ERRORS = (ValueError, KeyError, TypeError, OSError, MemoryError)


def _digest(path) -> str:
    # CPython's builtin SHA-256 loads no OpenSSL, which `hashlib` does
    try:
        from _sha2 import sha256  # 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # 3.10, 3.11
        except ImportError:
            from hashlib import sha256

    with open(path, "rb") as fh:
        return "sha256:" + sha256(fh.read()).hexdigest()


def _emit(report: dict, out_path) -> None:
    text = json.dumps(report, indent=2, default=regularity.jsonable)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _run_report(args, inputs: dict, reports: dict, passed: bool, t0: float) -> dict:
    return {
        "command": list(args),
        "inputs": {str(p): _digest(p) for p in inputs.values() if p},
        "reports": reports,
        "pass": passed,
        "wall_time_s": round(time.monotonic() - t0, 6),
    }


def _load_claim(path):
    with open(path) as fh:
        return spectral.claim_from_json(json.load(fh))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _fraction(text):
    """Fraction of a command-line rational; a zero denominator is a
    usage error, not a crash."""
    from fractions import Fraction

    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"{text!r} has a zero denominator") from None


def _summary(g: graphs.Graph) -> dict:
    regular, k = g.is_regular()  # k is None when g is irregular
    return {"n": g.n, "k": k, "regular": regular, "edges": g.edge_count()}


def _design_from_args(args):
    if args.design_file:
        return geometry.read_design(args.design_file)
    if args.design == "affine-lines":
        if args.q is None or args.d is None:
            raise ValueError("affine-lines needs --q and --d")
        return geometry.design_affine_lines(args.q, args.d)
    if args.design == "one-factorization":
        if args.m is None:
            raise ValueError("one-factorization needs --m")
        return geometry.design_one_factorization(args.m)
    raise ValueError("give --design affine-lines|one-factorization or --design-file")


def cmd_construct(args) -> int:
    fam = args.family
    if fam == "ls":
        if args.n is None or args.m is None:
            raise ValueError("ls needs --n and --m")
        graphs._check_order(args.n * args.n)
        oa = arrays.read_array(args.oa) if args.oa else arrays.oa_macneish(args.n)
        g = constructions.latin_square_graph(oa, args.m)
    elif fam == "clique-ext":
        if not args.input or args.s is None:
            raise ValueError("clique-ext needs -i and --s")
        g = graphs.clique_extension(graphs.read_graph6(args.input), args.s)
    elif fam == "tls":
        if args.q is None or args.n is None:
            raise ValueError("tls needs --q and --n")
        goa = arrays.read_array(args.goa) if args.goa else None
        if goa is not None and not isinstance(goa, arrays.GroupDivisibleArray):
            raise constructions.ParameterMismatch("--goa file must hold a GOA")
        g = constructions.tls(args.q, args.n, goa=goa)
    elif fam == "block-graph":
        g = geometry.block_graph(_design_from_args(args))
    elif fam == "h-graph":
        g = constructions.h_graph(_design_from_args(args))
    elif fam == "complement":
        if not args.input:
            raise ValueError("complement needs -i")
        g = graphs.complement(graphs.read_graph6(args.input))
    elif fam == "spread-mod":
        if not args.input or not args.parts or not args.mode:
            raise ValueError("spread-mod needs -i, --parts, and --mode")
        parts = _load_json(args.parts)["parts"]
        g = constructions.spread_modified(
            graphs.read_graph6(args.input), parts, args.mode
        )
    else:
        raise ValueError(f"unknown family {fam!r}")

    graphs.write_graph6(g, args.output)
    if fam == "tls":
        constructions.write_tls_metadata(g, str(args.output) + ".meta.json")
    elif g.labels:
        graphs.write_labels(g, str(args.output) + ".labels.json")
    summary = _summary(g)
    if fam == "h-graph" and g.is_complete():
        summary["degenerate_complete"] = True
    print(json.dumps(summary))
    return 0


def _body(rep) -> dict:
    """A report's fields but its verdict ``ok``, in order."""
    body = regularity.jsonable(rep)
    body.pop("ok", None)
    return body


def _check_profile(g, args):
    return _body(regularity.profile(g)), True


def _check_strong(g, args):
    rep = regularity.strong_co_edge_regular(g)
    return _body(rep), rep.ok


def _check_weak(g, args):
    rep = regularity.weak_edge_regular(g)
    return _body(rep), rep.ok


def _check_spectrum(g, args):
    cert = spectral.certify(g, _load_claim(args.claim))
    return cert.to_json_dict(), True


def _check_eq1(g, args):
    cert = spectral.certify(g, _load_claim(args.claim))
    rep = spectral.eq1_residual(g, cert)
    return rep.to_json_dict(), rep.ok


def _check_theorem33(g, args):
    # one pass for the certificate's product and the sums scan
    regularity.powers(g).want_sums = True
    cert = spectral.certify(g, _load_claim(args.claim))
    strong = regularity.strong_co_edge_regular(g)
    weak = regularity.weak_edge_regular(g)
    if not strong.ok or not weak.ok or weak.alpha is None:
        return (
            {"strong": strong.witness, "weak": weak.witness},
            False,
        )
    rep = spectral.theorem33_identities(
        g, cert, weak.alpha, weak.beta, strong.mu, strong.gamma
    )
    return rep.to_json_dict(), rep.ok


def _check_equitable(g, args):
    if not args.parts:
        raise ValueError("equitable needs --parts")
    rep = regularity.equitable_check(g, _load_json(args.parts)["parts"])
    return _body(rep), rep.ok


def _check_hoffman(g, args):
    if not args.set or not args.kind or args.m is None:
        raise ValueError("hoffman needs --set, --kind, and --m")
    vertex_set = _load_json(args.set)["set"]
    rep = regularity.hoffman_check(g, vertex_set, args.kind, _fraction(args.m))
    return _body(rep), rep.tight


def _check_scheme(g, args):
    if not args.relations:
        raise ValueError("scheme needs --relations")
    rels = [graphs.read_graph6(p) for p in args.relations]
    rep = regularity.scheme_check(rels)
    body = {
        "classes": rep.classes,
        "intersection_numbers": rep.p_table_json(),
        "witness": rep.witness,
    }
    return body, rep.ok


def _check_goldberg(g, args):
    if args.theta is None or args.theta2 is None:
        raise ValueError("goldberg needs --theta and --theta2")
    cert = None
    if args.claim:
        cert = spectral.certify(g, _load_claim(args.claim))
    rep = spectral.goldberg(g, _fraction(args.theta), _fraction(args.theta2), cert)
    return rep.to_json_dict(), not rep.violated


CHECKS = {
    "profile": _check_profile,
    "strong": _check_strong,
    "weak": _check_weak,
    "spectrum": _check_spectrum,
    "eq1": _check_eq1,
    "theorem33": _check_theorem33,
    "equitable": _check_equitable,
    "hoffman": _check_hoffman,
    "scheme": _check_scheme,
    "goldberg": _check_goldberg,
}


# the checks that need --claim, and those that read it; the others ignore it
NEEDS_CLAIM = ("spectrum", "eq1", "theorem33")
CLAIM_CHECKS = NEEDS_CLAIM + ("goldberg",)


def _split_schema(body: dict):
    """(constants, witness, multisets) per the report schema; a failed
    check's error and detail stay under its report only."""
    witness = body.get("witness")
    multisets = {}
    constants = {}
    for key, value in body.items():
        if key in ("witness", "error", "detail"):
            continue
        if "multiset" in key or key == "outside_degrees":
            multisets[key] = value
        else:
            constants[key] = value
    return constants, witness, multisets


def cmd_verify(args, argv) -> int:
    t0 = time.monotonic()
    if args.check in NEEDS_CLAIM and not args.claim:
        raise ValueError(f"{args.check} needs --claim")  # before the graph is read
    g = graphs.read_graph6(args.input)
    try:
        body, ok = CHECKS[args.check](g, args)
    except graphs.CheckFailed as exc:
        body = {"error": type(exc).__name__, "detail": str(exc), "witness": getattr(exc, "witness", None)}
        ok = False
    inputs = {"input": args.input}
    if args.claim and args.check in CLAIM_CHECKS:
        inputs["claim"] = args.claim
    report = _run_report(argv, inputs, {args.check: body}, ok, t0)
    constants, witness, multisets = _split_schema(body)
    report["check"] = args.check
    report["accepted"] = ok
    report["constants"] = constants
    report["witness"] = witness
    report["multisets"] = multisets
    _emit(report, args.out)
    return 0 if ok else 1


def _level(g) -> dict:
    try:
        co, edge = regularity.level(g)
    except regularity.PreconditionFailed:
        co, edge = None, None
    return {"co_edge": co, "edge": edge}


def cmd_compare(args, argv) -> int:
    t0 = time.monotonic()
    claim = _load_claim(args.claim) if args.claim else None
    # one input at a time: a graph and its cached powers go once its side
    # of the comparison and its level are known
    sides, levels, failure = [], [], None
    for path in (args.a, args.b):
        g = graphs.read_graph6(path)
        if failure is None:
            try:
                sides.append(spectral.cospectral_side(g, claim))
            except graphs.CheckFailed as exc:
                # the error's text, not the error: its traceback holds the
                # frames that hold this graph's arrays
                failure = {"error": type(exc).__name__, "detail": str(exc)}
        levels.append(_level(g))
        del g
    if failure is None:
        cosp = spectral.compare_sides(*sides)
        cosp_body, is_cosp = cosp.to_json_dict(), cosp.cospectral
    else:
        cosp_body = failure
        is_cosp = False
    distinct_levels = (
        levels[0]["co_edge"] is not None
        and levels[1]["co_edge"] is not None
        and levels[0]["co_edge"] != levels[1]["co_edge"]
    )
    body = {
        "cospectral": cosp_body,
        "levels": levels,
        "non_isomorphic_by_level": distinct_levels,
        "obstruction": "co-edge level" if distinct_levels else None,
    }
    report = _run_report(argv, {"a": args.a, "b": args.b, "claim": args.claim}, body, is_cosp, t0)
    _emit(report, args.out)
    return 0 if is_cosp else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="cerg")
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("construct", help="build a named family and write graph6")
    c.add_argument(
        "family",
        choices=[
            "ls",
            "clique-ext",
            "tls",
            "block-graph",
            "h-graph",
            "complement",
            "spread-mod",
        ],
    )
    c.add_argument("--q", type=int)
    c.add_argument("--n", type=int)
    c.add_argument("--m", type=int)
    c.add_argument("--d", type=int)
    c.add_argument("--s", type=int)
    c.add_argument("--oa")
    c.add_argument("--goa")
    c.add_argument("--design")
    c.add_argument("--design-file")
    c.add_argument("--parts")
    c.add_argument("--mode", choices=["remove", "add"])
    c.add_argument("-i", "--input")
    c.add_argument("-o", "--output", required=True)

    v = sub.add_parser("verify", help="run a checker against a graph6 file")
    v.add_argument("check", choices=sorted(CHECKS))
    v.add_argument("-i", "--input", required=True)
    v.add_argument("--claim")
    v.add_argument("--parts")
    v.add_argument("--set")
    v.add_argument("--kind", choices=["clique", "coclique"])
    v.add_argument("--m")
    v.add_argument("--relations", nargs="+")
    v.add_argument("--theta")
    v.add_argument("--theta2")
    v.add_argument("--threads", type=int, help="changes nothing; kept for older command lines")
    v.add_argument("--out")

    p = sub.add_parser("compare", help="cospectrality and level comparison")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--claim")
    p.add_argument("--threads", type=int, help="changes nothing; kept for older command lines")
    p.add_argument("--out")
    return ap


def _run(argv) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.cmd == "construct":
            return cmd_construct(args)
        if args.cmd == "verify":
            return cmd_verify(args, argv)
        return cmd_compare(args, argv)
    except graphs.CheckFailed as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}))
        return 1


def main(argv=None) -> int:
    """Run one command and return its exit code; the in-process API."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _run(argv)
        # a buffered report that cannot be written fails here, as an I/O
        # error, not at interpreter exit
        sys.stdout.flush()
        return code
    except PARAM_ERRORS as exc:
        print(
            json.dumps({"error": type(exc).__name__, "detail": str(exc)}),
            file=sys.stderr,
        )
        return 2


def entry_point() -> NoReturn:
    """`python -m cerg.cli` and the `cerg` script: `main` on sys.argv with
    the cyclic collector off, then the process ends at once."""
    gc.disable()
    code = main()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # main has reported a failed stdout write
            code = code or 2
    os._exit(code)


if __name__ == "__main__":
    entry_point()
