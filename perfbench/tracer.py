"""In-process span tracer around cerg's layer functions.

Only `cerg.cli.main` and names exported in `cerg.__all__` are wrapped.
Each is resolved through `cerg.__all__` and wrapped in its defining
module and in every other cerg module that bound the same object at
import time (the CLI calls `graphs.read_graph6`, while `tls` calls its
own imported `oa_macneish`).  A name that is no longer exported, or that
moved to another module, raises `TracerError` instead of silently
measuring nothing.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass, field

# span name -> (name in cerg.__all__, method name or None)
WRAPPED = {
    "regularity.profile": ("profile", None),
    "regularity.strong_co_edge_regular": ("strong_co_edge_regular", None),
    "regularity.weak_edge_regular": ("weak_edge_regular", None),
    "regularity.level": ("level", None),
    "spectral.certify": ("certify", None),
    "spectral.eq1_residual": ("eq1_residual", None),
    "spectral.theorem33_identities": ("theorem33_identities", None),
    "spectral.char_poly": ("char_poly", None),
    "spectral.cospectral": ("cospectral", None),
    "graphs.read_graph6": ("read_graph6", None),
    "graphs.write_graph6": ("write_graph6", None),
    "graphs.Graph.adjacency_matrix": ("Graph", "adjacency_matrix"),
    "constructions.tls": ("tls", None),
    "arrays.oa_macneish": ("oa_macneish", None),
    "arrays.validate_array": ("validate_array", None),
    "geometry.parallel_classes": ("parallel_classes", None),
    "field.field": ("field", None),
}
MAIN = "cli.main"
# what the set-up's `cerg construct` commands reach; the passes reach the rest
SETUP_SPANS = (
    MAIN,
    "graphs.write_graph6",
    "constructions.tls",
    "arrays.oa_macneish",
    "arrays.validate_array",
    "geometry.parallel_classes",
    "field.field",
)
PASS_SPANS = (MAIN, *(name for name in WRAPPED if name not in SETUP_SPANS))

# spans whose file argument (by position) counts towards graph6 throughput
GRAPH6_PATH_ARG = {"graphs.read_graph6": 0, "graphs.write_graph6": 1}


class TracerError(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    trace_id: int
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    nbytes: int = 0

    @property
    def total_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    trace_id: int = 0
    _stacks: dict = field(default_factory=dict)

    def _open(self, name: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        idx = len(self.spans)
        self.spans.append(Span(name, self.trace_id, stack[-1] if stack else None, time.perf_counter()))
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.total_s

    def wrap(self, name: str, fn):
        path_arg = GRAPH6_PATH_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if path_arg is not None:
                self.spans[idx].nbytes = os.path.getsize(args[path_arg])
            return result

        return traced

    def call_main(self, main, argv):
        """Run cerg.cli.main(argv) as one trace with a `cli.main` root span."""
        self.trace_id += 1
        return self.wrap(MAIN, main)(argv)


def resolve(cerg_pkg, name: str):
    """(owner, attribute, original) of one WRAPPED span name."""
    export, method = WRAPPED[name]
    if export not in getattr(cerg_pkg, "__all__", ()):
        raise TracerError(f"{name}: cerg no longer exports {export!r}")
    obj = getattr(cerg_pkg, export)
    layer = name.split(".")[0]
    if obj.__module__ != f"cerg.{layer}":
        raise TracerError(f"{name}: {export} now lives in {obj.__module__}")
    if method is None:
        return None, export, obj
    if not callable(getattr(obj, method, None)):
        raise TracerError(f"{name}: {export} has no method {method!r}")
    return obj, method, getattr(obj, method)


class installed:
    """Context manager: every WRAPPED name traced by `tracer`, restored on exit."""

    def __init__(self, tracer: Tracer, cerg_pkg):
        self.tracer = tracer
        self.cerg = cerg_pkg
        self.undo = []

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "cerg" or key.startswith("cerg.")]
        try:
            for name in WRAPPED:
                owner, attr, original = resolve(self.cerg, name)
                wrapped = self.tracer.wrap(name, original)
                if owner is not None:
                    targets = [(owner, attr)]
                else:
                    targets = [(m, key) for m in modules for key, value in vars(m).items() if value is original]
                for target, key in targets:
                    self.undo.append((target, key, original))
                    setattr(target, key, wrapped)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        for target, attr, original in reversed(self.undo):
            setattr(target, attr, original)
        self.undo.clear()
        return False


def span_metrics(spans, names, prefix="") -> dict:
    """total_s, self_s and calls of each span name in `names`."""
    out = {}
    for name in names:
        mine = [s for s in spans if s.name == name]
        out[f"{prefix}{name}.total_s"] = sum(s.total_s for s in mine)
        out[f"{prefix}{name}.self_s"] = sum(s.self_s for s in mine)
        out[f"{prefix}{name}.calls"] = len(mine)
    return out


def pass_metrics(spans) -> dict:
    """The PASS_SPANS metrics of one pass, plus graph6 throughput."""
    out = span_metrics(spans, PASS_SPANS)
    io = [s for s in spans if s.name in GRAPH6_PATH_ARG]
    io_s = sum(s.total_s for s in io)
    out["graphs.graph6_MBps"] = sum(s.nbytes for s in io) / 1e6 / io_s if io_s else 0.0
    return out
