"""Constructors and exact certifiers for co-edge-regular graph families.

Submodules load on first use, so a command compiles only the layers it
runs, and `import cerg` runs none.  Each layer is created at package
import as a lazy module (the standard `importlib.util.LazyLoader`): it
sits in sys.modules as `cerg.<layer>`, but its code runs at the first
attribute access.  So code that lists the cerg modules in sys.modules
before it touches them, such as a tracer that patches a function in
every module that binds it, sees every layer.  cerg starts no thread
of its own, but before Python 3.12 the lazy load takes no lock: a
caller that shares cerg between its threads touches each layer once
first.  The exported names resolve through a PEP 562 `__getattr__`.
Each layer is also bound as a package attribute except `field`, whose
name is the function `field`: since the submodule is already in
sys.modules, no later import of `cerg.field` rebinds the name to the
module.
"""

import importlib.util
import sys

_EXPORTS = {
    "arrays": (
        "GroupDivisibleArray", "OrthogonalArray", "goa_from_oa", "oa_macneish",
        "oa_prime_power", "read_array", "validate_array", "write_array",
    ),
    "constructions": (
        "TlsGraph", "TlsStructure", "h_graph", "latin_square_graph", "spread_modified",
        "tls", "tls_structure",
    ),
    "geometry": (
        "Design", "ParallelClassSystem", "block_graph", "design_affine_lines",
        "design_one_factorization", "parallel_classes", "read_design",
        "verify_parallel_classes", "write_design",
    ),
    "field": ("FieldSpec", "NotAPrimePower", "field"),
    "graphs": (
        "Graph", "clique_extension", "complement", "from_graph6_bytes", "graph6_bytes",
        "local_graph", "read_graph6", "write_graph6",
    ),
    "regularity": (
        "equitable_check", "hoffman_check", "is_strongly_regular", "level", "profile",
        "scheme_check", "strong_co_edge_regular", "weak_edge_regular",
    ),
    "spectral": (
        "SpectrumCertificate", "certify", "char_poly", "cospectral", "eq1_residual",
        "goldberg", "theorem33_identities",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_EXPORTS, *_HOME})


def _lazy(layer):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_lazy("field")  # registered, not bound: the name `field` is the function
arrays, constructions, geometry, graphs, regularity, spectral = (
    _lazy(layer) for layer in _EXPORTS if layer != "field"
)


def __getattr__(name):
    if name in _HOME:
        return getattr(sys.modules[f"{__name__}.{_HOME[name]}"], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
