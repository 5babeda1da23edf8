"""Exact computation and simulation toolkit for the monoids K_n.

Every public name, and each module below under its own name, is loaded on
first access (PEP 562), so ``import kiselman`` loads no submodule: a CLI
process compiles only the modules its command calls, and only the
stochastic names load numpy.  A resolved name is stored in this namespace,
so later accesses are plain attribute lookups that skip ``__getattr__``.
"""

import importlib

# module -> the public names it serves from the package
_NAMES = {
    "core": (
        "Element",
        "MalformedWordError",
        "RankMismatchError",
        "content",
        "format_word",
        "generator",
        "idempotent",
        "multiply",
        "parse_word",
        "power",
        "reduce",
        "tau",
        "unit",
        "zero",
    ),
    "enumeration": (
        "CongruencePartition",
        "ElementList",
        "cardinality_table",
        "congruence_oracle",
        "enumerate_elements",
    ),
    "level_metric": (
        "ball",
        "distance",
        "g",
        "level",
        "level_by_definition",
        "level_by_recursion",
        "level_sets",
        "m_function",
        "r_set",
        "sphere",
    ),
    "morphisms": ("delete", "word_delete"),
    "stochastic": (
        "HittingTimePMF",
        "SequenceSpec",
        "SimulationReport",
        "chain_hitting_cdf",
        "eventual_value",
        "exact_hitting_pmf",
        "partial_products",
        "simulate",
        "transition_matrix",
        "verify_distribution",
    ),
}

# name -> the module that defines it; a module is served under its own name
_HOME = {name: module for module, names in _NAMES.items() for name in (module, *names)}

# the algebra: what ``from kiselman import *`` binds, none of it needing numpy
__all__ = [
    name for module, names in _NAMES.items() if module != "stochastic" for name in names
] + ["KERNEL_BACKEND"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{home}")
    if name != home:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())


# The reduction kernel is the pure-Python fold in ``_reduce_py``; the name stays
# because benchmark provenance and the ``simulate`` JSON envelope report it.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
