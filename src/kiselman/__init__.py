"""Exact computation and simulation toolkit for the monoids K_n."""

import importlib

from kiselman.core import (
    Element,
    MalformedWordError,
    RankMismatchError,
    content,
    format_word,
    generator,
    idempotent,
    multiply,
    parse_word,
    power,
    reduce,
    tau,
    unit,
    zero,
)
from kiselman.enumeration import (
    CongruencePartition,
    ElementList,
    cardinality_table,
    congruence_oracle,
    enumerate_elements,
)
from kiselman.level_metric import (
    ball,
    distance,
    g,
    level,
    level_by_definition,
    level_by_recursion,
    level_sets,
    m_function,
    r_set,
    sphere,
)
from kiselman.morphisms import delete, word_delete

# The stochastic layer needs numpy and the algebra does not, so the module
# and its names are loaded on first access (PEP 562).
_STOCHASTIC_NAMES = frozenset({
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
})


def __getattr__(name):
    if name == "stochastic" or name in _STOCHASTIC_NAMES:
        module = importlib.import_module("kiselman.stochastic")
        return module if name == "stochastic" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# The reduction kernel is the pure-Python fold in ``_reduce_py``; the name stays
# because benchmark provenance and the ``simulate`` JSON envelope report it.
KERNEL_BACKEND = "python"

__version__ = "0.1.0"
