"""qplab: exact q-series arithmetic, two-color partition families, and a
machine-checked catalog of the identities connecting them.

Importing the package loads none of its modules.  Each public name below, and
each submodule, loads its module on first use (PEP 562), so
``import qplab.series`` loads ``series`` alone.  Nothing is cached here: a
name always reads its defining module's current binding.
"""

import sys

__version__ = "0.1.0"

_EXPORTS = {
    "series": ("Comparison", "Series", "SeriesError", "equal_up_to", "linear_combine"),
    "qengine": (
        "LENGTH_INF", "LENGTH_N", "LENGTH_N_PLUS_1", "Parameter", "Poch", "PochFactor",
        "QEngineError", "TermTemplate", "phi21", "poch_finite", "poch_infinite",
        "rational_series", "sum_over_smallest",
    ),
    "mocktheta": ("MockThetaForm", "mock_theta", "theta_squares"),
    "partitions": (
        "FAMILIES", "ColoredPart", "FamilySpec", "PartitionError", "TwoColorPartition",
        "count_ady", "count_family", "count_overpartitions", "enumerate_family",
        "family_series", "is_square", "statistic_counts",
    ),
    "family_gf": ("FAMILY_NAMES", "family_gf_series", "family_template"),
    "registry": (
        "CATALOG", "IdentityCase", "IdentityReport", "NEGATIVE_CONTROL_ID",
        "list_identities", "verify", "verify_all",
    ),
}
_MODULES = (*_EXPORTS, "recipes", "cli")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name in _MODULES:
        return _load(name)
    if name in _HOME:
        return getattr(_load(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(module):
    # the import statement's route, not importlib.import_module, so that
    # python -X importtime reports the module
    __import__(f"{__name__}.{module}")
    return sys.modules[f"{__name__}.{module}"]


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
