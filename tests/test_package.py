"""The package surface: every public name, `import *`, `dir`, the submodules,
and which modules an import loads."""

import importlib
import os
import subprocess
import sys

import pytest

import qplab

# every public name and the module that defines it
PUBLIC = {
    "series": "Comparison Series SeriesError equal_up_to linear_combine",
    "qengine": "LENGTH_INF LENGTH_N LENGTH_N_PLUS_1 Parameter Poch PochFactor QEngineError "
               "TermTemplate phi21 poch_finite poch_infinite rational_series sum_over_smallest",
    "mocktheta": "MockThetaForm mock_theta theta_squares",
    "partitions": "FAMILIES ColoredPart FamilySpec PartitionError TwoColorPartition count_ady "
                  "count_family count_overpartitions enumerate_family family_series is_square "
                  "statistic_counts",
    "family_gf": "FAMILY_NAMES family_gf_series family_template",
    "registry": "CATALOG IdentityCase IdentityReport NEGATIVE_CONTROL_ID list_identities "
                "verify verify_all",
}
SUBMODULES = ("cli", "family_gf", "mocktheta", "partitions", "qengine", "recipes", "registry", "series")


def test_all_lists_every_public_name_once():
    names = [name for names in PUBLIC.values() for name in names.split()] + ["__version__"]
    assert len(names) == 44
    assert sorted(qplab.__all__) == sorted(names)
    assert len(set(qplab.__all__)) == len(qplab.__all__)


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_each_name_is_its_defining_modules_object(module):
    home = importlib.import_module(f"qplab.{module}")
    for name in PUBLIC[module].split():
        assert getattr(qplab, name) is getattr(home, name), name


def test_a_name_reads_the_current_binding(monkeypatch):
    from qplab import registry

    marker = object()
    monkeypatch.setattr(registry, "verify", marker)
    assert qplab.verify is marker


def test_import_star_binds_exactly_all():
    namespace = {}
    exec("from qplab import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qplab.__all__)
    assert namespace["__version__"] == "0.1.0"


def test_dir_lists_the_public_names_and_submodules():
    assert set(qplab.__all__) | set(SUBMODULES) <= set(dir(qplab))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="module 'qplab' has no attribute 'nope'"):
        qplab.nope
    assert not hasattr(qplab, "nope")


def _loaded_by(statement, prefix="qplab."):
    code = f"import sys\n{statement}\nprint(*sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    src = os.path.dirname(os.path.dirname(qplab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("module", SUBMODULES)
def test_each_submodule_resolves_after_a_bare_import(module):
    code = f"import qplab\nassert qplab.{module}.__name__ == 'qplab.{module}'"
    assert f"qplab.{module}" in _loaded_by(code)


def test_a_module_import_loads_only_its_own_imports():
    assert _loaded_by("import qplab") == []
    assert _loaded_by("import qplab.series") == ["qplab.series"]
    assert _loaded_by("import qplab.partitions") == ["qplab.partitions", "qplab.series"]
    assert _loaded_by("import qplab.qengine") == ["qplab.qengine", "qplab.series"]


def test_the_cli_import_loads_every_module():
    # the benchmark's setup_s times `import qplab.cli`; its module set is pinned here
    assert _loaded_by("import qplab.cli") == [f"qplab.{m}" for m in SUBMODULES]


@pytest.mark.parametrize("module", ["cli", "series"])
def test_an_import_loads_neither_dataclasses_nor_inspect(module):
    # the records share one base class instead of generating methods at import
    loaded = _loaded_by(f"import qplab.{module}", prefix="")
    assert f"qplab.{module}" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded
