"""Each CLI command loads only the modules it calls: the algebra loads no
numpy, and no ``dataclasses`` or ``inspect``; ``json`` is loaded only where
JSON is printed; nothing at run time loads scipy.  The package serves its
names lazily and stores each one on first use.

Each load case runs in a fresh interpreter, since this test process has
long since imported all of these.
"""

import subprocess
import sys

import pytest

import kiselman
from kiselman import core, enumeration, level_metric, morphisms, stochastic

# the standard-library and third-party modules whose loading is pinned
WATCHED = ("dataclasses", "inspect", "json", "numpy", "scipy")

# prints which kiselman modules and which WATCHED modules are loaded, after
# running the code before it; imports nothing watched itself
REPORT_MODULES = f"""
print(*sorted(m for m in sys.modules
              if m in {WATCHED!r} or m == "kiselman" or m.startswith("kiselman.")))
"""

# runs the CLI with the arguments after -c, then prints its exit code and
# the loaded modules
CLI_THEN_MODULES = """
import runpy, sys
sys.argv = ["kiselman", *sys.argv[1:]]
code = None
try:
    runpy.run_module("kiselman.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(code, end=" ")
""" + REPORT_MODULES

# stands for the path of a report that passes verify
REPORT = "<report>"

ALGEBRA = {"kiselman", "kiselman.core", "kiselman._reduce_py"}
METRIC = ALGEBRA | {"kiselman.level_metric", "kiselman.morphisms"}
ENUMERATION = ALGEBRA | {"kiselman.enumeration"}
CHAIN = ALGEBRA | {"kiselman.levelchain"}
STOCHASTIC = METRIC | {"kiselman.levelchain", "kiselman.stochastic",
                       "numpy", "dataclasses", "inspect", "json"}


def loaded_after(argv):
    result = subprocess.run(
        [sys.executable, "-c", CLI_THEN_MODULES, *argv],
        capture_output=True, text=True, timeout=300,
    )
    code, *modules = result.stdout.splitlines()[-1].split()
    assert code == "0", result.stderr
    return set(modules)


def loaded_by_import(statement):
    result = subprocess.run(
        [sys.executable, "-c", f"import sys\n{statement}\n{REPORT_MODULES}"],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return set(result.stdout.split())


@pytest.mark.parametrize("argv, modules", [
    (["reduce", "--n", "3", "--word", "1 2 1 3"], ALGEBRA),
    (["mul", "--n", "3", "--left", "1 2", "--right", "3 1"], ALGEBRA),
    (["dist", "--n", "3", "--x", "1", "--y", "2 1"], METRIC),
    (["enumerate", "--n", "3"], ENUMERATION),
    (["ball", "--n", "3", "--center", "1", "--r", "1"], ENUMERATION | METRIC),
    (["rset", "--n", "3"], ENUMERATION | METRIC),
    (["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "4"], CHAIN),
    (["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "4", "--format", "json"], CHAIN | {"json"}),
    (["pmf", "--n", "3", "--p", "0.2,0.3,0.5"], CHAIN),
    (["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "100", "--seed", "1"], STOCHASTIC),
    (["chain", "--n", "2", "--p", "0.3,0.7"], CHAIN),
    (["chain", "--n", "2", "--p", "0.3,0.7", "--format", "json"], CHAIN | {"json"}),
    (["verify", "--n", "2", "--report", REPORT], STOCHASTIC),
    (["tau", "--n", "3", "--word", "1 2"], ALGEBRA),
    (["content", "--n", "3", "--word", "3 1"], ALGEBRA),
    (["reduce", "--n", "3", "--word", "2 1 2", "--format", "json"], ALGEBRA | {"json"}),
    (["reduce", "--n", "3", "--word", "2 1 2", "--format", "tsv"], ALGEBRA),
    (["delete", "--n", "3", "--word", "1 2 3", "--set", "2"],
     ALGEBRA | {"kiselman.morphisms"}),
    (["level", "--n", "3", "--word", "1 2"], METRIC),
    (["m", "--n", "3", "--word", "1 2"], METRIC),
    (["sphere", "--n", "3", "--center", "1", "--r", "1", "--format", "json"],
     ENUMERATION | METRIC | {"json"}),
    (["enumerate", "--n", "4", "--table"], ENUMERATION),
    (["enumerate", "--n", "3", "--format", "json"], ENUMERATION | {"json"}),
])
def test_cli_commands_load_only_what_they_need(argv, modules, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    argv = [str(report) if arg == REPORT else arg for arg in argv]
    assert loaded_after(argv) == modules


def test_import_kiselman_loads_neither_numpy_nor_scipy():
    assert not loaded_by_import("import kiselman") & {"numpy", "scipy"}


def test_import_kiselman_loads_no_submodule():
    assert loaded_by_import("import kiselman") == {"kiselman"}


def test_star_import_binds_the_algebra_without_numpy():
    loaded = loaded_by_import("from kiselman import *\nassert reduce and ball and ElementList")
    assert loaded == ENUMERATION | METRIC


def test_import_levelchain_loads_neither_numpy_nor_scipy():
    assert loaded_by_import("import kiselman.levelchain") == CHAIN


# what ``from kiselman import *`` bound when the package imported the algebra eagerly
ALGEBRA_NAMES = {
    "Element", "MalformedWordError", "RankMismatchError", "content", "format_word",
    "generator", "idempotent", "multiply", "parse_word", "power", "reduce", "tau", "unit",
    "zero", "CongruencePartition", "ElementList", "cardinality_table", "congruence_oracle",
    "enumerate_elements", "ball", "distance", "g", "level", "level_by_definition",
    "level_by_recursion", "level_sets", "m_function", "r_set", "sphere", "delete",
    "word_delete", "KERNEL_BACKEND",
}


def test_package_names_are_their_modules_objects(monkeypatch):
    modules = {"core": core, "enumeration": enumeration, "level_metric": level_metric,
               "morphisms": morphisms, "stochastic": stochastic}
    assert kiselman._NAMES.keys() == modules.keys()
    for home, names in kiselman._NAMES.items():
        assert getattr(kiselman, home) is modules[home]
        for name in names:
            # a name resolved once is stored, so no later access reaches __getattr__
            monkeypatch.delitem(vars(kiselman), name, raising=False)
            assert getattr(kiselman, name) is getattr(modules[home], name)
            assert vars(kiselman)[name] is getattr(modules[home], name)
    assert kiselman.reduce is kiselman.core.reduce


def test_dir_and_star_import_list_the_package_surface():
    names = {name for names in kiselman._NAMES.values() for name in names}
    assert names | kiselman._NAMES.keys() <= set(dir(kiselman))
    namespace = {}
    exec("from kiselman import *", namespace)
    assert set(namespace) - {"__builtins__"} == ALGEBRA_NAMES
    assert namespace["reduce"] is core.reduce


def test_stochastic_names_are_the_stochastic_objects():
    from kiselman import SimulationReport

    assert SimulationReport is stochastic.SimulationReport
    assert kiselman.simulate is stochastic.simulate
    assert kiselman.stochastic is stochastic


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kiselman.no_such_name
