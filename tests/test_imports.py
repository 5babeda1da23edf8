"""The algebra and the level chain's exact law load no numpy, and nothing
at run time loads scipy.

Each case runs in a fresh interpreter, since this test process has long
since imported both.
"""

import json
import subprocess
import sys

import pytest

import kiselman
from kiselman import stochastic

# runs the CLI with the arguments after -c, then prints which of numpy and
# scipy it left loaded
CLI_THEN_MODULES = """
import json, runpy, sys
sys.argv = ["kiselman", *sys.argv[1:]]
code = None
try:
    runpy.run_module("kiselman.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted({"numpy", "scipy"} & sys.modules.keys())]))
"""


# stands for the path of a report that passes verify
REPORT = "<report>"


def loaded_after(argv):
    result = subprocess.run(
        [sys.executable, "-c", CLI_THEN_MODULES, *argv],
        capture_output=True, text=True, timeout=300,
    )
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0, result.stderr
    return modules


@pytest.mark.parametrize("argv, modules", [
    (["reduce", "--n", "3", "--word", "1 2 1 3"], []),
    (["mul", "--n", "3", "--left", "1 2", "--right", "3 1"], []),
    (["dist", "--n", "3", "--x", "1", "--y", "2 1"], []),
    (["enumerate", "--n", "3"], []),
    (["ball", "--n", "3", "--center", "1", "--r", "1"], []),
    (["rset", "--n", "3"], []),
    (["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "4"], []),
    (["pmf", "--n", "2", "--p", "0.5,0.5", "--k", "4", "--format", "json"], []),
    (["pmf", "--n", "3", "--p", "0.2,0.3,0.5"], []),
    (["simulate", "--n", "2", "--p", "0.5,0.5", "--trials", "100", "--seed", "1"], ["numpy"]),
    (["chain", "--n", "2", "--p", "0.3,0.7"], []),
    (["chain", "--n", "2", "--p", "0.3,0.7", "--format", "json"], []),
    (["verify", "--n", "2", "--report", REPORT], ["numpy"]),
])
def test_cli_commands_load_only_what_they_need(argv, modules, tmp_path):
    report = tmp_path / "report.json"
    report.write_text(stochastic.simulate(2, (0.5, 0.5), trials=100, seed=1).to_json())
    argv = [str(report) if arg == REPORT else arg for arg in argv]
    assert loaded_after(argv) == modules


def test_import_kiselman_loads_neither_numpy_nor_scipy():
    probe = "import sys, kiselman; print(sorted({'numpy', 'scipy'} & sys.modules.keys()))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=300)
    assert result.stdout == "[]\n", result.stderr


def test_import_levelchain_loads_neither_numpy_nor_scipy():
    probe = ("import sys, kiselman.levelchain; "
             "print(sorted({'numpy', 'scipy'} & sys.modules.keys()))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=300)
    assert result.stdout == "[]\n", result.stderr


def test_stochastic_names_are_the_stochastic_objects():
    from kiselman import SimulationReport

    assert SimulationReport is stochastic.SimulationReport
    assert kiselman.simulate is stochastic.simulate
    assert kiselman.stochastic is stochastic


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kiselman.no_such_name
