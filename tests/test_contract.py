"""The exit-code contract, read off the source: one exception class per
outcome, defined in ``core``, and ``cli.run`` mapping each to its code.

A failed check raises ``CrosscheckError`` (exit 1), bad input a
``ValueError`` or an ``OSError`` (exit 2), and a refusal
``BudgetExceededError`` (exit 3).  A bare ``assert`` would vanish under
``python -O``, and a bare ``AssertionError`` or ``RuntimeError`` would name
no outcome, so the package has neither.
"""

import ast
import builtins
from pathlib import Path

from kiselman import cli

SOURCES = sorted((Path(cli.__file__).parent).glob("*.py"))
EXCEPTION_CLASSES = {"MalformedWordError", "RankMismatchError", "BudgetExceededError",
                     "CrosscheckError"}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _name(node) -> str:
    """``Name`` or the last part of an ``Attribute``: ``core.X`` is ``X``."""
    return node.attr if isinstance(node, ast.Attribute) else node.id


def test_sources_are_found():
    assert {"cli.py", "core.py", "enumeration.py", "level_metric.py",
            "stochastic.py"} <= {path.name for path in SOURCES}


def test_no_assert_and_no_bare_assertion_or_runtime_error():
    found = []
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                found.append((filename, node.lineno, "assert"))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, (ast.Name, ast.Attribute)) and _name(exc) in (
                        "AssertionError", "RuntimeError"):
                    found.append((filename, node.lineno, _name(exc)))
    assert found == []


def test_only_the_four_exception_classes_are_defined():
    defined = {}
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {_name(base) for base in node.bases
                     if isinstance(base, (ast.Name, ast.Attribute))}
            builtin_exception = any(
                isinstance(getattr(builtins, base, None), type)
                and issubclass(getattr(builtins, base), BaseException) for base in bases)
            if builtin_exception or bases & EXCEPTION_CLASSES or node.name.endswith("Error"):
                defined[node.name] = filename
    assert defined == dict.fromkeys(EXCEPTION_CLASSES, "core.py")


def test_run_maps_each_outcome_to_its_exit_code():
    tree = ast.parse(Path(cli.__file__).read_text())
    run = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name == "run")
    dispatch = next(node for node in ast.walk(run) if isinstance(node, ast.Try)
                    and any(isinstance(call, ast.Call) and _name(call.func) == "_dispatch"
                            for call in ast.walk(node.body[0])))
    mapping = {}
    for handler in dispatch.handlers:
        types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
        returned = next(node.value for node in handler.body if isinstance(node, ast.Return))
        mapping[tuple(_name(t) for t in types)] = getattr(cli, returned.id)
    assert mapping == {
        ("BudgetExceededError",): 3,
        ("AssertionError",): 1,
        ("ValueError", "OSError"): 2,
    }
    assert (cli.EXIT_VERIFY_FAILED, cli.EXIT_USAGE, cli.EXIT_BUDGET) == (1, 2, 3)
