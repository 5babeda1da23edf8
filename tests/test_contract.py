"""The exit-code contract, read off the source: one exception class per
outcome, defined in ``core``, and ``cli.run`` mapping each to its code.

A failed check raises ``CrosscheckError`` (exit 1), bad input a
``ValueError`` or an ``OSError`` (exit 2), and a refusal
``BudgetExceededError`` (exit 3).  A bare ``assert`` would vanish under
``python -O``, and a bare ``AssertionError`` or ``RuntimeError`` would name
no outcome, so the package has neither.
"""

import argparse
import ast
import builtins
import re
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


# every budget of aim 3: a module constant of a library module.  The cli's
# EXIT_* are exit codes and selftest's constants size its checks, so neither
# module is read.
BUDGETS = {"ORACLE_BUDGET", "ELEMENT_BUDGET", "STATE_BUDGET", "SEARCH_MAX_RANK", "SEARCH_BUDGET",
           "PMF_MAX_K", "ENTRY_BUDGET", "STEP_BUDGET", "PRODUCT_BUDGET"}
BUDGET_NAME = re.compile(r"[A-Z0-9_]+_(BUDGET|MAX_RANK|MAX_K)")
SETTABLE_BUDGET = re.compile(r"cap|budget|limit|\w+_budget")
# the verdict's rule, which no caller sets
SETTABLE_VERDICT = re.compile(r"tv_bound|pvalue_floor")


def test_the_budgets_are_exactly_nine_module_constants():
    found = set()
    for filename, tree in _trees().items():
        if filename in ("cli.py", "selftest.py"):
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign):
                found |= {t.id for t in node.targets
                          if isinstance(t, ast.Name) and BUDGET_NAME.fullmatch(t.id)}
    assert found == BUDGETS


def _settable(pattern):
    """Every parameter of a ``def`` or lambda, and every CLI option, whose
    name matches ``pattern``."""
    settable = []
    for filename, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                          *filter(None, (args.vararg, args.kwarg))]
                settable += [(filename, node.lineno, a.arg) for a in params
                             if pattern.fullmatch(a.arg)]
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in commands.choices.items():
        settable += [(name, option) for action in command._actions
                     for option in action.option_strings
                     if pattern.fullmatch(option.lstrip("-").replace("-", "_"))]
    return settable


def test_no_parameter_and_no_option_sets_a_budget():
    assert _settable(SETTABLE_BUDGET) == []


def test_no_parameter_and_no_option_sets_a_verdict_bound():
    assert _settable(SETTABLE_VERDICT) == []
