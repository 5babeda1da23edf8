"""Per-layer trace of ``kiselman``, taken from outside the program.

:meth:`Tracer.install` wraps every public function of every ``kiselman.*``
module, by object identity, in every ``kiselman.*`` namespace that binds it
(``reduce_word`` is bound in ``_kernel``, ``core`` and ``morphisms``, for
example), so calls are seen however a module imported them.  Each wrapper
keeps per-(name, parent) aggregates of call count, total time and self time
in memory; a few wrappers also count work (letters reduced, elements
enumerated, trials and steps simulated).  Nothing is written until the
caller dumps the aggregates.

Run as a script, it is a traced stand-in for ``python -m kiselman.cli``:

    python perfbench/tracer.py reduce --n 3 --word "1 2 1"

The CLI's stdout and exit code are unchanged; the aggregates go to stderr
on one line starting with ``TRACE_MARK``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import runpy
import sys
from collections import Counter
from time import perf_counter

TRACE_MARK = "perfbench-trace "
KERNEL_MODULES = ("kiselman._reduce_py", "kiselman._speedups")


def _label(fn) -> str:
    module = fn.__module__
    layer = "kernel" if module in KERNEL_MODULES else module.removeprefix("kiselman.")
    return f"{layer}.{fn.__name__}"


def _is_public_function(attr: str, obj) -> bool:
    if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
        return False
    owner = getattr(obj, "__module__", None) or ""
    name = getattr(obj, "__name__", "")
    return (owner == "kiselman" or owner.startswith("kiselman.")) and not name.startswith("_")


def _count_kernel(counters, args, result):
    n_in = len(args[0])
    counters["kernel.letters_in"] += n_in
    counters["kernel.letters_removed"] += n_in - len(result)
    counters["kernel.changed"] += len(result) != n_in


def _count_enumeration(counters, args, result):
    counters["enumeration.elements"] += len(result)
    counters["enumeration.enumerations"] += 1


def _count_oracle(counters, args, result):
    counters["enumeration.oracle.words"] += len(result.class_ids)


def _count_simulation(counters, args, result):
    counters["stochastic.trials"] += result.trials
    counters["stochastic.steps"] += sum(int(k) * c for k, c in result.histogram.items())
    counters["stochastic.crosscheck_trials"] += result.crosscheck_trials


def _count_pmf(counters, args, result):
    key = "stochastic.pmf.support_max"
    counters[key] = max(counters[key], len(result.probs))


COUNTERS = {
    "kernel.reduce_word": _count_kernel,
    "enumeration.enumerate_elements": _count_enumeration,
    "enumeration.congruence_oracle": _count_oracle,
    "stochastic.simulate": _count_simulation,
    "stochastic.exact_hitting_pmf": _count_pmf,
}


class Tracer:
    """In-memory span aggregates for the wrapped ``kiselman`` functions."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, time spent in children]

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def install(self) -> None:
        import kiselman

        for info in pkgutil.iter_modules(kiselman.__path__, "kiselman."):
            if info.name == "kiselman.cli":  # runs as __main__; timed as a whole process
                continue
            try:
                importlib.import_module(info.name)
            except ImportError:  # the optional compiled kernel
                pass
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "kiselman" or name.startswith("kiselman.")
        ]
        wrappers = {}
        for module in modules:
            for attr, obj in vars(module).items():
                if id(obj) not in wrappers and _is_public_function(attr, obj):
                    wrappers[id(obj)] = self._wrap(obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap(self, fn):
        name = _label(fn)
        count = COUNTERS.get(name)
        stack = self._stack
        spans = self.spans
        counters = self.counters

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                agg = spans.get((name, parent))
                if agg is None:
                    agg = spans[(name, parent)] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += elapsed - frame[1]
            if count is not None:
                count(counters, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self) -> dict:
        return {
            "spans": [[name, parent, *agg] for (name, parent), agg in sorted(self.spans.items())],
            "counters": dict(sorted(self.counters.items())),
        }


def merge(dumps) -> dict:
    """Sum several dumps (one per traced process) into one."""
    total = Tracer()
    for dump in dumps:
        for name, parent, calls, elapsed, own in dump["spans"]:
            agg = total.spans.setdefault((name, parent), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += elapsed
            agg[2] += own
        for key, value in dump["counters"].items():
            old = total.counters[key]
            total.counters[key] = max(old, value) if key.endswith("_max") else old + value
    return total.dump()


def layer_metrics(dump) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of ``BENCHMARK.json`` that a trace dump gives."""
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    by_parent: dict[tuple[str, str], int] = {}
    for name, parent, n, tot, own in dump["spans"]:
        calls[name] = calls.get(name, 0) + n
        total[name] = total.get(name, 0.0) + tot
        self_s[name] = self_s.get(name, 0.0) + own
        by_parent[(name, parent)] = n
    c = dump["counters"]

    def ratio(a, b):
        return a / b if b else 0.0

    kernel = "kernel.reduce_word"
    enum = "enumeration.enumerate_elements"
    letters_in = c.get("kernel.letters_in", 0)
    steps = c.get("stochastic.steps", 0)
    new_elements = c.get("enumeration.elements", 0) - c.get("enumeration.enumerations", 0)
    metrics = {
        "kernel.calls": (calls.get(kernel, 0), "count"),
        "kernel.self_s": (self_s.get(kernel, 0.0), "s"),
        "kernel.letters_in": (letters_in, "count"),
        "kernel.letters_removed": (c.get("kernel.letters_removed", 0), "count"),
        "kernel.changed_frac": (ratio(c.get("kernel.changed", 0), calls.get(kernel, 0)), "ratio"),
        "kernel.ns_per_letter": (ratio(self_s.get(kernel, 0.0) * 1e9, letters_in), "ns"),
    }
    for name in (
        "core.multiply",
        "core.reduce",
        "core.idempotent",
        "morphisms.delete",
        "level_metric.level_by_definition",
        "level_metric.distance",
    ):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    scans = ("level_metric.ball", "level_metric.sphere", "level_metric.r_set")
    metrics["level_metric.scan.self_s"] = (sum(self_s.get(s, 0.0) for s in scans), "s")
    metrics.update({
        "enumeration.enumerate.self_s": (self_s.get(enum, 0.0), "s"),
        "enumeration.elements": (c.get("enumeration.elements", 0), "count"),
        "enumeration.new_frac": (ratio(new_elements, by_parent.get(("core.multiply", enum), 0)), "ratio"),
        "enumeration.oracle.self_s": (self_s.get("enumeration.congruence_oracle", 0.0), "s"),
        "enumeration.oracle.words": (c.get("enumeration.oracle.words", 0), "count"),
        "stochastic.simulate.self_s": (self_s.get("stochastic.simulate", 0.0), "s"),
        "stochastic.trials": (c.get("stochastic.trials", 0), "count"),
        "stochastic.steps": (steps, "count"),
        "stochastic.ns_per_step": (ratio(total.get("stochastic.simulate", 0.0) * 1e9, steps), "ns"),
        "stochastic.crosscheck_trials": (c.get("stochastic.crosscheck_trials", 0), "count"),
        "stochastic.pmf.self_s": (self_s.get("stochastic.exact_hitting_pmf", 0.0), "s"),
        "stochastic.pmf.support": (c.get("stochastic.pmf.support_max", 0), "count"),
        "stochastic.verify.self_s": (self_s.get("stochastic.verify_distribution", 0.0), "s"),
    })
    return metrics


def main() -> None:
    tracer = Tracer()
    tracer.install()
    try:
        # what ``python -m kiselman.cli`` does, arguments included
        runpy.run_module("kiselman.cli", run_name="__main__", alter_sys=True)
    finally:
        sys.stdout.flush()
        print(TRACE_MARK + json.dumps(tracer.dump()), file=sys.stderr)


if __name__ == "__main__":
    main()
