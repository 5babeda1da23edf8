"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage, input or I/O
error, 3 budget exceeded.  All randomized subcommands require an explicit
--seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import kiselman
from kiselman import core, enumeration, level_metric, morphisms

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _probs(args) -> tuple[float, ...]:
    """--p, which must give one probability per generator of K_n."""
    p = tuple(float(tok) for tok in args.p.replace(",", " ").split())
    if len(p) != args.n:
        raise ValueError(f"--p has {len(p)} probabilities but --n is {args.n}")
    return p


def _element(args, attr="word") -> core.Element:
    return core.reduce(args.n, core.parse_word(getattr(args, attr)))


def _emit(args, plain: str, record: dict) -> None:
    if args.format == "json":
        print(json.dumps(record, sort_keys=True))
    elif args.format == "tsv":
        print("\t".join(" ".join(map(str, v)) if isinstance(v, list) else str(v)
                        for v in record.values()))
    else:
        print(plain)


def _json_number(value: float) -> float | None:
    """``value``, or None (JSON null) for NaN, which strict JSON cannot hold."""
    return None if math.isnan(value) else value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kiselman",
        description="exact computation and simulation in the monoids K_n",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # a command offers only the formats it prints
    def add(name, help_text, *, rank=True, formats=("json", "tsv", "plain")):
        cmd = sub.add_parser(name, help=help_text)
        if rank:
            cmd.add_argument("--n", type=int, required=True, help="rank (>= 2)")
        if formats:
            cmd.add_argument("--format", choices=formats, default="plain")
        return cmd

    # the commands whose plain output is already a list or a table
    plain_or_json = ("json", "plain")

    cmd = add("reduce", "canonical form of a word")
    cmd.add_argument("--word", required=True)

    cmd = add("mul", "product of two elements")
    cmd.add_argument("--left", required=True)
    cmd.add_argument("--right", required=True)

    cmd = add("tau", "apply the index-reversing antiautomorphism")
    cmd.add_argument("--word", required=True)

    cmd = add("content", "occurring generator indices")
    cmd.add_argument("--word", required=True)

    cmd = add("delete", "delete the generators of a set from an element")
    cmd.add_argument("--word", required=True)
    cmd.add_argument("--set", required=True, help="indices, e.g. '1 3'")

    cmd = add("level", "level of an element")
    cmd.add_argument("--word", required=True)

    cmd = add("m", "least i with x*e_[i] equal to the zero")
    cmd.add_argument("--word", required=True)

    cmd = add("dist", "ultrametric distance between two elements")
    cmd.add_argument("--x", required=True)
    cmd.add_argument("--y", required=True)

    cmd = add("enumerate", "list all elements of K_n", formats=plain_or_json)
    cmd.add_argument("--cap", type=int, default=1_000_000)
    cmd.add_argument("--table", action="store_true", help="emit (n, |K_n|) TSV up to --n")

    cmd = add("ball", "metric ball around an element", formats=plain_or_json)
    cmd.add_argument("--center", default="")
    cmd.add_argument("--r", type=int, required=True)

    cmd = add("sphere", "metric sphere around an element", formats=plain_or_json)
    cmd.add_argument("--center", default="")
    cmd.add_argument("--r", type=int, required=True)

    add("rset", "all x with x*a_1 equal to the zero", formats=plain_or_json)

    cmd = add("chain", "transition matrix of the level chain", formats=plain_or_json)
    cmd.add_argument("--p", required=True, help="comma-separated probabilities")

    cmd = add("pmf", "exact hitting-time distribution", formats=plain_or_json)
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--k", type=int, default=None, help="truncation (default: tail < 1e-9)")

    cmd = add("simulate", "seeded Monte Carlo hitting times", formats=())
    cmd.add_argument("--p", required=True)
    cmd.add_argument("--trials", type=int, required=True)
    cmd.add_argument("--seed", type=int, required=True)
    cmd.add_argument("--mode", choices=("level", "full"), default="full")
    cmd.add_argument("--out", default=None, help="write the report JSON here")

    cmd = add("verify", "compare a simulation report against the exact pmf", formats=())
    cmd.add_argument("--report", required=True, help="report JSON file")
    cmd.add_argument("--tv-bound", type=float, help="default: exceeded by a correct run "
                     "with probability 0.001")  # stochastic.TV_FAILURE_PROB
    cmd.add_argument("--pvalue-floor", type=float, default=1e-3)

    add("selftest", "run every internal consistency check", rank=False, formats=())
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK

    try:
        return _dispatch(args)
    except enumeration.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:  # CrosscheckError and every internal spot check
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "reduce":
        x = _element(args)
        _emit(args, str(x), {"element": core.format_word(x.letters), "rank": args.n})
    elif args.command == "mul":
        x = core.reduce(args.n, core.parse_word(args.left))
        y = core.reduce(args.n, core.parse_word(args.right))
        z = core.multiply(x, y)
        _emit(args, str(z), {"element": core.format_word(z.letters), "rank": args.n})
    elif args.command == "tau":
        z = core.tau(_element(args))
        _emit(args, str(z), {"element": core.format_word(z.letters), "rank": args.n})
    elif args.command == "content":
        members = sorted(core.content(_element(args)))
        _emit(args, " ".join(map(str, members)), {"content": members})
    elif args.command == "delete":
        members = frozenset(core.validate_word(args.n, core.parse_word(args.set)))
        z = morphisms.delete(members, _element(args))
        _emit(args, str(z), {"element": core.format_word(z.letters), "rank": args.n})
    elif args.command == "level":
        x = _element(args)
        lvl = level_metric.level_by_definition(x)
        _emit(args, str(lvl), {"element": core.format_word(x.letters), "level": lvl})
    elif args.command == "m":
        x = _element(args)
        val = level_metric.m_function(x)
        _emit(args, str(val), {"element": core.format_word(x.letters), "m": val})
    elif args.command == "dist":
        x = core.reduce(args.n, core.parse_word(args.x))
        y = core.reduce(args.n, core.parse_word(args.y))
        d = level_metric.distance(x, y)
        _emit(
            args,
            str(d),
            {"x": core.format_word(x.letters), "y": core.format_word(y.letters), "d": d},
        )
    elif args.command == "enumerate":
        if args.table:
            if args.format != "plain":
                raise ValueError("--table prints TSV and takes no --format")
            for n, count in enumeration.cardinality_table(max_rank=args.n, cap=args.cap):
                print(f"{n}\t{count}")
            return EXIT_OK
        universe = enumeration.enumerate_elements(args.n, cap=args.cap)
        if args.format == "json":
            print(json.dumps([core.format_word(x.letters) for x in universe]))
        else:
            for x in universe:
                print(core.format_word(x.letters))
    elif args.command in ("ball", "sphere", "rset"):
        universe = enumeration.enumerate_elements(args.n)
        if args.command == "rset":
            members = level_metric.r_set(universe)
        else:
            center = core.reduce(args.n, core.parse_word(args.center))
            fn = level_metric.ball if args.command == "ball" else level_metric.sphere
            members = fn(universe, center, args.r)
        if args.format == "json":
            print(json.dumps([core.format_word(x.letters) for x in members]))
        else:
            for x in members:
                print(core.format_word(x.letters))
    elif args.command == "chain":
        from kiselman import stochastic  # numpy: loaded by the stochastic commands only

        chain = stochastic.transition_matrix(_probs(args))
        if args.format == "json":
            print(json.dumps({"matrix": chain.matrix.tolist(), "initial": chain.initial.tolist()}))
        else:
            for row in chain.matrix:
                print(" ".join(f"{v:.12g}" for v in row))
    elif args.command == "pmf":
        from kiselman import stochastic

        pmf = stochastic.exact_hitting_pmf(_probs(args), k_max=args.k)
        if args.format == "json":
            print(json.dumps({"probs": pmf.probs.tolist(), "tail_mass": pmf.tail_mass,
                              "mean": pmf.mean()}))
        else:
            for k, prob in enumerate(pmf.probs):
                print(f"P(T={k})={prob:.12g}")
            print(f"tail={pmf.tail_mass:.12g}")
    elif args.command == "simulate":
        from kiselman import stochastic

        p = stochastic.validate_simulation(args.n, _probs(args), args.trials, args.seed, args.mode)
        # a pmf past its budget is refused before any trial runs
        pmf = stochastic.exact_hitting_pmf(p)
        report = stochastic.simulate(args.n, p, trials=args.trials, seed=args.seed, mode=args.mode)
        tv_bound = stochastic.tv_tolerance(pmf, report.trials)
        verdict = stochastic.verify_distribution(report, pmf, tv_bound)
        payload = json.loads(report.to_json())
        payload["kernel_backend"] = kiselman.KERNEL_BACKEND
        payload["kiselman_version"] = kiselman.__version__
        payload["tv_vs_exact"] = verdict.tv_distance
        payload["chi2_pvalue"] = _json_number(verdict.chi2_pvalue)
        payload["verdict"] = "pass" if verdict.passed else "fail"
        text = json.dumps(payload, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        if not verdict.passed:
            return EXIT_VERIFY_FAILED
    elif args.command == "verify":
        from kiselman import stochastic

        with open(args.report, encoding="utf-8") as fh:
            report = stochastic.SimulationReport.from_json(fh.read())
        if report.rank != args.n:
            raise ValueError(f"--n is {args.n} but the report has rank {report.rank}")
        pmf = stochastic.exact_hitting_pmf(report.p)
        tv_bound = args.tv_bound
        if tv_bound is None:
            tv_bound = stochastic.tv_tolerance(pmf, report.trials)
        verdict = stochastic.verify_distribution(report, pmf, tv_bound, args.pvalue_floor)
        print(json.dumps({
            "tv_distance": verdict.tv_distance,
            "chi2_pvalue": _json_number(verdict.chi2_pvalue),
            "passed": verdict.passed,
        }, sort_keys=True))
        if not verdict.passed:
            return EXIT_VERIFY_FAILED
    elif args.command == "selftest":
        from kiselman import selftest

        results = selftest.run_selftest()
        failed = 0
        for name, ok in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
            failed += not ok
        print(f"{len(results) - failed}/{len(results)} checks passed")
        if failed:
            return EXIT_VERIFY_FAILED
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
