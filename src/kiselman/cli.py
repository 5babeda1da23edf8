"""Command-line interface.

Exit codes: 0 success; 1 verification failure, a failing verdict or a
``core.CrosscheckError``; 2 usage, input or I/O error, a ``ValueError`` or
an ``OSError``; 3 budget exceeded, a ``core.BudgetExceededError``.  All
randomized subcommands require an explicit --seed.

Each command imports the modules it calls, and ``json`` only where it
prints JSON: a process compiles what its command runs, nothing more.  The
calls go through module attributes, so a patched module function is the
one called.
"""

from __future__ import annotations

import argparse
import sys

from kiselman import core

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
    """The operand ``--<attr>``, a word, as an element of K_n."""
    return core.reduce(args.n, core.parse_word(getattr(args, attr)))


def _print_json(value, sort_keys: bool = False) -> None:
    import json

    print(json.dumps(value, sort_keys=sort_keys))


def _emit(args, plain: str, record: dict) -> None:
    if args.format == "json":
        _print_json(record, sort_keys=True)
    elif args.format == "tsv":
        print("\t".join(" ".join(map(str, v)) if isinstance(v, list) else str(v)
                        for v in record.values()))
    else:
        print(plain)


def _emit_element(args, x: core.Element) -> None:
    _emit(args, str(x), {"element": core.format_word(x.letters), "rank": args.n})


def _print_elements(args, elements) -> None:
    if args.format == "json":
        _print_json([core.format_word(x.letters) for x in elements])
    else:
        for x in elements:
            print(core.format_word(x.letters))


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

    # the rule's values: stochastic.TV_FAILURE_PROB and stochastic.PVALUE_FLOOR
    cmd = add("verify", "compare a simulation report against the exact pmf", formats=())
    cmd.description = ("passes at a TV distance below a bound that a correct run exceeds "
                       "with probability 0.001 and a chi-square p-value above 1e-3")
    cmd.add_argument("--report", required=True, help="report JSON file")

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
    except core.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except AssertionError as exc:  # core.CrosscheckError, every failed internal check
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except (ValueError, OSError) as exc:  # bad input, or a file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args) -> int:
    if args.command == "reduce":
        _emit_element(args, _element(args))
    elif args.command == "mul":
        _emit_element(args, core.multiply(_element(args, "left"), _element(args, "right")))
    elif args.command == "tau":
        _emit_element(args, core.tau(_element(args)))
    elif args.command == "content":
        members = sorted(core.content(_element(args)))
        _emit(args, " ".join(map(str, members)), {"content": members})
    elif args.command == "delete":
        from kiselman import morphisms

        members = frozenset(core.validate_word(args.n, core.parse_word(args.set)))
        _emit_element(args, morphisms.delete(members, _element(args)))
    elif args.command in ("level", "m"):
        from kiselman import level_metric

        x = _element(args)
        search = {"level": level_metric.level_by_definition, "m": level_metric.m_function}
        value = search[args.command](x)
        _emit(args, str(value), {"element": core.format_word(x.letters), args.command: value})
    elif args.command == "dist":
        from kiselman import level_metric

        x, y = _element(args, "x"), _element(args, "y")
        d = level_metric.distance(x, y)
        record = {"x": core.format_word(x.letters), "y": core.format_word(y.letters), "d": d}
        _emit(args, str(d), record)
    elif args.command == "enumerate":
        from kiselman import enumeration

        if args.table:
            if args.format != "plain":
                raise ValueError("--table prints TSV and takes no --format")
            for n, count in enumeration.cardinality_table(max_rank=args.n):
                print(f"{n}\t{count}")
            return EXIT_OK
        _print_elements(args, enumeration.enumerate_elements(args.n))
    elif args.command in ("ball", "sphere", "rset"):
        from kiselman import enumeration, level_metric

        universe = enumeration.enumerate_elements(args.n)
        if args.command == "rset":
            members = level_metric.r_set(universe)
        else:
            center = _element(args, "center")
            fn = level_metric.ball if args.command == "ball" else level_metric.sphere
            members = fn(universe, center, args.r)
        _print_elements(args, members)
    elif args.command == "chain":
        from kiselman import levelchain

        rows = levelchain.transition_rows(_probs(args))
        if args.format == "json":
            _print_json({"matrix": rows, "initial": levelchain.initial_distribution(args.n)})
        else:
            for row in rows:
                print(" ".join(f"{v:.12g}" for v in row))
    elif args.command == "pmf":
        from kiselman import levelchain

        p = _probs(args)
        probs, tail_mass, tail_mean = levelchain.hitting_pmf(p, k_max=args.k)
        if args.format == "json":
            _print_json({"probs": probs, "tail_mass": tail_mass,
                         "mean": levelchain.mean(probs, tail_mean)})
        else:
            for k, prob in enumerate(probs):
                print(f"P(T={k})={prob:.12g}")
            print(f"tail={tail_mass:.12g}")
    elif args.command == "simulate":
        import json

        import kiselman
        from kiselman import stochastic  # numpy: loaded by simulate and verify only

        p = stochastic.validate_simulation(args.n, _probs(args), args.trials, args.seed, args.mode)
        # a pmf past its budget is refused before any trial runs
        pmf = stochastic.exact_hitting_pmf(p)
        stochastic.chi2_bins(pmf, args.trials)  # and a run too small to test
        report = stochastic.simulate(args.n, p, trials=args.trials, seed=args.seed, mode=args.mode)
        verdict = stochastic.verify_distribution(report, pmf)
        payload = json.loads(report.to_json())
        payload["kernel_backend"] = kiselman.KERNEL_BACKEND
        payload["kiselman_version"] = kiselman.__version__
        payload["tv_vs_exact"] = verdict.tv_distance
        payload["chi2_pvalue"] = verdict.chi2_pvalue
        payload["verdict"] = "pass" if verdict.passed else "fail"
        text = json.dumps(payload, sort_keys=True)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        print(text)
        return EXIT_OK if verdict.passed else EXIT_VERIFY_FAILED
    elif args.command == "verify":
        from kiselman import stochastic

        with open(args.report, encoding="utf-8") as fh:
            report = stochastic.SimulationReport.from_json(fh.read())
        if report.rank != args.n:
            raise ValueError(f"--n is {args.n} but the report has rank {report.rank}")
        pmf = stochastic.exact_hitting_pmf(report.p)
        verdict = stochastic.verify_distribution(report, pmf)
        _print_json({
            "tv_distance": verdict.tv_distance,
            "chi2_pvalue": verdict.chi2_pvalue,
            "passed": verdict.passed,
        }, sort_keys=True)
        return EXIT_OK if verdict.passed else EXIT_VERIFY_FAILED
    elif args.command == "selftest":
        from kiselman import selftest

        results = selftest.run_selftest()
        failed = 0
        for name, ok in results:
            print(f"{'PASS' if ok else 'FAIL'}  {name}")
            failed += not ok
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return EXIT_VERIFY_FAILED if failed else EXIT_OK
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
