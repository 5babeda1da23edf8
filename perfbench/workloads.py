"""One round of one benchmark workload, run in a fresh interpreter.

    python perfbench/workloads.py --workload structure --seed 1 --round 0 [--smoke] [--trace] [--setup-only]

``run.py`` starts this with ``PYTHONPATH=src`` and BLAS threads pinned to 1.
A round builds its inputs from (workload, seed, round) before the timed
phase, calls only the public API of ``kiselman`` (or, for ``cli``, the
``python -m kiselman.cli`` process), checks every output, and prints one
JSON line: timings, per-operation latencies, failed checks, a digest of
the checked outputs and, with ``--trace``, the per-layer aggregates.  No
input repeats within a round, so a memo or precomputed table inside the
program cannot turn the round into cache hits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import kiselman as k

from tracer import TRACE_MARK, Tracer, merge

HERE = Path(__file__).resolve().parent

CARDINALITIES = {2: 5, 3: 18, 4: 115, 5: 1710, 6: 83973}  # |K_n|
# Sphere sizes around the zero f, radius 0..n; the K_4 row serves --smoke.
SPHERES_AROUND_ZERO = {4: (1, 18, 39, 39, 18), 5: (1, 115, 434, 611, 434, 115)}


class Round:
    """Counts operations, times the queries among them, records failed
    checks and digests checked outputs.

    A query is one of the workload's repeated operations of one kind, so
    that the latency percentiles compare like with like; ``op`` counts a
    call without sampling its latency.
    """

    def __init__(self):
        self.calls = 0
        self.latencies: list[float] = []
        self.failed: list[str] = []
        self.info: dict = {}
        self._digest = hashlib.sha256()

    def op(self, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)

    def query(self, fn, *args, **kwargs):
        start = time.perf_counter()
        out = self.op(fn, *args, **kwargs)
        self.latencies.append(time.perf_counter() - start)
        return out

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed.append(name)

    def output(self, value) -> None:
        self._digest.update(repr(value).encode())
        self._digest.update(b"\n")

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()


def random_word(rng: random.Random, rank: int, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, rank) for _ in range(rng.randint(lo, hi)))


def random_subset(rng: random.Random, rank: int) -> frozenset[int]:
    return frozenset(rng.sample(range(1, rank + 1), rng.randint(1, rank - 1)))


def structure(rng: random.Random, smoke: bool, trace: bool):
    """BFS enumeration up to K_6, R, balls and spheres on K_5, the oracle.

    The queries are the sphere and ball scans of K_5.  A centre is drawn
    from each of equal slices of the shortlex order, so every seed has
    centres of every length.  The queries run in a seeded order, half of
    them on each side of the BFS, so their latencies sample the whole round
    and not a few seconds of it.
    """
    top, rank = (4, 4) if smoke else (6, 5)
    oracle_rank, oracle_len = (2, 5) if smoke else (3, 7)
    slices = 2 if smoke else 16
    size = CARDINALITIES[rank]
    centres = [rng.randrange(i * size // slices, (i + 1) * size // slices) for i in range(slices)]
    radii = [rng.randint(1, rank - 1) for _ in centres]
    queries = (1 + slices) * (rank + 2)  # rank + 1 spheres and one ball per centre
    order = rng.sample(range(queries), queries)

    def timed(rnd: Round) -> None:
        universe = rnd.op(k.enumerate_elements, rank)
        f = k.zero(rank)
        balls = [(f, 1)]
        for index, radius in zip(centres, radii):
            centre = universe.elements[index]
            if centre == f:  # its spheres are asked for anyway
                centre = universe.elements[index - 1]
            balls.append((centre, radius))
        asked = [(k.sphere, c, r) for c, _ in balls for r in range(rank + 1)]
        asked += [(k.ball, c, r) for c, r in balls]
        asked = [asked[i] for i in order]
        answers = {}

        def ask(batch) -> None:
            for fn, centre, r in batch:
                answers[fn, centre, r] = rnd.query(fn, universe, centre, r)

        ask(asked[: queries // 2])
        table = rnd.op(k.cardinality_table, top)
        rnd.output(table)
        rnd.check("cardinalities", table == [(n, CARDINALITIES[n]) for n in range(2, top + 1)])
        ask(asked[queries // 2 :])

        spheres = [answers[k.sphere, f, r] for r in range(rank + 1)]
        rnd.output(spheres)
        rnd.check("spheres around f", tuple(map(len, spheres)) == SPHERES_AROUND_ZERO[rank])
        r_set = rnd.op(k.r_set, universe)
        rnd.output(r_set)
        rnd.check("R = ball(f, 1)", r_set == answers[k.ball, f, 1])
        rnd.check("|R| = |K_{n-1}| + 1", len(r_set) == CARDINALITIES[rank - 1] + 1)

        for centre, radius in balls[1:]:
            shells = [answers[k.sphere, centre, r] for r in range(rank + 1)]
            ball = answers[k.ball, centre, radius]
            rnd.output((centre, radius, shells, ball))
            rnd.check("spheres partition K_n", sum(map(len, shells)) == len(universe))
            in_shells = sorted((x for s in shells[: radius + 1] for x in s), key=lambda x: x.shortlex_key)
            rnd.check("ball = union of spheres", ball == in_shells)
            # ultrametric: every member of a ball is one of its centres
            member = next((x for x in reversed(ball) if x != centre), centre)
            rnd.check("ball recentred", member == centre or rnd.query(k.ball, universe, member, radius) == ball)

        oracle = rnd.op(k.congruence_oracle, oracle_rank, oracle_len)
        rnd.output((oracle.num_classes, sorted(oracle.class_ids.items())))
        rnd.check("oracle classes", oracle.num_classes == CARDINALITIES[oracle_rank])

        def agreement() -> bool:
            canonical: dict = {}
            for word, cls in oracle.class_ids.items():
                canonical.setdefault(cls, set()).add(k.reduce(oracle_rank, word))
            reps = [next(iter(s)) for s in canonical.values()]
            return all(len(s) == 1 for s in canonical.values()) and len(set(reps)) == len(reps)

        rnd.check("oracle agrees with reduce", agreement())

    return timed, None


def pooled(reports: list) -> k.SimulationReport:
    """One report for the trials of ``reports`` together."""
    histogram: dict[int, int] = {}
    for report in reports:
        for steps, count in report.histogram.items():
            histogram[steps] = histogram.get(steps, 0) + count
    trials = sum(histogram.values())
    mean = sum(steps * count for steps, count in histogram.items()) / trials
    square = sum(steps * steps * count for steps, count in histogram.items()) / trials
    return dataclasses.replace(reports[0], trials=trials, histogram=histogram,
                               mean=mean, variance=square - mean * mean)


def montecarlo(rng: random.Random, smoke: bool, trace: bool):
    """Level- and full-mode Monte Carlo, verification, and the exact pmf.

    The queries are the level-mode simulations: the level trials are run as
    equal chunks with seeds of their own, pooled for the verdict.  The
    chunks run in groups between the other calls, so their latencies sample
    the whole round and not a few seconds of it.
    """
    p3 = (0.2, 0.3, 0.5)
    p5 = (0.1, 0.15, 0.2, 0.25, 0.3)
    q = 1e-2 if smoke else 1e-3
    chunks, chunk_trials = (5, 400) if smoke else (50, 2000)  # five groups of chunks
    full_trials, strided_trials = (500, 500) if smoke else (20_000, 10_000)
    sim_seed = rng.randrange(2**32)

    def exact_checks(rnd: Round, p, pmf) -> None:
        mean, cdf = rnd.op(lambda: (pmf.mean(), k.chain_hitting_cdf(p, pmf.k_max)))
        expected = sum(1.0 / v for v in p)
        rnd.check(f"pmf mean {p}", abs(mean - expected) <= 1e-9 * expected)
        rnd.check(f"pmf cdf vs chain {p}", float(abs(cdf - pmf.cdf()).max()) <= 1e-12)
        rnd.output((mean, pmf.probs.tobytes(), pmf.tail_mass))

    def timed(rnd: Round) -> None:
        parts: list = []

        def chunk_group() -> None:
            # seeds sim_seed + 8 + i stay clear of the full-mode runs' seeds
            for i in range(len(parts), len(parts) + chunks // 5):
                parts.append(rnd.query(k.simulate, 3, p3, chunk_trials, sim_seed + 8 + i, "level"))

        chunk_group()
        full = rnd.op(k.simulate, 3, p3, full_trials, sim_seed + 3, "full")
        chunk_group()
        twin = rnd.op(k.simulate, 3, p3, full_trials, sim_seed + 3, "level")
        rnd.check("full histogram = level histogram", full.histogram == twin.histogram)
        rnd.check("full transitions = level transitions",
                  full.transition_counts == twin.transition_counts)
        chunk_group()
        strided = rnd.op(k.simulate, 5, p5, strided_trials, sim_seed + 5, "full")
        for report in (full, strided):
            rnd.output(report.to_json())
            rnd.check(f"no crosscheck failures (n={report.rank})",
                      report.crosscheck_failures == 0 and report.crosscheck_trials > 0)
        chunk_group()
        p2 = (1.0 - q, q)
        exact_checks(rnd, p2, rnd.op(k.exact_hitting_pmf, p2))
        chunk_group()

        level = pooled(parts)
        pmf3 = rnd.op(k.exact_hitting_pmf, p3)
        verdict = rnd.op(k.verify_distribution, level, pmf3)
        rnd.output((level.to_json(), verdict))
        exact_checks(rnd, p3, pmf3)
        # the TV/chi-square verdict fails on about 0.1% of seeds by design
        rnd.info["verdict"] = {"passed": verdict.passed, "tv": verdict.tv_distance,
                               "chi2_pvalue": verdict.chi2_pvalue}

    return timed, None


def words(rng: random.Random, smoke: bool, trace: bool):
    """Interleaved single-element queries on long or far-from-canonical words.

    The random words are distinct, but at rank 4 their reduced forms repeat,
    since |K_4| = 115.
    """
    items = 20 if smoke else 1000
    long_k5 = [x for x in k.enumerate_elements(5).elements if len(x.letters) >= 6]
    sampled = rng.sample(long_k5, items)
    # ranks and lengths are spread evenly, so the work per round hardly
    # depends on the seed; the letters are random
    random_words = set()
    for i in range(items):
        rank, length = 4 + i % 5, 10 + 110 * i // (items - 1)
        while len(random_words) == i:
            random_words.add((rank, tuple(rng.randint(1, rank) for _ in range(length))))
    random_words = sorted(random_words)
    rng.shuffle(random_words)
    inputs = []
    for (rank, word), x in zip(random_words, sampled):
        inputs.append((rank, word, random_subset(rng, rank), random_subset(rng, rank)))
        inputs.append((5, x.letters, random_subset(rng, 5), random_subset(rng, 5)))
    zeros = {rank: k.zero(rank) for rank in range(4, 9)}

    def timed(rnd: Round) -> None:
        partners: dict[int, list] = {}
        for rank, word, s, t in inputs:
            x = rnd.query(k.reduce, rank, word)
            # a canonical input is itself the idempotence check
            again = x if x.letters == word else rnd.query(k.reduce, rank, x.letters)
            rnd.check("reduce idempotent", again == x)
            flipped = rnd.query(k.tau, x)
            rnd.check("tau tau = id", rnd.query(k.tau, flipped) == x)
            d_s = rnd.query(k.delete, s, x)
            d_st = rnd.query(k.delete, t, d_s)
            rnd.check("deletions compose", rnd.query(k.delete, s | t, x) == d_st)
            levels = (
                rnd.query(k.level, x),
                rnd.query(k.level_by_definition, x),
                rnd.query(k.m_function, x),
                rnd.query(k.distance, x, zeros[rank]),
            )
            rnd.check("levels agree with d(x, f)", len(set(levels)) == 1)
            rnd.output((x, flipped, d_st, levels))
            pool = partners.setdefault(rank, [])
            if len(pool) == 2:
                y, z = pool
                left = rnd.query(k.multiply, rnd.query(k.multiply, x, y), z)
                right = rnd.query(k.multiply, x, rnd.query(k.multiply, y, z))
                rnd.check("multiply associative", left == right)
                rnd.output(left)
                pool.pop(0)
            pool.append(x)

    return timed, None


def _lines(rows) -> str:
    return "".join(f"{row}\n" for row in rows)


def _word(letters) -> str:
    return k.format_word(tuple(letters))


# One round's mix of CLI queries: element queries at rank 3-6, the chain and
# the pmf at n <= 4, and whole-monoid queries at n <= 4.  ``simulate`` is
# left out: at small trial counts its TV bound fails by design.
CLI_MIX = (
    ["reduce", "mul", "tau", "content", "delete", "level", "m", "dist"]
    + ["reduce", "mul", "level", "dist"]
    + ["chain", "pmf"] * 2
    + ["enumerate", "table", "rset", "ball"]
)
CLI_SMOKE_MIX = ["reduce", "mul", "delete", "dist", "chain", "pmf", "enumerate", "ball"]


def _cli_query(rng: random.Random, kind: str):
    """(argv, expected stdout) for one query; the answer comes from the API."""
    if kind in ("chain", "pmf"):
        n = rng.randint(2, 4)
        cuts = sorted(rng.sample(range(1, 10), n - 1))
        p = tuple((b - a) / 10 for a, b in zip([0, *cuts], [*cuts, 10]))
        base = ["--n", str(n), "--p", ",".join(f"{v:g}" for v in p)]
        if kind == "chain":
            return ["chain", *base], lambda: _lines(
                " ".join(f"{v:.12g}" for v in row) for row in k.transition_matrix(p).matrix)
        kmax = rng.choice([None, rng.randint(5, 40)])

        def pmf_lines():
            pmf = k.exact_hitting_pmf(p, k_max=kmax)
            rows = [f"P(T={i})={v:.12g}" for i, v in enumerate(pmf.probs)]
            return _lines(rows + [f"tail={pmf.tail_mass:.12g}"])

        return ["pmf", *base] + ([] if kmax is None else ["--k", str(kmax)]), pmf_lines
    if kind in ("enumerate", "table", "rset", "ball"):
        n = rng.randint(2, 4)
        if kind == "enumerate":
            return ["enumerate", "--n", str(n)], lambda: _lines(
                _word(x.letters) for x in k.enumerate_elements(n))
        if kind == "table":
            return ["enumerate", "--n", str(n), "--table"], lambda: _lines(
                f"{m}\t{c}" for m, c in k.cardinality_table(n))
        if kind == "rset":
            return ["rset", "--n", str(n)], lambda: _lines(
                _word(x.letters) for x in k.r_set(k.enumerate_elements(n)))
        w = random_word(rng, n, 1, 8)
        r = rng.randint(0, n)
        return ["ball", "--n", str(n), "--center", _word(w), "--r", str(r)], lambda: _lines(
            _word(x.letters) for x in k.ball(k.enumerate_elements(n), k.reduce(n, w), r))

    n = rng.randint(3, 6)
    w = random_word(rng, n, 3, 30)
    v = random_word(rng, n, 3, 30)
    base = ["--n", str(n)]
    if kind == "mul":
        return ["mul", *base, "--left", _word(w), "--right", _word(v)], lambda: _lines(
            [k.multiply(k.reduce(n, w), k.reduce(n, v))])
    if kind == "dist":
        return ["dist", *base, "--x", _word(w), "--y", _word(v)], lambda: _lines(
            [k.distance(k.reduce(n, w), k.reduce(n, v))])
    if kind == "delete":
        s = random_subset(rng, n)
        return ["delete", *base, "--word", _word(w), "--set", _word(sorted(s))], lambda: _lines(
            [k.delete(s, k.reduce(n, w))])
    answer = {
        "reduce": lambda x: x,
        "tau": k.tau,
        "content": lambda x: _word(sorted(k.content(x))),
        "level": k.level_by_definition,
        "m": k.m_function,
    }[kind]
    return [kind, *base, "--word", _word(w)], lambda: _lines([answer(k.reduce(n, w))])


def cli(rng: random.Random, smoke: bool, trace: bool):
    """Sequential ``python -m kiselman.cli`` processes, checked against the API."""
    mix = list(CLI_SMOKE_MIX if smoke else CLI_MIX)
    rng.shuffle(mix)
    queries: list = []
    seen: set = set()
    for kind in mix:
        argv, expect = _cli_query(rng, kind)
        while tuple(argv) in seen:
            argv, expect = _cli_query(rng, kind)
        seen.add(tuple(argv))
        queries.append((argv, expect))

    if trace:
        command = [sys.executable, str(HERE / "tracer.py")]
    else:
        command = [sys.executable, "-m", "kiselman.cli"]
    runs: list = []

    def timed(rnd: Round) -> None:
        for argv, _ in queries:
            runs.append(rnd.query(subprocess.run, command + argv, capture_output=True, text=True, timeout=120))

    def check(rnd: Round) -> None:
        nonzero = 0
        dumps = []
        for (argv, expect), proc in zip(queries, runs):
            nonzero += proc.returncode != 0
            rnd.check(f"exit 0 and stdout as the API: {' '.join(argv)}",
                      proc.returncode == 0 and proc.stdout == expect())
            rnd.output((argv, proc.returncode, proc.stdout))
            dumps += [json.loads(line[len(TRACE_MARK):]) for line in proc.stderr.splitlines()
                      if line.startswith(TRACE_MARK)]
        rnd.info["nonzero_exits"] = nonzero
        if trace:
            rnd.info["trace"] = merge(dumps)

    return timed, check


WORKLOADS = {"structure": structure, "montecarlo": montecarlo, "words": words, "cli": cli}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    parser.add_argument("--trace", action="store_true", help="record per-layer aggregates")
    parser.add_argument("--setup-only", action="store_true", help="stop after building the inputs")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace and args.workload != "cli":
        tracer = Tracer()
        tracer.install()
    rng = random.Random(f"{args.workload}:{args.seed}:{args.round}")
    timed, check = WORKLOADS[args.workload](rng, args.smoke, args.trace)
    result = {"timed_start": time.monotonic()}
    if not args.setup_only:
        rnd = Round()
        if tracer is not None:
            tracer.reset()
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        timed(rnd)
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        if args.workload == "cli":
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            cpu = (after.ru_utime - children.ru_utime) + (after.ru_stime - children.ru_stime)
        if tracer is not None:
            rnd.info["trace"] = tracer.dump()
        if check is not None:
            check(rnd)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=rss_kb / 1024.0,
            calls=rnd.calls,
            latencies=rnd.latencies,
            failed=rnd.failed,
            digest=rnd.digest,
            info=rnd.info,
        )
    result["provenance"] = {
        "kernel_backend": k.KERNEL_BACKEND,
        "kiselman_version": k.__version__,
        "python": sys.version.split()[0],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
