"""End-to-end and per-layer benchmark of ``kiselman``.

    python3 perfbench/run.py --workload {structure,montecarlo,words,cli} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the repository root.  Every round of a workload is a fresh
interpreter (``perfbench/workloads.py``) with ``PYTHONPATH=src``, one
thread, and BLAS threads pinned to 1; its inputs come from (workload,
seed, round).  All loads are closed-loop with a single client.

``--trace 0`` runs about ``--seconds`` worth of rounds and reports the
end-to-end metrics: means over rounds for ``wall_s`` and ``cpu_s``,
medians for ``setup_s`` and ``peak_rss_mb``, and the rate and
90th-percentile latency of the workload's queries pooled over rounds:
the sphere and ball scans on ``structure``, the level-mode simulation
chunks on ``montecarlo``, every call on ``words`` and every process on
``cli``.  ``--trace 1`` runs round 0 untraced and then traced,
requires their checked outputs to be byte-identical, and reports the
per-layer metrics from the traced round (see ``tracer.py``).

Lines before the last one give the provenance and every metric with its
unit; the last line is the JSON result.  The exit status is 1 if any
check failed, and 2 (with no result line) if a round could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("structure", "montecarlo", "words", "cli")
# About how long one round takes, spawn to exit, on a 2-CPU x86-64 VM.  It
# fixes how many rounds ``--seconds`` buys, so that both sides of a
# comparison do the same work.
ROUND_SECONDS = {"structure": 16.0, "montecarlo": 10.5, "words": 1.5, "cli": 5.0}
MIN_ROUNDS = 2
SETUP_PROBES = 5  # extra set-up-only rounds, so set-up gets a steadier median
CLI_PROBES = 3
DEADLINE_S = 170.0
BLAS_THREADS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "queries_per_s": "1/s",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RoundError(RuntimeError):
    """A round could not run or printed no result."""


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, smoke: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0", **BLAS_THREADS)

    def _timeout(self) -> float:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 1.0:
            raise RoundError("out of time")
        return remaining

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        start = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, *argv], cwd=self.root, env=self.env,
                capture_output=True, text=True, timeout=self._timeout(),
            )
        except subprocess.TimeoutExpired as exc:
            raise RoundError(f"timed out: {' '.join(argv)}") from exc
        return start, proc

    def round(self, index: int, *, trace: bool = False, setup_only: bool = False) -> dict:
        argv = [str(HERE / "workloads.py"), "--workload", self.workload,
                "--seed", str(self.seed), "--round", str(index)]
        argv += ["--smoke"] * self.smoke + ["--trace"] * trace + ["--setup-only"] * setup_only
        start, proc = self.spawn(argv)
        if proc.returncode != 0 or not proc.stdout.strip():
            raise RoundError(f"round {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        result = json.loads(proc.stdout.splitlines()[-1])
        result["setup_s"] = result["timed_start"] - start
        return result

    def probe(self, code: str) -> float:
        """Median wall time of a bare interpreter running ``code``."""
        times = []
        for _ in range(CLI_PROBES):
            start, proc = self.spawn(["-c", code])
            times.append(time.monotonic() - start)
            if proc.returncode != 0:
                raise RoundError(f"probe {code!r} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        return statistics.median(times)


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(runner: Runner, seconds: int) -> tuple[dict, list[dict]]:
    setups = [runner.round(0, setup_only=True)["setup_s"] for _ in range(SETUP_PROBES)]
    rounds_n = 1 if runner.smoke else max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[runner.workload]))
    rounds = [runner.round(i) for i in range(rounds_n)]
    latencies = [t for r in rounds for t in r["latencies"]]
    values = {
        # means and a rate, not medians: where the host's speed switches
        # between two levels every few seconds, the median of like rounds or
        # queries jumps from one level to the other between runs
        "wall_s": statistics.fmean(r["wall_s"] for r in rounds),
        "cpu_s": statistics.fmean(r["cpu_s"] for r in rounds),
        "queries_per_s": len(latencies) / sum(latencies),
        "op_p90_ms": percentile(latencies, 90) * 1e3,
        "setup_s": statistics.median(setups + [r["setup_s"] for r in rounds]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, rounds


def per_layer(runner: Runner) -> tuple[dict, list[dict], list[str]]:
    plain = runner.round(0)
    traced = runner.round(0, trace=True)
    problems = []
    if plain["digest"] != traced["digest"]:
        problems.append("traced outputs differ from untraced outputs")
    metrics = layer_metrics(traced["info"]["trace"])
    cli_latencies = plain["latencies"] if runner.workload == "cli" else []
    metrics.update({
        "cli.interp_s": (runner.probe("pass"), "s"),
        "cli.import_s": (runner.probe("import kiselman.cli"), "s"),
        "cli.process_s": (statistics.median(cli_latencies) if cli_latencies else 0.0, "s"),
        "cli.nonzero_exits": (plain["info"].get("nonzero_exits", 0), "count"),
        "op_samples": (len(plain["latencies"]), "count"),
        "trace.overhead_frac": (traced["wall_s"] / plain["wall_s"] - 1.0, "ratio"),
    })
    return metrics, [plain, traced], problems


def provenance(root: Path, args, rounds: list[dict]) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "rounds": len(rounds),
        **rounds[0]["provenance"],
        **versions,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one tiny round, for the benchmark's tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "kiselman" / "__init__.py").is_file():
        print(f"error: no src/kiselman under {root}; run from the repository root", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed, args.smoke)
    try:
        runner.round(0, setup_only=True)  # warm-up: bytecode and file caches
        if args.trace:
            metrics, rounds, problems = per_layer(runner)
        else:
            metrics, rounds = end_to_end(runner, args.seconds)
            problems = []
    except RoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed_checks = [name for r in rounds for name in r["failed"]] + problems
    attempted = sum(r["calls"] for r in rounds)
    print("provenance " + json.dumps(provenance(root, args, rounds), sort_keys=True))
    for r in rounds:
        if "verdict" in r["info"]:
            print("verdict " + json.dumps(r["info"]["verdict"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {len(failed_checks) / attempted:.6g} "
          f"({len(failed_checks)} failed checks / {attempted} operations)")
    if not args.trace:
        print(f"{args.workload} op latency samples = {sum(len(r['latencies']) for r in rounds)}")
    for name in failed_checks[:20]:
        print(f"FAILED {name}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed_checks,
        "attempted": attempted,
        "failed": len(failed_checks),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 1 if failed_checks else 0


if __name__ == "__main__":
    sys.exit(main())
