"""Partial products in K_n, the level Markov chain, and Monte Carlo runs.

Running products of generator sequences are eventually constant; when every
letter that occurs keeps recurring, the constant value is the idempotent on
the occurring index set.  For iid random letters with distribution p, the
level of the running product is an absorbing Markov chain on {0, ..., n}
that either stays put or steps down by one, and the absorption time is a
sum of n independent geometric variables with success probabilities p_i.
That exact law is computed once, without numpy, in :mod:`kiselman.levelchain`;
this module wraps its results in arrays, and :func:`chain_hitting_cdf`
checks them independently by powers of the transition matrix.

:func:`verify_distribution` alone decides a simulation's verdict, by
default at the TV bound of :func:`tv_tolerance` and at PVALUE_FLOOR.  Every
budget here refuses with ``BudgetExceededError``, and every failed
cross-check of a simulation (a lane's stream against numpy's, a walk's
level against the chain's) raises ``CrosscheckError``; both are defined
once, in ``core``, and re-exported here.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from itertools import chain, cycle, islice

import numpy as np

from kiselman import levelchain
from kiselman.core import (
    BudgetExceededError,
    CrosscheckError,
    Element,
    RightCayley,
    idempotent,
    validate_word,
)
from kiselman.level_metric import g, level_by_definition
from kiselman.levelchain import PMF_MAX_K, PMF_TAIL, PROBABILITY_SUM_TOL  # noqa: F401

RNG_ALGORITHM = "numpy PCG64, per-trial stream seeded by (master_seed, trial_index)"
STEP_BUDGET = 1_000_000  # most steps one simulated trial may take
TV_FAILURE_PROB = 1e-3  # chance that an exact sampler exceeds tv_tolerance
PVALUE_FLOOR = 1e-3  # a verdict fails at a chi-square p-value this low or lower
SEED_CHUNK = 1024  # trials whose streams one vectorised seeding pass computes
PASS_DRAWS = 1 << 14  # most draws one pass of the lane kernel computes; >= SEED_CHUNK

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_LOW32, _SHIFT32 = np.uint64(_MASK32), np.uint64(32)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def validate_probabilities(p) -> np.ndarray:
    """p as an array; the checks are :func:`levelchain.validate_probabilities`."""
    return np.array(levelchain.validate_probabilities(p))


@dataclass(frozen=True)
class SequenceSpec:
    """A generator-index sequence: ``preamble`` then ``cycle`` repeated
    forever."""

    rank: int
    preamble: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()

    def __post_init__(self):
        validate_word(self.rank, self.preamble)
        validate_word(self.rank, self.cycle)
        if not self.cycle:
            raise ValueError("a sequence needs a nonempty cycle")

    def letters(self, horizon: int):
        return islice(chain(self.preamble, cycle(self.cycle)), horizon)


@dataclass(frozen=True)
class ProductTrace:
    """The eventual value of the running products s_0 = e, s_1, ..."""

    spec: SequenceSpec
    value: Element
    stable_index: int  # first index from which the product never moves


def partial_products(spec: SequenceSpec, horizon: int = 10_000) -> ProductTrace:
    """Iterate s_j = s_{j-1} x_j and certify stabilization.

    The products are walked through a right Cayley table, so each
    (product, letter) pair is multiplied once.  The sequence is certified
    stable once the product survives one full cycle unchanged past the
    preamble (each step multiplies by one cycle letter, so it is then
    constant forever).  A sequence not certified within ``horizon`` letters
    raises ``BudgetExceededError``.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    table = RightCayley(spec.rank)
    x = last_change = 0
    for j, i in enumerate(spec.letters(horizon), start=1):
        y = table.moves[x][i] or table.add(x, i)
        if y != x:
            last_change = j
        x = y
        # stable once a full cycle passes unchanged after the preamble:
        # every subsequent factor then fixes the product
        if j - max(last_change, len(spec.preamble)) >= len(spec.cycle):
            return ProductTrace(spec=spec, value=table.elements[x], stable_index=last_change)
    raise BudgetExceededError(f"partial products not certified stable within horizon {horizon}")


def eventual_value(spec: SequenceSpec) -> Element:
    """Closed-form eventual product for sequences whose preamble letters
    all recur in the cycle: the idempotent on the occurring set."""
    recurring = set(spec.cycle)
    occurring = recurring | set(spec.preamble)
    if occurring != recurring:
        raise ValueError(
            "preamble letters missing from the cycle; no closed form, "
            "iterate partial_products instead"
        )
    return idempotent(spec.rank, occurring)


@dataclass(frozen=True)
class TransitionMatrix:
    """The level chain on states 0..n: absorbing at 0, lower bidiagonal."""

    p: np.ndarray
    matrix: np.ndarray
    initial: np.ndarray

    @property
    def n(self) -> int:
        return len(self.p)


def transition_matrix(p) -> TransitionMatrix:
    p = validate_probabilities(p)
    return TransitionMatrix(
        p=p,
        matrix=np.array(levelchain.transition_rows(p)),
        initial=np.array(levelchain.initial_distribution(len(p))),
    )


def chain_hitting_cdf(p, k_max: int) -> np.ndarray:
    """P(T <= k) for k = 0..k_max via powers of the level chain.  A
    truncation past PMF_MAX_K raises ``BudgetExceededError``."""
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if k_max > PMF_MAX_K:
        raise BudgetExceededError(f"chain truncation {k_max} exceeds budget {PMF_MAX_K}")
    markov = transition_matrix(p)
    dist = markov.initial.copy()
    cdf = np.empty(k_max + 1)
    cdf[0] = dist[0]
    for k in range(1, k_max + 1):
        dist = dist @ markov.matrix
        cdf[k] = dist[0]
    return cdf


@dataclass(frozen=True)
class HittingTimePMF:
    """Exact distribution of the absorption time, truncated with tail mass."""

    p: np.ndarray
    probs: np.ndarray  # P(T = k) for k = 0..k_max
    tail_mass: float

    @property
    def k_max(self) -> int:
        return len(self.probs) - 1

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def mean(self) -> float:
        """E[T], with the truncated tail restored exactly
        (:func:`levelchain.mean`)."""
        return levelchain.mean(self.p.tolist(), self.probs.tolist())


def exact_hitting_pmf(p, k_max: int | None = None) -> HittingTimePMF:
    """The law of :func:`levelchain.hitting_pmf`, its refusals included, as
    arrays: P(T = k) for k = 0..k_max, by default up to a tail of at most
    PMF_TAIL."""
    p = validate_probabilities(p)
    probs, tail_mass = levelchain.hitting_pmf(p, k_max)
    return HittingTimePMF(p=p, probs=np.array(probs), tail_mass=tail_mass)


@dataclass(frozen=True)
class SimulationReport:
    """Seeded Monte Carlo summary; serialization is byte-stable.

    The JSON object is the fields, under their names, with the keys of the
    two int-keyed maps written as strings in numeric order.
    """

    rank: int
    p: tuple[float, ...]
    trials: int
    seed: int
    mode: str
    rng: str
    histogram: dict  # hitting time -> count
    mean: float
    variance: float
    crosscheck_trials: int
    crosscheck_failures: int
    transition_counts: dict = field(default_factory=dict)  # state -> [stay, down]

    def to_json(self) -> str:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["p"] = list(self.p)
        for key in ("histogram", "transition_counts"):  # JSON keys are strings
            payload[key] = {str(k): v for k, v in sorted(payload[key].items())}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> SimulationReport:
        """Inverse of :meth:`to_json`; keys it does not write are ignored.

        Raises ``ValueError`` unless the report is a JSON object with a key
        for every field, whose ``rank`` and ``trials`` are ints, ``p`` a list
        of numbers, ``transition_counts`` an object and ``histogram`` an
        object from hitting times to counts >= 0 that add up to ``trials``
        >= 1.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError(f"a report is a JSON object, got {type(payload).__name__}")
        names = [f.name for f in fields(cls)]
        for key in names:
            if key not in payload:
                raise ValueError(f"report lacks the key {key!r}")
        for key in ("rank", "trials"):
            if not _is_int(payload[key]):
                raise ValueError(f"report {key} must be an int, got {payload[key]!r}")
        p = payload["p"]
        if not isinstance(p, list) or not all(_is_int(v) or isinstance(v, float) for v in p):
            raise ValueError(f"report p must be a list of numbers, got {p!r}")
        for key in ("histogram", "transition_counts"):
            if not isinstance(payload[key], dict):
                raise ValueError(f"report {key} must be an object, got {payload[key]!r}")
        histogram = {int(k): v for k, v in payload["histogram"].items()}
        if not all(k >= 0 and _is_int(v) and v >= 0 for k, v in histogram.items()):
            raise ValueError("report histogram must map hitting times to counts >= 0")
        report = cls(**{key: payload[key] for key in names} | {
            "p": tuple(p),
            "histogram": histogram,
            "transition_counts": {int(k): v for k, v in payload["transition_counts"].items()},
        })
        if report.trials < 1:
            raise ValueError(f"a report needs at least one trial, got {report.trials}")
        counted = sum(report.histogram.values())
        if counted != report.trials:
            raise ValueError(
                f"histogram counts {counted} hitting times but trials is {report.trials}"
            )
        return report


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words numpy splits a nonnegative int into."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seed words need a nonnegative int, got {value}")
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _halves(value: int) -> tuple[np.ndarray, np.ndarray]:
    """A 128-bit int as one-element uint64 arrays (high, low)."""
    return np.array([value >> 64 & _MASK64], np.uint64), np.array([value & _MASK64], np.uint64)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """a·b mod 2^128 on uint64 (high, low) halves, broadcast.  The high half
    of a_lo·b_lo comes from its four 32 x 32-bit partial products."""
    a0, a1 = a_lo & _LOW32, a_lo >> _SHIFT32
    b0, b1 = b_lo & _LOW32, b_lo >> _SHIFT32
    low_low, low_high, high_low = a0 * b0, a0 * b1, a1 * b0
    middle = (low_low >> _SHIFT32) + (low_high & _LOW32) + (high_low & _LOW32)
    high = a1 * b1 + (low_high >> _SHIFT32) + (high_low >> _SHIFT32) + (middle >> _SHIFT32)
    high += a_lo * b_hi
    high += a_hi * b_lo
    return high, a_lo * b_lo


def _add128(a_hi, a_lo, b_hi, b_lo):
    """a + b mod 2^128 on uint64 (high, low) halves, broadcast."""
    low = a_lo + b_lo
    return a_hi + b_hi + (low < b_lo), low


@functools.cache
def _jump_table() -> tuple[np.ndarray, np.ndarray]:
    """(high, low) halves of G_k = 1 + M + ... + M^(k-1) mod 2^128 for
    k = 1..PASS_DRAWS, M the PCG64 multiplier, built by doubling:
    G_(m+j) = G_m + M^m·G_j.  Read-only, built on first use."""
    table = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while len(table[1]) < PASS_DRAWS:
        m = len(table[1])
        tail = _mul128(*_halves(pow(_PCG64_MULT, m, 1 << 128)), *table)
        tail = _add128(table[0][m - 1:], table[1][m - 1:], *tail)
        table = tuple(np.concatenate(halves) for halves in zip(table, tail))
    for half in table:
        half.flags.writeable = False
    return table


_MULT = _halves(_PCG64_MULT)
_MULT_LESS_ONE = _halves(_PCG64_MULT - 1)


def _trial_streams(seed: int, start: int, stop: int) -> tuple[np.ndarray, ...]:
    """The PCG64 state and increment of ``default_rng([seed, trial])`` for
    every trial in [start, stop), bit for bit, as four uint64 arrays
    ``(state_hi, state_lo, inc_hi, inc_lo)``.  Raises ``ValueError`` unless
    the range is nonempty and crosses no multiple of 2^32, so that its
    trial indices share every 32-bit word but the lowest.

    numpy hashes the entropy words of ``[seed, trial]`` into a pool of four
    uint32 words (``SeedSequence``: ``hashmix`` then ``mix``), draws
    ``generate_state(4, uint64)`` from the pool, and seeds PCG64 with it
    (``srandom``: inc = 2·initseq + 1, state = (inc + initstate)·M + inc,
    mod 2^128).  Here every step runs on arrays with one lane per trial;
    the hash constants do not depend on the data, so they are Python ints.
    """
    if not start < stop or start >> 32 != (stop - 1) >> 32:
        raise ValueError(f"trials [{start}, {stop}) are empty or cross a multiple of 2^32")
    lanes = stop - start
    low = np.arange(lanes, dtype=np.uint32) + np.uint32(start & _MASK32)
    high = _words(start >> 32) if start >> 32 else []
    entropy = [np.full(lanes, w, np.uint32) for w in _words(seed)] + [low] + [
        np.full(lanes, w, np.uint32) for w in high
    ]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(lanes, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state32 = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state32.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # uint64 words 0, 1 are initstate (high, low); 2, 3 are initseq
    init_hi, init_lo, seq_hi, seq_lo = (state32[2 * k] | state32[2 * k + 1] << _SHIFT32
                                        for k in range(4))
    inc = (seq_hi << np.uint64(1) | seq_lo >> np.uint64(63), seq_lo << np.uint64(1) | np.uint64(1))
    state = _add128(*_mul128(*_add128(*inc, init_hi, init_lo), *_MULT), *inc)
    return (*state, *inc)


def _lane_draws(streams, size: int) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The next ``size`` doubles of every lane of ``streams`` (the four
    arrays of :func:`_trial_streams`) as a (lanes, size) array, and the
    streams advanced past them.

    Draw k of a lane reads the state k steps ahead, M^k·s + G_k·inc.  As
    M^k = 1 + (M - 1)·G_k, that is s + G_k·d with d = (M - 1)·s + inc, so one
    table of G_k and one 128-bit product per draw give the whole block.  The
    state's XSL-RR output u becomes (u >> 11)·2^-53, as in numpy's
    ``Generator.random``.
    """
    s_hi, s_lo, inc_hi, inc_lo = streams
    d_hi, d_lo = _add128(*_mul128(s_hi, s_lo, *_MULT_LESS_ONE), inc_hi, inc_lo)
    g_hi, g_lo = _jump_table()
    x_hi, x_lo = _mul128(d_hi[:, None], d_lo[:, None], g_hi[:size], g_lo[:size])
    x_hi, x_lo = _add128(s_hi[:, None], s_lo[:, None], x_hi, x_lo)
    # XSL-RR: (high ^ low) rotated right by the top 6 bits of the state
    rotation = x_hi >> np.uint64(58)
    out = x_hi ^ x_lo
    out = out >> rotation | out << (-rotation & np.uint64(63))
    draws = (out >> np.uint64(11)).astype(np.float64)
    draws *= 2.0**-53
    return draws, (x_hi[:, -1].copy(), x_lo[:, -1].copy(), inc_hi, inc_lo)


def _bounds(p: np.ndarray) -> np.ndarray:
    """Cumulative bounds of the letters: a draw u in [0, 1) is letter
    1 + #{bounds <= u}.  The running sums are capped at 1 and the last is 1
    exactly, so no draw maps past letter n however p rounds."""
    bounds = np.minimum(np.cumsum(p), 1.0)
    bounds[-1] = 1.0
    return bounds


def _letters(bounds: np.ndarray, draws: np.ndarray) -> np.ndarray:
    return np.searchsorted(bounds, draws, side="right") + 1


def validate_simulation(n: int, p, trials: int, seed: int, mode: str) -> np.ndarray:
    """The checks :func:`simulate` makes before any trial; returns p as an array."""
    p = validate_probabilities(p)
    levelchain.require_positive(p)
    if len(p) != n:
        raise ValueError(f"probability vector length {len(p)} != n = {n}")
    if not _is_int(trials) or trials < 1:
        raise ValueError(f"trials must be an int >= 1, got {trials!r}")
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"the seed must be an int >= 0, got {seed!r}")
    if mode not in ("level", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    return p


def simulate(
    n: int,
    p,
    trials: int,
    seed: int,
    mode: str = "full",
) -> SimulationReport:
    """Run seeded iid-product trials and record hitting times of the zero.

    Trial t reads the stream of ``default_rng([seed, t])``.  The trials run
    as lanes, SEED_CHUNK at a time: :func:`_trial_streams` seeds the lanes
    on arrays, :func:`_lane_draws` draws a block of every lane's stream at
    once, and a scan over the levels n, ..., 1 finds in each lane's letters
    the first a_l after it reached level l.  That gives the hitting times
    and the chain's stay counts; lanes not yet absorbed go on with larger
    blocks, at most PASS_DRAWS draws a pass.  numpy seeds the first trial of
    every chunk and draws its first block as well, and a difference raises
    ``CrosscheckError``.  A trial longer than STEP_BUDGET steps raises
    ``BudgetExceededError`` naming the lowest such trial.

    ``mode="full"`` also walks the letters of tracked trials (all for
    n <= 3, every 100th above) through a right Cayley table filled over the
    elements they visit, for this call only (:class:`_RightCayley`, the
    table of ``core.RightCayley`` with levels).  The table multiplies each
    visited pair (x, i) once, and checks the level law
    L(x·a_i) = g(L(x), i) on it once, L the level by definition; with L(e) = n,
    by induction the product's level then equals the chain's level at every
    step of every walk.  Each walk must first reach an element of level 0
    exactly at the scan's hitting time.  Reports are deterministic
    functions of (n, p, trials, seed, mode).
    """
    p = validate_simulation(n, p, trials, seed, mode)
    stride = 1 if n <= 3 else 100
    bounds = _bounds(p)
    # a first block near the mean hitting time sum(1/p_i) absorbs most lanes
    first = math.ceil(min(sum(1.0 / v for v in p.tolist()), PASS_DRAWS))
    times = []
    stays = np.zeros(n + 1, np.int64)
    crosscheck_trials = 0
    crosscheck_failures = 0
    right_cayley = _RightCayley(n)  # only full mode walks it

    for lo in range(0, trials, SEED_CHUNK):
        # SEED_CHUNK divides 2^32, so no chunk crosses a multiple of 2^32
        hi = min(trials, lo + SEED_CHUNK)
        # numpy seeds the chunk's first trial itself, a check on the lanes
        rng = np.random.default_rng([seed, lo])
        streams = _trial_streams(seed, lo, hi)
        state, inc = (int(streams[k][0]) << 64 | int(streams[k + 1][0]) for k in (0, 2))
        if rng.bit_generator.state["state"] != {"state": state, "inc": inc}:
            raise CrosscheckError(f"stream of trial {lo} differs from default_rng([{seed}, {lo}])")
        tracked = range(-lo % stride, hi - lo, stride) if mode == "full" else range(0)
        chunk_times, rows = _scan(streams, n, bounds, first, tracked, stays, rng, seed, lo)
        times.append(chunk_times)
        for lane, letters in rows.items():
            crosscheck_trials += 1
            crosscheck_failures += _walk(right_cayley, letters, int(chunk_times[lane]))
    crosscheck_failures += right_cayley.failures

    times = np.concatenate(times)
    values, counts = np.unique(times, return_counts=True)
    # running float sums in trial order, the rounding of a per-trial loop
    total = float(np.cumsum(times, dtype=np.float64)[-1])
    total_sq = float(np.cumsum(times * times, dtype=np.float64)[-1])
    mean = total / trials
    variance = total_sq / trials - mean * mean
    report = SimulationReport(
        rank=n,
        p=tuple(float(v) for v in p),
        trials=trials,
        seed=seed,
        mode=mode,
        rng=RNG_ALGORITHM,
        histogram=dict(zip(values.tolist(), counts.tolist())),
        mean=mean,
        variance=variance,
        crosscheck_trials=crosscheck_trials,
        crosscheck_failures=crosscheck_failures,
        # every trial leaves every level once
        transition_counts={lvl: [int(stays[lvl]), trials] for lvl in range(1, n + 1)},
    )
    if crosscheck_failures:
        raise CrosscheckError(
            f"{crosscheck_failures} level/product mismatches; report: "
            f"{report.to_json()}"
        )
    return report


def _scan(streams, n, bounds, size, tracked, stays, rng, seed, lo):
    """Hitting times of the lanes of ``streams``, trials lo, lo + 1, ...

    Adds each level's stay count to ``stays`` and returns the times with
    the letters each tracked lane drew, up to its hitting time at least.
    Lane 0's first block must equal ``rng.random``'s.
    """
    times = np.zeros(len(streams[0]), np.int64)
    active = np.arange(len(times))
    level = np.full(len(times), n)
    rows = {lane: [] for lane in tracked}
    edges = [0.0, *bounds.tolist()]
    steps = 0
    while active.size:
        size = min(size, PASS_DRAWS // active.size, STEP_BUDGET - steps)
        if size == 0:
            raise BudgetExceededError(
                f"trial {lo + int(active[0])} exceeded step budget {STEP_BUDGET}; "
                "check the probability vector"
            )
        draws, streams = _lane_draws(streams, size)
        if steps == 0 and not np.array_equal(draws[0], rng.random(size)):
            raise CrosscheckError(f"stream of trial {lo} differs from default_rng([{seed}, {lo}])")
        if rows:
            chosen = np.flatnonzero(np.isin(active, tracked))
            for lane, row in zip(active[chosen].tolist(), _letters(bounds, draws[chosen]).tolist()):
                rows[lane] += row
        # pos: each lane's last step in this block so far, -1 before the first
        pos = np.full(active.size, -1)
        columns = np.arange(size)
        for lvl in range(n, 0, -1):
            at = np.flatnonzero(level == lvl)
            if not at.size:
                continue
            block = draws if at.size == active.size else draws[at]
            # letter lvl is a draw in [edges[lvl - 1], edges[lvl])
            hit = block >= edges[lvl - 1]
            hit &= block < edges[lvl]
            hit &= columns > pos[at, None]
            first = hit.argmax(axis=1)
            found = hit[np.arange(at.size), first]
            end = np.where(found, first, size)
            stays[lvl] += int((end - pos[at]).sum()) - at.size
            pos[at] = end
            level[at[found]] = lvl - 1
        done = level == 0
        times[active[done]] = steps + pos[done] + 1
        keep = ~done
        active, level = active[keep], level[keep]
        streams = tuple(column[keep] for column in streams)
        steps += size
        size *= 2
    return times, rows


class _RightCayley(RightCayley):
    """The right Cayley table of one ``simulate`` call over the elements its
    walks visit, with the level bookkeeping of full mode: ``levels[x]`` is
    the level by definition of element x, taken once per new element, and
    ``failures`` counts the pairs where L(x·a_i) != g(L(x), i), checked
    once per pair as :meth:`add` adds it, taking L(e) = n."""

    def __init__(self, n: int):
        super().__init__(n)
        self.levels = [n]
        self.failures = 0

    def add(self, x: int, i: int) -> int:
        y = super().add(x, i)
        if y == len(self.levels):  # a new element: ids are numbered in order
            self.levels.append(level_by_definition(self.elements[y]))
        self.failures += self.levels[y] != g(self.levels[x], i)
        return y


def _walk(table: _RightCayley, letters: list[int], hitting_time: int) -> int:
    """1 unless the walk of ``letters`` through ``table`` first reaches an
    element of level 0 at step ``hitting_time``, else 0."""
    moves, levels = table.moves, table.levels
    x = 0
    for t, i in enumerate(letters, start=1):
        x = moves[x][i] or table.add(x, i)
        if levels[x] == 0:
            return int(t != hitting_time)
    return 1


@dataclass(frozen=True)
class Verdict:
    passed: bool
    tv_distance: float
    tv_bound: float
    chi2_statistic: float
    chi2_pvalue: float
    pvalue_floor: float
    dof: int


def tv_tolerance(pmf: HittingTimePMF, trials: int) -> float:
    """A TV bound that N = ``trials`` exact draws exceed with probability at
    most TV_FAILURE_PROB, capped at 1: E[TV] <= 1/2 sum_k sqrt(q_k (1 - q_k) / N)
    (Jensen) for the truncated pmf q, tail pooled, and one draw moves TV by at
    most 1/N, so McDiarmid adds sqrt(ln(1 / TV_FAILURE_PROB) / (2 N))."""
    q = np.clip(np.append(pmf.probs, pmf.tail_mass), 0.0, 1.0)  # the tail may round below 0
    mean = 0.5 * float(np.sqrt(q * (1.0 - q) / trials).sum())
    return min(1.0, mean + float(np.sqrt(np.log(1.0 / TV_FAILURE_PROB) / (2 * trials))))


def chi2_sf(dof: int, x: float) -> float:
    """P(X > x) for X chi-square with integer ``dof`` degrees of freedom.

    With h = x/2 the tail is e^-h sum_{k < dof/2} h^k / k! for even dof and
    erfc(sqrt h) + sum_{k < (dof-1)/2} e^-h h^(k+1/2) / Gamma(k + 3/2) for
    odd dof; every term is positive and formed in log space.  NaN for
    dof < 1 (a single bin leaves nothing to test), 1 for x <= 0.
    """
    if dof < 1:
        return math.nan
    if x <= 0.0:
        return 1.0
    if math.isinf(x):
        return 0.0
    h = x / 2.0
    log_h = math.log(h)
    shift = (dof % 2) / 2  # the power of h in the first term of the sum
    terms = (math.exp((k + shift) * log_h - h - math.lgamma(k + shift + 1))
             for k in range(dof // 2))
    return math.fsum(terms) + (math.erfc(math.sqrt(h)) if dof % 2 else 0.0)


def verify_distribution(
    report: SimulationReport,
    pmf: HittingTimePMF,
    tv_bound: float | None = None,
    pvalue_floor: float | None = None,
) -> Verdict:
    """Compare an empirical hitting-time histogram against the exact pmf.

    Total-variation distance over the truncated support (tail pooled) plus
    a chi-square test over bins with expected count >= 5; a sample with no
    such bin is one bin, dof 0, and fails.  ``None`` bounds are the rule:
    ``tv_tolerance(pmf, report.trials)`` and PVALUE_FLOOR.  Raises
    ``ValueError`` unless 0 < tv_bound <= 1 and 0 <= pvalue_floor < 1.
    """
    if tv_bound is None:
        tv_bound = tv_tolerance(pmf, report.trials)
    if pvalue_floor is None:
        pvalue_floor = PVALUE_FLOOR
    # written so that NaN fails too; an infinite bound would switch a check off
    if not 0.0 < tv_bound <= 1.0:
        raise ValueError(f"tv_bound must lie in (0, 1], got {tv_bound!r}")
    if not 0.0 <= pvalue_floor < 1.0:
        raise ValueError(f"pvalue_floor must lie in [0, 1), got {pvalue_floor!r}")
    if report.rank != len(pmf.p):
        raise ValueError("report and pmf disagree on n")
    trials = report.trials
    k_max = pmf.k_max
    empirical = np.zeros(k_max + 2)  # last slot pools the tail
    for k, count in report.histogram.items():
        empirical[min(int(k), k_max + 1)] += count
    empirical /= trials
    exact = np.append(pmf.probs, pmf.tail_mass)
    tv = 0.5 * float(np.abs(empirical - exact).sum())

    # chi-square: pool bins (from the right) until expected >= 5 each
    expected_counts = exact * trials
    observed_counts = empirical * trials
    obs_bins: list[float] = []
    exp_bins: list[float] = []
    acc_obs = acc_exp = 0.0
    for o, x in zip(observed_counts[::-1], expected_counts[::-1]):
        acc_obs += o
        acc_exp += x
        if acc_exp >= 5.0:
            obs_bins.append(acc_obs)
            exp_bins.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if not obs_bins:  # no bin reaches 5: the whole sample is one bin
        obs_bins, exp_bins = [0.0], [0.0]
    obs_bins[-1] += acc_obs
    exp_bins[-1] += acc_exp
    obs_arr = np.array(obs_bins)
    exp_arr = np.array(exp_bins) * obs_arr.sum() / sum(exp_bins)
    chi2 = ((obs_arr - exp_arr) ** 2 / exp_arr).sum()
    dof = len(obs_bins) - 1
    pvalue = chi2_sf(dof, float(chi2))
    return Verdict(
        passed=bool(tv < tv_bound and pvalue > pvalue_floor),
        tv_distance=tv,
        tv_bound=tv_bound,
        chi2_statistic=float(chi2),
        chi2_pvalue=float(pvalue),
        pvalue_floor=pvalue_floor,
        dof=dof,
    )
