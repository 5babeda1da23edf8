"""Partial products in K_n, the level Markov chain, and Monte Carlo runs.

Running products of generator sequences are eventually constant; when every
letter that occurs keeps recurring, the constant value is the idempotent on
the occurring index set.  For iid random letters with distribution p, the
level of the running product is an absorbing Markov chain on {0, ..., n}
that either stays put or steps down by one, and the absorption time is a
sum of n independent geometric variables with success probabilities p_i.
That exact law is computed once, without numpy, in :mod:`kiselman.levelchain`;
this module wraps its results in arrays, and :func:`chain_hitting_cdf`
checks them independently by powers of the transition matrix, taken a
block at a time.

:func:`simulate` runs no Python loop per trial or per step: its trials
are lanes of numpy arrays, SEED_CHUNK at a time, seeded, drawn and
scanned together, and in full mode the tracked lanes are walked through
the right Cayley table one column of letters at a time.

:func:`verify_distribution` alone decides a simulation's verdict, by one
rule of the pmf and the trial count with no settable value: the TV bound of
:func:`tv_tolerance`, PVALUE_FLOOR, and the bins of :func:`chi2_bins`, which
refuse a run too small to test before its first trial.  Every
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
PRODUCT_BUDGET = 10_000  # most letters partial_products reads to certify a sequence stable
TV_FAILURE_PROB = 1e-3  # chance that an exact sampler exceeds tv_tolerance
PVALUE_FLOOR = 1e-3  # a verdict fails at a chi-square p-value this low or lower
SEED_CHUNK = 4096  # trials whose streams one vectorised seeding pass computes; divides 2^32
PASS_DRAWS = 1 << 14  # most draws one pass of the lane kernel computes; >= SEED_CHUNK
POWER_ENTRIES = 1 << 16  # most matrix entries chain_hitting_cdf keeps in its block of powers

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

    def letters(self):
        """The letters, without end: the preamble, then the cycle repeated."""
        return chain(self.preamble, cycle(self.cycle))


@dataclass(frozen=True)
class ProductTrace:
    """The eventual value of the running products s_0 = e, s_1, ..."""

    spec: SequenceSpec
    value: Element
    stable_index: int  # first index from which the product never moves


def partial_products(spec: SequenceSpec) -> ProductTrace:
    """Iterate s_j = s_{j-1} x_j and certify stabilization.

    The products are walked through a right Cayley table, so each
    (product, letter) pair is multiplied once.  The sequence is certified
    stable once the product survives one full cycle unchanged past the
    preamble (each step multiplies by one cycle letter, so it is then
    constant forever).  A sequence not certified within PRODUCT_BUDGET
    letters raises ``BudgetExceededError``.
    """
    table = RightCayley(spec.rank)
    x = last_change = 0
    for j, i in enumerate(islice(spec.letters(), PRODUCT_BUDGET), start=1):
        y = table.moves[x][i] or table.add(x, i)
        if y != x:
            last_change = j
        x = y
        # stable once a full cycle passes unchanged after the preamble:
        # every subsequent factor then fixes the product
        if j - max(last_change, len(spec.preamble)) >= len(spec.cycle):
            return ProductTrace(spec=spec, value=table.elements[x], stable_index=last_change)
    raise BudgetExceededError(
        f"partial products not certified stable within budget {PRODUCT_BUDGET}")


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
    truncation past the pmf's, :func:`levelchain.max_k`, raises
    ``BudgetExceededError``.

    P(T <= k) is entry 0 of the chain's law after k steps, so a block of B
    values starting at step k is one product of that law with column 0 of
    P^0, ..., P^(B-1), and the next block starts from the law times P^B.
    B is about sqrt(k_max + 1), so that about 2 sqrt(k_max + 1) products
    replace one per step, and the B + 1 powers hold at most POWER_ENTRIES
    entries.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    markov = transition_matrix(p)
    budget = levelchain.max_k(markov.n)
    if k_max > budget:
        raise BudgetExceededError(f"chain truncation {k_max} exceeds budget {budget}")
    states = markov.n + 1
    block = max(1, min(math.isqrt(k_max + 1), POWER_ENTRIES // states**2 - 1))
    powers = np.empty((block + 1, states, states))
    powers[0], powers[1] = np.eye(states), markov.matrix
    for b in range(2, block + 1):
        # numpy's own loop: the first BLAS matrix product maps a work buffer
        np.einsum("ij,jk->ik", powers[b - 1], markov.matrix, out=powers[b])
    absorbed = powers[:block, :, 0].copy()  # row b: P(X_b = 0) from each state
    dist = markov.initial
    cdf = np.empty(k_max + 1)
    for k in range(0, k_max + 1, block):
        stop = min(k + block, k_max + 1)
        cdf[k:stop] = absorbed[:stop - k] @ dist
        dist = dist @ powers[block]
    return cdf


@dataclass(frozen=True)
class HittingTimePMF:
    """Exact distribution of the absorption time, truncated with its tail's
    mass and mean."""

    p: np.ndarray
    probs: np.ndarray  # P(T = k) for k = 0..k_max
    tail_mass: float
    tail_mean: float  # sum_{k > k_max} k P(T = k)

    @property
    def k_max(self) -> int:
        return len(self.probs) - 1

    @property
    def with_tail(self) -> np.ndarray:
        """P(T = k) for k = 0..k_max, then the tail's mass."""
        return np.append(self.probs, self.tail_mass)

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.probs)

    def mean(self) -> float:
        """E[T]: the truncated head plus the tail mean that the pass gave
        (:func:`levelchain.mean`)."""
        return levelchain.mean(self.probs.tolist(), self.tail_mean)


def exact_hitting_pmf(p, k_max: int | None = None) -> HittingTimePMF:
    """The law of :func:`levelchain.hitting_pmf`, its refusals included, as
    arrays: P(T = k) for k = 0..k_max, by default up to a tail of at most
    PMF_TAIL."""
    p = validate_probabilities(p)
    probs, tail_mass, tail_mean = levelchain.hitting_pmf(p, k_max)
    return HittingTimePMF(p=p, probs=np.array(probs), tail_mass=tail_mass, tail_mean=tail_mean)


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
    ``Generator.random``.  The block is computed as (size, lanes), so that
    numpy's inner loops run along the lanes, and returned transposed: in
    the first passes of a chunk, thousands of lanes draw a few doubles each.
    """
    s_hi, s_lo, inc_hi, inc_lo = streams
    d_hi, d_lo = _add128(*_mul128(s_hi, s_lo, *_MULT_LESS_ONE), inc_hi, inc_lo)
    g_hi, g_lo = _jump_table()
    x_hi, x_lo = _mul128(g_hi[:size, None], g_lo[:size, None], d_hi, d_lo)
    x_hi, x_lo = _add128(s_hi, s_lo, x_hi, x_lo)
    # XSL-RR: (high ^ low) rotated right by the top 6 bits of the state
    rotation = x_hi >> np.uint64(58)
    out = x_hi ^ x_lo
    out = out >> rotation | out << (-rotation & np.uint64(63))
    draws = (out >> np.uint64(11)).astype(np.float64)
    draws *= 2.0**-53
    return draws.T, (x_hi[-1].copy(), x_lo[-1].copy(), inc_hi, inc_lo)


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
    table of ``core.RightCayley`` with levels).  After each pass of the
    scan, the tracked lanes still walking go over that pass's letters
    together, one column at a time (:meth:`_RightCayley.walk`), and each
    stops at its first element of level 0.  The table multiplies
    each visited pair (x, i) once, and checks the level law
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
        tracked = np.arange(-lo % stride, hi - lo, stride) if mode == "full" else np.arange(0)
        chunk_times, walked = _scan(streams, n, bounds, first, tracked, right_cayley, stays,
                                    rng, seed, lo)
        times.append(chunk_times)
        crosscheck_trials += tracked.size
        crosscheck_failures += int(np.count_nonzero(walked != chunk_times[tracked]))
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


def _scan(streams, n, bounds, size, tracked, table, stays, rng, seed, lo):
    """Hitting times of the lanes of ``streams``, trials lo, lo + 1, ...

    Adds each level's stay count to ``stays`` and returns the times with,
    for each lane of ``tracked``, the step at which its walk through
    ``table`` first reached level 0 (0 if it never did).  Each pass walks
    the tracked lanes still walking over that pass's letters.  Lane 0's
    first block must equal ``rng.random``'s.
    """
    times = np.zeros(len(streams[0]), np.int64)
    active = np.arange(len(times))
    level = np.full(len(times), n)
    walking = np.zeros(len(times), bool)
    walking[tracked] = True
    element = np.zeros(len(times), np.intp)  # each walking lane's element, e first
    walked = np.zeros(len(times), np.int64)
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
        rows = np.flatnonzero(walking[active])
        if rows.size:
            lanes = active[rows]
            block = draws if rows.size == active.size else draws[rows]
            element[lanes], reached = table.walk(element[lanes], _letters(bounds, block))
            lanes = lanes[reached > 0]
            walked[lanes] = steps + reached[reached > 0]
            walking[lanes] = False
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
    return times, walked[tracked]


class _RightCayley(RightCayley):
    """The right Cayley table of one ``simulate`` call over the elements its
    walks visit, with the level bookkeeping of full mode: ``levels[x]`` is
    the level by definition of element x, taken once per new element, and
    ``failures`` counts the pairs where L(x·a_i) != g(L(x), i), checked
    once per pair as :meth:`add` adds it, taking L(e) = n.

    ``levels`` and ``move_array``, a copy of ``moves``, are numpy arrays for
    :meth:`walk`, with rows to spare: their lengths double when a new
    element needs a row."""

    def __init__(self, n: int):
        super().__init__(n)
        self.levels = np.array([n])
        self.move_array = np.zeros((1, n + 1), np.intp)
        self.failures = 0

    def add(self, x: int, i: int) -> int:
        count = len(self.elements)
        y = super().add(x, i)
        if y == count:  # a new element: ids are numbered in order
            if y == len(self.levels):
                self.levels = np.concatenate([self.levels, np.zeros_like(self.levels)])
                self.move_array = np.concatenate([self.move_array, np.zeros_like(self.move_array)])
            self.levels[y] = level_by_definition(self.elements[y])
        self.move_array[x, i] = y
        self.failures += int(self.levels[y]) != g(int(self.levels[x]), i)
        return y

    def walk(self, x: np.ndarray, letters: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Walk lanes from the elements ``x`` along their rows of
        ``letters``, one column at a time, adding each pair no walk has
        visited before; a lane stops at its first element of level 0.
        Returns the elements reached and, per lane, the number of letters up
        to the one that reached level 0, or 0 if none did."""
        x = x.copy()
        reached = np.zeros(len(x), np.int64)
        live = np.arange(len(x))
        for c, column in enumerate(letters.T, start=1):
            column = column[live]
            y = self.move_array[x[live], column]
            if not y.all():  # no x·a_i is e, so id 0 marks a pair not yet added
                for pair in set(zip(x[live[y == 0]].tolist(), column[y == 0].tolist())):
                    self.add(*pair)
                y = self.move_array[x[live], column]
            x[live] = y
            zero = self.levels[y] == 0
            if zero.any():
                reached[live[zero]] = c
                live = live[~zero]
                if not live.size:
                    break
        return x, reached


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
    q = np.clip(pmf.with_tail, 0.0, 1.0)  # the tail may round below 0
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


def chi2_bins(pmf: HittingTimePMF, trials: int) -> list[tuple[slice, ...]]:
    """The chi-square bins of ``trials`` draws, as slices of ``pmf.with_tail``
    listed right to left: pooled from the right until each bin expects 5
    draws, with the leftover, which expects fewer, as a second slice of the
    leftmost bin.  They depend on the pmf and the trial count alone, so a run
    too small to test is refused before it runs: raises ``ValueError`` when
    fewer than two bins expect 5."""
    expected = (pmf.with_tail * trials).tolist()
    bins: list[tuple[slice, ...]] = []
    stop, acc = len(expected), 0.0
    for k in range(stop - 1, -1, -1):
        acc += expected[k]
        if acc >= 5.0:
            bins.append((slice(k, stop),))
            stop, acc = k, 0.0
    if len(bins) < 2:
        raise ValueError(f"{trials} trials are too few to test: fewer than two bins expect 5")
    bins[-1] += (slice(0, stop),)
    return bins


def verify_distribution(report: SimulationReport, pmf: HittingTimePMF) -> Verdict:
    """Compare an empirical hitting-time histogram against the exact pmf.

    The verdict passes when the total-variation distance over the truncated
    support (tail pooled) is below ``tv_tolerance(pmf, report.trials)`` and
    the chi-square p-value over :func:`chi2_bins` is above PVALUE_FLOOR.
    Raises ``ValueError`` when report and pmf disagree on n, and for a sample
    too small to test.
    """
    if report.rank != len(pmf.p):
        raise ValueError("report and pmf disagree on n")
    trials = report.trials
    bins = chi2_bins(pmf, trials)
    k_max = pmf.k_max
    empirical = np.zeros(k_max + 2)  # last slot pools the tail
    for k, count in report.histogram.items():
        empirical[min(int(k), k_max + 1)] += count
    empirical /= trials
    exact = pmf.with_tail
    tv = 0.5 * float(np.abs(empirical - exact).sum())

    def total(values):  # one addition at a time, in order: never a compensated sum
        return functools.reduce(operator.add, values, 0.0)

    def pooled(counts):  # each slice summed right to left, as chi2_bins formed it
        counts = counts.tolist()
        return [total(total(counts[part][::-1]) for part in parts) for parts in bins]

    obs_arr = np.array(pooled(empirical * trials))
    exp_bins = pooled(exact * trials)
    exp_arr = np.array(exp_bins) * obs_arr.sum() / total(exp_bins)
    chi2 = ((obs_arr - exp_arr) ** 2 / exp_arr).sum()
    dof = len(bins) - 1
    pvalue = chi2_sf(dof, float(chi2))
    tv_bound = tv_tolerance(pmf, trials)
    return Verdict(
        passed=bool(tv < tv_bound and pvalue > PVALUE_FLOOR),
        tv_distance=tv,
        tv_bound=tv_bound,
        chi2_statistic=float(chi2),
        chi2_pvalue=float(pvalue),
        pvalue_floor=PVALUE_FLOOR,
        dof=dof,
    )
