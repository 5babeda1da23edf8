"""Partial products in K_n, the level Markov chain, and Monte Carlo runs.

Running products of generator sequences are eventually constant; when every
letter that occurs keeps recurring, the constant value is the idempotent on
the occurring index set.  For iid random letters with distribution p, the
level of the running product is an absorbing Markov chain on {0, ..., n}
that either stays put or steps down by one, and the absorption time is a
sum of n independent geometric variables with success probabilities p_i.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from kiselman.core import Element, idempotent, multiply, unit, validate_word
from kiselman.enumeration import BudgetExceededError, CrosscheckError
from kiselman.level_metric import g, level_by_definition

RNG_ALGORITHM = "numpy PCG64, per-trial stream seeded by (master_seed, trial_index)"
PROBABILITY_SUM_TOL = 1e-12  # largest accepted |sum(p) - 1|
PMF_TAIL = 1e-9  # the default pmf truncation leaves less tail mass than this
PMF_MAX_K = 1_000_000  # largest pmf truncation; (1 - q, q) with q = 3e-5 needs 690,739
STEP_BUDGET = 1_000_000  # most steps one simulated trial may take
TV_FAILURE_PROB = 1e-3  # chance that an exact sampler exceeds tv_tolerance
SEED_CHUNK = 1024  # trials whose streams one vectorised seeding pass computes

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def validate_probabilities(p) -> np.ndarray:
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) < 2:
        raise ValueError("need a probability vector of length n >= 2")
    if not np.isfinite(p).all():
        raise ValueError("probabilities must be finite")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return p


def require_positive(p: np.ndarray) -> None:
    if (p <= 0).any():
        raise ValueError(
            "every generator needs positive probability; otherwise the "
            "hitting time is not almost surely finite"
        )


@dataclass(frozen=True)
class SequenceSpec:
    """A generator-index sequence: ``preamble`` then ``cycle`` repeated
    forever, or an explicit finite ``prefix`` (no statement beyond it)."""

    rank: int
    preamble: tuple[int, ...] = ()
    cycle: tuple[int, ...] = ()
    prefix: tuple[int, ...] | None = None

    def __post_init__(self):
        validate_word(self.rank, self.preamble)
        validate_word(self.rank, self.cycle)
        if self.prefix is not None:
            validate_word(self.rank, self.prefix)
            if self.preamble or self.cycle:
                raise ValueError("give either a prefix or preamble/cycle, not both")
        elif not self.cycle:
            raise ValueError("periodic mode needs a nonempty cycle")

    @property
    def periodic(self) -> bool:
        return self.prefix is None

    def letters(self, horizon: int):
        if self.prefix is not None:
            yield from self.prefix[:horizon]
            return
        for j in range(horizon):
            if j < len(self.preamble):
                yield self.preamble[j]
            else:
                yield self.cycle[(j - len(self.preamble)) % len(self.cycle)]


@dataclass(frozen=True)
class ProductTrace:
    """Running products s_0 = e, s_1, ... with stabilization bookkeeping."""

    spec: SequenceSpec
    products: tuple[Element, ...]
    stabilized: bool
    stable_index: int | None  # first index from which the product never moves

    @property
    def value(self) -> Element:
        if not self.stabilized:
            raise ValueError("sequence not yet stable within the horizon")
        return self.products[self.stable_index]


def partial_products(spec: SequenceSpec, horizon: int = 10_000) -> ProductTrace:
    """Iterate s_j = s_{j-1} x_j and certify stabilization.

    A periodic sequence is certified stable once the product survives one
    full cycle unchanged past the preamble (each step multiplies by one
    cycle letter, so it is then constant forever).  Explicit prefixes can
    only report what was observed.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    products = [unit(spec.rank)]
    last_change = 0
    stabilized = False
    for j, i in enumerate(spec.letters(horizon), start=1):
        nxt = multiply(products[-1], idempotent(spec.rank, {i}))
        if nxt != products[-1]:
            last_change = j
        products.append(nxt)
        if spec.periodic:
            # stable once a full cycle passes unchanged after the preamble:
            # every subsequent factor then fixes the product
            cutoff = max(last_change, len(spec.preamble))
            if j - cutoff >= len(spec.cycle):
                stabilized = True
                break
    return ProductTrace(
        spec=spec,
        products=tuple(products),
        stabilized=stabilized,
        stable_index=last_change if stabilized else None,
    )


def eventual_value(spec: SequenceSpec) -> Element:
    """Closed-form eventual product for periodic sequences whose preamble
    letters all recur in the cycle: the idempotent on the occurring set."""
    if not spec.periodic:
        raise ValueError("eventual value needs a periodic spec")
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
    n = len(p)
    mat = np.zeros((n + 1, n + 1))
    mat[0, 0] = 1.0
    for i in range(1, n + 1):
        mat[i, i - 1] = p[i - 1]
        mat[i, i] = 1.0 - p[i - 1]
    initial = np.zeros(n + 1)
    initial[n] = 1.0
    return TransitionMatrix(p=p, matrix=mat, initial=initial)


def chain_hitting_cdf(p, k_max: int) -> np.ndarray:
    """P(T <= k) for k = 0..k_max via powers of the level chain."""
    chain = transition_matrix(p)
    dist = chain.initial.copy()
    cdf = np.empty(k_max + 1)
    cdf[0] = dist[0]
    for k in range(1, k_max + 1):
        dist = dist @ chain.matrix
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
        """E[T], with the truncated tail restored exactly via the chain.

        sum_{k > K} k P(T=k) = pi Q^K [ (K+1)(I-Q)^{-1} + Q (I-Q)^{-2} ] r
        where Q is the transient block and r the absorption column.
        """
        head = float(np.arange(len(self.probs)) @ self.probs)
        chain = transition_matrix(self.p)
        n = chain.n
        q = chain.matrix[1:, 1:]
        r = chain.matrix[1:, 0]
        pi = chain.initial[1:]
        k = self.k_max
        inv = np.linalg.inv(np.eye(n) - q)
        qk = np.linalg.matrix_power(q, k)
        tail = float(pi @ qk @ ((k + 1) * inv + q @ (inv @ inv)) @ r)
        return head + tail


def exact_hitting_pmf(p, k_max: int | None = None) -> HittingTimePMF:
    """The convolution of n geometric pmfs (success p_i, support k >= 1),
    in one O(n * k_max) forward pass over k.

    ``stage[i]`` holds P(S_i = k) for S_i = T_1 + ... + T_i, updated by
    P(S_i = k) = (1 - p_i) P(S_i = k - 1) + p_i P(S_{i-1} = k - 1).  With
    ``k_max=None`` the pass stops at the first k whose cumulative mass
    reaches 1 - PMF_TAIL.  A truncation past PMF_MAX_K raises
    ``BudgetExceededError``.
    """
    p = validate_probabilities(p)
    require_positive(p)
    if k_max is not None and k_max < 0:
        raise ValueError(f"truncation must be >= 0, got {k_max}")
    if k_max is not None and k_max > PMF_MAX_K:
        raise BudgetExceededError(f"pmf truncation {k_max} exceeds budget {PMF_MAX_K}")
    n = len(p)
    stages = [(i, 1.0 - pi, pi) for i, pi in zip(range(n, 0, -1), p[::-1].tolist())]
    stage = [1.0] + [0.0] * n
    probs = [stage[n]]
    mass = probs[0]
    last = PMF_MAX_K if k_max is None else k_max
    while len(probs) <= last and (k_max is not None or mass < 1.0 - PMF_TAIL):
        for i, stay, move in stages:
            stage[i] = stay * stage[i] + move * stage[i - 1]
        stage[0] = 0.0
        probs.append(stage[n])
        mass += stage[n]
    if k_max is None and mass < 1.0 - PMF_TAIL:
        raise BudgetExceededError(f"pmf tail mass stays above {PMF_TAIL} past k = {PMF_MAX_K}")
    probs = np.array(probs)
    return HittingTimePMF(p=p, probs=probs, tail_mass=float(1.0 - probs.sum()))


@dataclass(frozen=True)
class SimulationReport:
    """Seeded Monte Carlo summary; serialization is byte-stable."""

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
        payload = {
            "rank": self.rank,
            "p": list(self.p),
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "rng": self.rng,
            "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
            "mean": self.mean,
            "variance": self.variance,
            "crosscheck_trials": self.crosscheck_trials,
            "crosscheck_failures": self.crosscheck_failures,
            "transition_counts": {
                str(k): v for k, v in sorted(self.transition_counts.items())
            },
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> SimulationReport:
        """Inverse of :meth:`to_json`; keys it does not write are ignored.

        Raises ``ValueError`` unless the histogram counts ``trials`` >= 1
        hitting times.
        """
        payload = json.loads(text)
        report = cls(
            rank=payload["rank"],
            p=tuple(payload["p"]),
            trials=payload["trials"],
            seed=payload["seed"],
            mode=payload["mode"],
            rng=payload["rng"],
            histogram={int(k): v for k, v in payload["histogram"].items()},
            mean=payload["mean"],
            variance=payload["variance"],
            crosscheck_trials=payload["crosscheck_trials"],
            crosscheck_failures=payload["crosscheck_failures"],
            transition_counts={
                int(k): v for k, v in payload["transition_counts"].items()
            },
        )
        if report.trials < 1:
            raise ValueError(f"a report needs at least one trial, got {report.trials}")
        counted = sum(report.histogram.values())
        if counted != report.trials:
            raise ValueError(
                f"histogram counts {counted} hitting times but trials is {report.trials}"
            )
        return report


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


def _windows(start: int, stop: int, size: int):
    """Split [start, stop) into windows of at most ``size`` trials, none of
    which crosses a multiple of 2^32: inside a window every trial index has
    the same 32-bit words but the lowest."""
    while start < stop:
        end = min(stop, start + size, ((start >> 32) + 1) << 32)
        yield start, end
        start = end


def _trial_streams(seed: int, start: int, stop: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``default_rng([seed, trial])`` for every
    trial in [start, stop), bit for bit.

    numpy hashes the entropy words of ``[seed, trial]`` into a pool of four
    uint32 words (``SeedSequence``: ``hashmix`` then ``mix``), draws
    ``generate_state(4, uint64)`` from the pool, and seeds PCG64 with it
    (``srandom``: inc = 2·initseq + 1, state = (inc + initstate)·M + inc,
    mod 2^128).  Here the uint32 steps run on arrays with one lane per trial;
    the hash constants do not depend on the data, so they are Python ints.
    """
    seed_words = _words(seed)
    streams: list[tuple[int, int]] = []
    for lo, hi in _windows(start, stop, stop - start):
        lanes = hi - lo
        low = np.arange(lanes, dtype=np.uint32) + np.uint32(lo & _MASK32)
        high = _words(lo >> 32) if lo >> 32 else []
        entropy = [np.full(lanes, w, np.uint32) for w in seed_words] + [low] + [
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
        state64 = [(state32[2 * k] | state32[2 * k + 1] << np.uint64(32)).tolist()
                   for k in range(4)]
        for s_hi, s_lo, q_hi, q_lo in zip(*state64):
            inc = ((q_hi << 64 | q_lo) << 1 | 1) & _MASK128
            streams.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return streams


def simulate(
    n: int,
    p,
    trials: int,
    seed: int,
    mode: str = "full",
) -> SimulationReport:
    """Run seeded iid-product trials and record hitting times of the zero.

    ``mode="level"`` tracks only the level via ``g``; ``mode="full"`` also
    multiplies out the product and asserts, at every step, that its level
    by definition equals the level of the chain, and at the end of the
    trial that the product is the zero.  For n >= 4 the full crosscheck
    is sampled (every 100th trial) since canonical words grow with n.
    Tracked steps read a right-Cayley table built over the states the
    trials visit, for this call only: it maps (x, i) to x·a_i and the
    level by definition of x·a_i, so each visited pair is multiplied and
    checked once and at most min(n·|K_n|, tracked steps) pairs are held.
    A trial longer than STEP_BUDGET steps raises ``BudgetExceededError``.
    Reports are deterministic functions of (n, p, trials, seed, mode).

    Trial t draws from the stream of ``default_rng([seed, t])``: one PCG64
    per call is set to the state that :func:`_trial_streams` computes for
    SEED_CHUNK trials at a time.  The first trial of each chunk is seeded
    by numpy as well, and a differing state raises ``CrosscheckError``.
    """
    p = validate_probabilities(p)
    require_positive(p)
    if len(p) != n:
        raise ValueError(f"probability vector length {len(p)} != n = {n}")
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode not in ("level", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    stride = 1 if n <= 3 else 100

    cum = np.cumsum(p).tolist()
    histogram: dict[int, int] = {}
    transition_counts: dict[int, list[int]] = {i: [0, 0] for i in range(1, n + 1)}
    total = 0.0
    total_sq = 0.0
    crosscheck_trials = 0
    crosscheck_failures = 0
    e = unit(n)
    gens = [idempotent(n, {i}) for i in range(1, n + 1)]
    right_cayley: dict[tuple[Element, int], tuple[Element, int]] = {}
    bitgen = np.random.PCG64(0)  # reseeded before every trial
    rng = np.random.Generator(bitgen)

    for lo, hi in _windows(0, trials, SEED_CHUNK):
        # numpy seeds the window's first trial itself; this also rejects
        # a seed numpy refuses, before any draw
        expected = np.random.default_rng([seed, lo]).bit_generator.state["state"]
        streams = _trial_streams(seed, lo, hi)
        if expected != {"state": streams[0][0], "inc": streams[0][1]}:
            raise CrosscheckError(
                f"stream of trial {lo} differs from default_rng([{seed}, {lo}])"
            )
        for trial, (state, inc) in enumerate(streams, start=lo):
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                            "has_uint32": 0, "uinteger": 0}
            track_element = mode == "full" and trial % stride == 0
            lvl = n
            steps = 0
            prod = e
            block: list[float] = []
            while lvl > 0:
                if not block:
                    # any block size consumes the same doubles; 16 measured fastest
                    block = rng.random(16).tolist()
                    block.reverse()
                i = bisect_right(cum, block.pop()) + 1
                steps += 1
                if steps > STEP_BUDGET:
                    raise BudgetExceededError(
                        f"trial {trial} exceeded step budget {STEP_BUDGET}; "
                        "check the probability vector"
                    )
                nxt = g(lvl, i)
                transition_counts[lvl][0 if nxt == lvl else 1] += 1
                if track_element:
                    step = right_cayley.get((prod, i))
                    if step is None:
                        after = multiply(prod, gens[i - 1])
                        step = right_cayley[prod, i] = (after, level_by_definition(after))
                    prod, prod_level = step
                    if prod_level != nxt:
                        crosscheck_failures += 1
                lvl = nxt
            if track_element:
                crosscheck_trials += 1
                if prod.letters != tuple(range(n, 0, -1)):
                    crosscheck_failures += 1
            histogram[steps] = histogram.get(steps, 0) + 1
            total += steps
            total_sq += steps * steps

    mean = total / trials
    variance = total_sq / trials - mean * mean
    report = SimulationReport(
        rank=n,
        p=tuple(float(v) for v in p),
        trials=trials,
        seed=seed,
        mode=mode,
        rng=RNG_ALGORITHM,
        histogram=histogram,
        mean=mean,
        variance=variance,
        crosscheck_trials=crosscheck_trials,
        crosscheck_failures=crosscheck_failures,
        transition_counts=transition_counts,
    )
    if crosscheck_failures:
        raise CrosscheckError(
            f"{crosscheck_failures} level/product mismatches; report: "
            f"{report.to_json()}"
        )
    return report


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
    tv_bound: float = 0.01,
    pvalue_floor: float = 1e-3,
) -> Verdict:
    """Compare an empirical hitting-time histogram against the exact pmf.

    Total-variation distance over the truncated support (tail pooled) plus
    a chi-square test over bins with expected count >= 5.  Raises
    ``ValueError`` unless 0 < tv_bound <= 1 and 0 <= pvalue_floor < 1.
    """
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
    if not obs_bins:
        raise ValueError("insufficient trials for chi-square binning")
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


def sample_from_pmf(pmf: HittingTimePMF, trials: int, seed: int) -> SimulationReport:
    """Inverse-CDF sampler used as a self-consistency control for
    :func:`verify_distribution`."""
    rng = np.random.default_rng(seed)
    cdf = pmf.cdf()
    draws = np.searchsorted(cdf, rng.random(trials))
    histogram: dict[int, int] = {}
    for k in draws.tolist():
        histogram[k] = histogram.get(k, 0) + 1
    mean = float(draws.mean())
    return SimulationReport(
        rank=len(pmf.p),
        p=tuple(float(v) for v in pmf.p),
        trials=trials,
        seed=seed,
        mode="resample",
        rng=RNG_ALGORITHM,
        histogram=histogram,
        mean=mean,
        variance=float(draws.var()),
        crosscheck_trials=0,
        crosscheck_failures=0,
    )
