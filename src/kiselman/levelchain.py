"""The exact law of the level chain, in plain Python floats.

For iid letters with distribution p, the level of the running product in
K_n is an absorbing Markov chain on {0, ..., n}: level i stays with
probability 1 - p_i and steps down to i - 1 with probability p_i.  Its
absorption time T is a sum of n independent geometric variables with
success probabilities p_i.  This module states that law once: the checks
on p, the transition rows, the convolution pass that gives P(T = k), and
the truncated tail's mass and mean, read off the pass's last stage by
memorylessness.  It needs nothing beyond the standard library, so the
``chain`` and ``pmf`` commands load no array library;
``kiselman.stochastic`` wraps these results in arrays.  Every budget
refuses with ``BudgetExceededError``.
"""

from __future__ import annotations

import math

from kiselman.core import BudgetExceededError

PROBABILITY_SUM_TOL = 1e-12  # largest accepted |sum(p) - 1|
PMF_TAIL = 1e-9  # the default pmf truncation leaves at most this much tail mass P(T > K)
PMF_MAX_K = 1_000_000  # largest pmf truncation at n = 2; (1 - q, q) with q = 3e-5 needs 690,767
# most entries (n + 1)^2 of the dense transition rows: `chain --n 1999` prints
# its 4,000,000 in about 1 s on a 2-CPU VM
ENTRY_BUDGET = 4_000_000


def validate_probabilities(p) -> tuple[float, ...]:
    """p as a tuple of floats.  Raises ``ValueError`` unless p is a finite,
    nonnegative vector of length >= 2 whose sum is within
    PROBABILITY_SUM_TOL of 1."""
    try:  # a scalar, a string or a vector of vectors is no vector of floats
        p = () if isinstance(p, (str, bytes)) else tuple(map(float, p))
    except TypeError:
        p = ()
    if len(p) < 2:
        raise ValueError("need a probability vector of length n >= 2")
    if not all(map(math.isfinite, p)):
        raise ValueError("probabilities must be finite")
    if min(p) < 0:
        raise ValueError("probabilities must be nonnegative")
    total = sum(p)
    if abs(total - 1.0) > PROBABILITY_SUM_TOL:
        raise ValueError(f"probabilities sum to {total!r}, not 1")
    return p


def require_positive(p) -> None:
    if min(p) <= 0:
        raise ValueError(
            "every generator needs positive probability; otherwise the "
            "hitting time is not almost surely finite"
        )


def transition_rows(p) -> list[list[float]]:
    """Rows 0..n of the chain's transition matrix, lower bidiagonal.
    Raises ``BudgetExceededError``, before any row is built, past
    ENTRY_BUDGET entries."""
    p = validate_probabilities(p)
    n = len(p)
    if (n + 1) ** 2 > ENTRY_BUDGET:
        raise BudgetExceededError(f"transition rows at n = {n}: over {ENTRY_BUDGET} entries")
    rows = [[0.0] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = 1.0
    for i in range(1, n + 1):
        rows[i][i - 1] = p[i - 1]
        rows[i][i] = 1.0 - p[i - 1]
    return rows


def initial_distribution(n: int) -> list[float]:
    """The chain starts at level n: the level of the identity."""
    return [0.0] * n + [1.0]


def max_k(n: int) -> int:
    """The largest pmf truncation at n generators: 2·PMF_MAX_K // n, so that
    no pass makes more than 2·PMF_MAX_K stage updates (n per k, about 110 ns
    each on a 2-CPU VM) and n = 2 keeps PMF_MAX_K."""
    return 2 * PMF_MAX_K // n


def hitting_pmf(p, k_max: int | None = None) -> tuple[list[float], float, float]:
    """P(T = k) for k = 0..K, the tail mass P(T > K) and the tail mean
    sum_{k > K} k P(T = k) (:func:`_tail`), from the convolution of n
    geometric pmfs (success p_i, support k >= 1) in one O(n * K) forward
    pass over k.

    ``stage[i]`` holds P(S_i = k) for S_i = T_1 + ... + T_i, updated by
    P(S_i = k) = (1 - p_i) P(S_i = k - 1) + p_i P(S_{i-1} = k - 1).  With
    ``k_max=None`` the pass stops at the first k whose tail mass is at most
    PMF_TAIL.  The tail is read off the stage only once the cumulative mass
    reaches 1 - 1.25·PMF_TAIL: that float sum of at most 2·PMF_MAX_K terms,
    each at most 1, is off by less than 2·PMF_MAX_K·2^-53 < PMF_TAIL/4, so
    every earlier tail is past PMF_TAIL.
    A truncation past K = :func:`max_k` raises ``BudgetExceededError``.  A
    default truncation is refused before the pass when
    (1 - p_min)^K > 2·PMF_TAIL: T >= G_min, the slowest geometric, so
    P(T > K) >= (1 - p_min)^K, and the factor 2 keeps the pass's rounding
    from flipping a decision near the boundary.
    """
    p = validate_probabilities(p)
    require_positive(p)
    if k_max is not None and k_max < 0:
        raise ValueError(f"truncation must be >= 0, got {k_max}")
    n = len(p)
    budget = max_k(n)
    if k_max is not None and k_max > budget:
        raise BudgetExceededError(f"pmf truncation {k_max} exceeds budget {budget} at n = {n}")
    tail_past_budget = f"pmf tail mass stays above {PMF_TAIL} past k = {budget}"
    if k_max is None and (1.0 - min(p)) ** budget > 2 * PMF_TAIL:
        raise BudgetExceededError(tail_past_budget)
    stages = [(i, 1.0 - pi, pi) for i, pi in zip(range(n, 0, -1), p[::-1])]
    stage = [1.0] + [0.0] * n
    probs = [stage[n]]
    mass = probs[0]
    last = budget if k_max is None else k_max
    while len(probs) <= last and (k_max is not None or mass < 1.0 - 1.25 * PMF_TAIL
                                  or _tail(p, 0, stage)[0] > PMF_TAIL):
        for i, stay, move in stages:
            stage[i] = stay * stage[i] + move * stage[i - 1]
        stage[0] = 0.0
        probs.append(stage[n])
        mass += stage[n]
    tail_mass, tail_mean = _tail(p, len(probs) - 1, stage)
    if k_max is None and tail_mass > PMF_TAIL:
        raise BudgetExceededError(tail_past_budget)
    return probs, tail_mass, tail_mean


def _tail(p, k_max: int, stage) -> tuple[float, float]:
    """P(T > K) and sum_{k > K} k P(T = k) for K = ``k_max``, from the
    pass's last stage: ``stage[i]`` = P(S_i = K) for i = 0..n, with S_0 = 0.

    T > K iff S_i <= K < S_{i+1} for one i < n.  That event has probability
    P(S_{i+1} = K + 1) / p_{i+1} = (1 - p_{i+1}) stage[i+1] / p_{i+1} +
    stage[i], by the pass's own update.  On it the geometric T_{i+1} has
    failed K - S_i times, so by memorylessness T has mean
    K + sum_{l > i} 1/p_l there.  Both are sums of nonnegative terms, so
    neither cancels as 1 - sum_k P(T = k) does: against an exact pass, the
    tail mass of p = (0.2, 0.3, 0.5) is off by 6e-15 relative, and that of
    n = 20, every p_i = 1/20, by 5e-14, where 1 - mass was off by 2.2e-7
    and 2.0e-5.  O(n), whatever K.
    """
    mass, total, rest = 0.0, 0.0, k_max  # rest = K + sum_{l > i} 1/p_l
    for i in range(len(p) - 1, -1, -1):
        rest += 1.0 / p[i]
        event = (1.0 - p[i]) * stage[i + 1] / p[i] + stage[i]  # S_i <= K < S_{i+1}
        mass, total = mass + event, total + event * rest
    return mass, total


def mean(probs, tail_mean: float) -> float:
    """E[T] from ``probs`` = P(T = k), k = 0..K, and the tail mean that
    :func:`hitting_pmf` returns with them: the head sum_{k <= K} k P(T = k)
    plus the tail."""
    return math.fsum(k * q for k, q in enumerate(probs)) + tail_mean
