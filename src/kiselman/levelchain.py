"""The exact law of the level chain, in plain Python floats.

For iid letters with distribution p, the level of the running product in
K_n is an absorbing Markov chain on {0, ..., n}: level i stays with
probability 1 - p_i and steps down to i - 1 with probability p_i.  Its
absorption time T is a sum of n independent geometric variables with
success probabilities p_i.  This module states that law once: the checks
on p, the transition rows, the convolution pass that gives P(T = k), and
E[T] with the truncated tail restored.  It needs nothing beyond the
standard library, so the ``chain`` and ``pmf`` commands load no array
library; ``kiselman.stochastic`` wraps these results in arrays.  Every
budget refuses with ``BudgetExceededError``.
"""

from __future__ import annotations

import math

from kiselman.core import BudgetExceededError

PROBABILITY_SUM_TOL = 1e-12  # largest accepted |sum(p) - 1|
PMF_TAIL = 1e-9  # the default pmf truncation leaves at most this much tail mass
PMF_MAX_K = 1_000_000  # largest pmf truncation; (1 - q, q) with q = 3e-5 needs 690,739


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
    """Rows 0..n of the chain's transition matrix, lower bidiagonal."""
    p = validate_probabilities(p)
    n = len(p)
    rows = [[0.0] * (n + 1) for _ in range(n + 1)]
    rows[0][0] = 1.0
    for i in range(1, n + 1):
        rows[i][i - 1] = p[i - 1]
        rows[i][i] = 1.0 - p[i - 1]
    return rows


def initial_distribution(n: int) -> list[float]:
    """The chain starts at level n: the level of the identity."""
    return [0.0] * n + [1.0]


def hitting_pmf(p, k_max: int | None = None) -> tuple[list[float], float]:
    """P(T = k) for k = 0..K and the tail mass 1 - sum_k P(T = k), from the
    convolution of n geometric pmfs (success p_i, support k >= 1) in one
    O(n * K) forward pass over k.

    ``stage[i]`` holds P(S_i = k) for S_i = T_1 + ... + T_i, updated by
    P(S_i = k) = (1 - p_i) P(S_i = k - 1) + p_i P(S_{i-1} = k - 1).  With
    ``k_max=None`` the pass stops at the first k whose cumulative mass
    reaches 1 - PMF_TAIL, so the tail mass is at most PMF_TAIL.  A
    truncation past PMF_MAX_K raises ``BudgetExceededError``.  A default
    truncation is refused before the pass when
    (1 - p_min)^PMF_MAX_K > 2·PMF_TAIL: T >= G_min, the slowest geometric,
    so P(T > PMF_MAX_K) >= (1 - p_min)^PMF_MAX_K, and the factor 2 keeps the
    pass's rounding from flipping a decision near the boundary.
    """
    p = validate_probabilities(p)
    require_positive(p)
    if k_max is not None and k_max < 0:
        raise ValueError(f"truncation must be >= 0, got {k_max}")
    if k_max is not None and k_max > PMF_MAX_K:
        raise BudgetExceededError(f"pmf truncation {k_max} exceeds budget {PMF_MAX_K}")
    tail_past_budget = f"pmf tail mass stays above {PMF_TAIL} past k = {PMF_MAX_K}"
    if k_max is None and (1.0 - min(p)) ** PMF_MAX_K > 2 * PMF_TAIL:
        raise BudgetExceededError(tail_past_budget)
    n = len(p)
    stages = [(i, 1.0 - pi, pi) for i, pi in zip(range(n, 0, -1), p[::-1])]
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
        raise BudgetExceededError(tail_past_budget)
    return probs, 1.0 - mass


def mean(p, probs) -> float:
    """E[T] from ``probs`` = P(T = k), k = 0..K, as :func:`hitting_pmf`
    gives them for p: the head sum_{k <= K} k P(T = k) plus
    :func:`tail_mean`."""
    head = math.fsum(k * q for k, q in enumerate(probs))
    return head + tail_mean(p, len(probs) - 1)


def tail_mean(p, k_max: int) -> float:
    """sum_{k > K} k P(T = k) = pi Q^K [(K+1)(I-Q)^{-1} + Q (I-Q)^{-2}] r for
    K = ``k_max`` and a p that :func:`hitting_pmf` accepts.

    Q, r and pi are read off :func:`transition_rows` and
    :func:`initial_distribution`: Q is the chain on the transient levels
    1..n, r its absorption column (p_1 at level 1) and pi the start at
    level n.  Q is lower bidiagonal, so pi Q^K comes from repeated squaring
    and (I - Q)^{-1} from forward substitution: row i of I - Q is
    p_i (x_i - x_{i-1}).
    """
    rows = transition_rows(p)[1:]
    q = [row[1:] for row in rows]  # level i + 1 at index i

    def solve(b):  # (I - Q)^{-1} b
        x, prev = [], 0.0
        for pi, bi in zip(p, b):
            prev += bi / pi
            x.append(prev)
        return x

    w = solve([row[0] for row in rows])  # (I - Q)^{-1} r
    u = solve(w)  # (I - Q)^{-2} r
    x = [(k_max + 1) * wi + _dot(row, u) for wi, row in zip(w, q)]
    dist = initial_distribution(len(p))[1:]  # pi, then pi Q^K by repeated squaring
    power, k = q, k_max
    while k:
        if k & 1:
            dist = _row_times(dist, power)
        k >>= 1
        if k:
            power = [_row_times(row, power) for row in power]
    return _dot(dist, x)


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _row_times(row, matrix) -> list[float]:
    """The row vector ``row`` times ``matrix``."""
    return [_dot(row, col) for col in zip(*matrix)]
